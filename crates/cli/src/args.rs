//! A small `--flag value` argument parser (the workspace stays within
//! its approved dependency set, so no clap).

use std::collections::HashMap;
use std::fmt;

/// Error produced while parsing command-line arguments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArgError(pub String);

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ArgError {}

/// Parsed `--flag value` pairs plus the leading subcommand.
#[derive(Debug, Clone, Default)]
pub struct Args {
    /// The first positional token (subcommand), if any.
    pub command: Option<String>,
    flags: HashMap<String, String>,
}

impl Args {
    /// Parses a token stream of the form `command --flag value …`.
    ///
    /// # Errors
    ///
    /// Returns [`ArgError`] on a flag without a value, a value without a
    /// flag, or a repeated flag.
    pub fn parse<I: IntoIterator<Item = String>>(tokens: I) -> Result<Args, ArgError> {
        let mut args = Args::default();
        let mut iter = tokens.into_iter().peekable();
        if let Some(first) = iter.peek() {
            if !first.starts_with("--") {
                args.command = iter.next();
            }
        }
        while let Some(token) = iter.next() {
            let Some(name) = token.strip_prefix("--") else {
                return Err(ArgError(format!(
                    "unexpected positional argument '{token}' (flags are --name value)"
                )));
            };
            let value = iter
                .next()
                .ok_or_else(|| ArgError(format!("flag --{name} is missing its value")))?;
            if value.starts_with("--") {
                return Err(ArgError(format!(
                    "flag --{name} is missing its value (found '{value}')"
                )));
            }
            if args.flags.insert(name.to_string(), value).is_some() {
                return Err(ArgError(format!("flag --{name} given twice")));
            }
        }
        Ok(args)
    }

    /// The raw value of `--name`, if present.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.flags.get(name).map(String::as_str)
    }

    /// A typed value of `--name`, or `default` when absent.
    ///
    /// # Errors
    ///
    /// Returns [`ArgError`] when the value does not parse as `T`.
    pub fn get_or<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, ArgError> {
        match self.get(name) {
            None => Ok(default),
            Some(raw) => raw
                .parse()
                .map_err(|_| ArgError(format!("--{name}: cannot parse '{raw}'"))),
        }
    }

    /// Validates that every provided flag is in `known`, reporting the
    /// first unknown one.
    ///
    /// # Errors
    ///
    /// Returns [`ArgError`] naming the unknown flag.
    pub fn reject_unknown(&self, known: &[&str]) -> Result<(), ArgError> {
        let mut names: Vec<&str> = self.flags.keys().map(String::as_str).collect();
        names.sort_unstable();
        for name in names {
            if !known.contains(&name) {
                return Err(ArgError(format!(
                    "unknown flag --{name} (expected one of: {})",
                    known.join(", ")
                )));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_command_and_flags() {
        let a = Args::parse(toks("simulate --rps 5000 --scheme protean")).unwrap();
        assert_eq!(a.command.as_deref(), Some("simulate"));
        assert_eq!(a.get("rps"), Some("5000"));
        assert_eq!(a.get_or("rps", 0.0).unwrap(), 5000.0);
        assert_eq!(a.get_or("missing", 7u32).unwrap(), 7);
    }

    #[test]
    fn flags_without_command() {
        let a = Args::parse(toks("--rps 100")).unwrap();
        assert_eq!(a.command, None);
        assert_eq!(a.get("rps"), Some("100"));
    }

    #[test]
    fn missing_value_is_an_error() {
        assert!(Args::parse(toks("run --rps")).is_err());
        assert!(Args::parse(toks("run --rps --seed 1")).is_err());
    }

    #[test]
    fn duplicate_flag_is_an_error() {
        assert!(Args::parse(toks("run --x 1 --x 2")).is_err());
    }

    #[test]
    fn stray_positional_is_an_error() {
        assert!(Args::parse(toks("run --x 1 oops")).is_err());
    }

    #[test]
    fn unparseable_value_is_an_error() {
        let a = Args::parse(toks("run --rps banana")).unwrap();
        assert!(a.get_or("rps", 1.0).is_err());
    }

    #[test]
    fn unknown_flags_are_reported() {
        let a = Args::parse(toks("run --speling 1")).unwrap();
        let err = a.reject_unknown(&["spelling"]).unwrap_err();
        assert!(err.0.contains("--speling"));
        assert!(a.reject_unknown(&["speling"]).is_ok());
    }
}
