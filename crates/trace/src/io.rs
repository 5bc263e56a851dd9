//! Trace serialization: CSV export/import so real request traces (or
//! traces produced by other tools) can be replayed through the
//! simulator, and generated traces can be inspected offline.
//!
//! Format: a header line `arrival_us,model,strict` followed by one row
//! per request.

use std::fmt;
use std::io::{BufRead, Write};

use protean_models::ModelId;
use protean_sim::{SimDuration, SimTime};

use crate::{push_requests, Request, Trace, MAX_DURATION_SECS};

/// Error produced while reading a trace file.
#[derive(Debug)]
pub enum ReadTraceError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A malformed line (1-based line number and reason).
    Parse {
        /// Line number, counting the header as line 1.
        line: usize,
        /// What was wrong.
        reason: String,
    },
    /// An error with the originating file path attached
    /// ([`Trace::read_csv_file`] wraps every failure this way, so
    /// user-facing messages name the file, not just the line).
    InFile {
        /// The path that was being read.
        path: String,
        /// The underlying failure.
        source: Box<ReadTraceError>,
    },
}

impl ReadTraceError {
    /// Wraps the error with the file path it occurred in. Already
    /// path-annotated errors are left untouched (the innermost path is
    /// the one that was actually being read).
    pub fn in_file(self, path: &std::path::Path) -> ReadTraceError {
        match self {
            e @ ReadTraceError::InFile { .. } => e,
            e => ReadTraceError::InFile {
                path: path.display().to_string(),
                source: Box::new(e),
            },
        }
    }

    /// The 1-based line the error points at, if it is a parse error.
    pub fn line(&self) -> Option<usize> {
        match self {
            ReadTraceError::Parse { line, .. } => Some(*line),
            ReadTraceError::InFile { source, .. } => source.line(),
            ReadTraceError::Io(_) => None,
        }
    }
}

impl fmt::Display for ReadTraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReadTraceError::Io(e) => write!(f, "trace I/O error: {e}"),
            ReadTraceError::Parse { line, reason } => {
                write!(f, "trace line {line}: {reason}")
            }
            ReadTraceError::InFile { path, source } => {
                write!(f, "{path}: {source}")
            }
        }
    }
}

impl std::error::Error for ReadTraceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ReadTraceError::Io(e) => Some(e),
            ReadTraceError::Parse { .. } => None,
            ReadTraceError::InFile { source, .. } => Some(source.as_ref()),
        }
    }
}

impl From<std::io::Error> for ReadTraceError {
    fn from(e: std::io::Error) -> Self {
        ReadTraceError::Io(e)
    }
}

/// The CSV header written and expected by this module.
pub const CSV_HEADER: &str = "arrival_us,model,strict";

impl Trace {
    /// Writes the trace as CSV. The writer may be passed by `&mut`
    /// reference.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `w`.
    pub fn write_csv<W: Write>(&self, mut w: W) -> std::io::Result<()> {
        writeln!(w, "{CSV_HEADER}")?;
        for r in self.iter() {
            writeln!(
                w,
                "{},{},{}",
                r.arrival.as_micros(),
                r.model.slug(),
                u8::from(r.strict)
            )?;
        }
        Ok(())
    }

    /// Reads a trace from CSV produced by [`Trace::write_csv`] (or any
    /// file in the same format). Rows must be sorted by arrival time.
    /// `duration` is inferred as the last arrival rounded up to the
    /// next second (or may be overridden afterwards by the caller's
    /// simulation config).
    ///
    /// # Errors
    ///
    /// Returns [`ReadTraceError`] on I/O failure, a bad header, an
    /// unknown model slug, a malformed field, out-of-order arrivals, or
    /// an arrival past [`MAX_DURATION_SECS`], the cap `--duration` puts
    /// on a generated trace's span.
    pub fn read_csv<R: BufRead>(r: R) -> Result<Trace, ReadTraceError> {
        let mut lines = r.lines();
        let header = lines.next().ok_or_else(|| ReadTraceError::Parse {
            line: 1,
            reason: "empty file".into(),
        })??;
        if header.trim() != CSV_HEADER {
            return Err(ReadTraceError::Parse {
                line: 1,
                reason: format!("expected header '{CSV_HEADER}', got '{header}'"),
            });
        }
        let mut runs = Vec::new();
        let mut last = SimTime::ZERO;
        for (i, line) in lines.enumerate() {
            let line_no = i + 2;
            let line = line?;
            if line.trim().is_empty() {
                continue;
            }
            let parse = |reason: String| ReadTraceError::Parse {
                line: line_no,
                reason,
            };
            let mut fields = line.split(',');
            let arrival_us: u64 = fields
                .next()
                .ok_or_else(|| parse("missing arrival_us".into()))?
                .trim()
                .parse()
                .map_err(|_| parse("arrival_us is not an integer".into()))?;
            if arrival_us as f64 > MAX_DURATION_SECS * 1e6 {
                return Err(parse(format!(
                    "arrival_us {arrival_us} is past the cap of {MAX_DURATION_SECS:e} s on a trace's span"
                )));
            }
            let slug = fields
                .next()
                .ok_or_else(|| parse("missing model".into()))?
                .trim();
            let model = ModelId::from_slug(slug)
                .ok_or_else(|| parse(format!("unknown model slug '{slug}'")))?;
            let strict = match fields
                .next()
                .ok_or_else(|| parse("missing strict".into()))?
                .trim()
            {
                "0" => false,
                "1" => true,
                other => return Err(parse(format!("strict must be 0 or 1, got '{other}'"))),
            };
            if fields.next().is_some() {
                return Err(parse("too many fields".into()));
            }
            let arrival = SimTime::from_micros(arrival_us);
            if arrival < last {
                return Err(parse("arrivals are not sorted by time".into()));
            }
            last = arrival;
            let r = Request {
                arrival,
                model,
                strict,
            };
            push_requests(&mut runs, r, 1);
        }
        let duration = SimDuration::from_secs(last.as_secs_f64().ceil().max(1.0));
        Ok(Trace { runs, duration })
    }

    /// Opens `path` and reads it with [`Trace::read_csv`], annotating
    /// every failure — including the open itself — with the file path,
    /// so a malformed row in a user-authored trace reports
    /// `<path>: trace line N: <reason>` instead of a bare line number.
    ///
    /// # Errors
    ///
    /// Returns [`ReadTraceError::InFile`] wrapping the underlying I/O
    /// or parse error.
    pub fn read_csv_file<P: AsRef<std::path::Path>>(path: P) -> Result<Trace, ReadTraceError> {
        let path = path.as_ref();
        let file = std::fs::File::open(path).map_err(|e| ReadTraceError::Io(e).in_file(path))?;
        Trace::read_csv(std::io::BufReader::new(file)).map_err(|e| e.in_file(path))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{TraceConfig, TraceShape};
    use proptest::prelude::*;
    use protean_sim::RngFactory;

    fn sample_trace() -> Trace {
        TraceConfig {
            shape: TraceShape::constant(200.0),
            duration: SimDuration::from_secs(5.0),
            strict_model: ModelId::ResNet50,
            strict_fraction: 0.5,
            be_pool: vec![ModelId::MobileNet, ModelId::ShuffleNetV2],
            be_rotation_period: SimDuration::from_secs(2.0),
            batch_arrivals: true,
        }
        .generate(&RngFactory::new(5))
    }

    #[test]
    fn csv_round_trips() {
        let trace = sample_trace();
        let mut buf = Vec::new();
        trace.write_csv(&mut buf).unwrap();
        let back = Trace::read_csv(buf.as_slice()).unwrap();
        assert!(back.iter().eq(trace.iter()));
    }

    #[test]
    fn header_is_validated() {
        let err = Trace::read_csv("bogus,header\n1,resnet50,1\n".as_bytes()).unwrap_err();
        assert!(matches!(err, ReadTraceError::Parse { line: 1, .. }));
    }

    #[test]
    fn bad_rows_are_located() {
        let csv = format!("{CSV_HEADER}\n100,resnet50,1\nxxx,resnet50,0\n");
        let err = Trace::read_csv(csv.as_bytes()).unwrap_err();
        match err {
            ReadTraceError::Parse { line, .. } => assert_eq!(line, 3),
            other => panic!("unexpected {other:?}"),
        }
        let csv = format!("{CSV_HEADER}\n100,notamodel,1\n");
        assert!(Trace::read_csv(csv.as_bytes()).is_err());
        let csv = format!("{CSV_HEADER}\n100,resnet50,2\n");
        assert!(Trace::read_csv(csv.as_bytes()).is_err());
        let csv = format!("{CSV_HEADER}\n100,resnet50,1,extra\n");
        assert!(Trace::read_csv(csv.as_bytes()).is_err());
    }

    #[test]
    fn unsorted_arrivals_rejected() {
        let csv = format!("{CSV_HEADER}\n200,resnet50,1\n100,resnet50,0\n");
        let err = Trace::read_csv(csv.as_bytes()).unwrap_err();
        assert!(matches!(err, ReadTraceError::Parse { line: 3, .. }));
    }

    #[test]
    fn arrivals_past_the_span_cap_are_rejected() {
        // `u64::MAX` µs: past the clock's range, so the inferred duration
        // would overflow.
        let csv = format!("{CSV_HEADER}\n18446744073709551615,resnet50,1\n");
        let err = Trace::read_csv(csv.as_bytes()).unwrap_err();
        assert!(
            matches!(err, ReadTraceError::Parse { line: 2, .. }),
            "{err}"
        );
        assert!(err.to_string().contains("cap"), "{err}");
        // 5e8 s: representable, but a span `--duration` rejects.
        let csv = format!("{CSV_HEADER}\n100,resnet50,1\n500000000000000,mobilenet,0\n");
        let err = Trace::read_csv(csv.as_bytes()).unwrap_err();
        assert!(
            matches!(err, ReadTraceError::Parse { line: 3, .. }),
            "{err}"
        );
        // The cap itself is accepted.
        let csv = format!("{CSV_HEADER}\n100000000000000,resnet50,1\n");
        let t = Trace::read_csv(csv.as_bytes()).unwrap();
        assert_eq!(t.duration(), SimDuration::from_secs(MAX_DURATION_SECS));
    }

    #[test]
    fn file_errors_carry_the_path_and_line() {
        let dir = std::env::temp_dir().join("protean_trace_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("truncated.csv");
        // A truncated row: the strict field is missing entirely.
        std::fs::write(
            &path,
            format!("{CSV_HEADER}\n100,resnet50,1\n200,resnet50\n"),
        )
        .unwrap();
        let err = Trace::read_csv_file(&path).unwrap_err();
        assert_eq!(err.line(), Some(3));
        let msg = err.to_string();
        assert!(msg.contains("truncated.csv"), "no path in '{msg}'");
        assert!(msg.contains("line 3"), "no line in '{msg}'");
        assert!(msg.contains("missing strict"), "no reason in '{msg}'");
        // A missing file reports the path too.
        let gone = dir.join("nonexistent.csv");
        let err = Trace::read_csv_file(&gone).unwrap_err();
        assert!(err.line().is_none());
        assert!(err.to_string().contains("nonexistent.csv"));
        // A well-formed file round-trips through the path API.
        let ok = dir.join("ok.csv");
        let trace = sample_trace();
        let mut buf = Vec::new();
        trace.write_csv(&mut buf).unwrap();
        std::fs::write(&ok, &buf).unwrap();
        let back = Trace::read_csv_file(&ok).unwrap();
        assert!(back.iter().eq(trace.iter()));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn in_file_wrapping_is_idempotent() {
        let err = ReadTraceError::Parse {
            line: 4,
            reason: "boom".into(),
        }
        .in_file(std::path::Path::new("a.csv"))
        .in_file(std::path::Path::new("b.csv"));
        // The innermost path — the file actually read — wins.
        assert_eq!(err.to_string(), "a.csv: trace line 4: boom");
    }

    #[test]
    fn blank_lines_are_skipped_and_duration_inferred() {
        let csv = format!("{CSV_HEADER}\n100,resnet50,1\n\n2500000,mobilenet,0\n");
        let t = Trace::read_csv(csv.as_bytes()).unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t.duration(), SimDuration::from_secs(3.0));
        assert_eq!(t.iter().nth(1).map(|r| r.model), Some(ModelId::MobileNet));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        /// Any generated trace survives a CSV round trip exactly.
        #[test]
        fn prop_round_trip(seed in 0u64..500) {
            let trace = TraceConfig {
                shape: TraceShape::constant(150.0),
                duration: SimDuration::from_secs(3.0),
                strict_model: ModelId::Bert,
                strict_fraction: 0.3,
                be_pool: vec![ModelId::Albert, ModelId::RoBerta],
                be_rotation_period: SimDuration::from_secs(1.0),
                batch_arrivals: false,
            }
            .generate(&RngFactory::new(seed));
            let mut buf = Vec::new();
            trace.write_csv(&mut buf).unwrap();
            let back = Trace::read_csv(buf.as_slice()).unwrap();
            prop_assert_eq!(back.iter().collect::<Vec<_>>(), trace.iter().collect::<Vec<_>>());
        }
    }
}
