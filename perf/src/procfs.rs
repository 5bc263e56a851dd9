//! Readers for the two `/proc` figures the driver reports. Each returns
//! `Err(reason)` instead of panicking when `/proc` is missing or has an
//! unexpected format; the caller then reports the metric as `null`.

/// Clock ticks per second of `/proc/<pid>/stat`'s CPU times (`USER_HZ`,
/// 100 on every Linux ABI this workspace builds for).
const TICKS_PER_SEC: f64 = 100.0;

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status unreadable: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("/proc/self/status has no VmHWM line")?;
    let kb: f64 = line["VmHWM:".len()..]
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .map_err(|e| format!("VmHWM unparsable: {e}"))?;
    Ok(kb / 1024.0)
}

/// User plus system CPU time this process has used, in seconds, summed
/// over all its threads.
pub fn cpu_seconds() -> Result<f64, String> {
    let stat = std::fs::read_to_string("/proc/self/stat")
        .map_err(|e| format!("/proc/self/stat unreadable: {e}"))?;
    cpu_seconds_from_stat(&stat)
}

/// Parses utime and stime (fields 14 and 15) out of a `stat` line. The
/// command name in field 2 may hold spaces and parentheses, so fields
/// are counted from the last `)`.
fn cpu_seconds_from_stat(stat: &str) -> Result<f64, String> {
    let rest = stat
        .rsplit_once(')')
        .ok_or("/proc/self/stat has no command field")?
        .1;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3 (state), so utime is index 14 - 3.
    let tick = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .ok_or_else(|| format!("/proc/self/stat has only {} fields", fields.len() + 2))?
            .parse::<f64>()
            .map_err(|e| format!("/proc/self/stat field {} unparsable: {e}", i + 3))
    };
    Ok((tick(11)? + tick(12)?) / TICKS_PER_SEC)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_parsing_counts_fields_after_the_command_name() {
        let line = "4242 (perf (x) y) R 1 2 3 4 5 6 7 8 9 10 250 50 0 0 20 0 3 0";
        assert_eq!(cpu_seconds_from_stat(line), Ok(3.0));
        assert!(cpu_seconds_from_stat("4242 perf R 1").is_err());
        assert!(cpu_seconds_from_stat("4242 (perf) R 1 2").is_err());
    }

    #[test]
    fn live_readers_report_plausible_values_or_a_reason() {
        match peak_rss_mb() {
            Ok(mb) => assert!(mb > 0.0),
            Err(reason) => assert!(!reason.is_empty()),
        }
        match cpu_seconds() {
            Ok(s) => assert!(s >= 0.0),
            Err(reason) => assert!(!reason.is_empty()),
        }
    }
}
