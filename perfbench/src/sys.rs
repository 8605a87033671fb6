//! Process memory figures from `/proc/self/status`.

use phantom_sim::telemetry;

/// A `/proc/self/status` field in kB (`VmHWM`, ...), as MB.
fn status_mb(field: &str) -> Option<f64> {
    let text = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_status_mb(&text, field)
}

fn parse_status_mb(text: &str, field: &str) -> Option<f64> {
    let line = text
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))?;
    let kb: f64 = line.trim().strip_suffix("kB")?.trim().parse().ok()?;
    Some(kb / 1024.0)
}

/// Resident set now, MB (0 where `/proc` is unavailable).
pub fn rss_mb() -> f64 {
    telemetry::rss_bytes().map_or(0.0, |b| b as f64 / (1024.0 * 1024.0))
}

/// Peak resident set of this process so far (`VmHWM`), MB.
pub fn peak_rss_mb() -> f64 {
    status_mb("VmHWM").unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_kb_fields_as_mb() {
        let text = "Name:\tperfbench\nVmHWM:\t  2048 kB\nVmRSS:\t 1024 kB\n";
        assert_eq!(parse_status_mb(text, "VmHWM"), Some(2.0));
        assert_eq!(parse_status_mb(text, "VmRSS"), Some(1.0));
        assert_eq!(parse_status_mb(text, "VmPeak"), None);
        assert_eq!(parse_status_mb("VmRSS:\tlots\n", "VmRSS"), None);
    }

    #[test]
    fn live_process_has_a_resident_set() {
        assert!(rss_mb() > 0.0);
        assert!(peak_rss_mb() >= rss_mb() * 0.5);
    }
}
