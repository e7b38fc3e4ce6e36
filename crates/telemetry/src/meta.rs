//! Run metadata for bench JSON: wall-clock start time (hand-rolled
//! ISO-8601, no date dependency) and the threading configuration in
//! effect, so `BENCH_*.json` trajectories are attributable to a host
//! and a parallelism setting.

use std::time::{SystemTime, UNIX_EPOCH};

/// Environment variable the thread pool reads (mirrors
/// `gbu_par::THREADS_ENV`; redeclared here so this crate stays
/// dependency-free and below `gbu_par` in the graph).
pub const THREADS_ENV: &str = "GBU_THREADS";

/// Civil date from days since 1970-01-01 (Howard Hinnant's
/// `civil_from_days`, exact over the whole `i64` day range).
fn civil_from_days(z: i64) -> (i64, u32, u32) {
    let z = z + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = (z - era * 146_097) as u64;
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe as i64 + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32;
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32;
    (if m <= 2 { y + 1 } else { y }, m, d)
}

/// Formats `t` as ISO-8601 UTC with second precision
/// (`2026-08-07T12:34:56Z`). Times before the epoch clamp to it.
pub fn iso8601_utc(t: SystemTime) -> String {
    let secs = t.duration_since(UNIX_EPOCH).map_or(0, |d| d.as_secs());
    let (days, rem) = (secs / 86_400, secs % 86_400);
    let (y, mo, d) = civil_from_days(days as i64);
    let (h, mi, s) = (rem / 3600, rem % 3600 / 60, rem % 60);
    format!("{y:04}-{mo:02}-{d:02}T{h:02}:{mi:02}:{s:02}Z")
}

/// Host logical CPU count (1 when the host refuses to say).
pub fn host_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Renders the run-metadata JSON object every bench document embeds
/// under `"run_info"`: ISO-8601 start time, host thread count, the raw
/// [`THREADS_ENV`] value (or `null`), and the worker count actually in
/// effect (as resolved by the caller's thread pool).
pub fn run_info_json(effective_threads: usize) -> String {
    crate::json::object(|o| {
        o.field("started_utc", iso8601_utc(SystemTime::now()))
            .field("host_threads", host_threads())
            .field("gbu_threads_env", std::env::var(THREADS_ENV).ok())
            .field("effective_threads", effective_threads);
    })
    .0
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn iso8601_matches_known_instants() {
        assert_eq!(iso8601_utc(UNIX_EPOCH), "1970-01-01T00:00:00Z");
        // 2004-02-29T23:59:59Z — leap day of a leap year divisible by 4.
        let t = UNIX_EPOCH + Duration::from_secs(1_078_099_199);
        assert_eq!(iso8601_utc(t), "2004-02-29T23:59:59Z");
        // 2100 is NOT a leap year: 2100-03-01 follows 2100-02-28.
        let t = UNIX_EPOCH + Duration::from_secs(4_107_542_400);
        assert_eq!(iso8601_utc(t), "2100-03-01T00:00:00Z");
    }

    #[test]
    fn run_info_is_wellformed_json() {
        let j = run_info_json(8);
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert!(j.contains("\"started_utc\":\"2"), "{j}");
        assert!(j.contains("\"effective_threads\":8"));
        assert!(j.contains("\"host_threads\":"));
        assert!(j.contains("\"gbu_threads_env\":"));
    }
}
