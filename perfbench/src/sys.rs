//! Process counters read from `/proc` and the order statistics the
//! benchmark reports.

/// Ticks per second of the `/proc/<pid>/stat` time fields (`USER_HZ`,
/// fixed at 100 for the user-space interface on Linux).
const USER_HZ: f64 = 100.0;

/// User + system CPU seconds consumed by this process so far, all threads.
pub fn cpu_seconds() -> Result<f64, String> {
    let stat =
        std::fs::read_to_string("/proc/self/stat").map_err(|e| format!("/proc/self/stat: {e}"))?;
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields of the whole line, so the 12th and 13th here.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, rest)| rest)
        .ok_or("/proc/self/stat: no command field")?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|v| v.parse::<u64>().ok())
            .map(|v| v as f64 / USER_HZ)
            .ok_or_else(|| format!("/proc/self/stat: field {i} unreadable"))
    };
    Ok(tick(11)? + tick(12)?)
}

/// Machine-wide CPU ticks from `/proc/stat` as `(stolen, total)`: time
/// the hypervisor ran other guests on the machine's virtual CPUs, out of
/// all time accounted. Their deltas over a window give the share of CPU
/// the host took away while it was measured.
pub fn host_ticks() -> Result<(u64, u64), String> {
    let stat = std::fs::read_to_string("/proc/stat").map_err(|e| format!("/proc/stat: {e}"))?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .and_then(|line| line.strip_prefix("cpu "))
        .ok_or("/proc/stat: no cpu line")?
        .split_whitespace()
        .filter_map(|v| v.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice],
    // where guest time is already counted in user.
    let total = ticks.iter().take(8).sum();
    Ok((ticks.get(7).copied().unwrap_or(0), total))
}

/// Peak resident set size of this process (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "/proc/self/status: no VmHWM".to_string())
}

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Nearest-rank percentile `p` in `(0, 1]` of an ascending slice, and the
/// number of samples strictly beyond that rank.
pub fn percentile(sorted: &[f64], p: f64) -> (f64, usize) {
    if sorted.is_empty() {
        return (0.0, 0);
    }
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    (sorted[rank - 1], sorted.len() - rank)
}

/// Median of unsorted values (0 for an empty slice).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_counts_the_tail() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), (50.0, 50));
        assert_eq!(percentile(&v, 0.9), (90.0, 10));
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }

    #[test]
    fn proc_counters_read() {
        assert!(cpu_seconds().is_ok());
        let (stolen, total) = host_ticks().unwrap();
        assert!(stolen <= total && total > 0);
        assert!(peak_rss_mb().unwrap() > 0.0);
    }
}
