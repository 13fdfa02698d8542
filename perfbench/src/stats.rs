//! Sample statistics and process measurements.

/// Nearest-rank percentile `pct` (0 < pct ≤ 100) of `samples`.
pub fn percentile(samples: &[f64], pct: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median (nearest-rank 50th percentile) of `samples`.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// The highest whole percentile, at most `cap`, that leaves at least
/// `beyond` samples above its nearest rank among `n` samples, or 50 when
/// there are too few samples for even that.
pub fn tail_percentile(n: usize, beyond: usize, cap: usize) -> f64 {
    (50..=cap)
        .rev()
        .find(|&p| {
            let rank = (p * n).div_ceil(100);
            n.saturating_sub(rank) >= beyond
        })
        .unwrap_or(50) as f64
}

/// Mean of the samples at and above the nearest-rank percentile `pct`.
pub fn mean_from(samples: &[f64], pct: f64) -> f64 {
    let cut = percentile(samples, pct);
    let tail: Vec<f64> = samples.iter().copied().filter(|&s| s >= cut).collect();
    mean(&tail)
}

/// Arithmetic mean of `samples` (0 for none).
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// The process's peak resident set size (`VmHWM`) in MiB, or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Host CPU time counters from `/proc/stat`: (stolen by the hypervisor,
/// total), in clock ticks over all CPUs, or zeros where unavailable.
pub fn cpu_ticks() -> (u64, u64) {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|stat| {
            let line = stat.lines().next()?.strip_prefix("cpu ")?.to_string();
            let ticks: Vec<u64> = line
                .split_whitespace()
                .filter_map(|t| t.parse().ok())
                .collect();
            Some((ticks.get(7).copied().unwrap_or(0), ticks.iter().sum()))
        })
        .unwrap_or((0, 0))
}

/// Percentage of host CPU time stolen by the hypervisor between two
/// [`cpu_ticks`] readings.
pub fn steal_pct(before: (u64, u64), after: (u64, u64)) -> f64 {
    let total = after.1.saturating_sub(before.1);
    if total == 0 {
        0.0
    } else {
        100.0 * after.0.saturating_sub(before.0) as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&s), 50.0);
        assert_eq!(percentile(&s, 99.0), 99.0);
        assert_eq!(percentile(&s, 100.0), 100.0);
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(mean_from(&s, 99.0), 99.5);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        assert_eq!(tail_percentile(1000, 10, 99), 99.0);
        assert_eq!(tail_percentile(1000, 10, 90), 90.0);
        assert_eq!(tail_percentile(60, 10, 90), 83.0);
        assert_eq!(tail_percentile(30, 10, 99), 66.0);
        assert_eq!(tail_percentile(5, 10, 99), 50.0);
    }
}
