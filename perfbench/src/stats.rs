//! Order statistics, the host calibration loop and peak-memory sampling.

use std::hint::black_box;
use std::time::Instant;

/// The `q`-quantile (0.0..=1.0) of `values` by nearest rank, or `None` for
/// an empty slice.
#[must_use]
pub(crate) fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// The median of `values` (0.0 for an empty slice).
#[must_use]
pub(crate) fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        f64::midpoint(sorted[mid - 1], sorted[mid])
    }
}

/// The percentiles a tail is reported at, highest first.
const TAIL_PERCENTILES: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// The highest of [`TAIL_PERCENTILES`] that still has at least ten samples
/// beyond it, with its value: the tail a sample of this size supports.
#[must_use]
pub(crate) fn supported_tail(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len() as f64;
    TAIL_PERCENTILES
        .iter()
        .find(|&&p| n * (1.0 - p / 100.0) >= 10.0)
        .and_then(|&p| quantile(values, p / 100.0).map(|v| (p, v)))
}

/// One line summarizing a timing sample: median, the supported tail and
/// the sample count.
#[must_use]
pub(crate) fn describe(values: &[f64]) -> String {
    let tail = supported_tail(values).map_or_else(
        || "tail n/a (<20 samples)".to_string(),
        |(p, v)| format!("p{p} {v:.4}"),
    );
    format!("median {:.4}, {tail}, n={}", median(values), values.len())
}

/// Iterations of the calibration loop per timing.
const CALIBRATION_ITERS: u64 = 4_000_000;

/// Times a fixed integer loop (xorshift64 with a data-dependent branch) that
/// touches none of the repository's code, in ns per iteration. Recorded
/// beside every run so host speed changes can be told from regressions.
#[must_use]
pub(crate) fn calibration_ns_per_iter() -> f64 {
    let started = Instant::now();
    let mut x: u64 = black_box(0x9E37_79B9_7F4A_7C15);
    let mut acc: u64 = 0;
    for _ in 0..CALIBRATION_ITERS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        if x & 1 == 0 {
            acc = acc.wrapping_add(x >> 3);
        } else {
            acc ^= x;
        }
    }
    black_box(acc);
    started.elapsed().as_nanos() as f64 / CALIBRATION_ITERS as f64
}

/// Resets the kernel's peak-RSS watermark of this process to its current
/// resident set (writing `5` to `/proc/self/clear_refs`); false where the
/// platform does not allow it.
pub(crate) fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// The process's peak resident set size (`VmHWM`) in MiB, when the
/// platform reports it.
#[must_use]
pub(crate) fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_nearest_rank() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&values, 0.5), Some(50.0));
        assert_eq!(quantile(&values, 0.99), Some(99.0));
        assert_eq!(quantile(&values, 1.0), Some(100.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn the_tail_keeps_ten_samples_beyond_it() {
        let values: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(supported_tail(&values).map(|t| t.0), Some(99.0));
        assert_eq!(supported_tail(&values[..200]).map(|t| t.0), Some(95.0));
        assert_eq!(supported_tail(&values[..10]), None);
    }
}
