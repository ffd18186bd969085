//! Order statistics and process memory readings shared by the workloads.

use std::time::Duration;

/// Milliseconds in `d`, at full `f64` precision.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The median of `values` (mean of the two middle values for an even
/// count). `values` must be non-empty.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// A tail reading: the highest percentile with at least ten samples
/// beyond it, which is the eleventh-largest sample.
#[derive(Clone, Copy, Debug)]
pub struct Tail {
    pub percentile: f64,
    pub value: f64,
    pub samples: usize,
    pub beyond: usize,
}

/// Samples that must lie beyond the tail percentile.
const BEYOND: usize = 10;

/// The tail of `values` (non-empty). The percentile moves smoothly with
/// the sample count, so runs that gather a few more or fewer samples
/// read nearly the same point of the distribution. With ten samples or
/// fewer no percentile has ten beyond it, and the median is returned
/// with the count that lies beyond it.
pub fn tail(values: &[f64]) -> Tail {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = if n > BEYOND {
        n - BEYOND
    } else {
        n.div_ceil(2)
    };
    Tail {
        percentile: 100.0 * rank as f64 / n as f64,
        value: sorted[rank - 1],
        samples: n,
        beyond: n - rank,
    }
}

/// Resets the kernel's peak-RSS mark (`VmHWM`) of this process to its
/// current RSS, so a later [`peak_rss_kb`] reports only what happens
/// after the call. Returns `false` where `/proc/self/clear_refs` is
/// unavailable.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak resident set size of this process in kB (`VmHWM`).
pub fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let values: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&values);
        assert_eq!(t.percentile, 99.0);
        assert_eq!(t.value, 990.0);
        assert_eq!(t.beyond, 10);
        let few: Vec<f64> = (1..=9).map(f64::from).collect();
        let t = tail(&few);
        assert_eq!(
            (t.percentile, t.value, t.beyond),
            (100.0 * 5.0 / 9.0, 5.0, 4)
        );
    }
}
