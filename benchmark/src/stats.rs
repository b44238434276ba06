//! Order statistics: a fixed-size latency histogram, segment medians and
//! the quartile spread `compare` and the README's steadiness table use.

use rococo_telemetry::quantile::bucket_index;

/// Values below this are their own bucket.
const EXACT: u64 = 256;
/// Sub-buckets per octave above [`EXACT`]: bucket width / value < 1/128,
/// so a reported quantile is within 0.4 % of the sample it stands for,
/// far inside any bound a latency metric carries.
const SUB_BITS: u32 = 7;
const SUB: usize = 1 << SUB_BITS;
const OCTAVES: usize = 64 - 8;

/// Log-bucketed histogram of nanosecond samples. Its size does not depend
/// on how many samples it holds, so a faster run does not show as a larger
/// `peak_rss_mib`. `rococo_server::LatencyHistogram` has this layout with 8
/// sub-buckets per octave, steps of 12 % — half of `p50_us`'s bound; the
/// README's "Superseded" says which of the two goes when ROADMAP item 4
/// collapses the histograms.
pub struct Hist {
    counts: Vec<u64>,
    total: u64,
    max: u64,
}

impl Hist {
    pub fn new() -> Self {
        Self {
            counts: vec![0; EXACT as usize + OCTAVES * SUB],
            total: 0,
            max: 0,
        }
    }

    fn bucket_of(ns: u64) -> usize {
        if ns < EXACT {
            return ns as usize;
        }
        let top = 63 - ns.leading_zeros(); // >= 8
        let sub = ((ns >> (top - SUB_BITS)) as usize) & (SUB - 1);
        EXACT as usize + (top as usize - 8) * SUB + sub
    }

    /// Midpoint of bucket `idx`.
    fn value_of(idx: usize) -> f64 {
        if idx < EXACT as usize {
            return idx as f64;
        }
        let top = 8 + (idx - EXACT as usize) / SUB;
        let sub = ((idx - EXACT as usize) % SUB) as u64;
        let width = 1u64 << (top as u32 - SUB_BITS);
        let lower = (1u64 << top) + sub * width;
        lower as f64 + (width - 1) as f64 / 2.0
    }

    pub fn record(&mut self, ns: u64) {
        self.counts[Self::bucket_of(ns)] += 1;
        self.total += 1;
        self.max = self.max.max(ns);
    }

    pub fn count(&self) -> u64 {
        self.total
    }

    /// Nearest-rank quantile in nanoseconds: the midpoint of the bucket
    /// holding rank `ceil(q·n)`, never above the largest sample. 0 when
    /// empty.
    pub fn quantile(&self, q: f64) -> f64 {
        match bucket_index(&self.counts, self.total, q) {
            None => 0.0,
            Some(i) => Self::value_of(i).min(self.max as f64),
        }
    }
}

/// Median of `values` (mean of the two middle values for an even count);
/// 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the "exclusive" method); `None` below two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let at = |i: usize| {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((at(1), at(3)))
}

/// Interquartile distance as a share of the median; 0 below two values or
/// for a zero median.
pub fn spread(values: &[f64]) -> f64 {
    let m = median(values);
    match quartiles(values) {
        Some((q1, q3)) if m != 0.0 => (q3 - q1) / m.abs(),
        _ => 0.0,
    }
}

/// The process's peak resident set (`VmHWM`) in MiB; 0 where `/proc` does
/// not say.
pub fn vm_hwm_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_reports_zero() {
        let h = Hist::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.5), 0.0);
        assert_eq!(h.quantile(0.99), 0.0);
    }

    #[test]
    fn one_sample_is_every_quantile() {
        for ns in [0u64, 7, 255, 256, 1_000, 123_456_789] {
            let mut h = Hist::new();
            h.record(ns);
            for q in [0.0, 0.5, 0.99, 1.0] {
                let got = h.quantile(q);
                assert!(
                    (got - ns as f64).abs() <= ns as f64 / 128.0,
                    "{ns} ns read back as {got}"
                );
                assert!(got <= ns as f64, "clamped to the largest sample");
            }
        }
    }

    #[test]
    fn nearest_rank_edges() {
        // 100 samples 1..=100 ns (exact buckets): p50 is rank 50, p99 is
        // rank 99, p100 is rank 100 — not interpolated, not off by one.
        let mut h = Hist::new();
        for ns in 1..=100 {
            h.record(ns);
        }
        assert_eq!(h.quantile(0.50), 50.0);
        assert_eq!(h.quantile(0.99), 99.0);
        assert_eq!(h.quantile(0.991), 100.0);
        assert_eq!(h.quantile(1.0), 100.0);
    }

    #[test]
    fn bucket_error_stays_under_half_a_percent() {
        for ns in [256u64, 257, 511, 512, 999_999, 1 << 40, u64::MAX / 2] {
            let mid = Hist::value_of(Hist::bucket_of(ns));
            assert!(
                (mid - ns as f64).abs() / ns as f64 <= 0.004,
                "{ns} -> {mid}"
            );
        }
    }

    #[test]
    fn median_of_segments() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[4.0]), 4.0);
        assert_eq!(median(&[5.0, 1.0, 3.0, 2.0, 4.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0]), Some((1.5, 4.5)));
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some((2.75, 8.25)));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), Some((7.5, 22.5)));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(spread(&[1.0]), 0.0);
        assert_eq!(spread(&[1.0, 2.0, 3.0, 4.0, 5.0]), 1.0);
    }
}
