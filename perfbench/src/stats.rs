//! Latency percentiles by nearest rank, with failures ranked last.

/// One op's outcome as the percentile helper sees it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Sample {
    /// Virtual time from the op's start until it returned, in ns.
    pub ns: u64,
    /// The op returned a structured error.
    pub failed: bool,
}

/// The sort key: every failure ranks above every success, so a failed op
/// misses every latency limit; within each group, by elapsed time.
fn rank_key(s: &Sample) -> (bool, u64) {
    (s.failed, s.ns)
}

/// A nearest-rank percentile of a sample set.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Percentile {
    /// The percentile asked for, in `(0, 100]`.
    pub p: f64,
    /// The sample at that rank.
    pub at: Sample,
    /// Size of the sample set.
    pub n: usize,
    /// Samples ranked strictly above the percentile's sample.
    pub beyond: usize,
}

impl Percentile {
    /// Fewer than ten samples lie beyond the percentile, so it says little
    /// about the tail it names.
    pub fn unresolved(&self) -> bool {
        self.beyond < 10
    }

    /// The value in µs (a failed op reports the time it took to fail).
    pub fn us(&self) -> f64 {
        self.at.ns as f64 / 1e3
    }

    /// One-line rendering: value, sample count, and any caveats.
    pub fn describe(&self) -> String {
        let mut s = format!("{:.3} us (n={}, beyond={}", self.us(), self.n, self.beyond);
        if self.at.failed {
            s.push_str(", lands on a failed op");
        }
        if self.unresolved() {
            s.push_str(", unresolved");
        }
        s.push(')');
        s
    }
}

/// Sorts `samples` by rank (failures last) so repeated percentile queries
/// need no further work.
pub fn sort(samples: &mut [Sample]) {
    samples.sort_unstable_by_key(rank_key);
}

/// The nearest-rank `p`-th percentile of `sorted` (see [`sort`]): the
/// smallest sample such that at least `p`% of samples rank at or below it.
/// `None` for an empty set.
///
/// # Panics
///
/// Panics unless `0 < p <= 100`.
pub fn percentile(sorted: &[Sample], p: f64) -> Option<Percentile> {
    assert!(p > 0.0 && p <= 100.0, "percentile {p} outside (0, 100]");
    if sorted.is_empty() {
        return None;
    }
    let n = sorted.len();
    // `p * n` first: exact for integral p, so p99 of 1000 is rank 990.
    let rank = ((p * n as f64 / 100.0).ceil() as usize).clamp(1, n);
    Some(Percentile {
        p,
        at: sorted[rank - 1],
        n,
        beyond: n - rank,
    })
}

/// Median of `values` (mean of the middle two for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ok(ns: u64) -> Sample {
        Sample { ns, failed: false }
    }

    fn failed(ns: u64) -> Sample {
        Sample { ns, failed: true }
    }

    fn sorted(mut v: Vec<Sample>) -> Vec<Sample> {
        sort(&mut v);
        v
    }

    #[test]
    fn nearest_rank_on_known_vectors() {
        // 1..=100: the p-th percentile is exactly p.
        let v = sorted((1..=100).rev().map(ok).collect());
        for p in [1.0, 25.0, 50.0, 99.0, 100.0] {
            let q = percentile(&v, p).expect("non-empty");
            assert_eq!(q.at, ok(p as u64));
            assert_eq!(q.beyond, 100 - p as usize);
        }
        // Nearest rank rounds the rank up: p50 of 4 samples is the 2nd.
        let v = sorted(vec![ok(40), ok(10), ok(30), ok(20)]);
        assert_eq!(percentile(&v, 50.0).map(|q| q.at), Some(ok(20)));
        assert_eq!(percentile(&v, 51.0).map(|q| q.at), Some(ok(30)));
        // A single sample is every percentile.
        let v = [ok(7)];
        assert_eq!(percentile(&v, 0.1).map(|q| q.at), Some(ok(7)));
        assert_eq!(percentile(&v, 100.0).map(|q| q.at), Some(ok(7)));
        assert!(percentile(&[], 50.0).is_none());
    }

    #[test]
    fn failures_rank_above_every_success() {
        // A fast failure still ranks above the slowest success.
        let mut v: Vec<Sample> = (1..=98).map(ok).collect();
        v.push(failed(1));
        v.push(failed(2));
        let v = sorted(v);
        assert_eq!(percentile(&v, 98.0).map(|q| q.at), Some(ok(98)));
        let p99 = percentile(&v, 99.0).expect("non-empty");
        assert_eq!(p99.at, failed(1));
        assert!(p99.describe().contains("failed op"));
        assert_eq!(percentile(&v, 100.0).map(|q| q.at), Some(failed(2)));
    }

    #[test]
    fn unresolved_when_fewer_than_ten_beyond() {
        let v = sorted((1..=1000).map(ok).collect());
        let p99 = percentile(&v, 99.0).expect("non-empty");
        assert_eq!((p99.at, p99.beyond), (ok(990), 10));
        assert!(!p99.unresolved());
        let v = sorted((1..=999).map(ok).collect());
        let p99 = percentile(&v, 99.0).expect("non-empty");
        assert_eq!(p99.beyond, 9);
        assert!(p99.unresolved());
        assert!(p99.describe().contains("unresolved"));
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
