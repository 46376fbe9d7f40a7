//! The benchmark's own statistics: medians, the tail rule, open-loop
//! lateness and shares that count failures against the attempts.

/// Median of `values`, interpolating between the two middle samples of an
/// even count (0 when empty, which callers treat as "no data").
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    (sorted[(n - 1) / 2] + sorted[n / 2]) / 2.0
}

/// Geometric mean of `values`, each clamped below at `floor` so that a
/// sample at the clock's resolution cannot drag it to 0 (0 when empty).
/// Unlike the median of a spread that is roughly even on a log scale, it
/// moves in proportion when a few samples change place.
pub fn geomean(values: &[f64], floor: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.max(floor).ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Median of values quantised to multiples of `width` (for example whole
/// microseconds), interpolated inside the tied class the median falls in,
/// as Python's `statistics.median_grouped` does. A plain median of such
/// data moves in whole steps; this one moves with the share of samples on
/// either side of the class.
pub fn median_grouped(values: &[f64], width: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let x = sorted[n / 2];
    let below = sorted.partition_point(|&v| v < x);
    let equal = sorted.partition_point(|&v| v <= x) - below;
    x - width / 2.0 + width * (n as f64 / 2.0 - below as f64) / equal as f64
}

/// Percentiles the tail may be reported at, in ascending order.
pub const TAIL_LADDER: [f64; 12] =
    [50.0, 75.0, 90.0, 95.0, 98.0, 99.0, 99.5, 99.8, 99.9, 99.95, 99.98, 99.99];

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// A tail latency: the highest ladder percentile with at least
/// [`TAIL_MIN_BEYOND`] samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile reported (for example `99.0`).
    pub percentile: f64,
    /// The sample at that percentile.
    pub value: f64,
    /// Samples strictly beyond the reported rank.
    pub beyond: usize,
    /// All samples.
    pub samples: usize,
}

/// Picks the tail of `values` by the rule above. `None` when fewer than
/// `2 × TAIL_MIN_BEYOND` samples exist, so not even the median qualifies.
pub fn tail(values: &[f64]) -> Option<Tail> {
    let n = values.len();
    let mut best = None;
    for &p in &TAIL_LADDER {
        // Rank of the percentile counted from the top; every sample above
        // that rank lies beyond it.
        let beyond = ((n as f64) * (100.0 - p) / 100.0 + 1e-9).floor() as usize;
        if beyond >= TAIL_MIN_BEYOND && beyond < n {
            best = Some((p, beyond));
        }
    }
    let (percentile, beyond) = best?;
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(Tail { percentile, value: sorted[n - 1 - beyond], beyond, samples: n })
}

/// How late a reply arrived, counted from when its request was due (not
/// from when it was sent), so a stall that delays later sends is charged
/// to every request it delayed. Times in any common unit.
pub fn latency_from_due(due: f64, replied: f64) -> f64 {
    replied - due
}

/// How late the load generator sent a request past its due time (0 for a
/// send on time).
pub fn generator_lag(due: f64, sent: f64) -> f64 {
    (sent - due).max(0.0)
}

/// One attempted request or delta, as the share metrics see it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Attempt {
    /// Answered with a verdict; `latency` in the limit's unit.
    Verdict {
        /// Time to the verdict.
        latency: f64,
        /// Whether the verdict is `proved`.
        proved: bool,
        /// Whether a rung other than the full fallback decided it.
        reused: bool,
    },
    /// Failed, refused (`Busy`) or never answered.
    Failed,
}

/// Share metrics over a set of attempts. Failures stay in the
/// denominator and count as not proved, not reused and as missing any
/// latency limit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Shares {
    /// Attempts whose verdict is later than the limit, or that failed.
    pub slo_miss: f64,
    /// Attempts with a `proved` verdict.
    pub proved: f64,
    /// Attempts decided without the full fallback.
    pub reused: f64,
}

/// Computes [`Shares`] against `limit`. All shares are 0 for no attempts.
pub fn shares(attempts: &[Attempt], limit: f64) -> Shares {
    let n = attempts.len().max(1) as f64;
    let (mut miss, mut proved, mut reused) = (0usize, 0usize, 0usize);
    for a in attempts {
        match *a {
            Attempt::Verdict { latency, proved: p, reused: r } => {
                miss += usize::from(latency > limit);
                proved += usize::from(p);
                reused += usize::from(r);
            }
            Attempt::Failed => miss += 1,
        }
    }
    Shares { slo_miss: miss as f64 / n, proved: proved as f64 / n, reused: reused as f64 / n }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_interpolates_an_even_count() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn geomean_is_the_exp_of_the_mean_log() {
        assert!((geomean(&[1.0, 100.0], 1e-6) - 10.0).abs() < 1e-12);
        assert!((geomean(&[2.0, 8.0, 4.0], 1e-6) - 4.0).abs() < 1e-12);
        assert!((geomean(&[0.0, 4.0], 1.0) - 2.0).abs() < 1e-12, "0 clamps to the floor");
        assert_eq!(geomean(&[], 1.0), 0.0);
    }

    #[test]
    fn grouped_median_interpolates_inside_ties() {
        // Python: statistics.median_grouped([1, 2, 2, 3, 4, 4, 4, 4, 4, 5]) == 3.7
        let v = [1.0, 2.0, 2.0, 3.0, 4.0, 4.0, 4.0, 4.0, 4.0, 5.0];
        assert!((median_grouped(&v, 1.0) - 3.7).abs() < 1e-12);
        // Python: statistics.median_grouped([52, 52, 53, 54]) == 52.5
        assert!((median_grouped(&[52.0, 52.0, 53.0, 54.0], 1.0) - 52.5).abs() < 1e-12);
    }

    #[test]
    fn tail_is_highest_percentile_with_ten_samples_beyond() {
        // 40 samples: p99 would have 0 beyond, p90 has 4, p75 has 10.
        let v: Vec<f64> = (1..=40).map(f64::from).collect();
        let t = tail(&v).expect("40 samples qualify");
        assert_eq!(t.percentile, 75.0);
        assert_eq!(t.beyond, 10);
        assert_eq!(t.samples, 40);
        assert_eq!(t.value, 30.0, "ten samples (31..=40) lie beyond it");
        assert_eq!(v.iter().filter(|&&x| x > t.value).count(), t.beyond);

        // 1000 samples: p99 has exactly 10 beyond, p99.5 only 5.
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&v).unwrap();
        assert_eq!((t.percentile, t.beyond, t.value), (99.0, 10, 990.0));

        // 2500 samples: p99.5 has 12 beyond, p99.8 only 5.
        let v: Vec<f64> = (1..=2500).map(f64::from).collect();
        assert_eq!(tail(&v).unwrap().percentile, 99.5);

        // Too few samples for even the median to have ten beyond it.
        assert!(tail(&[1.0; 19]).is_none());
        assert_eq!(tail(&[1.0; 20]).unwrap().percentile, 50.0);
    }

    #[test]
    fn open_loop_latency_counts_from_the_due_time() {
        // Due at 10, sent late at 14 because an earlier reply stalled the
        // connection, answered at 15: the client waited 5, not 1.
        assert_eq!(latency_from_due(10.0, 15.0), 5.0);
        assert_eq!(generator_lag(10.0, 14.0), 4.0);
        assert_eq!(generator_lag(10.0, 10.0), 0.0);
        assert_eq!(generator_lag(10.0, 9.5), 0.0);
    }

    #[test]
    fn shares_count_failures_as_misses() {
        let ok = |latency, proved, reused| Attempt::Verdict { latency, proved, reused };
        let attempts =
            [ok(1.0, true, true), ok(30.0, true, false), ok(2.0, false, true), Attempt::Failed];
        let s = shares(&attempts, 10.0);
        assert_eq!(s.slo_miss, 0.5, "one late verdict and one failure");
        assert_eq!(s.proved, 0.5);
        assert_eq!(s.reused, 0.5);
        assert_eq!(shares(&[], 1.0).slo_miss, 0.0);
    }
}
