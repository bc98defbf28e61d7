//! Descriptive statistics for experiment aggregation.

/// Quartiles of a sample, as reported in the paper's tables (Q1 / median /
/// Q3 over 100 independent runs).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quartiles {
    /// 25th percentile.
    pub q1: f64,
    /// Median.
    pub q2: f64,
    /// 75th percentile.
    pub q3: f64,
}

impl Quartiles {
    /// Computes quartiles with linear interpolation (R type-7, the common
    /// spreadsheet/NumPy default).
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty.
    pub fn of(samples: &[f64]) -> Self {
        assert!(!samples.is_empty(), "quartiles of an empty sample");
        let mut sorted: Vec<f64> = samples.to_vec();
        // total_cmp (detlint D3): a total, bit-stable order — never
        // panics, and -0.0 sorts before 0.0 regardless of input order.
        sorted.sort_by(f64::total_cmp);
        Self {
            q1: percentile_sorted(&sorted, 0.25),
            q2: percentile_sorted(&sorted, 0.50),
            q3: percentile_sorted(&sorted, 0.75),
        }
    }

    /// Multiplies all three quartiles by a scalar (unit conversion).
    pub fn scaled(&self, k: f64) -> Self {
        Self {
            q1: self.q1 * k,
            q2: self.q2 * k,
            q3: self.q3 * k,
        }
    }
}

/// Type-7 percentile of an already sorted slice.
///
/// # Panics
///
/// Panics if `sorted` is empty or `p` is outside `[0, 1]`.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    assert!((0.0..=1.0).contains(&p), "percentile outside [0, 1]");
    if sorted.len() == 1 {
        return sorted[0];
    }
    let h = p * (sorted.len() - 1) as f64;
    let lo = h.floor() as usize;
    let hi = h.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        sorted[lo] + (h - lo as f64) * (sorted[hi] - sorted[lo])
    }
}

/// Arithmetic mean.
///
/// # Panics
///
/// Panics if `samples` is empty.
pub fn mean(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "mean of an empty sample");
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// Constant-memory running aggregate (Welford's online algorithm): the
/// sweep orchestrator streams per-run measures into these instead of
/// retaining full traces. Pushing in a fixed order makes the result
/// bit-deterministic, so the orchestrator accumulates in run-plan order
/// after the parallel phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OnlineStats {
    /// Number of samples pushed.
    pub count: u64,
    /// Running mean.
    pub mean: f64,
    /// Sum of squared deviations from the mean (Welford's `M2`).
    pub m2: f64,
    /// Smallest sample seen (`+inf` before the first push renders as 0).
    pub min: f64,
    /// Largest sample seen.
    pub max: f64,
}

impl Default for OnlineStats {
    fn default() -> Self {
        Self::new()
    }
}

impl OnlineStats {
    /// An empty aggregate (`min`/`max` start at ±∞ so the first push
    /// always wins).
    pub fn new() -> Self {
        Self {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Folds one sample into the aggregate.
    ///
    /// `min`/`max` use [`f64::total_cmp`] rather than `f64::min`/`max`:
    /// IEEE min/max may return either operand for `-0.0` vs `0.0`, so
    /// the recorded extreme's *bit pattern* could depend on push order.
    /// Total order keeps artefact bytes independent of it.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = total_min(self.min, x);
        self.max = total_max(self.max, x);
    }

    /// Population variance (0 for fewer than two samples).
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Population standard deviation.
    pub fn stddev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Folds a whole slice.
    pub fn of(samples: &[f64]) -> Self {
        let mut s = Self::new();
        for &x in samples {
            s.push(x);
        }
        s
    }

    /// Combines two aggregates (Chan et al.'s parallel Welford update) —
    /// how shard artefacts' partial stats blocks fold into a whole-sweep
    /// overview without the per-run rows.
    ///
    /// Exact in real arithmetic but **not** bit-identical to pushing the
    /// union sequentially, so merged artefact aggregates are always
    /// recomputed from per-run summaries in plan order; this is for
    /// progress overviews over partial artefacts.
    pub fn merge(&self, other: &OnlineStats) -> OnlineStats {
        if self.count == 0 {
            return *other;
        }
        if other.count == 0 {
            return *self;
        }
        let count = self.count + other.count;
        let delta = other.mean - self.mean;
        let mean = self.mean + delta * other.count as f64 / count as f64;
        let m2 = self.m2
            + other.m2
            + delta * delta * (self.count as f64 * other.count as f64) / count as f64;
        OnlineStats {
            count,
            mean,
            m2,
            min: total_min(self.min, other.min),
            max: total_max(self.max, other.max),
        }
    }
}

/// The smaller operand under [`f64::total_cmp`] — bit-deterministic for
/// `-0.0` vs `0.0`, where IEEE `min` may return either.
fn total_min(a: f64, b: f64) -> f64 {
    if b.total_cmp(&a).is_lt() {
        b
    } else {
        a
    }
}

/// The larger operand under [`f64::total_cmp`].
fn total_max(a: f64, b: f64) -> f64 {
    if b.total_cmp(&a).is_gt() {
        b
    } else {
        a
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_of_known_sample() {
        let q = Quartiles::of(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(q.q1, 2.0);
        assert_eq!(q.q2, 3.0);
        assert_eq!(q.q3, 4.0);
    }

    #[test]
    fn quartiles_interpolate() {
        let q = Quartiles::of(&[1.0, 2.0, 3.0, 4.0]);
        assert!((q.q1 - 1.75).abs() < 1e-12);
        assert!((q.q2 - 2.5).abs() < 1e-12);
        assert!((q.q3 - 3.25).abs() < 1e-12);
    }

    #[test]
    fn quartiles_are_order_independent() {
        let a = Quartiles::of(&[5.0, 1.0, 3.0, 2.0, 4.0]);
        let b = Quartiles::of(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(a, b);
    }

    #[test]
    fn single_sample_degenerates() {
        let q = Quartiles::of(&[7.5]);
        assert_eq!((q.q1, q.q2, q.q3), (7.5, 7.5, 7.5));
    }

    #[test]
    fn scaled_converts_units() {
        let q = Quartiles::of(&[1.0, 2.0, 3.0]).scaled(100.0);
        assert_eq!(q.q2, 200.0);
    }

    #[test]
    #[should_panic(expected = "empty sample")]
    fn empty_sample_panics() {
        Quartiles::of(&[]);
    }

    #[test]
    fn percentile_extremes() {
        let s = [1.0, 2.0, 3.0];
        assert_eq!(percentile_sorted(&s, 0.0), 1.0);
        assert_eq!(percentile_sorted(&s, 1.0), 3.0);
    }

    #[test]
    fn mean_is_arithmetic() {
        assert_eq!(mean(&[1.0, 2.0, 3.0, 4.0]), 2.5);
    }

    #[test]
    fn online_stats_match_the_batch_formulas() {
        let samples = [4.0, 7.0, 13.0, 16.0];
        let s = OnlineStats::of(&samples);
        assert_eq!(s.count, 4);
        assert!((s.mean - 10.0).abs() < 1e-12);
        assert!((s.variance() - 22.5).abs() < 1e-9);
        assert_eq!(s.min, 4.0);
        assert_eq!(s.max, 16.0);
    }

    #[test]
    fn merged_online_stats_match_the_batch_formulas() {
        let all = [4.0, 7.0, 13.0, 16.0, 2.0, 9.0];
        let whole = OnlineStats::of(&all);
        let merged = OnlineStats::of(&all[..2]).merge(&OnlineStats::of(&all[2..]));
        assert_eq!(merged.count, whole.count);
        assert!((merged.mean - whole.mean).abs() < 1e-12);
        assert!((merged.variance() - whole.variance()).abs() < 1e-9);
        assert_eq!(merged.min, whole.min);
        assert_eq!(merged.max, whole.max);
        // Empty sides are identities.
        let empty = OnlineStats::new();
        assert_eq!(empty.merge(&whole), whole);
        assert_eq!(whole.merge(&empty), whole);
    }

    #[test]
    fn online_stats_degenerate_cases() {
        let empty = OnlineStats::new();
        assert_eq!(empty.count, 0);
        assert_eq!(empty.variance(), 0.0);
        // Default must agree with new(): min/max start at ±∞ so the
        // first pushed sample always wins.
        let mut d = OnlineStats::default();
        d.push(5.0);
        assert_eq!((d.min, d.max), (5.0, 5.0));
        let one = OnlineStats::of(&[3.0]);
        assert_eq!(one.mean, 3.0);
        assert_eq!(one.stddev(), 0.0);
        assert_eq!((one.min, one.max), (3.0, 3.0));
    }

    /// Regression for the detlint D3 sweep: quartile ordering must be a
    /// pure function of the multiset, not the input order — including
    /// the `-0.0` vs `0.0` tie that `partial_cmp` treats as equal (so a
    /// stable sort would preserve arbitrary input order in the bits).
    #[test]
    fn quartiles_are_bit_stable_across_input_order_with_signed_zeros() {
        let orders: [&[f64]; 3] = [
            &[0.0, -0.0, 1.0, 2.0],
            &[-0.0, 0.0, 2.0, 1.0],
            &[2.0, 0.0, 1.0, -0.0],
        ];
        let reference = Quartiles::of(orders[0]);
        for order in &orders[1..] {
            let q = Quartiles::of(order);
            assert_eq!(q.q1.to_bits(), reference.q1.to_bits());
            assert_eq!(q.q2.to_bits(), reference.q2.to_bits());
            assert_eq!(q.q3.to_bits(), reference.q3.to_bits());
        }
        // total_cmp sorts -0.0 before 0.0, so the median of a sample
        // with two negative zeros lands on -0.0 exactly (the median of
        // an odd sample is read straight from the sorted slice — no
        // interpolation to wash the sign out) in every input order.
        for order in [[0.0, -0.0, -0.0], [-0.0, 0.0, -0.0], [-0.0, -0.0, 0.0]] {
            let q = Quartiles::of(&order);
            assert_eq!(q.q2.to_bits(), (-0.0f64).to_bits(), "order {order:?}");
        }
    }

    /// `OnlineStats` extremes must record the same bit pattern whether
    /// `-0.0` or `0.0` arrives first, for both push and merge.
    #[test]
    fn online_stats_extremes_are_bit_stable_for_signed_zeros() {
        for order in [[0.0, -0.0], [-0.0, 0.0]] {
            let s = OnlineStats::of(&order);
            assert_eq!(s.min.to_bits(), (-0.0f64).to_bits(), "order {order:?}");
            assert_eq!(s.max.to_bits(), 0.0f64.to_bits(), "order {order:?}");
        }
        let a = OnlineStats::of(&[0.0]);
        let b = OnlineStats::of(&[-0.0]);
        for merged in [a.merge(&b), b.merge(&a)] {
            assert_eq!(merged.min.to_bits(), (-0.0f64).to_bits());
            assert_eq!(merged.max.to_bits(), 0.0f64.to_bits());
        }
    }
}
