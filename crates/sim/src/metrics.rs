//! Measurement helpers shared by tests, examples and the figure
//! regenerators.

use proxbal_chord::ChordNetwork;
use proxbal_core::{ClassifyParams, Lbi, LoadState, NodeClass};
use proxbal_ktree::Merge;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Load moved per physical distance — the data behind Figures 7 and 8
/// ("the x-axis denotes the distance of virtual server transferring in terms
/// of hops, while the y-axis represents the percentage of total moved
/// load").
///
/// ```
/// use proxbal_sim::metrics::DistanceHistogram;
///
/// let mut h = DistanceHistogram::new();
/// h.add(2, 70.0);  // 70 units of load moved over 2 hops
/// h.add(12, 30.0);
/// assert!((h.fraction_within(2) - 0.7).abs() < 1e-12);
/// assert!((h.mean_distance() - 5.0).abs() < 1e-12);
/// ```
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct DistanceHistogram {
    bins: BTreeMap<u32, f64>,
    total: f64,
}

impl DistanceHistogram {
    /// Empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `load` moved over `distance` latency units.
    pub fn add(&mut self, distance: u32, load: f64) {
        assert!(load >= 0.0);
        *self.bins.entry(distance).or_insert(0.0) += load;
        self.total += load;
    }

    /// Total load recorded.
    pub fn total(&self) -> f64 {
        self.total
    }

    /// True iff nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0.0
    }

    /// Fraction of total moved load transferred over distance `≤ d`
    /// (0 if the histogram is empty).
    pub fn fraction_within(&self, d: u32) -> f64 {
        if self.total == 0.0 {
            return 0.0;
        }
        let within: f64 = self.bins.range(..=d).map(|(_, &l)| l).sum();
        within / self.total
    }

    /// `(distance, fraction-of-total)` pairs — Figure 7(a)'s series.
    pub fn distribution(&self) -> Vec<(u32, f64)> {
        if self.total == 0.0 {
            return Vec::new();
        }
        self.bins
            .iter()
            .map(|(&d, &l)| (d, l / self.total))
            .collect()
    }

    /// `(distance, cumulative-fraction)` pairs — Figure 7(b)'s CDF.
    pub fn cdf(&self) -> Vec<(u32, f64)> {
        if self.total == 0.0 {
            return Vec::new();
        }
        let mut acc = 0.0;
        self.bins
            .iter()
            .map(|(&d, &l)| {
                acc += l;
                (d, acc / self.total)
            })
            .collect()
    }

    /// Folds another histogram into this one (used to pool the paper's
    /// "10 graphs each" replications).
    pub fn merge(&mut self, other: &DistanceHistogram) {
        for (&d, &l) in &other.bins {
            *self.bins.entry(d).or_insert(0.0) += l;
        }
        self.total += other.total;
    }

    /// Load-weighted mean transfer distance.
    pub fn mean_distance(&self) -> f64 {
        if self.total == 0.0 {
            return 0.0;
        }
        self.bins
            .iter()
            .map(|(&d, &l)| f64::from(d) * l)
            .sum::<f64>()
            / self.total
    }
}

/// Five-number-plus-mean summary of a sample.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Summary {
    /// Sample size.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Population standard deviation.
    pub std_dev: f64,
    /// Minimum.
    pub min: f64,
    /// Median (50th percentile).
    pub median: f64,
    /// Maximum.
    pub max: f64,
}

impl Summary {
    /// Summarizes `values` (returns zeros for an empty slice).
    pub fn of(values: &[f64]) -> Self {
        if values.is_empty() {
            return Summary {
                count: 0,
                mean: 0.0,
                std_dev: 0.0,
                min: 0.0,
                median: 0.0,
                max: 0.0,
            };
        }
        let n = values.len() as f64;
        let mean = values.iter().sum::<f64>() / n;
        let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n;
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        Summary {
            count: values.len(),
            mean,
            std_dev: var.sqrt(),
            min: sorted[0],
            median: percentile_sorted(&sorted, 50.0),
            max: *sorted.last().unwrap(),
        }
    }
}

/// The `p`-th percentile (0–100) of an **already sorted** sample, by linear
/// interpolation. Panics on an empty slice.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of empty sample");
    assert!((0.0..=100.0).contains(&p));
    if sorted.len() == 1 {
        return sorted[0];
    }
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    sorted[lo] + (sorted[hi] - sorted[lo]) * frac
}

/// Gini coefficient of a non-negative sample: 0 = perfectly even,
/// → 1 = concentrated. Used to quantify (im)balance of unit loads.
pub fn gini(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    assert!(values.iter().all(|&v| v >= 0.0), "gini needs non-negatives");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len() as f64;
    let sum: f64 = sorted.iter().sum();
    if sum == 0.0 {
        return 0.0;
    }
    let weighted: f64 = sorted
        .iter()
        .enumerate()
        .map(|(i, &v)| (i as f64 + 1.0) * v)
        .sum();
    (2.0 * weighted) / (n * sum) - (n + 1.0) / n
}

/// Every alive peer's LBI `<L_i, C_i, L_{i,min}>`, ascending by peer, and
/// their totals: one read of the load table from which a sample (an engine
/// epoch, a drift step) derives every figure, each bit for bit as the
/// [`LoadState`] function that reads the table itself computes it.
pub(crate) struct LoadColumn {
    pub(crate) lbis: Vec<Lbi>,
    /// [`LoadState::totals`]: the LBIs merged in peer order from
    /// `<0, 0, ∞>`.
    pub(crate) totals: Lbi,
}

impl LoadColumn {
    pub(crate) fn read(net: &ChordNetwork, loads: &LoadState) -> Self {
        let alive = net.alive_peers();
        let lbis: Vec<Lbi> = alive.iter().map(|&p| loads.node_lbi(net, p)).collect();
        let mut totals = Lbi {
            load: 0.0,
            capacity: 0.0,
            min_vs_load: f64::INFINITY,
        };
        for &lbi in &lbis {
            totals.merge(lbi);
        }
        LoadColumn { lbis, totals }
    }

    /// Every peer's unit load `L_i / C_i` ([`LoadState::unit_load`]).
    pub(crate) fn unit_loads(&self) -> impl Iterator<Item = f64> + '_ {
        self.lbis.iter().map(|lbi| lbi.load / lbi.capacity)
    }

    /// The peers heavy at `epsilon` against the column's own totals.
    pub(crate) fn heavy(&self, epsilon: f64) -> usize {
        let params = ClassifyParams { epsilon };
        let heavy = |lbi: &&Lbi| params.classify(lbi, &self.totals) == NodeClass::Heavy;
        self.lbis.iter().filter(heavy).count()
    }

    /// The Gini coefficient of the unit loads.
    pub(crate) fn gini(&self) -> f64 {
        gini(&self.unit_loads().collect::<Vec<_>>())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_fraction_and_cdf() {
        let mut h = DistanceHistogram::new();
        h.add(1, 50.0);
        h.add(2, 30.0);
        h.add(10, 20.0);
        assert_eq!(h.total(), 100.0);
        assert!((h.fraction_within(1) - 0.5).abs() < 1e-12);
        assert!((h.fraction_within(2) - 0.8).abs() < 1e-12);
        assert!((h.fraction_within(9) - 0.8).abs() < 1e-12);
        assert!((h.fraction_within(10) - 1.0).abs() < 1e-12);
        let cdf = h.cdf();
        assert_eq!(cdf.len(), 3);
        assert_eq!(cdf[2], (10, 1.0));
        assert!((h.mean_distance() - (50.0 + 60.0 + 200.0) / 100.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_empty() {
        let h = DistanceHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.fraction_within(100), 0.0);
        assert!(h.cdf().is_empty());
        assert_eq!(h.mean_distance(), 0.0);
    }

    #[test]
    fn histogram_zero_total_never_divides() {
        // Bins may exist with zero total (only zero-load transfers were
        // recorded): every ratio must still come back 0/empty, not NaN.
        let mut h = DistanceHistogram::new();
        h.add(5, 0.0);
        h.add(9, 0.0);
        assert!(h.is_empty());
        assert_eq!(h.fraction_within(0), 0.0);
        assert_eq!(h.fraction_within(u32::MAX), 0.0);
        assert_eq!(h.mean_distance(), 0.0);
        assert!(h.distribution().is_empty());
        assert!(h.cdf().is_empty());
        assert!(!h.fraction_within(5).is_nan());
        assert!(!h.mean_distance().is_nan());
    }

    #[test]
    fn histogram_merge_handles_empty_sides() {
        let mut empty = DistanceHistogram::new();
        let mut full = DistanceHistogram::new();
        full.add(2, 70.0);
        full.add(12, 30.0);

        // empty ← full keeps full's stats; full ← empty changes nothing.
        empty.merge(&full);
        assert_eq!(empty.total(), 100.0);
        assert!((empty.fraction_within(2) - 0.7).abs() < 1e-12);
        let before = full.cdf();
        full.merge(&DistanceHistogram::new());
        assert_eq!(full.cdf(), before);

        // empty ← empty stays fully guarded.
        let mut e2 = DistanceHistogram::new();
        e2.merge(&DistanceHistogram::new());
        assert!(e2.is_empty());
        assert_eq!(e2.mean_distance(), 0.0);
    }

    #[test]
    fn histogram_accumulates_same_bin() {
        let mut h = DistanceHistogram::new();
        h.add(3, 1.0);
        h.add(3, 2.0);
        assert_eq!(h.distribution(), vec![(3, 1.0)]);
    }

    #[test]
    fn summary_basics() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.count, 4);
        assert!((s.mean - 2.5).abs() < 1e-12);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
        assert!((s.median - 2.5).abs() < 1e-12);
        let empty = Summary::of(&[]);
        assert_eq!(empty.count, 0);
    }

    #[test]
    fn percentile_interpolates() {
        let v = [10.0, 20.0, 30.0];
        assert_eq!(percentile_sorted(&v, 0.0), 10.0);
        assert_eq!(percentile_sorted(&v, 100.0), 30.0);
        assert!((percentile_sorted(&v, 50.0) - 20.0).abs() < 1e-12);
        assert!((percentile_sorted(&v, 25.0) - 15.0).abs() < 1e-12);
    }

    #[test]
    fn gini_extremes() {
        assert_eq!(gini(&[]), 0.0);
        assert!(gini(&[5.0, 5.0, 5.0]).abs() < 1e-12);
        // All mass on one of many: → (n-1)/n.
        let concentrated = gini(&[0.0, 0.0, 0.0, 100.0]);
        assert!((concentrated - 0.75).abs() < 1e-12);
        // More even ⇒ smaller gini.
        assert!(gini(&[1.0, 1.0, 2.0]) < gini(&[0.1, 0.1, 10.0]));
    }
}
