//! The few statistics the harness reports, and the verdict rule of
//! `pbench compare`.

use std::fmt;

/// Which direction of a metric is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    v
}

/// Median; the mean of the two middle samples for an even count.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let v = sorted(values);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile by the rule of Python's
/// `statistics.quantiles(values, n=4)` (the one the acceptance driver uses),
/// so a spread computed here reads the same as one computed there. A single
/// sample has no spread: both quartiles are that sample.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(!values.is_empty(), "quartiles of no samples");
    let v = sorted(values);
    let n = v.len();
    if n == 1 {
        return (v[0], v[0]);
    }
    let at = |k: usize| {
        // Position k·(n+1)/4, 1-based, clamped so both neighbours exist.
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(3))
}

/// Why a percentile was not reported.
#[derive(Clone, Debug, PartialEq)]
pub struct TooFewSamples {
    pub percentile: f64,
    pub samples: usize,
    pub beyond: usize,
}

impl fmt::Display for TooFewSamples {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "p{:.0} of {} samples has {} beyond it (needs 10)",
            self.percentile * 100.0,
            self.samples,
            self.beyond
        )
    }
}

/// Nearest-rank tail percentile (`0.5 < p < 1`). Refused when fewer than
/// ten samples lie beyond it: a tail read off a handful of samples is one
/// sample's luck, not a property of the program.
pub fn tail_percentile(values: &[f64], p: f64) -> Result<f64, TooFewSamples> {
    assert!(p > 0.5 && p < 1.0, "tail percentile in (0.5, 1)");
    let n = values.len();
    let rank = (p * n as f64).ceil() as usize;
    let beyond = n - rank.min(n);
    if beyond < 10 {
        return Err(TooFewSamples {
            percentile: p,
            samples: n,
            beyond,
        });
    }
    Ok(sorted(values)[rank - 1])
}

/// Outcome of comparing one metric on one workload between two result files.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Same,
    Better,
    Worse,
    /// The run-to-run spread exceeds the tolerance and the two sets of runs
    /// overlap: the data cannot tell a regression from noise.
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// How far `b`'s median may be worse than `a`'s: `bound` as a share of
/// `a`'s median, but never less than the absolute `floor` (so sub-second
/// values cannot flap on a relative bound).
pub fn tolerance(median_a: f64, bound: f64, floor: f64) -> f64 {
    (bound * median_a.abs()).max(floor)
}

/// Compares the runs of `a` (the reference) and `b`.
pub fn verdict(a: &[f64], b: &[f64], better: Better, bound: f64, floor: f64) -> Verdict {
    let (ma, mb) = (median(a), median(b));
    let tol = tolerance(ma, bound, floor);
    let sign = match better {
        Better::Lower => 1.0,
        Better::Higher => -1.0,
    };
    let worse_by = sign * (mb - ma);
    let spread = |v: &[f64]| {
        let (q1, q3) = quartiles(v);
        q3 - q1
    };
    let range = |v: &[f64]| {
        let s = sorted(v);
        (s[0], s[s.len() - 1])
    };
    let ((alo, ahi), (blo, bhi)) = (range(a), range(b));
    let overlap = alo <= bhi && blo <= ahi;
    if spread(a).max(spread(b)) > tol && overlap {
        Verdict::Unresolved
    } else if worse_by > tol {
        Verdict::Worse
    } else if worse_by < -tol {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[2.0, 3.0, 1.0]), (1.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[5.0]), (5.0, 5.0));
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        let v: Vec<f64> = (1..=120).map(f64::from).collect();
        // 108th of 120: twelve beyond.
        assert_eq!(tail_percentile(&v, 0.9), Ok(108.0));
        // p99 of 120 has one sample beyond it.
        let err = tail_percentile(&v, 0.99).unwrap_err();
        assert_eq!((err.samples, err.beyond), (120, 1));
        // Exactly ten beyond is enough; nine is not.
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail_percentile(&hundred, 0.9), Ok(90.0));
        assert!(tail_percentile(&hundred[..99], 0.9).is_err());
        assert!(tail_percentile(&[1.0; 8], 0.9).is_err());
    }

    #[test]
    fn tolerance_has_an_absolute_floor() {
        assert_eq!(tolerance(10.0, 0.25, 0.25), 2.5);
        // 25 % of 0.02 s would be 5 ms; the floor keeps it at 0.25 s.
        assert_eq!(tolerance(0.02, 0.25, 0.25), 0.25);
        assert_eq!(
            verdict(&[0.02; 3], &[0.2; 3], Better::Lower, 0.25, 0.25),
            Verdict::Same
        );
        assert_eq!(
            verdict(&[0.02; 3], &[0.2; 3], Better::Lower, 0.25, 0.0),
            Verdict::Worse
        );
    }

    #[test]
    fn each_verdict() {
        let a = [10.0, 10.1, 9.9];
        assert_eq!(
            verdict(&a, &[10.2, 10.3, 10.1], Better::Lower, 0.1, 0.0),
            Verdict::Same
        );
        assert_eq!(
            verdict(&a, &[12.0, 12.1, 11.9], Better::Lower, 0.1, 0.0),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&a, &[8.0, 8.1, 7.9], Better::Lower, 0.1, 0.0),
            Verdict::Better
        );
        // Direction flips for higher-is-better metrics.
        assert_eq!(
            verdict(&a, &[12.0, 12.1, 11.9], Better::Higher, 0.1, 0.0),
            Verdict::Better
        );
        assert_eq!(
            verdict(&a, &[8.0, 8.1, 7.9], Better::Higher, 0.1, 0.0),
            Verdict::Worse
        );
        // Wide, overlapping runs: the spread (4.0) exceeds the tolerance
        // (1.0) and the ranges overlap, whatever the medians say.
        assert_eq!(
            verdict(
                &[8.0, 10.0, 12.0],
                &[9.0, 11.5, 13.0],
                Better::Lower,
                0.1,
                0.0
            ),
            Verdict::Unresolved
        );
        // Equally wide but disjoint: every run of `b` is worse.
        assert_eq!(
            verdict(
                &[8.0, 10.0, 12.0],
                &[18.0, 20.0, 22.0],
                Better::Lower,
                0.1,
                0.0
            ),
            Verdict::Worse
        );
    }
}
