//! Percentile selection with an explicit sample-count contract.
//!
//! A percentile is only reported when enough samples lie beyond it to make
//! it more than a single outlier: at least [`MIN_BEYOND`] samples must rank
//! strictly above the selected one. A p90 therefore needs 100 samples and a
//! p50 needs 20. Every reported percentile carries its sample count.

/// Samples that must rank above a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// A percentile value together with the population it was taken from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pct {
    pub value: f64,
    pub n: usize,
}

/// Why a percentile was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TooFew {
    pub n: usize,
    pub beyond: usize,
}

/// Nearest-rank percentile `p` (in `(0, 100]`) of `samples`: the value at
/// 1-based rank `ceil(p/100 * n)` of the sorted samples. Refused when fewer
/// than [`MIN_BEYOND`] samples rank above it.
pub fn percentile(samples: &[f64], p: f64) -> Result<Pct, TooFew> {
    assert!(p > 0.0 && p <= 100.0, "percentile outside (0, 100]");
    let n = samples.len();
    let rank = ((p / 100.0 * n as f64).ceil() as usize).max(1);
    let beyond = n.saturating_sub(rank);
    if n == 0 || beyond < MIN_BEYOND {
        return Err(TooFew { n, beyond });
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(Pct {
        value: sorted[rank - 1],
        n,
    })
}

/// Plain median of a small set of repeated measurements (set-up repeats),
/// where the sample-count contract above does not apply.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Reversed so the helper has to sort.
        (1..=n).rev().map(|i| i as f64).collect()
    }

    #[test]
    fn p90_needs_one_hundred_samples() {
        assert_eq!(
            percentile(&ramp(99), 90.0),
            Err(TooFew { n: 99, beyond: 9 })
        );
        assert_eq!(
            percentile(&ramp(100), 90.0),
            Ok(Pct {
                value: 90.0,
                n: 100
            })
        );
    }

    #[test]
    fn p50_needs_twenty_samples() {
        assert_eq!(
            percentile(&ramp(19), 50.0),
            Err(TooFew { n: 19, beyond: 9 })
        );
        assert_eq!(percentile(&ramp(20), 50.0), Ok(Pct { value: 10.0, n: 20 }));
    }

    #[test]
    fn nearest_rank_rounds_up() {
        // rank = ceil(0.5 * 21) = 11 → the 11th smallest value.
        assert_eq!(percentile(&ramp(21), 50.0).map(|p| p.value), Ok(11.0));
        // rank = ceil(0.9 * 150) = 135, 15 beyond.
        assert_eq!(percentile(&ramp(150), 90.0).map(|p| p.value), Ok(135.0));
    }

    #[test]
    fn empty_population_is_refused() {
        assert_eq!(percentile(&[], 50.0), Err(TooFew { n: 0, beyond: 0 }));
    }

    #[test]
    fn median_of_repeats() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
