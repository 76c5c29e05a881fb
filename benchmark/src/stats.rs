//! Order statistics and the aggregation of a call's times over passes.

/// Samples the tail percentile needs beyond it. The percentile of a
/// heavy-tailed sample moves with every input drawn until a few dozen
/// samples lie above it: on `sim_hot` the value with 10 calls beyond it
/// spread by 15 % over eight seeds, the one with 56 beyond it by 6 %.
const TAIL_BEYOND: usize = 30;
/// Samples beyond the tail of a sample too small for that.
const SMALL_TAIL_BEYOND: usize = 10;

/// Median of `xs` (mean of the two middle values for an even count).
/// `None` for an empty sample.
pub fn median(xs: &[f64]) -> Option<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// The nearest-rank percentile `per_mille / 10` of a sorted sample, if at
/// least `beyond` samples lie above it.
pub fn percentile(sorted: &[f64], per_mille: usize, beyond: usize) -> Option<f64> {
    let n = sorted.len();
    let rank = (per_mille * n).div_ceil(1000).max(1);
    (n >= rank + beyond).then(|| sorted[rank - 1])
}

/// The tail of a sorted sample with the percentile it sits at: p90 where
/// [`TAIL_BEYOND`] samples lie beyond it (300 samples or more), and for a
/// smaller sample the highest order statistic with [`SMALL_TAIL_BEYOND`]
/// samples beyond it. `None` when that rank would not lie above the median.
///
/// Not p99, though most workloads have the calls for it: where the calls
/// are heavy-tailed, p99 sits on the steep part of the distribution and
/// moves with the seed (9 to 15 % over ten seeds on `analysis_poly`, with
/// 137 calls beyond it). A traced run reports it as `bench.call_p99_us`.
pub fn tail(sorted: &[f64]) -> Option<(f64, f64)> {
    if let Some(p90) = percentile(sorted, 900, TAIL_BEYOND) {
        return Some((p90, 90.0));
    }
    let n = sorted.len();
    (n > 2 * SMALL_TAIL_BEYOND).then(|| {
        let rank = n - SMALL_TAIL_BEYOND;
        (sorted[rank - 1], 100.0 * rank as f64 / n as f64)
    })
}

/// Per-call median over passes. Every pass times the same deterministic
/// calls; the median of a call's (speed-scaled) times is steady where a
/// single pass, or the luckiest one, is not.
pub fn median_over_passes<P: AsRef<[f64]>>(passes: &[P]) -> Vec<f64> {
    let calls = passes.first().map_or(0, |pass| pass.as_ref().len());
    (0..calls)
        .map(|i| {
            let samples: Vec<f64> = passes
                .iter()
                .map(|pass| {
                    let pass = pass.as_ref();
                    assert_eq!(pass.len(), calls, "every pass makes the same calls");
                    pass[i]
                })
                .collect();
            median(&samples).expect("at least one pass")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn percentile_is_nearest_rank_and_needs_samples_beyond() {
        // p99 of 1 000 samples is the 990th: ten lie beyond it.
        assert_eq!(percentile(&ramp(1000), 990, 10), Some(990.0));
        assert_eq!(percentile(&ramp(1000), 990, 11), None);
        // One sample fewer and the rank stays, with nine beyond.
        assert_eq!(percentile(&ramp(999), 990, 10), None);
        assert_eq!(percentile(&ramp(30_000), 999, 30), Some(29_970.0));
        assert_eq!(percentile(&ramp(7), 500, 0), Some(4.0));
        assert_eq!(percentile(&[], 900, 0), None);
    }

    #[test]
    fn tail_is_p90_with_thirty_samples_beyond() {
        assert_eq!(tail(&ramp(300)), Some((270.0, 90.0)));
        assert_eq!(tail(&ramp(13_720)), Some((12_348.0, 90.0)));
    }

    #[test]
    fn a_small_sample_leaves_ten_beyond_its_tail() {
        // 299 samples leave 29 beyond p90: the rank moves up to leave ten.
        assert_eq!(tail(&ramp(299)).unwrap().0, 289.0);
        assert_eq!(tail(&ramp(100)), Some((90.0, 90.0)));
        let (v, p) = tail(&ramp(21)).unwrap();
        assert_eq!(v, 11.0);
        assert!(p > 50.0);
        // At 20 samples the rank would be the lower median: not a tail.
        assert_eq!(tail(&ramp(20)), None);
    }

    #[test]
    fn median_over_passes_is_per_call() {
        let passes = vec![
            vec![5.0, 9.0, 7.0],
            vec![6.0, 3.0, 7.0],
            vec![8.0, 4.0, 1.0],
        ];
        assert_eq!(median_over_passes(&passes), vec![6.0, 4.0, 7.0]);
        // One slow pass (an outlier for every call) does not move it.
        let mut noisy = passes.clone();
        noisy.push(vec![50.0, 90.0, 70.0]);
        noisy.push(vec![5.5, 3.5, 6.5]);
        assert_eq!(median_over_passes(&noisy), vec![6.0, 4.0, 7.0]);
        assert_eq!(median_over_passes(&passes[..1]), vec![5.0, 9.0, 7.0]);
        assert!(median_over_passes::<Vec<f64>>(&[]).is_empty());
    }
}
