//! Exact order statistics over the benchmark's own samples.
//!
//! Latency quantiles come from every sample the client recorded, never
//! from a bucketed histogram: a power-of-two histogram can only report
//! power-of-two values, which hides any change smaller than 2x.

/// The exact `q`-quantile of ascending `sorted` samples by the
/// nearest-rank rule: the smallest sample with at least `q * n`
/// samples at or below it. `None` when there are no samples.
pub fn nearest_rank<T: Copy>(sorted: &[T], q: f64) -> Option<T> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// How many of the ascending `sorted` samples lie strictly above
/// `value` (the samples "beyond" a quantile).
pub fn count_above<T: PartialOrd>(sorted: &[T], value: &T) -> usize {
    sorted.len() - sorted.partition_point(|s| s <= value)
}

/// The median of `values`: the middle sample, or the mean of the two
/// middle samples for an even count. `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// Indices of the `k` slices with the least stolen CPU time (earliest
/// first among equals), in index order.
pub fn calmest(steals: &[f64], k: usize) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..steals.len()).collect();
    idx.sort_by(|&a, &b| steals[a].total_cmp(&steals[b]).then(a.cmp(&b)));
    idx.truncate(k);
    idx.sort_unstable();
    idx
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_is_exact_on_known_samples() {
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(nearest_rank(&s, 0.5), Some(50));
        assert_eq!(nearest_rank(&s, 0.99), Some(99));
        assert_eq!(nearest_rank(&s, 1.0), Some(100));
        assert_eq!(nearest_rank(&s, 0.0), Some(1));
        assert_eq!(nearest_rank(&[7u64], 0.99), Some(7));
        assert_eq!(nearest_rank::<u64>(&[], 0.5), None);
        // Not rounded to a power of two: 37 stays 37.
        let odd = [3u64, 37, 37, 90];
        assert_eq!(nearest_rank(&odd, 0.5), Some(37));
    }

    #[test]
    fn count_above_excludes_ties() {
        let s = [1u64, 2, 2, 3, 5, 8];
        assert_eq!(count_above(&s, &2), 3);
        assert_eq!(count_above(&s, &8), 0);
        assert_eq!(count_above(&s, &0), 6);
    }

    #[test]
    fn calmest_keeps_the_least_stolen_slices() {
        assert_eq!(calmest(&[0.2, 0.01, 0.3, 0.05], 2), vec![1, 3]);
        assert_eq!(calmest(&[0.1, 0.0, 0.1, 0.1, 0.2], 3), vec![0, 1, 2]);
        assert_eq!(calmest(&[0.4], 3), vec![0]);
        assert!(calmest(&[], 2).is_empty());
    }

    #[test]
    fn median_handles_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }
}
