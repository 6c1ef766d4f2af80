//! Seeded randomness and order statistics.

/// SplitMix64: the benchmark's only source of randomness, so a `--seed`
/// fixes every generated input.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, bound: usize) -> usize {
        (self.next() % bound.max(1) as u64) as usize
    }

    /// Fisher–Yates.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Nearest-rank percentile of an unsorted sample (0 for an empty one).
pub fn percentile(sample: &mut [f64], pct: f64) -> f64 {
    if sample.is_empty() {
        return 0.0;
    }
    sample.sort_by(f64::total_cmp);
    let rank = ((pct / 100.0) * sample.len() as f64).ceil() as usize;
    sample[rank.clamp(1, sample.len()) - 1]
}

pub fn median(sample: &mut [f64]) -> f64 {
    if sample.is_empty() {
        return 0.0;
    }
    sample.sort_by(f64::total_cmp);
    let mid = sample.len() / 2;
    if sample.len() % 2 == 1 {
        sample[mid]
    } else {
        (sample[mid - 1] + sample[mid]) / 2.0
    }
}

pub fn mean(sample: &[f64]) -> f64 {
    if sample.is_empty() {
        0.0
    } else {
        sample.iter().sum::<f64>() / sample.len() as f64
    }
}

/// First quartile, median, third quartile — the cut points Python's
/// `statistics.quantiles(values, n=4)` returns, which is what the driver
/// computes spreads from.
pub fn quartiles(sample: &mut [f64]) -> (f64, f64, f64) {
    sample.sort_by(f64::total_cmp);
    let len = sample.len();
    if len < 2 {
        let v = sample.first().copied().unwrap_or(0.0);
        return (v, v, v);
    }
    let cut = |i: usize| {
        let j = (i * (len + 1) / 4).clamp(1, len - 1);
        let delta = (i * (len + 1)) as f64 - (j * 4) as f64;
        (sample[j - 1] * (4.0 - delta) + sample[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let mut v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&mut v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&mut [3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
    }

    #[test]
    fn percentile_and_median() {
        let mut v = vec![5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(percentile(&mut v, 50.0), 3.0);
        assert_eq!(percentile(&mut v, 95.0), 5.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn rng_is_deterministic() {
        let mut a = Rng::new(7);
        let mut b = Rng::new(7);
        assert_eq!(a.next(), b.next());
        let mut items: Vec<u32> = (0..10).collect();
        a.shuffle(&mut items);
        let mut again: Vec<u32> = (0..10).collect();
        Rng::new(7).tap_next().shuffle(&mut again);
        assert_eq!(items, again);
    }

    impl Rng {
        fn tap_next(mut self) -> Rng {
            self.next();
            self
        }
    }
}
