//! Exact percentiles from raw samples.
//!
//! Nearest rank over the sorted samples: the `q`-th percentile is the
//! smallest sample with at least `q`% of the samples at or below it. A
//! percentile is refused when fewer than [`MIN_BEYOND`] samples rank
//! above it, so a tail figure never rests on a handful of points.

/// Fewest samples that must rank above a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Raw samples, sorted once.
pub struct Samples {
    sorted: Vec<u64>,
}

impl Samples {
    pub fn new(mut samples: Vec<u64>) -> Samples {
        samples.sort_unstable();
        Samples { sorted: samples }
    }

    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// The percentile `per_mille / 10` (so `990` is p99), or `None` when
    /// fewer than [`MIN_BEYOND`] samples rank above it.
    pub fn per_mille(&self, per_mille: u32) -> Option<u64> {
        let n = self.sorted.len();
        // 1-based nearest rank, in integers: ceil(per_mille * n / 1000).
        let rank = (per_mille as usize * n).div_ceil(1000).max(1);
        if n == 0 || n - rank.min(n) < MIN_BEYOND {
            return None;
        }
        Some(self.sorted[rank - 1])
    }

    /// [`per_mille`](Self::per_mille), or an error naming the shortfall.
    pub fn require(&self, what: &str, per_mille: u32) -> Result<u64, String> {
        self.per_mille(per_mille).ok_or_else(|| {
            format!(
                "{what}: p{} needs {MIN_BEYOND} samples above it, have {} samples in all",
                f64::from(per_mille) / 10.0,
                self.len()
            )
        })
    }
}

/// Nearest-rank percentile of `f64` values (sorted with `total_cmp`).
pub fn per_mille_f64(values: &mut [f64], per_mille: u32) -> Option<f64> {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    let rank = (per_mille as usize * n).div_ceil(1000).max(1);
    (n > 0).then(|| values[rank.min(n) - 1])
}

/// Median of a few measurements (upper median for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

#[cfg(test)]
mod tests {
    use super::*;
    use uniloc_rng::Rng;

    /// Brute force, without sorting: the smallest sample `x` with at least
    /// `per_mille / 1000` of all samples at or below it.
    fn brute(samples: &[u64], per_mille: u32) -> u64 {
        let n = samples.len() as u64;
        samples
            .iter()
            .copied()
            .filter(|&x| {
                samples.iter().filter(|&&y| y <= x).count() as u64 * 1000
                    >= u64::from(per_mille) * n
            })
            .min()
            .unwrap()
    }

    #[test]
    fn matches_a_brute_force_sort() {
        let mut rng = Rng::seed_from_u64(99);
        for case in 0..300 {
            let n = 1 + (rng.next_u64() % 1500) as usize;
            // Small value ranges force ties; large ones make them rare.
            let range = if case % 2 == 0 { 20 } else { 1 << 40 };
            let samples: Vec<u64> = (0..n).map(|_| rng.next_u64() % range).collect();
            let s = Samples::new(samples.clone());
            for pm in [1, 100, 500, 900, 950, 990, 999, 1000] {
                let rank = (u64::from(pm) * n as u64).div_ceil(1000).max(1) as usize;
                let beyond = n - rank;
                match s.per_mille(pm) {
                    Some(v) => {
                        assert!(beyond >= MIN_BEYOND, "n={n} pm={pm}");
                        assert_eq!(v, brute(&samples, pm), "n={n} pm={pm}");
                    }
                    None => assert!(beyond < MIN_BEYOND, "n={n} pm={pm} refused"),
                }
            }
        }
    }

    #[test]
    fn refuses_thin_tails() {
        let s = Samples::new((1..=1000).collect());
        assert_eq!(s.per_mille(500), Some(500));
        assert_eq!(s.per_mille(990), Some(990));
        assert_eq!(s.per_mille(991), None);
        let s = Samples::new((1..=999).collect());
        assert_eq!(s.per_mille(990), None);
        assert!(s.require("x", 990).unwrap_err().contains("999 samples"));
        assert_eq!(Samples::new(Vec::new()).per_mille(500), None);
    }

    #[test]
    fn f64_percentiles_and_medians() {
        let mut v = vec![3.0, 1.0, 2.0, 4.0];
        assert_eq!(per_mille_f64(&mut v, 500), Some(2.0));
        assert_eq!(per_mille_f64(&mut v, 900), Some(4.0));
        assert_eq!(per_mille_f64(&mut [], 500), None);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
    }
}
