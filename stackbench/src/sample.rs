//! Seeded input generators and the statistics every workload shares: a
//! SplitMix64 stream, open-loop Poisson arrivals, a Zipf popularity
//! sampler, the tail-percentile rule and the outcome digest.
//!
//! The benchmark makes all of its inputs here, from `--seed`; the stack
//! under test only ever receives the generated arrivals and inputs.

/// SplitMix64: a tiny, fast, well-mixed 64-bit generator. One seed gives
/// one stream on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`, decorrelated per `stream` so workloads can
    /// draw independent sequences (arrivals, popularity, sizes) from one
    /// benchmark seed.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xa076_1d64_78bd_642f));
        r.next_u64();
        r
    }

    /// The next 64 uniform bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 bits of precision.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "empty range");
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// An exponential draw with the given mean.
    pub fn exp(&mut self, mean: f64) -> f64 {
        -mean * (1.0 - self.unit()).ln()
    }
}

/// Due instants (virtual ns, from the start of the timed phase) of an
/// open-loop Poisson process at `rate` per second, with a dead time of
/// `min_gap_ns` after each arrival. The dead time keeps two arrivals from
/// falling closer together than one submit call can block the single
/// load-generating process, so every arrival can leave on time.
pub fn poisson_arrivals(rng: &mut Rng, rate: f64, n: usize, min_gap_ns: u64) -> Vec<u64> {
    let mean_gap_ns = 1e9 / rate;
    assert!(mean_gap_ns > min_gap_ns as f64, "rate leaves no room for the dead time");
    let mut t = 0u64;
    (0..n)
        .map(|_| {
            t += min_gap_ns + rng.exp(mean_gap_ns - min_gap_ns as f64).round() as u64;
            t
        })
        .collect()
}

/// Samples ranks `0..n` with probability proportional to `1 / (rank+1)^s`
/// by inverting a precomputed cumulative table.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// A sampler over `n > 0` ranks with exponent `s >= 0`.
    pub fn new(n: usize, s: f64) -> Zipf {
        assert!(n > 0, "zipf needs at least one rank");
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|k| {
                acc += 1.0 / (k as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    /// Probability of `rank`.
    pub fn probability(&self, rank: usize) -> f64 {
        self.cdf[rank] - if rank == 0 { 0.0 } else { self.cdf[rank - 1] }
    }

    /// One rank.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c <= u).min(self.cdf.len() - 1)
    }
}

/// The nearest-rank `q`-quantile of `sorted`, capped so that at least ten
/// samples lie beyond it: the highest usable percentile at or below `q`.
/// Returns the value and the quantile actually used, or `None` when there
/// are fewer than eleven samples.
pub fn tail_quantile(sorted: &[u64], q: f64) -> Option<(u64, f64)> {
    let n = sorted.len();
    if n < 11 {
        return None;
    }
    let target = ((q * n as f64).ceil() as usize).max(1);
    let rank = target.min(n - 10);
    let used = if rank == target { q } else { rank as f64 / n as f64 };
    Some((sorted[rank - 1], used))
}

/// The nearest-rank median of `sorted` (0 when empty).
pub fn median(sorted: &[u64]) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[sorted.len().div_ceil(2) - 1]
}

/// The median of host-time readings (upper median for even counts).
pub fn median_f64(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v.get(v.len() / 2).copied().unwrap_or(0.0)
}

/// FNV-1a over a stream of 64-bit words: the per-request outcome digest.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds one word in.
    pub fn push(&mut self, word: u64) {
        for b in word.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// The digest so far.
    pub fn value(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_quantile_keeps_ten_samples_beyond() {
        for n in [11usize, 12, 50, 500, 999, 1000, 1001, 40_000] {
            let sorted: Vec<u64> = (0..n as u64).collect();
            let (v, used) = tail_quantile(&sorted, 0.99).unwrap();
            let beyond = sorted.iter().filter(|&&x| x > v).count();
            assert!(beyond >= 10, "n={n}: only {beyond} samples beyond the tail value");
            assert!(used <= 0.99 + 1e-12, "n={n}: quantile {used} above the target");
            if n >= 1000 {
                assert_eq!(v, sorted[(0.99 * n as f64).ceil() as usize - 1], "n={n}");
            } else {
                assert_eq!(beyond, 10, "n={n}: small samples use the highest usable percentile");
            }
        }
        assert_eq!(tail_quantile(&[1, 2, 3, 4, 5, 6, 7, 8, 9, 10], 0.99), None);
    }

    #[test]
    fn median_is_nearest_rank() {
        assert_eq!(median(&[]), 0);
        assert_eq!(median(&[7]), 7);
        assert_eq!(median(&[1, 2]), 1);
        assert_eq!(median(&[1, 2, 3]), 2);
        assert_eq!(median_f64(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn zipf_frequencies_follow_the_law() {
        let z = Zipf::new(100, 1.0);
        let mut rng = Rng::new(42, 0);
        let mut counts = vec![0u32; 100];
        let draws = 200_000;
        for _ in 0..draws {
            counts[z.sample(&mut rng)] += 1;
        }
        for rank in [0usize, 1, 4, 9] {
            let expected = z.probability(rank) * draws as f64;
            let got = f64::from(counts[rank]);
            assert!(
                (got - expected).abs() < 0.05 * expected,
                "rank {rank}: {got} draws vs {expected:.0} expected"
            );
        }
        assert!((z.probability(0) / z.probability(1) - 2.0).abs() < 1e-9);
        assert!(counts[0] > counts[9] && counts[9] > counts[99]);
        let total: f64 = (0..100).map(|r| z.probability(r)).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn zipf_is_deterministic_and_in_range() {
        let z = Zipf::new(7, 1.2);
        let a: Vec<usize> = {
            let mut rng = Rng::new(9, 3);
            (0..1000).map(|_| z.sample(&mut rng)).collect()
        };
        let b: Vec<usize> = {
            let mut rng = Rng::new(9, 3);
            (0..1000).map(|_| z.sample(&mut rng)).collect()
        };
        assert_eq!(a, b);
        assert!(a.iter().all(|&r| r < 7));
        assert_eq!(Zipf::new(1, 1.0).sample(&mut Rng::new(1, 1)), 0);
    }

    #[test]
    fn arrivals_respect_rate_and_dead_time() {
        let mut rng = Rng::new(5, 1);
        let at = poisson_arrivals(&mut rng, 1000.0, 20_000, 50_000);
        assert!(at.windows(2).all(|w| w[1] - w[0] >= 50_000));
        let rate = at.len() as f64 / (*at.last().unwrap() as f64 / 1e9);
        assert!((rate - 1000.0).abs() < 30.0, "measured rate {rate}");
        let mut again = Rng::new(5, 1);
        assert_eq!(at, poisson_arrivals(&mut again, 1000.0, 20_000, 50_000));
    }

    #[test]
    fn digest_depends_on_order_and_content() {
        let mut a = Digest::default();
        a.push(1);
        a.push(2);
        let mut b = Digest::default();
        b.push(2);
        b.push(1);
        assert_ne!(a.value(), b.value());
        let mut c = Digest::default();
        c.push(1);
        c.push(2);
        assert_eq!(a.value(), c.value());
    }
}
