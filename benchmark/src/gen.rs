//! Seeded input generators: the load of every workload.
//!
//! Everything the system under test receives is produced here from
//! `--seed`, so a later change to `asv-workloads` cannot change the load.
//! The same seed gives the same op stream ([`StreamHash`] proves it in the
//! unit tests); a different seed gives a different one.

use std::f64::consts::{PI, TAU};

use crate::sut::VALUES_PER_PAGE;

/// Upper bound of the value domain of every generated column.
pub const DOMAIN_MAX: u64 = 100_000_000;

/// SplitMix64: the only source of randomness in the harness.
#[derive(Clone, Debug)]
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// A generator for an independent sub-stream of `seed`.
    pub fn stream(seed: u64, stream: u64) -> Self {
        let mut root = Self(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        Self(root.next_u64())
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, bound)`; `bound` must be non-zero. The modulo bias
    /// is below 2^-37 for every bound the workloads use.
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }

    /// Uniform in `[lo, hi]`.
    pub fn in_range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.below(hi - lo + 1)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Zipfian ranks over `[0, n)` by inverting the tabulated CDF.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, exponent: f64) -> Self {
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for rank in 1..=n {
            acc += 1.0 / (rank as f64).powf(exponent);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Self { cdf }
    }

    pub fn sample(&self, rng: &mut SplitMix) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// Value distributions over a page-structured column (paper Fig. 2).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Distribution {
    /// Uniform over the domain; no page clustering.
    Uniform,
    /// A sine wave over the row id with `cycles` full periods across the
    /// column, plus one local step of jitter: neighbouring rows cluster.
    Sine { cycles: usize },
    /// `zero_pages_pct` percent of the pages hold only zeros; the rest are
    /// uniform over `[1, DOMAIN_MAX]`.
    Sparse { zero_pages_pct: u64 },
    /// Page `p` holds `p * 1000 + slot`, optionally with the row order
    /// reversed — the two columns of the serving table, so conjunctive
    /// predicates intersect non-trivially.
    Clustered { reversed: bool },
}

impl Distribution {
    /// Largest value the distribution can produce for a column of `pages`.
    pub fn max_value(&self, pages: usize) -> u64 {
        match self {
            Distribution::Clustered { .. } => pages as u64 * 1_000 + 999,
            _ => DOMAIN_MAX,
        }
    }

    pub fn generate(&self, pages: usize, seed: u64) -> Vec<u64> {
        let n = pages * VALUES_PER_PAGE;
        let mut rng = SplitMix::stream(seed, 0xDA7A);
        let mut out = Vec::with_capacity(n);
        match *self {
            Distribution::Uniform => {
                for _ in 0..n {
                    out.push(rng.in_range(0, DOMAIN_MAX));
                }
            }
            Distribution::Sine { cycles } => {
                let period_rows = n as f64 / cycles.max(1) as f64;
                let amplitude = DOMAIN_MAX as f64;
                let local_step = (amplitude * PI / period_rows).max(1.0);
                for i in 0..n {
                    let phase = i as f64 / period_rows * TAU;
                    let center = (phase.sin() * 0.5 + 0.5) * amplitude;
                    let v = center + rng.unit() * local_step;
                    out.push((v.max(0.0) as u64).min(DOMAIN_MAX));
                }
            }
            Distribution::Sparse { zero_pages_pct } => {
                for _ in 0..pages {
                    let zero = rng.below(100) < zero_pages_pct;
                    for _ in 0..VALUES_PER_PAGE {
                        out.push(if zero { 0 } else { rng.in_range(1, DOMAIN_MAX) });
                    }
                }
            }
            Distribution::Clustered { reversed } => {
                for i in 0..n {
                    let row = if reversed { n - 1 - i } else { i };
                    out.push(((row / VALUES_PER_PAGE) * 1_000 + row % VALUES_PER_PAGE) as u64);
                }
            }
        }
        out
    }
}

/// An inclusive value range `[lo, hi]` — the harness's own query type, so
/// the generators and the oracle share nothing with the library.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Range {
    pub lo: u64,
    pub hi: u64,
}

impl Range {
    pub fn contains(&self, v: u64) -> bool {
        self.lo <= v && v <= self.hi
    }
}

/// A range covering `permille / 1000` of `[min_lo, max]`, placed uniformly.
pub fn range_of_width(rng: &mut SplitMix, min_lo: u64, max: u64, permille: u64) -> Range {
    let width = ((max - min_lo) / 1000 * permille).max(1);
    let lo = rng.in_range(min_lo, max - width);
    Range {
        lo,
        hi: lo + width - 1,
    }
}

/// `count` uniform point writes `(row, value)`.
pub fn uniform_writes(
    rng: &mut SplitMix,
    count: usize,
    rows: usize,
    max: u64,
) -> Vec<(usize, u64)> {
    (0..count)
        .map(|_| (rng.below(rows as u64) as usize, rng.in_range(0, max)))
        .collect()
}

/// `count` writes whose rows are zipfian over a seeded permutation base,
/// so the hot rows differ per seed but the skew does not.
pub fn zipfian_writes(
    rng: &mut SplitMix,
    zipf: &Zipf,
    count: usize,
    rows: usize,
    max: u64,
    hot_base: u64,
) -> Vec<(usize, u64)> {
    (0..count)
        .map(|_| {
            let rank = zipf.sample(rng) as u64;
            // Spread ranks over the column with a fixed odd stride so the
            // hot set does not sit on one page.
            let row = (hot_base + rank.wrapping_mul(0x9E37_79B1)) % rows as u64;
            (row as usize, rng.in_range(0, max))
        })
        .collect()
}

/// Order-sensitive hash of an op stream: the determinism witness.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StreamHash(pub u64);

impl StreamHash {
    pub fn push(&mut self, x: u64) {
        let mut mix = SplitMix(self.0 ^ x);
        self.0 = mix.next_u64();
    }

    pub fn push_range(&mut self, r: &Range) {
        self.push(r.lo);
        self.push(r.hi);
    }

    pub fn push_writes(&mut self, writes: &[(usize, u64)]) {
        for &(row, value) in writes {
            self.push(row as u64);
            self.push(value);
        }
    }

    /// A fixed-stride sample of a column: enough to tell two seeds apart
    /// without hashing 10^7 values per run.
    pub fn push_values(&mut self, values: &[u64]) {
        self.push(values.len() as u64);
        for &v in values.iter().step_by(4_099) {
            self.push(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_streams_are_deterministic_and_distinct() {
        let a: Vec<u64> = (0..4).map(|_| SplitMix::stream(7, 1).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(
            SplitMix::stream(7, 1).next_u64(),
            SplitMix::stream(7, 2).next_u64()
        );
        assert_ne!(
            SplitMix::stream(7, 1).next_u64(),
            SplitMix::stream(8, 1).next_u64()
        );
    }

    #[test]
    fn distributions_depend_on_seed_and_stay_in_domain() {
        for dist in [
            Distribution::Uniform,
            Distribution::Sine { cycles: 4 },
            Distribution::Sparse { zero_pages_pct: 90 },
        ] {
            let a = dist.generate(40, 1);
            assert_eq!(a.len(), 40 * VALUES_PER_PAGE);
            assert_eq!(a, dist.generate(40, 1));
            assert_ne!(a, dist.generate(40, 2));
            assert!(a.iter().all(|&v| v <= DOMAIN_MAX));
        }
    }

    #[test]
    fn sparse_pages_are_mostly_zero() {
        let values = Distribution::Sparse { zero_pages_pct: 90 }.generate(400, 3);
        let zero_pages = values
            .chunks(VALUES_PER_PAGE)
            .filter(|p| p.iter().all(|&v| v == 0))
            .count();
        assert!((320..=390).contains(&zero_pages), "{zero_pages}");
    }

    #[test]
    fn zipf_prefers_low_ranks() {
        let zipf = Zipf::new(1000, 1.05);
        let mut rng = SplitMix::new(5);
        let hits = (0..10_000).filter(|_| zipf.sample(&mut rng) < 10).count();
        assert!(hits > 3_000, "{hits}");
    }

    #[test]
    fn range_of_width_fits_the_domain() {
        let mut rng = SplitMix::new(9);
        for permille in [1, 10, 100, 900] {
            let r = range_of_width(&mut rng, 1, DOMAIN_MAX, permille);
            assert!(r.lo >= 1 && r.hi <= DOMAIN_MAX && r.lo <= r.hi);
        }
    }
}
