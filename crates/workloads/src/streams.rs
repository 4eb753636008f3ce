//! Concurrent serving streams (beyond the paper).
//!
//! [`ServeWorkload`] generates barrier-phased rounds for the concurrent
//! serving layer: each round carries a zipfian-skewed write burst and a
//! batch of range/conjunctive reads that client threads answer from
//! pinned snapshots. Rounds are fully determined by the seed and the spec.

use asv_util::ValueRange;
use asv_vmem::VALUES_PER_PAGE;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One read operation of a serving round, executed by a client thread
/// against a pinned snapshot.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServeReadOp {
    /// A routed range scan of one column.
    Range {
        /// Column to scan.
        col: usize,
        /// Query range.
        range: ValueRange,
    },
    /// A conjunctive query over several columns.
    Conjunctive {
        /// `(column, range)` predicates, conjunctively combined.
        predicates: Vec<(usize, ValueRange)>,
    },
}

/// One barrier-phased round of the serve workload: the maintenance thread
/// applies `writes` and commits, then every client executes its share of
/// `reads` against pinned snapshots.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ServeRound {
    /// Reads of this round, partitioned across clients by index.
    pub reads: Vec<ServeReadOp>,
    /// `(column, row, value)` writes folded before the round's reads.
    pub writes: Vec<(usize, usize, u64)>,
}

impl ServeRound {
    /// The subset of this round's writes whose row lies on a page `p` with
    /// `p % num_shards == shard`, in their relative order: the partitions
    /// drive one writer thread each, and every row's writes stay in one
    /// FIFO sequence.
    pub fn writes_for_shard(&self, shard: usize, num_shards: usize) -> Vec<(usize, usize, u64)> {
        self.writes
            .iter()
            .copied()
            .filter(|&(_, row, _)| (row / VALUES_PER_PAGE) % num_shards.max(1) == shard)
            .collect()
    }
}

/// Parameters of the serve workload.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ServeSpec {
    /// Number of barrier-phased rounds.
    pub rounds: usize,
    /// Reads per round (split across the client threads).
    pub reads_per_round: usize,
    /// Writes applied by the maintenance thread before each round.
    pub writes_per_round: usize,
    /// Width of every range predicate.
    pub query_width: u64,
    /// Every `conjunctive_every`-th read is a two-column conjunctive query
    /// (`0` = range reads only; ignored for single-column tables).
    pub conjunctive_every: usize,
    /// Upper bound (inclusive) of the value domain.
    pub max_value: u64,
    /// Zipf exponent of the written-row distribution: `0.0` is uniform,
    /// larger values concentrate writes on a hot set of low row ids.
    pub zipf_exponent: f64,
}

impl Default for ServeSpec {
    fn default() -> Self {
        Self {
            rounds: 16,
            reads_per_round: 64,
            writes_per_round: 32,
            query_width: 1 << 16,
            conjunctive_every: 4,
            max_value: u64::MAX >> 1,
            zipf_exponent: 0.99,
        }
    }
}

/// A generator for deterministic serve workloads: barrier-phased rounds of
/// range/conjunctive reads over a multi-column table interleaved with
/// zipfian-skewed write bursts.
///
/// The skew models the serving-layer stress case: a hot set of rows keeps
/// re-writing pages that already have a copy while readers scan, so copy
/// clones under pinned epochs, routed reads through copies and fold
/// retirement all stay exercised.
#[derive(Clone, Debug)]
pub struct ServeWorkload {
    seed: u64,
}

impl ServeWorkload {
    /// Creates a generator with the given seed.
    pub fn new(seed: u64) -> Self {
        Self { seed }
    }

    /// Generates the rounds for a table of `num_cols` columns of
    /// `num_rows` rows each. The stream is fully determined by the seed
    /// and the spec.
    ///
    /// # Panics
    /// Panics if `num_cols == 0`, if `num_rows == 0` while the spec
    /// contains writes, or if `query_width == 0`.
    pub fn rounds(&self, spec: &ServeSpec, num_cols: usize, num_rows: usize) -> Vec<ServeRound> {
        assert!(num_cols > 0, "serve workload needs at least one column");
        assert!(spec.query_width > 0, "queries need a non-zero width");
        assert!(
            num_rows > 0 || spec.writes_per_round == 0,
            "cannot generate writes for an empty column"
        );
        let mut rng = StdRng::seed_from_u64(self.seed);
        let width = spec.query_width.min(spec.max_value);
        let random_range = |rng: &mut StdRng| {
            let lo = rng.gen_range(0..=spec.max_value - width);
            ValueRange::new(lo, lo + width - 1)
        };
        (0..spec.rounds)
            .map(|_| {
                let writes = (0..spec.writes_per_round)
                    .map(|_| {
                        (
                            rng.gen_range(0..num_cols),
                            zipf_row(&mut rng, num_rows, spec.zipf_exponent),
                            rng.gen_range(0..=spec.max_value),
                        )
                    })
                    .collect();
                let reads = (1..=spec.reads_per_round)
                    .map(|i| {
                        let conjunctive = spec.conjunctive_every > 0
                            && num_cols > 1
                            && i % spec.conjunctive_every == 0;
                        if conjunctive {
                            let a = rng.gen_range(0..num_cols);
                            let b = (a + 1 + rng.gen_range(0..num_cols - 1)) % num_cols;
                            ServeReadOp::Conjunctive {
                                predicates: vec![
                                    (a, random_range(&mut rng)),
                                    (b, random_range(&mut rng)),
                                ],
                            }
                        } else {
                            ServeReadOp::Range {
                                col: rng.gen_range(0..num_cols),
                                range: random_range(&mut rng),
                            }
                        }
                    })
                    .collect();
                ServeRound { reads, writes }
            })
            .collect()
    }
}

/// Samples a row id with zipfian skew via the inverse CDF of a truncated
/// continuous power law (a standard continuous approximation of the Zipf
/// distribution): hot rows cluster at low ids, `exponent == 0` is uniform.
fn zipf_row(rng: &mut StdRng, num_rows: usize, exponent: f64) -> usize {
    debug_assert!(num_rows > 0);
    let u: f64 = rng.gen_range(0.0..1.0);
    let n = num_rows as f64;
    let rank = if exponent <= f64::EPSILON {
        u * n
    } else if (exponent - 1.0).abs() <= f64::EPSILON {
        // s = 1: inverse of the log CDF.
        n.powf(u) - 1.0
    } else {
        let s = 1.0 - exponent;
        ((n.powf(s) - 1.0) * u + 1.0).powf(1.0 / s) - 1.0
    };
    (rank as usize).min(num_rows - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serve_rounds_are_deterministic_and_well_formed() {
        let spec = ServeSpec {
            rounds: 6,
            reads_per_round: 12,
            writes_per_round: 8,
            query_width: 1_000,
            conjunctive_every: 3,
            max_value: 1_000_000,
            zipf_exponent: 0.99,
        };
        let a = ServeWorkload::new(11).rounds(&spec, 3, 20_000);
        let b = ServeWorkload::new(11).rounds(&spec, 3, 20_000);
        assert_eq!(a, b);
        assert_ne!(a, ServeWorkload::new(12).rounds(&spec, 3, 20_000));
        assert_eq!(a.len(), 6);
        for round in &a {
            assert_eq!(round.writes.len(), 8);
            assert!(round
                .writes
                .iter()
                .all(|&(c, r, v)| c < 3 && r < 20_000 && v <= 1_000_000));
            assert_eq!(round.reads.len(), 12);
            for (i, read) in round.reads.iter().enumerate() {
                match read {
                    ServeReadOp::Range { col, range } => {
                        assert_ne!((i + 1) % 3, 0, "conjunctive expected at position {i}");
                        assert!(*col < 3);
                        assert_eq!(range.width(), 1_000);
                        assert!(range.high() <= 1_000_000);
                    }
                    ServeReadOp::Conjunctive { predicates } => {
                        assert_eq!((i + 1) % 3, 0, "range read expected at position {i}");
                        assert_eq!(predicates.len(), 2);
                        assert_ne!(predicates[0].0, predicates[1].0);
                        assert!(predicates.iter().all(|(c, r)| {
                            *c < 3 && r.width() == 1_000 && r.high() <= 1_000_000
                        }));
                    }
                }
            }
        }
    }

    #[test]
    fn shard_partitions_cover_every_write_once_in_order() {
        let spec = ServeSpec {
            rounds: 3,
            writes_per_round: 40,
            ..ServeSpec::default()
        };
        let rounds = ServeWorkload::new(9).rounds(&spec, 2, 8 * VALUES_PER_PAGE);
        for round in &rounds {
            for num_shards in [1usize, 2, 3] {
                let mut merged: Vec<(usize, usize, u64)> = Vec::new();
                for shard in 0..num_shards {
                    let part = round.writes_for_shard(shard, num_shards);
                    assert!(part
                        .iter()
                        .all(|&(_, row, _)| (row / VALUES_PER_PAGE) % num_shards == shard));
                    merged.extend(part);
                }
                assert_eq!(
                    merged.len(),
                    round.writes.len(),
                    "a partition, not a subset"
                );
                // Within one shard the relative write order is preserved.
                for shard in 0..num_shards {
                    let part = round.writes_for_shard(shard, num_shards);
                    let reference: Vec<_> = round
                        .writes
                        .iter()
                        .copied()
                        .filter(|&(_, row, _)| (row / VALUES_PER_PAGE) % num_shards == shard)
                        .collect();
                    assert_eq!(part, reference);
                }
            }
        }
    }

    #[test]
    fn serve_single_column_tables_get_range_reads_only() {
        let spec = ServeSpec {
            rounds: 4,
            conjunctive_every: 2,
            ..ServeSpec::default()
        };
        let rounds = ServeWorkload::new(5).rounds(&spec, 1, 10_000);
        assert!(rounds
            .iter()
            .flat_map(|r| &r.reads)
            .all(|op| matches!(op, ServeReadOp::Range { .. })));
    }

    #[test]
    fn zipf_skew_concentrates_writes_on_hot_rows() {
        let mut rng = StdRng::seed_from_u64(42);
        let n = 100_000usize;
        let samples = 4_000;
        let hot = (0..samples)
            .filter(|_| zipf_row(&mut rng, n, 1.2) < n / 100)
            .count();
        // With exponent 1.2 far more than 1% of samples land in the first
        // 1% of rows; uniform sampling would put ~40 of 4000 there.
        assert!(hot > samples / 4, "only {hot} hot-row samples");
        let uniform = (0..samples)
            .filter(|_| zipf_row(&mut rng, n, 0.0) < n / 100)
            .count();
        assert!(uniform < samples / 10, "{uniform} uniform samples in 1%");
    }
}
