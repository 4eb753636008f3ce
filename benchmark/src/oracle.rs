//! The independent oracle: plain `Vec<u64>` columns with writes applied in
//! commit order, answered by a naive filter. It shares no code with the
//! library; every expected answer is computed outside the timed phases.
//! The read and answer types are the harness's own, so the generators, the
//! adapter and the oracle agree on them without involving the library.

use crate::gen::Range;

#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RangeAnswer {
    pub count: u64,
    pub sum: u128,
}

#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ConjAnswer {
    pub count: u64,
    /// Commutative wrapping sum of `splitmix64(row + 1)` over the surviving
    /// rows — the order-independent checksum the serving layer reports.
    pub rows_checksum: u64,
}

fn mix_row(row: u64) -> u64 {
    let mut x = (row + 1).wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Naive filter of one column.
pub fn scan(values: &[u64], range: &Range) -> RangeAnswer {
    let mut count = 0u64;
    let mut sum = 0u128;
    for &v in values {
        if range.contains(v) {
            count += 1;
            sum += v as u128;
        }
    }
    RangeAnswer { count, sum }
}

/// One read, in the harness's own terms.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Read {
    /// Count and sum of one column's values in `range`; a count-only read
    /// skips the checksum, so its expected sum is 0.
    Range {
        col: usize,
        range: Range,
        count_only: bool,
    },
    /// Rows satisfying every `(column, range)` predicate.
    Conjunctive { predicates: Vec<(usize, Range)> },
}

impl Read {
    /// Folds this read into an op-stream hash.
    pub fn hash_into(&self, hash: &mut crate::gen::StreamHash) {
        match self {
            Read::Range {
                col,
                range,
                count_only,
            } => {
                hash.push(*col as u64 * 2 + *count_only as u64);
                hash.push_range(range);
            }
            Read::Conjunctive { predicates } => {
                hash.push(u64::MAX);
                for (col, range) in predicates {
                    hash.push(*col as u64);
                    hash.push_range(range);
                }
            }
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Answer {
    Range(RangeAnswer),
    Conjunctive(ConjAnswer),
}

/// One step of a workload's op stream as the oracle sees it.
#[derive(Clone, Debug)]
pub enum Step {
    /// A committed batch of `(row, value)` writes to one column.
    Write {
        col: usize,
        writes: Vec<(usize, u64)>,
    },
    Read(Read),
}

/// The rows `[first_row, first_row + len)` of every column.
struct Shard<'a> {
    first_row: usize,
    columns: Vec<&'a mut [u64]>,
}

impl Shard<'_> {
    fn apply(&mut self, col: usize, writes: &[(usize, u64)]) {
        let len = self.columns[col].len();
        for &(row, value) in writes {
            if let Some(local) = row.checked_sub(self.first_row).filter(|&r| r < len) {
                self.columns[col][local] = value;
            }
        }
    }

    fn answer(&self, read: &Read) -> Answer {
        match read {
            Read::Range {
                col,
                range,
                count_only,
            } => {
                let mut out = scan(self.columns[*col], range);
                if *count_only {
                    out.sum = 0;
                }
                Answer::Range(out)
            }
            Read::Conjunctive { predicates } => {
                let mut out = ConjAnswer::default();
                for local in 0..self.columns[predicates[0].0].len() {
                    if predicates
                        .iter()
                        .all(|(col, range)| range.contains(self.columns[*col][local]))
                    {
                        out.count += 1;
                        out.rows_checksum = out
                            .rows_checksum
                            .wrapping_add(mix_row((self.first_row + local) as u64));
                    }
                }
                Answer::Conjunctive(out)
            }
        }
    }

    fn replay(mut self, steps: &[Step]) -> Vec<Answer> {
        let mut answers = Vec::new();
        for step in steps {
            match step {
                Step::Write { col, writes } => self.apply(*col, writes),
                Step::Read(read) => answers.push(self.answer(read)),
            }
        }
        answers
    }
}

fn merge(a: Answer, b: Answer) -> Answer {
    match (a, b) {
        (Answer::Range(x), Answer::Range(y)) => Answer::Range(RangeAnswer {
            count: x.count + y.count,
            sum: x.sum + y.sum,
        }),
        (Answer::Conjunctive(x), Answer::Conjunctive(y)) => Answer::Conjunctive(ConjAnswer {
            count: x.count + y.count,
            rows_checksum: x.rows_checksum.wrapping_add(y.rows_checksum),
        }),
        _ => unreachable!("both shards answer the same read"),
    }
}

/// Replays `steps` over `columns` — writes applied in commit order, every
/// read answered by a naive filter of the state it must observe — and
/// returns the answers in read order. The rows are split in two halves
/// replayed on two threads (the box has two cores and the oracle runs
/// outside every timed phase); the halves' answers add up.
pub fn replay(mut columns: Vec<Vec<u64>>, steps: &[Step]) -> Vec<Answer> {
    let rows = columns.first().map_or(0, Vec::len);
    let mid = rows / 2;
    let (mut low, mut high) = (Vec::new(), Vec::new());
    for column in &mut columns {
        let (a, b) = column.split_at_mut(mid);
        low.push(a);
        high.push(b);
    }
    let low = Shard {
        first_row: 0,
        columns: low,
    };
    let high = Shard {
        first_row: mid,
        columns: high,
    };
    let (a, b) = std::thread::scope(|scope| {
        let high = scope.spawn(|| high.replay(steps));
        (low.replay(steps), high.join().expect("oracle thread"))
    });
    a.into_iter().zip(b).map(|(x, y)| merge(x, y)).collect()
}

/// The oracle of the read-only workloads, whose columns are too large to
/// filter once per query inside the run-time budget: the values sorted
/// once, with prefix sums, answer any range by two binary searches. Still
/// independent of the library — it never sees a page, a view or a kernel.
pub struct SortedOracle {
    sorted: Vec<u64>,
    /// `prefix[i]` = sum of `sorted[..i]`.
    prefix: Vec<u64>,
}

impl SortedOracle {
    pub fn new(mut values: Vec<u64>) -> Self {
        values.sort_unstable();
        let mut prefix = Vec::with_capacity(values.len() + 1);
        let mut acc = 0u64;
        prefix.push(0);
        for &v in &values {
            acc = acc
                .checked_add(v)
                .expect("column sum fits u64 for the generated domains");
            prefix.push(acc);
        }
        Self {
            sorted: values,
            prefix,
        }
    }

    pub fn range(&self, range: &Range) -> RangeAnswer {
        let lo = self.sorted.partition_point(|&v| v < range.lo);
        let hi = self.sorted.partition_point(|&v| v <= range.hi);
        RangeAnswer {
            count: (hi - lo) as u64,
            sum: (self.prefix[hi] - self.prefix[lo]) as u128,
        }
    }

    /// The value at quantile `q` in `[0, 1]` (used to place probe ranges of
    /// a known row selectivity).
    pub fn quantile(&self, q: f64) -> u64 {
        let idx = ((self.sorted.len() - 1) as f64 * q.clamp(0.0, 1.0)) as usize;
        self.sorted[idx]
    }
}

/// Failure accounting of one workload: an op that returned `Err`, panicked
/// or answered differently from the oracle counts as failed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// The subset of `failed` that were wrong answers.
    pub mismatches: u64,
}

impl Tally {
    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.mismatches += other.mismatches;
    }

    /// Records one answered op against its expected answer.
    pub fn check<T: PartialEq>(&mut self, got: &T, expected: &T) {
        if got != expected {
            self.failed += 1;
            self.mismatches += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sorted_oracle_agrees_with_the_naive_scan() {
        let values: Vec<u64> = (0..5_000u64).map(|i| (i * 7919) % 1_000).collect();
        let sorted = SortedOracle::new(values.clone());
        for (lo, hi) in [(0, 0), (0, 999), (10, 20), (500, 400 + 300), (999, 999)] {
            let r = Range { lo, hi };
            assert_eq!(sorted.range(&r), scan(&values, &r));
        }
    }

    #[test]
    fn replay_applies_writes_in_commit_order_across_shards() {
        let r = Range { lo: 3, hi: 4 };
        let range_read = |count_only| {
            Step::Read(Read::Range {
                col: 0,
                range: r,
                count_only,
            })
        };
        let steps = vec![
            range_read(false),
            Step::Write {
                col: 0,
                writes: vec![(0, 10), (0, 3), (4, 4)],
            },
            range_read(false),
            range_read(true),
            Step::Read(Read::Conjunctive {
                predicates: vec![(0, r), (1, Range { lo: 1, hi: 2 })],
            }),
        ];
        let answers = replay(vec![vec![1, 2, 3, 4, 5], vec![5, 4, 2, 1, 1]], &steps);
        assert_eq!(answers[0], Answer::Range(RangeAnswer { count: 2, sum: 7 }));
        // Row 0 ends at 3 (last write wins), row 4 becomes 4.
        assert_eq!(answers[1], Answer::Range(RangeAnswer { count: 4, sum: 14 }));
        assert_eq!(answers[2], Answer::Range(RangeAnswer { count: 4, sum: 0 }));
        // Rows 2, 3 and 4 hold (3, 2), (4, 1) and (4, 1).
        assert_eq!(
            answers[3],
            Answer::Conjunctive(ConjAnswer {
                count: 3,
                rows_checksum: mix_row(2).wrapping_add(mix_row(3)).wrapping_add(mix_row(4)),
            })
        );
    }
}
