//! Table 1 — accumulated response time over all queries of a sequence.
//!
//! The table aggregates the five adaptive experiments (Figure 4a/4b/4c and
//! Figure 5a/5b) into two rows: the accumulated response time when every
//! query is answered with a full scan, and when the adaptive view selection
//! is used.

use asv_vmem::Backend;

use crate::fig4;
use crate::fig5;
use crate::report::Table;
use crate::scale::Scale;

/// One column of Table 1.
#[derive(Clone, Debug)]
pub struct Table1Entry {
    /// Which experiment the column corresponds to (e.g. "Fig 4a (sine)").
    pub label: String,
    /// Accumulated full-scan time in seconds.
    pub fullscan_s: f64,
    /// Accumulated adaptive time in seconds.
    pub adaptive_s: f64,
}

impl Table1Entry {
    /// Speedup of adaptive view selection over full scans.
    pub fn speedup(&self) -> f64 {
        self.fullscan_s / self.adaptive_s.max(1e-9)
    }
}

/// Runs all five configurations on `backend` and returns one entry per
/// column of Table 1.
pub fn run<B: Backend>(backend: &B, scale: &Scale, seed: u64) -> Vec<Table1Entry> {
    let fig4_results = fig4::run_all(backend, scale, seed);
    let fig5_results = fig5::run_all(backend, scale, seed);
    let mut entries = Vec::new();
    let fig4_labels = ["Fig 4a (sine)", "Fig 4b (linear)", "Fig 4c (sparse)"];
    for (r, label) in fig4_results.iter().zip(fig4_labels) {
        entries.push(Table1Entry {
            label: label.to_string(),
            fullscan_s: r.fullscan_total_s,
            adaptive_s: r.adaptive_total_s,
        });
    }
    let fig5_labels = ["Fig 5a (sine 1%)", "Fig 5b (sine 10%)"];
    for (r, label) in fig5_results.iter().zip(fig5_labels) {
        entries.push(Table1Entry {
            label: label.to_string(),
            fullscan_s: r.fullscan_total_s,
            adaptive_s: r.adaptive_total_s,
        });
    }
    entries
}

/// Renders the entries in the paper's layout (modes as rows, experiments as
/// columns).
pub fn to_table(entries: &[Table1Entry]) -> Table {
    let mut header: Vec<String> = vec!["mode".to_string()];
    header.extend(entries.iter().map(|e| e.label.clone()));
    let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
    let mut table = Table::new(
        "Table 1: accumulated response time over the query sequence [s]",
        &header_refs,
    );
    let mut full_row = vec!["full scans only".to_string()];
    full_row.extend(entries.iter().map(|e| format!("{:.2}", e.fullscan_s)));
    table.add_row(full_row);
    let mut adaptive_row = vec!["adaptive view selection".to_string()];
    adaptive_row.extend(entries.iter().map(|e| format!("{:.2}", e.adaptive_s)));
    table.add_row(adaptive_row);
    let mut speedup_row = vec!["speedup".to_string()];
    speedup_row.extend(entries.iter().map(|e| format!("{:.2}x", e.speedup())));
    table.add_row(speedup_row);
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_run_produces_all_five_columns() {
        let entries = run(&asv_vmem::SimBackend::new(), &Scale::tiny(), 13);
        assert_eq!(entries.len(), 5);
        for e in &entries {
            assert!(e.fullscan_s > 0.0);
            assert!(e.adaptive_s > 0.0);
            assert!(e.speedup() > 0.0);
        }
        let table = to_table(&entries);
        assert_eq!(table.num_rows(), 3);
    }
}
