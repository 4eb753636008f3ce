//! Virtual views versus explicit indexing — a miniature of the Figure 3
//! micro-benchmark: the same uniform column is indexed once with each
//! explicit variant (zone map, bitmap, vector of page ids), once as a
//! contiguous physical copy, and once as a virtual partial view; all five
//! answer the same query after a batch of random updates.
//!
//! Run with:
//! ```text
//! cargo run --release --example adaptive_vs_explicit [sim|mmap]
//! ```

use adaptive_storage_views::baselines::{
    BitmapIndex, PageIdVectorIndex, PhysicalScanBaseline, RangeIndex, VirtualViewIndex,
    ZoneMapIndex,
};
use adaptive_storage_views::core::CreationOptions;
use adaptive_storage_views::prelude::*;
use adaptive_storage_views::util::Timer;
use adaptive_storage_views::workloads::DEFAULT_MAX_VALUE;

fn measure(label: &str, index: &mut dyn RangeIndex, writes: &[(usize, u64)], query: &ValueRange) {
    index.apply_writes(writes);
    // Warm-up + correctness pass.
    let reference = index.query(query);
    let timer = Timer::start();
    let runs = 5;
    for _ in 0..runs {
        let answer = index.query(query);
        assert_eq!(answer.count, reference.count);
    }
    let ms = timer.elapsed_ms() / runs as f64;
    println!(
        "  {label:<24} {:>9.3} ms   ({} qualifying rows on {} indexed pages)",
        ms, reference.count, reference.pages_scanned
    );
}

fn main() {
    let backend = AnyBackend::from_cli_arg().unwrap_or_else(|e| panic!("{e}"));
    let pages = 8_192;
    let dist = Distribution::Uniform {
        max_value: DEFAULT_MAX_VALUE,
    };
    let values = dist.generate_pages(pages, 3);
    let writes = UpdateWorkload::new(5).uniform_writes(10_000, values.len(), DEFAULT_MAX_VALUE);

    // Index all pages containing values in [0, k]; query the lower half.
    let k = 20_000;
    let index_range = ValueRange::new(0, k);
    let query = ValueRange::new(0, k / 2);
    println!(
        "uniform column of {pages} pages; index range [0, {k}], query [0, {}]\n",
        k / 2
    );

    let mut zonemap = ZoneMapIndex::build(&values, index_range);
    measure("explicit zone map", &mut zonemap, &writes, &query);

    let mut bitmap = BitmapIndex::build(backend.clone(), &values, index_range).expect("bitmap");
    measure("explicit bitmap", &mut bitmap, &writes, &query);

    let mut pageids =
        PageIdVectorIndex::build(backend.clone(), &values, index_range).expect("page ids");
    measure("explicit page-id vector", &mut pageids, &writes, &query);

    let mut physical = PhysicalScanBaseline::build(&values, index_range);
    measure("physical scan (optimum)", &mut physical, &writes, &query);

    let mut virtual_view =
        VirtualViewIndex::build(backend.clone(), &values, index_range, &CreationOptions::ALL)
            .expect("virtual view");
    measure(
        "virtual view (this paper)",
        &mut virtual_view,
        &writes,
        &query,
    );

    println!("\nThe virtual view scans only the qualifying pages through one");
    println!("contiguous virtual memory range — no per-page indirection in");
    println!("user space — which is why it tracks the physical-scan optimum.");
}
