//! Criterion bench for Figure 7: batched view alignment after updates
//! versus rebuilding all partial views from scratch.
//!
//! The full figure is regenerated by
//! `cargo run --release -p asv-bench --bin experiments -- fig7`.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use std::hint::black_box;

use asv_core::{align_views_after_updates, build_view_for_range, CreationOptions, ViewSet};
use asv_storage::{Column, Update};
use asv_util::ValueRange;
use asv_vmem::maps::kernel_mapping_tables;
use asv_vmem::{AnyBackend, Backend};
use asv_workloads::{Distribution, UpdateWorkload};

const PAGES: usize = 2048;
const NUM_VIEWS: usize = 5;

fn view_ranges() -> Vec<ValueRange> {
    let width = u64::MAX / 1024;
    (0..NUM_VIEWS as u64)
        .map(|i| {
            let start = i * (u64::MAX / NUM_VIEWS as u64);
            ValueRange::new(start, start + width - 1)
        })
        .collect()
}

fn build_views<B: Backend>(column: &Column<B>, ranges: &[ValueRange]) -> ViewSet<B> {
    let mut views = ViewSet::new(ranges.len());
    for r in ranges {
        let (buf, _) = build_view_for_range(column, r, &CreationOptions::ALL).unwrap();
        views.insert_unchecked(*r, buf);
    }
    views
}

fn bench_fig7(c: &mut Criterion) {
    let dist = Distribution::Uniform {
        max_value: u64::MAX,
    };
    let values = dist.generate_pages(PAGES, 42);
    let ranges = view_ranges();

    // Dispatch once on the platform's default backend so the measured
    // align/rebuild loops below run monomorphized over the concrete
    // backend type.
    match &AnyBackend::default_backend() {
        AnyBackend::Sim(backend) => bench_batches_with(c, backend, &values, &ranges),
        #[cfg(target_os = "linux")]
        AnyBackend::Mmap(backend) => bench_batches_with(c, backend, &values, &ranges),
        #[cfg(target_os = "linux")]
        AnyBackend::File(backend) => bench_batches_with(c, backend, &values, &ranges),
    }

    // Also benchmark the `/proc/self/maps` parse alone — the dominant cost
    // for small batches in the paper's design, which this codebase keeps
    // only as the kernel oracle — once per backend whose views live in
    // kernel virtual memory. This comparison intentionally runs through
    // AnyBackend: one enum dispatch per batch parse is noise.
    let mut group = c.benchmark_group("fig7_updates");
    group.sample_size(10);
    for name in AnyBackend::available_names() {
        let backend = AnyBackend::from_name(name).unwrap();
        let column = Column::from_values(backend, &values).unwrap();
        let views = build_views(&column, &ranges);
        let buffers: Vec<_> = views.partial_views().iter().map(|v| v.buffer()).collect();
        if kernel_mapping_tables(&buffers).unwrap().is_none() {
            continue;
        }
        group.bench_function(format!("mapping_table_parse_{name}"), |b| {
            b.iter(|| black_box(kernel_mapping_tables(&buffers).unwrap()))
        });
    }
    group.finish();
}

fn bench_batches_with<B: Backend>(
    c: &mut Criterion,
    backend: &B,
    values: &[u64],
    ranges: &[ValueRange],
) {
    let mut group = c.benchmark_group("fig7_updates");
    group.sample_size(10);

    for batch_size in [100usize, 1_000, 10_000] {
        // Batched alignment: setup applies the writes, the measured body
        // aligns the (still stale) views.
        group.bench_with_input(
            BenchmarkId::new("align_batch", batch_size),
            &batch_size,
            |b, &batch_size| {
                b.iter_batched(
                    || {
                        let mut column = Column::from_values(backend.clone(), values).unwrap();
                        let views = build_views(&column, ranges);
                        let writes = UpdateWorkload::new(7).uniform_writes(
                            batch_size,
                            column.num_rows(),
                            u64::MAX,
                        );
                        let updates: Vec<Update> = column.write_batch(&writes);
                        (column, views, updates)
                    },
                    |(column, mut views, updates)| {
                        let stats =
                            align_views_after_updates(&column, &mut views, &updates).unwrap();
                        black_box(stats);
                    },
                    BatchSize::LargeInput,
                )
            },
        );
        // Rebuild-from-scratch comparison point.
        group.bench_with_input(
            BenchmarkId::new("rebuild_all_views", batch_size),
            &batch_size,
            |b, &batch_size| {
                b.iter_batched(
                    || {
                        let mut column = Column::from_values(backend.clone(), values).unwrap();
                        let writes = UpdateWorkload::new(7).uniform_writes(
                            batch_size,
                            column.num_rows(),
                            u64::MAX,
                        );
                        column.write_batch(&writes);
                        column
                    },
                    |column| {
                        let views = build_views(&column, ranges);
                        black_box(views.num_partial_views());
                    },
                    BatchSize::LargeInput,
                )
            },
        );
    }

    group.finish();
}

criterion_group!(benches, bench_fig7);
criterion_main!(benches);
