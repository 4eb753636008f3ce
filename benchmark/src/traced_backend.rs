//! `TracedBackend<B>`: the public `Backend` trait implemented by
//! delegation, with a span and counts around every rewiring call.
//!
//! All of `asv_core` is generic over its backend, so wrapping the real
//! `mmap`/`file` backend puts the virtual-memory events of a real workload
//! into the trace without touching the library. Stores and views are the
//! inner backend's own types: the wrapper adds no indirection to page
//! access, only to the (syscall-sized) rewiring calls.

use crate::sut::{Backend, MapRequest, MappingTable, VmemError};
use crate::trace;

#[derive(Clone, Debug)]
pub struct TracedBackend<B: Backend> {
    inner: B,
}

impl<B: Backend> TracedBackend<B> {
    pub fn new(inner: B) -> Self {
        Self { inner }
    }
}

fn note_error<T>(result: &Result<T, VmemError>) {
    if result.is_err() {
        trace::count("vmem.errors", 1);
    }
}

impl<B: Backend> Backend for TracedBackend<B> {
    type Store = B::Store;
    type View = B::View;

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn create_store(&self, num_pages: usize) -> Result<Self::Store, VmemError> {
        let _span = trace::span("vmem.create_store");
        let out = self.inner.create_store(num_pages);
        note_error(&out);
        out
    }

    fn reserve_view(
        &self,
        store: &Self::Store,
        capacity_pages: usize,
    ) -> Result<Self::View, VmemError> {
        let _span = trace::span("vmem.reserve_view");
        let out = self.inner.reserve_view(store, capacity_pages);
        note_error(&out);
        out
    }

    fn map_run(
        &self,
        store: &Self::Store,
        view: &mut Self::View,
        req: MapRequest,
    ) -> Result<(), VmemError> {
        let _span = trace::span("vmem.map_run");
        trace::count("vmem.pages_mapped", req.len as u64);
        let out = self.inner.map_run(store, view, req);
        note_error(&out);
        out
    }

    fn truncate_view(
        &self,
        view: &mut Self::View,
        new_mapped_pages: usize,
    ) -> Result<(), VmemError> {
        let _span = trace::span("vmem.truncate_view");
        let out = self.inner.truncate_view(view, new_mapped_pages);
        note_error(&out);
        out
    }

    fn mapping_table(
        &self,
        store: &Self::Store,
        view: &Self::View,
    ) -> Result<MappingTable, VmemError> {
        let _span = trace::span("vmem.maps_parse");
        let out = self.inner.mapping_table(store, view);
        note_error(&out);
        out
    }

    fn mapping_tables(
        &self,
        store: &Self::Store,
        views: &[&Self::View],
    ) -> Result<Vec<MappingTable>, VmemError> {
        let _span = trace::span("vmem.maps_parse");
        let out = self.inner.mapping_tables(store, views);
        note_error(&out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{Distribution, Range};
    use crate::sut::{self, AnyBackend, ColumnConfig};
    use asv_vmem::ViewBuffer;

    /// Same workload on the bare and the traced backend: every answer and
    /// the final `mapping_table` of every partial view must agree.
    fn check_equivalence(bare: AnyBackend, traced: TracedBackend<AnyBackend>) {
        let values = Distribution::Sine { cycles: 4 }.generate(64, 11);
        let config = ColumnConfig {
            max_views: 8,
            adaptive_creation: true,
        };
        let mut a = sut::column_from_values(bare.clone(), &values, config).unwrap();
        let mut b = sut::column_from_values(traced.clone(), &values, config).unwrap();
        let queries = [
            Range {
                lo: 1_000_000,
                hi: 9_000_000,
            },
            Range {
                lo: 40_000_000,
                hi: 45_000_000,
            },
            Range {
                lo: 2_000_000,
                hi: 3_000_000,
            },
            Range {
                lo: 90_000_000,
                hi: 99_000_000,
            },
        ];
        for q in &queries {
            assert_eq!(
                sut::column_query(&mut a, q, false).unwrap(),
                sut::column_query(&mut b, q, false).unwrap()
            );
        }
        let writes: Vec<(usize, u64)> = (0..200).map(|i| (i * 151, 2_500_000 + i as u64)).collect();
        let ua = sut::column_write_batch(&mut a, &writes);
        let ub = sut::column_write_batch(&mut b, &writes);
        sut::column_align(&mut a, &ua).unwrap();
        sut::column_align(&mut b, &ub).unwrap();
        for q in &queries {
            assert_eq!(
                sut::column_query(&mut a, q, true).unwrap(),
                sut::column_query(&mut b, q, true).unwrap()
            );
        }
        let (va, vb) = (a.views().partial_views(), b.views().partial_views());
        assert_eq!(va.len(), vb.len());
        assert!(!va.is_empty());
        for (pa, pb) in va.iter().zip(vb) {
            assert_eq!(pa.buffer().mapped_pages(), pb.buffer().mapped_pages());
            let ta = bare.mapping_table(a.column().store(), pa.buffer()).unwrap();
            let tb = traced
                .mapping_table(b.column().store(), pb.buffer())
                .unwrap();
            let mut ea: Vec<_> = ta.iter().collect();
            let mut eb: Vec<_> = tb.iter().collect();
            ea.sort_unstable();
            eb.sort_unstable();
            assert_eq!(ea, eb);
        }
    }

    #[test]
    fn traced_backend_matches_bare_on_mmap() {
        let bare = AnyBackend::mmap();
        check_equivalence(bare.clone(), TracedBackend::new(bare));
    }

    #[test]
    fn traced_backend_matches_bare_on_file() {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out/test-file-backend");
        let _ = std::fs::remove_dir_all(&dir);
        let bare = AnyBackend::file_in(dir.join("bare"));
        let traced = TracedBackend::new(AnyBackend::file_in(dir.join("traced")));
        check_equivalence(bare, traced);
        let _ = std::fs::remove_dir_all(dir);
    }
}
