//! Partial virtual views.
//!
//! A partial view `v[l,u]` maps exactly the physical pages of its column
//! that contain at least one value in `[l, u]`. Besides the mapped view
//! buffer, the paper keeps only minimal metadata per view: "we only
//! materialize the covered value range `[l_i, u_i]` and its size in number
//! of pages" (§2).

use asv_util::ValueRange;
use asv_vmem::{Backend, ViewBuffer};

/// A partial virtual view over one column.
pub struct PartialView<B: Backend> {
    id: u64,
    range: ValueRange,
    buffer: B::View,
}

impl<B: Backend> PartialView<B> {
    /// Wraps a mapped view buffer with its covered value range.
    pub fn new(id: u64, range: ValueRange, buffer: B::View) -> Self {
        Self { id, range, buffer }
    }

    /// A unique (per column) identifier, assigned by the [`crate::ViewSet`].
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The value range this view covers.
    pub fn range(&self) -> &ValueRange {
        &self.range
    }

    /// Number of physical pages the view indexes.
    pub fn num_pages(&self) -> usize {
        self.buffer.mapped_pages()
    }

    /// The underlying view buffer (for scanning).
    pub fn buffer(&self) -> &B::View {
        &self.buffer
    }

    /// Mutable access to the underlying view buffer (for update alignment).
    pub fn buffer_mut(&mut self) -> &mut B::View {
        &mut self.buffer
    }

    /// Returns `true` if this view can answer a query over `query_range`
    /// on its own (it fully covers the range).
    pub fn covers(&self, query_range: &ValueRange) -> bool {
        self.range.covers(query_range)
    }
}

impl<B: Backend> std::fmt::Debug for PartialView<B> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PartialView")
            .field("id", &self.id)
            .field("range", &self.range)
            .field("num_pages", &self.num_pages())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asv_vmem::{MapRequest, SimBackend};

    fn make_view(range: ValueRange, pages: &[usize]) -> PartialView<SimBackend> {
        let backend = SimBackend::new();
        let store = backend.create_store(64).unwrap();
        let mut buf = backend.reserve_view(&store, 64).unwrap();
        for (slot, &p) in pages.iter().enumerate() {
            backend
                .map_run(&store, &mut buf, MapRequest::single(slot, p))
                .unwrap();
        }
        PartialView::new(1, range, buf)
    }

    #[test]
    fn metadata_accessors() {
        let v = make_view(ValueRange::new(10, 50), &[3, 9, 17]);
        assert_eq!(v.id(), 1);
        assert_eq!(v.range(), &ValueRange::new(10, 50));
        assert_eq!(v.num_pages(), 3);
        assert_eq!(v.buffer().mapped_pages(), 3);
        assert!(format!("{v:?}").contains("num_pages"));
    }

    #[test]
    fn coverage_relations() {
        let v = make_view(ValueRange::new(10, 50), &[1]);
        assert!(v.covers(&ValueRange::new(20, 30)));
        assert!(v.covers(&ValueRange::new(10, 50)));
        assert!(!v.covers(&ValueRange::new(5, 30)));
    }
}
