//! Test helpers shared by the integration tests of `asv-core`.

use std::sync::{Arc, Mutex};

use asv_vmem::{Backend, MapRequest, SimBackend, VmemError};

/// A [`SimBackend`] that counts the view calls made through it:
/// `[reserve_view, map_run, truncate_view]`.
#[derive(Clone)]
pub struct CountingBackend {
    inner: SimBackend,
    calls: Arc<Mutex<[usize; 3]>>,
}

impl CountingBackend {
    pub fn new() -> Self {
        Self {
            inner: SimBackend::new(),
            calls: Arc::default(),
        }
    }

    /// The calls counted so far: `[reserve_view, map_run, truncate_view]`.
    pub fn calls(&self) -> [usize; 3] {
        *self.calls.lock().unwrap()
    }

    fn count(&self, call: usize) {
        self.calls.lock().unwrap()[call] += 1;
    }
}

impl Backend for CountingBackend {
    type Store = <SimBackend as Backend>::Store;
    type View = <SimBackend as Backend>::View;

    fn name(&self) -> &'static str {
        "counting-sim"
    }

    fn create_store(&self, num_pages: usize) -> Result<Self::Store, VmemError> {
        self.inner.create_store(num_pages)
    }

    fn reserve_view(
        &self,
        store: &Self::Store,
        capacity_pages: usize,
    ) -> Result<Self::View, VmemError> {
        self.count(0);
        self.inner.reserve_view(store, capacity_pages)
    }

    fn map_run(
        &self,
        store: &Self::Store,
        view: &mut Self::View,
        req: MapRequest,
    ) -> Result<(), VmemError> {
        self.count(1);
        self.inner.map_run(store, view, req)
    }

    fn truncate_view(
        &self,
        view: &mut Self::View,
        new_mapped_pages: usize,
    ) -> Result<(), VmemError> {
        self.count(2);
        self.inner.truncate_view(view, new_mapped_pages)
    }
}
