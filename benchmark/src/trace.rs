//! Span and count recording for the traced run.
//!
//! Spans are recorded from the harness's own files, around the calls into
//! each layer; nothing inside the library is instrumented. Every thread
//! appends to its own buffer with no synchronisation; buffers are merged
//! when the traced repetition ends and written out as JSON lines.
//!
//! With tracing disabled (every end-to-end measurement) [`span`] costs one
//! relaxed atomic load and takes no timestamp.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_THREAD: AtomicU32 = AtomicU32::new(1);
static ORIGIN: OnceLock<Instant> = OnceLock::new();
static SINK: Mutex<Vec<ThreadBuf>> = Mutex::new(Vec::new());

/// One recorded span. `id` and `parent` are unique across threads;
/// `parent == 0` marks a root. Spans of one op share `op_id`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub id: u64,
    pub parent: u64,
    pub op_id: u64,
    pub thread: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

struct ThreadBuf {
    thread: u32,
    spans: Vec<Span>,
    /// Indices into `spans` of the currently open spans, outermost first.
    open: Vec<usize>,
    counts: Vec<(&'static str, u64)>,
    op_id: u64,
}

impl ThreadBuf {
    fn new() -> Self {
        Self {
            thread: NEXT_THREAD.fetch_add(1, Ordering::Relaxed),
            spans: Vec::new(),
            open: Vec::new(),
            counts: Vec::new(),
            op_id: 0,
        }
    }

    fn flush(&mut self) {
        if self.spans.is_empty() && self.counts.is_empty() {
            return;
        }
        let full = std::mem::replace(self, ThreadBuf::new());
        // The thread id stays with the thread across flushes.
        self.thread = full.thread;
        if let Ok(mut sink) = SINK.lock() {
            sink.push(full);
        }
    }
}

/// The thread-local holder. Threads the library spawns itself cannot call
/// [`flush_thread`]; their buffers reach the sink when the thread exits.
struct Local(RefCell<ThreadBuf>);

impl Drop for Local {
    fn drop(&mut self) {
        self.0.borrow_mut().flush();
    }
}

thread_local! {
    static BUF: Local = Local(RefCell::new(ThreadBuf::new()));
}

fn now_ns() -> u64 {
    ORIGIN.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns recording on or off. Callers switch it between repetitions, never
/// while an op is in flight.
pub fn set_enabled(on: bool) {
    ORIGIN.get_or_init(Instant::now);
    ENABLED.store(on, Ordering::SeqCst);
}

/// Closes its span when dropped.
#[must_use]
pub struct SpanGuard {
    index: Option<usize>,
}

fn open(name: &'static str, root_op: Option<u64>) -> SpanGuard {
    if !enabled() {
        return SpanGuard { index: None };
    }
    BUF.with(|buf| {
        let mut buf = buf.0.borrow_mut();
        if let Some(op_id) = root_op {
            buf.op_id = op_id;
        }
        let index = buf.spans.len();
        let id_of = |thread: u32, index: usize| (thread as u64) << 32 | (index as u64 + 1);
        let parent = buf.open.last().map_or(0, |&p| id_of(buf.thread, p));
        let span = Span {
            name,
            start_ns: now_ns(),
            end_ns: 0,
            id: id_of(buf.thread, index),
            parent,
            op_id: buf.op_id,
            thread: buf.thread,
        };
        buf.spans.push(span);
        buf.open.push(index);
        SpanGuard { index: Some(index) }
    })
}

/// Opens a child span of whatever span is open on this thread.
pub fn span(name: &'static str) -> SpanGuard {
    open(name, None)
}

/// Opens the root span of op `op_id`; spans opened on this thread until
/// the next root carry the same id.
pub fn root(name: &'static str, op_id: u64) -> SpanGuard {
    open(name, Some(op_id))
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(index) = self.index else { return };
        let end = now_ns();
        BUF.with(|buf| {
            let mut buf = buf.0.borrow_mut();
            // A flush between open and close would have moved the span
            // away; the harness never flushes mid-op.
            if let Some(span) = buf.spans.get_mut(index) {
                span.end_ns = end;
            }
            if buf.open.last() == Some(&index) {
                buf.open.pop();
            }
        });
    }
}

/// Adds `n` to the named count of this thread.
pub fn count(name: &'static str, n: u64) {
    if !enabled() {
        return;
    }
    BUF.with(|buf| {
        let mut buf = buf.0.borrow_mut();
        match buf.counts.iter_mut().find(|(k, _)| *k == name) {
            Some((_, v)) => *v += n,
            None => buf.counts.push((name, n)),
        }
    });
}

/// Hands this thread's buffer to the sink. Harness threads call it before
/// they end (thread-local destructors may run after a scope has joined).
pub fn flush_thread() {
    BUF.with(|buf| buf.0.borrow_mut().flush());
}

/// Everything recorded since the last call, merged across threads.
pub fn collect() -> Trace {
    flush_thread();
    let bufs = std::mem::take(&mut *SINK.lock().expect("trace sink poisoned"));
    let mut trace = Trace::default();
    for mut buf in bufs {
        trace.spans.append(&mut buf.spans);
        for &(name, n) in &buf.counts {
            *trace.counts.entry(name).or_insert(0) += n;
        }
    }
    trace.spans.sort_by_key(|s| (s.start_ns, s.id));
    trace
}

/// A merged trace with the aggregations the per-layer metrics need.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    pub spans: Vec<Span>,
    pub counts: BTreeMap<&'static str, u64>,
}

impl Trace {
    pub fn count(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }

    fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    pub fn calls(&self, name: &str) -> u64 {
        self.named(name).count() as u64
    }

    pub fn busy_ms(&self, name: &str) -> f64 {
        self.named(name).map(Span::duration_ns).sum::<u64>() as f64 / 1e6
    }

    /// Durations of every span called `name`, in milliseconds.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.named(name)
            .map(|s| s.duration_ns() as f64 / 1e6)
            .collect()
    }

    /// Self time per span name, in milliseconds.
    pub fn self_ms_by_name(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for (span, self_ns) in self.spans.iter().zip(self_times_ns(&self.spans)) {
            *out.entry(span.name).or_insert(0.0) += self_ns as f64 / 1e6;
        }
        out
    }

    /// Self time per layer (the part of a span name before the first dot;
    /// root `op.*` spans are the harness's own layer, `bench`).
    pub fn self_ms_by_layer(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for (name, ms) in self.self_ms_by_name() {
            *out.entry(layer_of(name)).or_insert(0.0) += ms;
        }
        out
    }

    /// Sum of the root spans of `thread`, in milliseconds — compared with
    /// that thread's timed wall by the conservation check.
    pub fn root_ms(&self, thread: u32) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent == 0 && s.thread == thread)
            .map(Span::duration_ns)
            .sum::<u64>() as f64
            / 1e6
    }

    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"id\":{},\"parent\":{},\"op_id\":{},\"thread\":{}}}",
                s.name, s.start_ns, s.end_ns, s.id, s.parent, s.op_id, s.thread
            )?;
        }
        for (name, value) in &self.counts {
            writeln!(out, "{{\"count\":\"{name}\",\"value\":{value}}}")?;
        }
        out.flush()
    }
}

/// The id of the calling thread in recorded spans.
pub fn current_thread() -> u32 {
    BUF.with(|buf| buf.0.borrow().thread)
}

pub fn layer_of(span_name: &'static str) -> &'static str {
    match span_name.split('.').next() {
        Some("op") | None => "bench",
        Some(layer) => layer,
    }
}

/// Self time of every span: its duration minus the part of its interval
/// covered by the union of its child spans. Children are clipped to the
/// parent and may overlap each other (children on other threads do).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    spans
        .iter()
        .map(|s| {
            let Some(kids) = children.get_mut(&s.id) else {
                return s.duration_ns();
            };
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(cursor);
                let end = end.min(s.end_ns);
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn made(id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: "t.x",
            start_ns,
            end_ns,
            id,
            parent,
            op_id: 1,
            thread: 1,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        // root 0..100; child 10..60 with grandchild 20..30; child 70..90.
        let spans = vec![
            made(1, 0, 0, 100),
            made(2, 1, 10, 60),
            made(3, 2, 20, 30),
            made(4, 1, 70, 90),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 40, 10, 20]);
        // Self times of a tree sum to the root's duration.
        assert_eq!(self_times_ns(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn self_time_takes_the_union_of_overlapping_children() {
        // Children 10..50 and 30..70 overlap; a third 40..45 is inside both;
        // one pokes out of the parent (90..120) and is clipped.
        let spans = vec![
            made(1, 0, 0, 100),
            made(2, 1, 10, 50),
            made(3, 1, 30, 70),
            made(4, 1, 40, 45),
            made(5, 1, 90, 120),
        ];
        // Covered: 10..70 and 90..100 = 70.
        assert_eq!(self_times_ns(&spans)[0], 30);
    }

    #[test]
    fn childless_span_is_all_self_time() {
        assert_eq!(self_times_ns(&[made(1, 0, 5, 25)]), vec![20]);
    }

    #[test]
    fn layers_come_from_the_name_prefix() {
        assert_eq!(layer_of("vmem.map_run"), "vmem");
        assert_eq!(layer_of("core.query"), "core");
        assert_eq!(layer_of("op.read"), "bench");
    }

    #[test]
    fn recording_nests_and_shares_the_op_id() {
        // Runs on its own thread: recording state is thread-local and the
        // enabled flag is only ever switched on here within the test binary
        // by tests that tolerate it.
        std::thread::spawn(|| {
            set_enabled(true);
            {
                let _root = root("op.read", 42);
                let _child = span("core.query");
                count("core.pages", 3);
                count("core.pages", 4);
            }
            let me = current_thread();
            let trace = collect();
            let mine: Vec<&Span> = trace.spans.iter().filter(|s| s.thread == me).collect();
            assert_eq!(mine.len(), 2);
            let (root_span, child) = (mine[0], mine[1]);
            assert_eq!(root_span.parent, 0);
            assert_eq!(child.parent, root_span.id);
            assert_eq!(child.op_id, 42);
            assert!(root_span.end_ns >= child.end_ns && child.end_ns >= child.start_ns);
            assert_eq!(trace.count("core.pages"), 7);
            // A collected buffer is consumed: nothing carries into the next trace.
            assert_eq!(collect().count("core.pages"), 0);
        })
        .join()
        .unwrap();
    }
}
