//! # tels-trace — observability substrate for TELS-RS
//!
//! Hierarchical, thread-aware spans with monotonic timing, structured
//! instant events (including the per-gate *synthesis provenance* journal),
//! and exporters: Chrome `trace_event` JSON (loadable in
//! `chrome://tracing` / Perfetto) and a plain-text profile tree. Counts
//! and timings per run live in the program's own statistics, and live
//! process-wide counters in `tels-metrics`; a trace records when things
//! happened. No external dependencies, matching the in-tree PRNG and
//! criterion-shim precedent.
//!
//! ## Zero overhead when disabled
//!
//! Tracing is off by default. Every recording entry point first checks
//! [`enabled`] — a single relaxed atomic load — and returns immediately
//! without allocating, reading the clock, or touching a lock. Instrumented
//! code therefore behaves identically (outputs, statistics, control flow)
//! whether or not a trace is being collected; the only difference is the
//! journal on the side.
//!
//! ## Collection model
//!
//! Each thread appends events to its own buffer (registered globally on
//! first use), so workers never contend on a shared log and the per-thread
//! event order is exact. [`drain`] gathers all buffers into a [`Trace`],
//! sorted by timestamp with per-thread order preserved. Timestamps are
//! nanoseconds of a process-wide monotonic clock ([`std::time::Instant`]).
//!
//! ## Example
//!
//! ```
//! tels_trace::enable();
//! {
//!     let mut span = tels_trace::span("demo", "outer");
//!     span.arg("answer", 42u64);
//!     let _inner = tels_trace::span("demo", "inner");
//! }
//! tels_trace::provenance("t0", "direct-ilp", Some("n3"), 3);
//! tels_trace::disable();
//! let trace = tels_trace::drain();
//! assert_eq!(trace.events.len(), 5); // 2 begins + 2 ends + 1 provenance
//! let json = tels_trace::export::chrome_trace(&trace);
//! assert!(json.contains("\"ph\": \"B\""));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod export;
pub mod json;

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Category name used by the per-gate synthesis provenance journal.
pub const PROVENANCE_CAT: &str = "provenance";

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_TID: AtomicU64 = AtomicU64::new(1);

/// The process-wide monotonic epoch all event timestamps are relative to.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the trace epoch (monotonic).
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// Whether tracing is currently collecting events.
///
/// This is the fast path every instrumentation site checks first; a
/// relaxed atomic load, free for all practical purposes.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Starts collecting events (idempotent). Pins the monotonic epoch.
pub fn enable() {
    epoch();
    ENABLED.store(true, Ordering::SeqCst);
}

/// Stops collecting events (idempotent). Spans already open still record
/// their end, so a drained trace stays well-nested.
pub fn disable() {
    ENABLED.store(false, Ordering::SeqCst);
}

/// A typed event argument (rendered into Chrome-trace `args`).
#[derive(Debug, Clone, PartialEq)]
pub enum ArgValue {
    /// Signed integer.
    Int(i64),
    /// Unsigned integer.
    UInt(u64),
    /// Floating point.
    Float(f64),
    /// String.
    Str(String),
}

impl From<i64> for ArgValue {
    fn from(v: i64) -> ArgValue {
        ArgValue::Int(v)
    }
}

impl From<u64> for ArgValue {
    fn from(v: u64) -> ArgValue {
        ArgValue::UInt(v)
    }
}

impl From<usize> for ArgValue {
    fn from(v: usize) -> ArgValue {
        ArgValue::UInt(v as u64)
    }
}

impl From<f64> for ArgValue {
    fn from(v: f64) -> ArgValue {
        ArgValue::Float(v)
    }
}

impl From<&str> for ArgValue {
    fn from(v: &str) -> ArgValue {
        ArgValue::Str(v.to_string())
    }
}

impl From<String> for ArgValue {
    fn from(v: String) -> ArgValue {
        ArgValue::Str(v)
    }
}

/// Named event arguments.
pub type Args = Vec<(&'static str, ArgValue)>;

/// What an [`Event`] records.
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// A span opened (`ph: "B"`).
    Begin {
        /// Category (by convention, the crate: `logic`, `core`, `ilp`, ...).
        cat: &'static str,
        /// Span name.
        name: String,
    },
    /// A span closed (`ph: "E"`); args gathered over the span's lifetime.
    End {
        /// Category (same as the matching [`EventKind::Begin`]).
        cat: &'static str,
        /// Span name (same as the matching [`EventKind::Begin`]).
        name: String,
        /// Arguments recorded via [`Span::arg`].
        args: Args,
    },
    /// A point-in-time event (`ph: "i"`).
    Instant {
        /// Category.
        cat: &'static str,
        /// Event name.
        name: String,
        /// Arguments.
        args: Args,
    },
}

/// One recorded trace event.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Nanoseconds since the trace epoch.
    pub ts: u64,
    /// Thread id (small sequential integers, 1-based).
    pub tid: u64,
    /// Payload.
    pub kind: EventKind,
}

/// Per-thread event buffer, registered globally so [`drain`] can reach it
/// after the owning thread exits (scoped scheduler workers, for example).
#[derive(Debug)]
struct ThreadBuffer {
    tid: u64,
    label: Mutex<Option<String>>,
    events: Mutex<Vec<Event>>,
}

fn registry() -> &'static Mutex<Vec<Arc<ThreadBuffer>>> {
    static REGISTRY: OnceLock<Mutex<Vec<Arc<ThreadBuffer>>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

thread_local! {
    static LOCAL: std::cell::RefCell<Option<Arc<ThreadBuffer>>> =
        const { std::cell::RefCell::new(None) };
}

/// This thread's buffer, registering it on first use.
fn local_buffer() -> Arc<ThreadBuffer> {
    LOCAL.with(|slot| {
        let mut slot = slot.borrow_mut();
        if let Some(buf) = slot.as_ref() {
            return Arc::clone(buf);
        }
        let buf = Arc::new(ThreadBuffer {
            tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
            label: Mutex::new(None),
            events: Mutex::new(Vec::new()),
        });
        registry()
            .lock()
            .expect("trace registry poisoned")
            .push(Arc::clone(&buf));
        *slot = Some(Arc::clone(&buf));
        buf
    })
}

/// Appends an event to the current thread's buffer, unconditionally (the
/// caller has already passed the [`enabled`] gate).
fn push(kind: EventKind) {
    let ts = now_ns();
    let buf = local_buffer();
    let tid = buf.tid;
    buf.events
        .lock()
        .expect("trace buffer poisoned")
        .push(Event { ts, tid, kind });
}

/// Labels the current thread in exported traces (e.g. `worker-3`). No-op
/// while tracing is disabled.
pub fn set_thread_label(label: impl Into<String>) {
    if !enabled() {
        return;
    }
    let buf = local_buffer();
    *buf.label.lock().expect("trace label poisoned") = Some(label.into());
}

thread_local! {
    /// The job id spans opened on this thread are attributed to.
    static CURRENT_JOB: std::cell::Cell<Option<u64>> = const { std::cell::Cell::new(None) };
}

/// Attributes subsequent spans opened on this thread to a job: every span
/// gains a `job` argument until the label is cleared with `set_job(None)`.
///
/// Daemon-style callers (`tels serve`) set this around each job on the
/// connection thread that runs it, so a drained profile of a busy daemon
/// can split its time per job. Cheap enough to call unconditionally, but pairs naturally with
/// an [`enabled`] check since the label only matters while collecting.
pub fn set_job(job: Option<u64>) {
    CURRENT_JOB.with(|j| j.set(job));
}

/// The job id set via [`set_job`] on this thread, if any.
pub fn current_job() -> Option<u64> {
    CURRENT_JOB.with(std::cell::Cell::get)
}

/// An RAII span guard: records a begin event at creation and the matching
/// end event (carrying any [`Span::arg`] annotations) when dropped.
///
/// When tracing is disabled, [`span`] returns an inert guard: no
/// allocation, no clock read, no lock.
#[must_use = "a span records its duration when dropped"]
#[derive(Debug)]
pub struct Span {
    active: Option<ActiveSpan>,
}

#[derive(Debug)]
struct ActiveSpan {
    cat: &'static str,
    name: String,
    args: Args,
}

impl Span {
    /// Attaches an argument, recorded on the span's end event.
    pub fn arg(&mut self, key: &'static str, value: impl Into<ArgValue>) {
        if let Some(a) = self.active.as_mut() {
            a.args.push((key, value.into()));
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(a) = self.active.take() {
            // Recorded even if tracing was disabled mid-span, so drained
            // traces never contain an unmatched begin.
            push(EventKind::End {
                cat: a.cat,
                name: a.name,
                args: a.args,
            });
        }
    }
}

/// Opens a span. The hot path: when tracing is disabled this is one atomic
/// load and a `None` return.
#[inline]
pub fn span(cat: &'static str, name: impl Into<String>) -> Span {
    if !enabled() {
        return Span { active: None };
    }
    let name = name.into();
    push(EventKind::Begin {
        cat,
        name: name.clone(),
    });
    // Spans opened while a job label is set (see [`set_job`]) carry the
    // job id, so daemon profiles attribute shared-pool work to jobs.
    let args = match current_job() {
        Some(job) => vec![("job", ArgValue::UInt(job))],
        None => Vec::new(),
    };
    Span {
        active: Some(ActiveSpan { cat, name, args }),
    }
}

/// Records a point-in-time event with arguments.
#[inline]
pub fn instant(cat: &'static str, name: impl Into<String>, args: Args) {
    if !enabled() {
        return;
    }
    push(EventKind::Instant {
        cat,
        name: name.into(),
        args,
    });
}

/// Records one synthesis-provenance event: the threshold gate `gate` was
/// emitted by `path` (e.g. `direct-ilp`, `cache-hit`, `binate-split`),
/// while synthesizing the source network node `node`, under fanin
/// restriction `psi`. Exactly one such event is journaled per emitted gate.
#[inline]
pub fn provenance(gate: &str, path: &'static str, node: Option<&str>, psi: usize) {
    if !enabled() {
        return;
    }
    push(EventKind::Instant {
        cat: PROVENANCE_CAT,
        name: gate.to_string(),
        args: vec![
            ("path", ArgValue::Str(path.to_string())),
            ("node", ArgValue::Str(node.unwrap_or("").to_string())),
            ("psi", ArgValue::UInt(psi as u64)),
        ],
    });
}

/// A drained trace: all events collected since the last [`drain`], plus
/// thread labels, ready for the [`export`] module.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// Events sorted by timestamp; per-thread relative order is exact.
    pub events: Vec<Event>,
    /// `(tid, label)` pairs for threads that called [`set_thread_label`].
    pub thread_labels: Vec<(u64, String)>,
}

impl Trace {
    /// Events of the provenance journal (category [`PROVENANCE_CAT`]).
    pub fn provenance_events(&self) -> impl Iterator<Item = &Event> + '_ {
        self.events
            .iter()
            .filter(|e| matches!(&e.kind, EventKind::Instant { cat, .. } if *cat == PROVENANCE_CAT))
    }
}

/// Collects every thread's buffered events into one [`Trace`] and clears
/// the buffers. Buffers of threads that have exited are reaped.
pub fn drain() -> Trace {
    let mut registry = registry().lock().expect("trace registry poisoned");
    let mut events = Vec::new();
    let mut thread_labels = Vec::new();
    for buf in registry.iter() {
        let mut local = buf.events.lock().expect("trace buffer poisoned");
        events.append(&mut local);
        drop(local);
        if let Some(label) = buf.label.lock().expect("trace label poisoned").clone() {
            thread_labels.push((buf.tid, label));
        }
    }
    // Dead threads hold no other strong reference; drop their entries so
    // repeated enable/drain cycles (tests, long-lived services) don't
    // accumulate registry slots.
    registry.retain(|buf| Arc::strong_count(buf) > 1);
    drop(registry);
    // Stable by timestamp: events of one thread were appended in order, so
    // per-thread order survives; cross-thread ties keep registry order.
    events.sort_by_key(|e| e.ts);
    thread_labels.sort_unstable();
    Trace {
        events,
        thread_labels,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tracing state is process-global; tests touching it serialize here.
    fn lock() -> std::sync::MutexGuard<'static, ()> {
        static GATE: Mutex<()> = Mutex::new(());
        GATE.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_records_nothing() {
        let _g = lock();
        disable();
        drain();
        {
            let mut s = span("t", "noop");
            s.arg("k", 1u64);
            instant("t", "i", vec![]);
            provenance("g", "direct-ilp", None, 3);
        }
        assert!(drain().events.is_empty());
    }

    #[test]
    fn spans_nest_and_drain_in_order() {
        let _g = lock();
        drain();
        enable();
        {
            let mut outer = span("t", "outer");
            outer.arg("n", 2u64);
            {
                let _inner = span("t", "inner");
                instant("t", "tick", vec![("v", ArgValue::Int(-1))]);
            }
        }
        disable();
        let trace = drain();
        let kinds: Vec<&str> = trace
            .events
            .iter()
            .map(|e| match &e.kind {
                EventKind::Begin { name, .. } => name.as_str(),
                EventKind::End { name, .. } => name.as_str(),
                EventKind::Instant { name, .. } => name.as_str(),
            })
            .collect();
        assert_eq!(kinds, ["outer", "inner", "tick", "inner", "outer"]);
        // Timestamps are monotonic within the thread.
        assert!(trace.events.windows(2).all(|w| w[0].ts <= w[1].ts));
        // The outer end carries its arg.
        match &trace.events[4].kind {
            EventKind::End { args, .. } => assert_eq!(args[0], ("n", ArgValue::UInt(2))),
            other => panic!("expected end, got {other:?}"),
        }
    }

    #[test]
    fn threads_get_distinct_ids_and_labels() {
        let _g = lock();
        drain();
        enable();
        std::thread::scope(|s| {
            for i in 0..3 {
                s.spawn(move || {
                    set_thread_label(format!("worker-{i}"));
                    let _sp = span("t", format!("job-{i}"));
                });
            }
        });
        disable();
        let trace = drain();
        let tids: std::collections::HashSet<u64> = trace.events.iter().map(|e| e.tid).collect();
        assert_eq!(tids.len(), 3, "each thread owns a tid");
        assert_eq!(trace.thread_labels.len(), 3);
    }

    #[test]
    fn job_label_attaches_to_spans() {
        let _g = lock();
        drain();
        enable();
        set_job(Some(7));
        assert_eq!(current_job(), Some(7));
        drop(span("t", "labeled"));
        set_job(None);
        drop(span("t", "unlabeled"));
        disable();
        let trace = drain();
        let end_args: Vec<&Args> = trace
            .events
            .iter()
            .filter_map(|e| match &e.kind {
                EventKind::End { args, .. } => Some(args),
                _ => None,
            })
            .collect();
        assert_eq!(end_args.len(), 2);
        assert_eq!(end_args[0].as_slice(), [("job", ArgValue::UInt(7))]);
        assert!(end_args[1].is_empty());
    }

    #[test]
    fn provenance_journal_is_filterable() {
        let _g = lock();
        drain();
        enable();
        let _sp = span("core", "synthesize");
        provenance("t0", "direct-ilp", Some("n1"), 3);
        provenance("t1", "binate-split", Some("n2"), 3);
        drop(_sp);
        disable();
        let trace = drain();
        assert_eq!(trace.provenance_events().count(), 2);
    }
}
