//! # tels-trace — observability substrate for TELS-RS
//!
//! Hierarchical, thread-aware spans with monotonic timing, instant events
//! (including the per-gate *synthesis provenance* journal), and exporters:
//! Chrome `trace_event` JSON (loadable in `chrome://tracing` / Perfetto)
//! and a plain-text profile tree. Counts and timings per run live in the
//! program's own statistics, and live process-wide counters in
//! `tels-metrics`; a trace records when things happened. No external
//! dependencies, matching the in-tree PRNG and criterion-shim precedent.
//!
//! ## Zero overhead when disabled
//!
//! Tracing is off by default. Every recording entry point first checks
//! [`enabled`] — a single relaxed atomic load — and returns immediately
//! without allocating, reading the clock, or touching a lock, so
//! instrumented code behaves identically (outputs, statistics, control
//! flow) whether or not a trace is being collected.
//!
//! ## Collection model
//!
//! Events hold only static names, numbers and ids (the provenance journal
//! records gate and node indices; [`export::chrome_trace`] names them).
//! Each thread appends to a plain thread-local buffer, which moves into
//! the global registry under one lock when the thread's outermost span
//! closes (or at once, outside any span). [`drain`] returns the
//! registry's events sorted by timestamp, per-thread order preserved.
//! Timestamps are nanoseconds of a process-wide monotonic clock.
//!
//! ## Example
//!
//! ```
//! use tels_trace::export::{chrome_trace, Names};
//!
//! tels_trace::enable();
//! {
//!     let mut span = tels_trace::span("demo", "outer");
//!     span.arg("answer", 42u64);
//!     let _inner = tels_trace::span("demo", "inner");
//! }
//! tels_trace::provenance(0, "direct-ilp", Some(3), 3);
//! tels_trace::disable();
//! let trace = tels_trace::drain();
//! assert_eq!(trace.events.len(), 5); // 2 begins + 2 ends + 1 provenance
//! let names = Names { gates: &["t0"], nodes: &["a", "b", "c", "n3"] };
//! assert!(chrome_trace(&trace, &names).contains("\"name\": \"t0\""));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod export;
pub mod json;

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Instant;

/// Category name used by the per-gate synthesis provenance journal.
pub const PROVENANCE_CAT: &str = "provenance";

/// Argument slots per span; `ilp/solve` attaches the most, four.
pub const MAX_ARGS: usize = 4;

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

/// A span argument (rendered into Chrome-trace `args`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArgValue {
    /// Unsigned integer.
    UInt(u64),
    /// Static string, such as a decider or tier tag.
    Str(&'static str),
    /// A source-network node by index, named at export.
    Node(usize),
}

impl From<u64> for ArgValue {
    fn from(v: u64) -> ArgValue {
        ArgValue::UInt(v)
    }
}

impl From<&'static str> for ArgValue {
    fn from(v: &'static str) -> ArgValue {
        ArgValue::Str(v)
    }
}

/// A span's named arguments, held inline in [`MAX_ARGS`] slots; reads as
/// a slice of the ones set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Args {
    len: usize,
    slots: [(&'static str, ArgValue); MAX_ARGS],
}

impl Args {
    /// No arguments.
    pub(crate) const EMPTY: Args = Args {
        len: 0,
        slots: [("", ArgValue::UInt(0)); MAX_ARGS],
    };

    fn push(&mut self, key: &'static str, value: ArgValue) {
        assert!(self.len < MAX_ARGS, "over {MAX_ARGS} span arguments");
        self.slots[self.len] = (key, value);
        self.len += 1;
    }
}

impl std::ops::Deref for Args {
    type Target = [(&'static str, ArgValue)];

    fn deref(&self) -> &Self::Target {
        &self.slots[..self.len]
    }
}

/// What an [`Event`] records.
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// A span opened (`ph: "B"`).
    Begin {
        /// Category (by convention, the crate: `logic`, `core`, `ilp`, ...).
        cat: &'static str,
        /// Span name.
        name: &'static str,
    },
    /// A span closed (`ph: "E"`); args gathered over the span's lifetime.
    End {
        /// Category (same as the matching [`EventKind::Begin`]).
        cat: &'static str,
        /// Span name (same as the matching [`EventKind::Begin`]).
        name: &'static str,
        /// Arguments recorded via [`Span::arg`].
        args: Args,
    },
    /// A point-in-time event (`ph: "i"`).
    Instant {
        /// Category.
        cat: &'static str,
        /// Event name.
        name: &'static str,
    },
    /// One entry of the provenance journal, exported as an instant of
    /// category [`PROVENANCE_CAT`] named after the gate.
    Provenance {
        /// Index of the emitted gate in the threshold network.
        gate: usize,
        /// How the gate was obtained (`direct-ilp`, `cache-hit`, ...).
        path: &'static str,
        /// Index of the source-network node being synthesized, if any.
        node: Option<usize>,
        /// The fanin restriction ψ.
        psi: usize,
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

/// This thread's id, open-span depth and events not yet moved into the
/// registry.
struct Local {
    tid: u64,
    depth: usize,
    events: Vec<Event>,
}

thread_local! {
    static LOCAL: RefCell<Local> = RefCell::new(Local {
        tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
        depth: 0,
        events: Vec::new(),
    });
}

/// Event buffers and thread labels gathered from all threads since the
/// last [`drain`].
struct Registry {
    chunks: Vec<Vec<Event>>,
    labels: BTreeMap<u64, String>,
}

static REGISTRY: Mutex<Registry> = Mutex::new(Registry {
    chunks: Vec::new(),
    labels: BTreeMap::new(),
});

/// The registry, locked. Every update leaves it whole, so a lock poisoned
/// by a panicking thread is still sound, and a span's `Drop` never panics.
fn registry() -> MutexGuard<'static, Registry> {
    REGISTRY.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Appends an event to this thread's buffer (the caller has passed the
/// [`enabled`] gate) and returns its timestamp. Once no span is open on
/// this thread, the buffer moves into the registry, its capacity kept.
fn record(kind: EventKind) -> u64 {
    let ts = now_ns();
    LOCAL.with_borrow_mut(|local| {
        match kind {
            EventKind::Begin { .. } => local.depth += 1,
            EventKind::End { .. } => local.depth -= 1,
            _ => {}
        }
        let tid = local.tid;
        local.events.push(Event { ts, tid, kind });
        if local.depth == 0 {
            let fresh = Vec::with_capacity(local.events.capacity());
            registry()
                .chunks
                .push(std::mem::replace(&mut local.events, fresh));
        }
    });
    ts
}

/// Labels the current thread in the next drained trace (e.g. `worker-3`).
/// No-op while tracing is disabled.
pub fn set_thread_label(label: impl Into<String>) {
    if enabled() {
        let tid = LOCAL.with_borrow(|local| local.tid);
        registry().labels.insert(tid, label.into());
    }
}

/// An RAII span guard: records a begin event at creation and the matching
/// end event (carrying any [`Span::arg`] annotations) when dropped, on the
/// same thread (a span is not `Send`).
///
/// When tracing is disabled, [`span`] returns an inert guard: no
/// allocation, no clock read, no lock.
#[must_use = "a span records its duration when dropped"]
#[derive(Debug)]
pub struct Span {
    /// Category, name, arguments and begin time, while recording.
    active: Option<(&'static str, &'static str, Args, u64)>,
    on_this_thread: PhantomData<*const ()>,
}

impl Span {
    /// Attaches an argument, recorded on the span's end event.
    ///
    /// # Panics
    ///
    /// When the span already holds [`MAX_ARGS`] arguments.
    pub fn arg(&mut self, key: &'static str, value: impl Into<ArgValue>) {
        if let Some((_, _, args, _)) = self.active.as_mut() {
            args.push(key, value.into());
        }
    }

    /// When the span began (for an inert span, now): with [`Span::end_ns`],
    /// a timer that shares the span's clock reads.
    pub fn start_ns(&self) -> u64 {
        self.active
            .as_ref()
            .map_or_else(now_ns, |&(.., start)| start)
    }

    /// Closes the span and returns when (for an inert span, now).
    pub fn end_ns(mut self) -> u64 {
        self.close().unwrap_or_else(now_ns)
    }

    fn close(&mut self) -> Option<u64> {
        let (cat, name, args, _) = self.active.take()?;
        Some(record(EventKind::End { cat, name, args }))
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        // Recorded even if tracing was disabled mid-span, so drained
        // traces never contain an unmatched begin.
        self.close();
    }
}

/// Opens a span. The hot path: when tracing is disabled this is one atomic
/// load and a `None` return.
#[inline]
pub fn span(cat: &'static str, name: &'static str) -> Span {
    let active = enabled().then(|| {
        let start = record(EventKind::Begin { cat, name });
        (cat, name, Args::EMPTY, start)
    });
    Span {
        active,
        on_this_thread: PhantomData,
    }
}

/// Records a point-in-time event.
#[inline]
pub fn instant(cat: &'static str, name: &'static str) {
    if enabled() {
        record(EventKind::Instant { cat, name });
    }
}

/// Records one synthesis-provenance event: the threshold gate with index
/// `gate` was emitted by `path` (e.g. `direct-ilp`, `cache-hit`,
/// `binate-split`), while synthesizing the source network node with index
/// `node`, under fanin restriction `psi`. Exactly one such event is
/// journaled per emitted gate. Returns its timestamp, if recorded.
#[inline]
pub fn provenance(gate: usize, path: &'static str, node: Option<usize>, psi: usize) -> Option<u64> {
    let kind = EventKind::Provenance {
        gate,
        path,
        node,
        psi,
    };
    enabled().then(|| record(kind))
}

/// A drained trace: all events collected since the last [`drain`], plus
/// thread labels, ready for the [`export`] module.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// Events sorted by timestamp; per-thread relative order is exact.
    pub events: Vec<Event>,
    /// `(tid, label)` pairs set via [`set_thread_label`] since the last
    /// drain, sorted by tid.
    pub thread_labels: Vec<(u64, String)>,
}

impl Trace {
    /// Events of the provenance journal.
    pub fn provenance_events(&self) -> impl Iterator<Item = &Event> + '_ {
        self.events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Provenance { .. }))
    }
}

/// Takes every event moved into the registry since the last drain (all
/// spans closed so far, on any thread) as one [`Trace`].
pub fn drain() -> Trace {
    let mut registry = registry();
    let mut events = std::mem::take(&mut registry.chunks).concat();
    let thread_labels = std::mem::take(&mut registry.labels).into_iter().collect();
    drop(registry);
    // Stable by timestamp: events of one thread were appended in order, so
    // per-thread order survives; cross-thread ties keep arrival order.
    events.sort_by_key(|e| e.ts);
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
            instant("t", "i");
            provenance(0, "direct-ilp", None, 3);
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
                instant("t", "tick");
            }
        }
        disable();
        let trace = drain();
        let kinds: Vec<&str> = trace
            .events
            .iter()
            .map(|e| match &e.kind {
                EventKind::Begin { name, .. }
                | EventKind::End { name, .. }
                | EventKind::Instant { name, .. } => name,
                EventKind::Provenance { .. } => "provenance",
            })
            .collect();
        assert_eq!(kinds, ["outer", "inner", "tick", "inner", "outer"]);
        // Timestamps are monotonic within the thread.
        assert!(trace.events.windows(2).all(|w| w[0].ts <= w[1].ts));
        // The outer end carries its arg.
        match &trace.events[4].kind {
            EventKind::End { args, .. } => assert_eq!(args[..], [("n", ArgValue::UInt(2))]),
            other => panic!("expected end, got {other:?}"),
        }
    }

    #[test]
    fn span_timer_shares_the_recorded_clock_reads() {
        let _g = lock();
        drain();
        disable();
        let inert = span("t", "inert");
        let t0 = inert.start_ns();
        assert!(inert.end_ns() >= t0, "an inert span still times");
        enable();
        let traced = span("t", "traced");
        let (start, end) = (traced.start_ns(), traced.end_ns());
        disable();
        let ts: Vec<u64> = drain().events.iter().map(|e| e.ts).collect();
        assert_eq!(ts, [start, end]);
    }

    #[test]
    fn span_args_fill_the_inline_slots() {
        let mut args = Args::EMPTY;
        for (i, key) in ["a", "b", "c", "d"].into_iter().enumerate() {
            args.push(key, ArgValue::UInt(i as u64));
        }
        assert_eq!(args.len(), MAX_ARGS);
        assert_eq!(args[3], ("d", ArgValue::UInt(3)));
        let full = std::panic::catch_unwind(move || args.push("e", ArgValue::UInt(4)));
        assert!(
            full.is_err(),
            "a fifth argument must not be dropped silently"
        );
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
                    let _sp = span("t", "job");
                });
            }
        });
        disable();
        let trace = drain();
        let tids: std::collections::HashSet<u64> = trace.events.iter().map(|e| e.tid).collect();
        assert_eq!(tids.len(), 3, "each thread owns a tid");
        assert_eq!(trace.thread_labels.len(), 3);
        // Every begin and end the scoped threads recorded is drained, not
        // only one event per thread.
        assert_eq!(trace.events.len(), 6);
        assert_eq!(export::spans(&trace).expect("well-nested").len(), 3);
    }

    #[test]
    fn closed_span_is_drained_while_its_thread_lives() {
        let _g = lock();
        drain();
        enable();
        let (closed_tx, closed_rx) = std::sync::mpsc::channel();
        let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
        let worker = std::thread::spawn(move || {
            {
                let _outer = span("t", "outer");
                let _inner = span("t", "inner");
            }
            closed_tx.send(()).unwrap();
            release_rx.recv().unwrap();
        });
        closed_rx.recv().unwrap();
        let trace = drain();
        disable();
        release_tx.send(()).unwrap();
        worker.join().unwrap();
        assert_eq!(trace.events.len(), 4, "{:?}", trace.events);
        assert_eq!(export::spans(&trace).expect("well-nested").len(), 2);
    }

    #[test]
    fn provenance_journal_is_filterable() {
        let _g = lock();
        drain();
        enable();
        let _sp = span("core", "synthesize");
        provenance(0, "direct-ilp", Some(1), 3);
        provenance(1, "binate-split", Some(2), 3);
        drop(_sp);
        disable();
        let trace = drain();
        assert_eq!(trace.provenance_events().count(), 2);
    }
}
