//! # tels-metrics — live runtime metrics for TELS-RS
//!
//! A process-wide registry of lock-free instruments for the long-running
//! parts of the pipeline (the threshold-check outcomes, which each
//! synthesis run publishes once when it finishes, the packed simulator,
//! the Monte Carlo trial loop, and the `tels serve` daemon).
//! Dependency-free, like [`tels_trace`], whose in-tree JSON machinery it
//! reuses; [`Histogram`] is the snapshot form of [`AtomicHistogram`].
//!
//! ## Zero overhead when disabled
//!
//! Metrics are off by default. Every recording entry point first checks
//! [`enabled`] — a single relaxed atomic load — and returns immediately.
//! Instrumented code behaves identically (outputs, statistics, control
//! flow) either way; the bench suite gates this with a byte-identity and
//! ≤2% overhead assertion on the synthesis pipeline.
//!
//! ## Sharding model
//!
//! [`Counter`] spreads increments over [`COUNTER_SHARDS`] cache-line-padded
//! atomic cells; each thread picks a home shard once (round-robin at first
//! touch), so the hot path is one uncontended relaxed `fetch_add`.
//! [`PerIndex`] instruments dedicate one cell per small index (connection
//! id mod [`MAX_INDEX`]) — uncontended by construction and exposed as
//! labeled series. [`Gauge`]s are single atomics, written from samplers
//! rather than hot paths.
//!
//! ## Snapshot consistency
//!
//! [`snapshot`] reads every cell with relaxed loads while writers keep
//! going. Each individual counter is therefore exact-at-some-instant and
//! monotone across snapshots (a later snapshot never reports a smaller
//! sum), but *cross*-counter relationships are best-effort: a snapshot may
//! see a run's check counters already published while the daemon job that
//! ran it is not yet counted as served. Consumers (`tels top`, the flight
//! recorder) display rates and mixes, for which this is sufficient.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod expo;
mod histogram;
mod recorder;

pub use expo::lint_prometheus;
pub use histogram::Histogram;
pub use recorder::{FlightRecorder, Frame};

use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, AtomicUsize, Ordering};

use tels_trace::json::Json;

/// Shards per [`Counter`]; increments from up to this many threads
/// proceed without cache-line contention.
pub const COUNTER_SHARDS: usize = 16;

/// Cells per [`PerIndex`] instrument; indices are taken modulo this.
pub const MAX_INDEX: usize = 64;

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// This thread's home shard for every [`Counter`] (round-robin).
    static HOME_SHARD: usize = NEXT_SHARD.fetch_add(1, Ordering::Relaxed) % COUNTER_SHARDS;
}

#[inline]
fn home_shard() -> usize {
    HOME_SHARD.with(|s| *s)
}

/// Whether metrics are currently being collected.
///
/// The fast path every instrumentation site checks first; a relaxed
/// atomic load, free for all practical purposes.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Starts collecting metrics (idempotent).
pub fn enable() {
    ENABLED.store(true, Ordering::SeqCst);
}

/// Stops collecting metrics (idempotent). Instrument values are frozen,
/// not cleared; [`snapshot`] still reads them.
pub fn disable() {
    ENABLED.store(false, Ordering::SeqCst);
}

/// A cache-line-padded atomic cell (avoids false sharing between shards).
#[repr(align(64))]
#[derive(Debug)]
struct Cell(AtomicU64);

impl Cell {
    const fn new() -> Cell {
        Cell(AtomicU64::new(0))
    }
}

/// A monotone counter sharded over [`COUNTER_SHARDS`] padded cells.
///
/// `const`-constructible, so instruments live in statics (see
/// [`instruments`]) and the hot path never touches a lookup table.
#[derive(Debug)]
pub struct Counter {
    shards: [Cell; COUNTER_SHARDS],
}

impl Counter {
    /// A zeroed counter.
    pub const fn new() -> Counter {
        Counter {
            shards: [const { Cell::new() }; COUNTER_SHARDS],
        }
    }

    /// Adds 1. No-op while metrics are disabled.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`: one relaxed `fetch_add` on this thread's home shard.
    /// No-op while metrics are disabled.
    #[inline]
    pub fn add(&self, n: u64) {
        if !enabled() {
            return;
        }
        self.shards[home_shard()].0.fetch_add(n, Ordering::Relaxed);
    }

    /// Sum across shards (wrapping, so racing increments can never make
    /// the total go backwards between reads).
    pub fn value(&self) -> u64 {
        self.shards
            .iter()
            .fold(0u64, |acc, c| acc.wrapping_add(c.0.load(Ordering::Relaxed)))
    }
}

impl Default for Counter {
    fn default() -> Counter {
        Counter::new()
    }
}

/// A point-in-time gauge (queue depth, jobs in flight).
///
/// Written either by paired [`Gauge::add`] calls around a region or by a
/// sampler calling [`Gauge::set`] at snapshot time; never on a per-item
/// hot path.
#[derive(Debug)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// A zeroed gauge.
    pub const fn new() -> Gauge {
        Gauge(AtomicI64::new(0))
    }

    /// Sets the gauge. No-op while metrics are disabled.
    #[inline]
    pub fn set(&self, v: i64) {
        if !enabled() {
            return;
        }
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adjusts the gauge by `d` (use a negative delta to decrement).
    /// No-op while metrics are disabled.
    #[inline]
    pub fn add(&self, d: i64) {
        if !enabled() {
            return;
        }
        self.0.fetch_add(d, Ordering::Relaxed);
    }

    /// Current value.
    pub fn value(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

impl Default for Gauge {
    fn default() -> Gauge {
        Gauge::new()
    }
}

/// A counter family keyed by a small index (a connection id)
/// with one dedicated cell per index — writers with distinct indices
/// never contend. Indices wrap modulo [`MAX_INDEX`].
#[derive(Debug)]
pub struct PerIndex {
    cells: [AtomicU64; MAX_INDEX],
}

impl PerIndex {
    /// A zeroed family.
    pub const fn new() -> PerIndex {
        PerIndex {
            cells: [const { AtomicU64::new(0) }; MAX_INDEX],
        }
    }

    /// Adds `n` to the cell of `index`. No-op while metrics are disabled.
    #[inline]
    pub fn add(&self, index: usize, n: u64) {
        if !enabled() {
            return;
        }
        self.cells[index % MAX_INDEX].fetch_add(n, Ordering::Relaxed);
    }

    /// Adds 1 to the cell of `index`. No-op while metrics are disabled.
    #[inline]
    pub fn inc(&self, index: usize) {
        self.add(index, 1);
    }

    /// The non-zero `(index, value)` cells.
    pub fn values(&self) -> Vec<(usize, u64)> {
        self.cells
            .iter()
            .enumerate()
            .filter_map(|(i, c)| match c.load(Ordering::Relaxed) {
                0 => None,
                v => Some((i, v)),
            })
            .collect()
    }

    /// Sum across all cells.
    pub fn total(&self) -> u64 {
        self.cells
            .iter()
            .fold(0u64, |acc, c| acc.wrapping_add(c.load(Ordering::Relaxed)))
    }
}

impl Default for PerIndex {
    fn default() -> PerIndex {
        PerIndex::new()
    }
}

/// A lock-free log₂ histogram: the atomic twin of [`Histogram`], which it
/// converts into at snapshot time.
#[derive(Debug)]
pub struct AtomicHistogram {
    buckets: [AtomicU64; 65],
    sum: AtomicU64,
    max: AtomicU64,
}

impl AtomicHistogram {
    /// An empty histogram.
    pub const fn new() -> AtomicHistogram {
        AtomicHistogram {
            buckets: [const { AtomicU64::new(0) }; 65],
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Records one sample. No-op while metrics are disabled. The sample
    /// sum is kept in a `u64` and wraps at 2⁶⁴ (584 years of nanoseconds
    /// — not reachable by the durations recorded here).
    #[inline]
    pub fn record(&self, value: u64) {
        if !enabled() {
            return;
        }
        let bucket = (64 - value.leading_zeros()) as usize;
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// A point-in-time [`Histogram`] (relaxed reads; the sample count is
    /// derived from the bucket counts so buckets and count always agree).
    pub fn load(&self) -> Histogram {
        let mut buckets = [0u64; 65];
        for (b, a) in buckets.iter_mut().zip(self.buckets.iter()) {
            *b = a.load(Ordering::Relaxed);
        }
        Histogram::from_raw(
            buckets,
            u128::from(self.sum.load(Ordering::Relaxed)),
            self.max.load(Ordering::Relaxed),
        )
    }
}

impl Default for AtomicHistogram {
    fn default() -> AtomicHistogram {
        AtomicHistogram::new()
    }
}

/// A reference to one registered instrument.
#[derive(Debug, Clone, Copy)]
pub enum InstrumentRef {
    /// A sharded monotone counter.
    Counter(&'static Counter),
    /// A point-in-time gauge.
    Gauge(&'static Gauge),
    /// A counter family labeled by a small index.
    PerIndex {
        /// The instrument.
        family: &'static PerIndex,
        /// Prometheus label key for the index (`conn`).
        label: &'static str,
    },
    /// A log₂ histogram.
    Histogram(&'static AtomicHistogram),
}

/// One registry entry: a stable series name, a help string, and the
/// instrument it describes.
#[derive(Debug, Clone, Copy)]
pub struct Descriptor {
    /// Prometheus-style series name (counters end in `_total`).
    pub name: &'static str,
    /// One-line help text.
    pub help: &'static str,
    /// The instrument.
    pub instrument: InstrumentRef,
}

/// The process-wide instruments, referenced directly (no lookup) by the
/// instrumented crates. [`REGISTRY`] enumerates them for exposition.
pub mod instruments {
    use super::{AtomicHistogram, Counter, Gauge, PerIndex};

    // The `CHECK_*` counters advance once per finished synthesis run, by
    // that run's totals; a run that errors publishes nothing.

    /// Nanoseconds spent canonicalizing covers for cache keys.
    pub static CHECK_CANON_NS: Counter = Counter::new();
    /// Threshold checks answered by the tier-0 truth-table oracle.
    pub static CHECK_TIER0_HITS: Counter = Counter::new();
    /// Threshold checks settled by the tier-0.5 decision procedure
    /// (identified realizations and proven rejections).
    pub static CHECK_TIER05: Counter = Counter::new();
    /// Threshold checks answered from the realization cache.
    pub static CHECK_CACHE_HITS: Counter = Counter::new();
    /// Threshold checks refuted by Theorem 1 (the 2-monotonicity test).
    pub static CHECK_THEOREM1: Counter = Counter::new();
    /// Threshold checks that reached the ILP solver.
    pub static CHECK_ILP_SOLVES: Counter = Counter::new();

    /// Input vectors simulated by the packed evaluation engine.
    pub static EVAL_VECTORS: Counter = Counter::new();
    /// Monte Carlo perturbation trials completed.
    pub static PERTURB_TRIALS: Counter = Counter::new();

    /// Jobs currently being synthesized by the daemon.
    pub static SERVE_JOBS_INFLIGHT: Gauge = Gauge::new();
    /// Daemon jobs completed successfully.
    pub static SERVE_JOBS_OK: Counter = Counter::new();
    /// Daemon jobs that failed.
    pub static SERVE_JOBS_FAILED: Counter = Counter::new();
    /// Nanoseconds a job spent queued (setup before synthesis started).
    pub static SERVE_QUEUE_WAIT_NS: AtomicHistogram = AtomicHistogram::new();
    /// Nanoseconds a job spent in synthesis proper.
    pub static SERVE_JOB_RUN_NS: AtomicHistogram = AtomicHistogram::new();
    /// Protocol bytes read from clients.
    pub static SERVE_BYTES_IN: Counter = Counter::new();
    /// Protocol bytes written to clients.
    pub static SERVE_BYTES_OUT: Counter = Counter::new();
    /// Frames handled, per connection (connection id mod the cell count).
    pub static SERVE_FRAMES: PerIndex = PerIndex::new();
    /// Client connections currently open.
    pub static SERVE_CONNECTIONS_OPEN: Gauge = Gauge::new();
}

use instruments as i9s;

/// Every registered instrument, in exposition order.
pub static REGISTRY: &[Descriptor] = &[
    Descriptor {
        name: "tels_check_canon_ns_total",
        help: "Nanoseconds spent canonicalizing covers",
        instrument: InstrumentRef::Counter(&i9s::CHECK_CANON_NS),
    },
    Descriptor {
        name: "tels_check_tier0_total",
        help: "Threshold checks answered by the tier-0 oracle",
        instrument: InstrumentRef::Counter(&i9s::CHECK_TIER0_HITS),
    },
    Descriptor {
        name: "tels_check_tier05_total",
        help: "Threshold checks settled by the tier-0.5 decision procedure",
        instrument: InstrumentRef::Counter(&i9s::CHECK_TIER05),
    },
    Descriptor {
        name: "tels_check_cache_hits_total",
        help: "Threshold checks answered from the realization cache",
        instrument: InstrumentRef::Counter(&i9s::CHECK_CACHE_HITS),
    },
    Descriptor {
        name: "tels_check_theorem1_total",
        help: "Threshold checks refuted by Theorem 1 (2-monotonicity)",
        instrument: InstrumentRef::Counter(&i9s::CHECK_THEOREM1),
    },
    Descriptor {
        name: "tels_check_ilp_solves_total",
        help: "Threshold checks that reached the ILP solver",
        instrument: InstrumentRef::Counter(&i9s::CHECK_ILP_SOLVES),
    },
    Descriptor {
        name: "tels_eval_vectors_total",
        help: "Input vectors simulated by the packed engine",
        instrument: InstrumentRef::Counter(&i9s::EVAL_VECTORS),
    },
    Descriptor {
        name: "tels_perturb_trials_total",
        help: "Monte Carlo perturbation trials completed",
        instrument: InstrumentRef::Counter(&i9s::PERTURB_TRIALS),
    },
    Descriptor {
        name: "tels_serve_jobs_inflight",
        help: "Jobs currently being synthesized",
        instrument: InstrumentRef::Gauge(&i9s::SERVE_JOBS_INFLIGHT),
    },
    Descriptor {
        name: "tels_serve_jobs_ok_total",
        help: "Daemon jobs completed successfully",
        instrument: InstrumentRef::Counter(&i9s::SERVE_JOBS_OK),
    },
    Descriptor {
        name: "tels_serve_jobs_failed_total",
        help: "Daemon jobs that failed",
        instrument: InstrumentRef::Counter(&i9s::SERVE_JOBS_FAILED),
    },
    Descriptor {
        name: "tels_serve_queue_wait_ns",
        help: "Nanoseconds jobs spent in pre-synthesis setup",
        instrument: InstrumentRef::Histogram(&i9s::SERVE_QUEUE_WAIT_NS),
    },
    Descriptor {
        name: "tels_serve_job_run_ns",
        help: "Nanoseconds jobs spent in synthesis",
        instrument: InstrumentRef::Histogram(&i9s::SERVE_JOB_RUN_NS),
    },
    Descriptor {
        name: "tels_serve_bytes_in_total",
        help: "Protocol bytes read from clients",
        instrument: InstrumentRef::Counter(&i9s::SERVE_BYTES_IN),
    },
    Descriptor {
        name: "tels_serve_bytes_out_total",
        help: "Protocol bytes written to clients",
        instrument: InstrumentRef::Counter(&i9s::SERVE_BYTES_OUT),
    },
    Descriptor {
        name: "tels_serve_frames_total",
        help: "Protocol frames handled per connection",
        instrument: InstrumentRef::PerIndex {
            family: &i9s::SERVE_FRAMES,
            label: "conn",
        },
    },
    Descriptor {
        name: "tels_serve_connections_open",
        help: "Client connections currently open",
        instrument: InstrumentRef::Gauge(&i9s::SERVE_CONNECTIONS_OPEN),
    },
];

/// One instrument's value at snapshot time.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Counter total (summed over shards).
    Counter(u64),
    /// Gauge reading.
    Gauge(i64),
    /// Labeled series: non-zero `(index, value)` cells plus the total.
    Series {
        /// Label key (`conn`).
        label: &'static str,
        /// Non-zero cells.
        cells: Vec<(usize, u64)>,
        /// Sum over all cells.
        total: u64,
    },
    /// Histogram reading.
    Histogram(Box<Histogram>),
}

/// One named instrument reading.
#[derive(Debug, Clone, PartialEq)]
pub struct Entry {
    /// Series name from the [`Descriptor`].
    pub name: &'static str,
    /// Help text from the [`Descriptor`].
    pub help: &'static str,
    /// The reading.
    pub value: Value,
}

/// A point-in-time reading of the whole [`REGISTRY`].
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// Nanoseconds on the shared monotonic trace clock
    /// ([`tels_trace::now_ns`]) when the snapshot was taken.
    pub ts_ns: u64,
    /// One entry per registered instrument, in registry order.
    pub entries: Vec<Entry>,
}

/// Reads every registered instrument. Works whether or not metrics are
/// [`enabled`] (disabled instruments simply hold their last values).
pub fn snapshot() -> Snapshot {
    let entries = REGISTRY
        .iter()
        .map(|d| Entry {
            name: d.name,
            help: d.help,
            value: match d.instrument {
                InstrumentRef::Counter(c) => Value::Counter(c.value()),
                InstrumentRef::Gauge(g) => Value::Gauge(g.value()),
                InstrumentRef::PerIndex { family, label } => Value::Series {
                    label,
                    cells: family.values(),
                    total: family.total(),
                },
                InstrumentRef::Histogram(h) => Value::Histogram(Box::new(h.load())),
            },
        })
        .collect();
    Snapshot {
        ts_ns: tels_trace::now_ns(),
        entries,
    }
}

impl Snapshot {
    /// The entry named `name`, if registered.
    pub fn get(&self, name: &str) -> Option<&Entry> {
        self.entries.iter().find(|e| e.name == name)
    }

    /// A counter/series/gauge reading as `u64` (series → total; gauges
    /// clamp at 0). `None` for histograms and unknown names.
    pub fn scalar(&self, name: &str) -> Option<u64> {
        match &self.get(name)?.value {
            Value::Counter(v) => Some(*v),
            Value::Gauge(v) => Some((*v).max(0) as u64),
            Value::Series { total, .. } => Some(*total),
            Value::Histogram(_) => None,
        }
    }

    /// JSON exposition: `{"ts_ns": …, "metrics": {name: reading, …}}`.
    pub fn to_json(&self) -> Json {
        let metrics = self
            .entries
            .iter()
            .map(|e| {
                let v = match &e.value {
                    Value::Counter(v) => Json::Num(*v as f64),
                    Value::Gauge(v) => Json::Num(*v as f64),
                    Value::Series {
                        label,
                        cells,
                        total,
                    } => Json::Obj(vec![
                        ("total".to_string(), Json::Num(*total as f64)),
                        ("label".to_string(), Json::str(*label)),
                        (
                            "cells".to_string(),
                            Json::Arr(
                                cells
                                    .iter()
                                    .map(|&(i, v)| {
                                        Json::Arr(vec![Json::Num(i as f64), Json::Num(v as f64)])
                                    })
                                    .collect(),
                            ),
                        ),
                    ]),
                    Value::Histogram(h) => h.to_json(),
                };
                (e.name.to_string(), v)
            })
            .collect();
        Json::obj([
            ("ts_ns", Json::Num(self.ts_ns as f64)),
            ("metrics", Json::Obj(metrics)),
        ])
    }

    /// Prometheus text exposition: `# HELP`/`# TYPE` comments before every
    /// series, which [`lint_prometheus`] checks.
    pub fn to_prometheus(&self) -> String {
        expo::to_prometheus(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Metrics state is process-global; tests touching the gate or
    /// asserting on instrument values serialize here.
    pub(crate) fn lock() -> std::sync::MutexGuard<'static, ()> {
        static GATE: Mutex<()> = Mutex::new(());
        GATE.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_is_inert() {
        let _g = lock();
        disable();
        let c = Counter::new();
        let f = PerIndex::new();
        let gauge = Gauge::new();
        let h = AtomicHistogram::new();
        c.inc();
        f.inc(3);
        gauge.set(9);
        h.record(100);
        assert_eq!(c.value(), 0);
        assert_eq!(f.total(), 0);
        assert_eq!(gauge.value(), 0);
        assert_eq!(h.load().count(), 0);
    }

    #[test]
    fn counter_sums_across_threads() {
        let _g = lock();
        enable();
        let c = Counter::new();
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        c.inc();
                    }
                });
            }
        });
        disable();
        assert_eq!(c.value(), 8000);
    }

    #[test]
    fn per_index_wraps_and_totals() {
        let _g = lock();
        enable();
        let f = PerIndex::new();
        f.add(2, 5);
        f.inc(2 + MAX_INDEX); // wraps onto the same cell
        f.inc(7);
        disable();
        assert_eq!(f.values(), vec![(2, 6), (7, 1)]);
        assert_eq!(f.total(), 7);
    }

    #[test]
    fn atomic_histogram_matches_plain() {
        let _g = lock();
        enable();
        let a = AtomicHistogram::new();
        let mut p = Histogram::new();
        for v in [0u64, 1, 7, 100, 100_000, 1 << 40] {
            a.record(v);
            p.record(v);
        }
        disable();
        assert_eq!(a.load(), p);
    }

    #[test]
    fn snapshot_covers_registry_and_monotone_counters() {
        let _g = lock();
        enable();
        instruments::CHECK_ILP_SOLVES.add(3);
        let before = snapshot();
        instruments::CHECK_ILP_SOLVES.add(2);
        let after = snapshot();
        disable();
        assert_eq!(before.entries.len(), REGISTRY.len());
        let b = before.scalar("tels_check_ilp_solves_total").unwrap();
        let a = after.scalar("tels_check_ilp_solves_total").unwrap();
        assert!(a >= b + 2);
        assert!(after.ts_ns >= before.ts_ns);
    }

    #[test]
    fn concurrent_snapshot_never_sees_counters_regress() {
        // A snapshot taken while writers are live must report, for every
        // counter, a sum ≥ any sum observed earlier (no torn/lost reads).
        let _g = lock();
        enable();
        let stop = AtomicBool::new(false);
        let stop = &stop;
        std::thread::scope(|s| {
            for w in 0..4 {
                s.spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        instruments::EVAL_VECTORS.add(64);
                        instruments::SERVE_FRAMES.inc(w);
                    }
                });
            }
            s.spawn(|| {
                let mut last_vec = 0u64;
                let mut last_tasks = 0u64;
                for _ in 0..200 {
                    let snap = snapshot();
                    let v = snap.scalar("tels_eval_vectors_total").unwrap();
                    let t = snap.scalar("tels_serve_frames_total").unwrap();
                    assert!(v >= last_vec, "counter regressed: {v} < {last_vec}");
                    assert!(t >= last_tasks, "series regressed: {t} < {last_tasks}");
                    last_vec = v;
                    last_tasks = t;
                }
                stop.store(true, Ordering::Relaxed);
            });
        });
        disable();
    }

    #[test]
    fn snapshot_json_shape() {
        let _g = lock();
        enable();
        instruments::SERVE_JOB_RUN_NS.record(1_000);
        disable();
        let j = snapshot().to_json();
        assert!(j.get("ts_ns").is_some());
        let m = j.get("metrics").expect("metrics object");
        assert!(m
            .get("tels_serve_job_run_ns")
            .and_then(|h| h.get("count"))
            .is_some());
        assert!(m.get("tels_serve_jobs_inflight").is_some());
    }
}
