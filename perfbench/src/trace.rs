//! In-memory span recorder for traced runs.
//!
//! Spans are taken from the benchmark's own code around each call into a
//! layer's public functions: one root `job` span per job, stage spans
//! (`blif.parse`, `opt.factor`, `synth`, ...) as its children, and the
//! individual factoring passes under `opt.factor`. A disabled tracer
//! records nothing and costs one branch per call site.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub job: u64,
    /// Index of the enclosing span in the same tracer, if any.
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// A per-thread span recorder sharing one epoch with its siblings, so
/// spans from several client threads merge onto one time axis.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    job: u64,
}

impl Tracer {
    pub fn new(on: bool, epoch: Instant) -> Tracer {
        Tracer {
            on,
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
            job: 0,
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; every `begin` is closed by one `end`, innermost first.
    pub fn begin(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            job: self.job,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span and returns its length in ms (0 when
    /// tracing is off).
    pub fn end(&mut self) -> f64 {
        if !self.on {
            return 0.0;
        }
        let now = self.now_ns();
        let idx = self.open.pop().expect("end() without a matching begin()");
        self.spans[idx].end_ns = now;
        self.spans[idx].ms()
    }

    /// Runs `f` inside a leaf span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.begin(name);
        let out = f();
        self.end();
        out
    }

    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Labels the spans that follow with job `id`.
    pub fn set_job(&mut self, id: u64) {
        self.job = id;
    }

    /// Opens the root span of job `id`; close it with [`Tracer::end`].
    pub fn begin_job(&mut self, id: u64) {
        self.set_job(id);
        self.begin("job");
    }

    /// Appends another tracer's spans (same epoch), re-basing parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Total self time per span name in ms: each span's length minus the
    /// part covered by its direct children. For a `job` span this is the
    /// job's unattributed time.
    pub fn self_ms(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child_ns) {
            let self_ns = (s.end_ns - s.start_ns).saturating_sub(c);
            *out.entry(s.name).or_insert(0.0) += self_ns as f64 / 1e6;
        }
        out
    }

    /// Total inclusive time per span name in ms.
    pub fn total_ms(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for s in &self.spans {
            *out.entry(s.name).or_insert(0.0) += s.ms();
        }
        out
    }

    /// The spans as a JSON array, one object per line.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"job\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.job, s.start_ns, s.end_ns
            );
            out.push_str(if i + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let mut t = Tracer::new(true, Instant::now());
        t.begin_job(1);
        t.span("a", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.begin("b");
        t.span("c", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.end();
        let job_ms = t.end();
        let selfs = t.self_ms();
        let totals = t.total_ms();
        let attributed = totals["a"] + totals["b"];
        assert!((selfs["job"] - (job_ms - attributed)).abs() < 1e-6);
        assert!((selfs["b"] - (totals["b"] - totals["c"])).abs() < 1e-6);
        assert!(selfs["c"] >= 2.0);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[3].parent, Some(2));
        assert!(t.to_json().contains("\"name\":\"c\""));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        t.begin_job(1);
        assert_eq!(t.span("a", || 5), 5);
        assert_eq!(t.end(), 0.0);
        assert!(t.self_ms().is_empty());
    }

    #[test]
    fn absorb_rebases_parents() {
        let epoch = Instant::now();
        let mut a = Tracer::new(true, epoch);
        a.begin_job(1);
        a.span("x", || ());
        a.end();
        let mut b = Tracer::new(true, epoch);
        b.begin_job(2);
        b.span("y", || ());
        b.end();
        a.absorb(b);
        assert_eq!(a.spans[3].parent, Some(2));
        assert_eq!(a.spans[3].job, 2);
    }
}
