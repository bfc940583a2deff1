//! `tels serve`: a batched synthesis daemon.
//!
//! One-shot `tels synth` pays its startup costs — tier-0 oracle table
//! construction and above all an empty realization cache — on every
//! invocation. This crate amortizes them across jobs: a [`ServeSession`]
//! owns one [`RealizationCache`] per configuration fingerprint
//! ([`CacheKey`]), accepts synthesis jobs over a length-prefixed JSON
//! protocol ([`protocol`]), and optionally persists the caches to disk
//! between runs ([`persist`]).
//!
//! # Determinism contract
//!
//! A job's `.tnet` output is byte-identical to what a one-shot `tels synth`
//! run of the same input and configuration produces, with a cold or
//! pre-populated cache. This follows from the core invariant: cache
//! entries are pure functions of their canonical key plus the [`CacheKey`]
//! fields, so a pre-populated entry only changes *when* an answer is
//! computed, never what it is. The serve layer's contribution is
//! discipline: caches are keyed by configuration fingerprint so a job can
//! never observe entries computed under different δ or solver limits.
//!
//! # Transports
//!
//! [`serve_stdio`] runs the protocol over stdin/stdout (one client, e.g.
//! a build system holding a child process). [`serve_unix`] listens on a
//! unix socket and serves concurrent clients, one thread per connection;
//! each job runs on its connection's thread, and jobs from all connections
//! share the caches. A `shutdown`
//! request from any client stops the listener, and the session saves its
//! caches if a cache file is configured.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod persist;
pub mod protocol;

mod client;
mod server;

pub use client::Client;
pub use server::{serve_connection, serve_stdio, serve_unix, ConnectionEnd};

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use tels_core::{
    prewarm_tier0, synthesize_with_cache, CacheKey, RealizationCache, SynthStats, ThresholdNetwork,
};
use tels_logic::blif;
use tels_logic::opt::script_algebraic;
use tels_metrics::{instruments as metrics, FlightRecorder, Histogram};
use tels_trace::json::Json;

use protocol::{error_reply, parse_request, validate_config, JobRequest, Request};

/// Daemon construction options.
#[derive(Debug, Clone, Default)]
pub struct ServeOptions {
    /// Cache persistence file: loaded at startup when present, saved on
    /// shutdown and by [`ServeSession::persist_now`].
    pub cache_file: Option<PathBuf>,
    /// Enable live metrics collection ([`tels_metrics::enable`]) for this
    /// process, the periodic flight-recorder sampler, and final-snapshot
    /// persistence next to the cache file. Off by default — with metrics
    /// disabled every instrumentation site is a single relaxed load.
    pub metrics_enabled: bool,
    /// Flight-recorder sampling interval in milliseconds (`0` = the 1 Hz
    /// default).
    pub metrics_interval_ms: u64,
    /// Flight-recorder ring capacity in frames (`0` = the default of 120,
    /// i.e. two minutes of history at 1 Hz).
    pub recorder_capacity: usize,
}

/// Mutable server counters (everything behind one short-held lock).
#[derive(Debug, Default)]
struct Counters {
    jobs_ok: u64,
    jobs_failed: u64,
    bad_frames: u64,
    latency_us: Histogram,
}

/// A completed synthesis job.
#[derive(Debug)]
pub struct JobReply {
    /// The job id (client-chosen or session-assigned).
    pub id: u64,
    /// The synthesized network.
    pub tn: ThresholdNetwork,
    /// Run statistics.
    pub stats: SynthStats,
    /// Wall-clock latency of the job inside the session, in microseconds.
    pub micros: u64,
}

/// A long-lived synthesis session: per-configuration realization caches,
/// job counters, and optional disk persistence.
///
/// Transport-independent — [`serve_stdio`]/[`serve_unix`] drive it over
/// byte streams, and in-process callers ([`Client`] alternatives like the
/// fuzz harness and benches) call [`ServeSession::submit`] directly.
pub struct ServeSession {
    caches: Mutex<HashMap<CacheKey, Arc<RealizationCache>>>,
    counters: Mutex<Counters>,
    next_id: AtomicU64,
    shutdown: AtomicBool,
    cache_file: Option<PathBuf>,
    started: Instant,
    metrics_on: bool,
    metrics_interval: Duration,
    recorder: FlightRecorder,
}

impl ServeSession {
    /// Builds a session: prewarms the tier-0 oracle and loads the cache
    /// file when one is configured and present.
    ///
    /// # Errors
    ///
    /// A configured cache file that exists but fails validation (wrong
    /// magic, incompatible version, truncated body, malformed entry) is
    /// rejected with a descriptive message — delete or move the file to
    /// start fresh. A *missing* cache file is not an error.
    pub fn new(opts: ServeOptions) -> Result<ServeSession, String> {
        prewarm_tier0();
        if opts.metrics_enabled {
            tels_metrics::enable();
        }
        let session = ServeSession {
            caches: Mutex::new(HashMap::new()),
            counters: Mutex::new(Counters::default()),
            next_id: AtomicU64::new(1),
            shutdown: AtomicBool::new(false),
            cache_file: opts.cache_file,
            started: Instant::now(),
            metrics_on: opts.metrics_enabled,
            metrics_interval: Duration::from_millis(if opts.metrics_interval_ms == 0 {
                1000
            } else {
                opts.metrics_interval_ms
            }),
            recorder: FlightRecorder::new(if opts.recorder_capacity == 0 {
                120
            } else {
                opts.recorder_capacity
            }),
        };
        if let Some(path) = session.cache_file.clone().filter(|p| p.exists()) {
            let sections = persist::load(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            for (fingerprint, entries) in sections {
                session.cache(fingerprint).extend(entries);
            }
        }
        Ok(session)
    }

    /// Threads a single job runs on: always 1, since a job runs on the
    /// thread that submitted it (in the daemon, its connection's thread).
    pub fn threads(&self) -> usize {
        1
    }

    /// The shared cache for a configuration fingerprint (created empty on
    /// first use).
    pub fn cache(&self, fingerprint: CacheKey) -> Arc<RealizationCache> {
        Arc::clone(
            self.caches
                .lock()
                .expect("cache map poisoned")
                .entry(fingerprint)
                .or_default(),
        )
    }

    /// Whether a `shutdown` request has been handled.
    pub fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Runs one synthesis job against the shared caches. Assigns
    /// an id when the request carries none; records latency and outcome in
    /// the server counters either way.
    ///
    /// # Errors
    ///
    /// Invalid configuration, unparseable BLIF, synthesis failure, or (when
    /// `verify` is set) a simulation mismatch — all as displayable strings;
    /// a bad job never takes the session down.
    pub fn submit(&self, req: &JobRequest) -> Result<JobReply, String> {
        let id = req
            .id
            .unwrap_or_else(|| self.next_id.fetch_add(1, Ordering::SeqCst));
        let start = Instant::now();
        let traced = tels_trace::enabled();
        if traced {
            // Label every span this job emits with the job id.
            tels_trace::set_job(Some(id));
        }
        metrics::SERVE_JOBS_INFLIGHT.add(1);
        let result = {
            let _span = tels_trace::span("serve", "job");
            self.run_job(req)
        };
        metrics::SERVE_JOBS_INFLIGHT.add(-1);
        if traced {
            tels_trace::set_job(None);
        }
        let micros = start.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
        let mut counters = self.counters.lock().expect("counters poisoned");
        counters.latency_us.record(micros);
        match result {
            Ok((tn, stats)) => {
                counters.jobs_ok += 1;
                metrics::SERVE_JOBS_OK.inc();
                Ok(JobReply {
                    id,
                    tn,
                    stats,
                    micros,
                })
            }
            Err(e) => {
                counters.jobs_failed += 1;
                metrics::SERVE_JOBS_FAILED.inc();
                drop(counters);
                if self.metrics_on {
                    // Freeze the registry at the moment of failure so the
                    // ring answers "what did the daemon look like when job
                    // N died" even after later frames wrap the ring.
                    self.recorder.record(Some(format!("job {id} failed: {e}")));
                }
                Err(e)
            }
        }
    }

    fn run_job(&self, req: &JobRequest) -> Result<(ThresholdNetwork, SynthStats), String> {
        let setup_t0 = tels_metrics::enabled().then(Instant::now);
        validate_config(&req.config)?;
        let net = blif::parse_reader(req.blif.as_bytes()).map_err(|e| format!("blif: {e}"))?;
        // Mirror one-shot `tels synth`: factor by default, synthesize the
        // prepared network, verify (when asked) against the *original*.
        let factored = req.factor.then(|| script_algebraic(&net));
        let prepared = factored.as_ref().unwrap_or(&net);
        let config = &req.config;
        let cache = self.cache(config.cache_key());
        // Setup (parse, factoring, cache fetch) is the job's "queue wait":
        // everything before synthesis proper starts.
        let run_t0 = setup_t0.map(|t0| {
            metrics::SERVE_QUEUE_WAIT_NS.record(t0.elapsed().as_nanos() as u64);
            Instant::now()
        });
        let finish = |result: Result<(ThresholdNetwork, SynthStats), String>| {
            if let Some(t0) = run_t0 {
                metrics::SERVE_JOB_RUN_NS.record(t0.elapsed().as_nanos() as u64);
            }
            result
        };
        finish((|| {
            let (tn, stats) =
                synthesize_with_cache(prepared, config, &cache).map_err(|e| e.to_string())?;
            if req.verify {
                match tn
                    .verify_against(&net, 12, 1024, 1)
                    .map_err(|e| e.to_string())?
                {
                    None => {}
                    Some(cex) => return Err(format!("verification mismatch at {cex:?}")),
                }
            }
            Ok((tn, stats))
        })())
    }

    /// Handles one parsed request frame, returning the reply and whether
    /// this request asked the server to shut down. Takes the document by
    /// value: a synth job's BLIF text moves into the job uncopied.
    pub fn handle(&self, doc: Json) -> (Json, bool) {
        // Echo a numeric `id` in error replies even when the request is
        // otherwise malformed, so pipelined clients can correlate.
        let id = doc.get("id").and_then(Json::as_u64);
        match parse_request(doc) {
            Err(e) => (error_reply(id, &e), false),
            Ok(Request::Ping) => (
                Json::obj([("ok", Json::Bool(true)), ("pong", Json::Bool(true))]),
                false,
            ),
            Ok(Request::Stats) => (
                Json::obj([("ok", Json::Bool(true)), ("stats", self.stats_json())]),
                false,
            ),
            Ok(Request::Metrics {
                prometheus,
                recorder,
            }) => (self.metrics_reply(prometheus, recorder), false),
            Ok(Request::Shutdown) => {
                self.shutdown.store(true, Ordering::SeqCst);
                (
                    Json::obj([
                        ("ok", Json::Bool(true)),
                        ("shutting_down", Json::Bool(true)),
                    ]),
                    true,
                )
            }
            Ok(Request::Synth(job)) => match self.submit(&job) {
                Err(e) => (error_reply(job.id, &e), false),
                Ok(reply) => (
                    Json::obj([
                        ("id", Json::Num(reply.id as f64)),
                        ("ok", Json::Bool(true)),
                        ("model", Json::str(reply.tn.model())),
                        ("gates", Json::Num(reply.tn.num_gates() as f64)),
                        ("levels", Json::Num(reply.tn.depth() as f64)),
                        ("area", Json::Num(reply.tn.area() as f64)),
                        ("micros", Json::Num(reply.micros as f64)),
                        ("tnet", Json::str(reply.tn.to_tnet())),
                        ("stats", reply.stats.to_json()),
                    ]),
                    false,
                ),
            },
        }
    }

    /// Notes a malformed frame (unparseable JSON / non-UTF-8 payload) in
    /// the server counters.
    pub fn note_bad_frame(&self) {
        self.counters.lock().expect("counters poisoned").bad_frames += 1;
    }

    /// Server statistics: job counts, per-job latency histogram
    /// (microseconds, log2 buckets), cache population per configuration
    /// fingerprint, uptime.
    pub fn stats_json(&self) -> Json {
        let mut sections: Vec<(CacheKey, usize)> = self
            .caches
            .lock()
            .expect("cache map poisoned")
            .iter()
            .map(|(k, c)| (*k, c.len()))
            .collect();
        sections.sort_by_key(|(k, _)| k.encode());
        let total: usize = sections.iter().map(|(_, n)| n).sum();
        let cache_list: Vec<Json> = sections
            .into_iter()
            .map(|(k, n)| {
                Json::obj([
                    (
                        "fingerprint",
                        Json::Arr(k.encode().iter().map(|&w| Json::Num(w as f64)).collect()),
                    ),
                    ("entries", Json::Num(n as f64)),
                ])
            })
            .collect();
        let counters = self.counters.lock().expect("counters poisoned");
        Json::obj([
            ("jobs_ok", Json::Num(counters.jobs_ok as f64)),
            ("jobs_failed", Json::Num(counters.jobs_failed as f64)),
            ("bad_frames", Json::Num(counters.bad_frames as f64)),
            (
                "uptime_ms",
                Json::Num(self.started.elapsed().as_millis() as f64),
            ),
            ("cache_entries", Json::Num(total as f64)),
            ("caches", Json::Arr(cache_list)),
            ("job_latency_us", counters.latency_us.to_json()),
        ])
    }

    /// Saves every per-configuration cache to the configured cache file
    /// (atomic temp-file + rename; safe while jobs are running — each cache
    /// is snapshotted under its shard read locks). Returns the number of
    /// entries written, or `None` when no cache file is configured.
    ///
    /// # Errors
    ///
    /// Propagates file-system errors from writing the file.
    pub fn persist_now(&self) -> std::io::Result<Option<usize>> {
        let Some(path) = &self.cache_file else {
            return Ok(None);
        };
        let mut held: Vec<(CacheKey, Arc<RealizationCache>)> = self
            .caches
            .lock()
            .expect("cache map poisoned")
            .iter()
            .map(|(k, c)| (*k, Arc::clone(c)))
            .collect();
        // Deterministic section order, so identical contents produce an
        // identical file.
        held.sort_by_key(|(k, _)| k.encode());
        let refs: Vec<(CacheKey, &RealizationCache)> =
            held.iter().map(|(k, c)| (*k, &**c)).collect();
        persist::save(path, &refs).map(Some)
    }

    /// Whether this session was started with metrics collection enabled.
    pub fn metrics_on(&self) -> bool {
        self.metrics_on
    }

    /// Interval between periodic flight-recorder frames.
    pub fn metrics_interval(&self) -> Duration {
        self.metrics_interval
    }

    /// Takes one annotation-free flight-recorder frame (fresh snapshot).
    /// Called by the daemon's sampler thread.
    pub fn record_frame(&self) {
        self.recorder.record(None);
    }

    /// Builds the reply for a `metrics` request: a fresh registry snapshot
    /// as JSON or Prometheus text, optionally with the flight-recorder
    /// ring dumped alongside.
    fn metrics_reply(&self, prometheus: bool, recorder: bool) -> Json {
        let snap = tels_metrics::snapshot();
        let mut fields = vec![
            ("ok", Json::Bool(true)),
            ("enabled", Json::Bool(tels_metrics::enabled())),
        ];
        if prometheus {
            fields.push(("prometheus", Json::Str(snap.to_prometheus())));
        } else {
            fields.push(("metrics", snap.to_json()));
        }
        if recorder {
            fields.push(("recorder", self.recorder.to_json()));
        }
        Json::obj(fields)
    }

    /// Writes the final registry snapshot plus the flight-recorder ring to
    /// `<cache_file>.metrics.json`. No-op unless metrics are on and a
    /// cache file is configured. Called on daemon shutdown so the last
    /// run's counters survive the process.
    pub fn persist_metrics_now(&self) -> std::io::Result<Option<std::path::PathBuf>> {
        if !self.metrics_on {
            return Ok(None);
        }
        let Some(path) = &self.cache_file else {
            return Ok(None);
        };
        let mut out = path.clone();
        out.set_file_name(format!(
            "{}.metrics.json",
            out.file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_else(|| "cache".to_owned())
        ));
        let doc = Json::obj([
            ("final", tels_metrics::snapshot().to_json()),
            ("recorder", self.recorder.to_json()),
        ]);
        std::fs::write(&out, doc.pretty())?;
        Ok(Some(out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tels_core::TelsConfig;

    /// BLIF text of the first paper-suite circuit.
    fn suite_blif() -> String {
        blif::write(&tels_circuits::paper_suite()[0].network)
    }

    /// Default config with the tier-0 oracle disabled: tier-0 answers
    /// small-support queries without touching the cache, so tests that
    /// observe cache population and persistence must route queries past it.
    /// (`cache_key` ignores `use_tier0` — the fingerprint is unchanged.)
    fn cacheable_config() -> TelsConfig {
        TelsConfig {
            use_tier0: false,
            ..TelsConfig::default()
        }
    }

    fn session() -> ServeSession {
        ServeSession::new(ServeOptions::default()).expect("session")
    }

    #[test]
    fn serve_bytes_match_one_shot() {
        let s = session();
        let text = suite_blif();
        let req = JobRequest {
            blif: text.clone(),
            verify: true,
            config: cacheable_config(),
            ..JobRequest::default()
        };
        // One-shot reference: same preparation, fresh per-run cache.
        let net = blif::parse(&text).unwrap();
        let prepared = script_algebraic(&net);
        let (reference, _) =
            tels_core::synthesize_with_stats(&prepared, &cacheable_config()).unwrap();
        for round in 0..3 {
            let reply = s.submit(&req).expect("job");
            assert_eq!(
                reply.tn.to_tnet(),
                reference.to_tnet(),
                "serve output diverged on round {round}"
            );
        }
        // Cache persisted across jobs: the later rounds must have hits.
        assert!(!s.cache(cacheable_config().cache_key()).is_empty());
    }

    #[test]
    fn jobs_isolated_by_config_fingerprint() {
        let s = session();
        let text = suite_blif();
        let relaxed = cacheable_config();
        let strict = TelsConfig {
            delta_off: 2,
            ..cacheable_config()
        };
        let a = s
            .submit(&JobRequest {
                blif: text.clone(),
                config: relaxed.clone(),
                ..JobRequest::default()
            })
            .unwrap();
        let b = s
            .submit(&JobRequest {
                blif: text.clone(),
                config: strict.clone(),
                ..JobRequest::default()
            })
            .unwrap();
        // Distinct fingerprints must have populated distinct caches.
        assert!(!s.cache(relaxed.cache_key()).is_empty());
        assert!(!s.cache(strict.cache_key()).is_empty());
        // And the stricter margin must reproduce its own one-shot bytes.
        let net = blif::parse(&text).unwrap();
        let prepared = script_algebraic(&net);
        let (ref_default, _) = tels_core::synthesize_with_stats(&prepared, &relaxed).unwrap();
        let (ref_strict, _) = tels_core::synthesize_with_stats(&prepared, &strict).unwrap();
        assert_eq!(a.tn.to_tnet(), ref_default.to_tnet());
        assert_eq!(b.tn.to_tnet(), ref_strict.to_tnet());
    }

    #[test]
    fn bad_jobs_reported_not_fatal() {
        let s = session();
        let bad = JobRequest {
            blif: ".model broken\n.inputs a\n.names a a a\n.end\n".to_string(),
            ..JobRequest::default()
        };
        assert!(s.submit(&bad).is_err());
        // Session still serves good jobs afterwards.
        let good = JobRequest {
            blif: suite_blif(),
            ..JobRequest::default()
        };
        assert!(s.submit(&good).is_ok());
        let stats = s.stats_json();
        assert_eq!(stats.get("jobs_failed").and_then(Json::as_u64), Some(1));
        assert_eq!(stats.get("jobs_ok").and_then(Json::as_u64), Some(1));
        assert_eq!(
            stats
                .get("job_latency_us")
                .and_then(|h| h.get("count"))
                .and_then(Json::as_u64),
            Some(2)
        );
    }

    #[test]
    fn cache_roundtrips_through_disk_with_identical_answers() {
        let path =
            std::env::temp_dir().join(format!("tels-serve-cache-{}.bin", std::process::id()));
        std::fs::remove_file(&path).ok();
        let req = JobRequest {
            blif: suite_blif(),
            config: cacheable_config(),
            ..JobRequest::default()
        };
        let cold_tnet;
        let cold_entries;
        {
            let s = ServeSession::new(ServeOptions {
                cache_file: Some(path.clone()),
                ..ServeOptions::default()
            })
            .unwrap();
            cold_tnet = s.submit(&req).unwrap().tn.to_tnet();
            cold_entries = s.cache(cacheable_config().cache_key()).len();
            assert!(cold_entries > 0, "cold run must populate the cache");
            assert!(s.persist_now().unwrap().unwrap() >= cold_entries);
        }
        {
            let s = ServeSession::new(ServeOptions {
                cache_file: Some(path.clone()),
                ..ServeOptions::default()
            })
            .unwrap();
            let loaded = s.cache(cacheable_config().cache_key()).len();
            assert_eq!(loaded, cold_entries, "persisted entries must reload");
            let warm_tnet = s.submit(&req).unwrap().tn.to_tnet();
            assert_eq!(warm_tnet, cold_tnet, "persisted-warm bytes must match cold");
        }
        // A corrupt file must reject the session instead of panicking.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.truncate(bytes.len() / 2);
        std::fs::write(&path, &bytes).unwrap();
        let err = ServeSession::new(ServeOptions {
            cache_file: Some(path.clone()),
            ..ServeOptions::default()
        })
        .err()
        .expect("corrupt cache file must be rejected");
        assert!(err.contains("corrupt"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn concurrent_save_during_active_synthesis() {
        let path =
            std::env::temp_dir().join(format!("tels-serve-concurrent-{}.bin", std::process::id()));
        std::fs::remove_file(&path).ok();
        let s = ServeSession::new(ServeOptions {
            cache_file: Some(path.clone()),
            ..ServeOptions::default()
        })
        .unwrap();
        std::thread::scope(|scope| {
            let session = &s;
            let workers: Vec<_> = (0..2)
                .map(|_| {
                    scope.spawn(move || {
                        for _ in 0..4 {
                            session
                                .submit(&JobRequest {
                                    blif: suite_blif(),
                                    ..JobRequest::default()
                                })
                                .expect("job under concurrent save");
                        }
                    })
                })
                .collect();
            // Saver races the jobs: every intermediate file must load.
            scope.spawn(move || {
                for _ in 0..8 {
                    session.persist_now().expect("save during synthesis");
                    let sections = persist::load(&path).expect("saved file must be valid");
                    for (_, entries) in sections {
                        // Snapshot consistency: reloading mid-run entries
                        // into a fresh cache must be accepted wholesale.
                        RealizationCache::new().extend(entries);
                    }
                    std::thread::yield_now();
                }
            });
            for w in workers {
                w.join().unwrap();
            }
        });
        std::fs::remove_file(s.cache_file.as_ref().unwrap()).ok();
    }

    fn metrics_session() -> ServeSession {
        ServeSession::new(ServeOptions {
            metrics_enabled: true,
            ..ServeOptions::default()
        })
        .expect("session")
    }

    #[test]
    fn metrics_request_round_trips_json_and_prometheus() {
        let s = metrics_session();
        s.submit(&JobRequest {
            blif: suite_blif(),
            ..JobRequest::default()
        })
        .expect("job");

        let (reply, shutdown) = s.handle(protocol::metrics_request_json(false, false));
        assert!(!shutdown);
        assert_eq!(reply.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(reply.get("enabled"), Some(&Json::Bool(true)));
        let snap = reply.get("metrics").expect("json snapshot");
        let jobs_ok = snap
            .get("metrics")
            .and_then(|m| m.get("tels_serve_jobs_ok_total"))
            .and_then(Json::as_u64)
            .expect("jobs_ok counter");
        assert!(jobs_ok >= 1, "jobs_ok = {jobs_ok}");

        let (reply, _) = s.handle(protocol::metrics_request_json(true, true));
        let text = reply
            .get("prometheus")
            .and_then(Json::as_str)
            .expect("prometheus text");
        tels_metrics::lint_prometheus(text).expect("exposition must pass the lint");
        assert!(text.contains("# TYPE tels_serve_jobs_ok_total counter"));
        assert!(
            reply.get("recorder").and_then(Json::as_array).is_some(),
            "recorder dump requested"
        );
    }

    #[test]
    fn recorder_dump_on_failure_names_the_job() {
        let s = metrics_session();
        let err = s
            .submit(&JobRequest {
                id: Some(4242),
                blif: "this is not blif".to_string(),
                ..JobRequest::default()
            })
            .expect_err("malformed blif must fail");
        assert!(err.contains("blif"), "{err}");
        let dump = s.recorder.to_json().to_string();
        assert!(
            dump.contains("job 4242 failed"),
            "failure frame must name the job: {dump}"
        );
    }
}
