//! The `serve_mixed` workload: a warm in-process daemon on its unix-socket
//! transport, driven by two closed-loop clients.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use tels_circuits::paper_suite;
use tels_core::{synthesize_with_stats, TelsConfig};
use tels_logic::blif;
use tels_logic::opt::script_algebraic;
use tels_logic::rng::Xoshiro256;
use tels_serve::protocol::{synth_request_json, JobRequest};
use tels_serve::{serve_unix, Client, ServeOptions, ServeSession};
use tels_trace::json::Json;

use crate::layers::LayerSums;
use crate::oneshot::{wide_circuits, VERIFY_EXHAUSTIVE, VERIFY_PATTERNS};
use crate::stats::{mean, median, shuffle};
use crate::trace::Tracer;
use crate::{Checks, Outcome};

/// Closed-loop clients, one connection each.
pub const CLIENTS: usize = 2;
/// `wide_psi9` circuits mixed into the job list; with the ten suite
/// circuits an odd count of distinct jobs, so the median falls inside one
/// job's spread.
const WIDE_JOBS: usize = 5;
/// Passes over each client's job list in the in-process `submit` phase.
const SUBMIT_PASSES: usize = 4;

/// One distinct daemon job: pre-factored BLIF, `factor: false`.
pub struct Job {
    pub name: String,
    pub req: JobRequest,
    /// Logic nodes of the factored network the daemon synthesizes.
    pub nodes: usize,
    pub literals: usize,
}

/// The job list: the ten paper-suite circuits at psi = 3 and five of the
/// `wide_psi9` circuits at psi = 9, all factored here.
pub fn jobs() -> Vec<Job> {
    let suite = paper_suite().into_iter().map(|b| {
        let text = blif::write(&script_algebraic(&b.network));
        (b.name.to_string(), text, TelsConfig::default())
    });
    let wide = wide_circuits(WIDE_JOBS)
        .into_iter()
        .map(|c| (c.name, c.text, c.config));
    suite
        .chain(wide)
        .enumerate()
        .map(|(i, (name, text, config))| {
            let net = blif::parse(&text).expect("factored generator output parses");
            Job {
                name,
                nodes: net.num_logic_nodes(),
                literals: net.num_literals(),
                req: JobRequest {
                    id: Some(i as u64),
                    blif: text,
                    factor: false,
                    verify: false,
                    config,
                },
            }
        })
        .collect()
}

/// A running daemon: session, accept thread, socket path.
pub struct Daemon {
    session: Arc<ServeSession>,
    server: JoinHandle<std::io::Result<()>>,
    path: PathBuf,
}

impl Daemon {
    /// Starts a daemon with default options (pool width = `nproc`) and
    /// waits until it answers a ping.
    pub fn start(tag: usize) -> Result<Daemon, String> {
        let session = Arc::new(ServeSession::new(ServeOptions::default())?);
        // A relative path keeps the socket inside the working directory and
        // clear of the platform's socket path length limit.
        let path = PathBuf::from(format!("perfbench-serve-{}-{tag}.sock", std::process::id()));
        let server = {
            let (session, path) = (Arc::clone(&session), path.clone());
            std::thread::spawn(move || serve_unix(session, &path))
        };
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match Client::connect(&path).map(|mut c| c.ping()) {
                Ok(Ok(_)) => break,
                _ if Instant::now() < deadline && !server.is_finished() => {
                    std::thread::sleep(Duration::from_millis(1));
                }
                _ => {
                    let _ = std::fs::remove_file(&path);
                    if !server.is_finished() {
                        return Err("daemon did not answer a ping within 10 s".to_string());
                    }
                    return Err(match server.join() {
                        Ok(Err(e)) => format!("daemon failed to start: {e}"),
                        _ => "daemon stopped before answering a ping".to_string(),
                    });
                }
            }
        }
        Ok(Daemon {
            session,
            server,
            path,
        })
    }

    pub fn connect(&self) -> Result<Client, String> {
        Client::connect(&self.path).map_err(|e| format!("connect: {e}"))
    }

    pub fn pool_width(&self) -> usize {
        self.session.threads()
    }

    /// Asks the daemon to stop (every other client must be closed first)
    /// and waits for its threads.
    pub fn stop(self) -> Result<(), String> {
        let reply = self.connect()?.shutdown();
        let joined = self.server.join();
        let _ = std::fs::remove_file(&self.path);
        reply?;
        match joined {
            Ok(Ok(())) => Ok(()),
            Ok(Err(e)) => Err(format!("daemon: {e}")),
            Err(_) => Err("daemon thread panicked".to_string()),
        }
    }
}

/// A set-up daemon with its job list and the replies of the warming pass.
pub struct Served {
    jobs: Vec<Job>,
    pub daemon: Daemon,
    warm: Vec<Json>,
}

/// Set-up: factor the job list and start the daemon, then warm its
/// caches with one pass over the job list so the measured window sees a
/// warm daemon.
pub fn setup(tag: usize) -> Result<Served, String> {
    let jobs = jobs();
    let daemon = Daemon::start(tag)?;
    let mut client = daemon.connect()?;
    let warm = jobs
        .iter()
        .map(|j| client.synth(&j.req))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Served { jobs, daemon, warm })
}

/// One-shot reference output for every job: the `.tnet` a served reply
/// must match byte for byte, verified against its source.
fn references(jobs: &[Job], checks: &mut Checks) -> Vec<Option<String>> {
    jobs.iter()
        .map(|j| {
            checks.attempted += 1;
            let result = blif::parse_reader(j.req.blif.as_bytes())
                .map_err(|e| e.to_string())
                .and_then(|net| {
                    let (tn, _) =
                        synthesize_with_stats(&net, &j.req.config).map_err(|e| e.to_string())?;
                    match tn.verify_against(&net, VERIFY_EXHAUSTIVE, VERIFY_PATTERNS, 0x5E7E) {
                        Ok(None) => Ok(tn.to_tnet()),
                        Ok(Some(cex)) => Err(format!("differs from its source at {cex:?}")),
                        Err(e) => Err(e.to_string()),
                    }
                });
            result
                .map_err(|e| checks.fail(&format!("{}: one-shot reference: {e}", j.name)))
                .ok()
        })
        .collect()
}

/// Checks one reply against the one-shot reference; returns its `.tnet`
/// length, server time (µs) and quality when it is correct.
fn check_reply(
    reply: &Json,
    job: &Job,
    reference: Option<&String>,
) -> Result<(usize, f64, [u64; 3]), String> {
    if reply.get("ok") != Some(&Json::Bool(true)) {
        let msg = reply
            .get("error")
            .and_then(Json::as_str)
            .unwrap_or("refused");
        return Err(format!("{}: daemon error: {msg}", job.name));
    }
    let tnet = reply.get("tnet").and_then(Json::as_str).unwrap_or_default();
    if reference.map(String::as_str) != Some(tnet) {
        return Err(format!(
            "{}: served .tnet differs from the one-shot bytes",
            job.name
        ));
    }
    let num = |k: &str| reply.get(k).and_then(Json::as_f64).unwrap_or(0.0);
    let quality = [
        num("gates") as u64,
        num("levels") as u64,
        num("area") as u64,
    ];
    Ok((tnet.len(), num("micros"), quality))
}

/// What one client thread measured.
struct ClientLog {
    rt_ms: Vec<f64>,
    server_ms: Vec<f64>,
    attempted: usize,
    errors: Vec<String>,
    sums: LayerSums,
    tracer: Tracer,
}

/// One closed-loop client: cycles its seeded shuffle of the job list,
/// sending the next request only after the previous reply arrived. A
/// transport error ends the client; a failed job does not.
fn client_loop(
    daemon: &Daemon,
    jobs: &[Job],
    refs: &[Option<String>],
    mut rng: Xoshiro256,
    budget: Duration,
    mut tracer: Tracer,
    id_base: u64,
) -> ClientLog {
    let (mut rt_ms, mut server_ms, mut errors) = (Vec::new(), Vec::new(), Vec::new());
    let mut sums = LayerSums::default();
    let mut attempted = 0;
    let frame_in: Vec<usize> = jobs
        .iter()
        .map(|j| 4 + synth_request_json(&j.req).to_string().len())
        .collect();
    let mut order: Vec<usize> = (0..jobs.len()).collect();
    let start = Instant::now();
    match daemon.connect() {
        Err(e) => {
            attempted += 1;
            errors.push(e);
        }
        Ok(mut client) => {
            'run: while start.elapsed() < budget {
                shuffle(&mut rng, &mut order);
                for &i in &order {
                    attempted += 1;
                    let t0 = Instant::now();
                    tracer.begin_job(id_base + attempted as u64);
                    tracer.begin("serve.roundtrip");
                    let reply = client.synth(&jobs[i].req);
                    tracer.end();
                    tracer.end();
                    let rt = t0.elapsed().as_secs_f64() * 1e3;
                    let reply = match reply {
                        Ok(r) => r,
                        Err(e) => {
                            errors.push(format!("{}: transport: {e}", jobs[i].name));
                            break 'run;
                        }
                    };
                    let (tnet_len, micros) = match check_reply(&reply, &jobs[i], refs[i].as_ref()) {
                        Ok((len, micros, _)) => (len, micros),
                        Err(e) => {
                            errors.push(e);
                            continue;
                        }
                    };
                    rt_ms.push(rt);
                    server_ms.push(micros / 1e3);
                    if tracer.on() {
                        sums.jobs += 1;
                        sums.add("serve.frame_bytes_in", frame_in[i] as f64);
                        sums.add(
                            "serve.frame_bytes_out",
                            (4 + reply.to_string().len()) as f64,
                        );
                        sums.add("tnet.bytes", tnet_len as f64);
                        sums.add("opt.nodes_out", jobs[i].nodes as f64);
                        sums.add("opt.literals_out", jobs[i].literals as f64);
                        if let Some(stats) = reply.get("stats") {
                            sums.add_stats(stats);
                        }
                    }
                }
            }
        }
    }
    ClientLog {
        rt_ms,
        server_ms,
        attempted,
        errors,
        sums,
        tracer,
    }
}

/// Runs `CLIENTS` closed-loop clients for `budget`; merges their logs.
fn run_clients(
    daemon: &Daemon,
    jobs: &[Job],
    refs: &[Option<String>],
    rng: &mut Xoshiro256,
    budget: Duration,
    traced: Option<&mut Tracer>,
    checks: &mut Checks,
) -> (Vec<f64>, Vec<f64>, LayerSums, f64) {
    let epoch = traced.as_ref().map(|t| t.epoch());
    let seeds: Vec<u64> = (0..CLIENTS).map(|_| rng.next_u64()).collect();
    let start = Instant::now();
    let logs: Vec<ClientLog> = std::thread::scope(|scope| {
        let handles: Vec<_> = seeds
            .iter()
            .enumerate()
            .map(|(c, &seed)| {
                let tracer = Tracer::new(epoch.is_some(), epoch.unwrap_or_else(Instant::now));
                let id_base = (c as u64 + 1) << 32;
                scope.spawn(move || {
                    client_loop(
                        daemon,
                        jobs,
                        refs,
                        Xoshiro256::seed_from_u64(seed),
                        budget,
                        tracer,
                        id_base,
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall_s = start.elapsed().as_secs_f64();
    let (mut rt, mut server, mut sums) = (Vec::new(), Vec::new(), LayerSums::default());
    let mut traced = traced;
    for log in logs {
        checks.attempted += log.attempted;
        for e in &log.errors {
            checks.fail(e);
        }
        rt.extend(log.rt_ms);
        server.extend(log.server_ms);
        sums.merge(log.sums);
        if let Some(t) = traced.as_deref_mut() {
            t.absorb(log.tracer);
        }
    }
    (rt, server, sums, wall_s)
}

/// Runs `serve_mixed` on a daemon that [`setup`] started and warmed.
pub fn run(served: Served, seed: u64, seconds: u64, tr: &mut Tracer) -> Outcome {
    let Served { jobs, daemon, warm } = served;
    let jobs = &jobs[..];
    let mut checks = Checks::new(jobs.len());
    let refs = references(jobs, &mut checks);
    for (i, (reply, job)) in warm.iter().zip(jobs).enumerate() {
        checks.attempted += 1;
        match check_reply(reply, job, refs[i].as_ref()) {
            Ok((_, _, quality)) => {
                checks.same_output(
                    i,
                    &job.name,
                    refs[i].as_deref().unwrap_or_default(),
                    quality,
                );
            }
            Err(e) => checks.fail(&e),
        }
    }
    let mut rng = Xoshiro256::seed_from_u64(seed);
    let budget = Duration::from_secs(seconds);
    let mut metrics = BTreeMap::new();
    if !tr.on() {
        let (rt, _, _, wall_s) =
            run_clients(&daemon, jobs, &refs, &mut rng, budget, None, &mut checks);
        crate::latency_metrics(&mut metrics, &rt, wall_s);
        checks.quality_metrics(&mut metrics);
    } else {
        let (base, ..) = run_clients(
            &daemon,
            jobs,
            &refs,
            &mut rng,
            budget / 2,
            None,
            &mut checks,
        );
        let (rt, server, sums, _) = run_clients(
            &daemon,
            jobs,
            &refs,
            &mut rng,
            budget / 2,
            Some(tr),
            &mut checks,
        );
        let submit_ms = submit_phase(&daemon, jobs, &refs, &mut rng, tr, &mut checks);
        let rt_ms = mean(&rt);
        let server_ms = mean(&server);
        metrics.insert("serve.roundtrip_ms", rt_ms);
        metrics.insert("serve.server_ms", server_ms);
        metrics.insert("serve.frame_ms", rt_ms - server_ms);
        metrics.insert("serve.submit_ms", submit_ms);
        sums.report(&mut metrics);
        metrics.insert(
            "trace.unattributed_ms",
            tr.self_ms().get("job").copied().unwrap_or(0.0) / sums.jobs.max(1) as f64,
        );
        let base_p50 = median(&base);
        metrics.insert(
            "trace.overhead_pct",
            (median(&rt) - base_p50) / base_p50 * 100.0,
        );
        metrics.insert("trace.dominant_pct", (rt_ms - server_ms) / rt_ms * 100.0);
        eprintln!(
            "perfbench: daemon pool width {}, {CLIENTS} closed-loop clients",
            daemon.pool_width()
        );
        crate::print_shares(
            rt_ms,
            &[
                ("serve frame (round trip - server)", rt_ms - server_ms),
                ("serve server (reply micros)", server_ms),
                ("  of which check tiers", sums.check_ms_per_job()),
                ("unattributed", metrics["trace.unattributed_ms"]),
            ],
        );
    }
    if let Err(e) = daemon.stop() {
        checks.fail(&e);
    }
    checks.outcome(metrics)
}

/// `ServeSession::submit` in process, on each client's shuffled job list,
/// from `CLIENTS` threads: the daemon's job cost without the transport.
/// Returns the mean submit time in ms.
fn submit_phase(
    daemon: &Daemon,
    jobs: &[Job],
    refs: &[Option<String>],
    rng: &mut Xoshiro256,
    tr: &mut Tracer,
    checks: &mut Checks,
) -> f64 {
    let session = &daemon.session;
    let orders: Vec<Vec<usize>> = (0..CLIENTS)
        .map(|_| {
            let mut order: Vec<usize> = (0..jobs.len()).collect();
            shuffle(rng, &mut order);
            order
        })
        .collect();
    let epoch = tr.epoch();
    let results: Vec<(Tracer, Vec<f64>, Vec<String>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = orders
            .iter()
            .enumerate()
            .map(|(c, order)| {
                scope.spawn(move || {
                    let mut t = Tracer::new(true, epoch);
                    let (mut times, mut errors) = (Vec::new(), Vec::new());
                    for pass in 0..SUBMIT_PASSES {
                        for &i in order {
                            t.set_job(
                                ((CLIENTS + 1 + c) as u64) << 32 | (pass * jobs.len() + i) as u64,
                            );
                            t.begin("serve.submit");
                            let reply = session.submit(&jobs[i].req);
                            times.push(t.end());
                            match reply {
                                Ok(r) if refs[i].as_deref() == Some(r.tn.to_tnet().as_str()) => {}
                                Ok(_) => errors.push(format!(
                                    "{}: submitted .tnet differs from the one-shot bytes",
                                    jobs[i].name
                                )),
                                Err(e) => errors.push(format!("{}: submit: {e}", jobs[i].name)),
                            }
                        }
                    }
                    (t, times, errors)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("submit thread panicked"))
            .collect()
    });
    let mut all = Vec::new();
    for (t, times, errors) in results {
        checks.attempted += times.len();
        for e in &errors {
            checks.fail(e);
        }
        all.extend(times);
        tr.absorb(t);
    }
    mean(&all)
}
