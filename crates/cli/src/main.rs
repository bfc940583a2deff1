//! `tels` — the command-line ThrEshold Logic Synthesizer.
//!
//! Mirrors the five commands of the paper's SIS-integrated tool (§V-F):
//! one-to-one mapping, threshold synthesis, simulation, and displaying of
//! network information.
//!
//! ```text
//! tels synth  <in.blif> [-o out.tnet] [--psi N] [--delta-on N] [--delta-off N]
//!             [--no-factor] [--best]          threshold network synthesis
//!             [--trace out.json] [--profile] [--stats-json]
//! tels map11  <in.blif> [-o out.tnet] [--psi N] ...
//!                                             one-to-one mapping baseline
//! tels sim    <file.blif|file.tnet> <bits...> simulate input vectors
//! tels verify <spec.blif> <impl.tnet>         check functional equivalence
//! tels info   <file.blif|file.tnet>           gate/level/area statistics
//! tels print  <file.blif|file.tnet>           dump the netlist
//! tels serve  --socket PATH | --stdio         batched synthesis daemon
//! tels client --socket PATH <in.blif...>      submit jobs to a daemon
//! tels top    --socket PATH                   live daemon metrics display
//! tels trace-check <trace.json> [stats.json]  validate trace/stats artifacts
//! ```

use std::fs;
use std::io;
use std::process::ExitCode;

use tels_core::perturb::{failure_rate, PerturbOptions};
use tels_core::{
    map_one_to_one, map_to_majority, parse_tnet, synthesize, synthesize_best,
    synthesize_with_stats, to_verilog, TelsConfig, ThresholdNetwork,
};
use tels_logic::opt::{script_algebraic, script_boolean};
use tels_logic::{blif, Network};
use tels_serve::protocol::JobRequest;
use tels_serve::{serve_stdio, serve_unix, Client, ServeOptions, ServeSession};
use tels_trace::export;
use tels_trace::json::Json;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("tels: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
usage: tels <command> [args]
  synth  <in.blif> [-o out.tnet] [--psi N] [--delta-on N] [--delta-off N]
         [--weight-cap N] [--no-factor] [--no-tier0] [--no-tier05]
         [--best]
         [--trace out.json] [--profile] [--stats-json]
  map11  <in.blif> [-o out.tnet] [--psi N] [--delta-on N] [--delta-off N]
  sim    <file.blif|file.tnet> <bits...>
  verify <spec.blif> <impl.tnet>
  perturb <in.blif> [--variation F] [--trials N] [--vectors N] [--seed N]
         [--threads N] [--delta-on N] [--psi N]
                                         Monte Carlo yield analysis (sVI-C):
                                         synthesize, disturb weights, report
                                         the instance failure rate
  info   <file.blif|file.tnet>
  print  <file.blif|file.tnet>
  qca    <in.blif> [-o out.blif]         synthesize at psi=3 and map to majority logic
  verilog <in.blif|in.tnet> [-o out.v]   emit structural Verilog
  suite  [--psi N]                       run the built-in Table-I benchmark suite
  fuzz   [--cases N] [--seed N] [--psi N] [--max-inputs N]
         [--max-nodes N] [--corpus DIR] [--no-shrink] [--progress N]
         differentially fuzz the synthesis pipeline
  fuzz   --replay DIR                    replay a reproducer corpus
  serve  --socket PATH | --stdio         run the batched synthesis daemon
         [--cache-file PATH] [--metrics]
         [--metrics-interval-ms N] [--recorder-cap N]
  client --socket PATH [in.blif...] [-o out.tnet] [--no-factor] [--verify]
         [--ping] [--stats] [--json] [--metrics] [--metrics-prom]
         [--lint-prom] [--recorder] [--malformed] [--shutdown]
                                         submit jobs to a running daemon
  top    --socket PATH [--interval-ms N] [--count N]
                                         live metrics display for a daemon
                                         started with --metrics
  trace-check <trace.json> [stats.json]  validate --trace / --stats-json artifacts";

fn run(args: &[String]) -> Result<(), String> {
    let (cmd, rest) = args.split_first().ok_or(USAGE.to_string())?;
    match cmd.as_str() {
        "synth" => cmd_synth(rest),
        "map11" => cmd_map11(rest),
        "sim" => cmd_sim(rest),
        "verify" => cmd_verify(rest),
        "perturb" => cmd_perturb(rest),
        "info" => cmd_info(rest),
        "print" => cmd_print(rest),
        "qca" => cmd_qca(rest),
        "verilog" => cmd_verilog(rest),
        "suite" => cmd_suite(rest),
        "fuzz" => cmd_fuzz(rest),
        "serve" => cmd_serve(rest),
        "client" => cmd_client(rest),
        "top" => cmd_top(rest),
        "trace-check" => cmd_trace_check(rest),
        "-h" | "--help" | "help" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command `{other}`\n{USAGE}")),
    }
}

struct SynthArgs {
    input: String,
    output: Option<String>,
    config: TelsConfig,
    factor: bool,
    best: bool,
    /// Write a Chrome-trace JSON of the run to this path.
    trace: Option<String>,
    /// Print the aggregated profile tree to stderr.
    profile: bool,
    /// Print a machine-readable stats object to stdout instead of the
    /// human-readable stderr summary (and instead of the netlist, unless
    /// `-o` redirects it).
    stats_json: bool,
}

fn parse_synth_args(args: &[String]) -> Result<SynthArgs, String> {
    let mut out = SynthArgs {
        input: String::new(),
        output: None,
        config: TelsConfig::default(),
        factor: true,
        best: false,
        trace: None,
        profile: false,
        stats_json: false,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut num = |name: &str| -> Result<i64, String> {
            it.next()
                .ok_or_else(|| format!("{name} requires a value"))?
                .parse()
                .map_err(|_| format!("{name} requires an integer"))
        };
        match a.as_str() {
            "-o" => {
                out.output = Some(
                    it.next()
                        .ok_or_else(|| "-o requires a path".to_string())?
                        .clone(),
                )
            }
            "--psi" => out.config.psi = num("--psi")? as usize,
            "--delta-on" => out.config.delta_on = num("--delta-on")?,
            "--delta-off" => out.config.delta_off = num("--delta-off")?,
            "--weight-cap" => out.config.weight_cap = Some(num("--weight-cap")?),
            "--no-factor" => out.factor = false,
            "--no-tier0" => out.config.use_tier0 = false,
            "--no-tier05" => out.config.use_tier05 = false,
            "--best" => out.best = true,
            "--trace" => {
                out.trace = Some(
                    it.next()
                        .ok_or_else(|| "--trace requires a path".to_string())?
                        .clone(),
                )
            }
            "--profile" => out.profile = true,
            "--stats-json" => out.stats_json = true,
            other if !other.starts_with('-') && out.input.is_empty() => {
                out.input = other.to_string()
            }
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    if out.input.is_empty() {
        return Err("missing input file".to_string());
    }
    if out.config.psi < 2 {
        return Err("--psi must be at least 2".to_string());
    }
    Ok(out)
}

fn read_blif(path: &str) -> Result<Network, String> {
    // Stream straight off disk: no full-file buffer, names interned once.
    let file = fs::File::open(path).map_err(|e| format!("{path}: {e}"))?;
    blif::parse_reader(io::BufReader::new(file)).map_err(|e| format!("{path}: {e}"))
}

fn read_tnet(path: &str) -> Result<ThresholdNetwork, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    parse_tnet(&text).map_err(|e| format!("{path}: {e}"))
}

fn emit_tnet(tn: &ThresholdNetwork, output: &Option<String>) -> Result<(), String> {
    let text = tn.to_tnet();
    match output {
        Some(path) => fs::write(path, text).map_err(|e| format!("{path}: {e}")),
        None => {
            print!("{text}");
            Ok(())
        }
    }
}

fn cmd_synth(args: &[String]) -> Result<(), String> {
    let a = parse_synth_args(args)?;
    if a.best && a.stats_json {
        return Err("--best collects no run statistics; drop --stats-json".to_string());
    }
    let tracing = a.trace.is_some() || a.profile;
    if tracing {
        tels_trace::enable();
        tels_trace::set_thread_label("main");
    }
    let net = read_blif(&a.input)?;
    let (tn, stats) = {
        let _span = tels_trace::span("cli", "synth");
        let prepared = if a.factor {
            script_algebraic(&net)
        } else {
            net.clone()
        };
        if a.best {
            (
                synthesize_best(&prepared, &a.config).map_err(|e| e.to_string())?,
                None,
            )
        } else {
            let (tn, stats) =
                synthesize_with_stats(&prepared, &a.config).map_err(|e| e.to_string())?;
            if !a.stats_json {
                eprintln!(
                    "tels: {} gates, {} levels, area {} | {} ILP calls, {} theorem-1 refutations, {} theorem-2 combines",
                    tn.num_gates(),
                    tn.depth(),
                    tn.area(),
                    stats.ilp_calls,
                    stats.theorem1_refutations,
                    stats.theorem2_combines
                );
                eprintln!(
                    "tels: {} ILP solves, {} tier-0 lookups, {} tier-0.5 answers ({} hits, {} rejects), {} cache hits ({} solves avoided)",
                    stats.ilp_solves,
                    stats.solver.tier0_lookups,
                    stats.solver.tier05_hits + stats.solver.tier05_rejects,
                    stats.solver.tier05_hits,
                    stats.solver.tier05_rejects,
                    stats.cache_hits,
                    stats.ilp_avoided()
                );
                let sv = &stats.solver;
                eprintln!(
                    "tels: solver: {} int fast-path, {} rational fallbacks, {} Chow-merged vars | structure {:.2} ms, int {:.2} ms, rational {:.2} ms",
                    sv.int_fast_path_solves,
                    sv.rational_fallbacks,
                    sv.chow_merged_vars,
                    sv.structure_ns as f64 / 1e6,
                    sv.int_solve_ns as f64 / 1e6,
                    sv.rational_solve_ns as f64 / 1e6
                );
            }
            (tn, Some(stats))
        }
    };
    match tn
        .verify_against(&net, 12, 1024, 1)
        .map_err(|e| e.to_string())?
    {
        None => eprintln!("tels: simulation check passed"),
        Some(cex) => return Err(format!("internal error: mismatch at {cex:?}")),
    }
    let trace = if tracing {
        tels_trace::disable();
        Some(tels_trace::drain())
    } else {
        None
    };
    if let Some(trace) = &trace {
        if let Some(path) = &a.trace {
            fs::write(path, export::chrome_trace(trace)).map_err(|e| format!("{path}: {e}"))?;
        }
        if a.profile {
            eprint!("{}", export::profile_tree(trace)?);
        }
    }
    if a.stats_json {
        let mut pairs: Vec<(&'static str, Json)> = vec![
            ("model", Json::str(tn.model())),
            ("gates", Json::Num(tn.num_gates() as f64)),
            ("levels", Json::Num(tn.depth() as f64)),
            ("area", Json::Num(tn.area() as f64)),
        ];
        if let Some(stats) = &stats {
            pairs.push(("stats", stats.to_json()));
        }
        println!("{}", Json::obj(pairs).pretty());
        if a.output.is_none() {
            // stdout carries the JSON object; the netlist needs `-o`.
            return Ok(());
        }
    }
    emit_tnet(&tn, &a.output)
}

/// Runs the batched synthesis daemon (`tels serve`): a long-lived process
/// holding per-configuration realization caches, fed
/// jobs over the framed JSON protocol on stdin/stdout (`--stdio`) or a
/// unix socket (`--socket`). With `--cache-file`, the realization caches
/// are loaded at startup and saved on shutdown, so threshold-check results
/// persist across daemon restarts.
fn cmd_serve(args: &[String]) -> Result<(), String> {
    let mut socket: Option<String> = None;
    let mut stdio = false;
    let mut cache_file: Option<String> = None;
    let mut metrics_enabled = false;
    let mut metrics_interval_ms = 0u64;
    let mut recorder_capacity = 0usize;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut num = |name: &str| -> Result<u64, String> {
            it.next()
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| format!("{name} requires a non-negative integer"))
        };
        match a.as_str() {
            "--socket" => {
                socket = Some(
                    it.next()
                        .ok_or_else(|| "--socket requires a path".to_string())?
                        .clone(),
                )
            }
            "--stdio" => stdio = true,
            "--cache-file" => {
                cache_file = Some(
                    it.next()
                        .ok_or_else(|| "--cache-file requires a path".to_string())?
                        .clone(),
                )
            }
            "--metrics" => metrics_enabled = true,
            "--metrics-interval-ms" => metrics_interval_ms = num("--metrics-interval-ms")?,
            "--recorder-cap" => recorder_capacity = num("--recorder-cap")? as usize,
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    if stdio == socket.is_some() {
        return Err("serve requires exactly one of --socket <path> or --stdio".to_string());
    }
    let session = ServeSession::new(ServeOptions {
        cache_file: cache_file.map(std::path::PathBuf::from),
        metrics_enabled,
        metrics_interval_ms,
        recorder_capacity,
    })?;
    if stdio {
        serve_stdio(&session).map_err(|e| e.to_string())?;
    } else {
        let path = socket.expect("checked above");
        eprintln!("tels: serving on {path}");
        serve_unix(std::sync::Arc::new(session), std::path::Path::new(&path))
            .map_err(|e| e.to_string())?;
        eprintln!("tels: daemon stopped");
    }
    Ok(())
}

/// Submits jobs to a running daemon (`tels client`): synthesizes each
/// positional BLIF file in order, plus optional `--ping`, `--stats`
/// (human-readable; `--json` for the raw object), `--metrics` /
/// `--metrics-prom` / `--lint-prom` live-metrics scrapes, `--malformed`
/// (deliberately unparseable frame, to exercise the daemon's error
/// containment) and `--shutdown` control requests.
fn cmd_client(args: &[String]) -> Result<(), String> {
    let mut socket: Option<String> = None;
    let mut files: Vec<String> = Vec::new();
    let mut output: Option<String> = None;
    let mut factor = true;
    let mut verify = false;
    let mut ping = false;
    let mut stats = false;
    let mut json = false;
    let mut metrics = false;
    let mut metrics_prom = false;
    let mut lint_prom = false;
    let mut recorder = false;
    let mut malformed = false;
    let mut shutdown = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--socket" => {
                socket = Some(
                    it.next()
                        .ok_or_else(|| "--socket requires a path".to_string())?
                        .clone(),
                )
            }
            "-o" => {
                output = Some(
                    it.next()
                        .ok_or_else(|| "-o requires a path".to_string())?
                        .clone(),
                )
            }
            "--no-factor" => factor = false,
            "--verify" => verify = true,
            "--ping" => ping = true,
            "--stats" => stats = true,
            "--json" => json = true,
            "--metrics" => metrics = true,
            "--metrics-prom" => metrics_prom = true,
            "--lint-prom" => lint_prom = true,
            "--recorder" => recorder = true,
            "--malformed" => malformed = true,
            "--shutdown" => shutdown = true,
            other if !other.starts_with('-') => files.push(other.to_string()),
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    let socket = socket.ok_or("client requires --socket <path>")?;
    if output.is_some() && files.len() != 1 {
        return Err("-o requires exactly one input file".to_string());
    }
    let mut client =
        Client::connect(std::path::Path::new(&socket)).map_err(|e| format!("{socket}: {e}"))?;
    if ping {
        let reply = client.ping()?;
        eprintln!("tels: ping -> {reply}");
    }
    if malformed {
        // A framed-but-unparseable payload: the daemon must answer with an
        // error reply and keep the connection usable for the jobs below.
        let reply = client.request_raw(b"{this is deliberately not json")?;
        if reply.get("ok") != Some(&Json::Bool(false)) {
            return Err(format!("malformed frame was not rejected: {reply}"));
        }
        eprintln!("tels: malformed frame rejected as expected: {reply}");
    }
    for path in &files {
        let blif = fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let req = JobRequest {
            blif,
            factor,
            verify,
            ..JobRequest::default()
        };
        let reply = client.synth(&req)?;
        if reply.get("ok") != Some(&Json::Bool(true)) {
            let msg = reply
                .get("error")
                .and_then(Json::as_str)
                .unwrap_or("unknown error");
            return Err(format!("{path}: job failed: {msg}"));
        }
        let tnet = reply
            .get("tnet")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{path}: reply lacks tnet payload"))?;
        eprintln!(
            "tels: {path}: {} gates, {} levels, area {} ({:.1} ms)",
            reply.get("gates").and_then(Json::as_u64).unwrap_or(0),
            reply.get("levels").and_then(Json::as_u64).unwrap_or(0),
            reply.get("area").and_then(Json::as_u64).unwrap_or(0),
            reply.get("micros").and_then(Json::as_f64).unwrap_or(0.0) / 1e3
        );
        match &output {
            Some(out) => fs::write(out, tnet).map_err(|e| format!("{out}: {e}"))?,
            None => print!("{tnet}"),
        }
    }
    if stats {
        let reply = client.stats()?;
        let body = reply.get("stats").unwrap_or(&reply);
        if json {
            println!("{}", body.pretty());
        } else {
            print_stats_pretty(body);
        }
    }
    if metrics {
        let reply = client.metrics(false, recorder)?;
        if reply.get("ok") != Some(&Json::Bool(true)) {
            return Err(format!("metrics request failed: {reply}"));
        }
        println!("{}", reply.pretty());
    }
    if metrics_prom || lint_prom {
        let reply = client.metrics(true, false)?;
        if reply.get("ok") != Some(&Json::Bool(true)) {
            return Err(format!("metrics request failed: {reply}"));
        }
        let text = reply
            .get("prometheus")
            .and_then(Json::as_str)
            .ok_or("metrics reply lacks prometheus text")?;
        if lint_prom {
            tels_metrics::lint_prometheus(text).map_err(|e| format!("prometheus lint: {e}"))?;
            eprintln!("tels: prometheus exposition passes the lint");
        }
        if metrics_prom {
            print!("{text}");
        }
    }
    if shutdown {
        let reply = client.shutdown()?;
        eprintln!("tels: shutdown -> {reply}");
    }
    Ok(())
}

/// Formats a microsecond quantity with a readable unit.
fn fmt_us(us: f64) -> String {
    if us < 1e3 {
        format!("{us:.0} µs")
    } else if us < 1e6 {
        format!("{:.1} ms", us / 1e3)
    } else {
        format!("{:.2} s", us / 1e6)
    }
}

/// Formats a nanosecond quantity with a readable unit.
fn fmt_ns(ns: f64) -> String {
    if ns < 1e3 {
        format!("{ns:.0} ns")
    } else {
        fmt_us(ns / 1e3)
    }
}

/// Formats a byte count with a readable unit.
fn fmt_bytes(b: f64) -> String {
    if b < 1024.0 {
        format!("{b:.0} B")
    } else if b < 1024.0 * 1024.0 {
        format!("{:.1} KiB", b / 1024.0)
    } else {
        format!("{:.1} MiB", b / (1024.0 * 1024.0))
    }
}

/// Human-readable `tels client --stats` output: counters in prose, the
/// latency histogram's log2 buckets rendered as microsecond ranges with a
/// scaled bar. `--json` restores the raw object.
fn print_stats_pretty(body: &Json) {
    let get = |k: &str| body.get(k).and_then(Json::as_f64).unwrap_or(0.0);
    println!(
        "jobs:        {:.0} ok, {:.0} failed, {:.0} bad frame(s)",
        get("jobs_ok"),
        get("jobs_failed"),
        get("bad_frames")
    );
    println!("uptime:      {}", fmt_us(get("uptime_ms") * 1e3));
    let caches = body
        .get("caches")
        .and_then(Json::as_array)
        .map_or(0, <[Json]>::len);
    println!(
        "cache:       {:.0} entries in {caches} configuration(s)",
        get("cache_entries")
    );
    let Some(lat) = body.get("job_latency_us") else {
        return;
    };
    let h = |k: &str| lat.get(k).and_then(Json::as_f64).unwrap_or(0.0);
    println!(
        "job latency: count {:.0}, mean {}, p50 {}, p90 {}, p99 {}, max {}",
        h("count"),
        fmt_us(h("mean")),
        fmt_us(h("p50")),
        fmt_us(h("p90")),
        fmt_us(h("p99")),
        fmt_us(h("max"))
    );
    let Some(buckets) = lat.get("buckets").and_then(Json::as_array) else {
        return;
    };
    let pairs: Vec<(u32, f64)> = buckets
        .iter()
        .filter_map(|b| {
            let cell = b.as_array()?;
            Some((cell.first()?.as_f64()? as u32, cell.get(1)?.as_f64()?))
        })
        .collect();
    let peak = pairs.iter().map(|&(_, n)| n).fold(0.0, f64::max);
    for (bits, n) in pairs {
        // Log2 bucket `bits` holds values in [2^(bits-1), 2^bits − 1] µs
        // (bucket 0 holds exactly 0).
        let (lo, hi) = if bits == 0 {
            (0u128, 0u128)
        } else {
            (1u128 << (bits - 1), (1u128 << bits) - 1)
        };
        let bar = "#".repeat(((n / peak.max(1.0)) * 30.0).ceil() as usize);
        println!(
            "  [{:>9} .. {:>9}]  {bar} {n:.0}",
            fmt_us(lo as f64),
            fmt_us(hi as f64)
        );
    }
}

/// Reads one metric out of a snapshot's `metrics` map as f64: counters and
/// gauges are plain numbers, per-index series contribute their `total`.
fn metric_value(snap: &Json, name: &str) -> f64 {
    let Some(v) = snap.get("metrics").and_then(|m| m.get(name)) else {
        return 0.0;
    };
    v.as_f64()
        .or_else(|| v.get("total").and_then(Json::as_f64))
        .unwrap_or(0.0)
}

/// Live metrics display (`tels top`): polls the daemon's `metrics` request
/// at a fixed interval, computes rates from consecutive snapshots, and
/// renders a compact refreshing dashboard. `--count 1` prints one frame
/// without clearing the screen (scriptable / testable); `--count 0` (the
/// default) runs until interrupted.
fn cmd_top(args: &[String]) -> Result<(), String> {
    let mut socket: Option<String> = None;
    let mut interval_ms = 1000u64;
    let mut count = 0usize;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut num = |name: &str| -> Result<u64, String> {
            it.next()
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| format!("{name} requires a non-negative integer"))
        };
        match a.as_str() {
            "--socket" => {
                socket = Some(
                    it.next()
                        .ok_or_else(|| "--socket requires a path".to_string())?
                        .clone(),
                )
            }
            "--interval-ms" => interval_ms = num("--interval-ms")?.max(50),
            "--count" => count = num("--count")? as usize,
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    let socket = socket.ok_or("top requires --socket <path>")?;
    let mut client =
        Client::connect(std::path::Path::new(&socket)).map_err(|e| format!("{socket}: {e}"))?;
    let mut prev: Option<Json> = None;
    let mut frames = 0usize;
    loop {
        let reply = client.metrics(false, false)?;
        if reply.get("ok") != Some(&Json::Bool(true)) {
            return Err(format!("metrics request failed: {reply}"));
        }
        let enabled = reply.get("enabled") == Some(&Json::Bool(true));
        let snap = reply
            .get("metrics")
            .cloned()
            .ok_or("metrics reply lacks a snapshot")?;
        frames += 1;
        if count != 1 {
            // Clear + home, like top(1); skipped for one-shot use so the
            // output composes with pipes and tests.
            print!("\x1b[2J\x1b[H");
        }
        render_top(&socket, &snap, prev.as_ref(), enabled);
        prev = Some(snap);
        if count != 0 && frames >= count {
            return Ok(());
        }
        std::thread::sleep(std::time::Duration::from_millis(interval_ms));
    }
}

/// Renders one `tels top` frame from a snapshot and its predecessor.
fn render_top(socket: &str, snap: &Json, prev: Option<&Json>, enabled: bool) {
    let v = |name: &str| metric_value(snap, name);
    let ts = snap.get("ts_ns").and_then(Json::as_f64).unwrap_or(0.0);
    let dt = prev
        .and_then(|p| p.get("ts_ns").and_then(Json::as_f64))
        .map(|t0| (ts - t0) / 1e9)
        .filter(|d| *d > 0.0);
    let rate = |name: &str| -> String {
        match (dt, prev) {
            (Some(dt), Some(p)) => {
                format!("{:.1}/s", (v(name) - metric_value(p, name)) / dt)
            }
            _ => "--/s".to_string(),
        }
    };
    println!(
        "tels top — {socket} — metrics {} — uptime {}",
        if enabled {
            "ON"
        } else {
            "OFF (start the daemon with --metrics)"
        },
        fmt_ns(ts)
    );
    println!();
    println!(
        "serve   jobs ok {:.0} ({})   failed {:.0}   inflight {:.0}   connections {:.0}",
        v("tels_serve_jobs_ok_total"),
        rate("tels_serve_jobs_ok_total"),
        v("tels_serve_jobs_failed_total"),
        v("tels_serve_jobs_inflight"),
        v("tels_serve_connections_open"),
    );
    println!(
        "        frames {:.0}   bytes in {} ({})   out {} ({})",
        v("tels_serve_frames_total"),
        fmt_bytes(v("tels_serve_bytes_in_total")),
        rate("tels_serve_bytes_in_total"),
        fmt_bytes(v("tels_serve_bytes_out_total")),
        rate("tels_serve_bytes_out_total"),
    );
    let hist = |name: &str, field: &str| -> f64 {
        snap.get("metrics")
            .and_then(|m| m.get(name))
            .and_then(|h| h.get(field))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    };
    println!(
        "        queue wait p50 {} p99 {}   job run p50 {} p99 {}",
        fmt_ns(hist("tels_serve_queue_wait_ns", "p50")),
        fmt_ns(hist("tels_serve_queue_wait_ns", "p99")),
        fmt_ns(hist("tels_serve_job_run_ns", "p50")),
        fmt_ns(hist("tels_serve_job_run_ns", "p99")),
    );
    // Every check past tier 0 probed the cache: a hit, or a miss that a
    // decider behind it settled (the ILP count also holds the rare cover
    // too wide for a cache key).
    let hits = v("tels_check_cache_hits_total");
    let misses = v("tels_check_tier05_total")
        + v("tels_check_theorem1_total")
        + v("tels_check_ilp_solves_total");
    let hit_rate = if hits + misses > 0.0 {
        1e2 * hits / (hits + misses)
    } else {
        0.0
    };
    println!(
        "cache   hits {hits:.0} ({})   misses {misses:.0}   hit rate {hit_rate:.1}%",
        rate("tels_check_cache_hits_total"),
    );
    println!(
        "check   tier0 {:.0}   tier05 {:.0}   cache {:.0}   theorem1 {:.0}   ilp {:.0}   canon {}",
        v("tels_check_tier0_total"),
        v("tels_check_tier05_total"),
        v("tels_check_cache_hits_total"),
        v("tels_check_theorem1_total"),
        v("tels_check_ilp_solves_total"),
        fmt_ns(v("tels_check_canon_ns_total")),
    );
    println!(
        "eval    vectors {:.0} ({})   perturb trials {:.0}",
        v("tels_eval_vectors_total"),
        rate("tels_eval_vectors_total"),
        v("tels_perturb_trials_total"),
    );
}

/// Validates a `--trace` Chrome-trace file (and optionally a `--stats-json`
/// object): the JSON must parse with the in-tree parser, begin/end events
/// must nest per thread, spans from all four instrumented crates must be
/// present, and the provenance journal must hold exactly one entry per
/// emitted gate.
fn cmd_trace_check(args: &[String]) -> Result<(), String> {
    let (trace_path, stats_path) = match args {
        [t] => (t, None),
        [t, s] => (t, Some(s)),
        _ => return Err("trace-check requires <trace.json> [stats.json]".to_string()),
    };
    let text = fs::read_to_string(trace_path).map_err(|e| format!("{trace_path}: {e}"))?;
    let doc = tels_trace::json::parse(&text).map_err(|e| format!("{trace_path}: {e}"))?;
    let summary = export::validate_chrome_json(&doc).map_err(|e| format!("{trace_path}: {e}"))?;
    for cat in ["cli", "core", "ilp", "logic"] {
        if !summary.categories.iter().any(|c| c == cat) {
            return Err(format!("{trace_path}: no `{cat}` events recorded"));
        }
    }
    if summary.provenance == 0 {
        return Err(format!("{trace_path}: provenance journal is empty"));
    }
    if let Some(stats_path) = stats_path {
        let text = fs::read_to_string(stats_path).map_err(|e| format!("{stats_path}: {e}"))?;
        let stats = tels_trace::json::parse(&text).map_err(|e| format!("{stats_path}: {e}"))?;
        for key in ["model", "gates", "levels", "area", "stats"] {
            if stats.get(key).is_none() {
                return Err(format!("{stats_path}: missing key `{key}`"));
            }
        }
        let run = stats.get("stats").expect("checked above");
        let solver = run
            .get("solver")
            .ok_or_else(|| format!("{stats_path}: missing key `stats.solver`"))?;
        if solver.get("support_hist").is_none() {
            return Err(format!(
                "{stats_path}: missing key `stats.solver.support_hist`"
            ));
        }
        // Every count the repository benchmark (`perfbench`) reads, so a
        // renamed counter fails here instead of reading 0 there.
        let counts: [(&Json, &str, &[&str]); 2] = [
            (
                run,
                "stats",
                &[
                    "ilp_calls",
                    "ilp_solves",
                    "cache_hits",
                    "theorem1_refutations",
                    "prefilter_rejections",
                    "theorem2_combines",
                    "collapses",
                    "unate_splits",
                    "binate_splits",
                ],
            ),
            (
                solver,
                "stats.solver",
                &[
                    "tier0_lookups",
                    "tier0_ns",
                    "tier05_hits",
                    "tier05_rejects",
                    "tier05_ns",
                    "structure_ns",
                    "int_solve_ns",
                    "rational_solve_ns",
                    "rational_fallbacks",
                ],
            ),
        ];
        for (object, path, keys) in counts {
            for key in keys {
                if object.get(key).and_then(Json::as_f64).is_none() {
                    return Err(format!("{stats_path}: missing count `{path}.{key}`"));
                }
            }
        }
        let gates = stats
            .get("gates")
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("{stats_path}: `gates` is not a count"))?;
        if summary.provenance as u64 != gates {
            return Err(format!(
                "{trace_path}: {} provenance entries for {} gates",
                summary.provenance, gates
            ));
        }
    }
    println!(
        "trace-check: ok ({} events, {} spans, {} provenance entries, categories: {})",
        summary.events,
        summary.spans,
        summary.provenance,
        summary.categories.join(",")
    );
    Ok(())
}

fn cmd_map11(args: &[String]) -> Result<(), String> {
    let a = parse_synth_args(args)?;
    let net = read_blif(&a.input)?;
    let tn = map_one_to_one(&net, &a.config).map_err(|e| e.to_string())?;
    eprintln!(
        "tels: {} gates, {} levels, area {}",
        tn.num_gates(),
        tn.depth(),
        tn.area()
    );
    emit_tnet(&tn, &a.output)
}

fn parse_bits(bits: &str, expected: usize) -> Result<Vec<bool>, String> {
    if bits.len() != expected {
        return Err(format!(
            "expected {expected} input bits, got {}",
            bits.len()
        ));
    }
    bits.chars()
        .map(|c| match c {
            '0' => Ok(false),
            '1' => Ok(true),
            other => Err(format!("invalid bit `{other}`")),
        })
        .collect()
}

fn cmd_sim(args: &[String]) -> Result<(), String> {
    let (path, vectors) = args
        .split_first()
        .ok_or("sim requires a netlist and at least one bit vector")?;
    if vectors.is_empty() {
        return Err("sim requires at least one bit vector".to_string());
    }
    if path.ends_with(".tnet") {
        let tn = read_tnet(path)?;
        for v in vectors {
            let assign = parse_bits(v, tn.num_inputs())?;
            let out = tn.eval(&assign).map_err(|e| e.to_string())?;
            println!(
                "{v} -> {}",
                out.iter()
                    .map(|&b| if b { '1' } else { '0' })
                    .collect::<String>()
            );
        }
    } else {
        let net = read_blif(path)?;
        for v in vectors {
            let assign = parse_bits(v, net.num_inputs())?;
            let out = net.eval(&assign).map_err(|e| e.to_string())?;
            println!(
                "{v} -> {}",
                out.iter()
                    .map(|&b| if b { '1' } else { '0' })
                    .collect::<String>()
            );
        }
    }
    Ok(())
}

fn cmd_verify(args: &[String]) -> Result<(), String> {
    let [spec, imp] = args else {
        return Err("verify requires <spec.blif> <impl.tnet>".to_string());
    };
    let net = read_blif(spec)?;
    let tn = read_tnet(imp)?;
    match tn
        .verify_against(&net, 14, 4096, 0x5eed)
        .map_err(|e| e.to_string())?
    {
        None => {
            println!("equivalent (up to simulation effort)");
            Ok(())
        }
        Some(cex) => Err(format!(
            "NOT equivalent: counterexample {}",
            cex.iter()
                .map(|&b| if b { '1' } else { '0' })
                .collect::<String>()
        )),
    }
}

/// §VI-C Monte Carlo yield analysis from the command line: synthesize the
/// input, disturb every weight by `variation · U(−0.5, 0.5)` per trial,
/// and report the fraction of disturbed instances that compute a wrong
/// output on any simulated vector, on the word-parallel engine.
fn cmd_perturb(args: &[String]) -> Result<(), String> {
    let mut input = String::new();
    let mut config = TelsConfig::default();
    let mut opts = PerturbOptions::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut num = |name: &str| -> Result<usize, String> {
            it.next()
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| format!("{name} requires a non-negative integer"))
        };
        match a.as_str() {
            "--variation" => {
                opts.variation = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--variation requires a number")?
            }
            "--trials" => opts.trials = num("--trials")?,
            "--vectors" => opts.vectors = num("--vectors")?,
            "--exhaustive-limit" => opts.exhaustive_limit = num("--exhaustive-limit")? as u32,
            "--seed" => opts.seed = num("--seed")? as u64,
            "--threads" => opts.threads = num("--threads")?,
            "--delta-on" => {
                config.delta_on = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--delta-on requires an integer")?
            }
            "--psi" => config.psi = num("--psi")?,
            other if !other.starts_with('-') && input.is_empty() => input = other.to_string(),
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    if input.is_empty() {
        return Err("perturb requires an input BLIF file".to_string());
    }
    if config.psi < 2 {
        return Err("--psi must be at least 2".to_string());
    }
    if opts.variation.is_nan() || opts.variation < 0.0 {
        return Err("--variation must be non-negative".to_string());
    }
    let net = read_blif(&input)?;
    let prepared = script_algebraic(&net);
    let tn = synthesize(&prepared, &config).map_err(|e| e.to_string())?;
    let rate = failure_rate(&tn, &net, &opts).map_err(|e| e.to_string())?;
    eprintln!(
        "tels: {} gates, area {}, delta_on {} | variation {}, {} trials x {} vectors, seed {:#x} (packed)",
        tn.num_gates(),
        tn.area(),
        config.delta_on,
        opts.variation,
        opts.trials,
        opts.vectors,
        opts.seed
    );
    println!(
        "failure rate: {:.6} ({:.2}% of {} trials)",
        rate,
        1e2 * rate,
        opts.trials
    );
    Ok(())
}

fn cmd_info(args: &[String]) -> Result<(), String> {
    let [path] = args else {
        return Err("info requires exactly one netlist".to_string());
    };
    if path.ends_with(".tnet") {
        let tn = read_tnet(path)?;
        println!("model:   {}", tn.model());
        println!("{}", tn.report());
    } else {
        let net = read_blif(path)?;
        println!("model:    {}", net.model());
        println!("inputs:   {}", net.num_inputs());
        println!("outputs:  {}", net.outputs().len());
        println!("nodes:    {}", net.num_logic_nodes());
        println!("literals: {}", net.num_literals());
        println!("levels:   {}", net.depth().map_err(|e| e.to_string())?);
    }
    Ok(())
}

fn cmd_qca(args: &[String]) -> Result<(), String> {
    let mut a = parse_synth_args(args)?;
    if a.config.psi > 3 {
        return Err("qca mapping requires --psi <= 3".to_string());
    }
    a.config.psi = a.config.psi.min(3);
    let net = read_blif(&a.input)?;
    let prepared = if a.factor {
        script_algebraic(&net)
    } else {
        net.clone()
    };
    let tn = synthesize(&prepared, &a.config).map_err(|e| e.to_string())?;
    let (qca, stats) = map_to_majority(&tn).map_err(|e| e.to_string())?;
    eprintln!(
        "tels: {} threshold gates -> {} majority gates + {} inverters",
        tn.num_gates(),
        stats.majority_gates,
        stats.inverters
    );
    let text = blif::write(&qca);
    match &a.output {
        Some(path) => fs::write(path, text).map_err(|e| format!("{path}: {e}")),
        None => {
            print!("{text}");
            Ok(())
        }
    }
}

fn cmd_verilog(args: &[String]) -> Result<(), String> {
    let a = parse_synth_args(args)?;
    let tn = if a.input.ends_with(".tnet") {
        read_tnet(&a.input)?
    } else {
        let net = read_blif(&a.input)?;
        let prepared = if a.factor {
            script_algebraic(&net)
        } else {
            net.clone()
        };
        synthesize(&prepared, &a.config).map_err(|e| e.to_string())?
    };
    let text = to_verilog(&tn);
    match &a.output {
        Some(path) => fs::write(path, text).map_err(|e| format!("{path}: {e}")),
        None => {
            print!("{text}");
            Ok(())
        }
    }
}

fn cmd_suite(args: &[String]) -> Result<(), String> {
    let mut config = TelsConfig::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--psi" => {
                config.psi = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--psi requires an integer")?
            }
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    println!(
        "{:<14} | {:>10} {:>7} {:>7} | {:>10} {:>7} {:>7}",
        "benchmark", "1:1 gates", "levels", "area", "TELS gates", "levels", "area"
    );
    println!("{}", "-".repeat(78));
    for b in tels_circuits::paper_suite() {
        let boolean = script_boolean(&b.network);
        let algebraic = script_algebraic(&b.network);
        let baseline = map_one_to_one(&boolean, &config).map_err(|e| e.to_string())?;
        let tels = synthesize(&algebraic, &config).map_err(|e| e.to_string())?;
        println!(
            "{:<14} | {:>10} {:>7} {:>7} | {:>10} {:>7} {:>7}",
            b.name,
            baseline.num_gates(),
            baseline.depth(),
            baseline.area(),
            tels.num_gates(),
            tels.depth(),
            tels.area()
        );
    }
    Ok(())
}

fn cmd_fuzz(args: &[String]) -> Result<(), String> {
    let mut opts = tels_fuzz::FuzzOptions {
        progress_every: 1000,
        ..tels_fuzz::FuzzOptions::default()
    };
    let mut replay: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut num = |name: &str| -> Result<usize, String> {
            it.next()
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| format!("{name} requires a non-negative integer"))
        };
        match a.as_str() {
            "--cases" => opts.cases = num("--cases")?,
            "--seed" => opts.seed = num("--seed")? as u64,
            "--psi" => opts.oracle.psi = num("--psi")?,
            "--max-inputs" => opts.gen.max_inputs = num("--max-inputs")?.max(2),
            "--max-nodes" => opts.gen.max_nodes = num("--max-nodes")?.max(1),
            "--progress" => opts.progress_every = num("--progress")?,
            "--no-shrink" => opts.shrink = false,
            "--corpus" => {
                opts.corpus_dir = Some(
                    it.next()
                        .ok_or_else(|| "--corpus requires a directory".to_string())?
                        .into(),
                )
            }
            "--replay" => {
                replay = Some(
                    it.next()
                        .ok_or_else(|| "--replay requires a directory".to_string())?
                        .clone(),
                )
            }
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }

    if let Some(dir) = replay {
        // replay_corpus tolerates a missing directory (Ok(0)) so the corpus
        // test passes on a fresh checkout; from the CLI a typo'd path must
        // not silently count as a clean replay.
        if !std::path::Path::new(&dir).is_dir() {
            return Err(format!("--replay: no such directory `{dir}`"));
        }
        return match tels_fuzz::replay_corpus(std::path::Path::new(&dir), &opts.oracle) {
            Ok(n) => {
                println!("corpus replay: {n} reproducer(s) pass the oracle");
                Ok(())
            }
            Err(bad) => {
                for (path, why) in &bad {
                    eprintln!("FAIL {}: {}", path.display(), why);
                }
                Err(format!("{} corpus file(s) failed", bad.len()))
            }
        };
    }

    let report = tels_fuzz::fuzz(&opts);
    if report.failures.is_empty() {
        println!(
            "fuzz: {} case(s) passed the full oracle matrix (seed {}, psi {})",
            report.cases, opts.seed, opts.oracle.psi
        );
        return Ok(());
    }
    for f in &report.failures {
        eprintln!(
            "FAIL case {} (seed {:#x}) on the {} leg: {}",
            f.case_index,
            f.case_seed,
            f.kind.tag(),
            f.detail
        );
        match &f.corpus_path {
            Some(p) => eprintln!("  reproducer: {}", p.display()),
            None => eprintln!(
                "  reproducer (rerun with --corpus DIR to save):\n{}",
                tels_fuzz::reproducer_blif(f)
            ),
        }
    }
    Err(format!(
        "{} of {} case(s) failed the differential oracle",
        report.failures.len(),
        report.cases
    ))
}

fn cmd_print(args: &[String]) -> Result<(), String> {
    let [path] = args else {
        return Err("print requires exactly one netlist".to_string());
    };
    if path.ends_with(".tnet") {
        print!("{}", read_tnet(path)?.to_tnet());
    } else {
        print!("{}", blif::write(&read_blif(path)?));
    }
    Ok(())
}
