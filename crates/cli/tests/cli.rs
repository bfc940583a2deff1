//! Integration tests driving the `tels` binary end to end.

use std::fs;
use std::path::PathBuf;
use std::process::{Child, Command, Output};

const SAMPLE: &str = "\
.model sample
.inputs a b c d
.outputs f g
.names a b t
11 1
.names t c f
1- 1
-1 1
.names c d g
10 1
01 1
.end
";

fn workdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tels_cli_{tag}"));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn tels(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_tels"))
        .args(args)
        .output()
        .expect("run tels binary")
}

fn stdout(o: &Output) -> String {
    String::from_utf8_lossy(&o.stdout).into_owned()
}

fn stderr(o: &Output) -> String {
    String::from_utf8_lossy(&o.stderr).into_owned()
}

/// A running `tels serve`, killed and reaped on drop, so a failing
/// assertion does not leave the daemon (and the test's output pipe) behind.
struct Daemon(Child);

impl Daemon {
    fn spawn(args: &[&str]) -> Daemon {
        Daemon(
            Command::new(env!("CARGO_BIN_EXE_tels"))
                .args(args)
                .spawn()
                .expect("spawn daemon"),
        )
    }

    /// Whether the daemon exits by itself within 10 s.
    fn exits(&mut self) -> bool {
        for _ in 0..100 {
            if self.0.try_wait().expect("poll daemon").is_some() {
                return true;
            }
            std::thread::sleep(std::time::Duration::from_millis(100));
        }
        false
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

#[test]
fn help_shows_usage() {
    let o = tels(&["--help"]);
    assert!(o.status.success());
    assert!(stdout(&o).contains("usage: tels"));
}

#[test]
fn unknown_command_fails() {
    let o = tels(&["frobnicate"]);
    assert!(!o.status.success());
    assert!(stderr(&o).contains("unknown command"));
}

#[test]
fn synth_round_trip_and_verify() {
    let dir = workdir("synth");
    let blif = dir.join("sample.blif");
    let tnet = dir.join("sample.tnet");
    fs::write(&blif, SAMPLE).unwrap();

    let o = tels(&[
        "synth",
        blif.to_str().unwrap(),
        "-o",
        tnet.to_str().unwrap(),
        "--psi",
        "3",
    ]);
    assert!(o.status.success(), "synth failed: {}", stderr(&o));
    assert!(stderr(&o).contains("simulation check passed"));
    assert!(tnet.exists());

    let v = tels(&["verify", blif.to_str().unwrap(), tnet.to_str().unwrap()]);
    assert!(v.status.success(), "verify failed: {}", stderr(&v));
    assert!(stdout(&v).contains("equivalent"));
}

#[test]
fn map11_reports_stats() {
    let dir = workdir("map11");
    let blif = dir.join("sample.blif");
    fs::write(&blif, SAMPLE).unwrap();
    let o = tels(&["map11", blif.to_str().unwrap()]);
    assert!(o.status.success(), "{}", stderr(&o));
    assert!(stderr(&o).contains("gates"));
    assert!(stdout(&o).contains(".gate"));
}

#[test]
fn sim_blif_and_tnet_agree() {
    let dir = workdir("sim");
    let blif = dir.join("sample.blif");
    let tnet = dir.join("sample.tnet");
    fs::write(&blif, SAMPLE).unwrap();
    let o = tels(&[
        "synth",
        blif.to_str().unwrap(),
        "-o",
        tnet.to_str().unwrap(),
    ]);
    assert!(o.status.success(), "{}", stderr(&o));

    for bits in ["0000", "1100", "1010", "0110", "1111"] {
        let b = tels(&["sim", blif.to_str().unwrap(), bits]);
        let t = tels(&["sim", tnet.to_str().unwrap(), bits]);
        assert!(b.status.success() && t.status.success());
        assert_eq!(stdout(&b), stdout(&t), "mismatch on {bits}");
    }
}

#[test]
fn sim_rejects_bad_vector_width() {
    let dir = workdir("simbad");
    let blif = dir.join("sample.blif");
    fs::write(&blif, SAMPLE).unwrap();
    let o = tels(&["sim", blif.to_str().unwrap(), "01"]);
    assert!(!o.status.success());
    assert!(stderr(&o).contains("expected 4 input bits"));
}

#[test]
fn info_prints_statistics() {
    let dir = workdir("info");
    let blif = dir.join("sample.blif");
    fs::write(&blif, SAMPLE).unwrap();
    let o = tels(&["info", blif.to_str().unwrap()]);
    assert!(o.status.success());
    let out = stdout(&o);
    assert!(out.contains("inputs:   4"));
    assert!(out.contains("outputs:  2"));
}

#[test]
fn print_round_trips_blif() {
    let dir = workdir("print");
    let blif = dir.join("sample.blif");
    fs::write(&blif, SAMPLE).unwrap();
    let o = tels(&["print", blif.to_str().unwrap()]);
    assert!(o.status.success());
    assert!(stdout(&o).contains(".model sample"));
}

#[test]
fn synth_best_never_worse() {
    let dir = workdir("best");
    let blif = dir.join("sample.blif");
    fs::write(&blif, SAMPLE).unwrap();
    let best = tels(&["synth", blif.to_str().unwrap(), "--best"]);
    assert!(best.status.success(), "{}", stderr(&best));
    let base = tels(&["map11", blif.to_str().unwrap()]);
    let count = |s: &str| s.matches(".gate").count();
    assert!(count(&stdout(&best)) <= count(&stdout(&base)));
}

#[test]
fn missing_file_reports_error() {
    let o = tels(&["info", "/nonexistent/x.blif"]);
    assert!(!o.status.success());
    assert!(stderr(&o).contains("tels:"));
}

#[test]
fn synth_with_defect_tolerances() {
    let dir = workdir("dt");
    let blif = dir.join("sample.blif");
    fs::write(&blif, SAMPLE).unwrap();
    let o = tels(&[
        "synth",
        blif.to_str().unwrap(),
        "--delta-on",
        "2",
        "--psi",
        "4",
    ]);
    assert!(o.status.success(), "{}", stderr(&o));
    assert!(stderr(&o).contains("simulation check passed"));
}

#[test]
fn qca_command_emits_majority_blif() {
    let dir = workdir("qca");
    let blif = dir.join("sample.blif");
    let out = dir.join("sample_qca.blif");
    fs::write(&blif, SAMPLE).unwrap();
    let o = tels(&["qca", blif.to_str().unwrap(), "-o", out.to_str().unwrap()]);
    assert!(o.status.success(), "{}", stderr(&o));
    assert!(stderr(&o).contains("majority gates"));
    let text = fs::read_to_string(&out).unwrap();
    assert!(text.contains(".model"));
}

#[test]
fn verilog_command_emits_module() {
    let dir = workdir("verilog");
    let blif = dir.join("sample.blif");
    fs::write(&blif, SAMPLE).unwrap();
    let o = tels(&["verilog", blif.to_str().unwrap()]);
    assert!(o.status.success(), "{}", stderr(&o));
    assert!(stdout(&o).contains("module sample"));
    assert!(stdout(&o).contains("endmodule"));
}

#[test]
fn qca_rejects_large_psi() {
    let dir = workdir("qcapsi");
    let blif = dir.join("sample.blif");
    fs::write(&blif, SAMPLE).unwrap();
    let o = tels(&["qca", blif.to_str().unwrap(), "--psi", "5"]);
    assert!(!o.status.success());
    assert!(stderr(&o).contains("psi"));
}

#[test]
fn synth_trace_profile_and_trace_check() {
    let dir = workdir("trace");
    let blif = dir.join("sample.blif");
    let trace = dir.join("sample_trace.json");
    let stats = dir.join("sample_stats.json");
    fs::write(&blif, SAMPLE).unwrap();

    // --no-tier0 so the run reaches the ILP layer: with the oracle on,
    // every query of this small circuit is a truth-table lookup and no
    // "ilp" category events would exist for the assertions below.
    let o = tels(&[
        "synth",
        blif.to_str().unwrap(),
        "--no-tier0",
        "--trace",
        trace.to_str().unwrap(),
        "--profile",
        "--stats-json",
    ]);
    assert!(o.status.success(), "traced synth failed: {}", stderr(&o));
    // --profile renders the aggregated span tree on stderr.
    let err = stderr(&o);
    assert!(err.contains("total ms"), "missing profile header: {err}");
    assert!(err.contains("synthesize"), "missing profile rows: {err}");
    // --stats-json puts one JSON object (and nothing else) on stdout.
    let doc = tels_trace::json::parse(&stdout(&o)).expect("stats output is not valid JSON");
    assert_eq!(
        doc.get("model").and_then(|m| m.as_str()),
        Some("sample"),
        "stats object missing model"
    );
    for key in ["gates", "levels", "area", "stats"] {
        assert!(doc.get(key).is_some(), "stats object missing `{key}`");
    }
    fs::write(&stats, stdout(&o)).unwrap();

    // The trace file is a valid Chrome trace with spans from all four
    // instrumented crates and one provenance event per gate.
    let text = fs::read_to_string(&trace).unwrap();
    let chrome = tels_trace::json::parse(&text).expect("trace is not valid JSON");
    let summary =
        tels_trace::export::validate_chrome_json(&chrome).expect("trace failed validation");
    for cat in ["cli", "core", "ilp", "logic"] {
        assert!(
            summary.categories.iter().any(|c| c == cat),
            "missing category {cat}"
        );
    }
    let gates = doc.get("gates").and_then(|g| g.as_u64()).unwrap();
    assert_eq!(summary.provenance as u64, gates);

    // The bundled validator agrees.
    let check = tels(&[
        "trace-check",
        trace.to_str().unwrap(),
        stats.to_str().unwrap(),
    ]);
    assert!(check.status.success(), "{}", stderr(&check));
    assert!(stdout(&check).contains("trace-check: ok"));

    // Renaming a counter the repository benchmark reads fails the check.
    for (key, path) in [
        ("theorem1_refutations", "stats.theorem1_refutations"),
        ("tier05_ns", "stats.solver.tier05_ns"),
    ] {
        let renamed = dir.join("renamed_stats.json");
        let text = stdout(&o).replace(&format!("\"{key}\""), &format!("\"{key}_old\""));
        fs::write(&renamed, text).unwrap();
        let check = tels(&[
            "trace-check",
            trace.to_str().unwrap(),
            renamed.to_str().unwrap(),
        ]);
        assert!(!check.status.success(), "renamed `{key}` passed");
        assert!(stderr(&check).contains(path), "{}", stderr(&check));
    }
}

#[test]
fn synth_tier0_matches_ilp_path_byte_for_byte() {
    let dir = workdir("tier0");
    let blif = dir.join("sample.blif");
    let with = dir.join("with_tier0.tnet");
    let without = dir.join("without_tier0.tnet");
    fs::write(&blif, SAMPLE).unwrap();

    let on = tels(&[
        "synth",
        blif.to_str().unwrap(),
        "-o",
        with.to_str().unwrap(),
    ]);
    assert!(on.status.success(), "{}", stderr(&on));
    // The default run reports its oracle traffic ...
    assert!(
        stderr(&on).contains("tier-0 lookups"),
        "missing tier-0 stderr report: {}",
        stderr(&on)
    );
    let off = tels(&[
        "synth",
        blif.to_str().unwrap(),
        "--no-tier0",
        "-o",
        without.to_str().unwrap(),
    ]);
    assert!(off.status.success(), "{}", stderr(&off));
    // ... and synthesizes exactly the network the ILP path does.
    assert_eq!(
        fs::read_to_string(&with).unwrap(),
        fs::read_to_string(&without).unwrap(),
        "tier 0 changed the synthesized network"
    );
}

/// A support-6 threshold function, f = a ∨ b·(c ∨ d ∨ e ∨ g)
/// (w = [5, 4, 1, 1, 1, 1], T = 5): at ψ ≥ 6 it is a single query past
/// the tier-0 oracle's 5-variable ceiling, squarely in tier-0.5 range.
const SUPPORT6: &str = "\
.model support6
.inputs a b c d e g
.outputs f
.names a b c d e g f
1----- 1
-11--- 1
-1-1-- 1
-1--1- 1
-1---1 1
.end
";

#[test]
fn synth_tier05_matches_ilp_path_byte_for_byte() {
    let dir = workdir("tier05");
    let blif = dir.join("support6.blif");
    let with = dir.join("with_tier05.tnet");
    let without = dir.join("without_tier05.tnet");
    fs::write(&blif, SUPPORT6).unwrap();

    let on = tels(&[
        "synth",
        blif.to_str().unwrap(),
        "--psi",
        "6",
        "-o",
        with.to_str().unwrap(),
    ]);
    assert!(on.status.success(), "{}", stderr(&on));
    // The default run reports tier-0.5 traffic ...
    assert!(
        stderr(&on).contains("tier-0.5 answers"),
        "missing tier-0.5 stderr report: {}",
        stderr(&on)
    );
    let off = tels(&[
        "synth",
        blif.to_str().unwrap(),
        "--psi",
        "6",
        "--no-tier05",
        "-o",
        without.to_str().unwrap(),
    ]);
    assert!(off.status.success(), "{}", stderr(&off));
    // ... and synthesizes exactly the network the ILP path does.
    assert_eq!(
        fs::read_to_string(&with).unwrap(),
        fs::read_to_string(&without).unwrap(),
        "tier 0.5 changed the synthesized network"
    );
}

#[test]
fn synth_stats_json_respects_output_redirect() {
    let dir = workdir("statsjson");
    let blif = dir.join("sample.blif");
    let tnet = dir.join("sample.tnet");
    fs::write(&blif, SAMPLE).unwrap();
    let o = tels(&[
        "synth",
        blif.to_str().unwrap(),
        "-o",
        tnet.to_str().unwrap(),
        "--stats-json",
    ]);
    assert!(o.status.success(), "{}", stderr(&o));
    // Netlist goes to the file; stdout still holds only the JSON object.
    assert!(tnet.exists());
    tels_trace::json::parse(&stdout(&o)).expect("stats output is not valid JSON");
    // The legacy human-readable summary is suppressed.
    assert!(!stderr(&o).contains("ILP calls"));
}

#[test]
fn synth_best_rejects_stats_json() {
    let dir = workdir("beststats");
    let blif = dir.join("sample.blif");
    fs::write(&blif, SAMPLE).unwrap();
    let o = tels(&["synth", blif.to_str().unwrap(), "--best", "--stats-json"]);
    assert!(!o.status.success());
    assert!(stderr(&o).contains("--best"));
}

#[test]
fn trace_check_rejects_garbage() {
    let dir = workdir("tracecheck");
    let bogus = dir.join("bogus.json");
    fs::write(&bogus, "{\"traceEvents\": [{\"ph\": \"E\", \"cat\": \"x\", \"name\": \"n\", \"tid\": 1, \"ts\": 0}]}").unwrap();
    let o = tels(&["trace-check", bogus.to_str().unwrap()]);
    assert!(!o.status.success());
}

#[test]
fn serve_daemon_round_trip_over_socket() {
    let dir = workdir("serve");
    let blif = dir.join("sample.blif");
    fs::write(&blif, SAMPLE).unwrap();
    let sock = dir.join("tels.sock");
    let cache = dir.join("cache.bin");

    // One-shot reference bytes.
    let one_shot = dir.join("one_shot.tnet");
    let o = tels(&[
        "synth",
        blif.to_str().unwrap(),
        "-o",
        one_shot.to_str().unwrap(),
    ]);
    assert!(o.status.success(), "one-shot synth failed: {}", stderr(&o));

    let mut daemon = Daemon::spawn(&[
        "serve",
        "--socket",
        sock.to_str().unwrap(),
        "--cache-file",
        cache.to_str().unwrap(),
    ]);
    // Wait for the listener to come up.
    for _ in 0..100 {
        if sock.exists() {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(100));
    }
    assert!(sock.exists(), "daemon never bound its socket");

    // Ping, a deliberately malformed frame (daemon must reply with an error
    // and keep serving), then a real job on the same connection.
    let served = dir.join("served.tnet");
    let o = tels(&[
        "client",
        "--socket",
        sock.to_str().unwrap(),
        "--ping",
        "--malformed",
        blif.to_str().unwrap(),
        "-o",
        served.to_str().unwrap(),
        "--stats",
        "--json",
    ]);
    assert!(o.status.success(), "client failed: {}", stderr(&o));
    assert!(stderr(&o).contains("malformed frame rejected"));
    assert!(stdout(&o).contains("\"jobs_ok\": 1"), "{}", stdout(&o));
    assert!(stdout(&o).contains("\"bad_frames\": 1"), "{}", stdout(&o));
    assert_eq!(
        fs::read(&served).unwrap(),
        fs::read(&one_shot).unwrap(),
        "served .tnet must be byte-identical to one-shot"
    );

    // Clean shutdown; the daemon must exit and save its cache file.
    let o = tels(&["client", "--socket", sock.to_str().unwrap(), "--shutdown"]);
    assert!(o.status.success(), "shutdown failed: {}", stderr(&o));
    assert!(daemon.exits(), "daemon did not exit after shutdown request");
    assert!(cache.exists(), "daemon did not save its cache file");

    // A second daemon must load the persisted cache and serve identical
    // bytes warm.
    let mut daemon2 = Daemon::spawn(&[
        "serve",
        "--socket",
        sock.to_str().unwrap(),
        "--cache-file",
        cache.to_str().unwrap(),
    ]);
    for _ in 0..100 {
        if sock.exists() {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(100));
    }
    let warm = dir.join("warm.tnet");
    let o = tels(&[
        "client",
        "--socket",
        sock.to_str().unwrap(),
        blif.to_str().unwrap(),
        "-o",
        warm.to_str().unwrap(),
        "--shutdown",
    ]);
    assert!(o.status.success(), "warm client failed: {}", stderr(&o));
    assert_eq!(
        fs::read(&warm).unwrap(),
        fs::read(&one_shot).unwrap(),
        "persisted-warm bytes must match one-shot"
    );
    daemon2.exits();
}

#[test]
fn serve_metrics_scrape_and_top_over_socket() {
    let dir = workdir("metrics");
    let blif = dir.join("sample.blif");
    fs::write(&blif, SAMPLE).unwrap();
    let sock = dir.join("tels-metrics.sock");
    let cache = dir.join("cache.bin");

    let mut daemon = Daemon::spawn(&[
        "serve",
        "--socket",
        sock.to_str().unwrap(),
        "--cache-file",
        cache.to_str().unwrap(),
        "--metrics",
        "--metrics-interval-ms",
        "100",
    ]);
    for _ in 0..100 {
        if sock.exists() {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(100));
    }
    assert!(sock.exists(), "daemon never bound its socket");

    // A job, then pretty --stats (human-readable latency ranges).
    let o = tels(&[
        "client",
        "--socket",
        sock.to_str().unwrap(),
        blif.to_str().unwrap(),
        "--stats",
    ]);
    assert!(o.status.success(), "client failed: {}", stderr(&o));
    let pretty = stdout(&o);
    assert!(pretty.contains("jobs:"), "{pretty}");
    assert!(pretty.contains("job latency:"), "{pretty}");
    assert!(pretty.contains(" .. "), "bucket ranges expected: {pretty}");

    // JSON metrics scrape: counters must reflect the job.
    let o = tels(&["client", "--socket", sock.to_str().unwrap(), "--metrics"]);
    assert!(o.status.success(), "metrics scrape failed: {}", stderr(&o));
    let doc = tels_trace::json::parse(&stdout(&o)).expect("metrics reply is not valid JSON");
    assert_eq!(
        doc.get("enabled"),
        Some(&tels_trace::json::Json::Bool(true))
    );
    let jobs_ok = doc
        .get("metrics")
        .and_then(|s| s.get("metrics"))
        .and_then(|m| m.get("tels_serve_jobs_ok_total"))
        .and_then(tels_trace::json::Json::as_u64)
        .expect("tels_serve_jobs_ok_total in snapshot");
    assert!(jobs_ok >= 1, "jobs_ok = {jobs_ok}");

    // Prometheus scrape: exposition text must pass the in-tree lint
    // (exercised by --lint-prom itself) and carry the job counter.
    let o = tels(&[
        "client",
        "--socket",
        sock.to_str().unwrap(),
        "--metrics-prom",
        "--lint-prom",
    ]);
    assert!(
        o.status.success(),
        "prometheus scrape failed: {}",
        stderr(&o)
    );
    let text = stdout(&o);
    assert!(stderr(&o).contains("passes the lint"), "{}", stderr(&o));
    assert!(
        text.contains("# TYPE tels_serve_jobs_ok_total counter"),
        "{text}"
    );
    assert!(text.contains("tels_serve_jobs_ok_total 1"), "{text}");
    assert!(
        text.contains("tels_serve_frames_total{conn=\"all\"}"),
        "{text}"
    );

    // One-shot `tels top` frame: no ANSI clear, live stats rendered.
    let o = tels(&["top", "--socket", sock.to_str().unwrap(), "--count", "1"]);
    assert!(o.status.success(), "tels top failed: {}", stderr(&o));
    let frame = stdout(&o);
    assert!(!frame.contains('\x1b'), "one-shot frame must not clear");
    assert!(frame.contains("metrics ON"), "{frame}");
    assert!(frame.contains("jobs ok 1"), "{frame}");
    assert!(frame.contains("hit rate"), "{frame}");

    let o = tels(&["client", "--socket", sock.to_str().unwrap(), "--shutdown"]);
    assert!(o.status.success(), "shutdown failed: {}", stderr(&o));
    assert!(daemon.exits(), "daemon did not exit after shutdown request");
    // Final snapshot persisted next to the cache file.
    let metrics_file = dir.join("cache.bin.metrics.json");
    assert!(metrics_file.exists(), "final metrics snapshot not written");
    let text = fs::read_to_string(&metrics_file).unwrap();
    let doc = tels_trace::json::parse(&text).expect("metrics file is not valid JSON");
    assert!(doc.get("final").is_some() && doc.get("recorder").is_some());
}

/// The daemon publishes each finished run's check outcomes to the
/// process-wide `tels_check_*` counters exactly once: after jobs at ψ = 3
/// and ψ = 9, every counter equals the sum of the replies' statistics.
#[test]
fn serve_check_counters_equal_the_replies_stats() {
    use tels_circuits::{random_network, RandomNetOptions};
    use tels_core::TelsConfig;
    use tels_serve::protocol::JobRequest;
    use tels_trace::json::Json;

    let dir = workdir("check_counters");
    let sock = dir.join("tels.sock");
    let _daemon = Daemon::spawn(&["serve", "--socket", sock.to_str().unwrap(), "--metrics"]);
    for _ in 0..100 {
        if sock.exists() {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(100));
    }
    assert!(sock.exists(), "daemon never bound its socket");
    let mut client = tels_serve::Client::connect(&sock).expect("connect");

    // Mostly unate wide networks, so ψ = 9 reaches tier 0.5, Theorem 1,
    // the cache and (with tier 0.5 off) the ILP.
    let wide = |seed: u64| {
        let options = RandomNetOptions {
            inputs: 24,
            outputs: 12,
            nodes: 120,
            max_fanin: 6,
            max_cubes: 6,
            negation_pct: 20,
            ..RandomNetOptions::default()
        };
        tels_logic::blif::write(&random_network("wide", seed, &options))
    };
    let at = |psi: usize, use_tier05: bool| TelsConfig {
        psi,
        use_tier05,
        ..TelsConfig::default()
    };
    let jobs = [
        (SAMPLE.to_string(), at(3, true)),
        (SAMPLE.to_string(), at(3, true)),
        (wide(1), at(9, true)),
        (wide(2), at(9, true)),
        (wide(1), at(9, true)),
        (wide(3), at(9, false)),
    ];
    let mut sums = [0.0f64; 6];
    for (blif, config) in jobs {
        let reply = client
            .synth(&JobRequest {
                blif,
                config,
                ..JobRequest::default()
            })
            .expect("synth request");
        assert_eq!(reply.get("ok"), Some(&Json::Bool(true)), "{reply}");
        let stats = reply.get("stats").expect("reply carries stats");
        let top = |key: &str| stats.get(key).and_then(Json::as_f64).expect(key);
        let solver = |key: &str| {
            stats
                .get("solver")
                .and_then(|s| s.get(key))
                .and_then(Json::as_f64)
                .expect(key)
        };
        let tier05 = solver("tier05_hits") + solver("tier05_rejects");
        let decided = [
            solver("tier0_lookups"),
            tier05,
            top("cache_hits"),
            top("theorem1_refutations"),
            top("ilp_solves"),
        ];
        // The driver queries neither constants nor binate covers: one of
        // the deciders answers every query.
        assert_eq!(top("ilp_calls"), decided.iter().sum::<f64>());
        let job = [
            decided[0],
            decided[1],
            decided[2],
            decided[3],
            decided[4],
            solver("canon_ns"),
        ];
        for (sum, v) in sums.iter_mut().zip(job) {
            *sum += v;
        }
    }

    let reply = client.metrics(false, false).expect("metrics request");
    let metrics = reply
        .get("metrics")
        .and_then(|s| s.get("metrics"))
        .expect("metrics snapshot");
    let names = [
        "tels_check_tier0_total",
        "tels_check_tier05_total",
        "tels_check_cache_hits_total",
        "tels_check_theorem1_total",
        "tels_check_ilp_solves_total",
        "tels_check_canon_ns_total",
    ];
    for (name, sum) in names.iter().zip(sums) {
        let scraped = metrics.get(name).and_then(Json::as_f64).expect(name);
        assert_eq!(scraped, sum, "{name}");
        // Every decider answered some query, so no equality holds at 0.
        assert!(sum > 0.0, "{name} never advanced");
    }
}

/// Scalar/packed agreement of the failure rate is pinned in
/// `tests/packed_eval.rs`; the CLI runs only the packed engine.
#[test]
fn perturb_reports_a_rate_and_scalar_path_agrees() {
    let dir = workdir("perturb");
    let blif = dir.join("sample.blif");
    fs::write(&blif, SAMPLE).unwrap();

    let packed = tels(&[
        "perturb",
        blif.to_str().unwrap(),
        "--variation",
        "0.6",
        "--trials",
        "50",
        "--vectors",
        "64",
        "--seed",
        "9",
    ]);
    assert!(
        packed.status.success(),
        "perturb failed: {}",
        stderr(&packed)
    );
    assert!(stdout(&packed).contains("failure rate:"));
    assert!(stderr(&packed).contains("(packed)"));

    // The Monte Carlo loop is thread-count invariant.
    let threaded = tels(&[
        "perturb",
        blif.to_str().unwrap(),
        "--variation",
        "0.6",
        "--trials",
        "50",
        "--vectors",
        "64",
        "--seed",
        "9",
        "--threads",
        "4",
    ]);
    assert!(
        threaded.status.success(),
        "threaded failed: {}",
        stderr(&threaded)
    );
    assert_eq!(stdout(&packed), stdout(&threaded));

    // A bigger defect tolerance at the same variation is never less robust.
    let tolerant = tels(&[
        "perturb",
        blif.to_str().unwrap(),
        "--variation",
        "0.6",
        "--trials",
        "50",
        "--vectors",
        "64",
        "--seed",
        "9",
        "--delta-on",
        "2",
    ]);
    assert!(
        tolerant.status.success(),
        "tolerant failed: {}",
        stderr(&tolerant)
    );
    let rate = |s: &str| -> f64 {
        s.split("failure rate: ")
            .nth(1)
            .and_then(|r| r.split_whitespace().next())
            .and_then(|r| r.parse().ok())
            .expect("parse failure rate")
    };
    assert!(rate(&stdout(&tolerant)) <= rate(&stdout(&packed)));
}

#[test]
fn perturb_rejects_bad_arguments() {
    let o = tels(&["perturb"]);
    assert!(!o.status.success());
    assert!(stderr(&o).contains("requires an input"));

    let dir = workdir("perturb_bad");
    let blif = dir.join("sample.blif");
    fs::write(&blif, SAMPLE).unwrap();
    let o = tels(&["perturb", blif.to_str().unwrap(), "--variation", "-1"]);
    assert!(!o.status.success());
    assert!(stderr(&o).contains("non-negative"));
}
