//! Benchmarks the `tels serve` daemon path against per-invocation one-shot
//! synthesis and writes the results to `BENCH_serve.json`.
//!
//! Three measurements over the Table-I benchmark suite:
//!
//! * **one-shot rate**: every circuit synthesized by spawning the real
//!   `tels` binary per invocation (process startup, tier-0 construction,
//!   empty cache, simulation verify — the costs the daemon amortizes).
//!   When the binary is not built, falls back to an in-process emulation
//!   (no spawn cost) and skips the throughput gate, noting it in the JSON.
//! * **serve throughput**: an in-process [`ServeSession`] fed by 1, 4, and
//!   16 concurrent client threads, cold (fresh caches) and warm (suite
//!   already seen), in circuits/second.
//! * **persisted-warm**: the caches saved to disk, reloaded into a fresh
//!   session, and the first pass over the suite timed — what a daemon
//!   restart with `--cache-file` delivers.
//! * **frame codec**: one synth request frame with a 64 KiB and a 1 MiB
//!   BLIF payload, encoded as a client does (`synth_request_json` +
//!   `write_json_frame`) and decoded as the daemon does
//!   (`read_json_frame` + `parse_request`), in MB/s. The codec is linear,
//!   so the per-byte cost at 1 MiB must stay within 3x of the cost at
//!   64 KiB; a reader that rescans the document per character is 16x.
//!
//! The workload is the *synthesis service* one: clients submit
//! pre-factored networks (`factor: false`, the one-shot side gets the
//! same files with `--no-factor`). Algebraic factoring is a one-time
//! front-end cost — on the Table-I suite it is ~60x the synthesis time —
//! so folding it into every job would measure the factoring kernel, not
//! the daemon. Both sides also run with `use_tier0: false` (the CLI's
//! `--no-tier0`): under the default config the tier-0 truth-table oracle
//! answers every small-support query without touching the realization
//! cache, so the cache the daemon shares and persists would sit idle.
//! Disabling it routes every realization through the ILP + cache path —
//! the workload the daemon exists for — and does not change any answer
//! (the fuzz oracle asserts tier0-on/off byte identity, and `CacheKey`
//! ignores the flag). One-shot `tels synth` always simulation-verifies;
//! daemon jobs verify only on request (`verify` defaults to false) —
//! that asymmetry is the product default on both sides and is noted in
//! the JSON.
//!
//! The run doubles as a determinism gate: for every suite circuit the
//! served `.tnet` bytes must equal the one-shot reference, cold and
//! persisted-warm. Acceptance gates: warm serve throughput at least 2x the
//! one-shot process rate (when the real binary is available), and the
//! frame codec's per-byte cost bound above.
//!
//! Run with `cargo run --release -p tels-bench --bin serve_pipeline`; pass
//! `--quick` for a single-sample smoke run that skips the JSON write.

use std::path::PathBuf;
use std::time::Instant;

use tels_circuits::paper_suite;
use tels_core::TelsConfig;
use tels_logic::blif;
use tels_logic::opt::script_algebraic;
use tels_serve::protocol::{
    parse_request, read_json_frame, synth_request_json, write_json_frame, JobRequest, Request,
};
use tels_serve::{ServeOptions, ServeSession};
use tels_trace::json::Json;

/// Suite passes each client thread submits in a throughput measurement.
const ROUNDS: usize = 3;

/// The benchmark configuration: tier-0 off so realizations go through the
/// shared cache (see the module docs); everything else paper defaults.
fn bench_config() -> TelsConfig {
    TelsConfig {
        use_tier0: false,
        ..TelsConfig::default()
    }
}

/// A serve job for one (pre-factored) suite circuit under the benchmark
/// configuration.
fn job(blif: &str) -> JobRequest {
    JobRequest {
        blif: blif.to_string(),
        factor: false,
        config: bench_config(),
        ..JobRequest::default()
    }
}

/// Submits `rounds` passes over the suite from each of `clients` threads
/// and returns (wall ms, jobs completed).
fn run_clients(
    session: &ServeSession,
    blifs: &[String],
    clients: usize,
    rounds: usize,
) -> (f64, usize) {
    let start = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..clients {
            s.spawn(|| {
                for _ in 0..rounds {
                    for text in blifs {
                        session.submit(&job(text)).expect("serve job failed");
                    }
                }
            });
        }
    });
    let ms = start.elapsed().as_secs_f64() * 1e3;
    (ms, clients * rounds * blifs.len())
}

/// Synthesizes every circuit through a session once, returning the `.tnet`
/// text per circuit (suite order).
fn serve_suite_tnets(session: &ServeSession, blifs: &[String]) -> Vec<String> {
    blifs
        .iter()
        .map(|text| {
            session
                .submit(&job(text))
                .expect("serve job failed")
                .tn
                .to_tnet()
        })
        .collect()
}

/// Payload sizes of the frame-codec leg.
const CODEC_SIZES: [usize; 2] = [64 << 10, 1 << 20];

/// Bytes each frame-codec sample encodes and decodes (whole frames).
const CODEC_SAMPLE_BYTES: usize = 4 << 20;

/// Timed samples per frame size; the fastest counts.
const CODEC_SAMPLES: usize = 5;

/// One frame-codec measurement.
struct CodecRow {
    frame_bytes: usize,
    encode_ns_per_byte: f64,
    decode_ns_per_byte: f64,
}

/// Times the client's encode and the daemon's decode of one synth frame
/// whose BLIF payload is `payload` bytes of suite text (newlines and all,
/// so the string escapes are exercised). Checks that the decoded job
/// carries the payload unchanged.
fn frame_codec(blifs: &[String], payload: usize) -> CodecRow {
    let mut text = String::with_capacity(payload + 4096);
    while text.len() < payload {
        text.push_str(&blifs[text.len() % blifs.len()]);
    }
    text.truncate(payload); // BLIF text is ASCII.
    let req = job(&text);
    let mut frame = Vec::new();
    write_json_frame(&mut frame, &synth_request_json(&req)).expect("encode");
    let reps = CODEC_SAMPLE_BYTES.div_ceil(frame.len());
    let fastest = |f: &mut dyn FnMut()| {
        (0..CODEC_SAMPLES)
            .map(|_| {
                let start = Instant::now();
                for _ in 0..reps {
                    f();
                }
                start.elapsed().as_secs_f64() * 1e9 / (reps * frame.len()) as f64
            })
            .fold(f64::INFINITY, f64::min)
    };
    let mut out = Vec::with_capacity(frame.len());
    let encode_ns_per_byte = fastest(&mut || {
        out.clear();
        write_json_frame(&mut out, &synth_request_json(&req)).expect("encode");
    });
    assert_eq!(out, frame, "frame encoding is not deterministic");
    let mut decoded = None;
    let decode_ns_per_byte = fastest(&mut || {
        let doc = read_json_frame(&mut frame.as_slice())
            .expect("frame")
            .expect("one frame")
            .expect("valid JSON");
        decoded = Some(parse_request(doc).expect("valid request"));
    });
    match decoded {
        Some(Request::Synth(job)) => assert!(job.blif == text, "decoded BLIF differs"),
        other => panic!("decoded {other:?}, not a synth request"),
    }
    CodecRow {
        frame_bytes: frame.len(),
        encode_ns_per_byte,
        decode_ns_per_byte,
    }
}

/// Locates the release `tels` binary next to this bench binary, if built.
fn find_tels_binary() -> Option<PathBuf> {
    let exe = std::env::current_exe().ok()?;
    let candidate = exe.parent()?.join("tels");
    candidate.is_file().then_some(candidate)
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let rounds = if quick { 1 } else { ROUNDS };
    tels_core::prewarm_tier0();

    let suite = paper_suite();
    let names: Vec<&str> = suite.iter().map(|b| b.name).collect();
    // Factor once up front; every job (serve and one-shot alike) consumes
    // the pre-factored text. See the module docs for why.
    let prepared: Vec<_> = suite.iter().map(|b| script_algebraic(&b.network)).collect();
    let blifs: Vec<String> = prepared.iter().map(blif::write).collect();

    // --- One-shot reference: bytes and per-invocation rate. -------------
    let dir = std::env::temp_dir().join(format!("tels-serve-bench-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create bench dir");
    let tels_bin = find_tels_binary();
    let mut one_shot_ms = 0.0;
    let mut references: Vec<String> = Vec::with_capacity(suite.len());
    match &tels_bin {
        Some(bin) => {
            for (name, text) in names.iter().zip(&blifs) {
                let in_path = dir.join(format!("{name}.blif"));
                let out_path = dir.join(format!("{name}.tnet"));
                std::fs::write(&in_path, text).expect("write blif");
                let start = Instant::now();
                let status = std::process::Command::new(bin)
                    .args([
                        "synth",
                        "--no-tier0",
                        "--no-factor",
                        in_path.to_str().unwrap(),
                        "-o",
                        out_path.to_str().unwrap(),
                    ])
                    .stderr(std::process::Stdio::null())
                    .status()
                    .expect("spawn tels");
                one_shot_ms += start.elapsed().as_secs_f64() * 1e3;
                assert!(status.success(), "{name}: one-shot tels synth failed");
                references.push(std::fs::read_to_string(&out_path).expect("read tnet"));
            }
        }
        None => {
            eprintln!(
                "serve_pipeline: target/release/tels not built; timing an in-process \
                 one-shot emulation (no spawn cost) and skipping the 3x throughput gate"
            );
            for (name, text) in names.iter().zip(&blifs) {
                let start = Instant::now();
                let net = blif::parse(text).expect("parse blif");
                let (tn, _) = tels_core::synthesize_with_stats(&net, &bench_config())
                    .expect("one-shot synthesis failed");
                assert!(
                    tn.verify_against(&net, 12, 1024, 1)
                        .expect("simulation failed")
                        .is_none(),
                    "{name}: one-shot verify failed"
                );
                one_shot_ms += start.elapsed().as_secs_f64() * 1e3;
                references.push(tn.to_tnet());
            }
        }
    }
    let one_shot_rate = suite.len() as f64 / (one_shot_ms / 1e3);
    println!(
        "one-shot ({}): {} circuits in {one_shot_ms:.1} ms = {one_shot_rate:.1}/s",
        if tels_bin.is_some() {
            "process"
        } else {
            "in-process"
        },
        suite.len()
    );

    // --- Byte identity, cold. -------------------------------------------
    let session = ServeSession::new(ServeOptions::default()).expect("session");
    let served = serve_suite_tnets(&session, &blifs);
    for ((name, served), reference) in names.iter().zip(&served).zip(&references) {
        assert_eq!(
            served, reference,
            "{name}: served .tnet differs from one-shot"
        );
    }
    println!(
        "byte identity: {} circuits match one-shot (cold)",
        suite.len()
    );

    // --- Serve throughput: cold and warm at 1/4/16 clients. -------------
    let client_counts: &[usize] = if quick { &[1, 4] } else { &[1, 4, 16] };
    let mut serve_rows: Vec<Json> = Vec::new();
    let mut best_warm_rate = 0.0f64;
    let mut last_stats: Option<Json> = None;
    for &clients in client_counts {
        // Cold: fresh session, caches start empty.
        let session = ServeSession::new(ServeOptions::default()).expect("session");
        let (cold_ms, cold_jobs) = run_clients(&session, &blifs, clients, rounds);
        let cold_rate = cold_jobs as f64 / (cold_ms / 1e3);
        // Warm: same session has now seen the whole suite.
        let (warm_ms, warm_jobs) = run_clients(&session, &blifs, clients, rounds);
        let warm_rate = warm_jobs as f64 / (warm_ms / 1e3);
        best_warm_rate = best_warm_rate.max(warm_rate);
        println!(
            "serve x{clients:<2}: cold {cold_jobs} jobs in {cold_ms:>8.1} ms = {cold_rate:>7.1}/s | \
             warm {warm_jobs} jobs in {warm_ms:>8.1} ms = {warm_rate:>7.1}/s"
        );
        serve_rows.push(Json::obj([
            ("clients", Json::Num(clients as f64)),
            ("cold_ms", Json::Num(cold_ms)),
            ("cold_jobs", Json::Num(cold_jobs as f64)),
            ("cold_jobs_per_sec", Json::Num(cold_rate)),
            ("warm_ms", Json::Num(warm_ms)),
            ("warm_jobs", Json::Num(warm_jobs as f64)),
            ("warm_jobs_per_sec", Json::Num(warm_rate)),
        ]));
        last_stats = Some(session.stats_json());
    }

    // --- Persisted-warm: save, reload into a fresh session, first pass. --
    let cache_path = dir.join("cache.bin");
    let seed = ServeSession::new(ServeOptions {
        cache_file: Some(cache_path.clone()),
        ..ServeOptions::default()
    })
    .expect("session");
    let _ = serve_suite_tnets(&seed, &blifs);
    let persisted = seed.persist_now().expect("save cache").unwrap_or(0);
    drop(seed);
    let reloaded = ServeSession::new(ServeOptions {
        cache_file: Some(cache_path.clone()),
        ..ServeOptions::default()
    })
    .expect("reload session");
    let start = Instant::now();
    let served = serve_suite_tnets(&reloaded, &blifs);
    let persisted_ms = start.elapsed().as_secs_f64() * 1e3;
    let persisted_rate = suite.len() as f64 / (persisted_ms / 1e3);
    for ((name, served), reference) in names.iter().zip(&served).zip(&references) {
        assert_eq!(
            served, reference,
            "{name}: persisted-warm .tnet differs from one-shot"
        );
    }
    println!(
        "persisted-warm: {persisted} entries reloaded; first pass {persisted_ms:.1} ms = \
         {persisted_rate:.1}/s (bytes identical)"
    );

    // --- Frame codec: per-byte cost at 64 KiB and 1 MiB. -----------------
    let codec: Vec<CodecRow> = CODEC_SIZES
        .iter()
        .map(|&n| frame_codec(&blifs, n))
        .collect();
    for row in &codec {
        println!(
            "frame codec {:>8} B: encode {:>7.1} MB/s, decode {:>7.1} MB/s",
            row.frame_bytes,
            1e3 / row.encode_ns_per_byte,
            1e3 / row.decode_ns_per_byte
        );
    }
    let encode_ratio = codec[1].encode_ns_per_byte / codec[0].encode_ns_per_byte;
    let decode_ratio = codec[1].decode_ns_per_byte / codec[0].decode_ns_per_byte;
    println!(
        "frame codec per-byte cost, 1 MiB vs 64 KiB: encode {encode_ratio:.2}x, \
         decode {decode_ratio:.2}x"
    );

    // --- Gates and output. ----------------------------------------------
    let speedup = best_warm_rate / one_shot_rate;
    println!("warm serve {best_warm_rate:.1}/s vs one-shot {one_shot_rate:.1}/s = {speedup:.1}x");
    if tels_bin.is_some() {
        // The bar was 3x before the word-parallel engine; packed
        // `verify_against` removed most of the per-invocation cost the
        // daemon used to amortize, so one-shot runs are ~7x faster and
        // the daemon's remaining edge is startup + cache reuse (~2.5-3x).
        assert!(
            speedup >= 2.0,
            "warm serve throughput only {speedup:.2}x the one-shot process rate (< 2x)"
        );
    }

    for (side, ratio) in [("encode", encode_ratio), ("decode", decode_ratio)] {
        assert!(
            ratio <= 3.0,
            "frame {side} costs {ratio:.2}x as much per byte at 1 MiB as at 64 KiB (> 3x)"
        );
    }

    if !quick {
        let codec_rows = codec
            .iter()
            .map(|row| {
                Json::obj([
                    ("frame_bytes", Json::Num(row.frame_bytes as f64)),
                    ("encode_mb_per_s", Json::Num(1e3 / row.encode_ns_per_byte)),
                    ("decode_mb_per_s", Json::Num(1e3 / row.decode_ns_per_byte)),
                ])
            })
            .collect();
        let doc = Json::obj([
            ("benchmark", Json::str("serve_pipeline")),
            (
                "config",
                Json::obj([
                    ("factor", Json::Bool(false)),
                    ("use_tier0", Json::Bool(false)),
                    ("serve_verify", Json::Bool(false)),
                    (
                        "note",
                        Json::str(
                            "pre-factored inputs on both sides (factoring is a one-time \
                             front-end cost ~60x synthesis on this suite); tier-0 disabled \
                             on both sides so realizations exercise the shared ILP cache \
                             (answers byte-identical either way); one-shot always \
                             simulation-verifies, daemon jobs verify on request only",
                        ),
                    ),
                ]),
            ),
            ("suite_circuits", Json::Num(suite.len() as f64)),
            ("rounds_per_client", Json::Num(rounds as f64)),
            (
                "one_shot",
                Json::obj([
                    (
                        "mode",
                        Json::str(if tels_bin.is_some() {
                            "process"
                        } else {
                            "in_process"
                        }),
                    ),
                    ("total_ms", Json::Num(one_shot_ms)),
                    ("jobs", Json::Num(suite.len() as f64)),
                    ("jobs_per_sec", Json::Num(one_shot_rate)),
                ]),
            ),
            ("serve", Json::Arr(serve_rows)),
            (
                "persisted_warm",
                Json::obj([
                    ("cache_entries", Json::Num(persisted as f64)),
                    ("first_pass_ms", Json::Num(persisted_ms)),
                    ("jobs_per_sec", Json::Num(persisted_rate)),
                ]),
            ),
            ("warm_speedup_vs_one_shot", Json::Num(speedup)),
            ("frame_codec", Json::Arr(codec_rows)),
            (
                "frame_codec_cost_ratio_1mib_vs_64kib",
                Json::obj([
                    ("encode", Json::Num(encode_ratio)),
                    ("decode", Json::Num(decode_ratio)),
                ]),
            ),
            (
                "byte_identity",
                Json::obj([
                    ("circuits", Json::Num(suite.len() as f64)),
                    ("cold_and_persisted_warm", Json::Bool(true)),
                ]),
            ),
            ("server_stats", last_stats.unwrap_or(Json::Null)),
        ]);
        let mut json = doc.pretty();
        json.push('\n');
        std::fs::write("BENCH_serve.json", &json).expect("write BENCH_serve.json");
        println!("wrote BENCH_serve.json");
    }
    std::fs::remove_dir_all(&dir).ok();
}
