//! Benchmarks the synthesis pipeline over a mixed circuit suite and writes
//! the results to `BENCH_synthesis.json` — including a per-tier
//! solver-stage breakdown (Chow merging, integer fast path, rational
//! fallbacks) so times are attributable to a stage.
//!
//! Every circuit is synthesized with the default configuration (timed) and
//! once more with `use_tier0 = false` (untimed), and both results are
//! checked functionally equivalent against the source network. The run
//! doubles as a consistency gate: it fails if the tier-0 oracle changes a
//! single byte of any synthesized netlist or the threshold-query count, if
//! the oracle does not cut the suite's ILP solves by at least half, or if
//! the rational-fallback rate exceeds a sanity bound.
//!
//! A third pass times the suite with `tels-trace` collecting (spans +
//! provenance journal) and with `tels-metrics` enabled, each in alternating
//! off/on pairs. It asserts that neither instrument changes a `.tnet` byte
//! or the threshold-query and ILP solve counts, that tracing journals
//! exactly one provenance event per emitted gate, and that the median
//! metrics overhead stays within 2%; the JSON carries each median
//! (`trace_overhead_pct`, `metrics_overhead_pct`) with its interquartile
//! range.
//!
//! A fourth pass (`perturb` in the JSON) runs §VI-C Monte Carlo yield
//! analysis on large generated circuits (array multiplier, majority grid,
//! parity ladder, LFSR cone) through the word-parallel evaluation engine
//! and the pre-engine scalar path at identical seeds, asserts the two
//! produce bit-identical failure rates, and gates the packed speedup
//! (≥ 20x in full runs; within 10% of the committed baseline in quick
//! mode).
//!
//! A fifth pass (`tier05_large` in the JSON) synthesizes large generated
//! circuits at ψ = 7 — where collapse produces support-6/7 threshold
//! queries above the tier-0 oracle's 5-variable reach — with the tier-0.5
//! pseudo-Boolean procedure on and off. It asserts byte-identical `.tnet`
//! output either way, gates tier 0.5 at cutting the suite's remaining ILP
//! solves by at least half at equal-or-better wall clock, reports the time
//! spent in tier 0.5 per circuit (`tier05_ms`), and writes the
//! `ilp_solve_reduction_large` object (`{before, after, pct}`); quick mode
//! additionally regression-gates the reduction against the committed
//! baseline when the key is present in either its bare-fraction or object
//! form.
//!
//! A sixth pass (`scaling` in the JSON) pushes one ≥10k-node generated
//! circuit through the whole big-circuit frontend: streaming BLIF parse
//! (checked byte-identical to the string parser), algebraic factoring,
//! synthesis, and packed verification, recording per-stage wall
//! clock (parse and synthesis as the minimum of three runs; factoring as
//! the median and interquartile range of seven, with each pass's median
//! and the `eliminate` pair memo's counts) and the process peak RSS. It also measures how much structural
//! hashing (`opt::strash` followed by `Network::compact`) shrinks the
//! duplicated-logic ALU generator, and asserts the ≥2-gates-per-bit
//! reduction. Quick mode regression-gates the stage timings against the
//! committed baseline so large-n slowdowns become visible in CI. Full runs
//! add a ≥100k-node leg (`scaling_100k`) that records the same stages and
//! asserts that parse, factoring and synthesis grow no faster than
//! n log n against the 10k leg, timing the two sizes pair by pair.
//!
//! A seventh pass (`synthesis_stages` in the JSON) splits synthesis into
//! the driver's stage timers (`SynthStats::stages`) and the check's tier
//! timers on three workloads — the suite, the 31 wide random networks the
//! repository benchmark's `wide_psi9` workload synthesizes at ψ = 9, and
//! the 10k-node parity ladder — as the median and interquartile range over
//! [`STAGE_REPEATS`] repeats of each whole workload, with `nproc`, the
//! unattributed remainder's share, tier 0.5's search time per wide cycle,
//! and the streaming parser's MB/s on the wide texts and the ladder text.
//!
//! Run with `cargo run --release -p tels-bench --bin synth_pipeline`;
//! pass `--quick` for a single-sample smoke run that skips the JSON write
//! (what `scripts/ci.sh` uses).

use std::time::Instant;

use tels_circuits::{
    alu_array, alu_slice, array_multiplier, barrel_shifter, c17, comparator, decoder, gray_code,
    lfsr_cone, majority_grid, mux_tree, parity_ladder, parity_tree, random_network, ripple_adder,
    RandomNetOptions,
};
use tels_core::perturb::{failure_rate, failure_rate_scalar, PerturbOptions};
use tels_core::{map_one_to_one, synthesize_with_stats, SynthStats, TelsConfig};
use tels_logic::opt::{self, script_algebraic};
use tels_logic::{blif, Network};
use tels_trace::json::Json;

/// Timed samples per circuit; the minimum is reported.
const SAMPLES: usize = 5;

/// Largest tolerated share of ILP solves that fell back to the rational
/// simplex, across the whole suite with tier 0 on and off. TELS ILPs are
/// tiny (ψ+1 columns, small coefficients), so the integer fast path should
/// essentially never overflow; a burst of fallbacks signals a regression.
const MAX_FALLBACK_RATE: f64 = 0.02;

struct Measurement {
    millis: f64,
    gates: usize,
    stats: SynthStats,
    /// The synthesized netlist text (bit-identicality gates compare it).
    tnet: String,
}

fn measure(net: &Network, config: &TelsConfig, samples: usize) -> Measurement {
    let mut best = f64::INFINITY;
    let mut result = None;
    for _ in 0..samples {
        let start = Instant::now();
        let (tn, stats) = synthesize_with_stats(net, config).expect("synthesis failed");
        let elapsed = start.elapsed().as_secs_f64() * 1e3;
        assert!(
            tn.verify_against(net, 12, 1024, 0xBE)
                .expect("simulation failed")
                .is_none(),
            "synthesized network differs from input"
        );
        if elapsed < best {
            best = elapsed;
            result = Some((tn.num_gates(), tn.to_tnet(), stats));
        }
    }
    let (gates, tnet, stats) = result.expect("at least one sample");
    Measurement {
        millis: best,
        gates,
        stats,
        tnet,
    }
}

/// One circuit's JSON row. The counters are the shared
/// [`SynthStats::to_json`] serialization — the same object `tels synth
/// --stats-json` prints — so downstream tooling parses one schema.
fn json_row(name: &str, m: &Measurement, no_tier0: &Measurement) -> Json {
    Json::obj([
        ("circuit", Json::str(name)),
        ("ms", Json::Num(m.millis)),
        ("gates", Json::Num(m.gates as f64)),
        (
            "ilp_solves_tier0_off",
            Json::Num(no_tier0.stats.ilp_solves as f64),
        ),
        ("stats", m.stats.to_json()),
    ])
}

/// Off/on pairs per instrument-overhead leg.
const OVERHEAD_PAIRS: usize = 9;

/// Suite passes per pair: one pass takes ~2 ms, too short to time against
/// a 2% budget on its own.
const OVERHEAD_PASSES: usize = 20;

/// An instrument whose wall-clock cost on the suite is measured.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Instrument {
    Trace,
    Metrics,
}

impl Instrument {
    fn set(self, on: bool) {
        match (self, on) {
            (Instrument::Trace, true) => tels_trace::enable(),
            (Instrument::Trace, false) => tels_trace::disable(),
            (Instrument::Metrics, true) => tels_metrics::enable(),
            (Instrument::Metrics, false) => tels_metrics::disable(),
        }
    }
}

/// An instrument's overhead: the median and interquartile range of the
/// per-pair overhead percentages, and the median suite time per pass
/// with the instrument off and on.
struct Overhead {
    off_ms: f64,
    on_ms: f64,
    pct: f64,
    iqr_pct: f64,
}

/// Median and interquartile range (nearest rank) of `xs`.
fn median_iqr(xs: &mut [f64]) -> (f64, f64) {
    xs.sort_by(f64::total_cmp);
    let at = |q: f64| xs[((xs.len() - 1) as f64 * q).round() as usize];
    (at(0.5), at(0.75) - at(0.25))
}

/// Times the suite with `instrument` off and on in [`OVERHEAD_PAIRS`]
/// pairs of [`OVERHEAD_PASSES`] passes. Within a pair every circuit runs
/// off and on back to back, so drift in machine load falls on both sides
/// alike, and which side runs first alternates from circuit to circuit
/// and pass to pass, so the second run's warmer caches do too. Every run
/// pair also asserts that the instrument is behaviorally inert
/// (byte-identical `.tnet`, equal threshold-query and ILP solve counts)
/// and that a traced run journals exactly one provenance event per
/// emitted gate (the trace is drained outside the timed region).
fn paired_overhead(suite: &[(String, Network, TelsConfig)], instrument: Instrument) -> Overhead {
    let (mut pcts, mut offs, mut ons) = (Vec::new(), Vec::new(), Vec::new());
    for pair in 0..OVERHEAD_PAIRS {
        let mut ms = [0.0f64; 2];
        for pass in 0..OVERHEAD_PASSES {
            for (i, (name, prepared, config)) in suite.iter().enumerate() {
                let mut runs = [None, None];
                let on_first = (pair + pass + i) % 2 == 1;
                for on in [on_first, !on_first] {
                    instrument.set(on);
                    let start = Instant::now();
                    let (tn, stats) =
                        synthesize_with_stats(prepared, config).expect("synthesis failed");
                    ms[usize::from(on)] += start.elapsed().as_secs_f64() * 1e3;
                    instrument.set(false);
                    let journal = tels_trace::drain().provenance_events().count();
                    let traced = on && instrument == Instrument::Trace;
                    assert_eq!(
                        journal,
                        if traced { tn.num_gates() } else { 0 },
                        "{name}: provenance journal != one event per emitted gate"
                    );
                    runs[usize::from(on)] = Some((tn.to_tnet(), stats.ilp_calls, stats.ilp_solves));
                }
                assert_eq!(
                    runs[0], runs[1],
                    "{name}: instrument changed the .tnet bytes or the query/solve counts"
                );
            }
        }
        pcts.push((ms[1] - ms[0]) / ms[0] * 1e2);
        offs.push(ms[0] / OVERHEAD_PASSES as f64);
        ons.push(ms[1] / OVERHEAD_PASSES as f64);
    }
    let (pct, iqr_pct) = median_iqr(&mut pcts);
    Overhead {
        off_ms: median_iqr(&mut offs).0,
        on_ms: median_iqr(&mut ons).0,
        pct,
        iqr_pct,
    }
}

/// The word-parallel Monte Carlo scaling leg: §VI-C yield analysis on
/// large generated circuits, packed engine vs the pre-engine scalar path.
///
/// Each circuit is mapped one-to-one (fast and deterministic — synthesis
/// speed is not what this leg measures), then `failure_rate` (packed,
/// 64 vectors per word, reference simulated once) and
/// `failure_rate_scalar` (per-row `Network::eval` + `eval_disturbed`,
/// the pre-engine mechanics) run over identical seeds. The two must agree
/// bit for bit — the engine is only allowed to be faster, never
/// different — and the suite speedup is the headline scaling number.
///
/// Returns the JSON section and the measured suite speedup. Quick mode
/// runs the same workload — the whole leg is well under a second, and the
/// committed-baseline gate only makes sense on identical parameters.
fn perturb_run() -> (Json, f64) {
    let trials = 16;
    let vectors = 512;
    let circuits: Vec<(&str, Network)> = vec![
        ("array_multiplier_6", array_multiplier(6)),
        ("majority_grid_16x8", majority_grid(16, 8)),
        ("parity_ladder_16x8", parity_ladder(16, 8)),
        ("lfsr_cone_16x24", lfsr_cone(16, 24)),
    ];
    let mut rows = Vec::new();
    let mut total_packed = 0.0;
    let mut total_scalar = 0.0;
    println!(
        "\n{:<20} {:>6} {:>11} {:>11} {:>8} {:>9}",
        "perturb circuit", "gates", "scalar ms", "packed ms", "speedup", "fail rate"
    );
    for (name, net) in &circuits {
        // δ_on = 2 gives every gate an integer margin that dwarfs the
        // ±0.1 disturbed-weight shifts below, so no trial fails and both
        // paths sweep every pattern of every trial — a throughput
        // comparison, not an early-exit race.
        let margin = TelsConfig {
            delta_on: 2,
            ..TelsConfig::default()
        };
        let tn = map_one_to_one(net, &margin).expect("one-to-one mapping");
        let opts = PerturbOptions {
            variation: 0.2,
            trials,
            exhaustive_limit: 10,
            vectors,
            seed: 0x5ca1e ^ name.len() as u64,
            threads: 1,
        };
        // Best-of-5 repetitions per path: the gate below compares this
        // run's ratio against the committed baseline, so a descheduled
        // timeslice — on either side of the ratio — must not read as a
        // regression or inflate the baseline.
        let time_best = |f: &mut dyn FnMut() -> f64| {
            let mut best = f64::INFINITY;
            let mut rate = 0.0;
            for _ in 0..5 {
                let start = Instant::now();
                rate = f();
                best = best.min(start.elapsed().as_secs_f64() * 1e3);
            }
            (rate, best)
        };
        let (scalar, scalar_ms) =
            time_best(&mut || failure_rate_scalar(&tn, net, &opts).expect("scalar failure rate"));
        let (packed, packed_ms) =
            time_best(&mut || failure_rate(&tn, net, &opts).expect("packed failure rate"));
        assert_eq!(
            packed.to_bits(),
            scalar.to_bits(),
            "{name}: packed and scalar Monte Carlo disagree ({packed} vs {scalar})"
        );
        println!(
            "{:<20} {:>6} {:>11.2} {:>11.2} {:>7.1}x {:>8.1}%",
            name,
            tn.num_gates(),
            scalar_ms,
            packed_ms,
            scalar_ms / packed_ms,
            1e2 * packed
        );
        total_scalar += scalar_ms;
        total_packed += packed_ms;
        rows.push(Json::obj([
            ("circuit", Json::str(*name)),
            ("gates", Json::Num(tn.num_gates() as f64)),
            ("scalar_ms", Json::Num(scalar_ms)),
            ("packed_ms", Json::Num(packed_ms)),
            ("speedup", Json::Num(scalar_ms / packed_ms)),
            ("failure_rate", Json::Num(packed)),
        ]));
    }
    let speedup = total_scalar / total_packed;
    println!(
        "perturb total: scalar {total_scalar:.1} ms, packed {total_packed:.1} ms — {speedup:.1}x"
    );
    let section = Json::obj([
        ("trials", Json::Num(trials as f64)),
        ("vectors", Json::Num(vectors as f64)),
        ("variation", Json::Num(0.2)),
        ("total_scalar_ms", Json::Num(total_scalar)),
        ("total_packed_ms", Json::Num(total_packed)),
        ("speedup", Json::Num(speedup)),
        ("circuits", Json::Arr(rows)),
    ]);
    (section, speedup)
}

/// Runs [`perturb_run`] `runs` times and returns the section of the run
/// with the median suite speedup, extended with the run count and the
/// smallest and largest speedup. Full runs commit this median of
/// [`PERTURB_RUNS`], so the quick-mode gate, which runs the leg once,
/// compares against a median rather than one sample.
fn measure_perturb(runs: usize) -> (Json, f64) {
    let mut legs: Vec<(Json, f64)> = (0..runs).map(|_| perturb_run()).collect();
    legs.sort_by(|a, b| a.1.total_cmp(&b.1));
    let (min, max) = (legs[0].1, legs[runs - 1].1);
    let (Json::Obj(mut section), speedup) = legs.swap_remove(runs / 2) else {
        unreachable!("the perturb section is an object")
    };
    println!("perturb median of {runs}: {speedup:.1}x (range {min:.1}-{max:.1}x)");
    section.extend([
        ("runs".to_string(), Json::Num(runs as f64)),
        ("speedup_min".to_string(), Json::Num(min)),
        ("speedup_max".to_string(), Json::Num(max)),
    ]);
    (Json::Obj(section), speedup)
}

/// Runs of the Monte Carlo leg in a full run.
const PERTURB_RUNS: usize = 5;

/// The tier-0.5 large-circuit leg: generated circuits synthesized at
/// ψ = 7, where collapse produces support-6/7 threshold queries that sit
/// above the tier-0 oracle's 5-variable reach. Each circuit runs the full
/// pipeline twice — tier 0.5 on (the default) and off — and the
/// leg asserts per circuit that the two netlists are byte-identical (the
/// tier answers only when its optimum is provably the merged ILP's unique
/// optimum) and that tier 0.5 never increases the ILP solve count.
///
/// Suite-level gates live in `main`: ≥ 50% of the remaining ILP solves
/// cut, at equal-or-better wall clock. Timing is min-of-N per leg
/// (N = 3 full, 2 quick) so one descheduled timeslice cannot fail the
/// wall-clock comparison. Each row also reports `tier05_ms`, the time the
/// tier-on run spent in tier 0.5 (`SolverBreakdown::tier05_ns`).
///
/// Returns `(section, solves_off, solves_on, off_ms, on_ms)`.
fn measure_tier05_large(samples: usize) -> (Json, usize, usize, f64, f64) {
    let samples = samples.clamp(2, 3);
    let circuits: Vec<(&str, Network)> = vec![
        ("array_multiplier_5", array_multiplier(5)),
        ("majority_grid_12x6", majority_grid(12, 6)),
        ("parity_ladder_10x4", parity_ladder(10, 4)),
        ("lfsr_cone_12x16", lfsr_cone(12, 16)),
        ("ripple_adder_16", ripple_adder(16)),
        ("comparator_10", comparator(10)),
        (
            "random_widefan_96",
            random_network(
                "random_widefan_96",
                0x7105,
                &RandomNetOptions {
                    nodes: 96,
                    inputs: 20,
                    outputs: 10,
                    max_fanin: 5,
                    max_cubes: 6,
                    ..RandomNetOptions::default()
                },
            ),
        ),
    ];
    let on_config = TelsConfig {
        psi: 7,
        ..TelsConfig::default()
    };
    assert!(
        on_config.tier05_active(),
        "large-leg configuration must engage tier 0.5"
    );
    let off_config = TelsConfig {
        use_tier05: false,
        ..on_config.clone()
    };
    let mut rows = Vec::new();
    let mut solves_off = 0usize;
    let mut solves_on = 0usize;
    let mut off_ms = 0.0;
    let mut on_ms = 0.0;
    let mut tier05_ms = 0.0;
    println!(
        "\n{:<20} {:>10} {:>10} {:>10} {:>10} {:>9} {:>8}",
        "tier05 circuit", "off ms", "on ms", "tier05 ms", "solves off", "solves on", "tier05"
    );
    for (name, net) in &circuits {
        let off = measure(net, &off_config, samples);
        let on = measure(net, &on_config, samples);
        assert_eq!(
            on.tnet, off.tnet,
            "{name}: tier 0.5 changed the synthesized netlist"
        );
        assert!(
            on.stats.ilp_solves <= off.stats.ilp_solves,
            "{name}: tier 0.5 increased the ILP solve count"
        );
        let row_tier05_ms = on.stats.solver.tier05_ns as f64 / 1e6;
        println!(
            "{:<20} {:>10.2} {:>10.2} {:>10.3} {:>10} {:>9} {:>8}",
            name,
            off.millis,
            on.millis,
            row_tier05_ms,
            off.stats.ilp_solves,
            on.stats.ilp_solves,
            on.stats.solver.tier05_hits + on.stats.solver.tier05_rejects,
        );
        solves_off += off.stats.ilp_solves;
        solves_on += on.stats.ilp_solves;
        off_ms += off.millis;
        on_ms += on.millis;
        tier05_ms += row_tier05_ms;
        rows.push(Json::obj([
            ("circuit", Json::str(*name)),
            ("off_ms", Json::Num(off.millis)),
            ("on_ms", Json::Num(on.millis)),
            ("tier05_ms", Json::Num(row_tier05_ms)),
            ("gates", Json::Num(on.gates as f64)),
            ("ilp_solves_off", Json::Num(off.stats.ilp_solves as f64)),
            ("ilp_solves_on", Json::Num(on.stats.ilp_solves as f64)),
            ("tier05_hits", Json::Num(on.stats.solver.tier05_hits as f64)),
            (
                "tier05_rejects",
                Json::Num(on.stats.solver.tier05_rejects as f64),
            ),
        ]));
    }
    let pct = if solves_off > 0 {
        (1.0 - solves_on as f64 / solves_off as f64) * 1e2
    } else {
        0.0
    };
    println!(
        "tier 0.5 large suite: ILP solves {solves_off} (off) -> {solves_on} (on), a \
         {pct:.1}% reduction; wall clock {off_ms:.1} ms -> {on_ms:.1} ms \
         ({tier05_ms:.2} ms in tier 0.5)"
    );
    let section = Json::obj([
        ("psi", Json::Num(7.0)),
        ("total_off_ms", Json::Num(off_ms)),
        ("total_on_ms", Json::Num(on_ms)),
        ("total_tier05_ms", Json::Num(tier05_ms)),
        ("ilp_solves_off", Json::Num(solves_off as f64)),
        ("ilp_solves_on", Json::Num(solves_on as f64)),
        ("circuits", Json::Arr(rows)),
    ]);
    (section, solves_off, solves_on, off_ms, on_ms)
}

/// Peak resident set of this process in MiB, read from `/proc/self/status`
/// (`VmHWM`, the high-water mark). Returns 0.0 where procfs is absent —
/// the JSON field is informative and never gated.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|line| line.starts_with("VmHWM:"))
                .and_then(|line| line.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The big-circuit scaling leg: one ≥10k-node generated circuit through
/// the full frontend — BLIF write, streaming parse, algebraic factoring,
/// synthesis, packed verification — with per-stage wall clock.
///
/// The parse stage is the streaming reader (`blif::parse_reader`), checked
/// byte-identical (under `write`) to the in-memory string parser on the
/// same input, so the number reported is the parser production code
/// actually runs on files. Parse, factoring and synthesis each report the
/// minimum of [`SCALING_SAMPLES`] runs, so a cold first run (page faults,
/// allocator growth) does not stand in for the code's speed. Factoring
/// dominates end-to-end time at this scale (see DESIGN §2.14), which is
/// exactly why the stage split is recorded.
///
/// A second measurement demonstrates structural hashing: the ALU array
/// generator duplicates its carry-generate/propagate gates against the
/// bitwise and/xor gates, and `opt::strash` followed by `Network::compact`
/// must strip at least those 2 gates per bit.
///
/// Returns `(section, parse_ms, pipeline_ms)` where `pipeline_ms` is
/// factoring + synthesis (the quick-mode regression gates ride on these).
fn measure_scaling() -> (Json, f64, f64) {
    let source = parity_ladder(160, 64);
    let nodes = source.num_logic_nodes();
    assert!(nodes >= 10_000, "scaling circuit shrank to {nodes} nodes");
    let text = blif::write(&source);

    let (parse_ms, parsed) = min_time_ms(SCALING_SAMPLES, || {
        blif::parse_reader(text.as_bytes()).expect("parse scaling circuit")
    });
    // The writer materializes buffer nodes for outputs that alias internal
    // signals, so the reparse may carry a few more nodes — never fewer.
    assert!(parsed.num_logic_nodes() >= nodes);
    assert_eq!(
        blif::write(&blif::parse(&text).expect("string parse")),
        blif::write(&parsed),
        "streaming and string parsers disagree on the scaling circuit"
    );

    let factoring = measure_factoring(&parsed);
    let factor_ms = factoring.median_ms;
    let prepared = factoring.out;
    let (synth_ms, (tn, stats)) = min_time_ms(SCALING_SAMPLES, || {
        synthesize_with_stats(&prepared, &TelsConfig::default())
            .expect("synthesize scaling circuit")
    });

    let start = Instant::now();
    assert!(
        tn.verify_against(&source, 12, 512, 0xB16)
            .expect("simulate scaling circuit")
            .is_none(),
        "scaling-circuit synthesis differs from its source"
    );
    let verify_ms = start.elapsed().as_secs_f64() * 1e3;

    // Structural hashing on the duplicated-logic ALU array (~10.8k nodes):
    // per bit, g_i duplicates and_i and p_i duplicates xor_i, so the
    // strashed network must come out at least 2 gates per bit smaller.
    let width = 1200usize;
    let alu = alu_array(width);
    let alu_nodes = alu.num_logic_nodes();
    let mut strashed = alu.clone();
    let start = Instant::now();
    let dedup_hits = opt::strash(&mut strashed);
    let strashed = strashed.compact();
    let strash_ms = start.elapsed().as_secs_f64() * 1e3;
    let alu_gates = strashed.num_logic_nodes();
    assert!(
        dedup_hits >= 2 * width,
        "strash merged only {dedup_hits} nodes"
    );
    assert!(
        alu_gates + 2 * width <= alu_nodes,
        "structural hashing removed only {} of the expected >= {} duplicate gates",
        alu_nodes - alu_gates,
        2 * width
    );
    let strash_pct = (1.0 - alu_gates as f64 / alu_nodes as f64) * 1e2;

    let rss_mb = peak_rss_mb();
    println!(
        "\nscaling: parity_ladder_160x64 ({nodes} nodes, {} BLIF bytes) — parse {parse_ms:.1} ms, \
         factor {factor_ms:.1} ms, synth {synth_ms:.1} ms ({} gates, {} ILP solves), \
         verify {verify_ms:.1} ms; peak RSS {rss_mb:.0} MiB",
        text.len(),
        tn.num_gates(),
        stats.ilp_solves
    );
    println!(
        "scaling: factoring median {factor_ms:.1} ms, IQR {:.1} ms over {FACTOR_RUNS} runs \
         ({}; item-5 target {FACTOR_TARGET_MS:.0} ms {}); eliminate pair memo: {} lookups, \
         {} trials computed",
        factoring.iqr_ms,
        factoring
            .passes
            .iter()
            .map(|(pass, ms)| format!("{pass} {ms:.1}"))
            .collect::<Vec<_>>()
            .join(", "),
        if factor_ms <= FACTOR_TARGET_MS {
            "met"
        } else {
            "not met"
        },
        factoring.pair_lookups,
        factoring.pair_trials,
    );
    println!(
        "scaling: strash alu_array_{width}: {alu_nodes} -> {alu_gates} gates \
         ({strash_pct:.1}% removed, {dedup_hits} dedup hits, {strash_ms:.1} ms)"
    );

    let section = Json::obj([
        ("circuit", Json::str("parity_ladder_160x64")),
        ("nodes", Json::Num(nodes as f64)),
        ("blif_bytes", Json::Num(text.len() as f64)),
        ("parse_ms", Json::Num(parse_ms)),
        ("factor_ms", Json::Num(factor_ms)),
        ("factor_iqr_ms", Json::Num(factoring.iqr_ms)),
        ("factor_runs", Json::Num(FACTOR_RUNS as f64)),
        (
            "factor_passes_ms",
            Json::obj(
                factoring
                    .passes
                    .iter()
                    .map(|&(pass, ms)| (pass, Json::Num(ms))),
            ),
        ),
        ("pair_lookups", Json::Num(factoring.pair_lookups as f64)),
        ("pair_trials", Json::Num(factoring.pair_trials as f64)),
        ("synth_ms", Json::Num(synth_ms)),
        ("verify_ms", Json::Num(verify_ms)),
        ("gates", Json::Num(tn.num_gates() as f64)),
        ("ilp_solves", Json::Num(stats.ilp_solves as f64)),
        ("peak_rss_mb", Json::Num(rss_mb)),
        (
            "strash",
            Json::obj([
                ("circuit", Json::str("alu_array_1200")),
                ("nodes", Json::Num(alu_nodes as f64)),
                ("gates", Json::Num(alu_gates as f64)),
                ("reduction_pct", Json::Num(strash_pct)),
                ("dedup_hits", Json::Num(dedup_hits as f64)),
                ("strash_ms", Json::Num(strash_ms)),
            ]),
        ),
    ]);
    (section, parse_ms, factor_ms + synth_ms)
}

/// Factoring runs of the 10k scaling leg; the median is reported.
const FACTOR_RUNS: usize = 7;

/// ROADMAP item 5's target for the 10k leg's median factoring time (ms).
/// Reported, not gated: a wall-clock gate on a shared VM fails on load.
const FACTOR_TARGET_MS: f64 = 110.0;

/// The factoring passes, as their trace spans name them; `compact` is the
/// rest of `script_algebraic`'s span.
const FACTOR_PASSES: [&str; 7] = [
    "compact",
    "sweep",
    "eliminate",
    "simplify",
    "resubstitute",
    "extract",
    "strash",
];

/// [`measure_factoring`]'s result.
struct Factoring {
    median_ms: f64,
    iqr_ms: f64,
    /// Per pass (all of its calls in one run), the median over the runs.
    passes: Vec<(&'static str, f64)>,
    /// The `eliminate` pair memo's lookups and computed trials in one run.
    pair_lookups: u64,
    pair_trials: u64,
    out: Network,
}

/// Runs `script_algebraic` [`FACTOR_RUNS`] times under tracing and splits
/// each run's wall clock by the passes' spans (about 20 spans a run, so
/// tracing costs microseconds here).
fn measure_factoring(net: &Network) -> Factoring {
    use tels_trace::ArgValue;
    let mut total = Vec::new();
    let mut passes = vec![Vec::new(); FACTOR_PASSES.len()];
    let (mut pair_lookups, mut pair_trials) = (0, 0);
    let mut out = None;
    tels_trace::drain();
    for _ in 0..FACTOR_RUNS {
        tels_trace::enable();
        let (ms, factored) = time_ms(|| script_algebraic(net));
        tels_trace::disable();
        total.push(ms);
        out = Some(factored);
        let mut per_pass = [0.0; FACTOR_PASSES.len()];
        (pair_lookups, pair_trials) = (0, 0);
        let trace = tels_trace::drain();
        let spans = tels_trace::export::spans(&trace).expect("factoring spans nest");
        for span in spans.iter().filter(|s| s.cat == "logic") {
            let span_ms = span.dur_ns as f64 / 1e6;
            // The outer span counts toward `compact`; the passes' spans
            // are subtracted from it below.
            let pass = match span.name {
                "script_algebraic" => "compact",
                name => name,
            };
            let i = FACTOR_PASSES
                .iter()
                .position(|&p| p == pass)
                .unwrap_or_else(|| panic!("unknown factoring span {pass}"));
            per_pass[i] += span_ms;
            if pass != "compact" {
                per_pass[0] -= span_ms;
            }
            for &(key, value) in span.args.iter() {
                match (key, value) {
                    ("pair_lookups", ArgValue::UInt(n)) => pair_lookups += n,
                    ("pair_trials", ArgValue::UInt(n)) => pair_trials += n,
                    _ => {}
                }
            }
        }
        for (samples, ms) in passes.iter_mut().zip(per_pass) {
            samples.push(ms);
        }
    }
    let (median_ms, iqr_ms) = median_iqr(&mut total);
    Factoring {
        median_ms,
        iqr_ms,
        passes: FACTOR_PASSES
            .iter()
            .zip(&mut passes)
            .map(|(&pass, samples)| (pass, median_iqr(samples).0))
            .collect(),
        pair_lookups,
        pair_trials,
        out: out.expect("at least one run"),
    }
}

/// `n ln n`, the growth the large scaling leg may show against the 10k leg.
fn n_log_n(n: usize) -> f64 {
    n as f64 * (n as f64).ln()
}

/// Headroom on the n log n growth bound for the memory hierarchy: the 10k
/// leg's working set (hash tables, covers) sits in cache and the 100k
/// leg's does not, which costs a constant factor per node access. Measured
/// as median paired ratios over five full runs on a 2-vCPU VM: parse grows
/// 12.2-13.5x, factoring 9.6-13.2x and synthesis 8.9-13.9x where n log n
/// gives 12.2x. A quadratic stage grows ~95x and still fails by far.
const MEMORY_HEADROOM: f64 = 1.5;

/// Wall clock (ms) of one call of `f`, and its result.
fn time_ms<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let start = Instant::now();
    let out = f();
    (start.elapsed().as_secs_f64() * 1e3, out)
}

/// Runs of the 10k scaling leg's parse and synthesis; the minimum is
/// reported.
const SCALING_SAMPLES: usize = 3;

/// The smallest wall clock (ms) of `samples` calls of `f`, and the last
/// call's result.
fn min_time_ms<T>(samples: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..samples {
        let (ms, o) = time_ms(&mut f);
        best = best.min(ms);
        out = Some(o);
    }
    (best, out.expect("at least one sample"))
}

/// One stage timed at both sizes of the growth gate: each size's smallest
/// wall clock (ms), the median per-pair ratio large / small, and each
/// size's last result.
struct Paired<S, L> {
    small_ms: f64,
    large_ms: f64,
    growth: f64,
    small: S,
    large: L,
}

/// Times `small` and `large` alternately, `pairs` times each. The two runs
/// of a pair sit next to each other, so a drift in machine speed moves
/// both sides of that pair's ratio, and the median ratio measures growth
/// rather than the drift.
fn paired<S, L>(
    pairs: usize,
    mut small: impl FnMut() -> S,
    mut large: impl FnMut() -> L,
) -> Paired<S, L> {
    let mut ratios = Vec::with_capacity(pairs);
    let (mut small_ms, mut large_ms) = (f64::INFINITY, f64::INFINITY);
    let (mut small_out, mut large_out) = (None, None);
    for _ in 0..pairs {
        let (s_ms, s) = time_ms(&mut small);
        let (l_ms, l) = time_ms(&mut large);
        ratios.push(l_ms / s_ms);
        small_ms = small_ms.min(s_ms);
        large_ms = large_ms.min(l_ms);
        small_out = Some(s);
        large_out = Some(l);
    }
    ratios.sort_by(f64::total_cmp);
    Paired {
        small_ms,
        large_ms,
        growth: ratios[pairs / 2],
        small: small_out.expect("at least one pair"),
        large: large_out.expect("at least one pair"),
    }
}

/// The ≥100k-node scaling leg (full runs only): `parity_ladder(500, 200)`
/// through the same frontend as [`measure_scaling`] — streaming parse,
/// algebraic factoring, synthesis, packed verification — with per-stage
/// wall clock and the process peak RSS afterwards.
///
/// Parse, factoring and synthesis must each grow no faster than n log n
/// (times [`MEMORY_HEADROOM`]) against `parity_ladder(160, 64)`. Each
/// stage runs at both sizes in alternating pairs ([`paired`]; 5 pairs for
/// parse, 3 for factoring and synthesis) and the gate reads the median
/// per-pair ratio, so neither one descheduled timeslice nor a drift in
/// machine speed between the two sizes can fail it. The stage times
/// reported are each size's minimum.
fn measure_scaling_100k() -> Json {
    let small_source = parity_ladder(160, 64);
    let small_nodes = small_source.num_logic_nodes();
    let small_text = blif::write(&small_source);
    let source = parity_ladder(500, 200);
    let nodes = source.num_logic_nodes();
    assert!(
        nodes >= 100_000,
        "large scaling circuit shrank to {nodes} nodes"
    );
    let text = blif::write(&source);

    let parse = paired(
        5,
        || blif::parse_reader(small_text.as_bytes()).expect("parse scaling circuit"),
        || blif::parse_reader(text.as_bytes()).expect("parse large scaling circuit"),
    );
    let factor = paired(
        3,
        || script_algebraic(&parse.small),
        || script_algebraic(&parse.large),
    );
    let synth = paired(
        3,
        || {
            synthesize_with_stats(&factor.small, &TelsConfig::default())
                .expect("synthesize scaling circuit")
        },
        || {
            synthesize_with_stats(&factor.large, &TelsConfig::default())
                .expect("synthesize large scaling circuit")
        },
    );
    let (tn, stats) = &synth.large;
    let (verify_ms, cex) = time_ms(|| {
        tn.verify_against(&source, 12, 512, 0xB16)
            .expect("simulate large scaling circuit")
    });
    assert!(
        cex.is_none(),
        "large scaling-circuit synthesis differs from its source"
    );
    let rss_mb = peak_rss_mb();

    let n_log_n_growth = n_log_n(nodes) / n_log_n(small_nodes);
    let allowed = n_log_n_growth * MEMORY_HEADROOM;
    let (small_parse_ms, parse_ms, parse_growth) = (parse.small_ms, parse.large_ms, parse.growth);
    let (small_factor_ms, factor_ms, factor_growth) =
        (factor.small_ms, factor.large_ms, factor.growth);
    let (small_synth_ms, synth_ms, synth_growth) = (synth.small_ms, synth.large_ms, synth.growth);
    println!(
        "scaling: parity_ladder_500x200 ({nodes} nodes, {} BLIF bytes) — parse {parse_ms:.1} ms \
         ({parse_growth:.1}x the 10k leg), factor {factor_ms:.1} ms ({factor_growth:.1}x), \
         synth {synth_ms:.1} ms ({synth_growth:.1}x, {} gates), verify {verify_ms:.1} ms; \
         n log n gives {n_log_n_growth:.1}x; peak RSS {rss_mb:.0} MiB",
        text.len(),
        tn.num_gates()
    );
    assert!(
        parse_growth <= allowed,
        "parse grew {parse_growth:.1}x from {small_nodes} to {nodes} nodes \
         ({small_parse_ms:.1} -> {parse_ms:.1} ms); the gate allows {allowed:.1}x"
    );
    assert!(
        factor_growth <= allowed,
        "factoring grew {factor_growth:.1}x from {small_nodes} to {nodes} nodes \
         ({small_factor_ms:.1} -> {factor_ms:.1} ms); the gate allows {allowed:.1}x"
    );
    assert!(
        synth_growth <= allowed,
        "synthesis grew {synth_growth:.1}x from {small_nodes} to {nodes} nodes \
         ({small_synth_ms:.1} -> {synth_ms:.1} ms); the gate allows {allowed:.1}x"
    );
    Json::obj([
        ("circuit", Json::str("parity_ladder_500x200")),
        ("nodes", Json::Num(nodes as f64)),
        ("blif_bytes", Json::Num(text.len() as f64)),
        ("parse_ms", Json::Num(parse_ms)),
        ("factor_ms", Json::Num(factor_ms)),
        ("synth_ms", Json::Num(synth_ms)),
        ("verify_ms", Json::Num(verify_ms)),
        ("gates", Json::Num(tn.num_gates() as f64)),
        ("ilp_solves", Json::Num(stats.ilp_solves as f64)),
        ("peak_rss_mb", Json::Num(rss_mb)),
        ("small_parse_ms", Json::Num(small_parse_ms)),
        ("small_factor_ms", Json::Num(small_factor_ms)),
        ("small_synth_ms", Json::Num(small_synth_ms)),
        ("n_log_n_growth", Json::Num(n_log_n_growth)),
        ("parse_growth", Json::Num(parse_growth)),
        ("factor_growth", Json::Num(factor_growth)),
        ("synth_growth", Json::Num(synth_growth)),
    ])
}

/// Repeats of each whole workload in the stage table (full runs; quick
/// runs take 3).
const STAGE_REPEATS: usize = 7;

/// The 31 wide random networks of the repository benchmark's `wide_psi9`
/// workload (200 nodes, 24 inputs, 12 outputs, fanin ≤ 6, ≤ 6 cubes, one
/// literal in five complemented, seeds `0x5EED0000 + i`), factored once,
/// as BLIF text.
fn wide_texts() -> Vec<String> {
    let options = RandomNetOptions {
        inputs: 24,
        outputs: 12,
        nodes: 200,
        max_fanin: 6,
        max_cubes: 6,
        negation_pct: 20,
        ..RandomNetOptions::default()
    };
    (0..31u64)
        .map(|i| {
            let net = random_network(&format!("wide_{i}"), 0x5EED_0000 + i, &options);
            blif::write(&script_algebraic(&net))
        })
        .collect()
}

/// The stage timers of one synthesis run, in ms, in table order; the last
/// entry is the run's wall clock.
fn stage_ms(stats: &SynthStats) -> [f64; STAGE_NAMES.len()] {
    let (st, sv) = (&stats.stages, &stats.solver);
    [
        st.setup_ns,
        st.collapse_ns,
        st.unate_split_ns,
        st.binate_split_ns,
        st.theorem2_ns,
        st.query_prep_ns,
        sv.tier0_ns,
        sv.canon_ns,
        sv.structure_ns,
        sv.tier05_ns,
        sv.int_solve_ns + sv.rational_solve_ns,
        st.emit_ns,
        st.unattributed_ns,
        st.total_ns,
    ]
    .map(|ns| ns as f64 / 1e6)
}

/// Row names of the stage table, matching [`stage_ms`].
const STAGE_NAMES: [&str; 14] = [
    "setup",
    "collapse",
    "unate_split",
    "binate_split",
    "theorem2",
    "query_prep",
    "tier0",
    "canonicalize",
    "structure",
    "tier05",
    "ilp",
    "emit",
    "unattributed",
    "total",
];

/// `{median, iqr}` of a sample, rounded to microseconds.
fn spread(xs: &mut [f64]) -> Json {
    let (median, iqr) = median_iqr(xs);
    let round = |v: f64| (v * 1e3).round() / 1e3;
    Json::obj([
        ("median", Json::Num(round(median))),
        ("iqr", Json::Num(round(iqr))),
    ])
}

/// One workload of the stage table: every circuit synthesized once per
/// repeat, the stage timers summed over the workload. Returns the JSON
/// row and the medians (ms per workload pass, in [`STAGE_NAMES`] order).
fn stage_row(name: &str, jobs: &[(&Network, TelsConfig)], repeats: usize) -> (Json, Vec<f64>) {
    let mut samples = vec![Vec::new(); STAGE_NAMES.len()];
    for _ in 0..repeats {
        let mut sums = [0.0; STAGE_NAMES.len()];
        for (net, config) in jobs {
            let (_, stats) = synthesize_with_stats(net, config).expect("synthesis failed");
            for (sum, ms) in sums.iter_mut().zip(stage_ms(&stats)) {
                *sum += ms;
            }
        }
        for (sample, sum) in samples.iter_mut().zip(sums) {
            sample.push(sum);
        }
    }
    let medians: Vec<f64> = samples.iter_mut().map(|xs| median_iqr(xs).0).collect();
    let unattributed_pct = medians[STAGE_NAMES.len() - 2] / medians[STAGE_NAMES.len() - 1] * 1e2;
    let stages = STAGE_NAMES
        .iter()
        .zip(samples.iter_mut())
        .map(|(stage, xs)| (format!("{stage}_ms"), spread(xs)));
    let row = Json::obj([
        ("workload", Json::str(name)),
        ("circuits", Json::Num(jobs.len() as f64)),
        (
            "unattributed_pct",
            Json::Num((unattributed_pct * 10.0).round() / 10.0),
        ),
        ("stages", Json::Obj(stages.collect())),
    ]);
    (row, medians)
}

/// Streaming-parser throughput over `texts` as `{median, iqr}` MB/s over
/// `repeats` passes, each pass parsing every text once.
fn parse_mb_per_s(texts: &[String], repeats: usize) -> Json {
    let bytes: usize = texts.iter().map(String::len).sum();
    let mut rates: Vec<f64> = (0..repeats)
        .map(|_| {
            let mut secs = 0.0;
            for text in texts {
                let start = Instant::now();
                let net = blif::parse_reader(text.as_bytes()).expect("parse");
                secs += start.elapsed().as_secs_f64();
                drop(net);
            }
            bytes as f64 / 1e6 / secs
        })
        .collect();
    let (median, iqr) = median_iqr(&mut rates);
    Json::obj([
        ("bytes", Json::Num(bytes as f64)),
        ("median", Json::Num((median * 10.0).round() / 10.0)),
        ("iqr", Json::Num((iqr * 10.0).round() / 10.0)),
    ])
}

/// The stage table (see the module docs): the suite as the main pass
/// synthesizes it, the wide networks at ψ = 9 and the 10k ladder at the
/// default ψ, plus parse throughput on the wide and ladder texts.
fn measure_stages(suite: &[(String, Network, TelsConfig)], repeats: usize) -> Json {
    let wide = wide_texts();
    let wide_nets: Vec<Network> = wide
        .iter()
        .map(|t| blif::parse(t).expect("parse wide"))
        .collect();
    let ladder_text = blif::write(&parity_ladder(160, 64));
    let ladder = script_algebraic(&blif::parse(&ladder_text).expect("parse ladder"));
    let psi9 = TelsConfig {
        psi: 9,
        ..TelsConfig::default()
    };
    let suite_jobs: Vec<(&Network, TelsConfig)> =
        suite.iter().map(|(_, n, c)| (n, c.clone())).collect();
    let wide_jobs: Vec<(&Network, TelsConfig)> =
        wide_nets.iter().map(|n| (n, psi9.clone())).collect();
    let ladder_jobs = [(&ladder, TelsConfig::default())];
    let mut rows = Vec::new();
    println!("\nsynthesis stages, median ms per workload pass over {repeats} repeats:");
    println!(
        "{:<14} {:>10} {:>10} {:>10}",
        "stage", "suite", "wide_psi9", "ladder_10k"
    );
    let mut columns = Vec::new();
    for (name, jobs) in [
        ("suite", &suite_jobs[..]),
        ("wide_psi9", &wide_jobs[..]),
        ("parity_ladder_160x64", &ladder_jobs[..]),
    ] {
        let (row, medians) = stage_row(name, jobs, repeats);
        rows.push(row);
        columns.push(medians);
    }
    for (i, stage) in STAGE_NAMES.iter().enumerate() {
        println!(
            "{stage:<14} {:>10.3} {:>10.3} {:>10.3}",
            columns[0][i], columns[1][i], columns[2][i]
        );
    }
    let wide_parse = parse_mb_per_s(&wide, repeats);
    let ladder_parse = parse_mb_per_s(std::slice::from_ref(&ladder_text), repeats);
    let mb = |j: &Json| j.get("median").and_then(Json::as_f64).unwrap_or(0.0);
    println!(
        "streaming parse: wide texts {:.1} MB/s, ladder text {:.1} MB/s",
        mb(&wide_parse),
        mb(&ladder_parse)
    );
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    Json::obj([
        ("nproc", Json::Num(nproc as f64)),
        ("repeats", Json::Num(repeats as f64)),
        ("workloads", Json::Arr(rows)),
        (
            "parse_mb_per_s",
            Json::obj([
                ("wide_psi9", wide_parse),
                ("parity_ladder_160x64", ladder_parse),
            ]),
        ),
    ])
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let samples = if quick { 1 } else { SAMPLES };
    // Build the tier-0 oracle before any clock starts: its one-time
    // construction cost must not be charged to the first circuit.
    tels_core::prewarm_tier0();

    // (name, network, ψ): the default ψ = 3 plus a few ψ = 5 entries,
    // where wider unate covers reach the Theorem-1 refutation.
    let circuits: Vec<(String, Network, usize)> = vec![
        ("c17".to_string(), c17(), 3),
        ("alu_slice".to_string(), alu_slice(), 3),
        ("barrel_shifter_8".to_string(), barrel_shifter(8), 3),
        ("gray_code_8".to_string(), gray_code(8), 3),
        ("ripple_adder_8".to_string(), ripple_adder(8), 3),
        ("comparator_6".to_string(), comparator(6), 3),
        ("mux_tree_3".to_string(), mux_tree(3), 3),
        ("decoder_5".to_string(), decoder(5), 3),
        ("parity_tree_10".to_string(), parity_tree(10), 3),
        (
            "random_48".to_string(),
            random_network("random_48", 0x7e15, &RandomNetOptions::default()),
            3,
        ),
        (
            "random_96".to_string(),
            random_network(
                "random_96",
                0xcafe,
                &RandomNetOptions {
                    nodes: 96,
                    inputs: 20,
                    outputs: 10,
                    ..RandomNetOptions::default()
                },
            ),
            3,
        ),
        ("ripple_adder_8_psi5".to_string(), ripple_adder(8), 5),
        ("comparator_6_psi5".to_string(), comparator(6), 5),
        (
            "random_48_psi5".to_string(),
            random_network("random_48", 0x7e15, &RandomNetOptions::default()),
            5,
        ),
    ];

    let mut rows: Vec<Json> = Vec::new();
    let mut total_ms = 0.0;
    let mut total_avoided = 0usize;
    let mut total_int_solves = 0usize;
    let mut total_fallbacks = 0usize;
    let mut total_merged = 0usize;
    let mut total_tier0_lookups = 0usize;
    let mut solves_tier0_on = 0usize;
    let mut solves_tier0_off = 0usize;
    let mut support_hist = [0u64; tels_core::SolverBreakdown::SUPPORT_BUCKETS];
    println!(
        "{:<18} {:>10} {:>8} {:>8} {:>8} {:>9} {:>8}",
        "circuit", "ms", "solves", "tier0", "hits", "theorem1", "fallbk"
    );
    let mut traced_suite: Vec<(String, Network, TelsConfig)> = Vec::new();
    for (name, net, psi) in &circuits {
        let config = TelsConfig {
            psi: *psi,
            ..TelsConfig::default()
        };
        let prepared = script_algebraic(net);
        let m = measure(&prepared, &config, samples);
        // The oracle's bit-identicality contract, checked per circuit: the
        // same configuration with tier 0 disabled (untimed, one sample)
        // must produce byte-for-byte the same netlist from the same
        // threshold queries.
        let no_tier0 = measure(
            &prepared,
            &TelsConfig {
                use_tier0: false,
                ..config.clone()
            },
            1,
        );
        assert_eq!(
            m.tnet, no_tier0.tnet,
            "{name}: tier 0 changed the synthesized netlist"
        );
        assert_eq!(
            m.stats.ilp_calls, no_tier0.stats.ilp_calls,
            "{name}: tier 0 changed the threshold-query count"
        );
        assert!(
            m.stats.ilp_solves <= no_tier0.stats.ilp_solves,
            "{name}: tier 0 increased the ILP solve count"
        );
        traced_suite.push((name.clone(), prepared.clone(), config));
        println!(
            "{:<18} {:>10.2} {:>8} {:>8} {:>8} {:>9} {:>8}",
            name,
            m.millis,
            m.stats.ilp_solves,
            m.stats.solver.tier0_lookups,
            m.stats.cache_hits,
            m.stats.theorem1_refutations,
            m.stats.solver.rational_fallbacks + no_tier0.stats.solver.rational_fallbacks,
        );
        total_ms += m.millis;
        total_avoided += m.stats.ilp_avoided();
        total_tier0_lookups += m.stats.solver.tier0_lookups;
        solves_tier0_on += m.stats.ilp_solves;
        solves_tier0_off += no_tier0.stats.ilp_solves;
        for (bucket, &count) in support_hist
            .iter_mut()
            .zip(m.stats.solver.support_hist.iter())
        {
            *bucket += u64::from(count);
        }
        for run in [&m, &no_tier0] {
            total_int_solves += run.stats.solver.int_fast_path_solves;
            total_fallbacks += run.stats.solver.rational_fallbacks;
            total_merged += run.stats.solver.chow_merged_vars;
        }
        rows.push(json_row(name, &m, &no_tier0));
    }

    // The tentpole acceptance gate: with tier 0 on, the full pipeline must
    // construct at most half the ILPs the same pipeline needs without it.
    let reduction_pct = if solves_tier0_off > 0 {
        (1.0 - solves_tier0_on as f64 / solves_tier0_off as f64) * 1e2
    } else {
        0.0
    };
    println!(
        "tier 0: {total_tier0_lookups} lookups; suite ILP solves {solves_tier0_off} (off) -> \
         {solves_tier0_on} (on), a {reduction_pct:.1}% reduction"
    );
    assert!(
        solves_tier0_on * 2 <= solves_tier0_off,
        "tier 0 cut ILP solves only from {solves_tier0_off} to {solves_tier0_on} (< 50%)"
    );

    let fallback_rate = if total_int_solves + total_fallbacks > 0 {
        total_fallbacks as f64 / (total_int_solves + total_fallbacks) as f64
    } else {
        0.0
    };
    println!(
        "\ntotal: {total_ms:.1} ms ({total_avoided} ILP solves avoided, {total_merged} Chow-merged vars, \
         {total_fallbacks} rational fallbacks / {:.2}% rate)",
        fallback_rate * 1e2
    );

    let trace = paired_overhead(&traced_suite, Instrument::Trace);
    let metrics = paired_overhead(&traced_suite, Instrument::Metrics);
    for (name, o) in [("trace", &trace), ("metrics", &metrics)] {
        println!(
            "{name} overhead: off {:.2} ms, on {:.2} ms per pass; median {:+.1}%, \
             IQR {:.1} points over {OVERHEAD_PAIRS} pairs",
            o.off_ms, o.on_ms, o.pct, o.iqr_pct
        );
    }

    let (perturb_section, perturb_speedup) = measure_perturb(if quick { 1 } else { PERTURB_RUNS });

    let (tier05_section, t05_off, t05_on, t05_off_ms, t05_on_ms) = measure_tier05_large(samples);
    let large_reduction_pct = if t05_off > 0 {
        (1.0 - t05_on as f64 / t05_off as f64) * 1e2
    } else {
        0.0
    };
    // The tier-0.5 acceptance gates: on the large suite the tier must cut
    // at least half the ILP solves tier 0 leaves behind, and it must pay
    // for itself — the tier-on leg may not be slower than the tier-off
    // leg beyond a 5% scheduler-noise guard on the min-of-N timings.
    assert!(
        t05_on * 2 <= t05_off,
        "tier 0.5 cut large-suite ILP solves only from {t05_off} to {t05_on} (< 50%)"
    );
    assert!(
        t05_on_ms <= t05_off_ms * 1.05,
        "tier 0.5 slowed the large suite: {t05_on_ms:.1} ms on vs {t05_off_ms:.1} ms off"
    );

    let stages_section = measure_stages(&traced_suite, if quick { 3 } else { STAGE_REPEATS });

    let (scaling_section, scaling_parse_ms, scaling_pipeline_ms) = measure_scaling();
    let scaling_100k_section = (!quick).then(measure_scaling_100k);

    if quick {
        // Quick (CI) mode: regression-gate the oracle against the
        // committed baseline instead of rewriting it — the suite's solve
        // count with tier 0 on must stay at most half the committed
        // tier-0-off count.
        match std::fs::read_to_string("BENCH_synthesis.json") {
            Ok(text) => {
                let doc = tels_trace::json::parse(&text).ok();
                let committed_off = doc
                    .as_ref()
                    .and_then(|doc| doc.get("ilp_solves_tier0_off").and_then(Json::as_u64));
                match committed_off {
                    Some(committed_off) => assert!(
                        solves_tier0_on as u64 * 2 <= committed_off,
                        "suite ILP solves {solves_tier0_on} not halved vs committed \
                         tier-0-off baseline {committed_off}"
                    ),
                    None => eprintln!(
                        "synth_pipeline: committed BENCH_synthesis.json predates the \
                         tier-0 keys; skipping the solve-reduction gate"
                    ),
                }
                // The committed reduction, readable in either form: the
                // historical bare fraction (`"ilp_solve_reduction": 1`) or
                // the current object with before/after counts and a `pct`
                // field. A small slack absorbs benign suite drift; real
                // regressions (tier 0 losing coverage) blow well past it.
                let committed_pct = doc
                    .as_ref()
                    .and_then(|doc| doc.get("ilp_solve_reduction"))
                    .and_then(|v| match v {
                        Json::Num(frac) => Some(frac * 1e2),
                        obj => obj.get("pct").and_then(Json::as_f64),
                    });
                match committed_pct {
                    Some(committed_pct) => assert!(
                        reduction_pct >= committed_pct - 5.0,
                        "tier-0 ILP solve reduction {reduction_pct:.1}% regressed vs \
                         committed {committed_pct:.1}%"
                    ),
                    None => eprintln!(
                        "synth_pipeline: committed BENCH_synthesis.json has no \
                         ilp_solve_reduction in either form; skipping the pct gate"
                    ),
                }
                // The tier-0.5 large-suite reduction, readable in either
                // form like the tier-0 key above: a bare fraction or the
                // `{before, after, pct}` object. Files committed before the
                // tier-0.5 leg existed have neither — skip, don't fail.
                let committed_large = doc
                    .as_ref()
                    .and_then(|doc| doc.get("ilp_solve_reduction_large"))
                    .and_then(|v| match v {
                        Json::Num(frac) => Some(frac * 1e2),
                        obj => obj.get("pct").and_then(Json::as_f64),
                    });
                match committed_large {
                    Some(committed) => assert!(
                        large_reduction_pct >= committed - 5.0,
                        "tier-0.5 large-suite ILP solve reduction {large_reduction_pct:.1}% \
                         regressed vs committed {committed:.1}%"
                    ),
                    None => eprintln!(
                        "synth_pipeline: committed BENCH_synthesis.json has no \
                         ilp_solve_reduction_large in either form; skipping the gate"
                    ),
                }
                // The Monte Carlo scaling gate: the packed engine's speedup
                // over the scalar path may not regress more than 10% below
                // the committed baseline (the bit-identical-rate assert
                // already ran inside `measure_perturb`).
                let committed_perturb = doc
                    .as_ref()
                    .and_then(|doc| doc.get("perturb"))
                    .and_then(|p| p.get("speedup"))
                    .and_then(Json::as_f64);
                match committed_perturb {
                    Some(committed) => {
                        let mut best = perturb_speedup;
                        if best < committed * 0.9 {
                            // One remeasure before failing: the gate exists
                            // to catch code regressions, not a noisy
                            // neighbor on the CI machine.
                            eprintln!(
                                "synth_pipeline: measured {best:.1}x below the Monte Carlo \
                                 gate ({:.1}x); remeasuring once",
                                committed * 0.9
                            );
                            let (_, retry) = measure_perturb(1);
                            best = best.max(retry);
                        }
                        assert!(
                            best >= committed * 0.9,
                            "packed Monte Carlo speedup {best:.1}x regressed more \
                             than 10% vs committed {committed:.1}x"
                        );
                    }
                    None => eprintln!(
                        "synth_pipeline: committed BENCH_synthesis.json has no perturb \
                         section; skipping the Monte Carlo gate"
                    ),
                }
                // The big-circuit scaling gates: parse and factoring+
                // synthesis wall clock on the 10k-node circuit may not blow
                // up versus the committed baseline. The tolerances are
                // deliberately loose (3x plus a floor) — the gate exists to
                // catch accidentally-quadratic regressions, which at this
                // scale overshoot by orders of magnitude, not to litigate
                // scheduler noise. (The absolute properties — ≥10k nodes,
                // streaming/string byte identity, the ≥2-gates-per-bit
                // strash reduction, functional verification — were already
                // asserted inside `measure_scaling`.)
                let scaling = doc.as_ref().and_then(|doc| doc.get("scaling"));
                match scaling {
                    Some(scaling) => {
                        if let Some(committed) = scaling.get("parse_ms").and_then(Json::as_f64) {
                            assert!(
                                scaling_parse_ms <= committed * 3.0 + 50.0,
                                "10k-node streaming parse took {scaling_parse_ms:.1} ms vs \
                                 committed {committed:.1} ms"
                            );
                        }
                        let committed_pipeline = scaling
                            .get("factor_ms")
                            .and_then(Json::as_f64)
                            .and_then(|f| {
                                scaling
                                    .get("synth_ms")
                                    .and_then(Json::as_f64)
                                    .map(|s| f + s)
                            });
                        if let Some(committed) = committed_pipeline {
                            assert!(
                                scaling_pipeline_ms <= committed * 3.0 + 500.0,
                                "10k-node factoring+synthesis took {scaling_pipeline_ms:.1} ms \
                                 vs committed {committed:.1} ms"
                            );
                        }
                    }
                    None => eprintln!(
                        "synth_pipeline: committed BENCH_synthesis.json has no scaling \
                         section; skipping the big-circuit timing gates"
                    ),
                }
            }
            Err(e) => eprintln!("synth_pipeline: no committed BENCH_synthesis.json ({e})"),
        }
    } else {
        let doc = Json::obj([
            ("benchmark", Json::str("synth_pipeline")),
            ("total_ms", Json::Num(total_ms)),
            ("ilp_avoided", Json::Num(total_avoided as f64)),
            ("tier0_lookups", Json::Num(total_tier0_lookups as f64)),
            ("ilp_solves_tier0_on", Json::Num(solves_tier0_on as f64)),
            ("ilp_solves_tier0_off", Json::Num(solves_tier0_off as f64)),
            (
                "ilp_solve_reduction",
                Json::obj([
                    ("before", Json::Num(solves_tier0_off as f64)),
                    ("after", Json::Num(solves_tier0_on as f64)),
                    ("pct", Json::Num(reduction_pct)),
                ]),
            ),
            (
                "query_support_hist",
                Json::Arr(support_hist.iter().map(|&c| Json::Num(c as f64)).collect()),
            ),
            ("chow_merged_vars", Json::Num(total_merged as f64)),
            ("int_fast_path_solves", Json::Num(total_int_solves as f64)),
            ("rational_fallbacks", Json::Num(total_fallbacks as f64)),
            ("overhead_pairs", Json::Num(OVERHEAD_PAIRS as f64)),
            ("suite_ms_untraced", Json::Num(trace.off_ms)),
            ("suite_ms_traced", Json::Num(trace.on_ms)),
            ("trace_overhead_pct", Json::Num(trace.pct)),
            ("trace_overhead_iqr_pct", Json::Num(trace.iqr_pct)),
            ("suite_ms_metrics_off", Json::Num(metrics.off_ms)),
            ("suite_ms_metrics_on", Json::Num(metrics.on_ms)),
            ("metrics_overhead_pct", Json::Num(metrics.pct)),
            ("metrics_overhead_iqr_pct", Json::Num(metrics.iqr_pct)),
            (
                "ilp_solve_reduction_large",
                Json::obj([
                    ("before", Json::Num(t05_off as f64)),
                    ("after", Json::Num(t05_on as f64)),
                    ("pct", Json::Num(large_reduction_pct)),
                ]),
            ),
            ("perturb", perturb_section),
            ("tier05_large", tier05_section),
            ("synthesis_stages", stages_section),
            ("scaling", scaling_section),
            (
                "scaling_100k",
                scaling_100k_section.expect("full runs measure the large leg"),
            ),
            ("circuits", Json::Arr(rows)),
        ]);
        let mut json = doc.pretty();
        json.push('\n');
        std::fs::write("BENCH_synthesis.json", &json).expect("write BENCH_synthesis.json");
        println!("wrote BENCH_synthesis.json");
    }
    assert!(
        fallback_rate <= MAX_FALLBACK_RATE,
        "rational-fallback rate {:.2}% exceeds the {:.0}% sanity bound",
        fallback_rate * 1e2,
        MAX_FALLBACK_RATE * 1e2
    );
    // The zero-overhead-when-cheap bar for live metrics: enabling the
    // instrument registry may cost at most 2% wall clock on the synthesis
    // suite, as the median over alternating off/on pairs.
    assert!(
        metrics.pct <= 2.0,
        "metrics overhead {:+.1}% exceeds the 2% budget",
        metrics.pct
    );
    // The word-parallel engine's acceptance bar: ≥ 20x Monte Carlo
    // throughput on the large-circuit suite at equal seeds. Quick mode
    // measures too little work for an absolute bound and uses the
    // committed-baseline gate above instead.
    assert!(
        quick || perturb_speedup >= 20.0,
        "packed Monte Carlo speedup {perturb_speedup:.1}x below the 20x bar"
    );
}
