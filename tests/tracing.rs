//! Integration tests for the `tels-trace` observability substrate:
//! tracing must be behaviorally inert (identical Verilog and statistics
//! with collection on or off), and the exported Chrome trace must be
//! well-formed — parseable by the in-tree JSON parser, well-nested per
//! thread, and carrying exactly one provenance event per emitted gate.

use std::sync::Mutex;

use tels::circuits::{comparator, parity_tree, ripple_adder};
use tels::logic::opt::script_algebraic;
use tels::logic::Network;
use tels::trace::{export, json};
use tels::{synthesize_with_stats, to_verilog, SynthStats, TelsConfig};

/// Tracing state is process-global; tests touching it serialize here.
fn lock() -> std::sync::MutexGuard<'static, ()> {
    static GATE: Mutex<()> = Mutex::new(());
    GATE.lock().unwrap_or_else(|e| e.into_inner())
}

fn config(psi: usize) -> TelsConfig {
    TelsConfig {
        psi,
        ..TelsConfig::default()
    }
}

/// Wall-clock solver counters are the one legitimately nondeterministic
/// part of [`SynthStats`]; zero them before comparing runs.
fn zero_clocks(mut stats: SynthStats) -> SynthStats {
    stats.solver.tier0_ns = 0;
    stats.solver.canon_ns = 0;
    stats.solver.structure_ns = 0;
    stats.solver.int_solve_ns = 0;
    stats.solver.rational_solve_ns = 0;
    stats.stages = Default::default();
    stats
}

fn suite() -> Vec<(&'static str, Network)> {
    vec![
        ("ripple_adder_8", ripple_adder(8)),
        ("comparator_6", comparator(6)),
        ("parity_tree_10", parity_tree(10)),
    ]
}

/// Tracing on vs. off: byte-identical Verilog and equal statistics for
/// every bundled circuit at ψ ∈ {3, 5}.
#[test]
fn tracing_is_behaviorally_inert() {
    let _g = lock();
    tels::trace::disable();
    tels::trace::drain();
    for (name, net) in suite() {
        let prepared = script_algebraic(&net);
        for psi in [3, 5] {
            let cfg = config(psi);
            let (tn_off, stats_off) =
                synthesize_with_stats(&prepared, &cfg).expect("untraced synthesis failed");

            tels::trace::enable();
            let (tn_on, stats_on) =
                synthesize_with_stats(&prepared, &cfg).expect("traced synthesis failed");
            tels::trace::disable();
            let trace = tels::trace::drain();

            assert_eq!(
                to_verilog(&tn_off),
                to_verilog(&tn_on),
                "{name} ψ={psi}: tracing changed the emitted Verilog"
            );
            assert_eq!(
                zero_clocks(stats_off),
                zero_clocks(stats_on),
                "{name} ψ={psi}: tracing changed the run statistics"
            );
            assert_eq!(
                trace.provenance_events().count(),
                tn_on.num_gates(),
                "{name} ψ={psi}: provenance journal != one event per gate"
            );
        }
    }
}

/// The Chrome-trace export round-trips through the in-tree JSON parser,
/// validates (per-thread begin/end nesting), spans cover the core and ilp
/// and logic layers, and the provenance journal is exact.
#[test]
fn chrome_trace_export_is_well_formed() {
    let _g = lock();
    tels::trace::disable();
    tels::trace::drain();

    let net = ripple_adder(8);
    tels::trace::enable();
    tels::trace::set_thread_label("main");
    let prepared = script_algebraic(&net);
    // Tier 0 off so the run actually reaches the ILP layer: with the
    // oracle on, every query of this small-support circuit is answered
    // without constructing a single ILP, and no "ilp" spans exist.
    let cfg = TelsConfig {
        use_tier0: false,
        ..config(3)
    };
    let (tn, _stats) = synthesize_with_stats(&prepared, &cfg).expect("synthesis failed");
    tels::trace::disable();
    let trace = tels::trace::drain();

    // Structured span view: every begin matched, spans nest per thread.
    let spans = export::spans(&trace).expect("span reconstruction failed");
    assert!(
        spans
            .iter()
            .any(|s| s.cat == "core" && s.name == "synthesize"),
        "missing the core synthesize span"
    );
    assert!(
        spans.iter().any(|s| s.cat == "ilp" && s.name == "solve"),
        "missing ilp solve spans"
    );
    assert!(
        spans.iter().any(|s| s.cat == "logic"),
        "missing logic optimization spans"
    );
    // The profile tree renders without errors.
    let profile = export::profile_tree(&trace).expect("profile tree failed");
    assert!(profile.contains("synthesize"), "profile tree missing spans");

    // Chrome JSON round-trip through the in-tree parser.
    let chrome = export::chrome_trace(&trace);
    let doc = json::parse(&chrome).expect("chrome trace is not valid JSON");
    let summary = export::validate_chrome_json(&doc).expect("chrome trace failed validation");
    assert_eq!(
        summary.provenance,
        tn.num_gates(),
        "provenance journal != one event per gate"
    );
    assert_eq!(summary.spans, spans.len(), "span counts disagree");
    for cat in ["core", "ilp", "logic"] {
        assert!(
            summary.categories.iter().any(|c| c == cat),
            "missing category {cat}"
        );
    }

    // Every provenance event names a known path.
    let known = [
        "constant",
        "literal",
        "direct-ilp",
        "cache-hit",
        "tier0",
        "and-chunk",
        "theorem1-split",
        "unate-split",
        "binate-split",
        "theorem2-combine",
        "shannon",
    ];
    for event in trace.provenance_events() {
        let tels::trace::EventKind::Instant { args, .. } = &event.kind else {
            panic!("provenance event is not an instant");
        };
        let path = args
            .iter()
            .find(|(k, _)| *k == "path")
            .and_then(|(_, v)| match v {
                tels::trace::ArgValue::Str(s) => Some(s.as_str()),
                _ => None,
            })
            .expect("provenance event without a path arg");
        assert!(known.contains(&path), "unknown provenance path {path}");
    }
}

/// With the tier-0 oracle on (the default), a small-support circuit is
/// decided entirely by truth-table lookups: the trace carries
/// `core/tier0_lookup` spans, no `ilp/solve` spans at all, and every
/// directly realized gate carries the `tier0` provenance path.
#[test]
fn tier0_lookups_are_traced() {
    let _g = lock();
    tels::trace::disable();
    tels::trace::drain();

    let net = ripple_adder(8);
    tels::trace::enable();
    let prepared = script_algebraic(&net);
    let (_tn, stats) = synthesize_with_stats(&prepared, &config(3)).expect("synthesis failed");
    tels::trace::disable();
    let trace = tels::trace::drain();

    assert!(stats.solver.tier0_lookups > 0, "oracle never engaged");
    let spans = export::spans(&trace).expect("span reconstruction failed");
    assert!(
        spans
            .iter()
            .any(|s| s.cat == "core" && s.name == "tier0_lookup"),
        "missing tier0_lookup spans"
    );
    assert!(
        !spans.iter().any(|s| s.cat == "ilp" && s.name == "solve"),
        "tier 0 should have answered every query of this circuit"
    );
    assert!(
        trace.provenance_events().any(|event| {
            let tels::trace::EventKind::Instant { args, .. } = &event.kind else {
                return false;
            };
            args.iter().any(|(k, v)| {
                *k == "path" && matches!(v, tels::trace::ArgValue::Str(s) if s == "tier0")
            })
        }),
        "no gate carries the tier0 provenance path"
    );
}
