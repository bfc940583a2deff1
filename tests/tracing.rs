//! Integration tests for the `tels-trace` observability substrate:
//! tracing must be behaviorally inert (identical Verilog and statistics
//! with collection on or off), and the exported Chrome trace must be
//! well-formed — parseable by the in-tree JSON parser, well-nested per
//! thread, and carrying exactly one provenance event per emitted gate.

use std::sync::Mutex;

use tels::circuits::{comparator, parity_tree, ripple_adder};
use tels::logic::opt::script_algebraic;
use tels::logic::Network;
use tels::trace::{export, json, Event, EventKind, Trace};
use tels::{synthesize_with_stats, to_verilog, SynthStats, TelsConfig, ThresholdNetwork};

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

/// The Chrome JSON of a traced synthesis of `prepared` into `tn`, with the
/// recorded gate and node ids named after their signals.
fn chrome_trace(trace: &Trace, prepared: &Network, tn: &ThresholdNetwork) -> String {
    let gates: Vec<&str> = tn.node_ids().map(|id| tn.name(id)).collect();
    let nodes: Vec<&str> = prepared.node_ids().map(|id| prepared.name(id)).collect();
    let names = export::Names {
        gates: &gates,
        nodes: &nodes,
    };
    export::chrome_trace(trace, &names)
}

/// The `path` tag of a provenance event.
fn provenance_path(event: &Event) -> &'static str {
    match event.kind {
        EventKind::Provenance { path, .. } => path,
        _ => panic!("not a provenance event: {event:?}"),
    }
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
    let chrome = chrome_trace(&trace, &prepared, &tn);
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
        let path = provenance_path(event);
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
        trace
            .provenance_events()
            .any(|event| provenance_path(event) == "tier0"),
        "no gate carries the tier0 provenance path"
    );
}

/// 64-bit FNV-1a over `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The Chrome JSON with each event's `ts` replaced by its ordinal and
/// each `tid` by its rank among the thread ids of the recorded events, so
/// only the clock and the thread numbering differ between runs. Labels of
/// threads that recorded nothing in the trace are dropped.
fn normalized_chrome(text: &str) -> String {
    let doc = json::parse(text).expect("chrome trace is not valid JSON");
    let events = doc
        .get("traceEvents")
        .and_then(json::Json::as_array)
        .expect("missing traceEvents");
    let tid = |e: &json::Json| e.get("tid").and_then(json::Json::as_u64);
    let is_label = |e: &json::Json| e.get("ph").and_then(json::Json::as_str) == Some("M");
    let mut tids: Vec<u64> = events
        .iter()
        .filter(|e| !is_label(e))
        .filter_map(tid)
        .collect();
    tids.sort_unstable();
    tids.dedup();
    let normalized = events
        .iter()
        .filter(|e| !is_label(e) || tid(e).is_some_and(|t| tids.binary_search(&t).is_ok()))
        .enumerate()
        .map(|(ordinal, e)| {
            let pairs = e.as_object().expect("event is not an object");
            json::Json::Obj(
                pairs
                    .iter()
                    .map(|(k, v)| {
                        let v = match (k.as_str(), v.as_u64()) {
                            ("ts", _) => json::Json::Num(ordinal as f64),
                            ("tid", Some(tid)) => {
                                json::Json::Num(tids.binary_search(&tid).unwrap() as f64)
                            }
                            _ => v.clone(),
                        };
                        (k.clone(), v)
                    })
                    .collect(),
            )
        })
        .collect();
    json::Json::Obj(vec![(
        "traceEvents".to_string(),
        json::Json::Arr(normalized),
    )])
    .pretty()
}

/// The profile tree as sorted `(path, calls)` rows, without the time
/// columns.
fn profile_rows(profile: &str) -> String {
    let mut path: Vec<&str> = Vec::new();
    let mut rows: Vec<String> = Vec::new();
    for line in profile.lines().skip(1) {
        let depth = (line.len() - line.trim_start().len()) / 2;
        let mut fields = line.split_whitespace();
        let name = fields.next().expect("profile row without a name");
        let calls = fields.next().expect("profile row without calls");
        path.truncate(depth);
        path.push(name);
        rows.push(format!("{} {calls}", path.join("/")));
    }
    rows.sort();
    rows.join("\n")
}

/// Two fixed traced runs (factoring, then synthesis) exported as Chrome
/// JSON and as a profile tree: `ripple_adder(8)` at ψ = 3 with tier 0 off
/// (so ILP spans appear), and the first `wide_psi9` random network at
/// ψ = 9. The digests of the normalized exports are pinned, so a change
/// to how events are recorded, named or exported that alters a single
/// exported byte (other than timestamps and thread numbering) fails here.
#[test]
fn golden_trace_exports() {
    use tels::circuits::{random_network, RandomNetOptions};
    let wide = RandomNetOptions {
        inputs: 24,
        outputs: 12,
        nodes: 200,
        max_fanin: 6,
        max_cubes: 6,
        negation_pct: 20,
        ..RandomNetOptions::default()
    };
    let runs = [
        (
            ripple_adder(8),
            TelsConfig {
                use_tier0: false,
                ..config(3)
            },
            0x9a02_36c4_d347_fd6bu64,
            0x285d_f7ce_c406_3218u64,
        ),
        (
            random_network("wide_0", 0x5EED_0000, &wide),
            config(9),
            0xeb66_ac4f_21ce_6b73,
            0x04f2_02cb_3097_2be8,
        ),
    ];
    let _g = lock();
    let mut failures = Vec::new();
    for (net, cfg, chrome_digest, profile_digest) in runs {
        tels::trace::disable();
        tels::trace::drain();
        tels::trace::enable();
        tels::trace::set_thread_label("main");
        let prepared = script_algebraic(&net);
        let (tn, _stats) = synthesize_with_stats(&prepared, &cfg).expect("synthesis failed");
        tels::trace::disable();
        let trace = tels::trace::drain();
        let chrome = fnv1a(normalized_chrome(&chrome_trace(&trace, &prepared, &tn)).as_bytes());
        let profile = export::profile_tree(&trace).expect("profile tree failed");
        let profile = fnv1a(profile_rows(&profile).as_bytes());
        if (chrome, profile) != (chrome_digest, profile_digest) {
            failures.push(format!(
                "{} ψ={}: chrome {chrome:#018x}, profile {profile:#018x}",
                net.model(),
                cfg.psi
            ));
        }
    }
    assert!(
        failures.is_empty(),
        "golden trace digests differ:\n{}",
        failures.join("\n")
    );
}
