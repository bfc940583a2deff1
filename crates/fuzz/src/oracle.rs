//! The differential oracle: every configuration pair that must agree.
//!
//! One fuzz case runs the same source network through the full matrix and
//! cross-checks the answers:
//!
//! | leg | configurations | must agree on |
//! |-----|----------------|---------------|
//! | parse | streaming vs in-memory BLIF parse | BLIF bytes |
//! | tier-0 | `use_tier0` on vs off | `.tnet` bytes |
//! | tier-0.5 | `use_tier05` on vs off | `.tnet` bytes |
//! | trace | tracing off vs on | `.tnet` bytes |
//! | serve | in-process serve session vs one-shot | `.tnet` bytes |
//! | synthesis | TELS result vs source network | function (exhaustive) |
//! | baseline | `map_one_to_one` vs source and vs TELS | function (exhaustive) |
//!
//! Byte-identity legs pin the determinism guarantees established by the
//! pipeline (canonical-space cache solves, deterministic tie-breaks).
//!
//! All functional legs run on the word-parallel threshold evaluation
//! engine (`tels_core::eval`): threshold-vs-Boolean goes through
//! `verify_against`, threshold-vs-threshold through `equivalent_to` — 64
//! vectors per step, no minterm expansion. The exponential
//! [`tn_to_network`] expansion survives only as a cross-check of the
//! engine itself (see `tests/packed_eval.rs` and this module's tests).
//!
//! Every leg runs under [`std::panic::catch_unwind`], so a panic anywhere
//! in the pipeline is reported as an ordinary [`Failure`] and can be
//! shrunk like any other disagreement.

use std::panic::{catch_unwind, AssertUnwindSafe};

use tels_core::{map_one_to_one, synthesize, TelsConfig, ThresholdNetwork};
use tels_logic::{Cube, Network, Sop, Var};

/// Knobs of one oracle run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OracleOptions {
    /// Fanin restriction ψ used for every synthesis leg.
    pub psi: usize,
    /// Exhaustive equivalence up to this many inputs (a proof); random
    /// patterns beyond.
    pub exhaustive_limit: u32,
    /// Random pattern count past the exhaustive limit.
    pub random_patterns: usize,
    /// Simulation seed for the random-pattern fallback.
    pub sim_seed: u64,
}

impl Default for OracleOptions {
    fn default() -> Self {
        OracleOptions {
            psi: 3,
            exhaustive_limit: 12,
            random_patterns: 2048,
            sim_seed: 0x7e15,
        }
    }
}

/// Which oracle leg disagreed (the classifier the shrinker preserves).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureKind {
    /// The baseline synthesis itself returned an error or panicked.
    Synth,
    /// Streaming and in-memory BLIF parsing disagreed on the network.
    ParseStream,
    /// Tier-0 on/off produced different `.tnet` bytes.
    Tier0Bytes,
    /// Tier-0.5 on/off produced different `.tnet` bytes.
    Tier05Bytes,
    /// Tracing on/off produced different `.tnet` bytes.
    TraceBytes,
    /// Metrics on/off produced different `.tnet` bytes.
    MetricsBytes,
    /// An in-process serve session produced different `.tnet` bytes than
    /// the one-shot path (shared-cache nondeterminism).
    ServeBytes,
    /// The synthesized network is not equivalent to the source.
    SynthEquiv,
    /// The one-to-one baseline errored or is not equivalent to the source.
    Map11,
    /// TELS and the one-to-one baseline disagree with each other.
    Baseline,
}

impl FailureKind {
    /// A short lowercase tag used in corpus file names.
    pub fn tag(self) -> &'static str {
        match self {
            FailureKind::Synth => "synth",
            FailureKind::ParseStream => "parse",
            FailureKind::Tier0Bytes => "tier0",
            FailureKind::Tier05Bytes => "tier05",
            FailureKind::TraceBytes => "trace",
            FailureKind::MetricsBytes => "metrics",
            FailureKind::ServeBytes => "serve",
            FailureKind::SynthEquiv => "equiv",
            FailureKind::Map11 => "map11",
            FailureKind::Baseline => "baseline",
        }
    }
}

/// A reported oracle disagreement.
#[derive(Debug, Clone)]
pub struct Failure {
    /// The leg that disagreed.
    pub kind: FailureKind,
    /// Human-readable description of the disagreement.
    pub detail: String,
}

impl Failure {
    fn new(kind: FailureKind, detail: impl Into<String>) -> Failure {
        Failure {
            kind,
            detail: detail.into(),
        }
    }
}

/// Runs a pipeline leg, converting panics into [`Failure`]s.
fn guarded<T>(
    kind: FailureKind,
    what: &str,
    f: impl FnOnce() -> Result<T, tels_core::SynthError>,
) -> Result<T, Failure> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(Ok(v)) => Ok(v),
        Ok(Err(e)) => Err(Failure::new(kind, format!("{what} failed: {e}"))),
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_string());
            Err(Failure::new(kind, format!("{what} panicked: {msg}")))
        }
    }
}

fn base_config(opts: &OracleOptions) -> TelsConfig {
    TelsConfig {
        psi: opts.psi,
        ..TelsConfig::default()
    }
}

/// Converts a threshold network back into a Boolean [`Network`] by
/// expanding each gate into its ON-minterm SOP, so threshold results can
/// go through [`check_equivalence`](tels_logic::sim::check_equivalence)
/// like any other network.
///
/// # Errors
///
/// Returns an error (as a `String`) if a gate has more than 16 fanins —
/// the expansion is exponential in gate fanin, which ψ keeps tiny.
pub fn tn_to_network(tn: &ThresholdNetwork) -> Result<Network, String> {
    let mut net = Network::new(tn.model().to_string());
    let mut map: Vec<Option<tels_logic::NodeId>> = Vec::new();
    for id in tn.node_ids() {
        if tn.is_input(id) {
            let new = net
                .add_input(tn.name(id).to_string())
                .map_err(|e| e.to_string())?;
            map.push(Some(new));
            continue;
        }
        let gate = tn.gate(id).expect("non-input node is a gate");
        let k = gate.inputs.len();
        if k > 16 {
            return Err(format!("gate `{}` has {k} fanins (> 16)", tn.name(id)));
        }
        let mut cubes = Vec::new();
        for m in 0..1u32 << k {
            let values: Vec<bool> = (0..k).map(|i| m >> i & 1 != 0).collect();
            if gate.eval(&values) {
                cubes.push(Cube::from_literals(
                    values.iter().enumerate().map(|(i, &v)| (Var(i as u32), v)),
                ));
            }
        }
        let fanins: Vec<tels_logic::NodeId> = gate
            .inputs
            .iter()
            .map(|&f| map[f.index()].expect("tn ids are topologically ordered"))
            .collect();
        let mut sop = Sop::from_cubes(cubes);
        sop.scc();
        let (fanins, sop) = prune_unused(fanins, sop);
        let new = net
            .add_node(tn.name(id).to_string(), fanins, sop)
            .map_err(|e| e.to_string())?;
        map.push(Some(new));
    }
    for (name, id) in tn.outputs() {
        net.add_output(name.clone(), map[id.index()].expect("mapped"))
            .map_err(|e| e.to_string())?;
    }
    Ok(net)
}

/// Drops fanins the minimized SOP no longer references (a gate whose
/// weight never matters, e.g. weight 0, vanishes from the minterm form).
fn prune_unused(fanins: Vec<tels_logic::NodeId>, sop: Sop) -> (Vec<tels_logic::NodeId>, Sop) {
    let support = sop.support();
    let kept: Vec<usize> = (0..fanins.len())
        .filter(|&i| support.contains(Var(i as u32)))
        .collect();
    if kept.len() == fanins.len() {
        return (fanins, sop);
    }
    let mut m = vec![Var(0); fanins.len()];
    for (new_i, &old_i) in kept.iter().enumerate() {
        m[old_i] = Var(new_i as u32);
    }
    (kept.iter().map(|&i| fanins[i]).collect(), sop.remap(&m))
}

/// Checks a threshold network against the Boolean source on the packed
/// engine (panics and errors become failures of `kind`).
fn expect_tn_vs_source(
    kind: FailureKind,
    what: &str,
    tn: &ThresholdNetwork,
    source: &Network,
    opts: &OracleOptions,
) -> Result<(), Failure> {
    let mismatch = guarded(kind, what, || {
        tn.verify_against(
            source,
            opts.exhaustive_limit,
            opts.random_patterns,
            opts.sim_seed,
        )
    })?;
    match mismatch {
        None => Ok(()),
        Some(assign) => Err(Failure::new(
            kind,
            format!("{what} differs from source at {assign:?}"),
        )),
    }
}

/// Checks two threshold networks against each other on the packed engine.
fn expect_tn_vs_tn(
    kind: FailureKind,
    what: &str,
    a: &ThresholdNetwork,
    b: &ThresholdNetwork,
    opts: &OracleOptions,
) -> Result<(), Failure> {
    let mismatch = guarded(kind, what, || {
        a.equivalent_to(
            b,
            opts.exhaustive_limit,
            opts.random_patterns,
            opts.sim_seed,
        )
    })?;
    match mismatch {
        None => Ok(()),
        Some(assign) => Err(Failure::new(kind, format!("{what} disagree at {assign:?}"))),
    }
}

/// The streaming-vs-string BLIF parse byte-identity leg (see [`run_case`]).
fn parse_leg(net: &Network) -> Result<(), Failure> {
    let kind = FailureKind::ParseStream;
    let text = tels_logic::blif::write(net);
    let via_string = guarded(kind, "parse(string)", || {
        Ok(tels_logic::blif::parse(&text).unwrap_or_else(|e| panic!("string parse failed: {e}")))
    })?;
    let via_stream = guarded(kind, "parse(stream)", || {
        let reader = std::io::BufReader::with_capacity(7, text.as_bytes());
        Ok(tels_logic::blif::parse_reader(reader)
            .unwrap_or_else(|e| panic!("streaming parse failed: {e}")))
    })?;
    if tels_logic::blif::write(&via_string) != tels_logic::blif::write(&via_stream) {
        return Err(Failure::new(
            kind,
            "streaming and string parsers produced different networks",
        ));
    }
    Ok(())
}

/// The serve-vs-one-shot byte-identity leg (see [`run_case`]).
fn serve_leg(net: &Network, cfg: &TelsConfig) -> Result<(), Failure> {
    use tels_serve::protocol::JobRequest;
    use tels_serve::{ServeOptions, ServeSession};

    let text = tels_logic::blif::write(net);
    let kind = FailureKind::ServeBytes;
    let reference = guarded(kind, "synthesize(round-trip)", || {
        let parsed = tels_logic::blif::parse(&text)
            .unwrap_or_else(|e| panic!("blif round-trip failed: {e}"));
        synthesize(&parsed, cfg)
    })?
    .to_tnet();
    let served = catch_unwind(AssertUnwindSafe(|| {
        let session = ServeSession::new(ServeOptions::default())?;
        let req = JobRequest {
            blif: text.clone(),
            factor: false,
            config: cfg.clone(),
            ..JobRequest::default()
        };
        let cold = session.submit(&req)?.tn.to_tnet();
        let warm = session.submit(&req)?.tn.to_tnet();
        Ok::<(String, String), String>((cold, warm))
    }));
    let (cold, warm) = match served {
        Ok(Ok(pair)) => pair,
        Ok(Err(e)) => return Err(Failure::new(kind, format!("serve session failed: {e}"))),
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_string());
            return Err(Failure::new(kind, format!("serve session panicked: {msg}")));
        }
    };
    if cold != reference {
        return Err(Failure::new(
            kind,
            "serve session (cold cache) produced different .tnet bytes than one-shot",
        ));
    }
    if warm != reference {
        return Err(Failure::new(
            kind,
            "serve session (warm shared cache) produced different .tnet bytes than one-shot",
        ));
    }
    Ok(())
}

/// Runs the full oracle matrix on one source network.
///
/// Returns `Ok(())` when every leg agrees, or the first [`Failure`].
pub fn run_case(net: &Network, opts: &OracleOptions) -> Result<(), Failure> {
    let cfg = base_config(opts);

    // Leg: streaming vs in-memory BLIF parse. Both parsers must accept the
    // writer's output and agree byte-for-byte after a write-back; the
    // streaming side reads through a 7-byte buffer so line reassembly from
    // partial fills is exercised on every case.
    parse_leg(net)?;

    // Baseline synthesis (tier 0 and tier 0.5 on).
    let base = guarded(FailureKind::Synth, "synthesize", || synthesize(net, &cfg))?;
    let base_bytes = base.to_tnet();

    // Leg: tier-0 on/off byte identity.
    let tier0_off = guarded(FailureKind::Tier0Bytes, "synthesize(no-tier0)", || {
        synthesize(
            net,
            &TelsConfig {
                use_tier0: false,
                ..cfg.clone()
            },
        )
    })?;
    if tier0_off.to_tnet() != base_bytes {
        return Err(Failure::new(
            FailureKind::Tier0Bytes,
            "tier-0 on/off produced different .tnet bytes",
        ));
    }

    // Leg: tier-0.5 on/off byte identity. The tier answers only when its
    // optimum provably matches the merged ILP's, so disabling it must not
    // change a single byte.
    let tier05_off = guarded(FailureKind::Tier05Bytes, "synthesize(no-tier05)", || {
        synthesize(
            net,
            &TelsConfig {
                use_tier05: false,
                ..cfg.clone()
            },
        )
    })?;
    if tier05_off.to_tnet() != base_bytes {
        return Err(Failure::new(
            FailureKind::Tier05Bytes,
            "tier-0.5 on/off produced different .tnet bytes",
        ));
    }

    // Leg: tracing on/off byte identity. Tracing is process-global, so
    // enable/disable around the leg and drain the buffer afterwards.
    tels_trace::enable();
    let traced = guarded(FailureKind::TraceBytes, "synthesize(traced)", || {
        synthesize(net, &cfg)
    });
    tels_trace::disable();
    let _ = tels_trace::drain();
    if traced?.to_tnet() != base_bytes {
        return Err(Failure::new(
            FailureKind::TraceBytes,
            "tracing on/off produced different .tnet bytes",
        ));
    }

    // Leg: metrics on/off byte identity. Like tracing, the instrument
    // registry is process-global; enable around the leg and disable after.
    // Counters are observation-only — a divergence here means an
    // instrumentation site leaked into synthesis decisions.
    tels_metrics::enable();
    let metered = guarded(FailureKind::MetricsBytes, "synthesize(metrics)", || {
        synthesize(net, &cfg)
    });
    tels_metrics::disable();
    if metered?.to_tnet() != base_bytes {
        return Err(Failure::new(
            FailureKind::MetricsBytes,
            "metrics on/off produced different .tnet bytes",
        ));
    }

    // Leg: an in-process serve session (shared realization cache) must
    // match the one-shot path byte for byte. The job is submitted twice —
    // cold, then again against the now-populated shared cache — so
    // cross-job cache reuse is on the hook. `factor: false` because the oracle synthesizes the raw
    // generated network, and the comparison reference goes through the
    // same BLIF round-trip the daemon's parser sees.
    serve_leg(net, &cfg)?;

    // Leg: synthesized network vs the source, on the packed engine.
    expect_tn_vs_source(
        FailureKind::SynthEquiv,
        "synthesized network",
        &base,
        net,
        opts,
    )?;

    // Leg: the one-to-one baseline vs the source…
    let m11 = guarded(FailureKind::Map11, "map_one_to_one", || {
        map_one_to_one(net, &cfg)
    })?;
    expect_tn_vs_source(FailureKind::Map11, "one-to-one baseline", &m11, net, opts)?;

    // …and vs the TELS result (closing the three-way triangle).
    expect_tn_vs_tn(
        FailureKind::Baseline,
        "TELS and one-to-one baseline",
        &m11,
        &base,
        opts,
    )?;

    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use tels_logic::blif;
    use tels_logic::sim::{check_equivalence, EquivOptions};

    fn equiv_opts(opts: &OracleOptions) -> EquivOptions {
        EquivOptions {
            exhaustive_limit: opts.exhaustive_limit,
            random_patterns: opts.random_patterns,
            seed: opts.sim_seed,
        }
    }

    #[test]
    fn known_good_network_passes_all_legs() {
        let net = blif::parse(
            ".model m\n.inputs a b c\n.outputs f\n.names a b c f\n11- 1\n--1 1\n.end\n",
        )
        .unwrap();
        run_case(&net, &OracleOptions::default()).unwrap();
    }

    #[test]
    fn tn_round_trip_matches_source() {
        let net = blif::parse(
            ".model m\n.inputs a b c d\n.outputs f g\n.names a b t\n11 1\n.names t c d f\n1-0 1\n-1- 1\n.names a d g\n00 1\n.end\n",
        )
        .unwrap();
        let tn = synthesize(&net, &TelsConfig::default()).unwrap();
        let round = tn_to_network(&tn).unwrap();
        let r = check_equivalence(&net, &round, &EquivOptions::default()).unwrap();
        assert!(r.is_equivalent());
    }

    #[test]
    fn broken_network_is_caught() {
        // A "threshold network" that computes the wrong function must trip
        // the equivalence legs — checked by converting an inverter tnet
        // against a buffer source.
        let source =
            blif::parse(".model m\n.inputs a\n.outputs f\n.names a f\n1 1\n.end\n").unwrap();
        let mut tn = ThresholdNetwork::new("m");
        let a = tn.add_input("a").unwrap();
        let g = tn
            .add_gate(
                "f",
                tels_core::ThresholdGate {
                    inputs: vec![a],
                    weights: vec![-1],
                    threshold: 0,
                },
            )
            .unwrap();
        tn.add_output("f", g).unwrap();
        let cand = tn_to_network(&tn).unwrap();
        let r = check_equivalence(&source, &cand, &equiv_opts(&OracleOptions::default())).unwrap();
        assert!(!r.is_equivalent());
        // The packed leg (the one run_case actually uses) catches it too.
        let r = expect_tn_vs_source(
            FailureKind::SynthEquiv,
            "inverted",
            &tn,
            &source,
            &OracleOptions::default(),
        );
        assert!(r.is_err());
    }

    #[test]
    fn packed_engine_agrees_with_minterm_expansion() {
        // The packed threshold engine replaced `tn_to_network` as the
        // oracle's equivalence mechanism; keep the exponential expansion as
        // an independent cross-check of the engine on both verdicts.
        let net = blif::parse(
            ".model m\n.inputs a b c d\n.outputs f g\n.names a b t\n11 1\n.names t c d f\n1-0 1\n-1- 1\n.names a d g\n00 1\n.end\n",
        )
        .unwrap();
        let opts = OracleOptions::default();
        let cfg = base_config(&opts);
        let tn = synthesize(&net, &cfg).unwrap();
        let m11 = map_one_to_one(&net, &cfg).unwrap();

        // Equivalent pair: both mechanisms say so.
        let expanded = tn_to_network(&tn).unwrap();
        let m11_expanded = tn_to_network(&m11).unwrap();
        let r = check_equivalence(&expanded, &m11_expanded, &equiv_opts(&opts)).unwrap();
        assert!(r.is_equivalent());
        assert!(expect_tn_vs_tn(FailureKind::Baseline, "pair", &tn, &m11, &opts).is_ok());

        // Inequivalent pair (one output inverted): both mechanisms object.
        let mut bad = ThresholdNetwork::new("bad");
        let ins: Vec<_> = ["a", "b", "c", "d"]
            .iter()
            .map(|n| bad.add_input(*n).unwrap())
            .collect();
        let g = bad
            .add_gate(
                "f",
                tels_core::ThresholdGate {
                    inputs: vec![ins[0], ins[1]],
                    weights: vec![1, 1],
                    threshold: 2,
                },
            )
            .unwrap();
        bad.add_output("f", g).unwrap();
        bad.add_output("g", ins[3]).unwrap();
        let bad_expanded = tn_to_network(&bad).unwrap();
        let r = check_equivalence(&expanded, &bad_expanded, &equiv_opts(&opts)).unwrap();
        assert!(!r.is_equivalent());
        assert!(expect_tn_vs_tn(FailureKind::Baseline, "pair", &tn, &bad, &opts).is_err());
    }
}
