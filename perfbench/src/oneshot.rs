//! The one-shot workloads: each job takes one circuit from BLIF text to a
//! verified `.tnet`, the way `tels synth` does, calling the library in
//! process.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use tels_circuits::{alu_array, parity_ladder, random_network, RandomNetOptions};
use tels_core::{synthesize_with_stats, TelsConfig};
use tels_logic::opt::{
    eliminate, extract, resubstitute, script_algebraic, simplify, strash, sweep, OptOptions,
};
use tels_logic::rng::Xoshiro256;
use tels_logic::{blif, Network};
use tels_trace::json::Json;

use crate::layers::LayerSums;
use crate::stats::{mean, median, shuffle};
use crate::trace::Tracer;
use crate::{Checks, Outcome};

/// Verification: exhaustive up to the packed engine's 20-input limit,
/// this many seeded random vectors beyond it.
pub const VERIFY_EXHAUSTIVE: u32 = 20;
pub const VERIFY_PATTERNS: usize = 1024;

/// One distinct input of a workload.
pub struct Circuit {
    pub name: String,
    /// The BLIF text the job starts from.
    pub text: String,
    pub config: TelsConfig,
    /// Run algebraic factoring inside the job (`false`: the text is
    /// already factored).
    pub factor: bool,
}

/// `big_oneshot`'s inputs: the 10 240-node parity ladder and the
/// 10 800-node ALU array, unfactored, at the default configuration.
pub fn big_circuits() -> Vec<Circuit> {
    [
        ("parity_ladder_160x64", parity_ladder(160, 64)),
        ("alu_array_1200", alu_array(1200)),
    ]
    .into_iter()
    .map(|(name, net)| Circuit {
        name: name.to_string(),
        text: blif::write(&net),
        config: TelsConfig::default(),
        factor: true,
    })
    .collect()
}

/// The first `count` of `wide_psi9`'s random networks (200 nodes, 24
/// inputs, 12 outputs, fanin <= 6, <= 6 cubes), factored once here the way
/// Fig. 10 re-synthesizes one factored netlist at a new fanin bound, and
/// synthesized at psi = 9. One literal in five is complemented: mostly
/// unate logic, so the wide collapses reach the tier-0.5 procedure instead
/// of being rejected early, which makes the check tiers the dominant
/// layer. The generator seeds are fixed so that the quality sums are
/// comparable from run to run.
pub fn wide_circuits(count: usize) -> Vec<Circuit> {
    let options = RandomNetOptions {
        inputs: 24,
        outputs: 12,
        nodes: 200,
        max_fanin: 6,
        max_cubes: 6,
        negation_pct: 20,
        ..RandomNetOptions::default()
    };
    (0..count as u64)
        .map(|i| {
            let name = format!("wide_{i}");
            let net = random_network(&name, 0x5EED_0000 + i, &options);
            Circuit {
                name,
                text: blif::write(&script_algebraic(&net)),
                config: TelsConfig {
                    psi: 9,
                    ..TelsConfig::default()
                },
                factor: false,
            }
        })
        .collect()
}

/// What a job produced, besides its latency.
pub struct JobOut {
    pub tnet: String,
    pub quality: [u64; 3],
    pub nodes_out: usize,
    pub literals_out: usize,
    pub stats: Json,
    pub rewrites: usize,
    /// The factored network, when the caller asked to keep it.
    pub factored: Option<Network>,
}

/// Runs `script_algebraic_with`'s passes one by one, in its documented
/// order, each inside its own span.
fn factor_by_passes(net: &Network, tr: &mut Tracer, rewrites: &mut usize) -> Network {
    let opts = OptOptions::default();
    let mut n = tr.span("opt.compact", || net.compact());
    *rewrites += tr.span("opt.sweep", || sweep(&mut n));
    *rewrites += tr.span("opt.eliminate", || eliminate(&mut n, -1, &opts));
    tr.span("opt.simplify", || simplify(&mut n));
    *rewrites += tr.span("opt.eliminate", || eliminate(&mut n, -1, &opts));
    *rewrites += tr.span("opt.sweep", || sweep(&mut n));
    *rewrites += tr.span("opt.eliminate", || eliminate(&mut n, 5, &opts));
    tr.span("opt.simplify", || simplify(&mut n));
    *rewrites += tr.span("opt.resub", || resubstitute(&mut n));
    *rewrites += tr.span("opt.extract", || extract(&mut n, &opts));
    *rewrites += tr.span("opt.resub", || resubstitute(&mut n));
    *rewrites += tr.span("opt.strash", || strash(&mut n));
    *rewrites += tr.span("opt.sweep", || sweep(&mut n));
    *rewrites += tr.span("opt.eliminate", || eliminate(&mut n, -1, &opts));
    *rewrites += tr.span("opt.sweep", || sweep(&mut n));
    tr.span("opt.simplify", || simplify(&mut n));
    tr.span("opt.compact", || n.compact())
}

/// One job: parse, factor (production script untraced, pass by pass
/// traced), synthesize, emit, verify against the parsed source. The
/// caller opens and closes the job's root span.
pub fn run_job(
    c: &Circuit,
    verify_seed: u64,
    tr: &mut Tracer,
    keep_factored: bool,
) -> Result<JobOut, String> {
    let net = tr
        .span("blif.parse", || blif::parse_reader(c.text.as_bytes()))
        .map_err(|e| format!("{}: parse: {e}", c.name))?;
    let mut rewrites = 0;
    let factored = if !c.factor {
        None
    } else if tr.on() {
        tr.begin("opt.factor");
        let n = factor_by_passes(&net, tr, &mut rewrites);
        tr.end();
        Some(n)
    } else {
        Some(script_algebraic(&net))
    };
    let src = factored.as_ref().unwrap_or(&net);
    let (tn, stats) = tr
        .span("synth", || synthesize_with_stats(src, &c.config))
        .map_err(|e| format!("{}: synthesis: {e}", c.name))?;
    let tnet = tr.span("tnet.emit", || tn.to_tnet());
    let cex = tr
        .span("eval.verify", || {
            tn.verify_against(&net, VERIFY_EXHAUSTIVE, VERIFY_PATTERNS, verify_seed)
        })
        .map_err(|e| format!("{}: verify: {e}", c.name))?;
    if let Some(cex) = cex {
        return Err(format!(
            "{}: result differs from its source at {cex:?}",
            c.name
        ));
    }
    Ok(JobOut {
        quality: [tn.num_gates() as u64, tn.depth() as u64, tn.area()],
        nodes_out: src.num_logic_nodes(),
        literals_out: src.num_literals(),
        stats: stats.to_json(),
        rewrites,
        tnet,
        factored: factored.filter(|_| keep_factored),
    })
}

/// Jobs of one measurement phase.
#[derive(Default)]
struct Phase {
    latencies_ms: Vec<f64>,
    wall_s: f64,
    sums: LayerSums,
}

/// Runs whole seeded cycles over `circuits` (every circuit once per cycle,
/// shuffled) until `budget` has passed, so every circuit contributes the
/// same number of jobs. Correctness checks run after each job's clock has
/// stopped. With `factored_ref`, each job's factored network is checked
/// byte-identical (as BLIF) to the first one seen for its circuit.
fn run_phase(
    circuits: &[Circuit],
    rng: &mut Xoshiro256,
    budget: Duration,
    tr: &mut Tracer,
    checks: &mut Checks,
    mut factored_ref: Option<&mut BTreeMap<usize, String>>,
) -> Phase {
    let mut phase = Phase::default();
    let start = Instant::now();
    let mut order: Vec<usize> = (0..circuits.len()).collect();
    while start.elapsed() < budget {
        shuffle(rng, &mut order);
        for &i in &order {
            let c = &circuits[i];
            let verify_seed = rng.next_u64();
            let job_id = checks.attempted as u64;
            checks.attempted += 1;
            let t0 = Instant::now();
            tr.begin_job(job_id);
            let result = run_job(c, verify_seed, tr, factored_ref.is_some());
            tr.end();
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            let out = match result {
                Ok(out) => out,
                Err(e) => {
                    checks.fail(&e);
                    continue;
                }
            };
            phase.latencies_ms.push(ms);
            if !checks.same_output(i, &c.name, &out.tnet, out.quality) {
                continue;
            }
            if let Some(f) = &out.factored {
                // Untraced jobs ran the production script; traced jobs ran
                // its passes one by one. Both must give the same network.
                let bytes = blif::write(f);
                let reference = factored_ref
                    .as_mut()
                    .expect("factored networks are kept only for the check")
                    .entry(i)
                    .or_insert_with(|| bytes.clone());
                if *reference != bytes {
                    checks.fail(&format!(
                        "{}: pass-by-pass factoring diverged from script_algebraic",
                        c.name
                    ));
                    continue;
                }
            }
            let s = &mut phase.sums;
            s.jobs += 1;
            s.add_stats(&out.stats);
            s.add("opt.rewrites", out.rewrites as f64);
            s.add("opt.nodes_out", out.nodes_out as f64);
            s.add("opt.literals_out", out.literals_out as f64);
            s.add("tnet.bytes", out.tnet.len() as f64);
            s.add("blif.bytes", c.text.len() as f64);
        }
    }
    phase.wall_s = start.elapsed().as_secs_f64();
    phase
}

/// Span names whose inclusive time is reported as `<name>_ms`.
const STAGE_SPANS: &[(&str, &str)] = &[
    ("blif.parse", "blif.parse_ms"),
    ("opt.factor", "opt.factor_ms"),
    ("opt.compact", "opt.compact_ms"),
    ("opt.sweep", "opt.sweep_ms"),
    ("opt.eliminate", "opt.eliminate_ms"),
    ("opt.simplify", "opt.simplify_ms"),
    ("opt.resub", "opt.resub_ms"),
    ("opt.extract", "opt.extract_ms"),
    ("opt.strash", "opt.strash_ms"),
    ("synth", "synth.ms"),
    ("tnet.emit", "tnet.emit_ms"),
    ("eval.verify", "eval.verify_ms"),
];

/// Runs a one-shot workload. Untraced, the run is one phase of
/// `seconds`. Traced, it is an untraced half (the overhead baseline and
/// the production-factoring reference) and a traced half.
pub fn run(circuits: &[Circuit], seed: u64, seconds: u64, tr: &mut Tracer) -> Outcome {
    let mut rng = Xoshiro256::seed_from_u64(seed);
    let mut checks = Checks::new(circuits.len());
    let mut metrics = BTreeMap::new();
    let budget = Duration::from_secs(seconds);
    if !tr.on() {
        let p = run_phase(circuits, &mut rng, budget, tr, &mut checks, None);
        crate::latency_metrics(&mut metrics, &p.latencies_ms, p.wall_s);
        checks.quality_metrics(&mut metrics);
        return checks.outcome(metrics);
    }
    let mut off = Tracer::new(false, Instant::now());
    let mut factored_ref = BTreeMap::new();
    let base = run_phase(
        circuits,
        &mut rng,
        budget / 2,
        &mut off,
        &mut checks,
        Some(&mut factored_ref),
    );
    let p = run_phase(
        circuits,
        &mut rng,
        budget / 2,
        tr,
        &mut checks,
        Some(&mut factored_ref),
    );
    let jobs = p.sums.jobs.max(1) as f64;
    let totals = tr.total_ms();
    for (span, metric) in STAGE_SPANS {
        metrics.insert(*metric, totals.get(span).copied().unwrap_or(0.0) / jobs);
    }
    let parse_s = totals.get("blif.parse").copied().unwrap_or(0.0) / 1e3;
    if parse_s > 0.0 {
        metrics.insert(
            "blif.parse_mb_per_s",
            p.sums.get("blif.bytes") / 1e6 / parse_s,
        );
    }
    p.sums.report(&mut metrics);
    let job_ms = mean(&p.latencies_ms);
    metrics.insert(
        "trace.unattributed_ms",
        tr.self_ms().get("job").copied().unwrap_or(0.0) / jobs,
    );
    let base_p50 = median(&base.latencies_ms);
    metrics.insert(
        "trace.overhead_pct",
        (median(&p.latencies_ms) - base_p50) / base_p50 * 100.0,
    );
    // The layer each workload is built to load: factoring when the job
    // factors, the threshold-check tiers otherwise.
    let check_ms = p.sums.check_ms_per_job();
    let ilp_ms = p.sums.per_job("ilp.solve_ms");
    let dominant_ms = if circuits.iter().any(|c| c.factor) {
        metrics["opt.factor_ms"]
    } else {
        check_ms
    };
    metrics.insert("trace.dominant_pct", dominant_ms / job_ms * 100.0);
    let shares = [
        ("blif", metrics["blif.parse_ms"]),
        ("opt", metrics["opt.factor_ms"]),
        ("synth (self)", metrics["synth.ms"] - check_ms - ilp_ms),
        ("check", check_ms),
        ("ilp", ilp_ms),
        ("tnet", metrics["tnet.emit_ms"]),
        ("eval", metrics["eval.verify_ms"]),
        ("unattributed", metrics["trace.unattributed_ms"]),
    ];
    crate::print_shares(job_ms, &shares);
    checks.outcome(metrics)
}
