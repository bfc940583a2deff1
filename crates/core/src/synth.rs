//! The TELS synthesis driver (Fig. 3): collapse → threshold-check → split,
//! recursively, from the primary outputs backwards.
//!
//! Every threshold query goes through the canonical realization cache (see
//! [`crate::cache`]): answers are decided in canonical space, so the
//! emitted network depends only on the input and the configuration, never
//! on what an earlier job or query left in the cache.
//!
//! Every expression the driver handles is a cover over a *space*: an
//! ascending list of node ids, where `Var(i)` denotes `space[i]`. A node
//! starts over its sorted fanins, collapsing widens the space by the
//! substituted node's fanins and trims it to the new support, and split
//! parts and cofactors keep their parent's space. Renaming node ids into
//! a space is monotone, and everything the driver and the checker read
//! depends on variables only through their relative order, so the emitted
//! bytes equal those of a driver over global node-id variables — while
//! cube bitsets stay one word wide instead of growing with the node count.

use std::borrow::Cow;
use std::collections::HashMap;
use std::time::Instant;

use tels_logic::opt::{local_sop, node_function, space_of, var_in};
use tels_logic::{Network, NodeId, Sop, Var};

use crate::cache::RealizationCache;
use crate::check::{
    check_threshold_cached, CheckVia, Query, QueryScratch, Realization, SolverBreakdown,
};
use crate::config::TelsConfig;
use crate::error::SynthError;
use crate::split::{split_binate, split_cubes_k, split_unate_with, UnateSplit};
use crate::theorems::theorem2_extend;
use crate::tnet::{ThresholdGate, ThresholdNetwork, TnId};

/// Statistics of a synthesis run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SynthStats {
    /// Threshold queries issued (constants, cache hits, refutations, and
    /// actual solves alike).
    pub ilp_calls: usize,
    /// Queries refuted by Theorem 1, run as the 2-monotonicity test on a
    /// cache miss (each one an ILP the paper's flow would have built).
    pub theorem1_refutations: usize,
    /// Gates absorbed by Theorem-2 combining (an OR input folded into an
    /// existing gate instead of a separate OR gate).
    pub theorem2_combines: usize,
    /// Node-collapse substitutions performed.
    pub collapses: usize,
    /// Unate splits performed (Fig. 7).
    pub unate_splits: usize,
    /// Binate splits performed (Fig. 8).
    pub binate_splits: usize,
    /// Queries answered from the canonical realization cache.
    pub cache_hits: usize,
    /// Actual ILP solver runs.
    pub ilp_solves: usize,
    /// Per-tier solver breakdown (Chow reduction, integer fast path,
    /// rational fallbacks, per-stage wall time).
    pub solver: SolverBreakdown,
    /// Wall time of the driver's own stages.
    pub stages: SynthStages,
}

/// Wall time of the synthesis driver's stages, in nanoseconds.
///
/// The driver reads the clock once as each stage call ends, and that
/// read also starts the next stage: a stage's time runs from the
/// driver's previous read, so it takes in the work that readies the call
/// (the unateness test before a query, gathering a gate's inputs before
/// its emit). Only before a node's local cover is the clock read to start
/// a stage; the stretch that read closes is the driver's glue between
/// nodes. The stages never overlap the synthesis that recurses below
/// them, so these timers and the check's stage timers
/// ([`SolverBreakdown::stage_ns`]) are disjoint, and `unattributed_ns` is
/// what neither covers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SynthStages {
    /// The run's set-up: the source network's levels and the threshold
    /// network's inputs.
    pub setup_ns: u64,
    /// Building each node's local cover and collapsing fanins into it
    /// (Fig. 4), for nodes and for split products with a fanin that may
    /// collapse.
    pub collapse_ns: u64,
    /// Unate splits (Fig. 7), including the k-way cube splits.
    pub unate_split_ns: u64,
    /// Binate splits (Fig. 8).
    pub binate_split_ns: u64,
    /// Theorem-2 combines: choosing the gate half and extending its
    /// realization by the OR input.
    pub theorem2_ns: u64,
    /// The threshold check outside its timed stages: the positive form,
    /// the cache probe, the remap onto the query and back-substitution.
    pub query_prep_ns: u64,
    /// Emitting gates into the threshold network, with gathering their
    /// inputs and weights.
    pub emit_ns: u64,
    /// Wall clock of the whole run.
    pub total_ns: u64,
    /// `total_ns` minus the timers above and the check's stage timers:
    /// the stretches that end at a node's first read.
    pub unattributed_ns: u64,
}

impl SynthStages {
    fn to_json(self) -> tels_trace::json::Json {
        use tels_trace::json::Json;
        let ns = |v: u64| Json::Num(v as f64);
        Json::obj([
            ("setup_ns", ns(self.setup_ns)),
            ("collapse_ns", ns(self.collapse_ns)),
            ("unate_split_ns", ns(self.unate_split_ns)),
            ("binate_split_ns", ns(self.binate_split_ns)),
            ("theorem2_ns", ns(self.theorem2_ns)),
            ("query_prep_ns", ns(self.query_prep_ns)),
            ("emit_ns", ns(self.emit_ns)),
            ("total_ns", ns(self.total_ns)),
            ("unattributed_ns", ns(self.unattributed_ns)),
        ])
    }
}

/// Nanoseconds since the driver's previous clock read `mark`, which
/// becomes this read.
fn lap(mark: &mut Instant) -> u64 {
    let now = Instant::now();
    let ns = (now - *mark).as_nanos() as u64;
    *mark = now;
    ns
}

/// Runs the stage `f`, adding to `timer` its time since `mark`.
fn timed<T>(mark: &mut Instant, timer: &mut u64, f: impl FnOnce() -> T) -> T {
    let out = f();
    *timer += lap(mark);
    out
}

impl SynthStats {
    /// ILP solves avoided by the tier-0 oracle, the tier-0.5 decision
    /// procedure, and memoization.
    pub fn ilp_avoided(&self) -> usize {
        self.cache_hits
            + self.solver.tier0_lookups
            + self.solver.tier05_hits
            + self.solver.tier05_rejects
    }

    /// Adds the run's check outcomes and canonicalization time to the
    /// process-wide `tels_check_*` counters, once per finished run (no-ops
    /// while metrics are off).
    fn publish(&self) {
        use tels_metrics::instruments as m;
        let s = &self.solver;
        m::CHECK_TIER0_HITS.add(s.tier0_lookups as u64);
        m::CHECK_TIER05.add((s.tier05_hits + s.tier05_rejects) as u64);
        m::CHECK_CACHE_HITS.add(self.cache_hits as u64);
        m::CHECK_THEOREM1.add(self.theorem1_refutations as u64);
        m::CHECK_ILP_SOLVES.add(self.ilp_solves as u64);
        m::CHECK_CANON_NS.add(s.canon_ns);
    }

    /// Machine-readable form of the run statistics (including the
    /// [`SolverBreakdown`]), shared by the CLI's `--stats-json` output and
    /// the bench harness.
    pub fn to_json(&self) -> tels_trace::json::Json {
        use tels_trace::json::Json;
        let n = |v: usize| Json::Num(v as f64);
        Json::obj([
            ("ilp_calls", n(self.ilp_calls)),
            ("theorem1_refutations", n(self.theorem1_refutations)),
            ("theorem2_combines", n(self.theorem2_combines)),
            ("collapses", n(self.collapses)),
            ("unate_splits", n(self.unate_splits)),
            ("binate_splits", n(self.binate_splits)),
            ("cache_hits", n(self.cache_hits)),
            // Retired counter, kept at 0: `perfbench/src/layers.rs` reads it.
            ("prefilter_rejections", n(0)),
            ("ilp_solves", n(self.ilp_solves)),
            ("ilp_avoided", n(self.ilp_avoided())),
            ("solver", self.solver.to_json()),
            ("stages", self.stages.to_json()),
        ])
    }
}

/// Which synthesis path produced an emitted threshold gate.
///
/// Every gate emission records one provenance journal entry (when tracing
/// is enabled) tagging the gate with its path, the original-network node
/// being synthesized, and the run's ψ — the per-gate audit trail of the
/// Fig. 3 flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GatePath {
    /// Constant-0/1 gate.
    Constant,
    /// Buffer or inverter over a single literal.
    Literal,
    /// Direct ILP threshold identification of the collapsed expression.
    DirectIlp,
    /// Realization answered by the tier-0 truth-table oracle.
    Tier0,
    /// Realization identified by the tier-0.5 decision procedure.
    Tier05,
    /// Realization replayed from the canonical realization cache.
    CacheHit,
    /// AND-tree chunk emitted to honor the fanin restriction ψ.
    AndChunk,
    /// Glue emitted after a Theorem-1 refutation forced a split.
    Theorem1Split,
    /// Glue emitted for a unate split (Fig. 7).
    UnateSplit,
    /// OR glue over the parts of a binate split (Fig. 8).
    BinateSplit,
    /// Theorem-2 combine: an OR input absorbed into an existing gate.
    Theorem2Combine,
    /// Shannon-expansion recombination (the divide-and-conquer strategy).
    Shannon,
}

impl GatePath {
    /// Stable kebab-case tag used in the provenance journal.
    pub fn as_str(self) -> &'static str {
        match self {
            GatePath::Constant => "constant",
            GatePath::Literal => "literal",
            GatePath::DirectIlp => "direct-ilp",
            GatePath::Tier0 => "tier0",
            GatePath::Tier05 => "tier05",
            GatePath::CacheHit => "cache-hit",
            GatePath::AndChunk => "and-chunk",
            GatePath::Theorem1Split => "theorem1-split",
            GatePath::UnateSplit => "unate-split",
            GatePath::BinateSplit => "binate-split",
            GatePath::Theorem2Combine => "theorem2-combine",
            GatePath::Shannon => "shannon",
        }
    }
}

/// Provenance path for a successful direct threshold check: the tier-0
/// oracle answered it, tier 0.5 identified it, the cache replayed the
/// realization, or the ILP decided it fresh.
fn path_for(via: CheckVia) -> GatePath {
    match via {
        CheckVia::Tier0 => GatePath::Tier0,
        CheckVia::Tier05 => GatePath::Tier05,
        CheckVia::CacheHit => GatePath::CacheHit,
        _ => GatePath::DirectIlp,
    }
}

/// Depth at which the driver moves off the caller's stack. The driver
/// recurses `signal_for_node` → `synth_expr` → `leaf_signal` once per
/// logic level, so chain-shaped inputs need stack proportional to their
/// depth — a 10k-level chain overflows a default 8 MiB thread stack.
const INLINE_DEPTH: usize = 1_000;

/// Runs `f` on a scoped thread whose stack size grows with the source
/// network's logic `depth`; shallow networks (the common case) run `f`
/// inline on the caller's stack.
fn run_with_depth_stack<T: Send>(depth: usize, f: impl FnOnce() -> T + Send) -> T {
    if depth < INLINE_DEPTH {
        return f();
    }
    // ~8 KiB of head-room per recursion level (frames carry Sop and name
    // temporaries through several mutually recursive calls) on a fixed
    // floor; address space is reserved, not committed, so over-asking for
    // very deep chains is cheap.
    let stack_bytes = 16 * 1024 * 1024 + depth.saturating_mul(8 * 1024);
    std::thread::scope(|scope| {
        std::thread::Builder::new()
            .name("tels-synth-deep".into())
            .stack_size(stack_bytes)
            .spawn_scoped(scope, f)
            .expect("spawn synthesis driver thread")
            .join()
            .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
    })
}

/// Synthesizes an algebraically-factored Boolean network into a functionally
/// equivalent threshold network (the paper's `G → G_T`).
///
/// Fanout nodes of `net` are preserved as shared synthesis boundaries
/// (§V-A), and every gate in the result respects the fanin restriction ψ.
///
/// # Errors
///
/// Returns an error if `net` is cyclic or the exact ILP solver overflows.
///
/// # Example
///
/// ```
/// use tels_core::{synthesize, TelsConfig};
/// use tels_logic::blif;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let net = blif::parse(".model m\n.inputs a b c\n.outputs f\n.names a b c f\n11- 1\n--1 1\n.end\n")?;
/// let tn = synthesize(&net, &TelsConfig::default())?;
/// assert!(tn.verify_against(&net, 14, 256, 0)?.is_none());
/// # Ok(())
/// # }
/// ```
pub fn synthesize(net: &Network, config: &TelsConfig) -> Result<ThresholdNetwork, SynthError> {
    synthesize_with_stats(net, config).map(|(tn, _)| tn)
}

/// [`synthesize`], additionally returning run statistics.
///
/// # Errors
///
/// Same as [`synthesize`].
pub fn synthesize_with_stats(
    net: &Network,
    config: &TelsConfig,
) -> Result<(ThresholdNetwork, SynthStats), SynthError> {
    synthesize_with_cache(net, config, &RealizationCache::new())
}

/// [`synthesize_with_stats`] against a caller-owned realization cache —
/// the `tels serve` entry point, where the cache outlives many jobs (and
/// persists between daemon runs).
///
/// Pre-populated entries only change *when* an answer is computed, never
/// what it is, so the emitted network is byte-identical to a one-shot run
/// of the same configuration. The caller must only reuse the cache across
/// configurations that agree on [`TelsConfig::cache_key`]: realizations
/// are pure functions of the canonical key and those fields.
///
/// # Errors
///
/// Same as [`synthesize`].
pub fn synthesize_with_cache(
    net: &Network,
    config: &TelsConfig,
    cache: &RealizationCache,
) -> Result<(ThresholdNetwork, SynthStats), SynthError> {
    config.assert_valid();
    let t0 = Instant::now();
    let mut span = tels_trace::span("core", "synthesize");
    // The one topological pass of the run: it rejects cyclic networks and
    // gives both the delay tie-break levels and the stack depth.
    let net_levels = net.levels()?;
    let depth = net
        .outputs()
        .iter()
        .map(|(_, id)| net_levels[id.index()])
        .max()
        .unwrap_or(0);
    let mut s = Synth::new(net, config, cache, net_levels, t0)?;
    s.stats.stages.setup_ns = lap(&mut s.mark);
    run_with_depth_stack(depth, || s.run())?;
    span.arg("gates", s.tn.num_gates() as u64);
    span.arg("ilp_calls", s.stats.ilp_calls as u64);
    let stages = &mut s.stats.stages;
    stages.total_ns = t0.elapsed().as_nanos() as u64;
    let timed = stages.setup_ns
        + stages.collapse_ns
        + stages.unate_split_ns
        + stages.binate_split_ns
        + stages.theorem2_ns
        + stages.query_prep_ns
        + stages.emit_ns
        + s.stats.solver.stage_ns();
    stages.unattributed_ns = stages.total_ns.saturating_sub(timed);
    s.stats.publish();
    Ok((s.tn, s.stats))
}

/// Cube-count guard for collapse substitutions: substituting a negatively
/// used fanin requires a complement, which can blow the cover up; beyond
/// this many cubes the substitution is undone.
const COLLAPSE_CUBE_CAP: usize = 64;

struct Synth<'a> {
    net: &'a Network,
    config: &'a TelsConfig,
    /// Canonical threshold-check cache.
    cache: &'a RealizationCache,
    tn: ThresholdNetwork,
    /// The threshold-network signal of each boundary node (PIs and fanout
    /// nodes) and synthesized root, indexed by node id.
    signal_map: Vec<Option<TnId>>,
    /// Original-network nodes that collapse must not look through:
    /// primary inputs and fanout nodes (|fanout| ≥ 2).
    boundary: Vec<bool>,
    /// Logic depth of each original-network node (delay tie-breaking).
    net_levels: Vec<usize>,
    stats: SynthStats,
    /// Shared single-literal gates: (leaf signal, phase) → gate.
    literal_cache: HashMap<(TnId, bool), TnId>,
    /// Original-network node currently being synthesized (provenance
    /// context for emitted gates, named only when tracing is enabled).
    current_node: Option<NodeId>,
    /// Positive-form and canonicalization buffers, reused across every
    /// query of the run instead of allocating fresh vectors per query.
    scratch: QueryScratch,
    /// The driver's previous clock read (see [`SynthStages`]).
    mark: Instant,
}

impl<'a> Synth<'a> {
    fn new(
        net: &'a Network,
        config: &'a TelsConfig,
        cache: &'a RealizationCache,
        net_levels: Vec<usize>,
        mark: Instant,
    ) -> Result<Synth<'a>, SynthError> {
        let mut tn = ThresholdNetwork::new(net.model().to_string());
        let nodes = net.node_ids().count();
        // Most nodes become about one gate each.
        tn.reserve(nodes);
        let mut signal_map = vec![None; nodes];
        for pi in net.inputs() {
            let id = tn.add_input(net.name(pi).to_string())?;
            signal_map[pi.index()] = Some(id);
        }
        let fanouts = net.fanout_counts();
        let boundary: Vec<bool> = net
            .node_ids()
            .map(|id| net.is_input(id) || fanouts[id.index()] >= 2)
            .collect();
        Ok(Synth {
            net,
            config,
            cache,
            tn,
            signal_map,
            boundary,
            net_levels,
            stats: SynthStats::default(),
            literal_cache: HashMap::new(),
            current_node: None,
            scratch: QueryScratch::default(),
            mark,
        })
    }

    fn run(&mut self) -> Result<(), SynthError> {
        for (name, id) in self.net.outputs() {
            let signal = self.signal_for_node(*id)?;
            self.tn.add_output(name.clone(), signal)?;
        }
        Ok(())
    }

    /// The threshold-network signal computing the original node `id`,
    /// synthesizing it on demand (primary inputs are pre-mapped; fanout
    /// nodes are synthesized once and shared, §V-A).
    fn signal_for_node(&mut self, id: NodeId) -> Result<TnId, SynthError> {
        if let Some(s) = self.signal_map[id.index()] {
            return Ok(s);
        }
        let net = self.net;
        let name = net.name(id);
        let mut span = tels_trace::span("core", "synth_node");
        if tels_trace::enabled() {
            span.arg("node", name);
        }
        // The glue that led here is unattributed.
        lap(&mut self.mark);
        let space = space_of(net, &[id], &[]);
        let expr = local_sop(net, id, &space);
        let (expr, space) = self.collapse_expr(expr, Cow::Owned(space), true);
        let prev = self.current_node.replace(id);
        let signal = self.synth_collapsed(&expr, &space, Some(name))?;
        self.current_node = prev;
        drop(span);
        self.signal_map[id.index()] = Some(signal);
        Ok(signal)
    }

    /// Node collapsing (Fig. 4): substitute non-boundary fanin functions
    /// into the expression while the support stays within ψ; undo any
    /// substitution that pushes it past ψ (or past the starting support,
    /// for nodes that already exceed ψ). Also applied to split products:
    /// the Fig. 3 flow feeds split nodes back through collapsing, so a leaf
    /// blocked by ψ at the parent can be absorbed once a split shrinks the
    /// support.
    ///
    /// Each substitution runs over the sorted union of `space` and the
    /// substituted node's fanins; an accepted one trims the space to the
    /// new support.
    ///
    /// The call is a collapse stage when `staged` (a node's local cover)
    /// or when a fanin may collapse; most split products have none, and
    /// read no clock.
    fn collapse_expr<'s>(
        &mut self,
        mut expr: Sop,
        mut space: Cow<'s, [NodeId]>,
        mut staged: bool,
    ) -> (Sop, Cow<'s, [NodeId]>) {
        let limit = self.config.psi.max(expr.support().len());
        let mut blocked: Vec<NodeId> = Vec::new();
        loop {
            let candidate = expr
                .support()
                .iter()
                .map(|v| space[v.0 as usize])
                .find(|&node| !self.boundary[node.index()] && !blocked.contains(&node));
            let Some(node) = candidate else { break };
            staged = true;
            let union = space_of(self.net, &[node], &space);
            let map: Vec<Var> = space.iter().map(|&n| var_in(&union, n)).collect();
            let inner = local_sop(self.net, node, &union);
            let substituted = expr.remap(&map).substitute(var_in(&union, node), &inner);
            if substituted.support().len() <= limit && substituted.num_cubes() <= COLLAPSE_CUBE_CAP
            {
                let (trimmed, function) = node_function(&union, &substituted);
                (space, expr) = (Cow::Owned(trimmed), function);
                self.stats.collapses += 1;
            } else {
                blocked.push(node);
            }
        }
        if staged {
            self.stats.stages.collapse_ns += lap(&mut self.mark);
        }
        (expr, space)
    }

    /// The threshold-network signal for variable `v` of an expression over
    /// `space`, synthesizing the underlying node on demand.
    fn leaf_signal(&mut self, space: &[NodeId], v: Var) -> Result<TnId, SynthError> {
        self.signal_for_node(space[v.0 as usize])
    }

    /// Emits a gate for a realization whose variables index `space`.
    fn emit_gate(
        &mut self,
        r: &Realization,
        space: &[NodeId],
        name_hint: Option<&str>,
        path: GatePath,
    ) -> Result<TnId, SynthError> {
        let inputs: Vec<TnId> = r
            .weights
            .iter()
            .map(|&(v, _)| self.leaf_signal(space, v))
            .collect::<Result<_, _>>()?;
        let weights: Vec<i64> = r.weights.iter().map(|&(_, w)| w).collect();
        self.emit_raw_gate(inputs, weights, r.threshold, name_hint, path)
    }

    /// Emits a gate and records its provenance journal entry. Every gate
    /// of a synthesis run flows through here, so the journal holds exactly
    /// one entry per emitted gate.
    fn emit_raw_gate(
        &mut self,
        inputs: Vec<TnId>,
        weights: Vec<i64>,
        threshold: i64,
        name_hint: Option<&str>,
        path: GatePath,
    ) -> Result<TnId, SynthError> {
        let gate = ThresholdGate {
            inputs,
            weights,
            threshold,
        };
        let id = self.tn.add_gate_named(name_hint, "t", gate);
        if let (Ok(id), true) = (&id, tels_trace::enabled()) {
            tels_trace::provenance(
                self.tn.name(*id),
                path.as_str(),
                self.current_node.map(|id| self.net.name(id)),
                self.config.psi,
            );
        }
        self.stats.stages.emit_ns += lap(&mut self.mark);
        id
    }

    /// One threshold query through the canonical cache, also reporting how
    /// it was decided (provenance tagging for the emitted gate). The
    /// Theorem-1 refutation runs inside the cached checker, on the miss
    /// path.
    fn query_threshold(
        &mut self,
        query: Query<'_>,
    ) -> Result<(Option<Realization>, CheckVia), SynthError> {
        self.stats.ilp_calls += 1;
        let staged = self.stats.solver.stage_ns();
        let (r, via) = check_threshold_cached(
            query,
            self.config,
            self.cache,
            &mut self.stats.solver,
            &mut self.scratch,
        )?;
        let check_ns = lap(&mut self.mark);
        let staged = self.stats.solver.stage_ns() - staged;
        self.stats.stages.query_prep_ns += check_ns.saturating_sub(staged);
        self.tally(via, r.is_some());
        Ok((r, via))
    }

    /// Emits a gate realizing the prototype `query` (over `Var(0..)`) on
    /// `inputs`. Variables absent from the realization (redundant inputs)
    /// are dropped; the realization's variables index `inputs`.
    fn query_gate(
        &mut self,
        query: Query<'_>,
        inputs: Vec<TnId>,
        name_hint: Option<&str>,
        path: GatePath,
    ) -> Result<TnId, SynthError> {
        let (r, _) = self.query_threshold(query)?;
        let r = r.ok_or_else(|| {
            SynthError::Internal(format!("prototype {query:?} is not a threshold function"))
        })?;
        let gate_inputs: Vec<TnId> = r
            .weights
            .iter()
            .map(|&(v, _)| inputs[v.0 as usize])
            .collect();
        let weights: Vec<i64> = r.weights.iter().map(|&(_, w)| w).collect();
        self.emit_raw_gate(gate_inputs, weights, r.threshold, name_hint, path)
    }

    /// Counts one query's outcome: the only place the run statistics
    /// record how a check was decided. `threshold` tells a tier-0.5
    /// identification from a tier-0.5 rejection.
    fn tally(&mut self, via: CheckVia, threshold: bool) {
        let stats = &mut self.stats;
        match via {
            CheckVia::Tier0 => stats.solver.tier0_lookups += 1,
            CheckVia::Tier05 if threshold => stats.solver.tier05_hits += 1,
            CheckVia::Tier05 => stats.solver.tier05_rejects += 1,
            CheckVia::CacheHit => stats.cache_hits += 1,
            CheckVia::Theorem1 => stats.theorem1_refutations += 1,
            CheckVia::Ilp => stats.ilp_solves += 1,
        }
    }

    /// A shared buffer/inverter gate over a leaf signal.
    fn literal_gate(&mut self, signal: TnId, phase: bool) -> Result<TnId, SynthError> {
        if let Some(&g) = self.literal_cache.get(&(signal, phase)) {
            return Ok(g);
        }
        // Realize via the ILP so δ_on/δ_off are honored: buffer needs
        // w ≥ T + δ_on with T ≥ δ_off; inverter needs 0 ≥ T + δ_on with
        // −w ≤ T − δ_off.
        let g = self.query_gate(Query::And(&[phase]), vec![signal], None, GatePath::Literal)?;
        self.literal_cache.insert((signal, phase), g);
        Ok(g)
    }

    /// Emits an OR gate over already-synthesized children.
    fn or_gate(
        &mut self,
        children: Vec<TnId>,
        name_hint: Option<&str>,
        path: GatePath,
    ) -> Result<TnId, SynthError> {
        debug_assert!(children.len() >= 2 && children.len() <= self.config.psi);
        self.query_gate(Query::Or(children.len()), children, name_hint, path)
    }

    /// Emits an AND over `(signal, phase)` terms, chunking into a tree when
    /// the term count exceeds ψ.
    fn and_terms(
        &mut self,
        mut terms: Vec<(TnId, bool)>,
        name_hint: Option<&str>,
        path: GatePath,
    ) -> Result<TnId, SynthError> {
        debug_assert!(!terms.is_empty());
        if terms.len() == 1 {
            let (sig, phase) = terms[0];
            return if phase {
                Ok(sig)
            } else {
                self.literal_gate(sig, phase)
            };
        }
        loop {
            let take = terms.len().min(self.config.psi);
            let (inputs, phases): (Vec<TnId>, Vec<bool>) = terms.drain(..take).unzip();
            let last = terms.is_empty();
            let gate = self.query_gate(
                Query::And(&phases),
                inputs,
                if last { name_hint } else { None },
                if last { path } else { GatePath::AndChunk },
            )?;
            if last {
                return Ok(gate);
            }
            terms.push((gate, true));
        }
    }

    /// Divide-and-conquer synthesis of a non-trivial expression: Shannon
    /// expansion on the most binate (else most frequent) variable, with
    /// special cases when a cofactor is constant (the paper's future-work
    /// strategy; see [`SynthStrategy::Shannon`](crate::SynthStrategy)).
    fn shannon_expr(
        &mut self,
        expr: &Sop,
        space: &[NodeId],
        name_hint: Option<&str>,
    ) -> Result<TnId, SynthError> {
        let support = expr.support();
        let v = expr
            .binate_vars()
            .into_iter()
            .max_by_key(|&v| expr.occurrence_count(v))
            .or_else(|| support.iter().max_by_key(|&v| expr.occurrence_count(v)))
            .expect("non-constant expression has support");
        let f1 = expr.cofactor(v, true);
        let f0 = expr.cofactor(v, false);
        if f1.equivalent(&f0) {
            // The variable is functionally redundant in this cover.
            return self.synth_expr(f1, Cow::Borrowed(space), name_hint);
        }
        let x = self.leaf_signal(space, v)?;
        let lit = |phase: bool| Sop::literal(Var(0), phase);
        if f1.is_one() {
            // f = x ∨ f0.
            let c0 = self.synth_expr(f0, Cow::Borrowed(space), None)?;
            let proto = lit(true).or(&Sop::literal(Var(1), true));
            return self.query_gate(
                Query::Cover(&proto),
                vec![x, c0],
                name_hint,
                GatePath::Shannon,
            );
        }
        if f0.is_one() {
            // f = x̄ ∨ f1.
            let c1 = self.synth_expr(f1, Cow::Borrowed(space), None)?;
            let proto = lit(false).or(&Sop::literal(Var(1), true));
            return self.query_gate(
                Query::Cover(&proto),
                vec![x, c1],
                name_hint,
                GatePath::Shannon,
            );
        }
        if f0.is_zero() {
            // f = x·f1.
            let c1 = self.synth_expr(f1, Cow::Borrowed(space), None)?;
            return self.and_terms(vec![(x, true), (c1, true)], name_hint, GatePath::Shannon);
        }
        if f1.is_zero() {
            // f = x̄·f0.
            let c0 = self.synth_expr(f0, Cow::Borrowed(space), None)?;
            return self.and_terms(vec![(x, false), (c0, true)], name_hint, GatePath::Shannon);
        }
        // General 2:1 mux recombination.
        let c1 = self.synth_expr(f1, Cow::Borrowed(space), None)?;
        let c0 = self.synth_expr(f0, Cow::Borrowed(space), None)?;
        let and1 = self.and_terms(vec![(x, true), (c1, true)], None, GatePath::Shannon)?;
        let and0 = self.and_terms(vec![(x, false), (c0, true)], None, GatePath::Shannon)?;
        self.or_gate(vec![and1, and0], name_hint, GatePath::Shannon)
    }

    /// Recursively synthesizes an expression over `space`, mapping leaves
    /// to threshold-network signals on demand.
    fn synth_expr(
        &mut self,
        expr: Sop,
        space: Cow<'_, [NodeId]>,
        name_hint: Option<&str>,
    ) -> Result<TnId, SynthError> {
        // Every expression — original node or split product — goes through
        // collapsing first (the Fig. 3 feedback edge).
        let (expr, space) = self.collapse_expr(expr, space, false);
        self.synth_collapsed(&expr, &space, name_hint)
    }

    /// [`Self::synth_expr`] on an expression that collapsing has finished.
    fn synth_collapsed(
        &mut self,
        expr: &Sop,
        space: &[NodeId],
        name_hint: Option<&str>,
    ) -> Result<TnId, SynthError> {
        // Constants.
        if expr.is_zero() || expr.is_one() {
            let r = Realization::constant(expr.is_one(), self.config);
            return self.emit_gate(&r, space, name_hint, GatePath::Constant);
        }
        // Single literal: reuse the leaf (or a shared inverter). A root
        // needing a stable name still gets a buffer gate.
        if expr.num_cubes() == 1 && expr.cubes()[0].literal_count() == 1 {
            let (v, phase) = expr.cubes()[0].literals().next().expect("one literal");
            let sig = self.leaf_signal(space, v)?;
            if phase && name_hint.is_none() {
                return Ok(sig);
            }
            if name_hint.is_none() {
                return self.literal_gate(sig, phase);
            }
            return self.query_gate(
                Query::And(&[phase]),
                vec![sig],
                name_hint,
                GatePath::Literal,
            );
        }

        let (unate, support) = unate_support(expr);
        // Divide-and-conquer strategy: after the trivial cases, decompose by
        // Shannon expansion instead of the paper's Fig. 7/8 splitting.
        if self.config.strategy == crate::config::SynthStrategy::Shannon {
            if unate && support <= self.config.psi {
                let (r, via) = self.query_threshold(Query::Cover(expr))?;
                if let Some(r) = r {
                    return self.emit_gate(&r, space, name_hint, path_for(via));
                }
            }
            return self.shannon_expr(expr, space, name_hint);
        }

        // Binate node: split per Fig. 8, OR the parts together.
        if !unate {
            self.stats.binate_splits += 1;
            let psi = self.config.psi;
            let parts = timed(
                &mut self.mark,
                &mut self.stats.stages.binate_split_ns,
                || split_binate(expr, psi),
            )?;
            let children: Vec<TnId> = parts
                .into_iter()
                .map(|p| self.synth_expr(p, Cow::Borrowed(space), None))
                .collect::<Result<_, _>>()?;
            return self.or_gate(children, name_hint, GatePath::BinateSplit);
        }

        // Unate node within the fanin bound: try a single gate. A failing
        // check's verdict tags the glue gates of the split that follows
        // (Theorem-1 refutation vs. a plain non-threshold answer).
        let mut refuted_by_t1 = false;
        if support <= self.config.psi {
            let (r, via) = self.query_threshold(Query::Cover(expr))?;
            if let Some(r) = r {
                return self.emit_gate(&r, space, name_hint, path_for(via));
            }
            refuted_by_t1 = via == CheckVia::Theorem1;
        }
        let split_path = if refuted_by_t1 {
            GatePath::Theorem1Split
        } else {
            GatePath::UnateSplit
        };

        // Single cube: an AND tree.
        if expr.num_cubes() == 1 {
            let mut terms: Vec<(TnId, bool)> = Vec::new();
            for (v, phase) in expr.cubes()[0].literals() {
                terms.push((self.leaf_signal(space, v)?, phase));
            }
            return self.and_terms(terms, name_hint, GatePath::AndChunk);
        }

        // Unate splitting (Fig. 7).
        self.stats.unate_splits += 1;
        let heuristic = self.config.split_heuristic;
        let split = timed(
            &mut self.mark,
            &mut self.stats.stages.unate_split_ns,
            || split_unate_with(expr, heuristic),
        )?;
        match split {
            UnateSplit::AndCube(cube, rest) => {
                let child = self.synth_expr(rest, Cow::Borrowed(space), None)?;
                let mut terms: Vec<(TnId, bool)> = Vec::new();
                for (v, phase) in cube.literals() {
                    terms.push((self.leaf_signal(space, v)?, phase));
                }
                terms.push((child, true));
                self.and_terms(terms, name_hint, split_path)
            }
            UnateSplit::Or(a, b) => {
                // Check the larger half first (§V-C), then the smaller; on
                // success absorb the other half via Theorem 2. Ties on cube
                // count are broken by leaf depth: keeping the deeper signals
                // in the root gate avoids an extra level (delay balance,
                // §VI's "well-balanced" property).
                let net_levels = &self.net_levels;
                let leaf_depth = |s: &Sop| -> usize {
                    s.support()
                        .iter()
                        .map(|v| net_levels[space[v.0 as usize].index()])
                        .max()
                        .unwrap_or(0)
                };
                let (big, small) =
                    timed(&mut self.mark, &mut self.stats.stages.theorem2_ns, || {
                        if (a.num_cubes(), leaf_depth(&a)) >= (b.num_cubes(), leaf_depth(&b)) {
                            (a, b)
                        } else {
                            (b, a)
                        }
                    });
                for (gate_half, rec_half) in [(&big, &small), (&small, &big)] {
                    if gate_half.support().len() + 1 > self.config.psi {
                        continue;
                    }
                    if let (Some(r), _) = self.query_threshold(Query::Cover(gate_half))? {
                        // The extra OR input gets weight T_pos + δ_on, which
                        // must also respect the dynamic-range cap.
                        let config = self.config;
                        let (_, w_extra) =
                            timed(&mut self.mark, &mut self.stats.stages.theorem2_ns, || {
                                theorem2_extend(&r, Var(u32::MAX), config)
                            });
                        if self.config.weight_cap.is_some_and(|cap| w_extra > cap) {
                            continue;
                        }
                        let child =
                            self.synth_expr(rec_half.clone(), Cow::Borrowed(space), None)?;
                        let mut inputs: Vec<TnId> = r
                            .weights
                            .iter()
                            .map(|&(v, _)| self.leaf_signal(space, v))
                            .collect::<Result<_, _>>()?;
                        let mut weights: Vec<i64> = r.weights.iter().map(|&(_, w)| w).collect();
                        inputs.push(child);
                        weights.push(w_extra);
                        self.stats.theorem2_combines += 1;
                        return self.emit_raw_gate(
                            inputs,
                            weights,
                            r.threshold,
                            name_hint,
                            GatePath::Theorem2Combine,
                        );
                    }
                }
                // Neither half is a usable gate: k-way cube split glued by
                // the OR gate ⟨1,…,1;1⟩.
                let k = self.config.psi.min(expr.num_cubes());
                let parts = timed(
                    &mut self.mark,
                    &mut self.stats.stages.unate_split_ns,
                    || split_cubes_k(expr, k),
                );
                let children: Vec<TnId> = parts
                    .into_iter()
                    .map(|p| self.synth_expr(p, Cow::Borrowed(space), None))
                    .collect::<Result<_, _>>()?;
                self.or_gate(children, name_hint, split_path)
            }
        }
    }
}

/// Whether a cover is (syntactically) unate, and its support size, from
/// one pass over its cubes.
fn unate_support(f: &Sop) -> (bool, usize) {
    let (mut pos, neg) = f.phase_vars();
    let unate = !pos.intersects(&neg);
    pos.union_with(&neg);
    (unate, pos.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use tels_logic::{blif, Cube};

    fn synth_and_verify(src: &str, config: &TelsConfig) -> (ThresholdNetwork, SynthStats) {
        let net = blif::parse(src).unwrap();
        let (tn, stats) = synthesize_with_stats(&net, config).unwrap();
        let cex = tn.verify_against(&net, 16, 2048, 7).unwrap();
        assert_eq!(cex, None, "synthesized network differs from input");
        // Every gate respects the fanin restriction.
        for (_, g) in tn.gates() {
            assert!(
                g.inputs.len() <= config.psi,
                "gate fanin {} exceeds ψ = {}",
                g.inputs.len(),
                config.psi
            );
        }
        (tn, stats)
    }

    #[test]
    fn and_or_network() {
        let (tn, _) = synth_and_verify(
            ".model m\n.inputs a b c\n.outputs f\n.names a b c f\n11- 1\n--1 1\n.end\n",
            &TelsConfig::default(),
        );
        // a·b ∨ c is a threshold function ⟨1,1,2;2⟩ → one gate.
        assert_eq!(tn.num_gates(), 1);
        assert_eq!(tn.depth(), 1);
    }

    #[test]
    fn motivational_example_fig2() {
        // Fig. 2(a): f = n1 ∨ n2, n1 = n3·x5, n2 = x6·x7,
        // n3 = x1·x2·x3 ∨ x̄1·x4 — 7 Boolean gates, 5 levels.
        // TELS with ψ=4 yields 5 gates, 3 levels (Fig. 2(b)).
        let src = "\
.model fig2
.inputs x1 x2 x3 x4 x5 x6 x7
.outputs f
.names x1 x2 x3 x4 n3
111- 1
0--1 1
.names n3 x5 n1
11 1
.names x6 x7 n2
11 1
.names n1 n2 f
1- 1
-1 1
.end
";
        let config = TelsConfig {
            psi: 4,
            ..TelsConfig::default()
        };
        let (tn, stats) = synth_and_verify(src, &config);
        assert_eq!(tn.num_gates(), 5, "paper reports 5 threshold gates");
        assert_eq!(tn.depth(), 3, "paper reports 3 levels");
        assert!(stats.ilp_calls > 0);
    }

    #[test]
    fn fanout_nodes_are_shared() {
        // n3 = a·b drives both f and g; it must be synthesized once.
        let src = "\
.model share
.inputs a b c d
.outputs f g
.names a b n3
11 1
.names n3 c f
11 1
.names n3 d g
11 1
.end
";
        let (tn, _) = synth_and_verify(src, &TelsConfig::default());
        // Gates: n3, f, g — not 4+ (no duplication of n3).
        assert_eq!(tn.num_gates(), 3);
    }

    #[test]
    fn xor_needs_multiple_gates() {
        let src = ".model x\n.inputs a b\n.outputs f\n.names a b f\n10 1\n01 1\n.end\n";
        let (tn, stats) = synth_and_verify(src, &TelsConfig::default());
        assert!(tn.num_gates() >= 2, "xor is not a threshold function");
        assert!(stats.binate_splits >= 1);
    }

    #[test]
    fn non_threshold_unate_function_splits() {
        // x1x2 ∨ x3x4 with ψ=4: not threshold → split.
        let src = ".model u\n.inputs a b c d\n.outputs f\n.names a b c d f\n11-- 1\n--11 1\n.end\n";
        let config = TelsConfig {
            psi: 4,
            ..TelsConfig::default()
        };
        let (tn, stats) = synth_and_verify(src, &config);
        assert!(tn.num_gates() >= 2);
        assert!(stats.unate_splits >= 1);
    }

    #[test]
    fn theorem2_combining_happens() {
        // x1x2 ∨ x1x3 ∨ x4x5 (§V-C example): with ψ=4, the larger half
        // x1x2 ∨ x1x3 is threshold ⟨2,1,1;3⟩ and absorbs the n2 input with
        // weight 3 → exactly two gates.
        let src =
            ".model t2\n.inputs x1 x2 x3 x4 x5\n.outputs n\n.names x1 x2 x3 x4 x5 n\n11--- 1\n1-1-- 1\n---11 1\n.end\n";
        let config = TelsConfig {
            psi: 4,
            ..TelsConfig::default()
        };
        let (tn, stats) = synth_and_verify(src, &config);
        assert_eq!(stats.theorem2_combines, 1);
        assert_eq!(tn.num_gates(), 2);
        // The combined gate must carry weight vector ⟨2,1,1,3;3⟩.
        let root = tn.find("n").expect("root gate keeps the node name");
        let g = tn.gate(root).unwrap();
        let mut ws = g.weights.clone();
        ws.sort_unstable();
        assert_eq!(ws, vec![1, 1, 2, 3]);
        assert_eq!(g.threshold, 3);
    }

    #[test]
    fn constant_outputs() {
        let src = ".model c\n.inputs a\n.outputs one zero\n.names one\n1\n.names zero\n.end\n";
        let net = blif::parse(src).unwrap();
        let tn = synthesize(&net, &TelsConfig::default()).unwrap();
        assert_eq!(tn.eval(&[false]).unwrap(), vec![true, false]);
        assert_eq!(tn.eval(&[true]).unwrap(), vec![true, false]);
    }

    #[test]
    fn wide_and_respects_psi() {
        // 8-input AND with ψ=3 → an AND tree.
        let src = ".model w\n.inputs a b c d e f g h\n.outputs y\n.names a b c d e f g h y\n11111111 1\n.end\n";
        let (tn, _) = synth_and_verify(src, &TelsConfig::default());
        assert!(tn.num_gates() >= 3);
    }

    #[test]
    fn po_aliasing_a_pi() {
        let src = ".model alias\n.inputs a\n.outputs f\n.names a f\n1 1\n.end\n";
        let (tn, _) = synth_and_verify(src, &TelsConfig::default());
        assert!(tn.num_gates() >= 1);
    }

    #[test]
    fn inverters_are_shared() {
        // Two nodes both needing ā as a split product share one inverter
        // when ā appears as a split leaf.
        let src = "\
.model inv
.inputs a b c d e
.outputs f
.names a b c d e f
01--- 1
0-1-- 1
--011 1
.end
";
        let (tn, _) = synth_and_verify(src, &TelsConfig::default());
        let inverter_gates = tn.gates().filter(|(_, g)| g.weights == vec![-1]).count();
        assert!(inverter_gates <= 1, "inverters should be shared");
    }

    /// `net` rebuilt with `pad` dead logic nodes (reading only primary
    /// inputs) between the inputs and the live logic, and with every live
    /// node's fanin list `reversed` (its cover's columns permuted to keep
    /// the function). Live node ids shift by `pad`, names do not change.
    fn renumbered(net: &Network, pad: usize, reversed: bool) -> Network {
        let mut out = Network::new(net.model());
        let mut ids = HashMap::new();
        for pi in net.inputs() {
            ids.insert(pi, out.add_input(net.name(pi)).unwrap());
        }
        let pis = net.inputs();
        for i in 0..pad {
            let fanins = vec![ids[&pis[i % pis.len()]], ids[&pis[(i + 1) % pis.len()]]];
            let and2 = Sop::from_cubes([Cube::from_literals([(Var(0), true), (Var(1), false)])]);
            out.add_node(format!("dead{i}"), fanins, and2).unwrap();
        }
        // Placeholders first, so that the live nodes keep their relative
        // order whatever order their functions reference each other in.
        let logic: Vec<NodeId> = net.node_ids().filter(|&id| !net.is_input(id)).collect();
        for &id in &logic {
            ids.insert(id, out.add_node(net.name(id), vec![], Sop::zero()).unwrap());
        }
        for &id in &logic {
            let mut fanins: Vec<NodeId> = net.fanins(id).iter().map(|f| ids[f]).collect();
            let mut sop = net.sop(id).clone();
            if reversed {
                fanins.reverse();
                let n = fanins.len() as u32;
                let map: Vec<Var> = (0..n).map(|i| Var(n - 1 - i)).collect();
                sop = sop.remap(&map);
            }
            out.set_function(ids[&id], fanins, sop).unwrap();
        }
        for (name, id) in net.outputs() {
            out.add_output(name.clone(), ids[id]).unwrap();
        }
        out
    }

    #[test]
    fn output_depends_only_on_relative_node_order() {
        // 130 dead nodes push every live node id past bit 128, so global
        // node-id bitsets would span three words where the unpadded
        // network's fit in one; reversed fanin lists make every node's
        // cover start out of ascending order.
        let sources = [
            ".model r\n.inputs a b c d e f g h\n.outputs y z\n.names a b c d t\n11-- 1\n--11 1\n\
             .names t e f y\n1-0 1\n-10 1\n.names t g h z\n111 1\n.end\n",
            ".model fig2\n.inputs x1 x2 x3 x4 x5 x6 x7\n.outputs f\n.names x1 x2 x3 x4 n3\n\
             111- 1\n0--1 1\n.names n3 x5 n1\n11 1\n.names x6 x7 n2\n11 1\n\
             .names n1 n2 f\n1- 1\n-1 1\n.end\n",
            ".model m\n.inputs a b c d e\n.outputs f g\n.names a b c s\n110 1\n001 1\n\
             .names s d e f\n11- 1\n1-1 1\n--1 1\n.names s a e g\n01- 1\n-11 1\n.end\n",
        ];
        for src in sources {
            let net = blif::parse(src).unwrap();
            for psi in 3..=6 {
                for strategy in [
                    crate::config::SynthStrategy::default(),
                    crate::config::SynthStrategy::Shannon,
                ] {
                    let config = TelsConfig {
                        psi,
                        strategy,
                        ..TelsConfig::default()
                    };
                    let want = synthesize(&net, &config).unwrap().to_tnet();
                    for (pad, reversed) in [(130, false), (0, true), (130, true)] {
                        let moved = renumbered(&net, pad, reversed);
                        let got = synthesize(&moved, &config).unwrap().to_tnet();
                        assert_eq!(
                            got,
                            want,
                            "{} at ψ={psi} {strategy:?}, pad {pad}, reversed {reversed}",
                            net.model()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn psi_respected_across_range() {
        let src = "\
.model r
.inputs a b c d e f g h
.outputs y z
.names a b c d t
11-- 1
--11 1
.names t e f y
1-0 1
-10 1
.names t g h z
111 1
.end
";
        for psi in 2..=6 {
            let config = TelsConfig {
                psi,
                ..TelsConfig::default()
            };
            let net = blif::parse(src).unwrap();
            let tn = synthesize(&net, &config).unwrap();
            assert_eq!(tn.verify_against(&net, 16, 1024, 3).unwrap(), None);
            for (_, g) in tn.gates() {
                assert!(g.inputs.len() <= psi);
            }
        }
    }
}
