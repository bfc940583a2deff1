//! Multi-level network optimization scripts.
//!
//! These passes stand in for the SIS scripts the paper runs before
//! synthesis: [`script_algebraic`] (the input to TELS proper) and
//! [`script_boolean`] (the input to the one-to-one mapping baseline), plus
//! the [`decompose`] pass that turns a network into simple AND/OR/NOT gates
//! with a fanin bound.
//!
//! All passes preserve network function; the integration test suite checks
//! this by equivalence after every script.
//!
//! `eliminate` and `simplify` remember results in the network between
//! calls, checked against the nodes' edit stamps (see [`Network`]): a
//! result is reused only while everything it read is unchanged, so a pass
//! writes the same network whether or not it ran before.

use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap};

use crate::cube::{Cube, Var};
use crate::error::LogicError;
use crate::factor::{divide, kernels};
use crate::fxhash::FxHashMap;
use crate::network::{Network, NodeId, NodeKind};
use crate::sop::Sop;

/// Tuning knobs for the optimization scripts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OptOptions {
    /// Maximum kernel-extraction rounds.
    pub max_extract_rounds: usize,
    /// Maximum kernels enumerated per node per round.
    pub max_kernels_per_node: usize,
    /// Nodes with more cubes than this are skipped during kerneling.
    pub max_cubes_for_kernels: usize,
    /// Maximum divisor candidates evaluated per round.
    pub max_candidates_per_round: usize,
    /// Skip cube-blowup-prone eliminations past this many result literals.
    pub max_elim_literals: usize,
}

impl Default for OptOptions {
    fn default() -> Self {
        OptOptions {
            max_extract_rounds: 200,
            max_kernels_per_node: 60,
            max_cubes_for_kernels: 40,
            max_candidates_per_round: 400,
            max_elim_literals: 120,
        }
    }
}

/// Reads a node's SOP remapped into the *global* variable space, where
/// `Var(i)` denotes the node with `NodeId(i)`.
fn global_sop(net: &Network, id: NodeId) -> Sop {
    match net.kind(id) {
        NodeKind::Input => Sop::literal(Var(id.0), true),
        NodeKind::Logic { fanins, sop } => {
            let map: Vec<Var> = fanins.iter().map(|f| Var(f.0)).collect();
            sop.remap(&map)
        }
    }
}

/// Writes a node function given in the global variable space, deriving the
/// fanin list from the SOP support.
fn set_global_sop(net: &mut Network, id: NodeId, sop: &Sop) -> Result<(), LogicError> {
    let support = sop.support();
    let fanins: Vec<NodeId> = support.iter().map(|v| NodeId(v.0)).collect();
    let mut map = vec![Var(0); (support.max_var().map_or(0, |v| v.0) + 1) as usize];
    for (i, v) in support.iter().enumerate() {
        map[v.0 as usize] = Var(i as u32);
    }
    let local = sop.remap(&map);
    net.set_function(id, fanins, local)
}

// Fanin-local variable spaces.
//
// `eliminate`, `simplify`, `resubstitute` and `strash` — and the synthesis
// driver in `tels-core` — compute each rewrite over a *space*: the
// ascending list of the node ids involved, where `Var(i)` denotes
// `space[i]`. Renaming a global-space cover into a space is monotone in
// the variable index, and every cube operation these passes use
// (substitution, complement, division, minimization, containment)
// depends on variables only through their relative order. So each rewrite
// produces exactly the cover the global space would, remapped — while its
// cubes stay within the first inline word of a `VarSet` instead of carrying
// bitsets sized by the largest node id. (`VarSet`'s derived `Ord` is the
// exception: it is not preserved across 64-bit word boundaries, so no
// output may depend on an order taken by it; sorting only to build an
// equality key, as `strash` does, is fine.)

/// The ascending union of `nodes`' fanin lists and `extra`: a variable
/// space in which `Var(i)` denotes `space[i]`.
pub fn space_of(net: &Network, nodes: &[NodeId], extra: &[NodeId]) -> Vec<NodeId> {
    let mut space: Vec<NodeId> = nodes
        .iter()
        .flat_map(|&n| net.fanins(n))
        .chain(extra)
        .copied()
        .collect();
    space.sort_unstable();
    space.dedup();
    space
}

/// The variable denoting `id` in `space`.
///
/// # Panics
///
/// Panics if `id` is not in `space`.
pub fn var_in(space: &[NodeId], id: NodeId) -> Var {
    Var(space.binary_search(&id).expect("node lies in the space") as u32)
}

/// The ascending list of nodes a logic node's cover actually reads.
fn support_nodes(net: &Network, id: NodeId) -> Vec<NodeId> {
    let fanins = net.fanins(id);
    let mut nodes: Vec<NodeId> = net
        .sop(id)
        .support()
        .iter()
        .map(|v| fanins[v.0 as usize])
        .collect();
    nodes.sort_unstable();
    nodes
}

/// A logic node's SOP remapped into `space`, which must contain every node
/// the cover reads (fanins outside the support may be absent).
///
/// # Panics
///
/// Panics if `id` is a primary input.
pub fn local_sop(net: &Network, id: NodeId, space: &[NodeId]) -> Sop {
    let map: Vec<Var> = net
        .fanins(id)
        .iter()
        .map(|f| space.binary_search(f).map_or(Var(0), |i| Var(i as u32)))
        .collect();
    net.sop(id).remap(&map)
}

/// Writes a node function given over `space`, deriving the fanin list
/// (ascending by node id) from the SOP support.
///
/// # Errors
///
/// Propagates [`Network::set_function`] validation (including cycle checks).
fn set_local_sop(
    net: &mut Network,
    id: NodeId,
    space: &[NodeId],
    sop: &Sop,
) -> Result<(), LogicError> {
    let (fanins, sop) = node_function(space, sop);
    net.set_function(id, fanins, sop)
}

/// `sop` over `space` restated over its support alone: the support nodes
/// in ascending order (the space the result lives in, and the fanin list
/// a node with this function gets) and the cover over them.
pub fn node_function(space: &[NodeId], sop: &Sop) -> (Vec<NodeId>, Sop) {
    let support = sop.support();
    let fanins: Vec<NodeId> = support.iter().map(|v| space[v.0 as usize]).collect();
    let mut map = vec![Var(0); space.len()];
    for (i, v) in support.iter().enumerate() {
        map[v.0 as usize] = Var(i as u32);
    }
    (fanins, sop.remap(&map))
}

fn users_of(net: &Network) -> Vec<Vec<NodeId>> {
    let mut users: Vec<Vec<NodeId>> = vec![Vec::new(); net.node_ids().count()];
    for id in net.node_ids() {
        for &f in net.fanins(id) {
            users[f.0 as usize].push(id);
        }
    }
    users
}

fn drives_output(net: &Network) -> Vec<bool> {
    let mut po = vec![false; net.node_ids().count()];
    for (_, id) in net.outputs() {
        po[id.0 as usize] = true;
    }
    po
}

/// Removes constant and buffer nodes by inlining them into their users.
///
/// Nodes that drive primary outputs are kept (the output needs a driver).
/// Returns the number of inlined uses.
pub fn sweep(net: &mut Network) -> usize {
    let _span = tels_trace::span("logic", "sweep");
    let mut total = 0;
    loop {
        let users = users_of(net);
        let mut changed = 0;
        for victim in net.node_ids().collect::<Vec<_>>() {
            if net.is_input(victim) {
                continue;
            }
            let sop = net.sop(victim);
            let trivial = sop.is_zero()
                || sop.is_one()
                || (sop.num_cubes() == 1 && sop.cubes()[0].literal_count() == 1);
            if !trivial {
                continue;
            }
            for &user in &users[victim.0 as usize] {
                // The fanin list may have changed since `users` was computed.
                if let Some(pos) = net.fanins(user).iter().position(|&f| f == victim) {
                    if net.inline_fanin(user, pos).is_ok() {
                        changed += 1;
                    }
                }
            }
        }
        total += changed;
        if changed == 0 {
            return total;
        }
    }
}

/// Two-level minimization of every node function.
pub fn simplify(net: &mut Network) {
    let _span = tels_trace::span("logic", "simplify");
    let mut memo = net.take_memo();
    memo.simplified.resize(net.node_ids().count(), 0);
    // Minimization reads only the local cover, and a circuit repeats few
    // distinct covers: each is minimized once per call.
    let mut covers: HashMap<Sop, usize> = HashMap::new();
    let mut minimized: Vec<Minimized> = Vec::new();
    for id in net.node_ids().collect::<Vec<_>>() {
        if net.is_input(id) || memo.simplified[id.index()] == net.stamp(id) {
            continue;
        }
        let m = match covers.get(net.sop(id)) {
            Some(&i) => &mut minimized[i],
            None => {
                covers.insert(net.sop(id).clone(), minimized.len());
                minimized.push(Minimized {
                    cover: net.sop(id).minimize(),
                    fixpoint: None,
                });
                minimized.last_mut().expect("pushed above")
            }
        };
        let canonical = reads_ascending_fanins(net, id);
        if canonical && m.fixpoint == Some(true) {
            memo.simplified[id.index()] = net.stamp(id);
            continue;
        }
        // Minimization can drop variables; rewriting over the sorted fanins
        // refreshes the fanin list.
        let space = space_of(net, &[id], &[]);
        let map: Vec<Var> = net.fanins(id).iter().map(|&f| var_in(&space, f)).collect();
        let (fanins, sop) = node_function(&space, &m.cover.remap(&map));
        let unchanged = fanins == net.fanins(id) && sop == *net.sop(id);
        if canonical {
            m.fixpoint = Some(unchanged);
        }
        if unchanged {
            memo.simplified[id.index()] = net.stamp(id);
            continue;
        }
        net.set_function(id, fanins, sop)
            .expect("minimized function is valid");
    }
    net.put_memo(memo);
}

/// A cover's minimization, as [`simplify`] memoizes it.
struct Minimized {
    cover: Sop,
    /// Whether [`simplify`] leaves a node with this cover unchanged when
    /// the node's fanins ascend and the cover reads every one of them
    /// (`None` until such a node is seen). Then the rewrite's variable maps
    /// are identities, so the outcome depends on the cover alone.
    fixpoint: Option<bool>,
}

/// Whether a logic node's fanins strictly ascend and its cover reads them
/// all.
fn reads_ascending_fanins(net: &Network, id: NodeId) -> bool {
    let fanins = net.fanins(id);
    fanins.windows(2).all(|w| w[0] < w[1]) && net.sop(id).support().len() == fanins.len()
}

/// What the factoring passes remember about a network from one call to
/// the next, checked against the [`Network`] edit stamps of the nodes each
/// remembered result read. Lives in the network (see
/// [`Network::take_memo`]), so calling the passes one at a time saves as
/// much as [`script_algebraic`] does.
#[derive(Debug, Clone, Default)]
pub(crate) struct PassMemo {
    /// Per node, its last [`eliminate`] trial as a victim.
    trials: Vec<ElimTrial>,
    /// Per node, the stamp at which [`simplify`] last left it unchanged
    /// (0, below every stamp, for never).
    simplified: Vec<u64>,
}

/// The threshold-free outcome of one [`eliminate`] trial.
#[derive(Debug, Clone, Copy, Default)]
struct ElimTrial {
    /// The network clock when the trial's use list was read.
    at: u64,
    /// How many users the trial substituted into (0 for never tried).
    uses: usize,
    /// The `max_elim_literals` the trial ran under.
    limit: usize,
    /// The literal growth, or `None` if some user's new cover exceeded
    /// `limit`.
    growth: Option<isize>,
}

/// Inlines nodes whose elimination does not grow the network by more than
/// `threshold` literals (SIS `eliminate`). Returns eliminated node count.
pub fn eliminate(net: &mut Network, threshold: isize, opts: &OptOptions) -> usize {
    eliminate_with(net, threshold, opts, &mut PairMemo::default())
}

/// [`eliminate`] with the call's (user, victim) memo passed in, so tests
/// can read its counters or switch it off.
fn eliminate_with(
    net: &mut Network,
    threshold: isize,
    opts: &OptOptions,
    pairs: &mut PairMemo,
) -> usize {
    let mut span = tels_trace::span("logic", "eliminate");
    // A trial depends only on the victim's cover, its use list, the users'
    // covers and the literal limit, so its growth holds at any threshold
    // until one of those changes. The use lists are read at the start of
    // each sweep, at clock `read`. A current user stamped at or before a
    // trial's `read` already used the victim then and has not changed
    // since, so it was in the trial's list; when every current user is,
    // and the counts agree, the lists are equal. A trial that passes the
    // threshold builds the covers it commits.
    let mut memo = net.take_memo();
    let limit = opts.max_elim_literals;
    let mut removed = 0;
    loop {
        let users = users_of(net);
        let po = drives_output(net);
        let read = net.clock();
        memo.trials.resize(users.len(), ElimTrial::default());
        let mut progress = false;
        for victim in net.node_ids().collect::<Vec<_>>() {
            if net.is_input(victim) || po[victim.0 as usize] {
                continue;
            }
            let uses: Vec<NodeId> = users[victim.0 as usize]
                .iter()
                .copied()
                .filter(|&u| net.fanins(u).contains(&victim))
                .collect();
            if uses.is_empty() {
                continue;
            }
            let last = memo.trials[victim.index()];
            let unchanged = |n: &NodeId| net.stamp(*n) <= last.at;
            if last.uses == uses.len()
                && last.limit == limit
                && unchanged(&victim)
                && uses.iter().all(unchanged)
                && last.growth.is_none_or(|g| g > threshold)
            {
                continue;
            }
            // Covers are kept SCC-minimal, so renaming preserves the count.
            let victim_lits = net.sop(victim).num_literals();
            // Tentatively substitute into every user and measure, each over
            // the union of the user's and the victim's fanins.
            let mut growth = Some(-(victim_lits as isize));
            for &u in &uses {
                let space = space_of(net, &[u, victim], &[]);
                growth = growth
                    .zip(pairs.growth(net, u, victim, &space, limit))
                    .map(|(g, d)| g + d);
                if growth.is_none() {
                    break;
                }
            }
            memo.trials[victim.index()] = ElimTrial {
                at: read,
                uses: uses.len(),
                limit,
                growth,
            };
            if growth.is_none_or(|g| g > threshold) {
                continue;
            }
            let mut committed = true;
            for u in uses {
                let space = space_of(net, &[u, victim], &[]);
                let new = substituted(net, u, victim, &space);
                if set_local_sop(net, u, &space, &new).is_err() {
                    committed = false;
                    break;
                }
            }
            if committed {
                removed += 1;
                progress = true;
            }
        }
        if !progress {
            net.put_memo(memo);
            span.arg("pair_lookups", pairs.lookups as u64);
            span.arg("pair_trials", pairs.computed as u64);
            return removed;
        }
    }
}

/// `user`'s cover over `space` with `victim` substituted in.
fn substituted(net: &Network, user: NodeId, victim: NodeId, space: &[NodeId]) -> Sop {
    local_sop(net, user, space).substitute(var_in(space, victim), &local_sop(net, victim, space))
}

/// One [`eliminate`] call's (user, victim) trials, keyed by local shape:
/// a circuit repeats few shapes, so most trials are looked up, not run.
///
/// A key holds the user's and the victim's stored covers (as ids), the
/// rank of each stored fanin of both nodes in the trial's space (the
/// ascending union of the two fanin lists) and the victim's slot in the
/// user's fanin list. Those fix both covers over the space exactly, hence
/// the substituted cover and its literal count: a hit is what
/// recomputation gives. The literal limit is the call's.
#[derive(Default)]
struct PairMemo {
    /// Interned covers. A client writes them, so they keep std's keyed
    /// hasher.
    cover_ids: HashMap<Sop, u32>,
    /// Per node, the stamp its cover was interned at (0 for never) and the
    /// cover's id.
    node_covers: Vec<(u64, u32)>,
    /// Trial key → the user's literal change, or `None` past the limit.
    trials: FxHashMap<Box<[u32]>, Option<isize>>,
    /// The key being built.
    key: Vec<u32>,
    /// Trials asked for and trials computed.
    lookups: usize,
    computed: usize,
    /// Computes every trial (the reference the memo is tested against).
    #[cfg(test)]
    recompute: bool,
}

impl PairMemo {
    /// The id of `id`'s stored cover.
    fn cover_id(&mut self, net: &Network, id: NodeId) -> u32 {
        if self.node_covers.len() <= id.index() {
            self.node_covers.resize(net.node_ids().count(), (0, 0));
        }
        let (stamp, cover) = self.node_covers[id.index()];
        if stamp == net.stamp(id) {
            return cover;
        }
        let sop = net.sop(id);
        let cover = match self.cover_ids.get(sop) {
            Some(&cover) => cover,
            None => {
                let cover = self.cover_ids.len() as u32;
                self.cover_ids.insert(sop.clone(), cover);
                cover
            }
        };
        self.node_covers[id.index()] = (net.stamp(id), cover);
        cover
    }

    /// The literal change of substituting `victim` into `user` over
    /// `space`, or `None` if the user's new cover has more than `limit`
    /// literals.
    fn growth(
        &mut self,
        net: &Network,
        user: NodeId,
        victim: NodeId,
        space: &[NodeId],
        limit: usize,
    ) -> Option<isize> {
        self.lookups += 1;
        #[cfg(test)]
        if self.recompute {
            self.computed += 1;
            return trial_growth(net, user, victim, space, limit);
        }
        let (u, v) = (self.cover_id(net, user), self.cover_id(net, victim));
        let fanins = net.fanins(user);
        let slot = fanins
            .iter()
            .position(|&f| f == victim)
            .expect("the user reads the victim");
        let mut key = std::mem::take(&mut self.key);
        key.clear();
        key.extend([u, v, slot as u32, fanins.len() as u32]);
        key.extend(
            fanins
                .iter()
                .chain(net.fanins(victim))
                .map(|&f| var_in(space, f).0),
        );
        let growth = match self.trials.get(&key[..]) {
            Some(&growth) => growth,
            None => {
                self.computed += 1;
                let growth = trial_growth(net, user, victim, space, limit);
                self.trials.insert(key[..].into(), growth);
                growth
            }
        };
        self.key = key;
        growth
    }
}

/// [`PairMemo::growth`] computed.
fn trial_growth(
    net: &Network,
    user: NodeId,
    victim: NodeId,
    space: &[NodeId],
    limit: usize,
) -> Option<isize> {
    // Covers are kept SCC-minimal, so renaming preserves the count.
    let new = substituted(net, user, victim, space).num_literals();
    (new <= limit).then(|| new as isize - net.sop(user).num_literals() as isize)
}

/// Canonical key of an SOP for candidate deduplication.
fn canon_key(s: &Sop) -> Vec<Cube> {
    let mut cubes = s.cubes().to_vec();
    cubes.sort();
    cubes
}

/// The first literal of the divisor's first cube, used to pre-filter
/// candidate nodes: a cover with a nonzero quotient contains every literal
/// of the divisor, this one included.
fn filter_literal(d: &Sop) -> Option<(Var, bool)> {
    d.cubes().first().and_then(|c| c.literals().next())
}

/// Greedy kernel- and cube-extraction (SIS `fx`/`gkx`). Returns the number
/// of new divisor nodes created.
pub fn extract(net: &mut Network, opts: &OptOptions) -> usize {
    let _span = tels_trace::span("logic", "extract");
    let mut created = 0;
    for _round in 0..opts.max_extract_rounds {
        let logic_nodes: Vec<NodeId> = net.node_ids().filter(|&id| !net.is_input(id)).collect();
        // Literal (node, phase) → nodes whose cover contains it, ascending
        // (for candidate filtering), read off the local covers.
        let mut lit_index: FxHashMap<(NodeId, bool), Vec<NodeId>> = FxHashMap::default();
        for &id in &logic_nodes {
            let fanins = net.fanins(id);
            for c in net.sop(id).cubes() {
                for (v, phase) in c.literals() {
                    let entry = lit_index.entry((fanins[v.0 as usize], phase)).or_default();
                    if entry.last() != Some(&id) {
                        entry.push(id);
                    }
                }
            }
        }
        // Candidates and cuts live in the global space; a node's global
        // cover is built when its kernels are enumerated or it is divided.
        let mut globals: FxHashMap<NodeId, Sop> = FxHashMap::default();

        // Candidate divisors: kernels of each node, plus common cubes of
        // intra-node cube pairs. A BTreeMap keeps candidate evaluation order
        // deterministic across runs.
        let mut candidates: BTreeMap<Vec<Cube>, Sop> = BTreeMap::new();
        for &id in &logic_nodes {
            // Every cover is SCC-minimal, so renaming keeps its cube count.
            if net.sop(id).num_cubes() > opts.max_cubes_for_kernels {
                continue;
            }
            let g = globals.entry(id).or_insert_with(|| global_sop(net, id));
            for k in kernels(g, opts.max_kernels_per_node) {
                if k.num_cubes() >= 2 {
                    candidates.entry(canon_key(&k)).or_insert(k);
                }
            }
            // Intra-node cube intersections with ≥ 2 literals.
            let cubes = g.cubes();
            for i in 0..cubes.len().min(30) {
                for j in i + 1..cubes.len().min(30) {
                    let mut pos = cubes[i].positive_vars().clone();
                    pos.intersect_with(cubes[j].positive_vars());
                    let mut neg = cubes[i].negative_vars().clone();
                    neg.intersect_with(cubes[j].negative_vars());
                    if pos.len() + neg.len() >= 2 {
                        let c = Cube::from_literals(
                            pos.iter()
                                .map(|v| (v, true))
                                .chain(neg.iter().map(|v| (v, false))),
                        );
                        let s = Sop::from_cubes([c]);
                        candidates.entry(canon_key(&s)).or_insert(s);
                    }
                }
            }
            if candidates.len() > opts.max_candidates_per_round * 4 {
                break;
            }
        }

        // Evaluate candidates: literal savings over all divisible nodes.
        type Rewrite = (NodeId, Sop, Sop);
        let mut best: Option<(isize, Sop, Vec<Rewrite>)> = None;
        for (_, d) in candidates.into_iter().take(opts.max_candidates_per_round) {
            let d_lits = d.num_literals();
            let Some((v, phase)) = filter_literal(&d) else {
                continue;
            };
            let Some(nodes) = lit_index.get(&(NodeId(v.0), phase)) else {
                continue;
            };
            let mut value: isize = -(d_lits as isize) - 1;
            let mut rewrites: Vec<(NodeId, Sop, Sop)> = Vec::new();
            for &id in nodes {
                let g = globals.entry(id).or_insert_with(|| global_sop(net, id));
                let (q, r) = divide(g, &d);
                if q.is_zero() {
                    continue;
                }
                let new_lits = q.num_literals() + q.num_cubes() + r.num_literals();
                let saving = g.num_literals() as isize - new_lits as isize;
                if saving > 0 {
                    value += saving;
                    rewrites.push((id, q, r));
                }
            }
            if rewrites.is_empty() {
                continue;
            }
            if best.as_ref().is_none_or(|(bv, _, _)| value > *bv) {
                best = Some((value, d, rewrites));
            }
        }

        let Some((value, d, rewrites)) = best else {
            return created;
        };
        if value <= 0 {
            return created;
        }

        // Materialize the divisor as a new node and rewrite the users.
        let name = net.fresh_name("ext");
        let new_id = {
            let support = d.support();
            let fanins: Vec<NodeId> = support.iter().map(|v| NodeId(v.0)).collect();
            let mut map = vec![Var(0); (support.max_var().map_or(0, |v| v.0) + 1) as usize];
            for (i, v) in support.iter().enumerate() {
                map[v.0 as usize] = Var(i as u32);
            }
            net.add_node(name, fanins, d.remap(&map))
                .expect("fresh divisor node is valid")
        };
        let mut applied = false;
        for (id, q, r) in rewrites {
            let new_lit = Sop::literal(Var(new_id.0), true);
            let rebuilt = q.and(&new_lit).or(&r);
            if set_global_sop(net, id, &rebuilt).is_ok() {
                applied = true;
            }
        }
        if !applied {
            return created;
        }
        created += 1;
    }
    created
}

/// Structural hashing: merges logic nodes with identical fanins and covers
/// (and, transitively, cones that become identical after earlier merges).
/// Returns the number of nodes merged away.
///
/// Node functions are compared on their canonical form — the sorted cubes
/// over the ascending list of nodes the cover reads — so reordered fanin
/// lists still merge.
pub fn strash(net: &mut Network) -> usize {
    let _span = tels_trace::span("logic", "strash");
    let mut merged = 0;
    loop {
        let mut seen: HashMap<(Vec<Cube>, Vec<NodeId>), NodeId> = HashMap::new();
        let mut progress = false;
        let order = match net.topo_order() {
            Ok(o) => o,
            Err(_) => return merged, // cyclic networks are left untouched
        };
        // Fanout lists, maintained across merges within the round (a fresh
        // full-network scan per merge is quadratic on strash-heavy inputs).
        // Entries go stale when a user is rewired away; the containment
        // check below filters them out.
        let mut user_lists = users_of(net);
        for id in order {
            if net.is_input(id) {
                continue;
            }
            // The cover over its own support: equal keys mean equal
            // global-space covers.
            let support = support_nodes(net, id);
            let key = (canon_key(&local_sop(net, id, &support)), support);
            let keeper = match seen.entry(key) {
                Entry::Vacant(free) => {
                    free.insert(id);
                    continue;
                }
                Entry::Occupied(taken) => *taken.get(),
            };
            // Rewire every user of `id` to `keeper`, then re-point
            // any outputs. The duplicate becomes dead and is removed
            // by the caller's compact().
            let users: Vec<NodeId> = user_lists[id.0 as usize]
                .iter()
                .copied()
                .filter(|&u| net.fanins(u).contains(&id))
                .collect();
            let drives_po = net.outputs().iter().any(|&(_, n)| n == id);
            if users.is_empty() && !drives_po {
                // Already dead: nothing to rewire, and counting it
                // as a merge would loop forever.
                continue;
            }
            let mut ok = true;
            for u in users {
                let space = space_of(net, &[u], &[keeper]);
                let rebuilt = local_sop(net, u, &space).substitute(
                    var_in(&space, id),
                    &Sop::literal(var_in(&space, keeper), true),
                );
                if set_local_sop(net, u, &space, &rebuilt).is_err() {
                    ok = false;
                } else {
                    user_lists[keeper.0 as usize].push(u);
                }
            }
            if ok {
                let po_names: Vec<String> = net
                    .outputs()
                    .iter()
                    .filter(|(_, n)| *n == id)
                    .map(|(name, _)| name.clone())
                    .collect();
                for name in po_names {
                    net.set_output(&name, keeper).expect("existing output");
                }
                merged += 1;
                progress = true;
            }
        }
        if !progress {
            return merged;
        }
    }
}

/// Algebraic resubstitution: rewrites node covers in terms of existing
/// nodes when that saves literals. Returns the number of rewrites.
pub fn resubstitute(net: &mut Network) -> usize {
    let _span = tels_trace::span("logic", "resubstitute");
    let mut rewrites = 0;
    let logic_nodes: Vec<NodeId> = net.node_ids().filter(|&id| !net.is_input(id)).collect();
    // Literal (node, phase) → nodes whose cover contains it, each list
    // ascending by node id. A nonzero quotient f/d requires every literal
    // of every cube of d to appear somewhere in f (weak division contains
    // each divisor cube in some cover cube), so scanning the candidate list
    // of any one literal of d visits a superset of the pairs the all-pairs
    // loop would rewrite — picking the rarest literal just makes that
    // superset small.
    let mut lit_index: FxHashMap<(NodeId, bool), Vec<NodeId>> = FxHashMap::default();
    for &id in &logic_nodes {
        let fanins = net.fanins(id);
        let mut seen: Vec<(NodeId, bool)> = Vec::new();
        for c in net.sop(id).cubes() {
            for (v, phase) in c.literals() {
                let lit = (fanins[v.0 as usize], phase);
                if !seen.contains(&lit) {
                    seen.push(lit);
                    lit_index.entry(lit).or_default().push(id);
                }
            }
        }
    }
    // Support of each node's cover, refreshed after the node is rewritten.
    let mut supports: Vec<Option<Vec<NodeId>>> = vec![None; net.node_ids().count()];
    for &d in &logic_nodes {
        let d_support = support_nodes(net, d);
        let d_own = local_sop(net, d, &d_support);
        if d_own.num_cubes() < 1 || d_own.num_literals() < 2 {
            continue;
        }
        // The rarest literal of the divisor (first in ascending variable
        // order among ties): fewest covers to scan. A literal indexed
        // nowhere proves no cover can divide by d.
        let mut rarest: Option<((NodeId, bool), usize)> = None;
        'literals: for c in d_own.cubes() {
            for (v, phase) in c.literals() {
                let lit = (d_support[v.0 as usize], phase);
                match lit_index.get(&lit) {
                    Some(list) => {
                        if rarest.is_none_or(|(_, len)| list.len() < len) {
                            rarest = Some((lit, list.len()));
                        }
                    }
                    None => {
                        rarest = None;
                        break 'literals;
                    }
                }
            }
        }
        let Some((lit, _)) = rarest else {
            continue;
        };
        // The loop below only adds to the list of the literal d, which d
        // does not read, so the chosen list can be borrowed out meanwhile.
        let candidates = lit_index.remove(&lit).expect("indexed literal");
        for &f in &candidates {
            if f == d {
                continue;
            }
            let f_support = supports[f.index()].get_or_insert_with(|| support_nodes(net, f));
            // Skip if f already uses d, or if f does not read every node d
            // reads — then no divisor cube fits in a cover cube and the
            // quotient is zero.
            if f_support.binary_search(&d).is_ok()
                || !d_support.iter().all(|n| f_support.binary_search(n).is_ok())
            {
                continue;
            }
            let mut space = f_support.clone();
            space.insert(space.binary_search(&d).unwrap_err(), d);
            let f_local = local_sop(net, f, &space);
            let (q, r) = divide(&f_local, &local_sop(net, d, &space));
            if q.is_zero() {
                continue;
            }
            let new_lits = q.num_literals() + q.num_cubes() + r.num_literals();
            if new_lits >= f_local.num_literals() {
                continue;
            }
            let rebuilt = q.and(&Sop::literal(var_in(&space, d), true)).or(&r);
            // set_function rejects cycles, so an invalid d (in f's fanout
            // cone) is skipped automatically.
            if set_local_sop(net, f, &space, &rebuilt).is_ok() {
                rewrites += 1;
                supports[f.index()] = None;
                // The rewrite introduced the literal d into f's cover; keep
                // the index an over-approximation (sorted, deduplicated) so
                // later divisors containing that literal still reach f.
                // Literals the rewrite removed stay indexed — stale entries
                // only cost a zero-quotient division, never a missed one.
                let list = lit_index.entry((d, true)).or_default();
                if let Err(pos) = list.binary_search(&f) {
                    list.insert(pos, f);
                }
            }
        }
        lit_index.insert(lit, candidates);
    }
    rewrites
}

/// The SIS `script.algebraic` equivalent: sweep, simplify, eliminate,
/// kernel/cube extraction, resubstitution, final cleanup.
///
/// The result is an algebraically-factored network — the required input form
/// for TELS synthesis (§V).
pub fn script_algebraic(net: &Network) -> Network {
    script_algebraic_with(net, &OptOptions::default())
}

/// [`script_algebraic`] with explicit tuning options.
///
/// The pass sequence mirrors SIS's `script.algebraic`:
/// `sweep; eliminate -1; simplify; eliminate -1; sweep; eliminate 5;
/// simplify; resub; fx; resub; sweep; eliminate -1; sweep; full_simplify`.
pub fn script_algebraic_with(net: &Network, opts: &OptOptions) -> Network {
    let _span = tels_trace::span("logic", "script_algebraic");
    let mut n = net.compact();
    run_passes(&mut n, &ALGEBRAIC, opts);
    n.compact()
}

/// One factoring pass, as the scripts sequence them.
#[derive(Debug, Clone, Copy)]
enum Pass {
    Sweep,
    Eliminate(isize),
    Simplify,
    Resubstitute,
    Extract,
    Strash,
}

/// [`script_algebraic_with`]'s passes, between its two compactions.
const ALGEBRAIC: [Pass; 15] = [
    Pass::Sweep,
    Pass::Eliminate(-1),
    Pass::Simplify,
    Pass::Eliminate(-1),
    Pass::Sweep,
    Pass::Eliminate(5),
    Pass::Simplify,
    Pass::Resubstitute,
    Pass::Extract,
    Pass::Resubstitute,
    Pass::Strash,
    Pass::Sweep,
    Pass::Eliminate(-1),
    Pass::Sweep,
    Pass::Simplify,
];

/// [`script_boolean_with`]'s passes after the algebraic script.
const BOOLEAN: [Pass; 5] = [
    Pass::Eliminate(10),
    Pass::Simplify,
    Pass::Eliminate(5),
    Pass::Simplify,
    Pass::Sweep,
];

fn run_passes(net: &mut Network, passes: &[Pass], opts: &OptOptions) {
    for pass in passes {
        match *pass {
            Pass::Sweep => {
                sweep(net);
            }
            Pass::Eliminate(threshold) => {
                eliminate(net, threshold, opts);
            }
            Pass::Simplify => simplify(net),
            Pass::Resubstitute => {
                resubstitute(net);
            }
            Pass::Extract => {
                extract(net, opts);
            }
            Pass::Strash => {
                strash(net);
            }
        }
    }
}

/// The SIS `script.boolean` equivalent: the algebraic script plus an extra
/// eliminate/simplify round with a positive growth allowance.
///
/// Used to prepare the one-to-one mapping baseline network (§VI-A).
pub fn script_boolean(net: &Network) -> Network {
    script_boolean_with(net, &OptOptions::default())
}

/// [`script_boolean`] with explicit tuning options.
///
/// The final eliminate/simplify rounds coarsen node granularity the way
/// SIS's `full_simplify` does: node covers grow back to multi-fanin
/// functions, leaving the fanin restriction to mapping-time decomposition
/// (which is what makes the one-to-one gate count sensitive to the fanin
/// restriction, Fig. 10).
pub fn script_boolean_with(net: &Network, opts: &OptOptions) -> Network {
    let _span = tels_trace::span("logic", "script_boolean");
    let mut n = script_algebraic_with(net, opts);
    run_passes(&mut n, &BOOLEAN, opts);
    n.compact()
}

/// Decomposes a network into simple AND/OR/NOT gates with at most
/// `max_fanin` inputs per gate (SIS technology decomposition).
///
/// Inverters are shared per signal. This is the gate-level network whose
/// gates the one-to-one baseline replaces with threshold gates.
///
/// # Panics
///
/// Panics if `max_fanin < 2`.
pub fn decompose(net: &Network, max_fanin: usize) -> Network {
    let _span = tels_trace::span("logic", "decompose");
    assert!(max_fanin >= 2, "decomposition needs fanin of at least 2");
    let mut out = Network::new(net.model().to_string());
    let mut map: HashMap<NodeId, NodeId> = HashMap::new();
    let mut inverters: HashMap<NodeId, NodeId> = HashMap::new();
    for id in net.inputs() {
        let new = out
            .add_input(net.name(id).to_string())
            .expect("unique names");
        map.insert(id, new);
    }
    let order = net.topo_order().expect("acyclic input network");

    fn tree(
        out: &mut Network,
        mut signals: Vec<NodeId>,
        or: bool,
        max_fanin: usize,
        name_hint: Option<&str>,
    ) -> NodeId {
        debug_assert!(!signals.is_empty());
        while signals.len() > 1 || name_hint.is_some() {
            let take = signals.len().min(max_fanin);
            let group: Vec<NodeId> = signals.drain(..take).collect();
            let sop = if or {
                Sop::from_cubes(
                    (0..group.len()).map(|i| Cube::from_literals([(Var(i as u32), true)])),
                )
            } else {
                Sop::from_cubes([Cube::from_literals(
                    (0..group.len()).map(|i| (Var(i as u32), true)),
                )])
            };
            let last = signals.is_empty();
            let name = if last {
                match name_hint {
                    Some(n) => n.to_string(),
                    None => out.fresh_name(if or { "or" } else { "and" }),
                }
            } else {
                out.fresh_name(if or { "or" } else { "and" })
            };
            let gate = out.add_node(name, group, sop).expect("fresh gate");
            if last {
                return gate;
            }
            signals.push(gate);
        }
        signals[0]
    }

    for id in order {
        let NodeKind::Logic { fanins, sop } = net.kind(id) else {
            continue;
        };
        let name = net.name(id).to_string();
        // Constant nodes become constant gates directly.
        if sop.is_zero() || sop.is_one() {
            let gate = out
                .add_node(name, Vec::new(), sop.clone())
                .expect("constant gate");
            map.insert(id, gate);
            continue;
        }
        // Single-literal nodes become a named buffer/inverter directly
        // (avoiding a shared inverter plus a redundant buffer).
        if sop.num_cubes() == 1 && sop.cubes()[0].literal_count() == 1 {
            let (v, phase) = sop.cubes()[0].literals().next().expect("one literal");
            let src = map[&fanins[v.0 as usize]];
            let gate = out
                .add_node(name, vec![src], Sop::literal(Var(0), phase))
                .expect("fresh buffer/inverter");
            if !phase {
                inverters.entry(src).or_insert(gate);
            }
            map.insert(id, gate);
            continue;
        }
        // Literal signals (with shared inverters).
        let mut literal_signal = |out: &mut Network, v: Var, phase: bool| -> NodeId {
            let src = map[&fanins[v.0 as usize]];
            if phase {
                src
            } else {
                *inverters.entry(src).or_insert_with(|| {
                    let n = out.fresh_name("inv");
                    out.add_node(n, vec![src], Sop::literal(Var(0), false))
                        .expect("fresh inverter")
                })
            }
        };
        let mut cube_signals: Vec<NodeId> = Vec::with_capacity(sop.num_cubes());
        let single_cube = sop.num_cubes() == 1;
        for cube in sop.cubes() {
            // Distinct literals can resolve to the same signal when a fanin
            // is itself the shared inverter of another fanin (x̄ = y); AND is
            // idempotent, so deduplicate rather than emit a duplicate fanin.
            let mut lits: Vec<NodeId> = Vec::new();
            for (v, phase) in cube.literals() {
                let s = literal_signal(&mut out, v, phase);
                if !lits.contains(&s) {
                    lits.push(s);
                }
            }
            if lits.len() == 1 {
                // OR is idempotent too: cubes collapsing to one signal may
                // repeat a signal another cube already produced.
                if !cube_signals.contains(&lits[0]) {
                    cube_signals.push(lits[0]);
                }
            } else {
                let hint = if single_cube {
                    Some(name.as_str())
                } else {
                    None
                };
                cube_signals.push(tree(&mut out, lits, false, max_fanin, hint));
            }
        }
        let root = if cube_signals.len() == 1 {
            let sig = cube_signals[0];
            if out.find(&name).is_none() {
                // The node reduced to a wire (e.g. a buffer of a mapped
                // signal); emit a named buffer so outputs keep their names.
                out.add_node(name.clone(), vec![sig], Sop::literal(Var(0), true))
                    .expect("fresh buffer")
            } else {
                sig
            }
        } else {
            tree(&mut out, cube_signals, true, max_fanin, Some(&name))
        };
        map.insert(id, root);
    }
    for (po, id) in net.outputs() {
        let target = map[id];
        out.add_output(po.clone(), target).expect("unique outputs");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{check_equivalence, EquivOptions};

    fn sop(cubes: &[&[(u32, bool)]]) -> Sop {
        Sop::from_cubes(
            cubes
                .iter()
                .map(|c| Cube::from_literals(c.iter().map(|&(v, p)| (Var(v), p)))),
        )
    }

    #[test]
    fn decompose_dedups_inverter_aliased_and_literals() {
        // g = ā; f = ā·g. Both literals of f's cube resolve to the same
        // shared-inverter signal, which used to build an AND tree with a
        // duplicate fanin and panic (found by tels-fuzz).
        let mut net = Network::new("alias");
        let a = net.add_input("a").unwrap();
        let g = net.add_node("g", vec![a], sop(&[&[(0, false)]])).unwrap();
        let f = net
            .add_node("f", vec![a, g], sop(&[&[(0, false), (1, true)]]))
            .unwrap();
        net.add_output("f", f).unwrap();
        net.add_output("g", g).unwrap();
        let d = decompose(&net, 2);
        let r = check_equivalence(&net, &d, &EquivOptions::default()).unwrap();
        assert!(r.is_equivalent());
    }

    #[test]
    fn decompose_dedups_inverter_aliased_or_cubes() {
        // f = ā ∨ g with g = ā: both cubes resolve to the same signal.
        let mut net = Network::new("alias_or");
        let a = net.add_input("a").unwrap();
        let g = net.add_node("g", vec![a], sop(&[&[(0, false)]])).unwrap();
        let f = net
            .add_node("f", vec![a, g], sop(&[&[(0, false)], &[(1, true)]]))
            .unwrap();
        net.add_output("f", f).unwrap();
        let d = decompose(&net, 2);
        let r = check_equivalence(&net, &d, &EquivOptions::default()).unwrap();
        assert!(r.is_equivalent());
    }

    /// f = a·c ∨ a·d ∨ b·c ∨ b·d ∨ e and g = a·c ∨ a·d (shared kernels).
    fn extraction_net() -> Network {
        let mut net = Network::new("x");
        let ids: Vec<NodeId> = ["a", "b", "c", "d", "e"]
            .iter()
            .map(|n| net.add_input(*n).unwrap())
            .collect();
        let f = net
            .add_node(
                "f",
                ids.clone(),
                sop(&[
                    &[(0, true), (2, true)],
                    &[(0, true), (3, true)],
                    &[(1, true), (2, true)],
                    &[(1, true), (3, true)],
                    &[(4, true)],
                ]),
            )
            .unwrap();
        let g = net
            .add_node(
                "g",
                vec![ids[0], ids[2], ids[3]],
                sop(&[&[(0, true), (1, true)], &[(0, true), (2, true)]]),
            )
            .unwrap();
        net.add_output("f", f).unwrap();
        net.add_output("g", g).unwrap();
        net
    }

    fn assert_equiv(a: &Network, b: &Network) {
        let r = check_equivalence(a, b, &EquivOptions::default()).unwrap();
        assert!(r.is_equivalent(), "networks differ: {r:?}");
    }

    #[test]
    fn global_sop_round_trip() {
        let net = extraction_net();
        let f = net.find("f").unwrap();
        let g = global_sop(&net, f);
        let mut net2 = net.clone();
        set_global_sop(&mut net2, f, &g).unwrap();
        assert_equiv(&net, &net2);
    }

    #[test]
    fn sweep_removes_buffers() {
        let mut net = Network::new("s");
        let a = net.add_input("a").unwrap();
        let b = net.add_input("b").unwrap();
        let buf = net
            .add_node("buf", vec![a], Sop::literal(Var(0), true))
            .unwrap();
        let f = net
            .add_node("f", vec![buf, b], sop(&[&[(0, true), (1, true)]]))
            .unwrap();
        net.add_output("f", f).unwrap();
        let before = net.clone();
        sweep(&mut net);
        let swept = net.compact();
        assert_eq!(swept.num_logic_nodes(), 1);
        assert_equiv(&before, &swept);
    }

    #[test]
    fn sweep_propagates_constants() {
        let mut net = Network::new("s");
        let a = net.add_input("a").unwrap();
        let one = net.add_node("one", Vec::new(), Sop::one()).unwrap();
        let f = net
            .add_node("f", vec![a, one], sop(&[&[(0, true), (1, true)]]))
            .unwrap();
        net.add_output("f", f).unwrap();
        sweep(&mut net);
        let c = net.compact();
        assert_eq!(c.num_logic_nodes(), 1);
        assert_eq!(c.eval(&[true]).unwrap(), vec![true]);
        assert_eq!(c.eval(&[false]).unwrap(), vec![false]);
    }

    #[test]
    fn eliminate_inlines_cheap_nodes() {
        let mut net = Network::new("e");
        let a = net.add_input("a").unwrap();
        let b = net.add_input("b").unwrap();
        let c = net.add_input("c").unwrap();
        let t = net
            .add_node("t", vec![a, b], sop(&[&[(0, true), (1, true)]]))
            .unwrap();
        let f = net
            .add_node("f", vec![t, c], sop(&[&[(0, true)], &[(1, true)]]))
            .unwrap();
        net.add_output("f", f).unwrap();
        let before = net.clone();
        let n = eliminate(&mut net, 0, &OptOptions::default());
        assert_eq!(n, 1);
        let after = net.compact();
        assert_eq!(after.num_logic_nodes(), 1);
        assert_equiv(&before, &after);
    }

    /// `t = a·b` feeding `f = t·c` and `g = t·d` (both outputs), plus an
    /// unrelated output `h = x`. Eliminating `t` grows the network by
    /// exactly 0 literals (−2 for `t`, +1 in each user).
    fn elim_net() -> (Network, [NodeId; 4]) {
        let mut net = Network::new("memo");
        let ids: Vec<NodeId> = ["a", "b", "c", "d", "x"]
            .iter()
            .map(|n| net.add_input(*n).unwrap())
            .collect();
        let (a, b, c, d, x) = (ids[0], ids[1], ids[2], ids[3], ids[4]);
        let and2 = || sop(&[&[(0, true), (1, true)]]);
        let t = net.add_node("t", vec![a, b], and2()).unwrap();
        let f = net.add_node("f", vec![t, c], and2()).unwrap();
        let g = net.add_node("g", vec![t, d], and2()).unwrap();
        let h = net.add_node("h", vec![x], sop(&[&[(0, true)]])).unwrap();
        for (name, id) in [("f", f), ("g", g), ("h", h)] {
            net.add_output(name, id).unwrap();
        }
        (net, [t, f, g, h])
    }

    /// The memo's last `eliminate` trial of `victim`.
    fn trial(net: &mut Network, victim: NodeId) -> ElimTrial {
        let memo = net.take_memo();
        let trial = memo.trials[victim.index()];
        net.put_memo(memo);
        trial
    }

    /// `eliminate` on a clone, checked to preserve the function.
    fn eliminated(net: &Network, threshold: isize, limit: usize) -> (Network, usize) {
        let mut out = net.clone();
        let opts = OptOptions {
            max_elim_literals: limit,
            ..OptOptions::default()
        };
        let n = eliminate(&mut out, threshold, &opts);
        assert_equiv(net, &out);
        (out, n)
    }

    #[test]
    fn eliminate_reuses_a_trial_at_a_later_threshold() {
        let (mut net, [t, _, _, h]) = elim_net();
        let limit = OptOptions::default().max_elim_literals;
        assert_eq!(eliminate(&mut net, -1, &OptOptions::default()), 0);
        let first = trial(&mut net, t);
        assert_eq!((first.uses, first.growth), (2, Some(0)));
        // An unrelated write moves the clock; the trial is reused, not re-run.
        let x = net.fanins(h)[0];
        net.set_function(h, vec![x], Sop::literal(Var(0), false))
            .unwrap();
        assert_eq!(eliminated(&net, -1, limit).1, 0);
        assert_eq!(eliminate(&mut net, -1, &OptOptions::default()), 0);
        assert_eq!(trial(&mut net, t).at, first.at);
        // The stored growth, not a stored verdict: 0 passes threshold 5.
        let (after, n) = eliminated(&net, 5, limit);
        assert_eq!(n, 1);
        assert_eq!(after.compact().num_logic_nodes(), 3);
    }

    #[test]
    fn eliminate_retries_when_users_change() {
        let limit = OptOptions::default().max_elim_literals;
        let (mut net, [t, _, g, h]) = elim_net();
        assert_eq!(eliminate(&mut net, -1, &OptOptions::default()), 0);
        let (a, b, c) = (
            net.find("a").unwrap(),
            net.find("b").unwrap(),
            net.find("c").unwrap(),
        );

        // A user lost: g stops reading t, and t's growth drops to −1.
        let mut lost = net.clone();
        let d = lost.find("d").unwrap();
        lost.set_function(g, vec![d], Sop::literal(Var(0), true))
            .unwrap();
        assert_eq!(eliminated(&lost, -1, limit).1, 1);

        // A user gained: h = t ∨ a·b·c collapses to a·b, growth −2.
        let mut gained = net.clone();
        gained
            .set_function(
                h,
                vec![t, a, b, c],
                sop(&[&[(0, true)], &[(1, true), (2, true), (3, true)]]),
            )
            .unwrap();
        assert_eq!(eliminated(&gained, -1, limit).1, 1);

        // A user rewritten in place, same use count: g = t ∨ a·b·c.
        let mut rewritten = net.clone();
        rewritten
            .set_function(
                g,
                vec![t, a, b, c],
                sop(&[&[(0, true)], &[(1, true), (2, true), (3, true)]]),
            )
            .unwrap();
        assert_eq!(eliminated(&rewritten, -1, limit).1, 1);

        // The victim rewritten: t = a gives growth −1 (−1, +0, +0).
        let mut victim = net.clone();
        victim
            .set_function(t, vec![a], Sop::literal(Var(0), true))
            .unwrap();
        assert_eq!(eliminated(&victim, -1, limit).1, 1);
    }

    #[test]
    fn eliminate_memo_counts_from_the_sweeps_use_lists() {
        // Within one sweep, w (ranked after v but numbered before it) is
        // eliminated into c, so c reads v from then on, but not in the use
        // lists the sweep read. v's trial then covers {w, a, b}: growth +1,
        // rejected. Next x = 0 is eliminated into a, which stops reading v.
        // The next sweep sees {w, b, c}: the same count, and c unchanged
        // since v's trial — but not since the use lists were read. The
        // trial must re-run: with c = v·y ∨ p·q·y the growth is −2.
        let mut net = Network::new("gain");
        let ids: Vec<NodeId> = ["p", "q", "y", "y2"]
            .iter()
            .map(|n| net.add_input(*n).unwrap())
            .collect();
        let (p, q, y, y2) = (ids[0], ids[1], ids[2], ids[3]);
        let and2 = || sop(&[&[(0, true), (1, true)]]);
        let w = net.add_node("w", vec![y], sop(&[&[(0, true)]])).unwrap();
        let v = net.add_node("v", vec![p, q], and2()).unwrap();
        net.set_function(w, vec![v, y], and2()).unwrap();
        let x = net.add_node("x", Vec::new(), Sop::zero()).unwrap();
        let a = net
            .add_node(
                "a",
                vec![v, x, y],
                sop(&[&[(0, true), (1, true)], &[(2, true)]]),
            )
            .unwrap();
        let b = net.add_node("b", vec![v, y2], and2()).unwrap();
        let c = net
            .add_node(
                "c",
                vec![w, p, q, y],
                sop(&[&[(0, true)], &[(1, true), (2, true), (3, true)]]),
            )
            .unwrap();
        for (name, id) in [("a", a), ("b", b), ("c", c)] {
            net.add_output(name, id).unwrap();
        }
        let (after, n) = eliminated(&net, -1, OptOptions::default().max_elim_literals);
        assert_eq!(n, 3, "w, x and then v are eliminated");
        assert!(!after.fanins(b).contains(&v));
    }

    #[test]
    fn eliminate_retries_under_a_new_literal_limit() {
        // With a 2-literal limit, substituting t into f (a·b·c) is over it.
        let (mut net, [t, ..]) = elim_net();
        let tight = OptOptions {
            max_elim_literals: 2,
            ..OptOptions::default()
        };
        assert_eq!(eliminate(&mut net, 5, &tight), 0);
        assert_eq!(trial(&mut net, t).growth, None);
        assert_eq!(eliminated(&net, 5, 3).1, 1);
    }

    #[test]
    fn simplify_skips_fixpoints_and_leaves_stamps_alone() {
        // f = a ∨ a·b minimizes to a (and drops b); g = a·b is minimal.
        let mut net = Network::new("s");
        let a = net.add_input("a").unwrap();
        let b = net.add_input("b").unwrap();
        let f = net
            .add_node(
                "f",
                vec![a, b],
                sop(&[&[(0, true)], &[(0, true), (1, true)]]),
            )
            .unwrap();
        let g = net
            .add_node("g", vec![b, a], sop(&[&[(0, true), (1, true)]]))
            .unwrap();
        net.add_output("f", f).unwrap();
        net.add_output("g", g).unwrap();
        let before = net.clone();
        let stamp_g = net.stamp(g);
        simplify(&mut net);
        assert_equiv(&before, &net);
        // f was rewritten; g's fanins were sorted (a write, as before).
        assert_eq!(net.fanins(f), &[a]);
        assert_eq!(net.fanins(g), &[a, b]);
        assert!(net.stamp(g) > stamp_g);
        // Both are now fixpoints: a second call writes nothing.
        let clock = net.clock();
        simplify(&mut net);
        assert_eq!(net.clock(), clock);
        let memo = net.take_memo();
        assert_eq!(memo.simplified[f.index()], net.stamp(f));
        assert_eq!(memo.simplified[g.index()], net.stamp(g));
    }

    /// Rebuilds a `tels-circuits` network as this crate's [`Network`],
    /// node for node. The dev-dependency links its own build of
    /// `tels-logic`, whose types differ from this crate's, so the copy
    /// goes through inherent methods only.
    macro_rules! rebuild {
        ($src:expr) => {{
            let src = &$src;
            let mut net = Network::new(src.model());
            for id in src.node_ids() {
                let name = src.name(id).to_string();
                if src.is_input(id) {
                    net.add_input(name).unwrap();
                    continue;
                }
                let fanins = src.fanins(id).iter().map(|f| NodeId(f.index() as u32));
                let cubes =
                    src.sop(id).cubes().iter().map(|c| {
                        Cube::from_literals(c.literals().map(|(v, phase)| (Var(v.0), phase)))
                    });
                net.add_node(name, fanins.collect(), Sop::from_cubes(cubes))
                    .unwrap();
            }
            for (name, id) in src.outputs() {
                net.add_output(name.clone(), NodeId(id.index() as u32))
                    .unwrap();
            }
            net
        }};
    }

    fn paper_suite() -> Vec<(String, Network)> {
        tels_circuits::paper_suite()
            .into_iter()
            .map(|b| (b.name.to_string(), rebuild!(b.network)))
            .collect()
    }

    /// The random networks `tests/golden_factored.rs` pins: `wide_psi9`'s
    /// generator settings (20% negation), or with `negation_pct` changed.
    fn random_networks(tag: &str, negation_pct: u32) -> Vec<(String, Network)> {
        use tels_circuits::{random_network, RandomNetOptions};
        let options = RandomNetOptions {
            inputs: 24,
            outputs: 12,
            nodes: 200,
            max_fanin: 6,
            max_cubes: 6,
            negation_pct,
            ..RandomNetOptions::default()
        };
        (0..10u64)
            .map(|i| {
                let name = format!("{tag}_{i}");
                let net = random_network(&name, 0x5EED_0000 + i, &options);
                (name, rebuild!(net))
            })
            .collect()
    }

    /// Runs `passes` on a copy of `net`, and at each split
    /// before an `eliminate` or `simplify` call with memo state to read,
    /// finishes the script on a clone that keeps the memo and on one whose
    /// memo is cleared. Returns the full run's bytes; panics where a pair
    /// of finished copies differs.
    fn finish_from_every_split(name: &str, net: &Network, passes: &[Pass]) -> String {
        let opts = OptOptions::default();
        let finish = |mut n: Network, split: usize| {
            run_passes(&mut n, &passes[split..], &opts);
            crate::blif::write(&n.compact())
        };
        let reads_memo = |pass: &Pass| matches!(pass, Pass::Eliminate(_) | Pass::Simplify);
        let mut n = net.clone();
        for split in 0..passes.len() {
            if reads_memo(&passes[split]) && passes[..split].iter().any(reads_memo) {
                let mut cleared = n.clone();
                cleared.clear_memo();
                assert_eq!(
                    finish(n.clone(), split),
                    finish(cleared, split),
                    "{name}: stale memo changed the bytes (split at {split})"
                );
            }
            run_passes(&mut n, &passes[split..=split], &opts);
        }
        crate::blif::write(&n.compact())
    }

    /// Whatever state the passes left behind partway through a script,
    /// finishing with it gives the bytes a fresh start gives.
    fn assert_stale_memos_harmless(nets: Vec<(String, Network)>) {
        for (name, net) in nets {
            let algebraic = script_algebraic(&net);
            let bytes = finish_from_every_split(&name, &net.compact(), &ALGEBRAIC);
            assert_eq!(bytes, crate::blif::write(&algebraic), "{name}");
            let bytes = finish_from_every_split(&name, &algebraic, &BOOLEAN);
            assert_eq!(bytes, crate::blif::write(&script_boolean(&net)), "{name}");
        }
    }

    #[test]
    fn stale_memos_harmless_on_the_paper_suite() {
        assert_stale_memos_harmless(paper_suite());
    }

    #[test]
    fn stale_memos_harmless_on_wide_random_networks() {
        assert_stale_memos_harmless(random_networks("wide", 20));
    }

    #[test]
    fn stale_memos_harmless_on_negated_random_networks() {
        assert_stale_memos_harmless(random_networks("neg50", 50));
    }

    /// `net` with `pad` dead logic nodes ahead of its logic, so live ids
    /// pass 128 when `pad` does, and with every logic node's fanin list
    /// reversed (its cover's columns permuted to keep the function).
    fn renumbered(net: &Network, pad: usize) -> Network {
        let mut out = Network::new(net.model());
        let mut ids = vec![NodeId(0); net.node_ids().count()];
        let inputs = net.inputs();
        for &pi in &inputs {
            ids[pi.index()] = out.add_input(net.name(pi)).unwrap();
        }
        for i in 0..pad {
            let a = ids[inputs[i % inputs.len()].index()];
            out.add_node(format!("dead{i}"), vec![a], sop(&[&[(0, false)]]))
                .unwrap();
        }
        // Placeholders first, so the logic keeps its relative order.
        let logic: Vec<NodeId> = net.node_ids().filter(|&id| !net.is_input(id)).collect();
        for &id in &logic {
            ids[id.index()] = out.add_node(net.name(id), vec![], Sop::zero()).unwrap();
        }
        for &id in &logic {
            let fanins: Vec<NodeId> = net
                .fanins(id)
                .iter()
                .rev()
                .map(|f| ids[f.index()])
                .collect();
            let n = fanins.len() as u32;
            let map: Vec<Var> = (0..n).map(|i| Var(n - 1 - i)).collect();
            out.set_function(ids[id.index()], fanins, net.sop(id).remap(&map))
                .unwrap();
        }
        for (name, id) in net.outputs() {
            out.add_output(name.clone(), ids[id.index()]).unwrap();
        }
        out
    }

    /// Runs the algebraic and then the Boolean script's passes on each
    /// network, and every `eliminate` twice on copies: with the pair memo
    /// and recomputing every trial. Both must write the same network.
    /// Returns the memo's lookups and computed trials.
    fn assert_pair_memo_exact(nets: Vec<(String, Network)>) -> (usize, usize) {
        let opts = OptOptions::default();
        let (mut lookups, mut computed) = (0, 0);
        for (name, net) in nets {
            let mut n = net;
            for (script, passes) in [("algebraic", &ALGEBRAIC[..]), ("boolean", &BOOLEAN[..])] {
                for (i, pass) in passes.iter().enumerate() {
                    let Pass::Eliminate(threshold) = *pass else {
                        run_passes(&mut n, &[*pass], &opts);
                        continue;
                    };
                    let mut reference = n.clone();
                    let mut recompute = PairMemo {
                        recompute: true,
                        ..PairMemo::default()
                    };
                    let want = eliminate_with(&mut reference, threshold, &opts, &mut recompute);
                    let mut pairs = PairMemo::default();
                    let got = eliminate_with(&mut n, threshold, &opts, &mut pairs);
                    assert_eq!(got, want, "{name}: {script} pass {i}");
                    assert_eq!(
                        crate::blif::write(&n),
                        crate::blif::write(&reference),
                        "{name}: {script} pass {i}"
                    );
                    assert_eq!(pairs.lookups, recompute.lookups, "{name}");
                    lookups += pairs.lookups;
                    computed += pairs.computed;
                }
                n = n.compact();
            }
        }
        (lookups, computed)
    }

    #[test]
    fn pair_memo_exact_on_the_paper_suite() {
        let (lookups, computed) = assert_pair_memo_exact(paper_suite());
        assert!(
            computed < lookups,
            "{computed} of {lookups} trials computed"
        );
    }

    #[test]
    fn pair_memo_exact_on_wide_random_networks() {
        assert_pair_memo_exact(random_networks("wide", 20));
    }

    #[test]
    fn pair_memo_exact_on_renumbered_networks() {
        let nets = paper_suite()
            .into_iter()
            .chain(random_networks("wide", 20).into_iter().take(3))
            .map(|(name, net)| (name, renumbered(&net, 130)))
            .collect();
        assert_pair_memo_exact(nets);
    }

    #[test]
    fn pair_memo_tells_victim_slots_apart() {
        // t = p·q feeds u1 = t·x̄ (fanins [t, x]) and u2 = y·t̄ (fanins
        // [y, t]). Both users' covers are x0·x̄1, and their fanins rank
        // [3, 2] in their spaces ({p, q, x, t} and {p, q, t, y}), t's
        // [0, 1]; only t's slot differs. Substituting grows u1 by 1 (p·q·x̄)
        // and u2 by 2 (y·p̄ ∨ y·q̄): growth −2 + 1 + 2 = +1, over threshold 0.
        // A key without the slot would reuse u1's +1 for u2 and eliminate.
        let mut net = Network::new("slots");
        let p = net.add_input("p").unwrap();
        let q = net.add_input("q").unwrap();
        let x = net.add_input("x").unwrap();
        let t = net
            .add_node("t", vec![p, q], sop(&[&[(0, true), (1, true)]]))
            .unwrap();
        let y = net.add_input("y").unwrap();
        let shape = || sop(&[&[(0, true), (1, false)]]);
        let u1 = net.add_node("u1", vec![t, x], shape()).unwrap();
        let u2 = net.add_node("u2", vec![y, t], shape()).unwrap();
        net.add_output("u1", u1).unwrap();
        net.add_output("u2", u2).unwrap();
        let mut pairs = PairMemo::default();
        let before = net.clone();
        assert_eq!(
            eliminate_with(&mut net, 0, &OptOptions::default(), &mut pairs),
            0
        );
        assert_eq!(trial(&mut net, t).growth, Some(1));
        assert_eq!((pairs.lookups, pairs.computed), (2, 2));
        // At threshold 1 it is eliminated, and the function holds.
        let (after, n) = eliminated(&before, 1, OptOptions::default().max_elim_literals);
        assert_eq!(n, 1);
        assert_eq!(after.compact().num_literals(), 7);
    }

    #[test]
    fn pair_memo_tells_victim_fanin_orders_apart() {
        // t1 = p1·x̄1 over [p1, x1] and t2 = x2·p̄2 over [x2, p2]: the same
        // cover, x0·x̄1. Each feeds u = t·x over [t, x], whose fanins rank
        // [2, 1] in both spaces ({p, x, t}); only the victims' fanin ranks
        // differ ([0, 1] and [1, 0]). u1 = p1·x̄1·x1 vanishes (growth
        // −2 − 2 = −4), u2 = x2·p̄2 keeps 2 literals (growth −2).
        let mut net = Network::new("orders");
        let p1 = net.add_input("p1").unwrap();
        let x1 = net.add_input("x1").unwrap();
        let p2 = net.add_input("p2").unwrap();
        let x2 = net.add_input("x2").unwrap();
        let victim = || sop(&[&[(0, true), (1, false)]]);
        let and2 = || sop(&[&[(0, true), (1, true)]]);
        let t1 = net.add_node("t1", vec![p1, x1], victim()).unwrap();
        let t2 = net.add_node("t2", vec![x2, p2], victim()).unwrap();
        let u1 = net.add_node("u1", vec![t1, x1], and2()).unwrap();
        let u2 = net.add_node("u2", vec![t2, x2], and2()).unwrap();
        net.add_output("u1", u1).unwrap();
        net.add_output("u2", u2).unwrap();
        let mut pairs = PairMemo::default();
        let before = net.clone();
        assert_eq!(
            eliminate_with(&mut net, -1, &OptOptions::default(), &mut pairs),
            2
        );
        assert_eq!(trial(&mut net, t1).growth, Some(-4));
        assert_eq!(trial(&mut net, t2).growth, Some(-2));
        assert_eq!((pairs.lookups, pairs.computed), (2, 2));
        assert_equiv(&before, &net);
    }

    #[test]
    fn pair_memo_reuses_a_shape_across_users_and_sweeps() {
        // Four users of the same shape around four victims of the same
        // shape: one computed trial answers all of them.
        let mut net = Network::new("shapes");
        let mut users = Vec::new();
        for i in 0..4 {
            let a = net.add_input(format!("a{i}")).unwrap();
            let b = net.add_input(format!("b{i}")).unwrap();
            let c = net.add_input(format!("c{i}")).unwrap();
            let t = net
                .add_node(
                    format!("t{i}"),
                    vec![a, b],
                    sop(&[&[(0, true)], &[(1, true)]]),
                )
                .unwrap();
            let u = net
                .add_node(format!("u{i}"), vec![t, c], sop(&[&[(0, true), (1, true)]]))
                .unwrap();
            users.push(u);
        }
        for (i, &u) in users.iter().enumerate() {
            net.add_output(format!("u{i}"), u).unwrap();
        }
        let mut pairs = PairMemo::default();
        // Growth −2 + (4 − 2) = 0: kept at −1.
        assert_eq!(
            eliminate_with(&mut net, -1, &OptOptions::default(), &mut pairs),
            0
        );
        assert_eq!((pairs.lookups, pairs.computed), (4, 1));
    }

    #[test]
    fn extract_finds_shared_kernel() {
        let mut net = extraction_net();
        let before = net.clone();
        let created = extract(&mut net, &OptOptions::default());
        assert!(created >= 1, "expected at least one divisor");
        assert_equiv(&before, &net);
        assert!(net.num_literals() < before.num_literals());
    }

    #[test]
    fn resubstitute_reuses_nodes() {
        // g = c ∨ d exists; f = a·c ∨ a·d should be rewritten as a·g.
        let mut net = Network::new("r");
        let a = net.add_input("a").unwrap();
        let c = net.add_input("c").unwrap();
        let d = net.add_input("d").unwrap();
        let g = net
            .add_node("g", vec![c, d], sop(&[&[(0, true)], &[(1, true)]]))
            .unwrap();
        let f = net
            .add_node(
                "f",
                vec![a, c, d],
                sop(&[&[(0, true), (1, true)], &[(0, true), (2, true)]]),
            )
            .unwrap();
        net.add_output("f", f).unwrap();
        net.add_output("g", g).unwrap();
        let before = net.clone();
        let n = resubstitute(&mut net);
        assert_eq!(n, 1);
        assert_equiv(&before, &net);
        assert_eq!(net.fanins(f), &[a, g]);
    }

    #[test]
    fn script_algebraic_preserves_function() {
        let net = extraction_net();
        let opt = script_algebraic(&net);
        assert_equiv(&net, &opt);
        assert!(opt.num_literals() <= net.num_literals());
    }

    #[test]
    fn script_boolean_preserves_function() {
        let net = extraction_net();
        let opt = script_boolean(&net);
        assert_equiv(&net, &opt);
    }

    #[test]
    fn decompose_bounds_fanin() {
        let net = extraction_net();
        for k in 2..=4 {
            let dec = decompose(&net, k);
            assert_equiv(&net, &dec);
            for id in dec.node_ids() {
                assert!(dec.fanins(id).len() <= k, "gate exceeds fanin {k}");
            }
            // Every gate is AND, OR, NOT, or a constant.
            for id in dec.node_ids() {
                if dec.is_input(id) {
                    continue;
                }
                let s = dec.sop(id);
                let fanin_count = dec.fanins(id).len();
                let is_and = s.num_cubes() == 1
                    && s.cubes()[0].negative_vars().is_empty()
                    && s.cubes()[0].literal_count() == fanin_count;
                let is_or = s.num_cubes() == fanin_count
                    && s.cubes()
                        .iter()
                        .all(|c| c.literal_count() == 1 && c.negative_vars().is_empty());
                let is_not = fanin_count == 1
                    && s.num_cubes() == 1
                    && s.cubes()[0].positive_vars().is_empty()
                    && s.cubes()[0].literal_count() == 1;
                let is_const = fanin_count == 0;
                assert!(
                    is_and || is_or || is_not || is_const,
                    "node {} is not a simple gate: {s}",
                    dec.name(id)
                );
            }
        }
    }

    #[test]
    fn strash_merges_duplicate_nodes() {
        let mut net = Network::new("dup");
        let a = net.add_input("a").unwrap();
        let b = net.add_input("b").unwrap();
        let g1 = net
            .add_node("g1", vec![a, b], sop(&[&[(0, true), (1, true)]]))
            .unwrap();
        // Same function, fanins listed in the other order.
        let g2 = net
            .add_node("g2", vec![b, a], sop(&[&[(0, true), (1, true)]]))
            .unwrap();
        let f = net
            .add_node("f", vec![g1, g2], sop(&[&[(0, true)], &[(1, true)]]))
            .unwrap();
        net.add_output("f", f).unwrap();
        net.add_output("g2", g2).unwrap();
        let before = net.clone();
        let merged = strash(&mut net);
        assert_eq!(merged, 1);
        assert_equiv(&before, &net);
        let compacted = net.compact();
        assert_eq!(compacted.num_logic_nodes(), 2);
    }

    #[test]
    fn strash_cascades_through_cones() {
        // Two structurally identical 2-level cones merge completely.
        let mut net = Network::new("cones");
        let a = net.add_input("a").unwrap();
        let b = net.add_input("b").unwrap();
        let c = net.add_input("c").unwrap();
        let t1 = net
            .add_node("t1", vec![a, b], sop(&[&[(0, true), (1, true)]]))
            .unwrap();
        let t2 = net
            .add_node("t2", vec![a, b], sop(&[&[(0, true), (1, true)]]))
            .unwrap();
        let f = net
            .add_node("f", vec![t1, c], sop(&[&[(0, true)], &[(1, true)]]))
            .unwrap();
        let g = net
            .add_node("g", vec![t2, c], sop(&[&[(0, true)], &[(1, true)]]))
            .unwrap();
        net.add_output("f", f).unwrap();
        net.add_output("g", g).unwrap();
        let before = net.clone();
        let merged = strash(&mut net);
        assert_eq!(merged, 2, "t2 merges into t1, then g into f");
        assert_equiv(&before, &net);
        assert_eq!(net.compact().num_logic_nodes(), 2);
    }

    #[test]
    fn decompose_shares_inverters() {
        // f = ā·b, g = ā·c — one inverter for a.
        let mut net = Network::new("i");
        let a = net.add_input("a").unwrap();
        let b = net.add_input("b").unwrap();
        let c = net.add_input("c").unwrap();
        let f = net
            .add_node("f", vec![a, b], sop(&[&[(0, false), (1, true)]]))
            .unwrap();
        let g = net
            .add_node("g", vec![a, c], sop(&[&[(0, false), (1, true)]]))
            .unwrap();
        net.add_output("f", f).unwrap();
        net.add_output("g", g).unwrap();
        let dec = decompose(&net, 4);
        assert_equiv(&net, &dec);
        let inverter_count = dec
            .node_ids()
            .filter(|&id| {
                !dec.is_input(id)
                    && dec.fanins(id).len() == 1
                    && dec.sop(id).cubes().len() == 1
                    && dec.sop(id).cubes()[0].positive_vars().is_empty()
            })
            .count();
        assert_eq!(inverter_count, 1);
    }
}
