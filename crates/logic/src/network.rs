//! Multi-level combinational Boolean networks.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use crate::cube::Var;
use crate::error::LogicError;
use crate::fxhash::{FxHashMap, FxHashSet};
use crate::opt::PassMemo;
use crate::sop::Sop;

/// Identifier of a node within a [`Network`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// The dense index of this node: nodes are numbered in the order they
    /// were added, so ids compare in that order.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// The kind of a network node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeKind {
    /// A primary input.
    Input,
    /// An internal logic node: an [`Sop`] over the fanin list, where
    /// `Var(i)` in the SOP denotes `fanins[i]`.
    Logic {
        /// Driving nodes, in SOP-variable order.
        fanins: Vec<NodeId>,
        /// The node function over the fanins.
        sop: Sop,
    },
}

#[derive(Debug, Clone)]
struct NodeData {
    /// The node's name, shared with its key in the name table.
    name: Arc<str>,
    kind: NodeKind,
    /// Topological rank: every fanin ranks strictly below the node it
    /// feeds (see [`Network::set_function`]).
    rank: u64,
    /// Edit stamp: the network clock when the node was added or its
    /// function last written. Stamps only grow and no two writes share
    /// one, so an unchanged stamp means an unchanged node.
    stamp: u64,
}

/// Spacing between the ranks of consecutively added nodes, so a cone that
/// must move below a new user usually fits without renumbering.
const RANK_GAP: u64 = 1 << 20;

/// A multi-output combinational Boolean network (the paper's network `G`).
///
/// Nodes are either primary inputs or logic nodes carrying an [`Sop`] over
/// their fanins. Primary outputs are named references to nodes. This is the
/// same structural model SIS uses, which TELS synthesizes from.
///
/// # Example
///
/// ```
/// use tels_logic::{Cube, Network, Sop, Var};
///
/// # fn main() -> Result<(), tels_logic::LogicError> {
/// let mut net = Network::new("and2");
/// let a = net.add_input("a")?;
/// let b = net.add_input("b")?;
/// let f = net.add_node(
///     "f",
///     vec![a, b],
///     Sop::from_cubes([Cube::from_literals([(Var(0), true), (Var(1), true)])]),
/// )?;
/// net.add_output("f", f)?;
/// assert_eq!(net.num_logic_nodes(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Network {
    model: String,
    nodes: Vec<NodeData>,
    names: HashMap<Arc<str>, NodeId>,
    outputs: Vec<(String, NodeId)>,
    /// Rank given to the next added node: above every existing rank.
    next_rank: u64,
    /// Edit clock: ticks on every added node and every written function.
    clock: u64,
    /// State the factoring passes keep between calls (see
    /// [`opt`](crate::opt)); allocated by the first pass that needs it,
    /// so networks that are never factored carry one empty pointer.
    memo: Option<Box<PassMemo>>,
}

impl Network {
    /// Creates an empty network with the given model name.
    pub fn new(model: impl Into<String>) -> Network {
        Network {
            model: model.into(),
            nodes: Vec::new(),
            names: HashMap::new(),
            outputs: Vec::new(),
            next_rank: RANK_GAP,
            clock: 0,
            memo: None,
        }
    }

    /// Reserves room for `additional` more nodes, so that adding them
    /// neither moves the node table nor rehashes the name table.
    pub fn reserve(&mut self, additional: usize) {
        self.nodes.reserve(additional);
        self.names.reserve(additional);
    }

    /// The model name.
    pub fn model(&self) -> &str {
        &self.model
    }

    /// Adds a primary input.
    ///
    /// # Errors
    ///
    /// Returns [`LogicError::DuplicateName`] if the name is taken.
    pub fn add_input(&mut self, name: impl Into<String>) -> Result<NodeId, LogicError> {
        self.add_raw(name.into().into(), NodeKind::Input)
    }

    /// Adds a logic node computing `sop` over `fanins`.
    ///
    /// # Errors
    ///
    /// Returns an error if the name is taken, a fanin id is invalid or
    /// duplicated, or the SOP references a variable outside the fanin list.
    pub fn add_node(
        &mut self,
        name: impl Into<String>,
        fanins: Vec<NodeId>,
        sop: Sop,
    ) -> Result<NodeId, LogicError> {
        self.validate_function(&fanins, &sop)?;
        self.add_raw(name.into().into(), NodeKind::Logic { fanins, sop })
    }

    /// Adds a node under a name its caller has already made unique,
    /// leaving the name table to [`Self::set_names`]; a logic node's
    /// fanins and cover must pass [`Self::add_node`]'s checks (checked
    /// again in debug builds). A reader that has interned every name once
    /// hands its own table over instead of hashing each name again.
    pub(crate) fn push_named(&mut self, name: Arc<str>, kind: NodeKind) -> NodeId {
        if let NodeKind::Logic { fanins, sop } = &kind {
            debug_assert!(self.validate_function(fanins, sop).is_ok());
        }
        let id = NodeId(self.nodes.len() as u32);
        let rank = self.next_rank;
        self.next_rank += RANK_GAP;
        let stamp = self.tick();
        self.nodes.push(NodeData {
            name,
            kind,
            rank,
            stamp,
        });
        id
    }

    /// Installs the name table of nodes added by [`Self::push_named`]: it
    /// must map each node's name, and nothing else, to the node.
    pub(crate) fn set_names(&mut self, names: HashMap<Arc<str>, NodeId>) {
        debug_assert!(
            names.len() == self.nodes.len()
                && names
                    .iter()
                    .all(|(n, &id)| *self.nodes[id.index()].name == **n),
            "the name table must name every node once"
        );
        self.names = names;
    }

    fn validate_function(&self, fanins: &[NodeId], sop: &Sop) -> Result<(), LogicError> {
        for (i, f) in fanins.iter().enumerate() {
            if f.0 as usize >= self.nodes.len() {
                return Err(LogicError::InvalidNode(format!("fanin {f} does not exist")));
            }
            if fanins[..i].contains(f) {
                return Err(LogicError::InvalidNode(format!("duplicate fanin {f}")));
            }
        }
        if let Some(v) = sop.support().max_var() {
            if v.0 as usize >= fanins.len() {
                return Err(LogicError::InvalidNode(format!(
                    "SOP references {v} but node has only {} fanins",
                    fanins.len()
                )));
            }
        }
        Ok(())
    }

    fn add_raw(&mut self, name: Arc<str>, kind: NodeKind) -> Result<NodeId, LogicError> {
        let id = NodeId(self.nodes.len() as u32);
        let name = match self.names.entry(name) {
            Entry::Occupied(taken) => {
                return Err(LogicError::DuplicateName(taken.key().to_string()))
            }
            Entry::Vacant(free) => {
                let name = free.key().clone();
                free.insert(id);
                name
            }
        };
        Ok(self.push_named(name, kind))
    }

    /// Advances the edit clock and returns the new time.
    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    /// The current edit clock: every node's stamp is at most this, and any
    /// later addition or write gets a larger one.
    pub(crate) fn clock(&self) -> u64 {
        self.clock
    }

    /// The clock when `id` was added or its function last written.
    pub(crate) fn stamp(&self, id: NodeId) -> u64 {
        self.nodes[id.index()].stamp
    }

    /// Moves the pass memo out (allocating an empty one on first use), so
    /// a pass can hold it while it rewrites the network.
    pub(crate) fn take_memo(&mut self) -> Box<PassMemo> {
        self.memo.take().unwrap_or_default()
    }

    /// Returns the memo taken by [`Self::take_memo`].
    pub(crate) fn put_memo(&mut self, memo: Box<PassMemo>) {
        self.memo = Some(memo);
    }

    /// Forgets everything the passes remembered, as if the network had
    /// never been factored.
    #[cfg(test)]
    pub(crate) fn clear_memo(&mut self) {
        self.memo = None;
    }

    /// Generates a fresh node name with the given prefix.
    pub fn fresh_name(&self, prefix: &str) -> String {
        let mut i = self.nodes.len();
        loop {
            let candidate = format!("{prefix}{i}");
            if !self.names.contains_key(candidate.as_str()) {
                return candidate;
            }
            i += 1;
        }
    }

    /// Declares `node` as the primary output `name`.
    ///
    /// # Errors
    ///
    /// Returns an error if an output of that name already exists or the node
    /// id is invalid.
    pub fn add_output(&mut self, name: impl Into<String>, node: NodeId) -> Result<(), LogicError> {
        let name = name.into();
        if node.0 as usize >= self.nodes.len() {
            return Err(LogicError::InvalidNode(format!(
                "output {node} does not exist"
            )));
        }
        if self.outputs.iter().any(|(n, _)| *n == name) {
            return Err(LogicError::DuplicateName(name));
        }
        self.outputs.push((name, node));
        Ok(())
    }

    /// Re-points an existing primary output at a different node.
    ///
    /// # Errors
    ///
    /// Returns [`LogicError::UnknownSignal`] if no output of that name
    /// exists, or [`LogicError::InvalidNode`] for a dangling node id.
    pub fn set_output(&mut self, name: &str, node: NodeId) -> Result<(), LogicError> {
        if node.0 as usize >= self.nodes.len() {
            return Err(LogicError::InvalidNode(format!(
                "output {node} does not exist"
            )));
        }
        match self.outputs.iter_mut().find(|(n, _)| n == name) {
            Some(slot) => {
                slot.1 = node;
                Ok(())
            }
            None => Err(LogicError::UnknownSignal(name.to_string())),
        }
    }

    /// Looks a node up by name.
    pub fn find(&self, name: &str) -> Option<NodeId> {
        self.names.get(name).copied()
    }

    /// The name of a node.
    pub fn name(&self, id: NodeId) -> &str {
        &self.nodes[id.0 as usize].name
    }

    /// The kind (and function) of a node.
    pub fn kind(&self, id: NodeId) -> &NodeKind {
        &self.nodes[id.0 as usize].kind
    }

    /// Whether the node is a primary input.
    pub fn is_input(&self, id: NodeId) -> bool {
        matches!(self.kind(id), NodeKind::Input)
    }

    /// The fanins of a node (empty for inputs).
    pub fn fanins(&self, id: NodeId) -> &[NodeId] {
        match self.kind(id) {
            NodeKind::Input => &[],
            NodeKind::Logic { fanins, .. } => fanins,
        }
    }

    /// The SOP of a logic node.
    ///
    /// # Panics
    ///
    /// Panics if `id` is a primary input.
    pub fn sop(&self, id: NodeId) -> &Sop {
        match self.kind(id) {
            NodeKind::Input => panic!("node {id} is a primary input"),
            NodeKind::Logic { sop, .. } => sop,
        }
    }

    /// Replaces the function of a logic node.
    ///
    /// # Errors
    ///
    /// Same validation as [`Self::add_node`]; additionally rejects making the
    /// node (transitively) depend on itself. A rejected call changes nothing;
    /// an accepted one gives the node a new edit stamp.
    pub fn set_function(
        &mut self,
        id: NodeId,
        fanins: Vec<NodeId>,
        sop: Sop,
    ) -> Result<(), LogicError> {
        self.validate_function(&fanins, &sop)?;
        if self.is_input(id) {
            return Err(LogicError::InvalidNode(format!("{id} is a primary input")));
        }
        // Only nodes ranked above `id` can depend on it, so a new fanin
        // ranked below `id` — which includes every old fanin and every
        // fanin of one — needs no search. From the others, walk the fanin
        // cone pruned to ranks at or above `id`'s; reaching `id` is a cycle.
        let rank = self.nodes[id.index()].rank;
        let mut stack: Vec<NodeId> = fanins
            .iter()
            .copied()
            .filter(|f| self.nodes[f.index()].rank >= rank)
            .collect();
        let mut cone: Vec<NodeId> = Vec::new();
        let mut seen: FxHashSet<NodeId> = FxHashSet::default();
        while let Some(n) = stack.pop() {
            if n == id {
                return Err(LogicError::Cycle);
            }
            if seen.insert(n) {
                cone.push(n);
                stack.extend(
                    self.fanins(n)
                        .iter()
                        .copied()
                        .filter(|g| self.nodes[g.index()].rank >= rank),
                );
            }
        }
        let stamp = self.tick();
        let node = &mut self.nodes[id.index()];
        node.kind = NodeKind::Logic { fanins, sop };
        node.stamp = stamp;
        if !cone.is_empty() {
            self.rerank_below(id, cone);
        }
        Ok(())
    }

    /// Restores the rank invariant after `id` gained fanins ranked at or
    /// above it: `cone` is everything those fanins depend on at such ranks.
    ///
    /// The cone moves, in its old order, into the gap between its highest
    /// outside fanin and `id`. Nothing outside the cone that depends on a
    /// cone node ranks below `id`, and every outside fanin of the cone
    /// ranks below the gap, so all edges stay rank-ordered. When the gap is
    /// too narrow, every node is renumbered in topological order.
    fn rerank_below(&mut self, id: NodeId, mut cone: Vec<NodeId>) {
        let top = self.nodes[id.index()].rank;
        let floor = cone
            .iter()
            .flat_map(|&n| self.fanins(n))
            .map(|g| self.nodes[g.index()].rank)
            .filter(|&r| r < top)
            .max()
            .unwrap_or(0);
        let step = (top - floor) / (cone.len() as u64 + 1);
        if step == 0 {
            let order = self
                .topo_order()
                .expect("set_function keeps the network acyclic");
            for (i, n) in order.into_iter().enumerate() {
                self.nodes[n.index()].rank = (i as u64 + 1) * RANK_GAP;
            }
            self.next_rank = (self.nodes.len() as u64 + 1) * RANK_GAP;
            return;
        }
        cone.sort_by_key(|n| self.nodes[n.index()].rank);
        for (i, n) in cone.into_iter().enumerate() {
            self.nodes[n.index()].rank = floor + step * (i as u64 + 1);
        }
    }

    /// All node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// Primary input ids, in declaration order.
    pub fn inputs(&self) -> Vec<NodeId> {
        self.node_ids().filter(|&id| self.is_input(id)).collect()
    }

    /// Primary outputs as `(name, node)` pairs, in declaration order.
    pub fn outputs(&self) -> &[(String, NodeId)] {
        &self.outputs
    }

    /// Number of primary inputs.
    pub fn num_inputs(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| matches!(n.kind, NodeKind::Input))
            .count()
    }

    /// Number of logic nodes.
    pub fn num_logic_nodes(&self) -> usize {
        self.nodes.len() - self.num_inputs()
    }

    /// Total literal count over all logic nodes (the factored-form cost).
    pub fn num_literals(&self) -> usize {
        self.node_ids()
            .filter(|&id| !self.is_input(id))
            .map(|id| self.sop(id).num_literals())
            .sum()
    }

    /// Nodes in topological order (inputs first).
    ///
    /// # Errors
    ///
    /// Returns [`LogicError::Cycle`] if the network is cyclic.
    pub fn topo_order(&self) -> Result<Vec<NodeId>, LogicError> {
        let n = self.nodes.len();
        let mut indeg = vec![0usize; n];
        for id in self.node_ids() {
            indeg[id.0 as usize] = self.fanins(id).len();
        }
        let mut fanouts: Vec<Vec<NodeId>> = vec![Vec::new(); n];
        for id in self.node_ids() {
            for &f in self.fanins(id) {
                fanouts[f.0 as usize].push(id);
            }
        }
        let mut queue: Vec<NodeId> = self
            .node_ids()
            .filter(|&id| indeg[id.0 as usize] == 0)
            .collect();
        let mut order = Vec::with_capacity(n);
        while let Some(id) = queue.pop() {
            order.push(id);
            for &succ in &fanouts[id.0 as usize] {
                indeg[succ.0 as usize] -= 1;
                if indeg[succ.0 as usize] == 0 {
                    queue.push(succ);
                }
            }
        }
        if order.len() == n {
            Ok(order)
        } else {
            Err(LogicError::Cycle)
        }
    }

    /// Fanout count per node: uses as a fanin plus uses as a primary output.
    pub fn fanout_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.nodes.len()];
        for id in self.node_ids() {
            for &f in self.fanins(id) {
                counts[f.0 as usize] += 1;
            }
        }
        for (_, id) in &self.outputs {
            counts[id.0 as usize] += 1;
        }
        counts
    }

    /// Logic depth per node: inputs are level 0, logic nodes are
    /// `1 + max(fanin levels)`.
    ///
    /// # Errors
    ///
    /// Returns [`LogicError::Cycle`] if the network is cyclic.
    pub fn levels(&self) -> Result<Vec<usize>, LogicError> {
        let order = self.topo_order()?;
        let mut level = vec![0usize; self.nodes.len()];
        for id in order {
            if !self.is_input(id) {
                level[id.0 as usize] = 1 + self
                    .fanins(id)
                    .iter()
                    .map(|f| level[f.0 as usize])
                    .max()
                    .unwrap_or(0);
            }
        }
        Ok(level)
    }

    /// The maximum level over the primary outputs (the network depth).
    ///
    /// # Errors
    ///
    /// Returns [`LogicError::Cycle`] if the network is cyclic.
    pub fn depth(&self) -> Result<usize, LogicError> {
        let levels = self.levels()?;
        Ok(self
            .outputs
            .iter()
            .map(|(_, id)| levels[id.0 as usize])
            .max()
            .unwrap_or(0))
    }

    /// Inlines fanin position `pos` of `node`: substitutes the fanin's
    /// function into the node's SOP (complementing where the fanin appears
    /// negatively) and merges the fanin lists.
    ///
    /// Returns the new fanin count of `node`.
    ///
    /// # Errors
    ///
    /// Returns an error if `node` is an input or `pos` is out of range, or
    /// if the fanin at `pos` is a primary input (inputs have no function).
    pub fn inline_fanin(&mut self, node: NodeId, pos: usize) -> Result<usize, LogicError> {
        let (fanins, sop) = match self.kind(node) {
            NodeKind::Input => {
                return Err(LogicError::InvalidNode(format!(
                    "{node} is a primary input"
                )))
            }
            NodeKind::Logic { fanins, sop } => (fanins.clone(), sop.clone()),
        };
        let victim = *fanins
            .get(pos)
            .ok_or_else(|| LogicError::InvalidNode(format!("fanin position {pos} out of range")))?;
        let (vic_fanins, vic_sop) = match self.kind(victim) {
            NodeKind::Input => {
                return Err(LogicError::InvalidNode(format!(
                    "fanin {victim} is a primary input and cannot be inlined"
                )))
            }
            NodeKind::Logic { fanins, sop } => (fanins.clone(), sop.clone()),
        };

        // New fanin list: old fanins (minus the victim) plus the victim's
        // fanins, deduplicated, order-preserving.
        let mut new_fanins: Vec<NodeId> = fanins.iter().copied().filter(|&f| f != victim).collect();
        for &f in &vic_fanins {
            if !new_fanins.contains(&f) {
                new_fanins.push(f);
            }
        }

        let index_of = |list: &[NodeId], id: NodeId| -> Var {
            Var(list.iter().position(|&f| f == id).unwrap() as u32)
        };
        // Remap the victim's SOP into the new variable space.
        let vic_map: Vec<Var> = vic_fanins
            .iter()
            .map(|&f| index_of(&new_fanins, f))
            .collect();
        let vic_remapped = vic_sop.remap(&vic_map);
        // Remap the node's SOP: the victim variable is temporarily given a
        // fresh index past the new fanins, substituted away afterwards.
        let tmp = Var(new_fanins.len() as u32);
        let node_map: Vec<Var> = fanins
            .iter()
            .map(|&f| {
                if f == victim {
                    tmp
                } else {
                    index_of(&new_fanins, f)
                }
            })
            .collect();
        let node_remapped = sop.remap(&node_map);
        let mut new_sop = node_remapped.substitute(tmp, &vic_remapped);
        new_sop.scc();

        // Drop fanins that fell out of the support (e.g. victim-only vars).
        let support = new_sop.support();
        let kept: Vec<usize> = (0..new_fanins.len())
            .filter(|&i| support.contains(Var(i as u32)))
            .collect();
        let final_fanins: Vec<NodeId> = kept.iter().map(|&i| new_fanins[i]).collect();
        let mut final_map = vec![Var(0); new_fanins.len()];
        for (new_i, &old_i) in kept.iter().enumerate() {
            final_map[old_i] = Var(new_i as u32);
        }
        let final_sop = new_sop.remap(&final_map);

        let count = final_fanins.len();
        self.set_function(node, final_fanins, final_sop)?;
        Ok(count)
    }

    /// Evaluates the network on a single input assignment (inputs in
    /// [`Self::inputs`] order). Returns output values in output order.
    ///
    /// # Errors
    ///
    /// Returns [`LogicError::Cycle`] for cyclic networks, or
    /// [`LogicError::InterfaceMismatch`] if `assignment` has the wrong arity.
    pub fn eval(&self, assignment: &[bool]) -> Result<Vec<bool>, LogicError> {
        let inputs = self.inputs();
        if assignment.len() != inputs.len() {
            return Err(LogicError::InterfaceMismatch(format!(
                "expected {} input values, got {}",
                inputs.len(),
                assignment.len()
            )));
        }
        let mut value = vec![false; self.nodes.len()];
        for (i, &id) in inputs.iter().enumerate() {
            value[id.0 as usize] = assignment[i];
        }
        for id in self.topo_order()? {
            if let NodeKind::Logic { fanins, sop } = self.kind(id) {
                value[id.0 as usize] = sop.eval(|v| value[fanins[v.0 as usize].0 as usize]);
            }
        }
        Ok(self
            .outputs
            .iter()
            .map(|(_, id)| value[id.0 as usize])
            .collect())
    }

    /// Returns a compacted copy containing only inputs and logic nodes
    /// reachable from the primary outputs (dead-node elimination).
    ///
    /// Primary inputs are always retained so the interface is unchanged.
    /// The copy is a fresh network: node ids change, so it keeps none of
    /// the passes' memos.
    pub fn compact(&self) -> Network {
        let mut live = vec![false; self.nodes.len()];
        let mut stack: Vec<NodeId> = self.outputs.iter().map(|&(_, id)| id).collect();
        while let Some(id) = stack.pop() {
            if std::mem::replace(&mut live[id.0 as usize], true) {
                continue;
            }
            stack.extend(self.fanins(id).iter().copied());
        }
        let mut out = Network::new(self.model.clone());
        let mut map: FxHashMap<NodeId, NodeId> = FxHashMap::default();
        // Names are unique in the source and shared with it.
        let name = |id: NodeId| self.nodes[id.index()].name.clone();
        // Inputs first, preserving order.
        for id in self.node_ids() {
            if self.is_input(id) {
                map.insert(id, out.push_named(name(id), NodeKind::Input));
            }
        }
        // Logic nodes in topological order so fanins exist before use.
        let order = self.topo_order().expect("source network is acyclic");
        for id in order {
            if self.is_input(id) || !live[id.0 as usize] {
                continue;
            }
            if let NodeKind::Logic { fanins, sop } = self.kind(id) {
                let fanins: Vec<NodeId> = fanins.iter().map(|f| map[f]).collect();
                let kind = NodeKind::Logic {
                    fanins,
                    sop: sop.clone(),
                };
                map.insert(id, out.push_named(name(id), kind));
            }
        }
        // The source's name table, kept nodes only, under their new ids:
        // no name is hashed again.
        let mut names = self.names.clone();
        names.retain(|_, id| map.contains_key(id));
        for id in names.values_mut() {
            *id = map[id];
        }
        out.set_names(names);
        for (name, id) in &self.outputs {
            out.add_output(name.clone(), map[id])
                .expect("unique output names");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cube::Cube;

    fn sop(cubes: &[&[(u32, bool)]]) -> Sop {
        Sop::from_cubes(
            cubes
                .iter()
                .map(|c| Cube::from_literals(c.iter().map(|&(v, p)| (Var(v), p)))),
        )
    }

    /// f = (a·b) ∨ c, built as g = a·b; f = g ∨ c.
    fn two_level_net() -> (Network, NodeId, NodeId) {
        let mut net = Network::new("t");
        let a = net.add_input("a").unwrap();
        let b = net.add_input("b").unwrap();
        let c = net.add_input("c").unwrap();
        let g = net
            .add_node("g", vec![a, b], sop(&[&[(0, true), (1, true)]]))
            .unwrap();
        let f = net
            .add_node("f", vec![g, c], sop(&[&[(0, true)], &[(1, true)]]))
            .unwrap();
        net.add_output("f", f).unwrap();
        (net, g, f)
    }

    #[test]
    fn build_and_eval() {
        let (net, _, _) = two_level_net();
        assert_eq!(net.num_inputs(), 3);
        assert_eq!(net.num_logic_nodes(), 2);
        assert_eq!(net.eval(&[true, true, false]).unwrap(), vec![true]);
        assert_eq!(net.eval(&[true, false, false]).unwrap(), vec![false]);
        assert_eq!(net.eval(&[false, false, true]).unwrap(), vec![true]);
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut net = Network::new("t");
        net.add_input("a").unwrap();
        assert!(matches!(
            net.add_input("a"),
            Err(LogicError::DuplicateName(_))
        ));
    }

    #[test]
    fn sop_var_out_of_range_rejected() {
        let mut net = Network::new("t");
        let a = net.add_input("a").unwrap();
        let r = net.add_node("f", vec![a], sop(&[&[(1, true)]]));
        assert!(matches!(r, Err(LogicError::InvalidNode(_))));
    }

    #[test]
    fn duplicate_fanin_rejected() {
        let mut net = Network::new("t");
        let a = net.add_input("a").unwrap();
        let r = net.add_node("f", vec![a, a], sop(&[&[(0, true), (1, true)]]));
        assert!(matches!(r, Err(LogicError::InvalidNode(_))));
    }

    #[test]
    fn cycle_rejected_by_set_function() {
        let (mut net, g, f) = two_level_net();
        let r = net.set_function(g, vec![f], sop(&[&[(0, true)]]));
        assert_eq!(r, Err(LogicError::Cycle));
    }

    #[test]
    fn stamps_follow_writes() {
        let (mut net, g, f) = two_level_net();
        // Every added node took its own tick.
        let stamps: Vec<u64> = net.node_ids().map(|n| net.stamp(n)).collect();
        assert_eq!(stamps, vec![1, 2, 3, 4, 5]);
        assert_eq!(net.clock(), 5);
        let a = net.find("a").unwrap();
        net.set_function(g, vec![a], sop(&[&[(0, false)]])).unwrap();
        assert_eq!(net.stamp(g), 6);
        assert_eq!(net.clock(), 6);
        // A rejected write (a cycle, a bad fanin) leaves stamps and clock.
        assert!(net.set_function(g, vec![f], sop(&[&[(0, true)]])).is_err());
        assert!(net
            .set_function(g, vec![a, a], sop(&[&[(0, true)]]))
            .is_err());
        assert_eq!((net.stamp(g), net.stamp(f), net.clock()), (6, 5, 6));
        // inline_fanin writes through set_function.
        net.inline_fanin(f, 0).unwrap();
        assert_eq!((net.stamp(f), net.clock()), (7, 7));
    }

    #[test]
    fn memo_is_allocated_lazily_and_dropped_by_compact() {
        let (mut net, _, _) = two_level_net();
        assert!(net.memo.is_none());
        let memo = net.take_memo();
        net.put_memo(memo);
        assert!(net.memo.is_some());
        assert!(net.clone().memo.is_some());
        assert!(net.compact().memo.is_none());
        net.clear_memo();
        assert!(net.memo.is_none());
    }

    /// Whether every fanin ranks strictly below the node it feeds.
    fn ranks_valid(net: &Network) -> bool {
        net.node_ids().all(|id| {
            net.fanins(id)
                .iter()
                .all(|f| net.nodes[f.index()].rank < net.nodes[id.index()].rank)
        })
    }

    /// A chain a → n0 → n1 → … → n{len-1}, each node a buffer of the last.
    fn chain(len: usize) -> (Network, Vec<NodeId>) {
        let mut net = Network::new("chain");
        let mut prev = net.add_input("a").unwrap();
        let mut ids = Vec::new();
        for i in 0..len {
            prev = net
                .add_node(format!("n{i}"), vec![prev], sop(&[&[(0, true)]]))
                .unwrap();
            ids.push(prev);
        }
        (net, ids)
    }

    #[test]
    fn cycle_of_several_hops_rejected() {
        let (mut net, ids) = chain(5);
        let a = net.find("a").unwrap();
        let r = net.set_function(ids[0], vec![a, ids[4]], sop(&[&[(0, true), (1, true)]]));
        assert_eq!(r, Err(LogicError::Cycle));
        // The rejected call left the node and the ranks untouched.
        assert_eq!(net.fanins(ids[0]), &[a]);
        assert!(ranks_valid(&net));
    }

    #[test]
    fn cycle_through_appended_node_rejected() {
        // `late` is added after `g` and depends on it through `f`; making
        // `g` read `late` closes a loop through a node ranked above it.
        let (mut net, g, f) = two_level_net();
        let c = net.find("c").unwrap();
        let late = net
            .add_node("late", vec![f, c], sop(&[&[(0, true), (1, true)]]))
            .unwrap();
        let r = net.set_function(g, vec![late], sop(&[&[(0, true)]]));
        assert_eq!(r, Err(LogicError::Cycle));
        // Reading an appended node that does not depend on `g` is legal.
        let a = net.find("a").unwrap();
        let free = net
            .add_node("free", vec![a, c], sop(&[&[(0, true)], &[(1, true)]]))
            .unwrap();
        net.set_function(g, vec![free], sop(&[&[(0, true)]]))
            .unwrap();
        assert!(ranks_valid(&net));
    }

    #[test]
    fn repaired_ranks_catch_later_cycle() {
        // x and y are independent, y ranked above x. x → reads y is legal
        // but against rank order, so y's cone must move below x; afterwards
        // y → reads x is a cycle that the stale ranks would have waved
        // through (x ranked below y).
        let mut net = Network::new("rerank");
        let a = net.add_input("a").unwrap();
        let b = net.add_input("b").unwrap();
        let x = net.add_node("x", vec![a], sop(&[&[(0, false)]])).unwrap();
        let y0 = net.add_node("y0", vec![b], sop(&[&[(0, false)]])).unwrap();
        let y = net
            .add_node("y", vec![y0, b], sop(&[&[(0, true), (1, true)]]))
            .unwrap();
        assert!(net.nodes[y.index()].rank > net.nodes[x.index()].rank);
        net.set_function(x, vec![a, y], sop(&[&[(0, true), (1, true)]]))
            .unwrap();
        assert!(ranks_valid(&net));
        assert!(net.nodes[y.index()].rank < net.nodes[x.index()].rank);
        assert!(net.nodes[y0.index()].rank < net.nodes[y.index()].rank);
        let r = net.set_function(y, vec![x], sop(&[&[(0, true)]]));
        assert_eq!(r, Err(LogicError::Cycle));
        let r = net.set_function(y0, vec![x, b], sop(&[&[(0, true), (1, true)]]));
        assert_eq!(r, Err(LogicError::Cycle));
    }

    #[test]
    fn set_function_matches_reachability_oracle() {
        // Random rewiring, including many edges against rank order and
        // enough repairs in one gap to force full renumbering: every
        // verdict must equal a plain fanin-cone search, and the ranks must
        // stay valid throughout.
        use crate::rng::Xoshiro256;
        fn reaches(net: &Network, from: NodeId, to: NodeId) -> bool {
            let mut seen = vec![false; net.nodes.len()];
            let mut stack = vec![from];
            while let Some(n) = stack.pop() {
                if n == to {
                    return true;
                }
                if !std::mem::replace(&mut seen[n.index()], true) {
                    stack.extend(net.fanins(n).iter().copied());
                }
            }
            false
        }
        let mut rng = Xoshiro256::seed_from_u64(0xCEC1E);
        let (mut net, mut ids) = chain(8);
        let a = net.find("a").unwrap();
        for step in 0..3000 {
            if step % 50 == 0 {
                let id = net.add_node(format!("m{step}"), vec![a], sop(&[&[(0, true)]]));
                ids.push(id.unwrap());
            }
            let target = ids[rng.gen_range(0..ids.len())];
            let mut fanins: Vec<NodeId> = Vec::new();
            for _ in 0..rng.gen_range(1..4usize) {
                let f = if rng.gen_range(0..4u32) == 0 {
                    a
                } else {
                    ids[rng.gen_range(0..ids.len())]
                };
                if !fanins.contains(&f) {
                    fanins.push(f);
                }
            }
            let cyclic = fanins.iter().any(|&f| reaches(&net, f, target));
            let cube: Vec<(u32, bool)> = (0..fanins.len() as u32).map(|v| (v, true)).collect();
            let r = net.set_function(target, fanins, sop(&[&cube]));
            assert_eq!(r.is_err(), cyclic, "step {step}");
            assert!(ranks_valid(&net), "step {step}");
        }
        assert!(net.topo_order().is_ok());
    }

    #[test]
    fn levels_and_depth() {
        let (net, g, f) = two_level_net();
        let levels = net.levels().unwrap();
        assert_eq!(levels[g.0 as usize], 1);
        assert_eq!(levels[f.0 as usize], 2);
        assert_eq!(net.depth().unwrap(), 2);
    }

    #[test]
    fn fanout_counts_include_outputs() {
        let (net, g, f) = two_level_net();
        let counts = net.fanout_counts();
        assert_eq!(counts[g.0 as usize], 1);
        assert_eq!(counts[f.0 as usize], 1); // the PO reference
    }

    #[test]
    fn inline_fanin_preserves_function() {
        let (mut net, _, f) = two_level_net();
        // Inline g into f: f = a·b ∨ c directly.
        net.inline_fanin(f, 0).unwrap();
        assert_eq!(net.fanins(f).len(), 3);
        for m in 0..8u32 {
            let assign = [(m & 1) != 0, (m & 2) != 0, (m & 4) != 0];
            let expect = (assign[0] && assign[1]) || assign[2];
            assert_eq!(net.eval(&assign).unwrap(), vec![expect], "minterm {m}");
        }
    }

    #[test]
    fn inline_negative_literal_uses_complement() {
        // f = ḡ where g = a·b ⇒ f = ā ∨ b̄.
        let mut net = Network::new("t");
        let a = net.add_input("a").unwrap();
        let b = net.add_input("b").unwrap();
        let g = net
            .add_node("g", vec![a, b], sop(&[&[(0, true), (1, true)]]))
            .unwrap();
        let f = net.add_node("f", vec![g], sop(&[&[(0, false)]])).unwrap();
        net.add_output("f", f).unwrap();
        net.inline_fanin(f, 0).unwrap();
        for m in 0..4u32 {
            let assign = [(m & 1) != 0, (m & 2) != 0];
            let expect = !(assign[0] && assign[1]);
            assert_eq!(net.eval(&assign).unwrap(), vec![expect], "minterm {m}");
        }
    }

    #[test]
    fn compact_removes_dead_nodes() {
        let (mut net, _, f) = two_level_net();
        let a = net.find("a").unwrap();
        net.add_node("dead", vec![a], sop(&[&[(0, false)]]))
            .unwrap();
        assert_eq!(net.num_logic_nodes(), 3);
        let c = net.compact();
        assert_eq!(c.num_logic_nodes(), 2);
        assert_eq!(c.num_inputs(), 3);
        let _ = f;
        assert_eq!(
            c.eval(&[true, true, false]).unwrap(),
            net.eval(&[true, true, false]).unwrap()
        );
    }

    #[test]
    fn topo_order_visits_fanins_first() {
        let (net, _, _) = two_level_net();
        let order = net.topo_order().unwrap();
        let pos: HashMap<NodeId, usize> =
            order.iter().enumerate().map(|(i, &id)| (id, i)).collect();
        for id in net.node_ids() {
            for &fin in net.fanins(id) {
                assert!(pos[&fin] < pos[&id]);
            }
        }
    }

    #[test]
    fn fresh_name_avoids_collisions() {
        let (net, _, _) = two_level_net();
        let n = net.fresh_name("g");
        assert!(net.find(&n).is_none());
    }
}
