//! Threshold networks: DAGs of linear threshold gates.

use std::collections::HashMap;
use std::fmt;
use std::fmt::Write as _;

use tels_logic::{LogicError, Network};

use crate::error::SynthError;

/// Identifier of a node within a [`ThresholdNetwork`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TnId(pub(crate) u32);

impl TnId {
    /// The dense index of this node, mirroring
    /// [`NodeId::index`](tels_logic::NodeId::index): inputs and gates share
    /// one id space, assigned in insertion (hence topological) order.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for TnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// A linear threshold gate: output 1 iff `Σ wᵢ·xᵢ ≥ T`.
///
/// Defect tolerances are a *synthesis-time* margin (the design guarantees
/// ON minterms reach `T + δ_on` and OFF minterms stay at `T − δ_off` or
/// below); the physical gate always switches exactly at `T`, which is what
/// [`eval`](ThresholdGate::eval) implements.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ThresholdGate {
    /// Input signals, parallel to `weights`.
    pub inputs: Vec<TnId>,
    /// Integer input weights (may be negative).
    pub weights: Vec<i64>,
    /// The gate threshold `T`.
    pub threshold: i64,
}

impl ThresholdGate {
    /// Evaluates the gate given its input values.
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != self.inputs.len()`.
    pub fn eval(&self, values: &[bool]) -> bool {
        assert_eq!(values.len(), self.inputs.len());
        // i128 cannot overflow for any gate a parsed netlist can hold, and
        // matches the packed engine's exact arithmetic.
        let sum: i128 = self
            .weights
            .iter()
            .zip(values)
            .map(|(&w, &v)| if v { i128::from(w) } else { 0 })
            .sum();
        sum >= i128::from(self.threshold)
    }

    /// Evaluates the gate with disturbed real-valued weights (the threshold
    /// stays nominal), as in the parametric-variation experiments (§VI-C).
    ///
    /// # Panics
    ///
    /// Panics if the lengths of `weights` and `values` disagree with the
    /// gate arity.
    pub fn eval_disturbed(&self, weights: &[f64], values: &[bool]) -> bool {
        assert_eq!(weights.len(), self.inputs.len());
        assert_eq!(values.len(), self.inputs.len());
        let sum: f64 = weights
            .iter()
            .zip(values)
            .map(|(&w, &v)| if v { w } else { 0.0 })
            .sum();
        sum >= self.threshold as f64
    }

    /// The RTD area model of Eq. (14): `Σ|wᵢ| + |T|` (unit area `A_u = 1`),
    /// saturating at `u64::MAX`.
    pub fn area(&self) -> u64 {
        self.weights
            .iter()
            .fold(self.threshold.unsigned_abs(), |a, w| {
                a.saturating_add(w.unsigned_abs())
            })
    }

    /// The weight-threshold vector as the paper prints it: `⟨w₁,…,w_l; T⟩`.
    pub fn weight_threshold_vector(&self) -> String {
        let ws: Vec<String> = self.weights.iter().map(i64::to_string).collect();
        format!("⟨{}; {}⟩", ws.join(", "), self.threshold)
    }
}

#[derive(Debug, Clone)]
enum TnKind {
    Input,
    Gate(ThresholdGate),
}

#[derive(Debug, Clone)]
struct TnNode {
    name: String,
    kind: TnKind,
}

/// A multi-output network of threshold gates — the output `G_T` of TELS.
///
/// # Example
///
/// ```
/// use tels_core::{ThresholdGate, ThresholdNetwork};
///
/// # fn main() -> Result<(), tels_core::SynthError> {
/// let mut tn = ThresholdNetwork::new("maj3");
/// let a = tn.add_input("a")?;
/// let b = tn.add_input("b")?;
/// let c = tn.add_input("c")?;
/// let m = tn.add_gate("m", ThresholdGate {
///     inputs: vec![a, b, c],
///     weights: vec![1, 1, 1],
///     threshold: 2,
/// })?;
/// tn.add_output("m", m)?;
/// assert_eq!(tn.eval(&[true, true, false])?, vec![true]);
/// assert_eq!(tn.num_gates(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ThresholdNetwork {
    model: String,
    nodes: Vec<TnNode>,
    names: HashMap<String, TnId>,
    outputs: Vec<(String, TnId)>,
}

impl ThresholdNetwork {
    /// Creates an empty threshold network.
    pub fn new(model: impl Into<String>) -> ThresholdNetwork {
        ThresholdNetwork {
            model: model.into(),
            nodes: Vec::new(),
            names: HashMap::new(),
            outputs: Vec::new(),
        }
    }

    /// The model name.
    pub fn model(&self) -> &str {
        &self.model
    }

    fn add_raw(&mut self, name: String, kind: TnKind) -> Result<TnId, SynthError> {
        if self.names.contains_key(&name) {
            return Err(SynthError::Logic(LogicError::DuplicateName(name)));
        }
        let id = TnId(self.nodes.len() as u32);
        self.names.insert(name.clone(), id);
        self.nodes.push(TnNode { name, kind });
        Ok(id)
    }

    /// Adds a primary input.
    ///
    /// # Errors
    ///
    /// Fails on duplicate names.
    pub fn add_input(&mut self, name: impl Into<String>) -> Result<TnId, SynthError> {
        self.add_raw(name.into(), TnKind::Input)
    }

    /// Adds a threshold gate.
    ///
    /// # Errors
    ///
    /// Fails on duplicate names, arity mismatch between inputs and weights,
    /// or dangling input ids.
    pub fn add_gate(
        &mut self,
        name: impl Into<String>,
        gate: ThresholdGate,
    ) -> Result<TnId, SynthError> {
        if gate.inputs.len() != gate.weights.len() {
            return Err(SynthError::Internal(format!(
                "gate has {} inputs but {} weights",
                gate.inputs.len(),
                gate.weights.len()
            )));
        }
        for &i in &gate.inputs {
            if i.0 as usize >= self.nodes.len() {
                return Err(SynthError::Internal(format!(
                    "gate input {i} does not exist"
                )));
            }
        }
        self.add_raw(name.into(), TnKind::Gate(gate))
    }

    /// Declares `node` as primary output `name`.
    ///
    /// # Errors
    ///
    /// Fails on duplicate output names or dangling ids.
    pub fn add_output(&mut self, name: impl Into<String>, node: TnId) -> Result<(), SynthError> {
        let name = name.into();
        if node.0 as usize >= self.nodes.len() {
            return Err(SynthError::Internal(format!(
                "output {node} does not exist"
            )));
        }
        if self.outputs.iter().any(|(n, _)| *n == name) {
            return Err(SynthError::Logic(LogicError::DuplicateName(name)));
        }
        self.outputs.push((name, node));
        Ok(())
    }

    /// Generates a fresh node name with the given prefix.
    pub fn fresh_name(&self, prefix: &str) -> String {
        let mut i = self.nodes.len();
        loop {
            let candidate = format!("{prefix}{i}");
            if !self.names.contains_key(&candidate) {
                return candidate;
            }
            i += 1;
        }
    }

    /// Looks a node up by name.
    pub fn find(&self, name: &str) -> Option<TnId> {
        self.names.get(name).copied()
    }

    /// The name of a node.
    pub fn name(&self, id: TnId) -> &str {
        &self.nodes[id.0 as usize].name
    }

    /// The gate at `id`, or `None` for primary inputs.
    pub fn gate(&self, id: TnId) -> Option<&ThresholdGate> {
        match &self.nodes[id.0 as usize].kind {
            TnKind::Input => None,
            TnKind::Gate(g) => Some(g),
        }
    }

    /// Whether the node is a primary input.
    pub fn is_input(&self, id: TnId) -> bool {
        self.gate(id).is_none()
    }

    /// All node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = TnId> + '_ {
        (0..self.nodes.len() as u32).map(TnId)
    }

    /// Primary input ids, in declaration order.
    pub fn inputs(&self) -> Vec<TnId> {
        self.node_ids().filter(|&id| self.is_input(id)).collect()
    }

    /// Primary outputs as `(name, node)` pairs.
    pub fn outputs(&self) -> &[(String, TnId)] {
        &self.outputs
    }

    /// Number of primary inputs.
    pub fn num_inputs(&self) -> usize {
        self.inputs().len()
    }

    /// Number of threshold gates.
    pub fn num_gates(&self) -> usize {
        self.nodes.len() - self.num_inputs()
    }

    /// Iterates over all gates with their ids.
    pub fn gates(&self) -> impl Iterator<Item = (TnId, &ThresholdGate)> + '_ {
        self.node_ids()
            .filter_map(|id| self.gate(id).map(|g| (id, g)))
    }

    /// Total network area per Eq. (14): `Σ_gates (Σ|wᵢ| + |T|)`, saturating
    /// at `u64::MAX`.
    pub fn area(&self) -> u64 {
        self.gates()
            .fold(0, |a: u64, (_, g)| a.saturating_add(g.area()))
    }

    /// Per-node logic level (inputs are 0, gates `1 + max(fanin level)`).
    ///
    /// Gates are stored in construction order, which is topological by
    /// construction (gate inputs must exist when added).
    pub fn levels(&self) -> Vec<usize> {
        let mut level = vec![0usize; self.nodes.len()];
        for id in self.node_ids() {
            if let Some(g) = self.gate(id) {
                level[id.0 as usize] = 1 + g
                    .inputs
                    .iter()
                    .map(|i| level[i.0 as usize])
                    .max()
                    .unwrap_or(0);
            }
        }
        level
    }

    /// The maximum level over the primary outputs.
    pub fn depth(&self) -> usize {
        let levels = self.levels();
        self.outputs
            .iter()
            .map(|(_, id)| levels[id.0 as usize])
            .max()
            .unwrap_or(0)
    }

    /// Evaluates the network on one input assignment (inputs in
    /// [`Self::inputs`] order); returns output values in output order.
    ///
    /// # Errors
    ///
    /// Returns an error if `assignment` has the wrong arity.
    pub fn eval(&self, assignment: &[bool]) -> Result<Vec<bool>, SynthError> {
        self.eval_impl(assignment, None)
    }

    /// Evaluates with per-gate disturbed weights, indexed by
    /// [`TnId::index`], as used by the parametric-variation experiments.
    /// Gates beyond the slice or with an empty entry use their nominal
    /// weights.
    ///
    /// # Errors
    ///
    /// Returns an error if `assignment` has the wrong arity.
    pub fn eval_disturbed(
        &self,
        assignment: &[bool],
        disturbed: &[Vec<f64>],
    ) -> Result<Vec<bool>, SynthError> {
        self.eval_impl(assignment, Some(disturbed))
    }

    fn eval_impl(
        &self,
        assignment: &[bool],
        disturbed: Option<&[Vec<f64>]>,
    ) -> Result<Vec<bool>, SynthError> {
        let inputs = self.inputs();
        if assignment.len() != inputs.len() {
            return Err(SynthError::Logic(LogicError::InterfaceMismatch(format!(
                "expected {} input values, got {}",
                inputs.len(),
                assignment.len()
            ))));
        }
        let mut value = vec![false; self.nodes.len()];
        for (i, &id) in inputs.iter().enumerate() {
            value[id.0 as usize] = assignment[i];
        }
        for id in self.node_ids() {
            if let Some(g) = self.gate(id) {
                let vals: Vec<bool> = g.inputs.iter().map(|i| value[i.0 as usize]).collect();
                let dw = disturbed
                    .and_then(|d| d.get(id.index()))
                    .filter(|w| !w.is_empty());
                value[id.0 as usize] = match dw {
                    Some(w) => g.eval_disturbed(w, &vals),
                    None => g.eval(&vals),
                };
            }
        }
        Ok(self
            .outputs
            .iter()
            .map(|(_, id)| value[id.0 as usize])
            .collect())
    }

    /// Checks functional equivalence against a Boolean [`Network`] with the
    /// same input/output names. Exhaustive for up to `exhaustive_limit`
    /// inputs (capped at the packed engine's 20-input pattern limit),
    /// seeded-random (`patterns` vectors) beyond.
    ///
    /// Runs on the word-parallel [`EvalPlan`](crate::eval::EvalPlan)
    /// engine — the reference goes through the packed `sim::simulate`, this
    /// network through the packed threshold evaluator, 64 vectors per step.
    ///
    /// Returns `Ok(None)` when no mismatch is found, or `Ok(Some(assign))`
    /// with a counterexample in the Boolean network's input order.
    ///
    /// # Errors
    ///
    /// Returns an error when the interfaces differ.
    pub fn verify_against(
        &self,
        reference: &Network,
        exhaustive_limit: u32,
        patterns: usize,
        seed: u64,
    ) -> Result<Option<Vec<bool>>, SynthError> {
        crate::eval::verify_tn_vs_network(self, reference, exhaustive_limit, patterns, seed)
    }

    /// Checks functional equivalence against another threshold network
    /// (interfaces matched by name; every output of `self` must exist in
    /// `other`), on the packed engine. Returns a counterexample in `self`'s
    /// input order, or `None`.
    ///
    /// # Errors
    ///
    /// Returns an error when the interfaces differ.
    pub fn equivalent_to(
        &self,
        other: &ThresholdNetwork,
        exhaustive_limit: u32,
        patterns: usize,
        seed: u64,
    ) -> Result<Option<Vec<bool>>, SynthError> {
        crate::eval::verify_tn_vs_tn(self, other, exhaustive_limit, patterns, seed)
    }

    /// Returns a copy containing only inputs and the gates reachable from
    /// the primary outputs (dead-gate elimination).
    pub fn compact(&self) -> ThresholdNetwork {
        let mut live = vec![false; self.nodes.len()];
        let mut stack: Vec<TnId> = self.outputs.iter().map(|&(_, id)| id).collect();
        while let Some(id) = stack.pop() {
            if std::mem::replace(&mut live[id.0 as usize], true) {
                continue;
            }
            if let Some(g) = self.gate(id) {
                stack.extend(g.inputs.iter().copied());
            }
        }
        let mut out = ThresholdNetwork::new(self.model.clone());
        let mut map: HashMap<TnId, TnId> = HashMap::new();
        for id in self.node_ids() {
            match &self.nodes[id.0 as usize].kind {
                TnKind::Input => {
                    let new = out
                        .add_input(self.name(id).to_string())
                        .expect("unique names in source");
                    map.insert(id, new);
                }
                TnKind::Gate(g) if live[id.0 as usize] => {
                    let new = out
                        .add_gate(
                            self.name(id).to_string(),
                            ThresholdGate {
                                inputs: g.inputs.iter().map(|i| map[i]).collect(),
                                weights: g.weights.clone(),
                                threshold: g.threshold,
                            },
                        )
                        .expect("validated in source");
                    map.insert(id, new);
                }
                TnKind::Gate(_) => {}
            }
        }
        for (name, id) in &self.outputs {
            out.add_output(name.clone(), map[id])
                .expect("unique outputs");
        }
        out
    }

    /// Summary statistics of the network (used by `tels info` and reports).
    pub fn report(&self) -> NetworkReport {
        let mut fanin_histogram = Vec::new();
        let mut max_weight = 0u64;
        let mut max_threshold = 0u64;
        let mut negative_weights = 0usize;
        for (_, g) in self.gates() {
            let f = g.inputs.len();
            if fanin_histogram.len() <= f {
                fanin_histogram.resize(f + 1, 0usize);
            }
            fanin_histogram[f] += 1;
            for &w in &g.weights {
                max_weight = max_weight.max(w.unsigned_abs());
                if w < 0 {
                    negative_weights += 1;
                }
            }
            max_threshold = max_threshold.max(g.threshold.unsigned_abs());
        }
        NetworkReport {
            inputs: self.num_inputs(),
            outputs: self.outputs.len(),
            gates: self.num_gates(),
            levels: self.depth(),
            area: self.area(),
            fanin_histogram,
            max_weight,
            max_threshold,
            negative_weights,
        }
    }

    /// Serializes as a `.tnet` text netlist (see [`parse_tnet`]).
    pub fn to_tnet(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, ".model {}", self.model);
        let input_names: Vec<&str> = self.inputs().iter().map(|&i| self.name(i)).collect();
        let _ = writeln!(out, ".inputs {}", input_names.join(" "));
        let output_names: Vec<&str> = self.outputs.iter().map(|(n, _)| n.as_str()).collect();
        let _ = writeln!(out, ".outputs {}", output_names.join(" "));
        for (id, g) in self.gates() {
            // `.gate <name> T=<t> <in>:<w> ...`; a gate without inputs keeps
            // the space after its threshold.
            let _ = write!(out, ".gate {} T={} ", self.name(id), g.threshold);
            for (k, (&i, &w)) in g.inputs.iter().zip(&g.weights).enumerate() {
                if k > 0 {
                    out.push(' ');
                }
                out.push_str(self.name(i));
                let _ = write!(out, ":{w}");
            }
            out.push('\n');
        }
        for (name, id) in &self.outputs {
            if self.name(*id) != name {
                let _ = writeln!(out, ".alias {} {}", name, self.name(*id));
            }
        }
        let _ = writeln!(out, ".end");
        out
    }
}

/// Summary statistics of a threshold network.
///
/// Produced by [`ThresholdNetwork::report`]; all quantities follow the
/// paper's cost model (levels = gate depth, area = Eq. 14).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetworkReport {
    /// Number of primary inputs.
    pub inputs: usize,
    /// Number of primary outputs.
    pub outputs: usize,
    /// Threshold gate count.
    pub gates: usize,
    /// Network depth in gate levels.
    pub levels: usize,
    /// Total RTD area (Eq. 14).
    pub area: u64,
    /// `fanin_histogram[k]` = number of gates with `k` inputs.
    pub fanin_histogram: Vec<usize>,
    /// Largest weight magnitude in the network.
    pub max_weight: u64,
    /// Largest threshold magnitude in the network.
    pub max_threshold: u64,
    /// Number of negative weights (inverting inputs).
    pub negative_weights: usize,
}

impl fmt::Display for NetworkReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "inputs:  {}", self.inputs)?;
        writeln!(f, "outputs: {}", self.outputs)?;
        writeln!(f, "gates:   {}", self.gates)?;
        writeln!(f, "levels:  {}", self.levels)?;
        writeln!(f, "area:    {}", self.area)?;
        writeln!(
            f,
            "max |w|: {}   max |T|: {}",
            self.max_weight, self.max_threshold
        )?;
        writeln!(f, "negative weights: {}", self.negative_weights)?;
        write!(f, "fanin histogram: ")?;
        for (k, n) in self.fanin_histogram.iter().enumerate() {
            if *n > 0 {
                write!(f, "{k}:{n} ")?;
            }
        }
        Ok(())
    }
}

/// Parses the `.tnet` format produced by [`ThresholdNetwork::to_tnet`].
///
/// Format: `.model`, `.inputs`, `.outputs`, one `.gate <name> T=<t>
/// <in:weight>...` line per gate (topologically ordered), optional
/// `.alias <output> <node>` lines, `.end`.
///
/// # Errors
///
/// Returns [`SynthError::Parse`] with a line number on malformed input.
pub fn parse_tnet(source: &str) -> Result<ThresholdNetwork, SynthError> {
    let mut tn = ThresholdNetwork::new("unnamed");
    let mut outputs: Vec<String> = Vec::new();
    let mut aliases: Vec<(String, String)> = Vec::new();
    let perr = |line: usize, message: String| SynthError::Parse { line, message };
    for (i, raw) in source.lines().enumerate() {
        let line_no = i + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut tok = line.split_whitespace();
        match tok.next().unwrap_or("") {
            ".model" => {
                tn.model = tok.next().unwrap_or("unnamed").to_string();
            }
            ".inputs" => {
                for name in tok {
                    tn.add_input(name)
                        .map_err(|e| perr(line_no, e.to_string()))?;
                }
            }
            ".outputs" => outputs.extend(tok.map(String::from)),
            ".gate" => {
                let name = tok
                    .next()
                    .ok_or_else(|| perr(line_no, ".gate requires a name".into()))?;
                let t_tok = tok
                    .next()
                    .ok_or_else(|| perr(line_no, ".gate requires T=<threshold>".into()))?;
                let threshold: i64 = t_tok
                    .strip_prefix("T=")
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| perr(line_no, format!("bad threshold `{t_tok}`")))?;
                let mut inputs = Vec::new();
                let mut weights = Vec::new();
                for term in tok {
                    let (sig, w) = term
                        .split_once(':')
                        .ok_or_else(|| perr(line_no, format!("bad term `{term}`")))?;
                    let id = tn
                        .find(sig)
                        .ok_or_else(|| perr(line_no, format!("unknown signal `{sig}`")))?;
                    let w: i64 = w
                        .parse()
                        .map_err(|_| perr(line_no, format!("bad weight in `{term}`")))?;
                    inputs.push(id);
                    weights.push(w);
                }
                tn.add_gate(
                    name,
                    ThresholdGate {
                        inputs,
                        weights,
                        threshold,
                    },
                )
                .map_err(|e| perr(line_no, e.to_string()))?;
            }
            ".alias" => {
                let o = tok
                    .next()
                    .ok_or_else(|| perr(line_no, ".alias requires two names".into()))?;
                let n = tok
                    .next()
                    .ok_or_else(|| perr(line_no, ".alias requires two names".into()))?;
                aliases.push((o.to_string(), n.to_string()));
            }
            ".end" => break,
            other => return Err(perr(line_no, format!("unknown directive `{other}`"))),
        }
    }
    for name in outputs {
        let target = aliases
            .iter()
            .find(|(o, _)| *o == name)
            .map(|(_, n)| n.clone())
            .unwrap_or_else(|| name.clone());
        let id = tn.find(&target).ok_or_else(|| SynthError::Parse {
            line: 0,
            message: format!("output `{name}` references unknown signal `{target}`"),
        })?;
        tn.add_output(name, id)?;
    }
    Ok(tn)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn majority_net() -> ThresholdNetwork {
        let mut tn = ThresholdNetwork::new("maj");
        let a = tn.add_input("a").unwrap();
        let b = tn.add_input("b").unwrap();
        let c = tn.add_input("c").unwrap();
        let m = tn
            .add_gate(
                "m",
                ThresholdGate {
                    inputs: vec![a, b, c],
                    weights: vec![1, 1, 1],
                    threshold: 2,
                },
            )
            .unwrap();
        tn.add_output("m", m).unwrap();
        tn
    }

    #[test]
    fn gate_eval() {
        let g = ThresholdGate {
            inputs: vec![TnId(0), TnId(1)],
            weights: vec![2, -1],
            threshold: 1,
        };
        assert!(g.eval(&[true, false]));
        assert!(g.eval(&[true, true])); // 2-1 = 1 >= 1
        assert!(!g.eval(&[false, false]));
        assert!(!g.eval(&[false, true]));
        assert_eq!(g.area(), 4);
        assert_eq!(g.weight_threshold_vector(), "⟨2, -1; 1⟩");
    }

    #[test]
    fn disturbed_eval() {
        let g = ThresholdGate {
            inputs: vec![TnId(0)],
            weights: vec![1],
            threshold: 1,
        };
        assert!(g.eval(&[true]));
        assert!(!g.eval_disturbed(&[0.9], &[true]));
        assert!(g.eval_disturbed(&[1.1], &[true]));
    }

    #[test]
    fn majority_network() {
        let tn = majority_net();
        assert_eq!(tn.num_gates(), 1);
        assert_eq!(tn.num_inputs(), 3);
        assert_eq!(tn.depth(), 1);
        assert_eq!(tn.area(), 5);
        for m in 0..8u32 {
            let assign = [(m & 1) != 0, (m & 2) != 0, (m & 4) != 0];
            let expect = assign.iter().filter(|&&b| b).count() >= 2;
            assert_eq!(tn.eval(&assign).unwrap(), vec![expect]);
        }
    }

    #[test]
    fn arity_mismatch_rejected() {
        let mut tn = ThresholdNetwork::new("t");
        let a = tn.add_input("a").unwrap();
        let r = tn.add_gate(
            "g",
            ThresholdGate {
                inputs: vec![a],
                weights: vec![1, 2],
                threshold: 1,
            },
        );
        assert!(matches!(r, Err(SynthError::Internal(_))));
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut tn = ThresholdNetwork::new("t");
        tn.add_input("a").unwrap();
        assert!(tn.add_input("a").is_err());
    }

    #[test]
    fn verify_against_boolean_network() {
        use tels_logic::{Cube, Sop, Var};
        let tn = majority_net();
        // Boolean majority: ab ∨ ac ∨ bc.
        let mut net = Network::new("maj");
        let a = net.add_input("a").unwrap();
        let b = net.add_input("b").unwrap();
        let c = net.add_input("c").unwrap();
        let m = net
            .add_node(
                "m",
                vec![a, b, c],
                Sop::from_cubes([
                    Cube::from_literals([(Var(0), true), (Var(1), true)]),
                    Cube::from_literals([(Var(0), true), (Var(2), true)]),
                    Cube::from_literals([(Var(1), true), (Var(2), true)]),
                ]),
            )
            .unwrap();
        net.add_output("m", m).unwrap();
        assert_eq!(tn.verify_against(&net, 14, 64, 1).unwrap(), None);
        // AND3 reference should mismatch.
        let mut and_net = Network::new("and");
        let a = and_net.add_input("a").unwrap();
        let b = and_net.add_input("b").unwrap();
        let c = and_net.add_input("c").unwrap();
        let m = and_net
            .add_node(
                "m",
                vec![a, b, c],
                Sop::from_cubes([Cube::from_literals([
                    (Var(0), true),
                    (Var(1), true),
                    (Var(2), true),
                ])]),
            )
            .unwrap();
        and_net.add_output("m", m).unwrap();
        assert!(tn.verify_against(&and_net, 14, 64, 1).unwrap().is_some());
    }

    #[test]
    fn tnet_round_trip() {
        let tn = majority_net();
        let text = tn.to_tnet();
        let back = parse_tnet(&text).unwrap();
        assert_eq!(back.num_gates(), 1);
        assert_eq!(back.num_inputs(), 3);
        for m in 0..8u32 {
            let assign = [(m & 1) != 0, (m & 2) != 0, (m & 4) != 0];
            assert_eq!(back.eval(&assign).unwrap(), tn.eval(&assign).unwrap());
        }
    }

    #[test]
    fn tnet_gate_lines() {
        let mut tn = majority_net();
        let a = tn.find("a").unwrap();
        let c = tn.find("c").unwrap();
        let k = tn
            .add_gate(
                "k",
                ThresholdGate {
                    inputs: Vec::new(),
                    weights: Vec::new(),
                    threshold: 0,
                },
            )
            .unwrap();
        let n = tn
            .add_gate(
                "n",
                ThresholdGate {
                    inputs: vec![c, a],
                    weights: vec![-3, 2],
                    threshold: -1,
                },
            )
            .unwrap();
        tn.add_output("k", k).unwrap();
        tn.add_output("y", n).unwrap();
        assert_eq!(
            tn.to_tnet(),
            ".model maj\n.inputs a b c\n.outputs m k y\n\
             .gate m T=2 a:1 b:1 c:1\n\
             .gate k T=0 \n\
             .gate n T=-1 c:-3 a:2\n\
             .alias y n\n.end\n"
        );
    }

    #[test]
    fn tnet_parse_errors() {
        assert!(matches!(
            parse_tnet(".gate g T=x a:1\n"),
            Err(SynthError::Parse { .. })
        ));
        assert!(matches!(
            parse_tnet(".bogus\n"),
            Err(SynthError::Parse { .. })
        ));
    }

    #[test]
    fn levels_count_gate_depth() {
        let mut tn = ThresholdNetwork::new("t");
        let a = tn.add_input("a").unwrap();
        let b = tn.add_input("b").unwrap();
        let g1 = tn
            .add_gate(
                "g1",
                ThresholdGate {
                    inputs: vec![a, b],
                    weights: vec![1, 1],
                    threshold: 2,
                },
            )
            .unwrap();
        let g2 = tn
            .add_gate(
                "g2",
                ThresholdGate {
                    inputs: vec![g1, a],
                    weights: vec![1, 1],
                    threshold: 1,
                },
            )
            .unwrap();
        tn.add_output("f", g2).unwrap();
        assert_eq!(tn.depth(), 2);
    }
}
