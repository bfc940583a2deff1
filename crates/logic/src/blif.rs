//! BLIF (Berkeley Logic Interchange Format) reader and writer.
//!
//! Supports the combinational subset used by the MCNC benchmarks:
//! `.model`, `.inputs`, `.outputs`, `.names` with ON-set or OFF-set covers,
//! line continuations (`\`), comments (`#`), and `.end`. Latches and
//! subcircuits are rejected with a parse error.
//!
//! The parser is streaming: [`parse_reader`] consumes any [`BufRead`] one
//! physical line at a time with a single reusable buffer, interns each
//! distinct signal name once, and converts cover rows directly into [`Cube`]s
//! without materializing intermediate SOP strings — so memory scales with the
//! network, not with the file. [`parse`] is a thin wrapper over a byte slice
//! and produces byte-identical networks.
//!
//! # Example
//!
//! ```
//! use tels_logic::blif;
//!
//! # fn main() -> Result<(), tels_logic::LogicError> {
//! let src = "\
//! .model and2
//! .inputs a b
//! .outputs f
//! .names a b f
//! 11 1
//! .end
//! ";
//! let net = blif::parse(src)?;
//! assert_eq!(net.eval(&[true, true])?, vec![true]);
//! let round_trip = blif::parse(&blif::write(&net))?;
//! assert_eq!(round_trip.num_logic_nodes(), net.num_logic_nodes());
//! # Ok(())
//! # }
//! ```

use std::collections::HashMap;
use std::fmt::Write as _;
use std::io::BufRead;

use crate::cube::{Cube, Var};
use crate::error::LogicError;
use crate::network::{Network, NodeId, NodeKind};
use crate::sop::Sop;

fn err(line: usize, message: impl Into<String>) -> LogicError {
    LogicError::Parse {
        line,
        message: message.into(),
    }
}

/// Interned-symbol driver state.
const SYM_FREE: u8 = 0;
const SYM_INPUT: u8 = 1;
const SYM_DRIVEN: u8 = 2;

/// One `.names` block, with fanins/output as interned symbols and the cover
/// already converted to cubes (over column variables, in row order).
struct NamesDecl {
    fanins: Vec<u32>,
    output: u32,
    cubes: Vec<Cube>,
    /// `Some(true)` for an ON-set cover, `Some(false)` for OFF-set, `None`
    /// while no row has been seen (empty cover = constant 0).
    polarity: Option<bool>,
}

/// Streaming parser state: symbol table plus the declarations seen so far.
struct Parser {
    /// Interned name table; `syms[id]` is the unique spelling.
    syms: Vec<String>,
    ids: HashMap<String, u32>,
    /// Per-symbol driver state (`SYM_*`), indexed like `syms`.
    state: Vec<u8>,
    model: String,
    inputs: Vec<u32>,
    outputs: Vec<u32>,
    decls: Vec<NamesDecl>,
    current: Option<NamesDecl>,
    done: bool,
}

impl Parser {
    fn new() -> Self {
        Parser {
            syms: Vec::new(),
            ids: HashMap::new(),
            state: Vec::new(),
            model: String::from("unnamed"),
            inputs: Vec::new(),
            outputs: Vec::new(),
            decls: Vec::new(),
            current: None,
            done: false,
        }
    }

    fn intern(&mut self, name: &str) -> u32 {
        if let Some(&id) = self.ids.get(name) {
            return id;
        }
        let id = self.syms.len() as u32;
        self.syms.push(name.to_string());
        self.ids.insert(name.to_string(), id);
        self.state.push(SYM_FREE);
        id
    }

    fn close_current(&mut self) {
        if let Some(decl) = self.current.take() {
            self.decls.push(decl);
        }
    }

    /// Processes one logical (continuation-joined, comment-stripped) line.
    fn line(&mut self, text: &str, line_no: usize) -> Result<(), LogicError> {
        let mut tokens = text.split_whitespace();
        let head = tokens.next().unwrap_or("");
        match head {
            ".model" => {
                self.close_current();
                self.model = tokens
                    .next()
                    .ok_or_else(|| err(line_no, ".model requires a name"))?
                    .to_string();
            }
            ".inputs" => {
                self.close_current();
                for name in tokens {
                    let sym = self.intern(name);
                    match self.state[sym as usize] {
                        SYM_INPUT => {
                            return Err(err(
                                line_no,
                                format!("duplicate `.inputs` declaration of `{name}`"),
                            ))
                        }
                        SYM_DRIVEN => {
                            return Err(err(
                                line_no,
                                format!(
                                "duplicate driver for `{name}`: already driven by a `.names` block"
                            ),
                            ))
                        }
                        _ => self.state[sym as usize] = SYM_INPUT,
                    }
                    self.inputs.push(sym);
                }
            }
            ".outputs" => {
                self.close_current();
                for name in tokens {
                    let sym = self.intern(name);
                    self.outputs.push(sym);
                }
            }
            ".names" => {
                self.close_current();
                let mut signals: Vec<u32> = tokens.map(|t| self.intern(t)).collect();
                let output = signals
                    .pop()
                    .ok_or_else(|| err(line_no, ".names requires at least an output"))?;
                let name = &self.syms[output as usize];
                match self.state[output as usize] {
                    SYM_INPUT => {
                        return Err(err(
                            line_no,
                            format!("duplicate driver for `{name}`: signal is declared in `.inputs`"),
                        ))
                    }
                    SYM_DRIVEN => {
                        return Err(err(
                            line_no,
                            format!(
                                "duplicate driver for `{name}`: already driven by an earlier `.names` block"
                            ),
                        ))
                    }
                    _ => self.state[output as usize] = SYM_DRIVEN,
                }
                self.current = Some(NamesDecl {
                    fanins: signals,
                    output,
                    cubes: Vec::new(),
                    polarity: None,
                });
            }
            ".end" => {
                self.close_current();
                self.done = true;
            }
            ".latch" | ".subckt" | ".gate" | ".mlatch" => {
                return Err(err(
                    line_no,
                    format!("`{head}` is not supported (combinational subset only)"),
                ));
            }
            other if other.starts_with('.') => {
                // Unknown directives (e.g. .default_input_arrival) are
                // skipped, but still terminate a running `.names` cover.
                self.close_current();
            }
            _ => {
                if self.current.is_some() {
                    self.cover_row(text, line_no)?;
                } else {
                    return Err(err(line_no, format!("unexpected line `{text}`")));
                }
            }
        }
        Ok(())
    }

    /// Parses one cover row of the open `.names` block directly into a cube.
    fn cover_row(&mut self, text: &str, line_no: usize) -> Result<(), LogicError> {
        let decl = self.current.as_mut().expect("a `.names` block is open");
        let parts: Vec<&str> = text.split_whitespace().collect();
        let (pattern, value) = match (decl.fanins.is_empty(), parts.as_slice()) {
            (true, [v]) => ("", *v),
            (false, [p, v]) => (*p, *v),
            _ => return Err(err(line_no, format!("malformed cover row `{text}`"))),
        };
        let mut cube = Cube::one();
        let mut cols = 0usize;
        for ch in pattern.chars() {
            match ch {
                '0' | '1' => {
                    // Columns are distinct positions, so the literal is fresh.
                    let fresh = cube.set_literal(Var(cols as u32), ch == '1');
                    debug_assert!(fresh);
                }
                '-' => {}
                other => {
                    return Err(err(
                        line_no,
                        format!("invalid pattern character `{other}` (expected `0`, `1`, or `-`)"),
                    ))
                }
            }
            cols += 1;
        }
        if cols != decl.fanins.len() {
            return Err(err(
                line_no,
                format!(
                    "pattern `{pattern}` has {cols} columns, expected {}",
                    decl.fanins.len()
                ),
            ));
        }
        let value = match value {
            "1" => true,
            "0" => false,
            other => return Err(err(line_no, format!("invalid output value `{other}`"))),
        };
        match decl.polarity {
            None => decl.polarity = Some(value),
            Some(p) if p != value => {
                return Err(err(line_no, "cover mixes ON-set and OFF-set rows"))
            }
            _ => {}
        }
        decl.cubes.push(cube);
        Ok(())
    }

    /// Builds the network from the accumulated declarations.
    fn finish(mut self) -> Result<Network, LogicError> {
        self.close_current();
        let nsyms = self.syms.len();
        let mut net = Network::new(self.model);
        // Symbol → defining declaration (duplicates were rejected at scan).
        let mut by_output = vec![usize::MAX; nsyms];
        for (i, d) in self.decls.iter().enumerate() {
            by_output[d.output as usize] = i;
        }
        let mut node_of: Vec<Option<NodeId>> = vec![None; nsyms];
        for &sym in &self.inputs {
            let id = net.add_input(self.syms[sym as usize].clone())?;
            node_of[sym as usize] = Some(id);
        }
        // Topologically order declarations (BLIF allows forward references).
        let mut state = vec![0u8; self.decls.len()]; // 0 unvisited, 1 visiting, 2 done
        let mut order: Vec<usize> = Vec::with_capacity(self.decls.len());
        let mut stack: Vec<(usize, usize)> = Vec::new();
        for root in 0..self.decls.len() {
            if state[root] != 0 {
                continue;
            }
            stack.push((root, 0));
            state[root] = 1;
            while let Some(&mut (d, ref mut next)) = stack.last_mut() {
                let decl = &self.decls[d];
                if *next < decl.fanins.len() {
                    let dep_sym = decl.fanins[*next] as usize;
                    *next += 1;
                    let dep = by_output[dep_sym];
                    if dep != usize::MAX {
                        match state[dep] {
                            0 => {
                                state[dep] = 1;
                                stack.push((dep, 0));
                            }
                            1 => return Err(LogicError::Cycle),
                            _ => {}
                        }
                    }
                } else {
                    state[d] = 2;
                    order.push(d);
                    stack.pop();
                }
            }
        }

        for d in order {
            let decl = &self.decls[d];
            let fanin_ids: Vec<NodeId> = decl
                .fanins
                .iter()
                .map(|&s| {
                    node_of[s as usize]
                        .ok_or_else(|| LogicError::UnknownSignal(self.syms[s as usize].clone()))
                })
                .collect::<Result<_, _>>()?;
            let sop = Sop::from_cubes(decl.cubes.clone());
            let sop = if decl.polarity == Some(false) {
                // OFF-set cover: the function is the complement.
                sop.complement()
            } else {
                sop
            };
            // Deduplicate fanins if the BLIF repeated a signal name.
            let (fanin_ids, sop) = dedup_fanins(fanin_ids, sop);
            let id = net.add_node(self.syms[decl.output as usize].clone(), fanin_ids, sop)?;
            node_of[decl.output as usize] = Some(id);
        }
        for &sym in &self.outputs {
            let name = &self.syms[sym as usize];
            let id =
                node_of[sym as usize].ok_or_else(|| LogicError::UnknownSignal(name.clone()))?;
            net.add_output(name.clone(), id)?;
        }
        Ok(net)
    }
}

/// Parses BLIF from any buffered reader, streaming one line at a time.
///
/// Signal names are interned once and cover rows become cubes immediately, so
/// peak memory tracks the network size rather than the input size. Produces
/// networks byte-identical (under [`write`](fn@write)) to [`parse`] on the same bytes.
///
/// # Errors
///
/// Returns [`LogicError::Parse`] with a 1-based line number for malformed
/// input — including a dangling `\` continuation at end of file, cover rows
/// with characters outside `0`/`1`/`-`, covers mixing ON- and OFF-set rows,
/// and duplicate drivers (two `.names` blocks for one signal, or a `.names`
/// block driving a declared `.inputs`). Returns [`LogicError::Io`] if the
/// reader fails, [`LogicError::Cycle`] for cyclic netlists, and
/// name-resolution errors for dangling references.
pub fn parse_reader<R: BufRead>(mut reader: R) -> Result<Network, LogicError> {
    let mut parser = Parser::new();
    let mut raw = String::new();
    let mut acc = String::new();
    let mut acc_start = 0usize;
    let mut pending = false;
    let mut line_no = 0usize;
    loop {
        raw.clear();
        let n = reader
            .read_line(&mut raw)
            .map_err(|e| LogicError::Io(e.to_string()))?;
        if n == 0 {
            break;
        }
        line_no += 1;
        let line = raw.strip_suffix('\n').unwrap_or(&raw);
        let line = line.strip_suffix('\r').unwrap_or(line);
        let no_comment = match line.find('#') {
            Some(pos) => &line[..pos],
            None => line,
        };
        let (cont, text) = match no_comment.trim_end().strip_suffix('\\') {
            Some(t) => (true, t),
            None => (false, no_comment),
        };
        if pending {
            acc.push(' ');
            acc.push_str(text);
            if !cont {
                pending = false;
                parser.line(&acc, acc_start)?;
            }
        } else if cont {
            acc.clear();
            acc.push_str(text);
            acc_start = line_no;
            pending = true;
        } else if !text.trim().is_empty() {
            parser.line(text, line_no)?;
        }
        if parser.done {
            break;
        }
    }
    if pending {
        return Err(err(
            line_no,
            "dangling `\\` line continuation at end of file",
        ));
    }
    parser.finish()
}

/// Parses BLIF source into a [`Network`].
///
/// Covers may be given as ON-set rows (output value `1`) or OFF-set rows
/// (output value `0`); mixing the two in one `.names` block is rejected, as
/// in SIS. A `.names` block with no rows defines the constant 0.
///
/// Equivalent to [`parse_reader`] over the source bytes; see there for the
/// error contract.
pub fn parse(source: &str) -> Result<Network, LogicError> {
    parse_reader(source.as_bytes())
}

/// Merges duplicate fanin entries, remapping the SOP onto unique fanins.
fn dedup_fanins(fanins: Vec<NodeId>, sop: Sop) -> (Vec<NodeId>, Sop) {
    let mut unique = Vec::new();
    let mut map = Vec::with_capacity(fanins.len());
    for f in fanins {
        let idx = match unique.iter().position(|&u| u == f) {
            Some(i) => i,
            None => {
                unique.push(f);
                unique.len() - 1
            }
        };
        map.push(Var(idx as u32));
    }
    // A merged pair in opposite phases makes the cube vanish; filter those.
    let cubes = sop.cubes().iter().filter_map(|c| {
        let mut out = Cube::one();
        for (v, phase) in c.literals() {
            if !out.set_literal(map[v.0 as usize], phase) {
                return None;
            }
        }
        Some(out)
    });
    let new_sop = Sop::from_cubes(cubes.collect::<Vec<_>>());
    (unique, new_sop)
}

/// Writes a network as BLIF text (ON-set covers).
pub fn write(net: &Network) -> String {
    let mut out = String::new();
    let _ = writeln!(out, ".model {}", net.model());
    let input_names: Vec<&str> = net.inputs().iter().map(|&id| net.name(id)).collect();
    let _ = writeln!(out, ".inputs {}", input_names.join(" "));
    let output_names: Vec<&str> = net.outputs().iter().map(|(n, _)| n.as_str()).collect();
    let _ = writeln!(out, ".outputs {}", output_names.join(" "));

    let order = net.topo_order().expect("network is acyclic");
    for id in order {
        if let NodeKind::Logic { fanins, sop } = net.kind(id) {
            let fanin_names: Vec<&str> = fanins.iter().map(|&f| net.name(f)).collect();
            let _ = writeln!(out, ".names {} {}", fanin_names.join(" "), net.name(id));
            if sop.is_one() {
                let _ = writeln!(out, "{}1", "-".repeat(fanins.len()));
                continue;
            }
            for cube in sop.cubes() {
                let mut pattern = vec!['-'; fanins.len()];
                for (v, phase) in cube.literals() {
                    pattern[v.0 as usize] = if phase { '1' } else { '0' };
                }
                let _ = writeln!(out, "{} 1", pattern.iter().collect::<String>());
            }
        }
    }
    // Outputs that alias inputs or other signals need a buffer in BLIF if the
    // output name differs from the node name.
    for (name, id) in net.outputs() {
        if net.name(*id) != name {
            let _ = writeln!(out, ".names {} {}\n1 1", net.name(*id), name);
        }
    }
    let _ = writeln!(out, ".end");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{check_equivalence, EquivOptions};
    use std::io::{self, BufReader, Read};

    #[test]
    fn parse_simple_model() {
        let net = parse(
            ".model m\n.inputs a b c\n.outputs f\n.names a b g\n11 1\n.names g c f\n1- 1\n-1 1\n.end\n",
        )
        .unwrap();
        assert_eq!(net.model(), "m");
        assert_eq!(net.num_inputs(), 3);
        assert_eq!(net.num_logic_nodes(), 2);
        assert_eq!(net.eval(&[true, true, false]).unwrap(), vec![true]);
        assert_eq!(net.eval(&[false, true, false]).unwrap(), vec![false]);
    }

    #[test]
    fn forward_references_allowed() {
        let net =
            parse(".model m\n.inputs a b\n.outputs f\n.names g f\n1 1\n.names a b g\n11 1\n.end\n")
                .unwrap();
        assert_eq!(net.eval(&[true, true]).unwrap(), vec![true]);
    }

    #[test]
    fn off_set_cover_is_complemented() {
        // f defined by its OFF-set: f = 0 when a=1,b=1 → f = NAND.
        let net = parse(".model m\n.inputs a b\n.outputs f\n.names a b f\n11 0\n.end\n").unwrap();
        assert_eq!(net.eval(&[true, true]).unwrap(), vec![false]);
        assert_eq!(net.eval(&[true, false]).unwrap(), vec![true]);
    }

    #[test]
    fn constants() {
        let net = parse(
            ".model m\n.inputs a\n.outputs one zero f\n.names one\n1\n.names zero\n.names a f\n1 1\n.end\n",
        )
        .unwrap();
        let out = net.eval(&[false]).unwrap();
        assert_eq!(out, vec![true, false, false]);
    }

    #[test]
    fn comments_and_continuations() {
        let net = parse(
            ".model m # a model\n.inputs a \\\nb\n.outputs f\n.names a b f # and\n11 1\n.end\n",
        )
        .unwrap();
        assert_eq!(net.num_inputs(), 2);
        assert_eq!(net.eval(&[true, true]).unwrap(), vec![true]);
    }

    #[test]
    fn cycle_detected() {
        let r = parse(".model m\n.inputs a\n.outputs f\n.names g f\n1 1\n.names f g\n1 1\n.end\n");
        assert!(matches!(r, Err(LogicError::Cycle)));
    }

    #[test]
    fn latch_rejected() {
        let r = parse(".model m\n.inputs a\n.outputs q\n.latch a q re clk 0\n.end\n");
        assert!(matches!(r, Err(LogicError::Parse { .. })));
    }

    #[test]
    fn mixed_cover_rejected() {
        let r = parse(".model m\n.inputs a b\n.outputs f\n.names a b f\n11 1\n00 0\n.end\n");
        // The error points at the first row that flips polarity.
        assert!(matches!(r, Err(LogicError::Parse { line: 6, .. })));
    }

    #[test]
    fn bad_pattern_width_rejected() {
        let r = parse(".model m\n.inputs a b\n.outputs f\n.names a b f\n1 1\n.end\n");
        assert!(matches!(r, Err(LogicError::Parse { .. })));
    }

    #[test]
    fn unknown_output_rejected() {
        let r = parse(".model m\n.inputs a\n.outputs nope\n.end\n");
        assert!(matches!(r, Err(LogicError::UnknownSignal(n)) if n == "nope"));
    }

    #[test]
    fn duplicate_fanin_names_merged() {
        let net = parse(".model m\n.inputs a\n.outputs f\n.names a a f\n11 1\n.end\n").unwrap();
        assert_eq!(net.eval(&[true]).unwrap(), vec![true]);
        assert_eq!(net.eval(&[false]).unwrap(), vec![false]);
    }

    #[test]
    fn truncated_names_table_missing_output_value() {
        // Table row cut off before the output column.
        let r = parse(".model m\n.inputs a b\n.outputs f\n.names a b f\n11 1\n10\n.end\n");
        assert!(matches!(r, Err(LogicError::Parse { line: 6, .. })));
    }

    #[test]
    fn truncated_names_table_at_eof_is_constant_zero() {
        // `.names` with no rows and no `.end` — a truncated file. BLIF
        // defines the empty cover as the constant 0; must not panic.
        let net = parse(".model m\n.inputs a b\n.outputs f\n.names a b f\n").unwrap();
        assert_eq!(net.eval(&[true, true]).unwrap(), vec![false]);
    }

    #[test]
    fn names_without_signals_rejected() {
        let r = parse(".model m\n.inputs a\n.outputs f\n.names\n1 1\n.end\n");
        assert!(matches!(r, Err(LogicError::Parse { line: 4, .. })));
    }

    #[test]
    fn bad_cube_character_rejected() {
        // The `x` is flagged on the row's own line, not the `.names` header.
        let r = parse(".model m\n.inputs a b\n.outputs f\n.names a b f\n1x 1\n.end\n");
        match r {
            Err(LogicError::Parse { line, message }) => {
                assert_eq!(line, 5);
                assert!(message.contains("invalid pattern character"), "{message}");
            }
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn bad_output_value_rejected() {
        let r = parse(".model m\n.inputs a b\n.outputs f\n.names a b f\n11 2\n.end\n");
        assert!(matches!(r, Err(LogicError::Parse { line: 5, .. })));
    }

    #[test]
    fn extra_row_tokens_rejected() {
        let r = parse(".model m\n.inputs a b\n.outputs f\n.names a b f\n1 1 1\n.end\n");
        assert!(matches!(r, Err(LogicError::Parse { line: 5, .. })));
    }

    #[test]
    fn dangling_latch_variants_rejected() {
        for head in [".latch", ".mlatch", ".subckt", ".gate"] {
            // Even a bare dangling directive (no operands) must be a parse
            // error, not a panic.
            let src = format!(".model m\n.inputs a\n.outputs f\n.names a f\n1 1\n{head}\n.end\n");
            let r = parse(&src);
            assert!(
                matches!(r, Err(LogicError::Parse { line: 6, .. })),
                "{head} gave {r:?}"
            );
        }
    }

    #[test]
    fn text_after_end_is_ignored() {
        let net = parse(".model m\n.inputs a\n.outputs f\n.names a f\n1 1\n.end\ngarbage here\n")
            .unwrap();
        assert_eq!(net.eval(&[true]).unwrap(), vec![true]);
    }

    #[test]
    fn missing_end_is_tolerated() {
        let net = parse(".model m\n.inputs a\n.outputs f\n.names a f\n1 1\n").unwrap();
        assert_eq!(net.eval(&[false]).unwrap(), vec![false]);
    }

    #[test]
    fn model_without_name_rejected() {
        let r = parse(".model\n.inputs a\n.outputs f\n.names a f\n1 1\n.end\n");
        assert!(matches!(r, Err(LogicError::Parse { line: 1, .. })));
    }

    #[test]
    fn names_output_colliding_with_input_rejected() {
        // A `.names` block driving a declared input is a duplicate driver,
        // reported at the `.names` line.
        let r = parse(".model m\n.inputs a\n.outputs a\n.names a\n1\n.end\n");
        assert!(matches!(r, Err(LogicError::Parse { line: 4, .. })));
    }

    #[test]
    fn duplicate_names_driver_rejected() {
        // Two `.names` blocks driving `f`: the second is flagged.
        let r =
            parse(".model m\n.inputs a b\n.outputs f\n.names a f\n1 1\n.names b f\n1 1\n.end\n");
        match r {
            Err(LogicError::Parse { line, message }) => {
                assert_eq!(line, 6);
                assert!(message.contains("duplicate driver"), "{message}");
            }
            other => panic!("expected duplicate-driver error, got {other:?}"),
        }
    }

    #[test]
    fn inputs_after_names_driver_rejected() {
        // `.inputs` declaring a signal already driven by `.names` is flagged
        // at the `.inputs` line (declarations may appear in any order).
        let r = parse(".model m\n.names x\n1\n.inputs x\n.outputs x\n.end\n");
        assert!(matches!(r, Err(LogicError::Parse { line: 4, .. })));
    }

    #[test]
    fn duplicate_inputs_declaration_rejected() {
        let r = parse(".model m\n.inputs a a\n.outputs a\n.end\n");
        assert!(matches!(r, Err(LogicError::Parse { line: 2, .. })));
    }

    #[test]
    fn dangling_continuation_at_eof_rejected() {
        for src in [
            ".model m\n.inputs a \\",
            ".model m\n.inputs a \\\n",
            ".model m\n.inputs a \\\nb \\\n",
        ] {
            let r = parse(src);
            match r {
                Err(LogicError::Parse { line, message }) => {
                    assert!(line >= 2, "line {line} for {src:?}");
                    assert!(message.contains("dangling"), "{message}");
                }
                other => panic!("expected dangling-continuation error for {src:?}, got {other:?}"),
            }
        }
    }

    #[test]
    fn streaming_chunked_reader_matches_string_parse() {
        // A tiny BufReader capacity forces read_line to assemble lines from
        // many partial fills; the result must be byte-identical.
        let src = ".model m # hdr\n.inputs a b c \\\nd\n.outputs f g\n.names a b t1\n11 1\n.names t1 c t2 # mid\n1- 1\n-1 1\n.names t2 d f\n10 1\n.names a d g\n00 0\n.end\n";
        let from_str = parse(src).unwrap();
        let from_stream = parse_reader(BufReader::with_capacity(3, src.as_bytes())).unwrap();
        assert_eq!(write(&from_str), write(&from_stream));
    }

    #[test]
    fn reader_io_error_surfaces() {
        struct Failing;
        impl Read for Failing {
            fn read(&mut self, _buf: &mut [u8]) -> io::Result<usize> {
                Err(io::Error::other("disk on fire"))
            }
        }
        let r = parse_reader(BufReader::new(Failing));
        assert!(matches!(r, Err(LogicError::Io(_))));
    }

    #[test]
    fn repeated_column_in_pattern_rejected_via_duplicate_fanin_merge() {
        // `a a` dedups to one fanin; a conflicting 1/0 row then vanishes,
        // leaving the constant 0 — exercised to pin that it cannot panic.
        let net = parse(".model m\n.inputs a\n.outputs f\n.names a a f\n10 1\n.end\n").unwrap();
        assert_eq!(net.eval(&[true]).unwrap(), vec![false]);
    }

    #[test]
    fn round_trip_preserves_function() {
        let src = ".model m\n.inputs a b c d\n.outputs f g\n.names a b t1\n11 1\n.names t1 c t2\n1- 1\n-1 1\n.names t2 d f\n10 1\n.names a d g\n00 1\n.end\n";
        let net = parse(src).unwrap();
        let round = parse(&write(&net)).unwrap();
        let r = check_equivalence(&net, &round, &EquivOptions::default()).unwrap();
        assert!(r.is_equivalent());
    }

    #[test]
    fn output_aliasing_input_round_trips() {
        // PO "f" points directly at input node "a" — the writer must emit a buffer.
        let mut net = Network::new("alias");
        let a = net.add_input("a").unwrap();
        net.add_output("f", a).unwrap();
        let round = parse(&write(&net)).unwrap();
        assert_eq!(round.eval(&[true]).unwrap(), vec![true]);
        assert_eq!(round.eval(&[false]).unwrap(), vec![false]);
    }
}
