//! BLIF (Berkeley Logic Interchange Format) reader and writer.
//!
//! Supports the combinational subset used by the MCNC benchmarks:
//! `.model`, `.inputs`, `.outputs`, `.names` with ON-set or OFF-set covers,
//! line continuations (`\`), comments (`#`), and `.end`. Latches and
//! subcircuits are rejected with a parse error.
//!
//! The parser is streaming: [`parse_reader`] scans the bytes its
//! [`BufRead`] has buffered for line ends and reads each physical line in
//! place, copying only a line that straddles two buffer fills (or a
//! continued line) into one reusable buffer. It interns each distinct
//! signal name once, turns cover rows into [`Cube`]s as they are read, and
//! moves names and covers into the network when it is built — so memory
//! scales with the network, not with the file. [`parse`] is a thin wrapper
//! over a byte slice and produces byte-identical networks.
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
use std::sync::Arc;

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

/// Symbols the name table holds before it first grows: enough for the
/// wide benchmark networks (~160 names) without a rehash.
const INITIAL_SYMBOLS: usize = 256;

/// Interned-symbol driver state.
const SYM_FREE: u8 = 0;
const SYM_INPUT: u8 = 1;
const SYM_DRIVEN: u8 = 2;

/// One `.names` block, with fanins/output as interned symbols and the cover
/// already converted to cubes (over column variables, in row order).
struct NamesDecl {
    fanins: Vec<u32>,
    /// Some signal appears twice among `fanins`.
    repeats: bool,
    output: u32,
    cubes: Vec<Cube>,
    /// `Some(true)` for an ON-set cover, `Some(false)` for OFF-set, `None`
    /// while no row has been seen (empty cover = constant 0).
    polarity: Option<bool>,
}

/// Streaming parser state: symbol table plus the declarations seen so far.
struct Parser {
    /// Interned name table: each distinct spelling and its symbol id (as
    /// a `NodeId` of the same number). The one copy of each name: the
    /// network shares it, and [`Parser::finish`] hands the table itself
    /// over once the ids are node ids.
    ids: HashMap<Arc<str>, NodeId>,
    /// Per-symbol driver state (`SYM_*`), indexed by symbol id.
    state: Vec<u8>,
    model: String,
    inputs: Vec<u32>,
    outputs: Vec<u32>,
    decls: Vec<NamesDecl>,
    current: Option<NamesDecl>,
    /// The open block's rows, moved into it, at their exact size, when
    /// it closes.
    rows: Vec<Cube>,
    /// The signals of the `.names` line being read.
    signals: Vec<u32>,
    done: bool,
}

impl Parser {
    fn new() -> Self {
        Parser {
            ids: HashMap::with_capacity(INITIAL_SYMBOLS),
            state: Vec::new(),
            model: String::from("unnamed"),
            inputs: Vec::new(),
            outputs: Vec::new(),
            decls: Vec::new(),
            current: None,
            rows: Vec::new(),
            signals: Vec::new(),
            done: false,
        }
    }

    fn intern(&mut self, name: &str) -> u32 {
        if let Some(&id) = self.ids.get(name) {
            return id.0;
        }
        let id = self.state.len() as u32;
        self.ids.insert(Arc::from(name), NodeId(id));
        self.state.push(SYM_FREE);
        id
    }

    fn close_current(&mut self) {
        if let Some(mut decl) = self.current.take() {
            decl.cubes = self.rows.drain(..).collect();
            self.decls.push(decl);
        }
    }

    /// Processes one logical (continuation-joined, comment-stripped) line.
    /// `ascii` tells whether the line is known to be ASCII.
    fn line(&mut self, text: &str, ascii: bool, line_no: usize) -> Result<(), LogicError> {
        let mut tokens = tokens(text, ascii);
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
                let mut name = "";
                self.signals.clear();
                for t in tokens {
                    name = t;
                    let sym = self.intern(t);
                    self.signals.push(sym);
                }
                let output = self
                    .signals
                    .pop()
                    .ok_or_else(|| err(line_no, ".names requires at least an output"))?;
                let signals = self.signals.to_vec();
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
                let repeats = (1..signals.len()).any(|i| signals[..i].contains(&signals[i]));
                self.current = Some(NamesDecl {
                    fanins: signals,
                    repeats,
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
                    self.cover_row(text, head, tokens, line_no)?;
                } else {
                    return Err(err(line_no, format!("unexpected line `{text}`")));
                }
            }
        }
        Ok(())
    }

    /// Parses one cover row of the open `.names` block directly into a
    /// cube: `head` is the row's first token and `rest` the ones after it.
    fn cover_row(
        &mut self,
        text: &str,
        head: &str,
        mut rest: Tokens<'_>,
        line_no: usize,
    ) -> Result<(), LogicError> {
        let decl = self.current.as_mut().expect("a `.names` block is open");
        let (pattern, value) = match (decl.fanins.is_empty(), rest.next()) {
            (true, None) => ("", head),
            (false, Some(v)) if rest.next().is_none() => (head, v),
            _ => return Err(err(line_no, format!("malformed cover row `{text}`"))),
        };
        // Columns are distinct positions, so every literal is fresh; up to
        // 64 columns the literals gather in two words.
        let (mut ones, mut zeros) = (0u64, 0u64);
        let mut cube = Cube::one();
        for (col, &b) in pattern.as_bytes().iter().enumerate() {
            match b {
                b'0' | b'1' if col < 64 => {
                    *if b == b'1' { &mut ones } else { &mut zeros } |= 1 << col;
                }
                b'0' | b'1' => {
                    let fresh = cube.set_literal(Var(col as u32), b == b'1');
                    debug_assert!(fresh);
                }
                b'-' => {}
                _ => {
                    let other = pattern[col..]
                        .chars()
                        .next()
                        .expect("a character starts here");
                    return Err(err(
                        line_no,
                        format!("invalid pattern character `{other}` (expected `0`, `1`, or `-`)"),
                    ));
                }
            }
        }
        let cols = pattern.len();
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
        cube.add_low_literals(ones, zeros);
        self.rows.push(cube);
        Ok(())
    }

    /// Builds the network from the accumulated declarations, moving each
    /// name and cover into it.
    fn finish(mut self) -> Result<Network, LogicError> {
        self.close_current();
        let nsyms = self.state.len();
        let mut syms: Vec<Option<Arc<str>>> = vec![None; nsyms];
        for (name, id) in &self.ids {
            syms[id.index()] = Some(Arc::clone(name));
        }
        // A symbol's name moves into the node it names; the names of the
        // symbols that name no node are left for the error.
        fn take(syms: &mut [Option<Arc<str>>], sym: u32) -> Arc<str> {
            syms[sym as usize]
                .take()
                .expect("each symbol names one node")
        }
        fn unknown(syms: &[Option<Arc<str>>], sym: u32) -> LogicError {
            LogicError::UnknownSignal(syms[sym as usize].as_deref().unwrap_or("").to_string())
        }
        let mut net = Network::new(self.model);
        net.reserve(self.inputs.len() + self.decls.len());
        // Symbol → defining declaration (duplicates were rejected at scan).
        let mut by_output = vec![usize::MAX; nsyms];
        for (i, d) in self.decls.iter().enumerate() {
            by_output[d.output as usize] = i;
        }
        let mut node_of: Vec<Option<NodeId>> = vec![None; nsyms];
        // Each input and each driven symbol names one node, so the
        // interned names are unique node names.
        for &sym in &self.inputs {
            node_of[sym as usize] = Some(net.push_named(take(&mut syms, sym), NodeKind::Input));
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
            let decl = &mut self.decls[d];
            // Symbols become node ids in the symbol list's own allocation.
            let fanin_ids: Vec<NodeId> = std::mem::take(&mut decl.fanins)
                .into_iter()
                .map(|s| node_of[s as usize].ok_or_else(|| unknown(&syms, s)))
                .collect::<Result<_, _>>()?;
            let sop = Sop::from_cubes(std::mem::take(&mut decl.cubes));
            let sop = if decl.polarity == Some(false) {
                // OFF-set cover: the function is the complement.
                sop.complement()
            } else {
                sop
            };
            // Deduplicate fanins if the BLIF repeated a signal name.
            let (fanin_ids, sop) = if decl.repeats {
                dedup_fanins(fanin_ids, sop)
            } else {
                (fanin_ids, sop)
            };
            // The fanins exist and are distinct, and the cover reads only
            // their columns: the network need not check the node again.
            let kind = NodeKind::Logic {
                fanins: fanin_ids,
                sop,
            };
            let name = take(&mut syms, decl.output);
            node_of[decl.output as usize] = Some(net.push_named(name, kind));
        }
        for &sym in &self.outputs {
            let id = node_of[sym as usize].ok_or_else(|| unknown(&syms, sym))?;
            net.add_output(net.name(id).to_string(), id)?;
        }
        // Every symbol is now a node: an undriven one failed above.
        for id in self.ids.values_mut() {
            *id = node_of[id.index()].expect("every symbol names a node");
        }
        net.set_names(self.ids);
        Ok(net)
    }
}

/// Whether `char::is_whitespace` holds for an ASCII byte.
fn is_space(b: u8) -> bool {
    matches!(b, b' ' | b'\t' | b'\n' | 0x0b | 0x0c | b'\r')
}

/// The tokens of a line, as `str::split_whitespace` gives them: an ASCII
/// line is split byte by byte, any other line by `split_whitespace`.
/// `ascii` tells whether the caller already knows the line is ASCII.
fn tokens(text: &str, ascii: bool) -> Tokens<'_> {
    Tokens {
        text,
        pos: 0,
        unicode: (!ascii && !text.is_ascii()).then(|| text.split_whitespace()),
    }
}

struct Tokens<'a> {
    text: &'a str,
    pos: usize,
    unicode: Option<std::str::SplitWhitespace<'a>>,
}

impl<'a> Iterator for Tokens<'a> {
    type Item = &'a str;

    fn next(&mut self) -> Option<&'a str> {
        if let Some(words) = &mut self.unicode {
            return words.next();
        }
        let bytes = self.text.as_bytes();
        let start = self.pos + bytes[self.pos..].iter().position(|&b| !is_space(b))?;
        let len = bytes[start..].iter().position(|&b| is_space(b));
        self.pos = len.map_or(bytes.len(), |len| start + len);
        Some(&self.text[start..self.pos])
    }
}

/// `bytes` as text: `Err` when it is not UTF-8, with the message of the
/// standard library's line reader.
fn utf8(bytes: &[u8]) -> Result<&str, LogicError> {
    std::str::from_utf8(bytes).map_err(|_| invalid_utf8())
}

fn invalid_utf8() -> LogicError {
    LogicError::Io("stream did not contain valid UTF-8".to_string())
}

/// Joins continued lines and hands each logical line to the parser.
struct Lines {
    parser: Parser,
    /// The logical line being continued with `\`, and its first line.
    acc: String,
    acc_start: usize,
    pending: bool,
    line_no: usize,
}

impl Lines {
    /// Processes one physical line, without its `\n`; `comment` is the
    /// position of its first `#`, if the caller has found it, and `ascii`
    /// whether the line is known to be ASCII.
    fn physical(
        &mut self,
        line: &str,
        comment: Option<usize>,
        ascii: bool,
    ) -> Result<(), LogicError> {
        self.line_no += 1;
        let no_comment = match comment {
            Some(pos) => &line[..pos],
            None => line.strip_suffix('\r').unwrap_or(line),
        };
        // `trim_end`, byte by byte on an ASCII line.
        let end = if ascii {
            let bytes = no_comment.as_bytes();
            bytes
                .iter()
                .rposition(|&b| !is_space(b))
                .map_or(0, |i| i + 1)
        } else {
            no_comment.trim_end().len()
        };
        let (cont, text) = match no_comment[..end].strip_suffix('\\') {
            Some(t) => (true, t),
            None => (false, no_comment),
        };
        if self.pending {
            self.acc.push(' ');
            self.acc.push_str(text);
            if !cont {
                self.pending = false;
                self.parser.line(&self.acc, false, self.acc_start)?;
            }
        } else if cont {
            self.acc.clear();
            self.acc.push_str(text);
            self.acc_start = self.line_no;
            self.pending = true;
        } else if end > 0 {
            self.parser.line(text, ascii, self.line_no)?;
        }
        Ok(())
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
    let mut lines = Lines {
        parser: Parser::new(),
        acc: String::new(),
        acc_start: 0,
        pending: false,
        line_no: 0,
    };
    // The start of a line that the buffered bytes end inside.
    let mut partial: Vec<u8> = Vec::new();
    loop {
        let buf = reader
            .fill_buf()
            .map_err(|e| LogicError::Io(e.to_string()))?;
        if buf.is_empty() {
            // A last line without a line end.
            if !partial.is_empty() {
                let line = utf8(&partial)?;
                lines.physical(line, line.find('#'), false)?;
            }
            break;
        }
        // The buffered bytes up to their last line end hold whole lines,
        // save for a first line that `partial` began.
        let whole = buf.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
        let mut start = 0;
        if whole > 0 && !partial.is_empty() {
            let end = buf.iter().position(|&b| b == b'\n').expect("a line end");
            partial.extend_from_slice(&buf[..end]);
            let line = utf8(&partial)?;
            lines.physical(line, line.find('#'), false)?;
            partial.clear();
            if lines.parser.done {
                break;
            }
            start = end + 1;
        }
        // One UTF-8 check for all whole lines; the lines before an invalid
        // byte are still read first, as a line-by-line reader would.
        let (text, valid) = match std::str::from_utf8(&buf[start..whole]) {
            Ok(text) => (text, true),
            Err(e) => (utf8(&buf[start..start + e.valid_up_to()])?, false),
        };
        let ascii = text.is_ascii();
        // One pass finds each line's end and its first `#`.
        let (mut line_start, mut comment) = (0, None);
        for (i, &b) in text.as_bytes().iter().enumerate() {
            if b == b'\n' {
                let line = &text[line_start..i];
                lines.physical(line, comment.map(|c| c - line_start), ascii)?;
                if lines.parser.done {
                    break;
                }
                (line_start, comment) = (i + 1, None);
            } else if b == b'#' && comment.is_none() {
                comment = Some(i);
            }
        }
        if lines.parser.done {
            break;
        }
        if !valid {
            // The line holding the invalid byte.
            return Err(invalid_utf8());
        }
        partial.extend_from_slice(&buf[whole..]);
        let used = buf.len();
        reader.consume(used);
    }
    if lines.pending {
        return Err(err(
            lines.line_no,
            "dangling `\\` line continuation at end of file",
        ));
    }
    lines.parser.finish()
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
