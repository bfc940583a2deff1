//! Trace exporters: Chrome `trace_event` JSON and a plain-text profile
//! tree.
//!
//! The Chrome export loads directly into `chrome://tracing` or
//! [Perfetto](https://ui.perfetto.dev); [`validate_chrome_json`] is the
//! round-trip oracle used by tests and `tels trace-check` to prove the
//! export well-formed (every `B` matched by an `E` on the same thread, in
//! stack order, and every gate named once in the provenance journal).

use std::collections::{BTreeMap, BTreeSet};

use crate::json::Json;
use crate::{ArgValue, Args, EventKind, Trace, PROVENANCE_CAT};

/// Names for the ids a trace records, by index: `gates[i]` names the
/// threshold-network signal `TnId` `i`, `nodes[i]` the source-network
/// node `NodeId` `i`. An id without a name exports as `""`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Names<'a> {
    /// Threshold-network signal names, by index.
    pub gates: &'a [&'a str],
    /// Source-network node names, by index.
    pub nodes: &'a [&'a str],
}

/// Serializes a trace in Chrome `trace_event` JSON object format
/// (`{"traceEvents": [...]}`), loadable in `chrome://tracing` and
/// Perfetto. Thread labels become `thread_name` metadata events; recorded
/// gate and node ids are named through `names`.
pub fn chrome_trace(trace: &Trace, names: &Names<'_>) -> String {
    let named = |names: &[&str], i: usize| Json::str(names.get(i).copied().unwrap_or(""));
    let arg = |value| match value {
        ArgValue::UInt(u) => Json::Num(u as f64),
        ArgValue::Str(s) => Json::str(s),
        ArgValue::Node(i) => named(names.nodes, i),
    };
    let mut events: Vec<Json> = Vec::with_capacity(trace.events.len() + trace.thread_labels.len());
    for (tid, label) in &trace.thread_labels {
        events.push(Json::obj([
            ("ph", Json::str("M")),
            ("name", Json::str("thread_name")),
            ("pid", Json::Num(1.0)),
            ("tid", Json::Num(*tid as f64)),
            ("args", Json::obj([("name", Json::str(label.clone()))])),
        ]));
    }
    for e in &trace.events {
        let (ph, cat, name, args) = match &e.kind {
            EventKind::Begin { cat, name } => ("B", *cat, Json::str(*name), None),
            EventKind::End { cat, name, args } => {
                let args: Vec<_> = args.iter().map(|&(k, v)| (k.to_string(), arg(v))).collect();
                (
                    "E",
                    *cat,
                    Json::str(*name),
                    (!args.is_empty()).then_some(Json::Obj(args)),
                )
            }
            EventKind::Instant { cat, name } => {
                ("i", *cat, Json::str(*name), Some(Json::Obj(vec![])))
            }
            EventKind::Provenance {
                gate,
                path,
                node,
                psi,
            } => {
                let node = node.map_or(Json::str(""), |i| named(names.nodes, i));
                let args = Json::obj([
                    ("path", Json::str(*path)),
                    ("node", node),
                    ("psi", Json::Num(*psi as f64)),
                ]);
                ("i", PROVENANCE_CAT, named(names.gates, *gate), Some(args))
            }
        };
        let mut pairs = vec![
            ("ph", Json::str(ph)),
            ("cat", Json::str(cat)),
            ("name", name),
            ("pid", Json::Num(1.0)),
            ("tid", Json::Num(e.tid as f64)),
            // Microseconds, the Chrome-trace time unit.
            ("ts", Json::Num(e.ts as f64 / 1000.0)),
        ];
        if ph == "i" {
            pairs.push(("s", Json::str("t")));
        }
        pairs.extend(args.map(|args| ("args", args)));
        events.push(Json::obj(pairs));
    }
    let doc = Json::obj([
        ("traceEvents", Json::Arr(events)),
        ("displayTimeUnit", Json::str("ms")),
    ]);
    let mut text = doc.pretty();
    text.push('\n');
    text
}

/// A completed span reconstructed from matched begin/end events.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Category (crate) the span was recorded under.
    pub cat: &'static str,
    /// Span name.
    pub name: &'static str,
    /// Thread that ran the span.
    pub tid: u64,
    /// Start, nanoseconds since the trace epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Arguments recorded on the span.
    pub args: Args,
    /// Index of the enclosing span (on the same thread) in the list
    /// [`spans`] returns, if any.
    pub parent: Option<usize>,
}

/// Reconstructs completed spans by matching begin/end pairs per thread,
/// in the order they began.
///
/// # Errors
///
/// Returns a description of the first mismatch (an end without a begin, a
/// name mismatch, or a begin left open), which is what the format tests
/// assert never happens.
pub fn spans(trace: &Trace) -> Result<Vec<SpanRecord>, String> {
    let mut open: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
    let mut out: Vec<SpanRecord> = Vec::new();
    for e in &trace.events {
        let stack = open.entry(e.tid).or_default();
        match &e.kind {
            EventKind::Begin { cat, name } => {
                out.push(SpanRecord {
                    cat,
                    name,
                    tid: e.tid,
                    start_ns: e.ts,
                    dur_ns: 0,
                    args: Args::EMPTY,
                    parent: stack.last().copied(),
                });
                stack.push(out.len() - 1);
            }
            EventKind::End { cat, name, args } => {
                let Some(i) = stack.pop() else {
                    return Err(format!("tid {}: end `{name}` without begin", e.tid));
                };
                let span = &mut out[i];
                if (span.cat, span.name) != (*cat, *name) {
                    return Err(format!(
                        "tid {}: end `{cat}:{name}` closes begin `{}:{}`",
                        e.tid, span.cat, span.name
                    ));
                }
                span.dur_ns = e.ts.saturating_sub(span.start_ns);
                span.args = *args;
            }
            EventKind::Instant { .. } | EventKind::Provenance { .. } => {}
        }
    }
    for (tid, stack) in open {
        if let Some(&i) = stack.last() {
            let span = &out[i];
            return Err(format!(
                "tid {tid}: span `{}:{}` never ended",
                span.cat, span.name
            ));
        }
    }
    Ok(out)
}

/// One node of the aggregated profile tree.
#[derive(Debug, Default)]
struct ProfileNode {
    calls: u64,
    total_ns: u64,
    child_ns: u64,
    children: BTreeMap<&'static str, ProfileNode>,
}

/// Renders the profile tree: per span path (merged across threads), call
/// count, total and self wall time, children sorted by total time.
///
/// Returns an error when the trace's begin/end events do not nest.
pub fn profile_tree(trace: &Trace) -> Result<String, String> {
    let spans = spans(trace)?;
    let mut root = ProfileNode::default();
    for span in &spans {
        let mut ancestors = Vec::new();
        let mut up = span.parent;
        while let Some(i) = up {
            ancestors.push(spans[i].name);
            up = spans[i].parent;
        }
        let mut node = &mut root;
        for name in ancestors.into_iter().rev() {
            node = node.children.entry(name).or_default();
        }
        node.child_ns += span.dur_ns;
        let leaf = node.children.entry(span.name).or_default();
        leaf.calls += 1;
        leaf.total_ns += span.dur_ns;
    }
    let mut out = String::new();
    out.push_str(&format!(
        "{:<44} {:>8} {:>12} {:>12}\n",
        "span", "calls", "total ms", "self ms"
    ));
    render_children(&root, 0, &mut out);
    Ok(out)
}

fn render_children(node: &ProfileNode, depth: usize, out: &mut String) {
    let mut kids: Vec<(&&str, &ProfileNode)> = node.children.iter().collect();
    kids.sort_by(|a, b| b.1.total_ns.cmp(&a.1.total_ns).then(a.0.cmp(b.0)));
    for (name, child) in kids {
        let label = format!("{}{}", "  ".repeat(depth), name);
        let self_ns = child.total_ns.saturating_sub(child.child_ns);
        out.push_str(&format!(
            "{:<44} {:>8} {:>12.3} {:>12.3}\n",
            label,
            child.calls,
            child.total_ns as f64 / 1e6,
            self_ns as f64 / 1e6,
        ));
        render_children(child, depth + 1, out);
    }
}

/// Summary of a validated Chrome-trace JSON document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChromeSummary {
    /// Total `traceEvents` entries (including metadata).
    pub events: usize,
    /// Completed spans (matched begin/end pairs).
    pub spans: usize,
    /// Provenance journal entries.
    pub provenance: usize,
    /// Distinct non-metadata categories, sorted.
    pub categories: Vec<String>,
}

/// Validates a parsed Chrome-trace document: `traceEvents` must be an
/// array whose `B`/`E` events nest properly per thread (matching names, no
/// event left open), and every provenance entry must carry a gate name
/// no other entry has, a non-empty `path`, and `node` and `psi` args.
/// Returns counts for further assertions.
///
/// # Errors
///
/// Returns a description of the first structural problem.
pub fn validate_chrome_json(doc: &Json) -> Result<ChromeSummary, String> {
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_array)
        .ok_or("missing `traceEvents` array")?;
    let mut stacks: BTreeMap<u64, Vec<String>> = BTreeMap::new();
    let mut spans = 0usize;
    let mut gates = BTreeSet::new();
    let mut categories: Vec<String> = Vec::new();
    for (i, e) in events.iter().enumerate() {
        let ph = e
            .get("ph")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("event {i}: missing `ph`"))?;
        if ph == "M" {
            continue;
        }
        let name = e
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("event {i}: missing `name`"))?;
        let tid = e
            .get("tid")
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("event {i}: missing `tid`"))?;
        e.get("ts")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("event {i}: missing `ts`"))?;
        let cat = e.get("cat").and_then(Json::as_str).unwrap_or("");
        if !cat.is_empty() && !categories.iter().any(|c| c == cat) {
            categories.push(cat.to_string());
        }
        match ph {
            "B" => stacks.entry(tid).or_default().push(name.to_string()),
            "E" => {
                let stack = stacks.entry(tid).or_default();
                let top = stack
                    .pop()
                    .ok_or_else(|| format!("event {i}: `E {name}` without open span"))?;
                if top != name {
                    return Err(format!("event {i}: `E {name}` closes `{top}`"));
                }
                spans += 1;
            }
            "i" if cat == PROVENANCE_CAT => {
                let arg = |key| e.get("args").and_then(|args| args.get(key));
                let path = arg("path").and_then(Json::as_str).unwrap_or("");
                let node = arg("node").and_then(Json::as_str);
                if name.is_empty()
                    || path.is_empty()
                    || node.is_none()
                    || arg("psi").and_then(Json::as_u64).is_none()
                {
                    return Err(format!("event {i}: incomplete provenance entry `{name}`"));
                }
                if !gates.insert(name) {
                    return Err(format!(
                        "event {i}: gate `{name}` has two provenance entries"
                    ));
                }
            }
            "i" => {}
            other => return Err(format!("event {i}: unknown phase `{other}`")),
        }
    }
    for (tid, stack) in stacks {
        if let Some(name) = stack.last() {
            return Err(format!("tid {tid}: span `{name}` never closed"));
        }
    }
    categories.sort_unstable();
    Ok(ChromeSummary {
        events: events.len(),
        spans,
        provenance: gates.len(),
        categories,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Event;

    fn ev(ts: u64, tid: u64, kind: EventKind) -> Event {
        Event { ts, tid, kind }
    }

    fn begin(ts: u64, tid: u64, cat: &'static str, name: &'static str) -> Event {
        ev(ts, tid, EventKind::Begin { cat, name })
    }

    fn end(
        ts: u64,
        tid: u64,
        cat: &'static str,
        name: &'static str,
        pairs: &[(&'static str, ArgValue)],
    ) -> Event {
        let mut args = Args::EMPTY;
        for &(key, value) in pairs {
            args.push(key, value);
        }
        ev(ts, tid, EventKind::End { cat, name, args })
    }

    fn provenance(ts: u64, gate: usize) -> Event {
        let kind = EventKind::Provenance {
            gate,
            path: "direct-ilp",
            node: Some(1),
            psi: 3,
        };
        ev(ts, 1, kind)
    }

    const NAMES: Names<'static> = Names {
        gates: &["a", "t0", "t1"],
        nodes: &["a", "n1"],
    };

    fn sample_trace() -> Trace {
        Trace {
            events: vec![
                begin(0, 1, "core", "synthesize"),
                begin(5, 1, "core", "synth_node"),
                begin(10, 1, "ilp", "solve"),
                end(
                    110,
                    1,
                    "ilp",
                    "solve",
                    &[
                        ("tier", ArgValue::Str("int")),
                        ("pivots", ArgValue::UInt(12)),
                    ],
                ),
                provenance(120, 1),
                end(150, 1, "core", "synth_node", &[("node", ArgValue::Node(1))]),
                end(200, 1, "core", "synthesize", &[]),
            ],
            thread_labels: vec![(1, "main".to_string())],
        }
    }

    #[test]
    fn chrome_export_roundtrips_and_validates() {
        let text = chrome_trace(&sample_trace(), &NAMES);
        let doc = crate::json::parse(&text).expect("valid JSON");
        let summary = validate_chrome_json(&doc).expect("well-nested");
        assert_eq!(summary.spans, 3);
        assert_eq!(summary.provenance, 1);
        assert!(summary.categories.iter().any(|c| c == "ilp"));
        // 7 events + 1 thread_name metadata record.
        assert_eq!(summary.events, 8);
        // Recorded ids export as the names they stand for.
        let events = doc.get("traceEvents").and_then(Json::as_array).unwrap();
        let journal = &events[5];
        assert_eq!(journal.get("name").and_then(Json::as_str), Some("t0"));
        let args = journal.get("args").unwrap();
        assert_eq!(args.get("node").and_then(Json::as_str), Some("n1"));
        assert_eq!(args.get("path").and_then(Json::as_str), Some("direct-ilp"));
        let node_end = events[6].get("args").unwrap();
        assert_eq!(node_end.get("node").and_then(Json::as_str), Some("n1"));
    }

    #[test]
    fn unresolved_or_repeated_provenance_is_rejected() {
        let validate = |trace: &Trace, names: &Names<'_>| {
            let doc = crate::json::parse(&chrome_trace(trace, names)).unwrap();
            validate_chrome_json(&doc)
        };
        // Without names the gate exports as "".
        let err = validate(&sample_trace(), &Names::default()).unwrap_err();
        assert!(err.contains("incomplete provenance"), "{err}");
        let mut twice = sample_trace();
        twice.events.insert(5, provenance(130, 1));
        let err = validate(&twice, &NAMES).unwrap_err();
        assert!(err.contains("two provenance entries"), "{err}");
    }

    #[test]
    fn span_reconstruction() {
        let records = spans(&sample_trace()).unwrap();
        let shape: Vec<(&str, Option<usize>, u64)> = records
            .iter()
            .map(|s| (s.name, s.parent, s.dur_ns))
            .collect();
        // In begin order, each linked to its enclosing span.
        assert_eq!(
            shape,
            [
                ("synthesize", None, 200),
                ("synth_node", Some(0), 145),
                ("solve", Some(1), 100)
            ]
        );
        assert_eq!(records[2].args[1], ("pivots", ArgValue::UInt(12)));
    }

    #[test]
    fn mismatched_spans_are_rejected() {
        let trace = Trace {
            events: vec![begin(0, 1, "core", "a"), end(1, 1, "core", "b", &[])],
            thread_labels: vec![],
        };
        assert!(spans(&trace).is_err());
        assert!(profile_tree(&trace).is_err());
        let open = Trace {
            events: vec![begin(0, 1, "core", "a")],
            thread_labels: vec![],
        };
        assert!(spans(&open).is_err());
    }

    #[test]
    fn profile_tree_aggregates() {
        let text = profile_tree(&sample_trace()).unwrap();
        assert!(text.contains("synthesize"));
        // `solve` is indented under `synth_node`, under `synthesize`.
        assert!(text.contains("\n    solve "), "{text}");
    }
}
