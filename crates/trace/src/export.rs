//! Trace exporters: Chrome `trace_event` JSON and a plain-text profile
//! tree.
//!
//! The Chrome export loads directly into `chrome://tracing` or
//! [Perfetto](https://ui.perfetto.dev); [`validate_chrome_json`] is the
//! round-trip oracle used by tests and `tels trace-check` to prove the
//! export well-formed (every `B` matched by an `E` on the same thread, in
//! stack order).

use std::collections::BTreeMap;

use crate::json::Json;
use crate::{ArgValue, EventKind, Trace};

fn arg_json(v: &ArgValue) -> Json {
    match v {
        ArgValue::Int(i) => Json::Num(*i as f64),
        ArgValue::UInt(u) => Json::Num(*u as f64),
        ArgValue::Float(f) => Json::Num(*f),
        ArgValue::Str(s) => Json::Str(s.clone()),
    }
}

fn args_json(args: &[(&'static str, ArgValue)]) -> Json {
    Json::Obj(
        args.iter()
            .map(|(k, v)| (k.to_string(), arg_json(v)))
            .collect(),
    )
}

/// Microseconds (Chrome-trace time unit) from nanoseconds, to 3 decimals.
fn ts_us(ns: u64) -> Json {
    Json::Num(ns as f64 / 1000.0)
}

/// Serializes a trace in Chrome `trace_event` JSON object format
/// (`{"traceEvents": [...]}`), loadable in `chrome://tracing` and
/// Perfetto. Thread labels become `thread_name` metadata events.
pub fn chrome_trace(trace: &Trace) -> String {
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
        let base = |ph: &str, cat: &str, name: &str| {
            vec![
                ("ph".to_string(), Json::str(ph)),
                ("cat".to_string(), Json::str(cat)),
                ("name".to_string(), Json::str(name)),
                ("pid".to_string(), Json::Num(1.0)),
                ("tid".to_string(), Json::Num(e.tid as f64)),
                ("ts".to_string(), ts_us(e.ts)),
            ]
        };
        let obj = match &e.kind {
            EventKind::Begin { cat, name } => Json::Obj(base("B", cat, name)),
            EventKind::End { cat, name, args } => {
                let mut pairs = base("E", cat, name);
                if !args.is_empty() {
                    pairs.push(("args".to_string(), args_json(args)));
                }
                Json::Obj(pairs)
            }
            EventKind::Instant { cat, name, args } => {
                let mut pairs = base("i", cat, name);
                pairs.push(("s".to_string(), Json::str("t")));
                pairs.push(("args".to_string(), args_json(args)));
                Json::Obj(pairs)
            }
        };
        events.push(obj);
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
    pub name: String,
    /// Thread that ran the span.
    pub tid: u64,
    /// Start, nanoseconds since the trace epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Arguments recorded on the span.
    pub args: Vec<(&'static str, ArgValue)>,
}

/// Reconstructs completed spans by matching begin/end pairs per thread.
///
/// # Errors
///
/// Returns a description of the first mismatch (an end without a begin, a
/// name mismatch, or a begin left open), which is what the format tests
/// assert never happens.
pub fn spans(trace: &Trace) -> Result<Vec<SpanRecord>, String> {
    let mut stacks: BTreeMap<u64, Vec<(&'static str, String, u64)>> = BTreeMap::new();
    let mut out = Vec::new();
    for e in &trace.events {
        match &e.kind {
            EventKind::Begin { cat, name } => {
                stacks
                    .entry(e.tid)
                    .or_default()
                    .push((cat, name.clone(), e.ts));
            }
            EventKind::End { cat, name, args } => {
                let stack = stacks.entry(e.tid).or_default();
                let Some((bcat, bname, bts)) = stack.pop() else {
                    return Err(format!("tid {}: end `{name}` without begin", e.tid));
                };
                if bcat != *cat || bname != *name {
                    return Err(format!(
                        "tid {}: end `{cat}:{name}` closes begin `{bcat}:{bname}`",
                        e.tid
                    ));
                }
                out.push(SpanRecord {
                    cat,
                    name: name.clone(),
                    tid: e.tid,
                    start_ns: bts,
                    dur_ns: e.ts.saturating_sub(bts),
                    args: args.clone(),
                });
            }
            EventKind::Instant { .. } => {}
        }
    }
    for (tid, stack) in stacks {
        if let Some((cat, name, _)) = stack.last() {
            return Err(format!("tid {tid}: span `{cat}:{name}` never ended"));
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
    children: BTreeMap<String, ProfileNode>,
}

/// Renders the profile tree: per span path (merged across threads), call
/// count, total and self wall time, children sorted by total time.
///
/// Returns an error when the trace's begin/end events do not nest.
pub fn profile_tree(trace: &Trace) -> Result<String, String> {
    // Walk each thread's events with an explicit stack of paths, adding
    // durations bottom-up so parents see child time.
    let mut root = ProfileNode::default();
    let mut stacks: BTreeMap<u64, Vec<(String, u64)>> = BTreeMap::new();
    // Paths must exist before durations are added; build the tree from the
    // reconstructed spans, keyed by the path active at their begin.
    // Simpler: validate + reconstruct via event replay.
    for e in &trace.events {
        match &e.kind {
            EventKind::Begin { name, .. } => {
                stacks.entry(e.tid).or_default().push((name.clone(), e.ts));
            }
            EventKind::End { name, .. } => {
                let stack = stacks.entry(e.tid).or_default();
                let Some((bname, bts)) = stack.pop() else {
                    return Err(format!("tid {}: end `{name}` without begin", e.tid));
                };
                if bname != *name {
                    return Err(format!("tid {}: `{name}` closes `{bname}`", e.tid));
                }
                let dur = e.ts.saturating_sub(bts);
                // Locate the node for the current path + this span.
                let mut node = &mut root;
                for (frame, _) in stack.iter() {
                    node = node.children.entry(frame.clone()).or_default();
                }
                node.child_ns += dur;
                let leaf = node.children.entry(bname).or_default();
                leaf.calls += 1;
                leaf.total_ns += dur;
            }
            _ => {}
        }
    }
    for (tid, stack) in &stacks {
        if let Some((name, _)) = stack.last() {
            return Err(format!("tid {tid}: span `{name}` never ended"));
        }
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
    let mut kids: Vec<(&String, &ProfileNode)> = node.children.iter().collect();
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
/// event left open). Returns counts for further assertions.
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
    let mut provenance = 0usize;
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
            "i" => {
                if cat == crate::PROVENANCE_CAT {
                    provenance += 1;
                }
            }
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
        provenance,
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

    fn begin(ts: u64, tid: u64, cat: &'static str, name: &str) -> Event {
        ev(
            ts,
            tid,
            EventKind::Begin {
                cat,
                name: name.to_string(),
            },
        )
    }

    fn end(ts: u64, tid: u64, cat: &'static str, name: &str, args: crate::Args) -> Event {
        ev(
            ts,
            tid,
            EventKind::End {
                cat,
                name: name.to_string(),
                args,
            },
        )
    }

    fn sample_trace() -> Trace {
        Trace {
            events: vec![
                begin(0, 1, "core", "synthesize"),
                begin(10, 1, "ilp", "solve"),
                end(
                    110,
                    1,
                    "ilp",
                    "solve",
                    vec![
                        ("tier", ArgValue::Str("int".into())),
                        ("pivots", ArgValue::UInt(12)),
                    ],
                ),
                ev(
                    120,
                    1,
                    EventKind::Instant {
                        cat: crate::PROVENANCE_CAT,
                        name: "t0".to_string(),
                        args: vec![("path", ArgValue::Str("direct-ilp".into()))],
                    },
                ),
                end(200, 1, "core", "synthesize", vec![]),
            ],
            thread_labels: vec![(1, "main".to_string())],
        }
    }

    #[test]
    fn chrome_export_roundtrips_and_validates() {
        let text = chrome_trace(&sample_trace());
        let doc = crate::json::parse(&text).expect("valid JSON");
        let summary = validate_chrome_json(&doc).expect("well-nested");
        assert_eq!(summary.spans, 2);
        assert_eq!(summary.provenance, 1);
        assert!(summary.categories.iter().any(|c| c == "ilp"));
        // 5 events + 1 thread_name metadata record.
        assert_eq!(summary.events, 6);
    }

    #[test]
    fn span_reconstruction() {
        let records = spans(&sample_trace()).unwrap();
        assert_eq!(records.len(), 2);
        // Inner span completes first.
        assert_eq!(records[0].name, "solve");
        assert_eq!(records[0].dur_ns, 100);
        assert_eq!(records[1].name, "synthesize");
    }

    #[test]
    fn mismatched_spans_are_rejected() {
        let trace = Trace {
            events: vec![begin(0, 1, "core", "a"), end(1, 1, "core", "b", vec![])],
            thread_labels: vec![],
        };
        assert!(spans(&trace).is_err());
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
        // `solve` is indented under `synthesize`.
        assert!(text.contains("  solve"), "{text}");
    }
}
