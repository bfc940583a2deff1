//! Prometheus text-format exposition and a small conformance lint.
//!
//! Rendered by hand with the in-tree string machinery (no deps): every
//! series is preceded by `# HELP`/`# TYPE` comments, labeled series use
//! `name{key="value"}` sample lines, and histograms expand into the
//! conventional cumulative `_bucket{le="…"}`/`_sum`/`_count` triplet.
//! [`lint_prometheus`] checks the two properties CI asserts on a live
//! scrape: no duplicate series and no sample without a `# TYPE`.

use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;

use crate::{Snapshot, Value};

/// Renders a snapshot in Prometheus text format.
pub(crate) fn to_prometheus(snap: &Snapshot) -> String {
    let mut out = String::new();
    for e in &snap.entries {
        let _ = writeln!(out, "# HELP {} {}", e.name, e.help);
        match &e.value {
            Value::Counter(v) => {
                let _ = writeln!(out, "# TYPE {} counter", e.name);
                let _ = writeln!(out, "{} {}", e.name, v);
            }
            Value::Gauge(v) => {
                let _ = writeln!(out, "# TYPE {} gauge", e.name);
                let _ = writeln!(out, "{} {}", e.name, v);
            }
            Value::Series {
                label,
                cells,
                total,
            } => {
                let _ = writeln!(out, "# TYPE {} counter", e.name);
                for (i, v) in cells {
                    let _ = writeln!(out, "{}{{{}=\"{}\"}} {}", e.name, label, i, v);
                }
                // An unlabeled aggregate would collide with the labeled
                // series in downstream sum()s; expose the total under a
                // reserved label instead.
                let _ = writeln!(out, "{}{{{}=\"all\"}} {}", e.name, label, total);
            }
            Value::Histogram(h) => {
                let _ = writeln!(out, "# TYPE {} histogram", e.name);
                let mut cumulative = 0u64;
                for (bits, n) in h.raw_buckets() {
                    cumulative += n;
                    // Bucket `bits` holds values in [2^(bits−1), 2^bits);
                    // the inclusive Prometheus upper bound is 2^bits − 1.
                    let le = if bits == 0 {
                        0u64
                    } else if bits >= 64 {
                        u64::MAX
                    } else {
                        (1u64 << bits) - 1
                    };
                    let _ = writeln!(out, "{}_bucket{{le=\"{}\"}} {}", e.name, le, cumulative);
                }
                let _ = writeln!(out, "{}_bucket{{le=\"+Inf\"}} {}", e.name, h.count());
                let _ = writeln!(out, "{}_sum {}", e.name, h.sum());
                let _ = writeln!(out, "{}_count {}", e.name, h.count());
            }
        }
    }
    out
}

/// Lints Prometheus text exposition: every sample line must belong to a
/// series declared with `# TYPE`, and no `(name, labels)` pair may appear
/// twice. Returns the first violation as an error message.
pub fn lint_prometheus(text: &str) -> Result<(), String> {
    let mut types: HashMap<&str, &str> = HashMap::new();
    let mut seen: HashSet<&str> = HashSet::new();
    for (lineno, line) in text.lines().enumerate() {
        let lineno = lineno + 1;
        let line = line.trim_end();
        if line.is_empty() || line.starts_with("# HELP") {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            let name = parts
                .next()
                .ok_or_else(|| format!("line {lineno}: # TYPE without a name"))?;
            let kind = parts
                .next()
                .ok_or_else(|| format!("line {lineno}: # TYPE {name} without a kind"))?;
            if types.insert(name, kind).is_some() {
                return Err(format!("line {lineno}: duplicate # TYPE for {name}"));
            }
            continue;
        }
        if line.starts_with('#') {
            return Err(format!("line {lineno}: unknown comment form: {line}"));
        }
        // Sample line: `name 1`, `name{k="v"} 1`.
        let series = line
            .split_whitespace()
            .next()
            .ok_or_else(|| format!("line {lineno}: empty sample line"))?;
        let name = series.split('{').next().unwrap_or(series);
        let base_typed = types.contains_key(name);
        let histo_typed = ["_bucket", "_sum", "_count"].iter().any(|suffix| {
            name.strip_suffix(suffix)
                .is_some_and(|base| types.get(base).copied() == Some("histogram"))
        });
        if !base_typed && !histo_typed {
            return Err(format!("line {lineno}: sample {name} has no # TYPE"));
        }
        if !seen.insert(series) {
            return Err(format!("line {lineno}: duplicate series {series}"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::lock;
    use crate::{disable, enable, instruments, snapshot};

    #[test]
    fn rendered_snapshot_passes_lint() {
        let _g = lock();
        enable();
        instruments::SERVE_FRAMES.inc(3);
        instruments::SERVE_QUEUE_WAIT_NS.record(12_345);
        instruments::SERVE_JOBS_INFLIGHT.set(2);
        disable();
        let text = snapshot().to_prometheus();
        assert!(text.contains("# TYPE tels_serve_frames_total counter"));
        assert!(text.contains("tels_serve_frames_total{conn=\"3\"}"));
        assert!(text.contains("# TYPE tels_serve_queue_wait_ns histogram"));
        assert!(text.contains("tels_serve_queue_wait_ns_bucket{le=\"+Inf\"}"));
        assert!(text.contains("tels_serve_queue_wait_ns_sum 12345"));
        lint_prometheus(&text).expect("self-rendered exposition lints clean");
    }

    #[test]
    fn histogram_buckets_are_cumulative() {
        let _g = lock();
        enable();
        instruments::SERVE_JOB_RUN_NS.record(1); // bucket 1, le=1
        instruments::SERVE_JOB_RUN_NS.record(1000); // bucket 10, le=1023
        disable();
        let text = snapshot().to_prometheus();
        let count_of = |needle: &str| {
            text.lines()
                .find(|l| l.starts_with(needle))
                .and_then(|l| l.split_whitespace().last())
                .map(|v| v.parse::<u64>().unwrap())
        };
        let le1 = count_of("tels_serve_job_run_ns_bucket{le=\"1\"}");
        let le1023 = count_of("tels_serve_job_run_ns_bucket{le=\"1023\"}");
        assert!(le1 <= le1023, "cumulative counts must not decrease");
        assert!(
            le1023 >= Some(2).min(le1023),
            "later bucket includes earlier samples"
        );
    }

    #[test]
    fn lint_rejects_missing_type_and_duplicates() {
        assert!(lint_prometheus("orphan_metric 1\n").is_err());
        let dup = "# TYPE m counter\nm{a=\"1\"} 1\nm{a=\"1\"} 2\n";
        assert!(lint_prometheus(dup)
            .unwrap_err()
            .contains("duplicate series"));
        let ok = "# TYPE m counter\nm{a=\"1\"} 1\nm{a=\"2\"} 2\n";
        assert!(lint_prometheus(ok).is_ok());
        let histo = "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 1\nh_sum 3\nh_count 1\n";
        assert!(lint_prometheus(histo).is_ok());
        assert!(lint_prometheus("h_sum 3\n").is_err());
    }
}
