//! The benchmark's metric vocabulary, and the one place where the
//! program's own counters (`SynthStats` / `SolverBreakdown`, read through
//! their shared JSON form) are mapped onto per-layer metric names.

use std::collections::BTreeMap;

use tels_trace::json::Json;

/// End-to-end metrics (`--trace 0`), with units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("job_p50_ms", "ms"),
    ("job_p90_ms", "ms"),
    ("job_p99_ms", "ms"),
    ("jobs_per_s", "1/s"),
    ("gates", "count"),
    ("levels", "count"),
    ("area", "count"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// Per-layer metrics (`--trace 1`), with units. Times and counts are
/// means per traced job; a layer a workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("blif.parse_ms", "ms"),
    ("blif.parse_mb_per_s", "MB/s"),
    ("opt.factor_ms", "ms"),
    ("opt.compact_ms", "ms"),
    ("opt.sweep_ms", "ms"),
    ("opt.eliminate_ms", "ms"),
    ("opt.simplify_ms", "ms"),
    ("opt.resub_ms", "ms"),
    ("opt.extract_ms", "ms"),
    ("opt.strash_ms", "ms"),
    ("opt.rewrites", "count"),
    ("opt.nodes_out", "count"),
    ("opt.literals_out", "count"),
    ("synth.ms", "ms"),
    ("synth.queries", "count"),
    ("synth.collapses", "count"),
    ("synth.splits", "count"),
    ("synth.theorem2_combines", "count"),
    ("check.tier0_lookups", "count"),
    ("check.tier0_ms", "ms"),
    ("check.tier05_decided", "count"),
    ("check.tier05_ms", "ms"),
    ("check.negcache_hits", "count"),
    ("check.prefilter_rejections", "count"),
    ("check.theorem1_refutations", "count"),
    ("check.structure_ms", "ms"),
    ("cache.hits", "count"),
    ("cache.hit_ratio", "ratio"),
    ("ilp.solves", "count"),
    ("ilp.solve_ms", "ms"),
    ("ilp.rational_fallbacks", "count"),
    ("tnet.emit_ms", "ms"),
    ("tnet.bytes", "bytes"),
    ("eval.verify_ms", "ms"),
    ("serve.roundtrip_ms", "ms"),
    ("serve.server_ms", "ms"),
    ("serve.frame_ms", "ms"),
    ("serve.submit_ms", "ms"),
    ("serve.frame_bytes_in", "bytes"),
    ("serve.frame_bytes_out", "bytes"),
    ("trace.unattributed_ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("trace.dominant_pct", "%"),
];

/// Sums of per-layer quantities over the traced jobs of one run.
#[derive(Debug, Default)]
pub struct LayerSums {
    sums: BTreeMap<&'static str, f64>,
    /// Traced jobs the sums cover.
    pub jobs: usize,
}

impl LayerSums {
    pub fn add(&mut self, name: &'static str, value: f64) {
        *self.sums.entry(name).or_insert(0.0) += value;
    }

    pub fn merge(&mut self, other: LayerSums) {
        for (name, v) in other.sums {
            self.add(name, v);
        }
        self.jobs += other.jobs;
    }

    pub fn get(&self, name: &str) -> f64 {
        self.sums.get(name).copied().unwrap_or(0.0)
    }

    /// Mean per traced job.
    pub fn per_job(&self, name: &str) -> f64 {
        self.get(name) / self.jobs.max(1) as f64
    }

    /// Folds one job's synthesis statistics (`SynthStats::to_json`, which is
    /// also what a daemon reply carries) into the layer sums. Tier times
    /// are the program's own timers, summed over the warming threads.
    pub fn add_stats(&mut self, stats: &Json) {
        let top = |key: &str| counter(stats.get(key), key);
        let solver = |key: &str| counter(stats.get("solver").and_then(|s| s.get(key)), key);
        self.add("synth.queries", top("ilp_calls"));
        self.add("synth.collapses", top("collapses"));
        self.add("synth.splits", top("unate_splits") + top("binate_splits"));
        self.add("synth.theorem2_combines", top("theorem2_combines"));
        self.add("check.tier0_lookups", solver("tier0_lookups"));
        self.add("check.tier0_ms", solver("tier0_ns") / 1e6);
        let tier05 = solver("tier05_hits") + solver("tier05_rejects");
        self.add("check.tier05_decided", tier05);
        self.add("check.tier05_ms", solver("tier05_ns") / 1e6);
        self.add("check.negcache_hits", solver("negcache_hits"));
        self.add("check.prefilter_rejections", top("prefilter_rejections"));
        self.add("check.theorem1_refutations", top("theorem1_refutations"));
        self.add("check.structure_ms", solver("structure_ns") / 1e6);
        self.add("cache.hits", top("cache_hits"));
        // Every query that got past tier 0 and the trivial cases: answered
        // by the cache, or decided by one of the tiers behind it.
        self.add(
            "cache.lookups",
            top("cache_hits")
                + top("theorem1_refutations")
                + top("prefilter_rejections")
                + tier05
                + solver("negcache_hits")
                + top("ilp_solves"),
        );
        self.add("ilp.solves", top("ilp_solves"));
        self.add(
            "ilp.solve_ms",
            (solver("int_solve_ns") + solver("rational_solve_ns")) / 1e6,
        );
        self.add("ilp.rational_fallbacks", solver("rational_fallbacks"));
    }

    /// Per-job means of every summed per-layer metric, plus the cache hit
    /// ratio, into `out`. Sums outside the vocabulary are inputs to ratios.
    pub fn report(&self, out: &mut BTreeMap<&'static str, f64>) {
        for (name, _) in PER_LAYER {
            if self.sums.contains_key(name) {
                out.insert(name, self.per_job(name));
            }
        }
        let lookups = self.get("cache.lookups");
        out.insert(
            "cache.hit_ratio",
            if lookups > 0.0 {
                self.get("cache.hits") / lookups
            } else {
                0.0
            },
        );
    }

    /// Time the threshold-check tiers spent per job (tier 0, tier 0.5 and
    /// the structure pass), in ms.
    pub fn check_ms_per_job(&self) -> f64 {
        self.per_job("check.tier0_ms")
            + self.per_job("check.tier05_ms")
            + self.per_job("check.structure_ms")
    }
}

/// A numeric counter from the statistics JSON. A counter the program no
/// longer reports reads 0 with a warning, so a renamed counter shows up in
/// the output instead of failing the run.
fn counter(value: Option<&Json>, key: &str) -> f64 {
    value.and_then(Json::as_f64).unwrap_or_else(|| {
        eprintln!("perfbench: warning: statistics field `{key}` missing, reading 0");
        0.0
    })
}

/// Renders the final result line: every metric of `names`, each with its
/// unit. Panics if a workload reported a metric outside the vocabulary.
pub fn result_line(
    correct: bool,
    attempted: usize,
    failed: usize,
    names: &[(&str, &str)],
    values: &BTreeMap<&'static str, f64>,
) -> String {
    for name in values.keys() {
        assert!(
            names.iter().any(|(n, _)| n == name),
            "metric {name} is not in the benchmark's vocabulary"
        );
    }
    let metrics: Vec<String> = names
        .iter()
        .map(|(name, unit)| {
            let v = values.get(name).copied().unwrap_or(0.0);
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                number(v)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

/// A JSON number with every digit the measurement has (non-finite values,
/// which JSON cannot carry, become 0).
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_mapping_reads_the_programs_counters() {
        let net = tels_logic::blif::parse(
            ".model m\n.inputs a b c d e f\n.outputs y\n.names a b c d e f y\n11---- 1\n--11-- 1\n----11 1\n.end\n",
        )
        .expect("parse");
        let (_, stats) = tels_core::synthesize_with_stats(&net, &tels_core::TelsConfig::default())
            .expect("synth");
        let mut sums = LayerSums {
            jobs: 1,
            ..LayerSums::default()
        };
        sums.add_stats(&stats.to_json());
        let mut out = BTreeMap::new();
        sums.report(&mut out);
        assert_eq!(out["synth.queries"], stats.ilp_calls as f64);
        assert_eq!(
            out["check.tier0_lookups"],
            stats.solver.tier0_lookups as f64
        );
        assert_eq!(out["ilp.solves"], stats.ilp_solves as f64);
        assert!(out.keys().all(|k| PER_LAYER.iter().any(|(n, _)| n == k)));
    }

    #[test]
    fn result_line_lists_every_metric_with_its_unit() {
        let mut values = BTreeMap::new();
        values.insert("job_p50_ms", 1.25);
        let line = result_line(true, 3, 0, END_TO_END, &values);
        let doc = tels_trace::json::parse(&line).expect("valid JSON");
        let metrics = doc.get("metrics").expect("metrics");
        for (name, unit) in END_TO_END {
            let m = metrics.get(name).expect("metric present");
            assert_eq!(m.get("unit").and_then(Json::as_str), Some(*unit));
        }
        assert_eq!(
            metrics
                .get("job_p50_ms")
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64),
            Some(1.25)
        );
        assert_eq!(doc.get("attempted").and_then(Json::as_u64), Some(3));
    }
}
