//! The run's result: operation and check counts, metrics, and the
//! diagnostics line printed before the final JSON object.

use std::collections::BTreeMap;

use crate::measure::{Mix, Samples};

/// End-to-end metrics (printed with `--trace 0`), with units. Every
/// workload reports every one; `NOTES.md` says what each means per
/// workload.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("recommend_ms", "ms"),
    ("advised_cost_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
    ("whatif_cached_us", "us"),
    ("whatif_cold_us", "us"),
    ("add_statements_ms", "ms"),
];

/// Per-layer metrics (printed with `--trace 1`), with units. A layer a
/// workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 39] = [
    ("sql.parse_ms", "ms"),
    ("planner.plan_ms", "ms"),
    ("core.access_graph.build_ms", "ms"),
    ("core.access_graph.edge_updates", "count"),
    ("core.costmodel.decompose_ms", "ms"),
    ("partition.step1_ms", "ms"),
    ("partition.cut_weight", "weight"),
    ("core.tsgreedy.step2_ms", "ms"),
    ("core.tsgreedy.candidates_scored", "count"),
    ("core.tsgreedy.adopt_ratio", "ratio"),
    ("core.costmodel.delta_recosts", "count"),
    ("core.par.chunk_items", "count"),
    ("core.costmodel.full_recost_us", "us"),
    ("server.protocol.parse_us", "us"),
    ("server.protocol.serialize_us", "us"),
    ("server.engine.whatif_cost_us", "us"),
    ("server.engine.whatif_cost_cold_us", "us"),
    ("server.engine.add_statements_us", "us"),
    ("server.engine.recommend_us", "us"),
    ("server.network_us", "us"),
    ("server.stage_queue_p50_us", "us"),
    ("server.stage_queue_p99_us", "us"),
    ("server.stage_compute_p50_us", "us"),
    ("server.stage_compute_p99_us", "us"),
    ("server.stage_serialize_p50_us", "us"),
    ("server.stage_serialize_p99_us", "us"),
    ("server.client.whatif_cost_p50_us", "us"),
    ("server.client.whatif_cost_p99_us", "us"),
    ("server.client.recommend_p50_us", "us"),
    ("server.client.recommend_p99_us", "us"),
    ("server.client.add_statements_p50_us", "us"),
    ("server.client.add_statements_p99_us", "us"),
    ("server.session.cache_hit_ratio", "ratio"),
    ("server.errors", "count"),
    ("server.shed", "count"),
    ("trace.closure_ratio", "ratio"),
    ("trace.overhead_ratio", "ratio"),
    ("host.phase_ratio", "ratio"),
    ("host.parallelism", "count"),
];

/// The stated error of `trace.closure_ratio`: a traced run whose layers'
/// self times sum outside this share of the independently timed total
/// fails a check. A sum of per-layer envelopes is not the envelope of
/// their sum, and tracing itself costs a little.
pub const CLOSURE: std::ops::RangeInclusive<f64> = 0.85..=1.15;

/// Timings are gated on their envelope; medians, p99s and sample counts
/// ride along in the diagnostics.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
    pub diagnostics: BTreeMap<String, f64>,
}

impl Report {
    /// Counts one operation or check; a failed one is also reported on
    /// standard error.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 20 {
                eprintln!("perfbench: check failed: {}", what());
            }
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Records a timing's envelope as `name` and its sample count,
    /// median and p99 as diagnostics; returns the envelope.
    pub fn timing(&mut self, name: &'static str, samples: &Samples) -> f64 {
        let env = samples.envelope();
        self.set(name, env);
        self.describe(name, samples);
        env
    }

    /// [`Report::timing`] for an operation over a mix of inputs: the gated
    /// value is the mean of the per-input envelopes; the diagnostics pool
    /// every sample.
    pub fn mix_timing(&mut self, name: &'static str, mix: &Mix) -> f64 {
        let env = mix.envelope();
        self.set(name, env);
        self.describe(name, &mix.pooled());
        self.diagnostics.insert(format!("{name}.envelope"), env);
        env
    }

    /// Sample count, envelope, median and p99 of a timing, as diagnostics.
    pub fn describe(&mut self, name: &str, samples: &Samples) {
        self.diagnostics
            .insert(format!("{name}.n"), samples.len() as f64);
        self.diagnostics
            .insert(format!("{name}.envelope"), samples.envelope());
        self.diagnostics
            .insert(format!("{name}.p1"), samples.quantile(0.01));
        self.diagnostics
            .insert(format!("{name}.p50"), samples.median());
        self.diagnostics
            .insert(format!("{name}.p99"), samples.quantile(0.99));
    }

    /// `median ÷ envelope` of the workload's main operation: near 1 when
    /// the run sat in one speed phase, well above 1 when it did not.
    pub fn phase_ratio(&mut self, main: &Samples) {
        self.set("host.phase_ratio", main.median() / main.envelope());
    }

    /// Prints the diagnostics line, then the result line, which is the
    /// last line of standard output.
    pub fn print(&self, workload: &str, seed: u64, seconds: f64, trace: bool) {
        let list: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
        let mut diag = vec![
            format!("\"workload\":\"{workload}\""),
            format!("\"seed\":{seed}"),
            format!("\"trace\":{trace}"),
            format!("\"run_seconds\":{seconds}"),
            format!(
                "\"host_parallelism\":{}",
                dblayout_core::available_parallelism()
            ),
        ];
        diag.extend(
            self.metrics
                .iter()
                .map(|(k, v)| format!("\"{k}\":{}", num(*v))),
        );
        diag.extend(
            self.diagnostics
                .iter()
                .map(|(k, v)| format!("\"{k}\":{}", num(*v))),
        );
        println!("{{{}}}", diag.join(","));

        let metrics: Vec<String> = list
            .iter()
            .map(|(name, unit)| {
                let v = self.metrics.get(name).copied().unwrap_or(0.0);
                format!("\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}", num(v))
            })
            .collect();
        println!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(",")
        );
    }
}

/// JSON number text; a non-finite value (never expected) becomes 0.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::{Value, ValueExt};

    /// The metric lists here and in `BENCHMARK.json` must agree, name for
    /// name and unit for unit, in order.
    #[test]
    fn benchmark_json_declares_these_metrics() {
        let doc: Value = serde_json::from_str(include_str!("../../BENCHMARK.json")).unwrap();
        for (key, list) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let declared: Vec<(String, String)> = doc
                .get(key)
                .and_then(ValueExt::as_array)
                .unwrap()
                .iter()
                .map(|m| {
                    let s = |k| m.get(k).and_then(ValueExt::as_str).unwrap().to_string();
                    (s("name"), s("unit"))
                })
                .collect();
            let here: Vec<(String, String)> = list
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(declared, here, "{key}");
        }
    }
}
