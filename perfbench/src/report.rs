//! What one run reports, and how it prints.
//!
//! Every workload fills the same [`EndToEnd`] and [`PerLayer`] sets, so
//! each run prints every metric `BENCHMARK.json` names. Layer numbers
//! that only one kind of workload has (fleet spans, store writes, PPO
//! phases) go to the printed table as extra rows instead.

use std::collections::BTreeMap;

use gddr_ser::Json;

use crate::trace::SpanStat;

/// The end-to-end metrics, as a user of the program sees them.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EndToEnd {
    /// Median set-up time, s. This and the next three are wall-clock
    /// figures, reported at nominal host speed.
    pub setup_s: f64,
    /// Phase-A operations per second: requests answered inside
    /// `ShardRouter::run`, or PPO environment steps inside `Ppo::train`.
    pub throughput_per_s: f64,
    /// Phase-B due-to-answer latency, ms (nearest-rank p50).
    pub decide_p50_ms: f64,
    /// Phase-B due-to-answer latency, ms (nearest-rank p90).
    pub decide_p90_ms: f64,
    /// Fresh, checked answers over requests submitted.
    pub fresh_ratio: f64,
    /// Mean `U_agent / U_opt`.
    pub u_ratio_mean: f64,
    /// Peak resident set size, MiB.
    pub peak_rss_mb: f64,
}

impl EndToEnd {
    fn metrics(&self) -> Vec<(&'static str, f64, &'static str)> {
        vec![
            ("setup_s", self.setup_s, "s"),
            ("throughput_per_s", self.throughput_per_s, "1/s"),
            ("decide_p50_ms", self.decide_p50_ms, "ms"),
            ("decide_p90_ms", self.decide_p90_ms, "ms"),
            ("fresh_ratio", self.fresh_ratio, "1"),
            ("u_ratio_mean", self.u_ratio_mean, "1"),
            ("peak_rss_mb", self.peak_rss_mb, "MiB"),
        ]
    }
}

/// The per-layer metrics every workload's traced run reports.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PerLayer {
    /// Process CPU time per phase-A operation, ms.
    pub cpu_ms_per_op: f64,
    /// 1 − replayed layer time per operation ÷ `cpu_ms_per_op`.
    pub residual_share: f64,
    /// Traced over untraced phase-A throughput.
    pub trace_overhead: f64,
    /// Phase-B generator lateness (start − due), p90, ms.
    pub late_p90_ms: f64,
    /// Demand history → observation, µs per item (replayed).
    pub obs_us: f64,
    /// Action → edge weights, µs per item (replayed).
    pub weights_us: f64,
    /// Batched greedy GNN forward, µs per item (replayed).
    pub forward_us_per_item: f64,
    /// Solo greedy GNN forward, µs (replayed).
    pub forward_solo_us: f64,
    /// Self time per `gnn.block.forward` span, µs.
    pub block_forward_us: f64,
    /// Softmin translation, µs per item (replayed).
    pub softmin_us: f64,
    /// Max-link-utilisation simulation, µs per item (replayed).
    pub sim_us: f64,
    /// Cold `u_opt_checked` solve, ms (replayed).
    pub lp_solve_ms: f64,
    /// Simplex pivots per replayed solve.
    pub pivots_per_solve: f64,
    /// LP solves (oracle cache misses) in the timed phases.
    pub lp_solves: f64,
    /// Oracle lookups answered from cache in the timed phases (1 when
    /// there were none).
    pub lp_hit_ratio: f64,
    /// Traced-phase responses below the Fresh rung.
    pub serve_degraded: f64,
    /// Traced-phase requests shed from admission queues.
    pub serve_shed: f64,
    /// Requests per batched `serve.infer` forward.
    pub serve_batch_items_mean: f64,
    /// Size of the newest snapshot record, bytes.
    pub store_snapshot_bytes: f64,
}

impl PerLayer {
    fn metrics(&self) -> Vec<(&'static str, f64, &'static str)> {
        vec![
            ("bench.cpu_ms_per_op", self.cpu_ms_per_op, "ms"),
            ("bench.residual_share", self.residual_share, "1"),
            ("bench.trace_overhead", self.trace_overhead, "1"),
            ("bench.late_p90_ms", self.late_p90_ms, "ms"),
            ("core.obs_us", self.obs_us, "us"),
            ("core.weights_us", self.weights_us, "us"),
            ("gnn.forward_us_per_item", self.forward_us_per_item, "us"),
            ("gnn.forward_solo_us", self.forward_solo_us, "us"),
            ("gnn.block_forward_us", self.block_forward_us, "us"),
            ("routing.softmin_us", self.softmin_us, "us"),
            ("routing.sim_us", self.sim_us, "us"),
            ("lp.solve_ms", self.lp_solve_ms, "ms"),
            ("lp.pivots_per_solve", self.pivots_per_solve, "1"),
            ("lp.solves", self.lp_solves, "count"),
            ("lp.hit_ratio", self.lp_hit_ratio, "1"),
            ("serve.degraded", self.serve_degraded, "count"),
            ("serve.shed", self.serve_shed, "count"),
            (
                "serve.batch_items_mean",
                self.serve_batch_items_mean,
                "count",
            ),
            ("store.snapshot_bytes", self.store_snapshot_bytes, "B"),
        ]
    }
}

/// One run's result.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (requests, training steps, decisions).
    pub attempted: u64,
    /// Operations that failed an output check.
    pub failed: u64,
    /// Descriptions of failed checks (capped).
    pub problems: Vec<String>,
    /// End-to-end metrics.
    pub end_to_end: EndToEnd,
    /// Per-layer metrics (traced runs).
    pub per_layer: PerLayer,
    /// Run configuration echoed with the result.
    pub config: Vec<(&'static str, f64)>,
    /// Workload-specific layer rows of the traced table.
    pub rows: Vec<(&'static str, &'static str, f64, &'static str)>,
    /// Program spans aggregated during the traced phases.
    pub spans: BTreeMap<String, SpanStat>,
}

impl Report {
    /// Echoes a configuration value with the result.
    pub fn echo(&mut self, key: &'static str, value: f64) {
        self.config.push((key, value));
    }

    /// Adds a workload-specific row to the traced table.
    pub fn row(
        &mut self,
        name: &'static str,
        unit: &'static str,
        value: f64,
        source: &'static str,
    ) {
        self.rows.push((name, unit, value, source));
    }

    /// Stores the end-to-end metrics at nominal host speed (see
    /// [`crate::process::HostSpeed`]) and echoes the raw wall-clock
    /// figures and the scale beside them.
    pub fn set_end_to_end(&mut self, raw: EndToEnd, scale: f64) {
        self.echo("host_scale", scale);
        self.echo("raw_setup_s", raw.setup_s);
        self.echo("raw_throughput_per_s", raw.throughput_per_s);
        self.echo("raw_decide_p50_ms", raw.decide_p50_ms);
        self.echo("raw_decide_p90_ms", raw.decide_p90_ms);
        self.end_to_end = EndToEnd {
            setup_s: raw.setup_s / scale,
            throughput_per_s: raw.throughput_per_s * scale,
            decide_p50_ms: raw.decide_p50_ms / scale,
            decide_p90_ms: raw.decide_p90_ms / scale,
            ..raw
        };
    }

    /// Whether every output check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    /// The traced run's per-layer table: span self times, then the layer
    /// metrics and the workload's extra rows.
    pub fn table(&self) -> String {
        let mut out = String::from("per-layer trace\n");
        out.push_str(&format!(
            "  {:<24} {:>9} {:>12} {:>12} {:>12}\n",
            "span", "count", "total_ms", "self_ms", "self_us/call"
        ));
        let mut spans: Vec<_> = self.spans.iter().collect();
        spans.sort_by_key(|(_, s)| std::cmp::Reverse(s.self_ns));
        for (name, s) in spans {
            out.push_str(&format!(
                "  {:<24} {:>9} {:>12.3} {:>12.3} {:>12.3}\n",
                name,
                s.count,
                s.total_ns as f64 / 1e6,
                s.self_ns as f64 / 1e6,
                s.self_ns as f64 / s.count.max(1) as f64 / 1e3
            ));
        }
        out.push_str(&format!(
            "  {:<30} {:>14} {:<6}\n",
            "layer metric", "value", "unit"
        ));
        for (name, value, unit) in self.per_layer.metrics() {
            out.push_str(&format!("  {name:<30} {value:>14.4} {unit:<6}\n"));
        }
        for (name, unit, value, source) in &self.rows {
            out.push_str(&format!("  {name:<30} {value:>14.4} {unit:<6} {source}\n"));
        }
        out
    }

    /// Records a problem for a metric that could not be measured: any
    /// non-finite value, or an end-to-end value that is not positive.
    pub fn check_metrics(&mut self, traced: bool) {
        let bad: Vec<&str> = if traced {
            self.per_layer
                .metrics()
                .into_iter()
                .filter(|(_, v, _)| !v.is_finite())
                .map(|(name, _, _)| name)
                .collect()
        } else {
            self.end_to_end
                .metrics()
                .into_iter()
                .filter(|(_, v, _)| !(v.is_finite() && *v > 0.0))
                .map(|(name, _, _)| name)
                .collect()
        };
        if !bad.is_empty() {
            self.problems
                .push(format!("unmeasured metrics: {}", bad.join(", ")));
        }
    }

    /// The result line: end-to-end metrics untraced, per-layer traced.
    pub fn result_json(&self, traced: bool) -> Json {
        let metrics = if traced {
            self.per_layer.metrics()
        } else {
            self.end_to_end.metrics()
        };
        let metrics = metrics
            .into_iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { value } else { 0.0 };
                (
                    name.to_string(),
                    Json::obj([
                        ("value", Json::Num(value)),
                        ("unit", Json::Str(unit.into())),
                    ]),
                )
            })
            .collect();
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::Obj(metrics)),
        ])
    }
}
