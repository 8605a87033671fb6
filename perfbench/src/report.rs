//! The metric catalog and the result a run prints.
//!
//! The catalog is the single list of metric names, units and directions;
//! `BENCHMARK.json` at the repository root repeats it for tools that run
//! the benchmark, and a test keeps the two in step.

use crate::spans::{Breakdown, UNATTRIBUTED};
use std::collections::BTreeMap;

/// One metric: name, unit, and which direction is better.
pub struct MetricDef {
    /// Metric name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

/// Metrics a user of the program sees; printed by untraced runs.
pub const END_TO_END: &[MetricDef] = &[
    m("wall_s", "s", "lower"),
    m("events_per_s", "1/s", "higher"),
    m("setup_s", "s", "lower"),
    m("peak_rss_mb", "MB", "lower"),
    m("job_p50_s", "s", "lower"),
    m("job_p95_s", "s", "lower"),
    m("jobs_per_s", "1/s", "higher"),
];

/// Metrics of single layers; printed by traced runs. A layer the
/// workload does not exercise reads 0.
pub const PER_LAYER: &[MetricDef] = &[
    m("scene.parse_s", "s", "lower"),
    m("scene.compile_s", "s", "lower"),
    m("sim.run_s", "s", "lower"),
    m("sim.events", "count", "lower"),
    m("sim.dispatches", "count", "lower"),
    m("sim.batching", "events/dispatch", "higher"),
    m("sim.ns_per_event", "ns", "lower"),
    m("sim.calendar.pop_share", "share", "lower"),
    m("sim.calendar.advance_share", "share", "lower"),
    m("sim.calendar.far_pushes", "count", "lower"),
    m("sim.calendar.promoted", "count", "lower"),
    m("atm.source.self_share", "share", "lower"),
    m("atm.dest.self_share", "share", "lower"),
    m("atm.switch.self_share", "share", "lower"),
    m("tcp.source.self_share", "share", "lower"),
    m("tcp.router.self_share", "share", "lower"),
    m("tcp.sink.self_share", "share", "lower"),
    m("sim.nodes_other.self_share", "share", "lower"),
    m("sim.arena_mb", "MB", "lower"),
    m("sim.heap_unattributed_mb", "MB", "lower"),
    m("sim.sessions_per_gb", "1/GB", "higher"),
    m("sim.snapshot_s", "s", "lower"),
    m("cli.ckpt_render_s", "s", "lower"),
    m("cli.ckpt_write_s", "s", "lower"),
    m("cli.ckpt_mb", "MB", "lower"),
    m("cli.ckpt_read_s", "s", "lower"),
    m("sim.probe.ns_per_event", "ns", "lower"),
    m("sim.probe.bytes_per_event", "B", "lower"),
    m("analyze.ns_per_event", "ns", "lower"),
    m("analyze.finish_s", "s", "lower"),
    m("scenarios.run_s", "s", "lower"),
    m("scenarios.render_s", "s", "lower"),
    m("metrics.csv_write_s", "s", "lower"),
    m("serve.admit_s", "s", "lower"),
    m("serve.queue_wait_p50_s", "s", "lower"),
    m("serve.queue_wait_p95_s", "s", "lower"),
    m("serve.run_s", "s", "lower"),
    m("serve.stream_mb_per_s", "MB/s", "higher"),
    m("serve.analysis_get_s", "s", "lower"),
    m("serve.rejected_429", "count", "lower"),
    m("serve.errors_5xx", "count", "lower"),
    m("serve.spool_mb_per_job", "MB", "lower"),
    m("serve.rss_growth_mb", "MB", "lower"),
    m("bench.gen_late_p95_s", "s", "lower"),
    m("bench.backlog_end", "count", "lower"),
    m("bench.trace_overhead", "ratio", "lower"),
    m("bench.unattributed_share", "share", "lower"),
];

/// What one workload run measured and checked.
#[derive(Default)]
pub struct Report {
    /// Operations attempted (runs, jobs, checks).
    pub attempted: u64,
    /// One line per failed operation.
    pub failures: Vec<String>,
    /// End-to-end metric values by name.
    pub e2e: BTreeMap<&'static str, f64>,
    /// Per-layer metric values by name (traced runs only).
    pub layers: BTreeMap<&'static str, f64>,
    /// Self-time partition of the traced wall time (traced runs only).
    pub breakdown: Option<Breakdown>,
    /// Extra human-readable lines for the summary.
    pub notes: Vec<String>,
}

impl Report {
    /// Count one attempted operation, failing it when `err` is `Some`.
    pub fn check(&mut self, err: Option<String>) {
        self.attempted += 1;
        if let Some(e) = err {
            self.failures.push(e);
        }
    }

    /// Count one attempted operation that failed unless `ok`.
    pub fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.check((!ok).then(what));
    }

    /// Record the shares of a traced partition as per-layer metrics:
    /// every `<layer>.self_share` in the catalog, the calendar shares
    /// and the unattributed share, each against the traced wall time.
    pub fn set_shares(&mut self, b: &Breakdown) {
        let total = b.total().max(1) as f64;
        let share = |layer: &str| b.get(layer) as f64 / total;
        for def in PER_LAYER {
            if let Some(layer) = def.name.strip_suffix(".self_share") {
                self.layers.insert(def.name, share(layer));
            }
        }
        self.layers
            .insert("sim.calendar.pop_share", share("sim.calendar.pop"));
        self.layers
            .insert("sim.calendar.advance_share", share("sim.calendar.advance"));
        self.layers
            .insert("bench.unattributed_share", share(UNATTRIBUTED));
    }
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The one-line JSON result: every end-to-end metric for an untraced
/// run, every per-layer metric for a traced one. Per-layer metrics the
/// workload does not exercise read 0.
pub fn result_line(r: &Report, traced: bool) -> Result<String, String> {
    let (defs, values) = if traced {
        (PER_LAYER, &r.layers)
    } else {
        (END_TO_END, &r.e2e)
    };
    let mut fields = Vec::with_capacity(defs.len());
    for def in defs {
        let v = match values.get(def.name) {
            Some(v) => *v,
            None if traced => 0.0,
            None => return Err(format!("end-to-end metric {} was not measured", def.name)),
        };
        fields.push(format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            def.name,
            json_num(v),
            def.unit
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.failures.is_empty(),
        r.attempted.max(1),
        r.failures.len(),
        fields.join(", ")
    ))
}

/// Human-readable summary for standard error.
pub fn summary(workload: &str, r: &Report, traced: bool) -> String {
    let mut out = format!(
        "== perfbench {workload} ({}) ==\n",
        if traced { "traced" } else { "untraced" }
    );
    let unit = |name: &str| {
        END_TO_END
            .iter()
            .chain(PER_LAYER)
            .find(|d| d.name == name)
            .map_or("", |d| d.unit)
    };
    for def in END_TO_END {
        if let Some(v) = r.e2e.get(def.name) {
            let name = def.name;
            out.push_str(&format!(
                "  {name:<28} {v:>16.6} {:<5} ({} is better)\n",
                def.unit, def.better
            ));
        }
    }
    for line in &r.notes {
        out.push_str(&format!("  {line}\n"));
    }
    if traced {
        for (name, v) in &r.layers {
            out.push_str(&format!("  {name:<28} {v:>16.6} {}\n", unit(name)));
        }
    }
    if let Some(b) = &r.breakdown {
        let total = b.total().max(1) as f64;
        out.push_str(&format!(
            "  self time by layer (traced wall {:.3} s, overhead x{:.3}):\n",
            total / 1e9,
            r.layers.get("bench.trace_overhead").copied().unwrap_or(0.0)
        ));
        for (layer, ns) in b.ranked() {
            out.push_str(&format!(
                "    {layer:<26} {:>10.4} s {:>6.1}%\n",
                ns as f64 / 1e9,
                100.0 * ns as f64 / total
            ));
        }
    }
    out.push_str(&format!(
        "  attempted {} failed {} (fail_ratio {:.4})\n",
        r.attempted.max(1),
        r.failures.len(),
        r.failures.len() as f64 / r.attempted.max(1) as f64
    ));
    for f in &r.failures {
        out.push_str(&format!("  FAILED: {f}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use phantom_scene::Json;

    fn defs_of(j: &Json, key: &str) -> Vec<(String, String, String)> {
        let Some(Json::Arr(items)) = j.get(key) else {
            panic!("BENCHMARK.json lacks {key}")
        };
        items
            .iter()
            .map(|d| {
                let s = |k: &str| d.get(k).and_then(Json::as_str).unwrap_or("").to_string();
                (s("name"), s("unit"), s("better"))
            })
            .collect()
    }

    fn catalog(defs: &[MetricDef]) -> Vec<(String, String, String)> {
        defs.iter()
            .map(|d| (d.name.into(), d.unit.into(), d.better.into()))
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_catalog() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let j = Json::parse(&text).expect("BENCHMARK.json parses");
        assert_eq!(defs_of(&j, "end_to_end"), catalog(END_TO_END));
        assert_eq!(defs_of(&j, "per_layer"), catalog(PER_LAYER));
    }

    #[test]
    fn result_line_has_every_metric_and_counts() {
        let mut r = Report::default();
        for d in END_TO_END {
            r.e2e.insert(d.name, 1.5);
        }
        r.check(None);
        r.check(Some("boom".into()));
        let line = result_line(&r, false).unwrap();
        let j = Json::parse(&line).unwrap();
        assert_eq!(j.get("correct"), Some(&Json::Bool(false)));
        assert_eq!(j.get("attempted").and_then(Json::as_f64), Some(2.0));
        assert_eq!(j.get("failed").and_then(Json::as_f64), Some(1.0));
        let metrics = j.get("metrics").unwrap();
        for d in END_TO_END {
            let m = metrics.get(d.name).unwrap();
            assert_eq!(m.get("value").and_then(Json::as_f64), Some(1.5));
            assert_eq!(m.get("unit").and_then(Json::as_str), Some(d.unit));
        }
        let traced = Json::parse(&result_line(&r, true).unwrap()).unwrap();
        assert_eq!(
            traced
                .get("metrics")
                .and_then(|m| m.get("serve.admit_s"))
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64),
            Some(0.0),
            "unexercised layers read 0"
        );
        r.e2e.remove("wall_s");
        assert!(
            result_line(&r, false).is_err(),
            "a missing end-to-end metric is an error"
        );
    }
}
