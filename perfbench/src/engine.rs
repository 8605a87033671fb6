//! Engine-profile totals for traced passes.
//!
//! The traced passes switch on the engine's own profiler
//! (`phantom_sim::profile`) around the calls that run the engine. Its
//! buckets — calendar pop, calendar advance, and self time per node
//! type — lie inside the benchmark's spans, so [`EngineProfile::carve`]
//! moves their time out of the enclosing span's layer into finer layers
//! without changing the traced total.

use crate::report::Report;
use crate::spans::Breakdown;
use phantom_sim::ProfileReport;
use std::collections::BTreeMap;

/// Profiler buckets summed over every bracket of a traced pass.
#[derive(Default)]
pub struct EngineProfile {
    /// Engine run-loop wall time.
    pub loop_ns: u64,
    /// Events dispatched inside the loop.
    pub events: u64,
    /// Dispatches (batches of same-instant events) inside the loop.
    pub dispatches: u64,
    /// Calendar pop time outside the cold advance path.
    pub pop_ns: u64,
    /// Time in the calendar's advance path.
    pub advance_ns: u64,
    /// Pushes past the wheel horizon.
    pub far_pushes: u64,
    /// Events promoted back from the overflow heap.
    pub promoted: u64,
    /// Node self time by layer.
    pub nodes_ns: BTreeMap<&'static str, u64>,
}

/// The layer a node type belongs to, from its Rust type path.
pub fn node_layer(type_name: &str) -> &'static str {
    const LAYERS: [(&str, &str); 6] = [
        ("phantom_atm::source::", "atm.source"),
        ("phantom_atm::dest::", "atm.dest"),
        ("phantom_atm::switch::", "atm.switch"),
        ("phantom_tcp::source::", "tcp.source"),
        ("phantom_tcp::router::", "tcp.router"),
        ("phantom_tcp::sink::", "tcp.sink"),
    ];
    LAYERS
        .iter()
        .find(|(prefix, _)| type_name.starts_with(prefix))
        .map_or("sim.nodes_other", |(_, layer)| layer)
}

impl EngineProfile {
    /// Add one profiler report.
    pub fn add(&mut self, r: &ProfileReport) {
        self.loop_ns += r.wall_ns;
        self.events += r.events;
        self.dispatches += r.dispatches;
        let pop = r.phases.iter().find(|p| p.name == "calendar.pop");
        self.pop_ns += pop.map_or(0, |p| p.self_ns);
        self.advance_ns += r.calendar.advance_ns;
        self.far_pushes += r.calendar.far_pushes;
        self.promoted += r.calendar.promoted;
        for n in &r.nodes {
            *self.nodes_ns.entry(node_layer(&n.name)).or_default() += n.self_ns;
        }
    }

    /// Move the profiled time out of layer `from` (the span that ran the
    /// engine): calendar phases always, node types when `nodes` is set,
    /// and whatever loop time is left to `sim.run`.
    pub fn carve(&self, b: &mut Breakdown, from: &'static str, nodes: bool) {
        let mut moved = b.carve(from, "sim.calendar.pop", self.pop_ns);
        moved += b.carve(from, "sim.calendar.advance", self.advance_ns);
        if nodes {
            for (layer, ns) in &self.nodes_ns {
                moved += b.carve(from, layer, *ns);
            }
        }
        b.carve(from, "sim.run", self.loop_ns.saturating_sub(moved));
    }

    /// The exact counters as per-layer metrics.
    pub fn set_counts(&self, r: &mut Report) {
        r.layers.insert("sim.dispatches", self.dispatches as f64);
        r.layers.insert(
            "sim.batching",
            self.events as f64 / self.dispatches.max(1) as f64,
        );
        r.layers
            .insert("sim.calendar.far_pushes", self.far_pushes as f64);
        r.layers
            .insert("sim.calendar.promoted", self.promoted as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spans::Span;

    #[test]
    fn node_types_map_to_their_crate_layers() {
        assert_eq!(node_layer("phantom_atm::source::AbrSource"), "atm.source");
        assert_eq!(node_layer("phantom_atm::switch::Switch"), "atm.switch");
        assert_eq!(node_layer("phantom_tcp::sink::TcpSink"), "tcp.sink");
        assert_eq!(node_layer("phantom_atm::cbr::CbrSource"), "sim.nodes_other");
    }

    #[test]
    fn carving_keeps_the_total_and_leaves_the_rest_in_the_span() {
        let spans = vec![
            Span {
                name: "bench.root",
                parent: None,
                start_ns: 0,
                end_ns: 1000,
                job: 0,
            },
            Span {
                name: "scenarios.run",
                parent: Some(0),
                start_ns: 0,
                end_ns: 900,
                job: 0,
            },
        ];
        let mut b = Breakdown::from_spans(&spans);
        let mut p = EngineProfile {
            loop_ns: 700,
            pop_ns: 200,
            advance_ns: 50,
            ..EngineProfile::default()
        };
        p.nodes_ns.insert("atm.switch", 300);
        p.nodes_ns.insert("atm.source", 100);
        p.carve(&mut b, "scenarios.run", true);
        assert_eq!(b.total(), 1000);
        assert_eq!(b.get("sim.calendar.pop"), 200);
        assert_eq!(b.get("atm.switch"), 300);
        assert_eq!(b.get("sim.run"), 50, "loop time the buckets did not cover");
        assert_eq!(
            b.get("scenarios.run"),
            200,
            "scenario build and result assembly"
        );
    }
}
