//! Running scenes and registering them as first-class experiments.
//!
//! [`register_scene`] wires a parsed scene into the scenario registry
//! (so `repro <id>` and the sweep runner treat it exactly like a
//! built-in figure) and into the shape registry (so `--analyze` checks
//! it against the targets its own topology and timeline predict,
//! including per-perturbation-epoch fixed points).

use crate::compile::compile;
use crate::model::Scene;
use phantom_analyze::{AnalysisTargets, EpochTarget};
use phantom_atm::units::mbps_to_cps;
use phantom_core::fixed_point::single_link_macr;
use phantom_metrics::{ExperimentResult, ScaleRecord, ShardScalePoint};
use phantom_scenarios::atm::run_standard;
use phantom_scenarios::registry::{register_dynamic, DynamicExperiment, ExperimentOutput};
use phantom_scenarios::shape::register_shape;
use std::path::Path;
use std::sync::Arc;

/// The paper's default utilization factor, used when a scene derives
/// MACR targets from session counts without overriding `u`.
const DEFAULT_U: f64 = 5.0;

/// Compile and run a validated scene, producing the same figure output
/// (standard panels + metrics) as the hard-coded runners.
pub fn run_scene(scene: &Scene, seed: u64) -> ExperimentResult {
    let c = compile(scene, seed);
    let (_engine, _net, result) = run_standard(
        c.engine,
        c.net,
        c.until,
        &scene.id,
        &scene.describe,
        "compiled from a phantom-scene/1 file",
        c.bottleneck,
        &c.traced,
        c.tail_from_secs,
    );
    result
}

/// Where a scale probe's engine-owned memory sits after the run, for
/// human-readable reporting beside the [`ScaleRecord`].
pub struct ScaleBreakdown {
    /// Per-arena node accounting, in first-registration order.
    pub arenas: Vec<phantom_sim::ArenaStats>,
    /// Heap held by the event calendar
    /// ([`phantom_sim::Engine::calendar_heap_bytes`]).
    pub calendar_bytes: u64,
}

/// Build and run `scene` once as a *scale probe*: measure resident-set
/// growth across build + run, the engine's own per-node accounting, and
/// run throughput. Returns the `phantom-bench/4` scale record plus the
/// per-arena and calendar breakdown (for human-readable reporting).
///
/// RSS comes from [`phantom_sim::telemetry::rss_bytes`] (the same
/// reader the heartbeat uses); when `/proc/self/status` is unreadable
/// on this platform the record carries `rss_delta_bytes: None` and the
/// capacity numbers fall back to the engine's own arena accounting —
/// the probe degrades, it does not fail.
///
/// The RSS delta is a whole-process measurement — run this on a quiet
/// process (the `repro --scale` probe runs after the sweep, serially)
/// or the number includes unrelated allocations.
pub fn scale_scene(scene: &Scene, seed: u64) -> (ScaleRecord, ScaleBreakdown) {
    let rss0 = phantom_sim::telemetry::rss_bytes();
    let c = compile(scene, seed);
    let mut engine = c.engine;
    let marker = phantom_sim::telemetry::begin_run();
    let events_before = phantom_sim::thread_events_dispatched();
    let start = std::time::Instant::now();
    engine.run_until(c.until);
    let wall_secs = start.elapsed().as_secs_f64();
    let events = phantom_sim::thread_events_dispatched() - events_before;
    let counters = marker.finish();
    let rss1 = phantom_sim::telemetry::rss_bytes();
    let arenas = engine.arena_stats();
    let record = ScaleRecord {
        scene: scene.id.clone(),
        seed,
        sessions: c.net.sessions.len() as u64,
        nodes: arenas.iter().map(|s| s.nodes as u64).sum(),
        events,
        wall_secs,
        rss_delta_bytes: match (rss0, rss1) {
            (Some(before), Some(after)) => Some(after.saturating_sub(before)),
            _ => None,
        },
        arena_bytes: engine.nodes_footprint_bytes() as u64,
        drops: counters.drops,
        queue_peak: counters.queue_peak,
    };
    let breakdown = ScaleBreakdown {
        arenas,
        calendar_bytes: engine.calendar_heap_bytes() as u64,
    };
    (record, breakdown)
}

/// Build and run `scene` once at a fixed `--shards` count, measuring
/// events dispatched and wall-clock time — one point of the
/// `phantom-bench/5` `shard_scaling` array. The build is excluded from
/// the measurement; the run is the same conservative-PDES execution
/// `phantom run --shards N` performs, so the events count must be
/// identical at every shard count.
pub fn shard_scale_scene(scene: &Scene, seed: u64, shards: usize) -> ShardScalePoint {
    let _guard = phantom_sim::ShardGuard::new(shards);
    let c = compile(scene, seed);
    let mut engine = c.engine;
    let marker = phantom_sim::telemetry::begin_run();
    let events_before = phantom_sim::thread_events_dispatched();
    let start = std::time::Instant::now();
    engine.run_until(c.until);
    let wall_secs = start.elapsed().as_secs_f64();
    let events = phantom_sim::thread_events_dispatched() - events_before;
    let _ = marker.finish();
    ShardScalePoint {
        shards,
        scene: scene.id.clone(),
        seed,
        events,
        wall_secs,
    }
}

/// The analysis targets a scene predicts: bottleneck capacity, the
/// `C/(1+n·u)` MACR fixed point (when declared via `macr_mbps` or
/// `n_sessions`), and one [`EpochTarget`] per declared perturbation
/// epoch.
pub fn analysis_targets(scene: &Scene) -> AnalysisTargets {
    let c = mbps_to_cps(scene.bottleneck_mbps());
    let u = scene.u.unwrap_or(DEFAULT_U);
    let a = &scene.analysis;
    let macr_cps = a
        .macr_mbps
        .map(mbps_to_cps)
        .or_else(|| a.n_sessions.map(|n| single_link_macr(c, n, u)));
    AnalysisTargets {
        macr_cps,
        capacity_cps: Some(c),
        conv_tol: a.conv_tol.unwrap_or(0.15),
        tail_from_secs: a.tail_from_ms.unwrap_or(scene.duration_ms / 2.0) / 1e3,
        epochs: a
            .epochs
            .iter()
            .map(|e| EpochTarget {
                from_secs: e.from_ms / 1e3,
                to_secs: e.to_ms / 1e3,
                macr_cps: e.macr_mbps.map(mbps_to_cps).unwrap_or_else(|| {
                    let ec = e.capacity_mbps.map(mbps_to_cps).unwrap_or(c);
                    single_link_macr(ec, e.n_sessions.expect("validated epoch"), u)
                }),
            })
            .collect(),
    }
}

/// Register a validated scene as a runnable experiment under its id,
/// shadowing any built-in of the same name, and publish its predicted
/// analysis shape. (For built-in ids the *static* shape table keeps
/// precedence, so twin scenes analyze against the identical committed
/// targets.)
pub fn register_scene(scene: Scene) {
    register_shape(&scene.id, analysis_targets(&scene));
    let id = scene.id.clone();
    let describe = scene.describe.clone();
    register_dynamic(DynamicExperiment {
        id,
        describe,
        run: Arc::new(move |seed| ExperimentOutput::Figure(run_scene(&scene, seed))),
    });
}

/// Parse **and validate** a scene document.
pub fn parse_scene(text: &str) -> Result<Scene, String> {
    Scene::parse(text)
}

/// Load one scene file.
pub fn load_scene_file(path: &Path) -> Result<Scene, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Scene::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Load every `*.json` scene in a directory, sorted by file name so
/// registration order (and thus sweep job order) is deterministic.
pub fn load_scene_dir(dir: &Path) -> Result<Vec<Scene>, String> {
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    paths.sort();
    paths.iter().map(|p| load_scene_file(p)).collect()
}
