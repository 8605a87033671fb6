//! `sweep`: the full `repro all` catalog on one thread, untraced, with
//! CSVs written — what a reproducer runs.
//!
//! One pass runs every registered experiment through
//! `phantom_scenarios::sweep::run_sweep_with`, renders its report the
//! way `repro` prints it and writes its CSV. Passes repeat until the
//! run's time is used; the pass wall time is reported as a median.

use crate::engine::EngineProfile;
use crate::report::Report;
use crate::spans::{Breakdown, Tracer};
use crate::stats::{median, tail};
use crate::{sys, Config};
use phantom_analyze::{check_report, parse_baseline, DEFAULT_WINDOW_SECS};
use phantom_metrics::manifest::{Manifest, CSV_SCHEMA};
use phantom_scenarios::registry::all_experiments;
use phantom_scenarios::sweep::{run_sweep_with, SweepJob, SweepOptions, SweepRun};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Width of the ASCII charts in rendered reports (`repro`'s default).
const RENDER_STEPS: usize = 60;
/// Catalog event total at seed 1996, printed beside the measured total.
const EVENTS_AT_1996: u64 = 121_440_954;
/// Repetitions of the set-up step; the median is reported.
const SETUP_REPEATS: usize = 21;

/// One experiment of one pass.
struct Run {
    id: String,
    events: u64,
}

/// One pass over the catalog.
struct Pass {
    wall_s: f64,
    runs: Vec<Run>,
}

impl Pass {
    fn events(&self) -> u64 {
        self.runs.iter().map(|r| r.events).sum()
    }
}

fn run_one(id: &str, seed: u64, opts: &SweepOptions) -> Result<SweepRun, String> {
    let job = SweepJob {
        id: id.to_string(),
        seed,
    };
    run_sweep_with(&[job], 1, opts)
        .pop()
        .filter(|r| r.output.is_some())
        .ok_or_else(|| format!("{id}: experiment produced no output"))
}

/// Set-up a sweep needs before its first event: enumerate the catalog
/// and prepare an empty CSV directory.
fn setup(csv_dir: &Path) -> Result<Vec<String>, String> {
    let ids = all_experiments().iter().map(|e| e.id.to_string()).collect();
    let _ = std::fs::remove_dir_all(csv_dir);
    std::fs::create_dir_all(csv_dir).map_err(|e| format!("{}: {e}", csv_dir.display()))?;
    Ok(ids)
}

fn pass(
    ids: &[String],
    seed: u64,
    csv_dir: &Path,
    tracer: &mut Tracer,
    mut prof: Option<&mut EngineProfile>,
) -> Result<Pass, String> {
    let start = Instant::now();
    let root = tracer.begin("bench.sweep", seed);
    let mut runs = Vec::with_capacity(ids.len());
    for (i, id) in ids.iter().enumerate() {
        let job = i as u64;
        let open = tracer.begin("scenarios.run", job);
        let marker = prof.is_some().then(phantom_sim::profile::begin_profile);
        let run = run_one(id, seed, &SweepOptions::default())?;
        if let (Some(p), Some(m)) = (prof.as_deref_mut(), marker) {
            p.add(&m.finish());
        }
        tracer.end(open);
        let out = run
            .output
            .as_ref()
            .expect("run_one keeps only runs with output");
        tracer.span("scenarios.render", job, || {
            black_box(out.render(RENDER_STEPS))
        });
        let manifest = Manifest::new(CSV_SCHEMA, id, seed, id).to_json();
        tracer
            .span("metrics.csv_write", job, || {
                out.write_csv_with_manifest(csv_dir, &manifest)
            })
            .map_err(|e| format!("{id}: cannot write CSV: {e}"))?;
        runs.push(Run {
            id: id.clone(),
            events: run.events,
        });
    }
    tracer.end(root);
    Ok(Pass {
        wall_s: start.elapsed().as_secs_f64(),
        runs,
    })
}

/// Run every experiment with a committed analysis baseline through the
/// live analysis tap and `check_report`. Built-in experiments must also
/// dispatch exactly as many events as in the measured pass; baselined
/// scenes outside the catalog are loaded from `scenes/`.
fn check_baselines(cfg: &Config, measured: &Pass, r: &mut Report) {
    let dir = cfg.root.join("crates/baselines/analysis");
    let mut files: Vec<PathBuf> = match std::fs::read_dir(&dir) {
        Ok(rd) => rd.filter_map(|e| e.ok().map(|e| e.path())).collect(),
        Err(e) => {
            r.check(Some(format!("{}: {e}", dir.display())));
            return;
        }
    };
    files.retain(|p| p.extension().is_some_and(|x| x == "json"));
    files.sort();
    let opts = SweepOptions {
        analyze_window: Some(DEFAULT_WINDOW_SECS),
        ..SweepOptions::default()
    };
    for file in files {
        let id = file
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or_default()
            .to_string();
        let measured_events = measured.runs.iter().find(|x| x.id == id).map(|x| x.events);
        if measured_events.is_none() {
            match phantom_scene::load_scene_file(&cfg.root.join(format!("scenes/{id}.json"))) {
                Ok(scene) => phantom_scene::register_scene(scene),
                Err(e) => {
                    r.check(Some(format!("baseline {id}: no experiment or scene: {e}")));
                    continue;
                }
            }
        }
        let checked = std::fs::read_to_string(&file)
            .map_err(|e| format!("{}: {e}", file.display()))
            .and_then(|text| parse_baseline(&text))
            .and_then(|baseline| {
                let run = run_one(&id, cfg.seed, &opts)?;
                if let Some(events) = measured_events.filter(|&e| e != run.events) {
                    return Err(format!(
                        "{id}: analysed run dispatched {} events, measured run {events}",
                        run.events
                    ));
                }
                let report = run
                    .analysis
                    .ok_or_else(|| format!("{id}: no analysis report"))?;
                let failures = check_report(&report, &baseline);
                if failures.is_empty() {
                    Ok(())
                } else {
                    Err(format!("{id}: {}", failures.join("; ")))
                }
            });
        r.check(checked.err());
    }
}

/// Every pass must dispatch the same events per experiment.
fn check_determinism(passes: &[Pass], r: &mut Report) {
    let first = &passes[0];
    for p in &passes[1..] {
        for (a, b) in first.runs.iter().zip(&p.runs) {
            r.expect(a.events == b.events, || {
                format!(
                    "{}: {} events, then {} in a later pass",
                    a.id, a.events, b.events
                )
            });
        }
    }
}

/// Run the `sweep` workload.
pub fn run(cfg: &Config) -> Result<Report, String> {
    let csv_dir = cfg.work_dir.join("csv");
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut ids = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let t0 = Instant::now();
        ids = setup(&csv_dir)?;
        setups.push(t0.elapsed().as_secs_f64());
    }

    let mut r = Report::default();
    let mut passes = Vec::new();
    let started = Instant::now();
    let mut off = Tracer::off();
    // A traced run measures one plain pass as the overhead reference.
    while passes.is_empty() || (!cfg.traced && started.elapsed().as_secs_f64() < cfg.seconds) {
        passes.push(pass(&ids, cfg.seed, &csv_dir, &mut off, None)?);
    }
    let peak_rss_mb = sys::peak_rss_mb();

    // A reproducer waits for the whole catalog, so one pass is one job.
    let walls: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
    let wall_s = median(&walls);
    let events = passes[0].events();
    r.e2e.insert("wall_s", wall_s);
    r.e2e.insert(
        "events_per_s",
        median(
            &passes
                .iter()
                .map(|p| p.events() as f64 / p.wall_s)
                .collect::<Vec<_>>(),
        ),
    );
    r.e2e.insert("setup_s", median(&setups));
    r.e2e.insert("peak_rss_mb", peak_rss_mb);
    r.e2e.insert("job_p50_s", wall_s);
    r.e2e.insert("job_p95_s", tail(&walls).value);
    r.e2e.insert("jobs_per_s", 1.0 / wall_s);
    r.notes.push(format!(
        "{} experiments, {events} events per pass ({EVENTS_AT_1996} at seed 1996); pass walls {walls:.3?} s",
        ids.len()
    ));
    r.attempted += (passes.len() * ids.len()) as u64;

    if cfg.traced {
        let mut tracer = Tracer::on(Instant::now());
        let mut prof = EngineProfile::default();
        let traced = pass(&ids, cfg.seed, &csv_dir, &mut tracer, Some(&mut prof))?;
        r.attempted += ids.len() as u64;
        let mut b = Breakdown::from_spans(tracer.spans());
        prof.carve(&mut b, "scenarios.run", true);
        r.set_shares(&b);
        prof.set_counts(&mut r);
        let secs = |layer: &str| b.get(layer) as f64 / 1e9;
        r.layers.insert("sim.run_s", prof.loop_ns as f64 / 1e9);
        r.layers.insert("sim.events", traced.events() as f64);
        r.layers.insert(
            "sim.ns_per_event",
            prof.loop_ns as f64 / traced.events().max(1) as f64,
        );
        r.layers.insert("scenarios.run_s", secs("scenarios.run"));
        r.layers
            .insert("scenarios.render_s", secs("scenarios.render"));
        r.layers
            .insert("metrics.csv_write_s", secs("metrics.csv_write"));
        r.layers
            .insert("bench.trace_overhead", traced.wall_s / wall_s);
        cfg.write_spans(&tracer)?;
        r.breakdown = Some(b);
        passes.push(traced);
    }

    check_determinism(&passes, &mut r);
    check_baselines(cfg, &passes[0], &mut r);
    let _ = std::fs::remove_dir_all(&csv_dir);
    Ok(r)
}
