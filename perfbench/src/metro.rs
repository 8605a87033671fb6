//! `metro`: one generated 30,000-session `fan_in` scene on the serial
//! engine, writing `phantom-checkpoint/1` files as it goes, like a
//! preemptible long job.
//!
//! Set-up is scene generation, `parse_scene` and `compile`. The
//! measured phase drives `Engine::run_until` to each checkpoint instant,
//! then `Engine::snapshot`, `render_checkpoint` and an atomic write —
//! the loop `phantom run --checkpoint-every` performs — and on to the
//! horizon.
//!
//! Checks afterwards: each checkpoint the measured run wrote is complete
//! (its size and line count match the snapshot). The read-back contract
//! — every checkpoint parses with `read_checkpoint`, and resuming from
//! the mid-run one (80 ms) reaches the uninterrupted run's final event
//! and drop counts — is checked on a 30-session instance of the same
//! generator: `read_checkpoint` takes time quadratic in line length, and
//! the core switch's line of a 30,000-session checkpoint is about 13 MB,
//! which would take hours to parse. Even the 30-session instance's
//! 160 ms checkpoint takes seconds; `cli.ckpt_read_s` reports that read
//! time, so a fix shows as a number.

use crate::engine::EngineProfile;
use crate::gen::{metro_scene, METRO_DURATION_MS, METRO_SESSIONS_PER_LEAF};
use crate::report::Report;
use crate::spans::{Breakdown, Tracer};
use crate::stats::{median, tail};
use crate::{sys, Config};
use phantom_cli::checkpoint::{checkpoint_filename, render_checkpoint, KIND_SCENE};
use phantom_cli::{read_checkpoint, resume, RunOptions};
use phantom_metrics::manifest::{Manifest, CHECKPOINT_SCHEMA, TRACE_SCHEMA};
use phantom_scene::{compile, parse_scene, CompiledScene};
use phantom_sim::{telemetry, SimTime};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Checkpoint cadence, ms simulated: two checkpoints per 200 ms run.
const CHECKPOINT_EVERY_MS: f64 = 80.0;
/// Measured runs of an untraced run; the medians are reported.
const MEASURED_RUNS: usize = 2;
/// Set-ups per run (the measured ones plus repeats after them).
const SETUP_REPEATS: usize = 15;
/// Sessions per leaf of the instance the read-back contract is checked on
/// (30 sessions in all).
const CONTRACT_SESSIONS_PER_LEAF: usize = 2;

/// A scene ready to run, and what building it took.
struct Setup {
    text: String,
    id: String,
    compiled: CompiledScene,
    secs: f64,
}

fn setup(seed: u64, per_leaf: usize, tracer: &mut Tracer) -> Result<Setup, String> {
    let t0 = Instant::now();
    let text = tracer.span("bench.gen", seed, || metro_scene(seed, per_leaf).to_json());
    let scene = tracer.span("scene.parse", seed, || parse_scene(&text))?;
    let compiled = tracer.span("scene.compile", seed, || compile(&scene, seed));
    Ok(Setup {
        id: scene.id,
        text,
        compiled,
        secs: t0.elapsed().as_secs_f64(),
    })
}

/// One checkpoint written during the run.
struct Written {
    path: PathBuf,
    now_ns: u64,
    events: u64,
    bytes: usize,
    lines: usize,
}

/// What a run produced.
struct RunOut {
    setup_s: f64,
    wall_s: f64,
    events: u64,
    drops: u64,
    rss_growth_mb: f64,
    arena_mb: f64,
    sessions: usize,
    checkpoints: Vec<Written>,
}

/// Set up and run once, checkpointing into `dir`.
fn measure(
    cfg: &Config,
    dir: &Path,
    per_leaf: usize,
    tracer: &mut Tracer,
    mut prof: Option<&mut EngineProfile>,
) -> Result<RunOut, String> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let rss0 = sys::rss_mb();
    let root = tracer.begin("bench.metro", cfg.seed);
    let Setup {
        text,
        id,
        compiled,
        secs: setup_s,
    } = setup(cfg.seed, per_leaf, tracer)?;
    let CompiledScene {
        mut engine,
        net,
        until,
        ..
    } = compiled;
    let manifest = Manifest::new(TRACE_SCHEMA, &id, cfg.seed, &id);
    let step_ns = (CHECKPOINT_EVERY_MS * 1e6) as u64;
    let start = Instant::now();
    let marker = telemetry::begin_run();
    let mut checkpoints = Vec::new();
    let mut at = step_ns;
    loop {
        let target = SimTime(at.min(until.0));
        let bracket = prof.is_some().then(phantom_sim::profile::begin_profile);
        tracer.span("sim.run", cfg.seed, || engine.run_until(target));
        if let (Some(p), Some(b)) = (prof.as_deref_mut(), bracket) {
            p.add(&b.finish());
        }
        if at >= until.0 {
            break;
        }
        let snap = tracer.span("sim.snapshot", cfg.seed, || engine.snapshot())?;
        let counters = marker.so_far();
        let body = tracer.span("cli.ckpt_render", cfg.seed, || {
            render_checkpoint(&manifest, KIND_SCENE, &text, until, 0, &counters, &snap)
        });
        let path = dir.join(checkpoint_filename(&snap));
        tracer
            .span("cli.ckpt_write", cfg.seed, || {
                phantom_metrics::write_atomic(&path, &body)
            })
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        checkpoints.push(Written {
            path,
            now_ns: snap.now.0,
            events: snap.events_processed,
            bytes: body.len(),
            // Manifest, run and engine records, then one line per node
            // and per pending event.
            lines: 3 + snap.nodes.len() + snap.events.len(),
        });
        at += step_ns;
    }
    let wall_s = start.elapsed().as_secs_f64();
    tracer.end(root);
    Ok(RunOut {
        setup_s,
        wall_s,
        events: engine.events_processed(),
        drops: marker.finish().drops,
        rss_growth_mb: sys::rss_mb() - rss0,
        arena_mb: engine.nodes_footprint_bytes() as f64 / (1024.0 * 1024.0),
        sessions: net.sessions.len(),
        checkpoints,
    })
}

/// Each checkpoint file holds exactly what was rendered.
fn check_files(run: &RunOut, r: &mut Report) {
    r.expect(!run.checkpoints.is_empty(), || {
        "no checkpoint written".into()
    });
    for c in &run.checkpoints {
        let complete = std::fs::read(&c.path)
            .map_err(|e| format!("{}: {e}", c.path.display()))
            .and_then(|bytes| {
                let lines = bytes.iter().filter(|&&b| b == b'\n').count();
                let schema = format!("\"schema\":\"{CHECKPOINT_SCHEMA}\"");
                let head = &bytes[..bytes.len().min(512)];
                if bytes.len() != c.bytes || lines != c.lines {
                    Err(format!(
                        "{}: {} bytes / {lines} lines on disk, {} / {} rendered",
                        c.path.display(),
                        bytes.len(),
                        c.bytes,
                        c.lines
                    ))
                } else if !String::from_utf8_lossy(head).contains(&schema) {
                    Err(format!(
                        "{}: no {CHECKPOINT_SCHEMA} manifest",
                        c.path.display()
                    ))
                } else {
                    Ok(())
                }
            });
        r.check(complete.err());
    }
}

/// The read-back contract on a small instance: checkpoints parse and
/// sit where they were written, and resuming from the first one ends
/// with the uninterrupted run's event and drop counts. Returns the mean
/// seconds per `read_checkpoint`.
fn check_contract(cfg: &Config, r: &mut Report) -> Result<f64, String> {
    let dir = cfg.work_dir.join("contract");
    let run = measure(
        cfg,
        &dir,
        CONTRACT_SESSIONS_PER_LEAF,
        &mut Tracer::off(),
        None,
    )?;
    r.expect(!run.checkpoints.is_empty(), || {
        "no contract checkpoint written".into()
    });
    let t0 = Instant::now();
    for c in &run.checkpoints {
        let parsed = read_checkpoint(&c.path).and_then(|doc| {
            if doc.snap.now.0 == c.now_ns && doc.snap.events_processed == c.events {
                Ok(())
            } else {
                Err(format!(
                    "{}: snapshot at {} ns / {} events, written at {} ns / {} events",
                    c.path.display(),
                    doc.snap.now.0,
                    doc.snap.events_processed,
                    c.now_ns,
                    c.events
                ))
            }
        });
        r.check(parsed.err());
    }
    let read_s = t0.elapsed().as_secs_f64() / run.checkpoints.len().max(1) as f64;
    if let Some(first) = run.checkpoints.first() {
        let resumed = resume(&first.path, None, &RunOptions::default()).and_then(|o| {
            if o.events == run.events && o.counters.drops == run.drops {
                Ok(())
            } else {
                Err(format!(
                    "resume ended at {} events / {} drops, the run at {} / {}",
                    o.events, o.counters.drops, run.events, run.drops
                ))
            }
        });
        r.check(resumed.err());
    }
    let _ = std::fs::remove_dir_all(&dir);
    Ok(read_s)
}

/// Run the `metro` workload.
pub fn run(cfg: &Config) -> Result<Report, String> {
    let dir = cfg.work_dir.join("checkpoints");
    let mut r = Report::default();
    // A traced run measures one plain run as the overhead reference.
    let n = if cfg.traced { 1 } else { MEASURED_RUNS };
    let mut runs = Vec::with_capacity(n);
    for _ in 0..n {
        runs.push(measure(
            cfg,
            &dir,
            METRO_SESSIONS_PER_LEAF,
            &mut Tracer::off(),
            None,
        )?);
    }
    let peak_rss_mb = sys::peak_rss_mb();
    r.attempted += n as u64;

    let walls: Vec<f64> = runs.iter().map(|x| x.wall_s).collect();
    let wall_s = median(&walls);
    // One run is one job: from scene generation to the horizon.
    let jobs: Vec<f64> = runs.iter().map(|x| x.setup_s + x.wall_s).collect();
    let job_s = median(&jobs);
    let rates: Vec<f64> = runs.iter().map(|x| x.events as f64 / x.wall_s).collect();
    r.e2e.insert("wall_s", wall_s);
    r.e2e.insert("events_per_s", median(&rates));
    r.e2e.insert("peak_rss_mb", peak_rss_mb);
    r.e2e.insert("job_p50_s", job_s);
    r.e2e.insert("job_p95_s", tail(&jobs).value);
    r.e2e.insert("jobs_per_s", 1.0 / job_s);
    let mut setups: Vec<f64> = runs.iter().map(|x| x.setup_s).collect();

    // Memory figures come from the first run: later runs in the same
    // process reuse memory the allocator already holds.
    let first = &runs[0];
    let sessions_per_gb = first.sessions as f64 / (first.rss_growth_mb / 1024.0);
    let ckpt_mb = first
        .checkpoints
        .iter()
        .map(|c| c.bytes as f64)
        .sum::<f64>()
        / (1024.0 * 1024.0)
        / first.checkpoints.len().max(1) as f64;
    r.notes.push(format!(
        "{} sessions, {METRO_DURATION_MS} ms simulated, {} events, {} drops; run walls {walls:.3?} s",
        first.sessions, first.events, first.drops
    ));
    r.notes.push(format!(
        "rss +{:.1} MB, {sessions_per_gb:.0} sessions/GB; {} checkpoints of {ckpt_mb:.1} MB",
        first.rss_growth_mb,
        first.checkpoints.len()
    ));

    let last = if cfg.traced {
        let mut tracer = Tracer::on(Instant::now());
        let mut prof = EngineProfile::default();
        let traced = measure(
            cfg,
            &dir,
            METRO_SESSIONS_PER_LEAF,
            &mut tracer,
            Some(&mut prof),
        )?;
        r.attempted += 1;
        let mut b = Breakdown::from_spans(tracer.spans());
        let run_ns = b.get("sim.run");
        prof.carve(&mut b, "sim.run", true);
        r.set_shares(&b);
        prof.set_counts(&mut r);
        let per_call = |name: &str| {
            let n = tracer.spans().iter().filter(|s| s.name == name).count();
            b.get(name) as f64 / 1e9 / n.max(1) as f64
        };
        for (metric, span) in [
            ("scene.parse_s", "scene.parse"),
            ("scene.compile_s", "scene.compile"),
            ("sim.snapshot_s", "sim.snapshot"),
            ("cli.ckpt_render_s", "cli.ckpt_render"),
            ("cli.ckpt_write_s", "cli.ckpt_write"),
        ] {
            r.layers.insert(metric, per_call(span));
        }
        r.layers.insert("sim.run_s", run_ns as f64 / 1e9);
        r.layers.insert("sim.events", traced.events as f64);
        r.layers.insert(
            "sim.ns_per_event",
            run_ns as f64 / traced.events.max(1) as f64,
        );
        r.layers.insert("sim.arena_mb", first.arena_mb);
        r.layers.insert(
            "sim.heap_unattributed_mb",
            first.rss_growth_mb - first.arena_mb,
        );
        r.layers.insert("sim.sessions_per_gb", sessions_per_gb);
        r.layers.insert("cli.ckpt_mb", ckpt_mb);
        r.layers
            .insert("bench.trace_overhead", traced.wall_s / wall_s);
        cfg.write_spans(&tracer)?;
        r.breakdown = Some(b);
        traced
    } else {
        runs.pop().expect("at least one measured run")
    };

    // The measured runs' set-ups are the first samples; repeat it alone.
    while setups.len() < SETUP_REPEATS {
        setups.push(setup(cfg.seed, METRO_SESSIONS_PER_LEAF, &mut Tracer::off())?.secs);
    }
    r.e2e.insert("setup_s", median(&setups));
    // Only the last run's checkpoints are still on disk.
    check_files(&last, &mut r);
    let _ = std::fs::remove_dir_all(&dir);
    let read_s = check_contract(cfg, &mut r)?;
    if cfg.traced {
        r.layers.insert("cli.ckpt_read_s", read_s);
    }
    Ok(r)
}
