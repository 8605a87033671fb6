//! `serve`: an in-process `phantom_serve::Server` with one worker, fed
//! an open-loop stream of small generated scene jobs.
//!
//! The generator (this thread) submits job `i` at its due time
//! `i / rate`, whether or not earlier jobs are done; one fetcher thread
//! streams each admitted job's trace, fetches its analysis and reads its
//! record, in admission order. A job's latency runs from its *due* time
//! to trace and analysis in hand, so a stalled generator still charges
//! the stall to the jobs behind it. The phase runs in [`SEGMENTS`]
//! segments, each a stretch at the fixed rate followed by a burst of
//! jobs submitted at once and timed until all are fetched; throughput is
//! all burst jobs over the time the bursts took to drain, so one slow
//! stretch of the machine does not decide it. Two client threads and at
//! most two open client connections. Before the phase a fixed warm-up
//! job, larger than any job of the mix, runs alone and is fetched, so
//! the peak memory it sets is the same for every seed.
//!
//! A traced run repeats the phase with spans on and then replays the
//! job mix in-process — `compile`, a `JsonlProbe` spool and an
//! `AnalysisSink`, each wrapped in a timing probe — to measure the
//! observers the daemon runs inside every job.

use crate::engine::EngineProfile;
use crate::gen::{serve_scene, serve_warmup_scene, Rng};
use crate::report::Report;
use crate::spans::{Breakdown, Tracer};
use crate::stats::{median, tail};
use crate::{sys, Config};
use phantom_analyze::{AnalysisSink, StreamingAnalyzer, DEFAULT_WINDOW_SECS};
use phantom_cli::{run_scene_opts, RunOptions};
use phantom_metrics::manifest::{fnv1a_64, Manifest, TRACE_SCHEMA};
use phantom_scenarios::atm::run_standard;
use phantom_scene::{analysis_targets, compile, parse_scene, CompiledScene, Json};
use phantom_serve::client;
use phantom_serve::http::Response;
use phantom_serve::{Server, ServerConfig};
use phantom_sim::probe::{JsonlProbe, Probe, ProbeEvent, ProbeGuard, TeeProbe};
use phantom_sim::{NodeId, SimTime};
use std::cell::Cell;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Segments of a phase: fixed-rate jobs, then a burst.
const SEGMENTS: usize = 6;
/// Jobs submitted at once at the end of each segment.
const BURST_JOBS: usize = 60;
/// Fewest fixed-rate jobs per phase: enough for ten beyond the p95.
const MIN_RATE_JOBS: usize = 200;
/// Admission queue bound; a burst fits, so no job should bounce.
const QUEUE_CAP: usize = 128;
/// Jobs whose streamed trace is compared with an in-process run.
const IDENTITY_SAMPLES: usize = 3;
/// Finished jobs whose trace is fetched again to time streaming alone.
const STREAM_SAMPLES: usize = 3;
/// Jobs of the mix replayed in-process by a traced run.
const REPLAY_JOBS: usize = 40;
/// Set-ups per run; the median is reported.
const SETUP_REPEATS: usize = 21;
/// Heartbeat slices per job, as the daemon's worker drives the engine.
const REPLAY_SLICES: u64 = 20;
/// Cap on one replay slice, ns simulated (the daemon's cap).
const REPLAY_MAX_STEP_NS: u64 = 10_000_000;

fn job_seed(seed: u64, index: usize) -> u64 {
    seed.wrapping_add(index as u64)
}

/// A started daemon and the job mix it will be fed.
struct Setup {
    server: Server,
    addr: String,
    spool: PathBuf,
    texts: Vec<String>,
    warmup: String,
    secs: f64,
}

fn setup(cfg: &Config, jobs: usize, spool: PathBuf) -> Result<Setup, String> {
    let t0 = Instant::now();
    let texts = (0..jobs)
        .map(|i| serve_scene(cfg.seed, i as u64).to_json())
        .collect();
    let warmup = serve_warmup_scene().to_json();
    let server = Server::start(ServerConfig {
        listen: "127.0.0.1:0".into(),
        workers: 1,
        queue_cap: QUEUE_CAP,
        spool: Some(spool.clone()),
    })?;
    Ok(Setup {
        addr: server.addr().to_string(),
        server,
        spool,
        texts,
        warmup,
        secs: t0.elapsed().as_secs_f64(),
    })
}

fn shut_down(s: Setup) -> Result<(), String> {
    s.server.drain();
    s.server.wait()?;
    let _ = std::fs::remove_dir_all(&s.spool);
    Ok(())
}

/// A job the generator got admitted.
struct Admitted {
    index: usize,
    burst: bool,
    id: String,
    due_s: f64,
    admitted_s: f64,
    keep_trace: bool,
}

/// What the fetcher saw for one job. Times are seconds since phase start.
struct Fetched {
    index: usize,
    burst: bool,
    id: String,
    due_s: f64,
    admitted_s: f64,
    trace_end_s: f64,
    done_s: f64,
    analysis_s: f64,
    trace_bytes: usize,
    /// FNV-1a digest of the streamed trace, for jobs sampled for the
    /// identity check (digests, not bytes, so holding them costs no memory).
    digest: Option<u64>,
    run_s: f64,
    events: u64,
    errors: Vec<String>,
    statuses: Vec<u16>,
}

/// Everything one open-loop phase measured.
struct Phase {
    wall_s: f64,
    fetched: Vec<Fetched>,
    /// Seconds each segment's burst took to drain.
    bursts: Vec<f64>,
    late_s: Vec<f64>,
    admit_s: Vec<f64>,
    backlog: Vec<usize>,
    statuses: Vec<u16>,
    errors: Vec<String>,
}

impl Phase {
    fn latencies(&self) -> Vec<f64> {
        self.rate().map(|f| f.done_s - f.due_s).collect()
    }

    fn rate(&self) -> impl Iterator<Item = &Fetched> {
        self.fetched.iter().filter(|f| !f.burst)
    }

    fn queue_waits(&self) -> Vec<f64> {
        // Outside view: the stream ends once the job is terminal, and the
        // record says how long the worker ran it.
        self.rate()
            .map(|f| (f.trace_end_s - f.run_s - f.admitted_s).max(0.0))
            .collect()
    }
}

/// When the `k`-th fixed-rate job of a segment starting at `start_s`
/// is due, seconds since the phase began.
fn due_at(start_s: f64, k: usize, rate: f64) -> f64 {
    start_s + k as f64 / rate
}

/// Mean backlog over the first and the last quarter of the fixed-rate
/// submissions, when it grew by more than two jobs between them.
fn backlog_growth(backlog: &[usize]) -> Option<(f64, f64)> {
    let quarter = backlog.len() / 4;
    let mean = |xs: &[usize]| xs.iter().sum::<usize>() as f64 / xs.len().max(1) as f64;
    let early = mean(&backlog[..quarter]);
    let late = mean(&backlog[backlog.len() - quarter..]);
    (late > early + 2.0).then_some((early, late))
}

fn status_of(result: &Result<Response, String>) -> Option<u16> {
    result.as_ref().ok().map(|r| r.status)
}

/// The job id of an answer to a submission, which must be a 202.
fn admitted_id(resp: Result<Response, String>) -> Result<String, String> {
    match resp {
        Ok(r) if r.status == 202 => Json::parse(String::from_utf8_lossy(&r.body).trim())
            .ok()
            .and_then(|j| j.get("id").and_then(Json::as_str).map(str::to_string))
            .ok_or_else(|| "submit answer has no job id".to_string()),
        Ok(r) => Err(format!("submit answered {}", r.status)),
        Err(e) => Err(format!("submit: {e}")),
    }
}

/// Run the warm-up job alone and fetch its trace, analysis and record
/// as the phase fetches every job; returns the trace's size in MB and
/// what went wrong.
fn warm_up(s: &Setup) -> (f64, Vec<String>) {
    let t0 = Instant::now();
    match admitted_id(client::submit(&s.addr, &s.warmup, Some(0))) {
        Ok(id) => {
            let job = Admitted {
                index: 0,
                burst: false,
                id,
                due_s: 0.0,
                admitted_s: t0.elapsed().as_secs_f64(),
                keep_trace: false,
            };
            let f = fetch(&s.addr, job, t0, &mut Tracer::off());
            (f.trace_bytes as f64 / (1024.0 * 1024.0), f.errors)
        }
        Err(e) => (0.0, vec![format!("warm-up: {e}")]),
    }
}

/// Stream trace, fetch analysis and record for one admitted job.
fn fetch(addr: &str, job: Admitted, t0: Instant, tracer: &mut Tracer) -> Fetched {
    let mut f = Fetched {
        index: job.index,
        burst: job.burst,
        id: job.id,
        due_s: job.due_s,
        admitted_s: job.admitted_s,
        trace_end_s: 0.0,
        done_s: 0.0,
        analysis_s: 0.0,
        trace_bytes: 0,
        digest: None,
        run_s: 0.0,
        events: 0,
        errors: Vec::new(),
        statuses: Vec::new(),
    };
    let i = f.index as u64;
    let path = format!("/v1/jobs/{}/trace", f.id);
    let trace = tracer.span("serve.trace_get", i, || {
        client::request(addr, "GET", &path, None)
    });
    f.trace_end_s = t0.elapsed().as_secs_f64();
    f.statuses.extend(status_of(&trace));
    match trace {
        Ok(resp) if resp.status == 200 => {
            f.trace_bytes = resp.body.len();
            f.digest = job.keep_trace.then(|| fnv1a_64(&resp.body));
        }
        Ok(resp) => f
            .errors
            .push(format!("{}: trace answered {}", f.id, resp.status)),
        Err(e) => f.errors.push(format!("{}: trace: {e}", f.id)),
    }
    let a0 = Instant::now();
    let analysis = tracer.span("serve.analysis_get", i, || {
        client::fetch_analysis(addr, &f.id)
    });
    f.analysis_s = a0.elapsed().as_secs_f64();
    f.done_s = t0.elapsed().as_secs_f64();
    f.statuses.extend(status_of(&analysis));
    match analysis {
        Ok(resp) if resp.status == 200 => {
            let body = String::from_utf8_lossy(&resp.body);
            if !body.contains("\"phantom-analysis/1\"") {
                f.errors
                    .push(format!("{}: analysis body is not phantom-analysis/1", f.id));
            }
        }
        Ok(resp) => f
            .errors
            .push(format!("{}: analysis answered {}", f.id, resp.status)),
        Err(e) => f.errors.push(format!("{}: analysis: {e}", f.id)),
    }
    let record = tracer.span("serve.record_get", i, || client::job_record(addr, &f.id));
    f.statuses.extend(status_of(&record));
    let parsed = record.and_then(|resp| {
        if resp.status != 200 {
            return Err(format!("record answered {}", resp.status));
        }
        Json::parse(String::from_utf8_lossy(&resp.body).trim())
    });
    match parsed {
        Ok(j) => {
            let state = j.get("state").and_then(Json::as_str).unwrap_or("?");
            if state != "done" {
                f.errors.push(format!("{}: ended {state}", f.id));
            }
            f.run_s = j.get("wall_secs").and_then(Json::as_f64).unwrap_or(0.0);
            f.events = j.get("events").and_then(Json::as_f64).unwrap_or(0.0) as u64;
        }
        Err(e) => f.errors.push(format!("{}: record: {e}", f.id)),
    }
    f
}

fn sleep_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        std::thread::sleep(t - now);
    }
}

/// One open-loop phase of [`SEGMENTS`] segments, each `per_segment`
/// jobs at `cfg.serve_rate` and then a burst of [`BURST_JOBS`]. `keep`
/// lists jobs whose trace digest is kept.
fn phase(
    cfg: &Config,
    s: &Setup,
    per_segment: usize,
    keep: &[usize],
    tracer: &mut Tracer,
    generator: &mut Tracer,
) -> Result<Phase, String> {
    let (admit_tx, admit_rx) = mpsc::channel::<Admitted>();
    let (done_tx, done_rx) = mpsc::channel::<Fetched>();
    let completed = AtomicUsize::new(0);
    let fetcher_tracer = tracer.fork();
    let mut p = Phase {
        wall_s: 0.0,
        fetched: Vec::new(),
        bursts: Vec::new(),
        late_s: Vec::new(),
        admit_s: Vec::new(),
        backlog: Vec::new(),
        statuses: Vec::new(),
        errors: Vec::new(),
    };
    let t0 = Instant::now();
    let fetcher_tracer = std::thread::scope(|scope| {
        let fetcher = scope.spawn(|| {
            // Owned here, so the fetcher's exit closes both channels.
            let (admit_rx, done_tx) = (admit_rx, done_tx);
            let mut tracer = fetcher_tracer;
            let root = tracer.begin("bench.fetch", cfg.seed);
            while let Ok(job) = tracer.span("bench.idle", 0, || admit_rx.recv()) {
                let f = fetch(&s.addr, job, t0, &mut tracer);
                completed.fetch_add(1, Ordering::SeqCst);
                if done_tx.send(f).is_err() {
                    break;
                }
            }
            tracer.end(root);
            tracer
        });
        let gen_root = generator.begin("bench.generate", cfg.seed);
        let mut submit = |index: usize, burst: bool, due_s: f64, p: &mut Phase| {
            let sent = Instant::now();
            let text = s.texts[index].as_str();
            let seed = job_seed(cfg.seed, index);
            let resp = generator.span("serve.submit", index as u64, || {
                client::submit(&s.addr, text, Some(seed))
            });
            let admitted_s = t0.elapsed().as_secs_f64();
            p.admit_s.push(sent.elapsed().as_secs_f64());
            p.statuses.extend(status_of(&resp));
            match admitted_id(resp) {
                Ok(id) => admit_tx
                    .send(Admitted {
                        index,
                        burst,
                        id,
                        due_s,
                        admitted_s,
                        keep_trace: keep.contains(&index),
                    })
                    .is_ok(),
                Err(e) => {
                    p.errors.push(format!("job {index}: {e}"));
                    false
                }
            }
        };
        let mut next = 0;
        let mut admitted = 0;
        for _ in 0..SEGMENTS {
            let start_s = t0.elapsed().as_secs_f64();
            let mut waiting = 0;
            for k in 0..per_segment {
                let due_s = due_at(start_s, k, cfg.serve_rate);
                sleep_until(t0 + Duration::from_secs_f64(due_s));
                p.late_s.push(t0.elapsed().as_secs_f64() - due_s);
                waiting += usize::from(submit(next, false, due_s, &mut p));
                next += 1;
                p.backlog
                    .push(admitted + waiting - completed.load(Ordering::SeqCst));
            }
            // Drain the fixed-rate jobs, so the burst starts on an idle worker.
            p.fetched.extend(done_rx.iter().take(waiting));
            admitted += waiting;
            let burst_s = t0.elapsed().as_secs_f64();
            let mut burst = 0;
            for _ in 0..BURST_JOBS {
                burst += usize::from(submit(next, true, burst_s, &mut p));
                next += 1;
            }
            p.fetched.extend(done_rx.iter().take(burst));
            admitted += burst;
            p.bursts.push(t0.elapsed().as_secs_f64() - burst_s);
        }
        drop(admit_tx);
        generator.end(gen_root);
        fetcher.join().expect("fetcher thread panicked")
    });
    p.wall_s = t0.elapsed().as_secs_f64();
    for f in &mut p.fetched {
        p.statuses.append(&mut f.statuses);
        p.errors.append(&mut f.errors);
    }
    tracer.absorb(fetcher_tracer);
    Ok(p)
}

/// Median MB/s of fetching finished jobs' traces again.
fn stream_rate(addr: &str, fetched: &[Fetched], errors: &mut Vec<String>) -> f64 {
    let rates: Vec<f64> = fetched
        .iter()
        .take(STREAM_SAMPLES)
        .filter_map(|f| {
            let t0 = Instant::now();
            match client::fetch_trace(addr, &f.id) {
                Ok(bytes) => {
                    Some(bytes.len() as f64 / (1024.0 * 1024.0) / t0.elapsed().as_secs_f64())
                }
                Err(e) => {
                    errors.push(format!("{}: trace refetch: {e}", f.id));
                    None
                }
            }
        })
        .collect();
    median(&rates)
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|rd| {
            rd.filter_map(|e| e.ok()?.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Streamed traces of the sampled jobs equal `phantom run --trace`
/// output for the same scene and seed, run in-process: same length and
/// same 64-bit FNV-1a digest.
fn check_identity(cfg: &Config, texts: &[String], phase: &Phase, r: &mut Report) {
    for f in phase.fetched.iter().filter(|f| f.digest.is_some()) {
        let reference = cfg.work_dir.join(format!("identity-{}.jsonl", f.index));
        let opts = RunOptions {
            trace: Some(reference.clone()),
            ..RunOptions::default()
        };
        let outcome = parse_scene(&texts[f.index])
            .and_then(|scene| run_scene_opts(&scene, job_seed(cfg.seed, f.index), None, &opts))
            .and_then(|_| std::fs::read(&reference).map_err(|e| e.to_string()));
        let _ = std::fs::remove_file(&reference);
        r.check(match outcome {
            Ok(direct) if direct.len() == f.trace_bytes && Some(fnv1a_64(&direct)) == f.digest => {
                None
            }
            Ok(direct) => Some(format!(
                "job {}: streamed trace ({} bytes) differs from the in-process run ({} bytes)",
                f.index,
                f.trace_bytes,
                direct.len()
            )),
            Err(e) => Some(format!("job {}: reference run: {e}", f.index)),
        });
    }
}

/// Wraps a probe and accumulates the time spent inside it.
struct Timed<P> {
    inner: P,
    ns: Rc<Cell<u64>>,
    calls: Rc<Cell<u64>>,
}

impl<P: Probe> Probe for Timed<P> {
    fn on_event(&mut self, t: SimTime, node: NodeId, ev: &ProbeEvent) {
        let start = Instant::now();
        self.inner.on_event(t, node, ev);
        self.ns
            .set(self.ns.get() + start.elapsed().as_nanos() as u64);
        self.calls.set(self.calls.get() + 1);
    }

    fn flush(&mut self) {
        self.inner.flush();
    }
}

/// Counts the bytes written through it.
struct Counting<W> {
    inner: W,
    bytes: Rc<Cell<u64>>,
}

impl<W: Write> Write for Counting<W> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.bytes.set(self.bytes.get() + n as u64);
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

/// Observer cost measured by the replay.
#[derive(Default)]
struct Observers {
    trace_ns: Rc<Cell<u64>>,
    trace_calls: Rc<Cell<u64>>,
    trace_bytes: Rc<Cell<u64>>,
    tap_ns: Rc<Cell<u64>>,
    tap_calls: Rc<Cell<u64>>,
}

/// Replay jobs of the mix in-process the way the daemon's worker runs
/// them: compile, tee an `AnalysisSink` and a `JsonlProbe` spool, drive
/// the engine in heartbeat slices, assemble the result, finish analysis.
fn replay(
    cfg: &Config,
    texts: &[String],
    tracer: &mut Tracer,
    prof: &mut EngineProfile,
    obs: &Observers,
) -> Result<(), String> {
    let spool = cfg.work_dir.join("replay.jsonl");
    let analysis_path = cfg.work_dir.join("replay-analysis.json");
    let root = tracer.begin("bench.replay", cfg.seed);
    for (i, text) in texts.iter().enumerate().take(REPLAY_JOBS) {
        let job = i as u64;
        let seed = job_seed(cfg.seed, i);
        let scene = tracer.span("scene.parse", job, || parse_scene(text))?;
        let CompiledScene {
            mut engine,
            net,
            until,
            bottleneck,
            traced,
            tail_from_secs,
        } = tracer.span("scene.compile", job, || compile(&scene, seed));
        let manifest = Manifest::new(TRACE_SCHEMA, &scene.id, seed, &scene.id);
        let analyzer =
            StreamingAnalyzer::new(&manifest, analysis_targets(&scene), DEFAULT_WINDOW_SECS);
        let (sink, handle) = AnalysisSink::new(analyzer);
        let file =
            std::fs::File::create(&spool).map_err(|e| format!("{}: {e}", spool.display()))?;
        let writer = Counting {
            inner: file,
            bytes: Rc::clone(&obs.trace_bytes),
        };
        let trace = JsonlProbe::with_manifest(writer, &manifest.to_json())
            .map_err(|e| format!("{}: {e}", spool.display()))?;
        let tee = TeeProbe::new()
            .and(Box::new(Timed {
                inner: sink,
                ns: Rc::clone(&obs.tap_ns),
                calls: Rc::clone(&obs.tap_calls),
            }))
            .and(Box::new(Timed {
                inner: trace,
                ns: Rc::clone(&obs.trace_ns),
                calls: Rc::clone(&obs.trace_calls),
            }));
        let guard = ProbeGuard::install(Box::new(tee));
        let bracket = phantom_sim::profile::begin_profile();
        let step = (until.0 / REPLAY_SLICES).clamp(1, REPLAY_MAX_STEP_NS);
        let mut target = 0;
        while target < until.0 {
            target = (target + step).min(until.0);
            tracer.span("sim.run", job, || engine.run_until(SimTime(target)));
        }
        prof.add(&bracket.finish());
        tracer.span("scenarios.run", job, || {
            run_standard(
                engine,
                net,
                until,
                &scene.id,
                &scene.describe,
                "compiled from a phantom-scene/1 file",
                bottleneck,
                &traced,
                tail_from_secs,
            )
        });
        tracer.span("sim.probe", job, || drop(guard));
        tracer
            .span("analyze.finish", job, || match handle.finish() {
                Some(report) => std::fs::write(&analysis_path, report.to_json()),
                None => Ok(()),
            })
            .map_err(|e| format!("{}: {e}", analysis_path.display()))?;
    }
    tracer.end(root);
    Ok(())
}

/// Run the `serve` workload.
pub fn run(cfg: &Config) -> Result<Report, String> {
    let rate_jobs = MIN_RATE_JOBS.max((cfg.serve_rate * cfg.seconds).ceil() as usize);
    let per_segment = rate_jobs.div_ceil(SEGMENTS);
    let jobs = SEGMENTS * (per_segment + BURST_JOBS);
    let mut pick = Rng::new(cfg.seed, 0);
    let keep: Vec<usize> = (0..IDENTITY_SAMPLES)
        .map(|_| pick.int(0, jobs as u64 - 1) as usize)
        .collect();
    let mut r = Report::default();

    let s = setup(cfg, jobs, cfg.work_dir.join("spool"))?;
    let mut setups = vec![s.secs];
    let (warmup_mb, mut errors) = warm_up(&s);
    r.attempted += 1;
    let rss0 = sys::rss_mb();
    let spool0 = dir_bytes(&s.spool);
    let plain = phase(
        cfg,
        &s,
        per_segment,
        &keep,
        &mut Tracer::off(),
        &mut Tracer::off(),
    )?;
    let rss_growth_mb = sys::rss_mb() - rss0;
    let peak_rss_mb = sys::peak_rss_mb();
    errors.extend(plain.errors.iter().cloned());
    let stream_mb_per_s = stream_rate(&s.addr, &plain.fetched, &mut errors);
    let spool_mb_per_job =
        dir_bytes(&s.spool).saturating_sub(spool0) as f64 / (1024.0 * 1024.0) / jobs as f64;
    let texts = s.texts.clone();
    // Repeat the set-up while the phase's spool is still on disk:
    // deleting a gigabyte of spool keeps the file system busy for a
    // while, and a set-up timed during that measures the disk.
    for _ in 1..SETUP_REPEATS {
        let extra = setup(cfg, jobs, cfg.work_dir.join("spool-setup"))?;
        setups.push(extra.secs);
        shut_down(extra)?;
    }
    shut_down(s)?;

    let latencies = plain.latencies();
    let job_tail = tail(&latencies);
    let late = tail(&plain.late_s);
    let events: u64 = plain.fetched.iter().map(|f| f.events).sum();
    let run_s: Vec<f64> = plain.fetched.iter().map(|f| f.run_s).collect();
    r.e2e.insert("wall_s", plain.wall_s);
    r.e2e
        .insert("events_per_s", events as f64 / run_s.iter().sum::<f64>());
    r.e2e.insert("setup_s", median(&setups));
    r.e2e.insert("peak_rss_mb", peak_rss_mb);
    r.e2e.insert("job_p50_s", median(&latencies));
    r.e2e.insert("job_p95_s", job_tail.value);
    let burst_jobs = (SEGMENTS * BURST_JOBS) as f64;
    r.e2e
        .insert("jobs_per_s", burst_jobs / plain.bursts.iter().sum::<f64>());
    r.notes.push(format!(
        "warm-up job: {warmup_mb:.1} MB trace; {SEGMENTS} x ({per_segment} jobs at {} /s, burst of \
         {BURST_JOBS}); job_p95_s is p{:.1} of {} samples; bursts drained in {:.3?} s; generator \
         late p{:.1} {:.6} s",
        cfg.serve_rate, job_tail.pct, job_tail.n, plain.bursts, late.pct, late.value
    ));
    if let Some((early, late)) = backlog_growth(&plain.backlog) {
        r.notes.push(format!(
            "FLAG: backlog grew across the fixed-rate phase ({early:.1} -> {late:.1} jobs); \
             the offered rate exceeds what this machine serves"
        ));
    }

    let waits = plain.queue_waits();
    let wait_tail = tail(&waits);
    let statuses = &plain.statuses;
    r.layers.insert("serve.admit_s", median(&plain.admit_s));
    r.layers.insert("serve.queue_wait_p50_s", median(&waits));
    r.layers.insert("serve.queue_wait_p95_s", wait_tail.value);
    r.layers.insert("serve.run_s", median(&run_s));
    r.layers.insert("serve.stream_mb_per_s", stream_mb_per_s);
    r.layers.insert(
        "serve.analysis_get_s",
        median(
            &plain
                .fetched
                .iter()
                .map(|f| f.analysis_s)
                .collect::<Vec<_>>(),
        ),
    );
    r.layers.insert(
        "serve.rejected_429",
        statuses.iter().filter(|&&c| c == 429).count() as f64,
    );
    r.layers.insert(
        "serve.errors_5xx",
        statuses.iter().filter(|&&c| c >= 500).count() as f64,
    );
    r.layers.insert("serve.spool_mb_per_job", spool_mb_per_job);
    r.layers.insert("serve.rss_growth_mb", rss_growth_mb);
    r.layers.insert("bench.gen_late_p95_s", late.value);
    r.layers.insert(
        "bench.backlog_end",
        plain.backlog.last().copied().unwrap_or(0) as f64,
    );

    if cfg.traced {
        let mut tracer = Tracer::on(Instant::now());
        let mut side = tracer.fork();
        let s = setup(cfg, jobs, cfg.work_dir.join("spool"))?;
        errors.extend(warm_up(&s).1);
        let traced = phase(cfg, &s, per_segment, &[], &mut tracer, &mut side)?;
        shut_down(s)?;
        errors.extend(traced.errors.iter().cloned());
        r.attempted += traced.fetched.len() as u64;
        let mut prof = EngineProfile::default();
        let obs = Observers::default();
        replay(cfg, &texts, &mut tracer, &mut prof, &obs)?;
        let mut b = Breakdown::from_spans(tracer.spans());
        let run_ns = b.get("sim.run");
        prof.carve(&mut b, "sim.run", false);
        b.carve("sim.run", "sim.probe", obs.trace_ns.get());
        b.carve("sim.run", "analyze", obs.tap_ns.get());
        r.set_shares(&b);
        prof.set_counts(&mut r);
        let engine_ns = run_ns.saturating_sub(obs.trace_ns.get() + obs.tap_ns.get());
        let per_job = |layer: &str| b.get(layer) as f64 / 1e9 / REPLAY_JOBS as f64;
        let per_call = |ns: u64, calls: u64| ns as f64 / calls.max(1) as f64;
        r.layers.insert("scene.parse_s", per_job("scene.parse"));
        r.layers.insert("scene.compile_s", per_job("scene.compile"));
        r.layers
            .insert("analyze.finish_s", per_job("analyze.finish"));
        r.layers
            .insert("scenarios.run_s", b.get("scenarios.run") as f64 / 1e9);
        r.layers.insert("sim.run_s", engine_ns as f64 / 1e9);
        r.layers.insert("sim.events", prof.events as f64);
        r.layers
            .insert("sim.ns_per_event", per_call(engine_ns, prof.events));
        r.layers.insert(
            "sim.probe.ns_per_event",
            per_call(obs.trace_ns.get(), obs.trace_calls.get()),
        );
        r.layers.insert(
            "sim.probe.bytes_per_event",
            per_call(obs.trace_bytes.get(), obs.trace_calls.get()),
        );
        r.layers.insert(
            "analyze.ns_per_event",
            per_call(obs.tap_ns.get(), obs.tap_calls.get()),
        );
        r.layers
            .insert("bench.trace_overhead", traced.wall_s / plain.wall_s);
        tracer.absorb(side);
        cfg.write_spans(&tracer)?;
        r.breakdown = Some(b);
    }

    r.attempted += plain.fetched.len() as u64;
    let admitted = plain.fetched.len();
    r.expect(admitted == jobs, || {
        format!("{admitted} of {jobs} jobs admitted")
    });
    for e in errors {
        r.check(Some(e));
    }
    check_identity(cfg, &texts, &plain, &mut r);
    Ok(r)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fetched(burst: bool, due_s: f64, admitted_s: f64, trace_end_s: f64, done_s: f64) -> Fetched {
        Fetched {
            index: 0,
            burst,
            id: "job-0001".into(),
            due_s,
            admitted_s,
            trace_end_s,
            done_s,
            analysis_s: 0.0,
            trace_bytes: 0,
            digest: None,
            run_s: 0.25,
            events: 0,
            errors: Vec::new(),
            statuses: Vec::new(),
        }
    }

    #[test]
    fn jobs_fall_due_on_the_fixed_schedule() {
        assert_eq!(due_at(0.0, 0, 12.0), 0.0);
        assert!((due_at(0.0, 24, 12.0) - 2.0).abs() < 1e-12);
        assert!(
            (due_at(10.5, 6, 12.0) - 11.0).abs() < 1e-12,
            "segments offset the schedule"
        );
    }

    #[test]
    fn latency_counts_from_the_due_time_and_skips_bursts() {
        let p = Phase {
            wall_s: 3.0,
            // Sent half a second late: the lateness is charged to the job.
            fetched: vec![
                fetched(false, 1.0, 1.5, 1.9, 2.0),
                fetched(true, 2.0, 2.0, 2.5, 2.6),
            ],
            bursts: vec![0.6],
            late_s: vec![0.5],
            admit_s: Vec::new(),
            backlog: Vec::new(),
            statuses: Vec::new(),
            errors: Vec::new(),
        };
        assert_eq!(p.latencies(), vec![1.0]);
        let waits = p.queue_waits();
        assert_eq!(waits.len(), 1);
        assert!(
            (waits[0] - 0.15).abs() < 1e-12,
            "stream end - run - admission"
        );
    }

    #[test]
    fn backlog_growth_flags_only_a_rising_queue() {
        assert_eq!(backlog_growth(&[1, 0, 1, 1, 0, 1, 1, 0]), None);
        assert_eq!(backlog_growth(&[]), None);
        assert_eq!(backlog_growth(&[0, 1, 2, 3, 4, 5, 6, 7]), Some((0.5, 6.5)));
    }
}
