//! `perfbench`: the repository benchmark.
//!
//! ```text
//! bash perfbench/run.sh --workload sweep|metro|serve --seed N --seconds S \
//!     --trace 0|1 [--serve-rate R]
//! ```
//!
//! Run from the repository root. An untraced run (`--trace 0`) prints
//! the end-to-end metrics; a traced run (`--trace 1`) measures the same
//! work once untraced and once with spans and the engine profiler on,
//! and prints the per-layer metrics, with the span file written under
//! `perfbench/out/`. The last line of standard output is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. A summary
//! goes to standard error. See `perfbench/README.md`.

mod engine;
mod gen;
mod metro;
mod report;
mod serve;
mod spans;
mod stats;
mod sweep;
mod sys;

use std::path::PathBuf;
use std::process::ExitCode;

/// Settings of one run.
pub struct Config {
    /// Workload name.
    pub workload: String,
    /// Seed every generated input derives from.
    pub seed: u64,
    /// Seconds the measured phase should last.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub traced: bool,
    /// Offered job rate of the serve workload's fixed-rate phase, 1/s
    /// (`BENCHMARK.json` fixes it on the command line; 0 elsewhere).
    pub serve_rate: f64,
    /// Repository root (the working directory).
    pub root: PathBuf,
    /// Scratch directory of this run, removed when it ends.
    pub work_dir: PathBuf,
    /// Directory for span files.
    pub out_dir: PathBuf,
}

impl Config {
    /// Write a traced pass's spans to `out/spans-<workload>-<seed>.jsonl`.
    pub fn write_spans(&self, tracer: &spans::Tracer) -> Result<(), String> {
        let path = self
            .out_dir
            .join(format!("spans-{}-{}.jsonl", self.workload, self.seed));
        tracer
            .write_jsonl(&path)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        eprintln!("spans written to {}", path.display());
        Ok(())
    }
}

const USAGE: &str = "usage: perfbench --workload sweep|metro|serve --seed N --seconds S \
                     --trace 0|1 [--serve-rate JOBS_PER_S, required by serve]";

fn parse_args(args: &[String]) -> Result<Config, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = false;
    let mut serve_rate = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let number = |v: &String| v.parse::<f64>().map_err(|e| format!("{flag} {v}: {e}"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => {
                let v = value()?;
                seed = Some(v.parse::<u64>().map_err(|e| format!("--seed {v}: {e}"))?);
            }
            "--seconds" => seconds = Some(number(value()?)?),
            "--trace" => {
                traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                }
            }
            "--serve-rate" => serve_rate = Some(number(value()?)?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !["sweep", "metro", "serve"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload} (sweep|metro|serve)"));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    let serve_rate = match serve_rate {
        Some(r) if r > 0.0 => r,
        Some(r) => return Err(format!("--serve-rate must be positive, got {r}")),
        None if workload == "serve" => return Err("serve needs --serve-rate".into()),
        None => 0.0,
    };
    if seconds.is_nan() || seconds <= 0.0 {
        return Err(format!("--seconds must be positive, got {seconds}"));
    }
    let root = std::env::current_dir().map_err(|e| format!("no working directory: {e}"))?;
    let out_dir = root.join("perfbench/out");
    Ok(Config {
        work_dir: out_dir.join(format!("work-{workload}-{}", std::process::id())),
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        traced,
        serve_rate,
        root,
        out_dir,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse_args(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    // The benchmark drives the repository's own inputs; refuse to run
    // anywhere else rather than report numbers about nothing.
    if !cfg.root.join("crates/baselines/analysis").is_dir() {
        eprintln!("perfbench: run from the repository root (crates/baselines/analysis not found)");
        return ExitCode::FAILURE;
    }
    if let Err(e) = std::fs::create_dir_all(&cfg.work_dir) {
        eprintln!("perfbench: cannot create {}: {e}", cfg.work_dir.display());
        return ExitCode::FAILURE;
    }
    let outcome = match cfg.workload.as_str() {
        "sweep" => sweep::run(&cfg),
        "metro" => metro::run(&cfg),
        _ => serve::run(&cfg),
    };
    let _ = std::fs::remove_dir_all(&cfg.work_dir);
    let line = outcome.and_then(|r| {
        eprint!("{}", report::summary(&cfg.workload, &r, cfg.traced));
        report::result_line(&r, cfg.traced)
    });
    match line {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
