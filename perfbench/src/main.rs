//! # perfbench — end-to-end and per-layer benchmark of the merging-phases
//! system
//!
//! One run measures one workload against the real `repro` binary for a
//! fixed number of seconds, checks every output, and prints a summary
//! followed by one JSON line:
//! `{"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}`.
//! With `--trace 0` the metrics are the end-to-end ones; with `--trace 1`
//! a separate traced run replays the same calls in process under spans and
//! reports the per-layer ones. See `perfbench/README.md` for the method.
//!
//! ```text
//! perfbench --workload dse-full|serve-sweep|serve-explore|job-resume
//!           --seed N --seconds S --trace 0|1 --repro PATH --work DIR [--tiny]
//! ```

mod dse_full;
mod job_resume;
mod proc;
mod report;
mod scrape;
mod serve;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use report::Outcome;
use trace::Tracer;

#[global_allocator]
static ALLOC: mp_bench::alloc_track::CountingAllocator = mp_bench::alloc_track::CountingAllocator;

/// Every workload the harness runs. `BENCHMARK.json` gates all of them but
/// `serve-sweep`, whose figures follow the host's speed too closely to be
/// steady on the 2-CPU benchmark host (see `perfbench/README.md`).
pub const WORKLOADS: &[&str] = &["dse-full", "serve-sweep", "serve-explore", "job-resume"];

/// One run's settings.
pub struct Config {
    /// Which workload.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Length of the timed section.
    pub seconds: Duration,
    /// Traced (per-layer) run instead of the end-to-end one.
    pub trace: bool,
    /// The `repro` binary under test.
    pub repro: PathBuf,
    /// Scratch directory of this run (created fresh, removed at the end).
    pub work: PathBuf,
    /// Tiny inputs, for the harness self-test.
    pub tiny: bool,
}

fn parse(args: &[String]) -> Result<Config, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut repro = None;
    let mut work = None;
    let mut tiny = false;
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        if flag == "--tiny" {
            tiny = true;
            continue;
        }
        let value = iter.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => {
                seed = Some(value.parse::<u64>().map_err(|_| format!("bad --seed {value}"))?)
            }
            "--seconds" => {
                let s = value.parse::<f64>().ok().filter(|s| *s > 0.0 && s.is_finite());
                seconds = Some(Duration::from_secs_f64(
                    s.ok_or_else(|| format!("bad --seconds {value}"))?,
                ));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            "--repro" => repro = Some(PathBuf::from(value)),
            "--work" => work = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {}", WORKLOADS.join(", ")));
    }
    Ok(Config {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        repro: repro.ok_or("--repro is required")?,
        work: work.ok_or("--work is required")?,
        tiny,
    })
}

/// The digest of the request stream a workload would send for `seed`, and
/// whether the seed is supposed to change it.
fn stream_digest(config: &Config, seed: u64) -> (u64, bool) {
    match config.workload.as_str() {
        "serve-sweep" | "serve-explore" => (serve::stream_digest(config, seed), true),
        "dse-full" => (dse_full::stream_digest(config), false),
        _ => (job_resume::stream_digest(config), false),
    }
}

/// Determinism self-check: one seed gives one request stream, and (where the
/// seed shapes the inputs) another seed gives another.
fn check_determinism(config: &Config, outcome: &mut Outcome) {
    let (first, seeded) = stream_digest(config, config.seed);
    let (again, _) = stream_digest(config, config.seed);
    let (other, _) = stream_digest(config, config.seed.wrapping_add(1));
    outcome.check(first == again, || "the same seed gave two request streams".to_string());
    if seeded {
        outcome
            .check(first != other, || "a different seed gave the same request stream".to_string());
    }
    outcome.note(format!(
        "request stream digest {first:016x} (seed {}; {})",
        config.seed,
        if seeded {
            "seed-dependent"
        } else {
            "fixed paper-catalogue space, independent of the seed"
        }
    ));
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let config = match parse(&args) {
        Ok(config) => config,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    let _ = std::fs::remove_dir_all(&config.work);
    if let Err(e) = std::fs::create_dir_all(&config.work) {
        eprintln!("perfbench: cannot create {}: {e}", config.work.display());
        return ExitCode::FAILURE;
    }
    let tracer = Tracer::new();
    let mut outcome = Outcome::default();
    check_determinism(&config, &mut outcome);
    let result = match config.workload.as_str() {
        "dse-full" => dse_full::run(&config, &tracer, &mut outcome),
        "serve-sweep" | "serve-explore" => serve::run(&config, &tracer, &mut outcome),
        _ => job_resume::run(&config, &tracer, &mut outcome),
    };
    let _ = std::fs::remove_dir_all(&config.work);
    if let Err(message) = result {
        eprintln!("perfbench: {} aborted: {message}", config.workload);
        return ExitCode::FAILURE;
    }

    if config.trace {
        let dir = config.work.parent().unwrap_or(&config.work).join("traces");
        let path = dir.join(format!("{}-seed{}.json", config.workload, config.seed));
        let written =
            std::fs::create_dir_all(&dir).and_then(|_| std::fs::write(&path, tracer.to_json()));
        match written {
            Ok(()) => {
                outcome.note(format!("trace: {} spans written to {}", tracer.len(), path.display()))
            }
            Err(e) => outcome.note(format!("trace: could not write {}: {e}", path.display())),
        }
    }
    println!(
        "perfbench {} seed={} trace={} tiny={}",
        config.workload, config.seed, config.trace as u8, config.tiny
    );
    for line in outcome.notes.iter().chain(outcome.latency_notes().iter()) {
        println!("  {line}");
    }
    for failure in &outcome.failures {
        println!("  FAILED: {failure}");
    }
    println!("{}", outcome.result_line(config.trace));
    if outcome.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parse_requires_every_run_flag() {
        let full = args(&[
            "--workload",
            "dse-full",
            "--seed",
            "3",
            "--seconds",
            "10",
            "--trace",
            "1",
            "--repro",
            "r",
            "--work",
            "w",
        ]);
        let config = parse(&full).unwrap();
        assert_eq!((config.seed, config.trace, config.tiny), (3, true, false));
        assert_eq!(config.seconds, Duration::from_secs(10));
        assert!(parse(&full[..full.len() - 2]).is_err());
        let mut bad = full.clone();
        bad[1] = "nope".to_string();
        assert!(parse(&bad).is_err());
        let mut bad = full.clone();
        bad[7] = "2".to_string();
        assert!(parse(&bad).is_err());
    }
}
