//! `job-resume`: durable jobs over the 214 236-scenario `repro dse` space.
//! One operation is a crash drill cycle:
//!
//! 1. a fresh server and jobs directory run the job uninterrupted, from
//!    submit to completion (`job_s`);
//! 2. a second fresh server starts the same job and is SIGKILLed once the
//!    on-disk manifest shows half the windows done;
//! 3. a restarted server on that directory restores the job, resumes it
//!    and completes it (`resume_s`, restart to completion).
//!
//! The cycle's latency is `job_s + resume_s`. Both completed jobs are
//! checked bit for bit against a local `Engine::sweep`, and both jobs
//! directories must be empty after completion. Checkpoint fsyncs, segment
//! spill and reload, and restore carry this workload.

use std::path::Path;
use std::time::{Duration, Instant};

use mp_dse::prelude::*;
use mp_serve::prelude::*;

use crate::proc::{poll, Server};
use crate::report::Outcome;
use crate::scrape::{Delta, Scrape};
use crate::stats::{median, Digest};
use crate::trace::Tracer;
use crate::Config;

/// How many times set-up runs (its median is reported).
const SETUPS: usize = 9;
/// Status and manifest polling interval.
const POLL: Duration = Duration::from_millis(2);
/// Longest any job phase may take before it counts as failed.
const PHASE_TIMEOUT: Duration = Duration::from_secs(60);

/// Window size and checkpoint cadence of the submitted job.
fn geometry(config: &Config) -> (usize, usize) {
    if config.tiny {
        (256, 4)
    } else {
        (1024, 8)
    }
}

/// The job space is the program's built-in paper catalogue: the seed does
/// not shape it.
pub fn stream_digest(config: &Config) -> u64 {
    let (chunk, every) = geometry(config);
    let mut digest = Digest::default();
    digest.update_u64(mp_dse::engine::space_fingerprint(&mp_bench::dse_cmd::experiment_space(
        config.tiny,
    )));
    digest.update_u64(chunk as u64);
    digest.update_u64(every as u64);
    digest.finish()
}

fn spawn(config: &Config, dir: &Path) -> Result<Server, String> {
    let dir = dir.display().to_string();
    Server::spawn(&config.repro, &["--jobs-dir", &dir])
}

/// Poll `id` until it settles; returns the final snapshot.
fn wait_settled(client: &mut Client, id: &str) -> Result<JobSnapshot, String> {
    let mut last = Err(format!("job {id} did not settle"));
    poll(PHASE_TIMEOUT, POLL, || match client.job_status(id) {
        Ok(snapshot) if snapshot.is_settled() => Some(Ok(snapshot)),
        Ok(snapshot) => {
            last = Err(format!("job {id} still {} after {PHASE_TIMEOUT:?}", snapshot.state));
            None
        }
        Err(e) => Some(Err(format!("job status: {e}"))),
    })
    .unwrap_or(last)
}

/// Fetch the job's records with a (warm) sweep and compare them bit for
/// bit with the reference; then require the jobs directory to be empty.
fn verify(
    client: &mut Client,
    space: &ScenarioSpace,
    reference: &[EvalRecord],
    dir: &Path,
) -> Result<(), String> {
    let request = Request::Sweep {
        space: SpaceSpec::Explicit(space.clone()),
        start: 0,
        end: space.len(),
        chunk: 0,
    };
    let outcome = client
        .call_with_retry(&request, &RetryPolicy::backoff_ms(1, 250), 1)
        .map_err(|e| format!("record fetch: {e}"))?;
    if outcome.exhausted {
        return Err("record fetch: still busy after the retry budget".to_string());
    }
    let (records, _) = assemble_sweep(outcome.responses, &(0..space.len()))
        .map_err(|e| format!("record fetch: {e}"))?;
    if !crate::serve::identical(&records, reference) {
        return Err("job records differ from the local reference sweep".to_string());
    }
    // Completion collects the manifest and then the orphaned segments.
    let clean = poll(Duration::from_secs(5), POLL, || {
        std::fs::read_dir(dir).ok().and_then(|mut entries| entries.next().is_none().then_some(()))
    });
    clean.ok_or_else(|| {
        let left: Vec<String> = std::fs::read_dir(dir)
            .map(|e| e.flatten().map(|e| e.file_name().to_string_lossy().into_owned()).collect())
            .unwrap_or_default();
        format!("jobs directory not clean after completion: {left:?}")
    })
}

/// The restore time the server logs at start-up, in ms.
fn restore_ms(server: &Server) -> Option<f64> {
    server.stderr_lines().iter().find_map(|line| {
        let rest = line.split("warn(jobs): restored ").nth(1)?;
        rest.rsplit(" in ").next()?.strip_suffix(" ms")?.trim().parse().ok()
    })
}

/// One cycle's measurements.
struct Cycle {
    job_s: f64,
    resume_s: f64,
    restore_ms: f64,
    resumed_windows: f64,
    delta: Delta,
}

struct Run<'a> {
    config: &'a Config,
    space: ScenarioSpace,
    reference: Vec<EvalRecord>,
    tracer: &'a Tracer,
}

impl Run<'_> {
    fn span<T>(
        &self,
        traced: bool,
        name: &'static str,
        id: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        if traced {
            self.tracer.span(name, id, parent, f)
        } else {
            f()
        }
    }

    /// Phase 1: the uninterrupted job.
    fn uninterrupted(
        &self,
        dir: &Path,
        outcome: &mut Outcome,
        traced: bool,
        id: u64,
        parent: Option<usize>,
    ) -> Result<(f64, Delta), String> {
        let (chunk, every) = geometry(self.config);
        let server = spawn(self.config, dir)?;
        let mut client = server.connect()?;
        let before = Scrape::fetch(&mut client)?;
        let started = Instant::now();
        let settled = self.span(traced, "jobs.run", id, parent, || {
            let submitted = client
                .job_submit(&self.space, None, chunk, every)
                .map_err(|e| format!("submit: {e}"))?;
            wait_settled(&mut client, &submitted.id)
        })?;
        let job_s = started.elapsed().as_secs_f64();
        if settled.state != "completed" {
            return Err(format!(
                "uninterrupted job settled as {}: {}",
                settled.state, settled.reason
            ));
        }
        self.span(traced, "jobs.verify", id, parent, || {
            verify(&mut client, &self.space, &self.reference, dir)
        })?;
        let delta = Scrape::fetch(&mut client)?.delta(&before);
        drop(client);
        let exit = server.shutdown()?;
        outcome.rss(exit.peak_rss_mb);
        Ok((job_s, delta))
    }

    /// Phases 2 and 3: start, kill at half, restart, resume, complete.
    fn crash_and_resume(
        &self,
        dir: &Path,
        outcome: &mut Outcome,
        traced: bool,
        id: u64,
        parent: Option<usize>,
    ) -> Result<(f64, f64, f64, Delta), String> {
        let (chunk, every) = geometry(self.config);
        let server = spawn(self.config, dir)?;
        let mut client = server.connect()?;
        let submitted = client
            .job_submit(&self.space, None, chunk, every)
            .map_err(|e| format!("submit: {e}"))?;
        let manifest = dir.join(format!("{}.manifest", submitted.id));
        let half = submitted.windows_total.div_ceil(2);
        let reached = self.span(traced, "jobs.until_half", id, parent, || {
            poll(PHASE_TIMEOUT, POLL, || {
                let bytes = std::fs::read(&manifest).ok()?;
                let parsed = Manifest::from_bytes(&bytes).ok()?;
                (parsed.completed.len() >= half).then_some(parsed.completed.len())
            })
        });
        drop(client);
        let exit = server.kill()?;
        outcome.rss(exit.peak_rss_mb);
        let Some(done) = reached else {
            return Err(format!(
                "the manifest never showed {half} of {} windows done",
                submitted.windows_total
            ));
        };
        if done >= submitted.windows_total {
            return Err("the job completed before the kill".to_string());
        }

        let restarted = Instant::now();
        let server = self.span(traced, "jobs.restart", id, parent, || spawn(self.config, dir))?;
        let mut client = server.connect()?;
        let restored =
            client.job_status(&submitted.id).map_err(|e| format!("status after restart: {e}"))?;
        if restored.state != "suspended" || restored.windows_completed < done {
            return Err(format!(
                "restart restored the job as {} with {} windows done (manifest had {done})",
                restored.state, restored.windows_completed
            ));
        }
        let settled = self.span(traced, "jobs.resume", id, parent, || {
            client.job_resume(&submitted.id).map_err(|e| format!("resume: {e}"))?;
            wait_settled(&mut client, &submitted.id)
        })?;
        let resume_s = restarted.elapsed().as_secs_f64();
        if settled.state != "completed" {
            return Err(format!("resumed job settled as {}: {}", settled.state, settled.reason));
        }
        let restore = restore_ms(&server).ok_or("the restarted server logged no restore")?;
        self.span(traced, "jobs.verify", id, parent, || {
            verify(&mut client, &self.space, &self.reference, dir)
        })?;
        let delta = Scrape::fetch(&mut client)?.delta(&Scrape::default());
        drop(client);
        let exit = server.shutdown()?;
        outcome.rss(exit.peak_rss_mb);
        let resumed = (restored.windows_total - restored.windows_completed) as f64;
        Ok((resume_s, restore, resumed, delta))
    }

    fn cycle(&self, n: u64, outcome: &mut Outcome, traced: bool) -> Option<Cycle> {
        let root = traced.then(|| self.tracer.begin("jobs.cycle", n, None));
        let dir_a = self.config.work.join(format!("jobs-{n}-a"));
        let dir_b = self.config.work.join(format!("jobs-{n}-b"));
        let first = self.uninterrupted(&dir_a, outcome, traced, n, root);
        let first = outcome.record(first);
        let second = self.crash_and_resume(&dir_b, outcome, traced, n, root);
        let second = outcome.record(second);
        if let Some(root) = root {
            self.tracer.end(root);
        }
        let _ = std::fs::remove_dir_all(&dir_a);
        let _ = std::fs::remove_dir_all(&dir_b);
        let ((job_s, mut delta), (resume_s, restore_ms, resumed_windows, resumed_delta)) =
            (first?, second?);
        delta.add(&resumed_delta);
        Some(Cycle { job_s, resume_s, restore_ms, resumed_windows, delta })
    }
}

/// Run the workload.
pub fn run(config: &Config, tracer: &Tracer, outcome: &mut Outcome) -> Result<(), String> {
    for i in 0..SETUPS {
        let dir = config.work.join(format!("setup-{i}"));
        let started = Instant::now();
        let ready = spawn(config, &dir).and_then(|server| {
            server.connect()?.ping().map_err(|e| format!("ping: {e}"))?;
            Ok(server)
        });
        outcome.setups_s.push(started.elapsed().as_secs_f64());
        if let Some(server) = outcome.record(ready) {
            outcome.record(server.shutdown());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    let space = mp_bench::dse_cmd::experiment_space(config.tiny);
    let reference = Engine::new(2)
        .sweep(
            &space,
            &AnalyticBackend,
            &SweepConfig { use_cache: false, ..SweepConfig::default() },
        )
        .records;
    let (chunk, every) = geometry(config);
    outcome.note(format!(
        "job over {} scenarios in windows of {chunk}, checkpoint every {every} windows",
        space.len()
    ));
    let run = Run { config, space, reference, tracer };

    let mut cycles = Vec::new();
    let mut untraced_ms = Vec::new();
    let mut traced_ms = Vec::new();
    let started = Instant::now();
    let mut n = 0;
    while n == 0 || started.elapsed() < config.seconds {
        n += 1;
        // The traced run measures its first half untraced, so the tracing
        // overhead is the difference of the two halves.
        let traced = config.trace && started.elapsed() >= config.seconds / 2;
        let Some(cycle) = run.cycle(n, outcome, traced) else { continue };
        let ms = (cycle.job_s + cycle.resume_s) * 1e3;
        outcome.latencies_ms.push(ms);
        outcome.elapsed_s += cycle.job_s + cycle.resume_s;
        if traced {
            traced_ms.push(ms)
        } else {
            untraced_ms.push(ms)
        }
        cycles.push(cycle);
    }
    outcome.note(format!("{} crash-drill cycles", cycles.len()));
    // Every cycle asks for the same space four times (two jobs, two record
    // fetches), so all but the first request of the run repeat.
    let requests = 4.0 * cycles.len().max(1) as f64;
    let repeat = 1.0 - 1.0 / requests;
    outcome.note(format!(
        "repeat_share: {repeat:.4} of requested scenarios were requested earlier in the run"
    ));

    if config.trace {
        let med = |f: &dyn Fn(&Cycle) -> f64| median(&cycles.iter().map(f).collect::<Vec<_>>());
        let mut delta = Delta::default();
        for cycle in &cycles {
            delta.add(&cycle.delta);
        }
        let per_cycle = |x: f64| x / cycles.len().max(1) as f64;
        let hits = delta.counter("cache_hits");
        let misses = delta.counter("cache_misses");
        outcome.layer("bench.job_s", med(&|c| c.job_s));
        outcome.layer("bench.resume_s", med(&|c| c.resume_s));
        outcome.layer("serve.jobs.restore_ms", med(&|c| c.restore_ms));
        outcome.layer("serve.jobs.resumed_windows", med(&|c| c.resumed_windows));
        outcome.layer("serve.jobs.checkpoint_ms", delta.mean_ms("job_checkpoint_ms"));
        outcome.layer("serve.jobs.checkpoints", per_cycle(delta.count("job_checkpoint_ms")));
        outcome.layer("serve.jobs.windows", per_cycle(delta.counter("job_windows_completed")));
        outcome.layer("dse.engine.scenarios", per_cycle(delta.counter("dse_scenarios_evaluated")));
        outcome.layer("dse.cache.hits", per_cycle(hits));
        outcome.layer("dse.cache.misses", per_cycle(misses));
        outcome.layer("dse.cache.inserts", per_cycle(delta.counter("cache_inserts")));
        outcome.layer("dse.cache.hit_ratio", hits / (hits + misses).max(1.0));
        outcome.layer("serve.queue_wait_ms", delta.mean_ms("serve_queue_wait_ms"));
        outcome.layer("serve.merge_ms", delta.mean_ms("planner_merge_ms"));
        outcome.layer("serve.sched.units", per_cycle(delta.counter("sched_units_total")));
        outcome.layer("serve.sched.stolen", per_cycle(delta.counter("sched_units_stolen")));
        outcome.layer("serve.sched.rebands", per_cycle(delta.counter("sched_rebands")));
        outcome.layer("serve.sched.shard_busy_ms", delta.mean_ms("sched_shard_busy_ms"));
        outcome.layer(
            "serve.planner.coalesced",
            per_cycle(delta.counter("planner_coalesced_requests")),
        );
        outcome.layer("serve.planner.busy_rejections", per_cycle(delta.counter("busy_rejections")));
        outcome.layer(
            "serve.planner.cost_rejections",
            per_cycle(delta.counter("planner_cost_rejections")),
        );
        outcome.layer("bench.trace_overhead_ms", median(&traced_ms) - median(&untraced_ms));
        outcome.note(format!(
            "tracing overhead: traced cycle p50 {:.1} ms ({} cycles) - untraced {:.1} ms ({} cycles)",
            median(&traced_ms),
            traced_ms.len(),
            median(&untraced_ms),
            untraced_ms.len()
        ));
    }
    Ok(())
}
