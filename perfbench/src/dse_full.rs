//! `dse-full`: the `repro dse` command end to end. One operation is a cold
//! run into an empty output directory followed by a warm restart on the
//! same directory, so the persistence the cold run writes is the
//! persistence the warm run reads. The traced run replays the command's
//! calls in process under spans.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use mp_dse::prelude::*;

use crate::proc::run_repro;
use crate::report::Outcome;
use crate::stats::{digest_after_first_line, digest_all, median, Digest};
use crate::trace::Tracer;
use crate::Config;

/// How many times set-up runs (its median is reported).
const SETUPS: usize = 9;

/// Engine threads of every `repro dse` run and replay.
const THREADS: &str = "2";

/// The space is the program's built-in paper catalogue: the seed does not
/// shape it, so the stream digest is the space's fingerprint alone.
pub fn stream_digest(config: &Config) -> u64 {
    let mut digest = Digest::default();
    digest.update_u64(mp_dse::engine::space_fingerprint(&mp_bench::dse_cmd::experiment_space(
        config.tiny,
    )));
    digest.finish()
}

/// Digests of one output directory's `sweep.json` records and `sweep.csv`.
fn export_digests(dir: &Path) -> Result<(u64, u64), String> {
    let json =
        std::fs::read(dir.join("sweep.json")).map_err(|e| format!("read sweep.json: {e}"))?;
    let csv = std::fs::read(dir.join("sweep.csv")).map_err(|e| format!("read sweep.csv: {e}"))?;
    Ok((digest_after_first_line(&json), digest_all(&csv)))
}

/// A `repro dse --json` summary field.
fn field<'a>(summary: &'a serde_json::Value, name: &str) -> Option<&'a serde_json::Value> {
    summary.as_map()?.iter().find(|(k, _)| k == name).map(|(_, v)| v)
}

/// One `repro dse` process: checks its summary; returns its wall seconds.
fn run_cli(
    config: &Config,
    dir: &Path,
    warm: bool,
    scenarios: usize,
    outcome: &mut Outcome,
) -> Option<f64> {
    let dir_arg = dir.display().to_string();
    let mut args = vec!["dse", "--out", dir_arg.as_str(), "--threads", THREADS, "--json"];
    if config.tiny {
        args.push("--quick");
    }
    let (exit, wall, stdout) = outcome.record(run_repro(&config.repro, &args))?;
    outcome.rss(exit.peak_rss_mb);
    let summary = stdout.lines().last().and_then(|line| serde_json::parse(line).ok());
    let Some(summary) = summary else {
        outcome.check(false, || format!("unparseable dse summary: {stdout}"));
        return None;
    };
    let identical = field(&summary, "identical").and_then(|v| v.as_bool()) == Some(true);
    let swept = field(&summary, "scenarios").and_then(|v| v.as_f64()) == Some(scenarios as f64);
    let warm_entries = field(&summary, "warm_entries").and_then(|v| v.as_f64()).unwrap_or(-1.0);
    let started_right = if warm { warm_entries > 0.0 } else { warm_entries == 0.0 };
    outcome
        .check(identical && swept && started_right, || {
            format!("dse summary (warm={warm}) failed its checks: {stdout}")
        })
        .then_some(wall)
}

/// What one in-process replay of the command measured.
#[derive(Default)]
struct Replay {
    /// Wall time of the whole replay.
    root_ms: f64,
    /// Self time per layer span name (the root excluded).
    self_ms: BTreeMap<&'static str, f64>,
    allocs: f64,
    json_mb: f64,
    csv_mb: f64,
    save_mb: f64,
    load_entries: f64,
    scenarios: f64,
    hits: f64,
    misses: f64,
    inserts: f64,
    entries: f64,
    digests: (u64, u64),
}

impl Replay {
    fn self_ms(&self, name: &str) -> f64 {
        self.self_ms.get(name).copied().unwrap_or(0.0)
    }
}

/// Replay `repro dse`'s calls in process under spans, writing into `dir`
/// exactly what the command writes.
fn replay(
    config: &Config,
    tracer: &Tracer,
    dir: &Path,
    warm: bool,
    request: u64,
) -> Result<Replay, String> {
    let root = tracer.begin(if warm { "dse.warm" } else { "dse.cold" }, request, None);
    let parent = Some(root);
    let mut out = Replay::default();
    let space = tracer
        .span("dse.space", request, parent, || mp_bench::dse_cmd::experiment_space(config.tiny));
    let backend = AnalyticBackend;
    let engine = Engine::new(THREADS.parse().expect("thread count"));
    let sweep_config = SweepConfig::default();
    let cache_path = dir.join("cache-analytic.json");
    if warm {
        let loaded = tracer.span("dse.cache.load", request, parent, || {
            let json =
                std::fs::read_to_string(&cache_path).map_err(|e| format!("read cache: {e}"))?;
            engine.cache().load_json(&json).map_err(|e| format!("load cache: {e}"))
        })?;
        out.load_entries = loaded as f64;
    }
    // `Engine::sweep` is a table build plus a full-range sweep; replaying
    // the two halves separately attributes them to their own layers.
    let pass = || {
        let handle = tracer.span("dse.tables", request, parent, || SweepHandle::new(&space));
        tracer.span("dse.engine.sweep", request, parent, || {
            engine.sweep_range(&handle, &backend, &sweep_config, 0..handle.len())
        })
    };
    let first = pass();
    let second = pass();
    let identical = first
        .records
        .iter()
        .zip(second.records.iter())
        .all(|(a, b)| a.index == b.index && a.speedup.to_bits() == b.speedup.to_bits());
    if !identical {
        return Err("in-process cached re-sweep diverged from the first pass".to_string());
    }
    tracer.span("dse.analysis.top_k", request, parent, || top_k(&first.records, 10));
    tracer.span("dse.analysis.optima", request, parent, || per_axis_optima(&space, &first.records));
    tracer.span("dse.analysis.pareto", request, parent, || {
        pareto_frontier(&first.records, CostAxis::Cores)
    });
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let allocs_before = mp_bench::alloc_track::allocation_count();
    tracer
        .span("dse.export.json", request, parent, || -> std::io::Result<()> {
            let mut json = std::io::BufWriter::new(std::fs::File::create(dir.join("sweep.json"))?);
            write_json(&mut json, &space, &first.records, &first.stats)?;
            json.flush()
        })
        .map_err(|e| format!("export sweep.json: {e}"))?;
    tracer
        .span("dse.export.csv", request, parent, || -> std::io::Result<()> {
            let mut csv = std::io::BufWriter::new(std::fs::File::create(dir.join("sweep.csv"))?);
            write_csv(&mut csv, &space, &first.records)?;
            csv.flush()
        })
        .map_err(|e| format!("export sweep.csv: {e}"))?;
    out.allocs = (mp_bench::alloc_track::allocation_count() - allocs_before) as f64;
    let saved = tracer.span("dse.cache.save", request, parent, || {
        let json = engine.cache().save_json();
        std::fs::write(&cache_path, &json).map(|_| json.len())
    });
    out.save_mb = saved.map_err(|e| format!("save cache: {e}"))? as f64 / 1e6;
    tracer.end(root);

    out.root_ms = tracer.duration_ms(root);
    out.self_ms = tracer
        .self_time_by_name(root)
        .into_iter()
        .filter(|(name, _)| *name != "dse.cold" && *name != "dse.warm")
        .collect();
    let size =
        |name: &str| std::fs::metadata(dir.join(name)).map(|m| m.len() as f64 / 1e6).unwrap_or(0.0);
    out.json_mb = size("sweep.json");
    out.csv_mb = size("sweep.csv");
    out.scenarios = (first.stats.scenarios + second.stats.scenarios) as f64;
    out.hits = (first.stats.cache_hits + second.stats.cache_hits) as f64;
    out.misses = (first.stats.cache_misses + second.stats.cache_misses) as f64;
    let cache = engine.cache().stats();
    out.inserts = cache.inserts as f64;
    out.entries = cache.entries as f64;
    out.digests = export_digests(dir)?;
    Ok(out)
}

/// The per-layer time metrics of the cold command's steps.
const COLD_LAYERS: &[&str] = &[
    "dse.space_ms",
    "dse.tables_ms",
    "dse.engine.sweep_ms",
    "dse.analysis.top_k_ms",
    "dse.analysis.pareto_ms",
    "dse.analysis.optima_ms",
    "dse.export.json_ms",
    "dse.export.csv_ms",
    "dse.cache.save_ms",
];

/// Per-layer values of one traced iteration: the cold replay's layers
/// (the warm replay's for loading) and the untraced cold and warm command
/// walls measured next to them.
fn layers_of(cold: &Replay, warm: &Replay, cold_s: f64, warm_s: f64) -> Vec<(&'static str, f64)> {
    vec![
        ("dse.space_ms", cold.self_ms("dse.space")),
        ("dse.tables_ms", cold.self_ms("dse.tables")),
        ("dse.engine.sweep_ms", cold.self_ms("dse.engine.sweep")),
        ("dse.engine.scenarios", cold.scenarios),
        ("dse.cache.entries", cold.entries),
        ("dse.cache.hits", cold.hits),
        ("dse.cache.misses", cold.misses),
        ("dse.cache.inserts", cold.inserts),
        ("dse.cache.hit_ratio", cold.hits / (cold.hits + cold.misses).max(1.0)),
        ("dse.cache.save_ms", cold.self_ms("dse.cache.save")),
        ("dse.cache.save_mb", cold.save_mb),
        ("dse.cache.load_ms", warm.self_ms("dse.cache.load")),
        ("dse.cache.load_entries", warm.load_entries),
        ("dse.analysis.top_k_ms", cold.self_ms("dse.analysis.top_k")),
        ("dse.analysis.pareto_ms", cold.self_ms("dse.analysis.pareto")),
        ("dse.analysis.optima_ms", cold.self_ms("dse.analysis.optima")),
        ("dse.export.json_ms", cold.self_ms("dse.export.json")),
        ("dse.export.csv_ms", cold.self_ms("dse.export.csv")),
        ("dse.export.json_mb", cold.json_mb),
        ("dse.export.csv_mb", cold.csv_mb),
        ("dse.export.allocs", cold.allocs),
        ("bench.dse_cold_s", cold_s),
        ("bench.dse_warm_s", warm_s),
    ]
}

/// Run the workload.
pub fn run(config: &Config, tracer: &Tracer, outcome: &mut Outcome) -> Result<(), String> {
    // Set-up: a small `repro dse --quick` run, which pages in the binary and
    // warms the file system the way a user's first command does.
    for i in 0..SETUPS {
        let dir = config.work.join(format!("setup-{i}"));
        let dir_arg = dir.display().to_string();
        let started = Instant::now();
        let run = run_repro(
            &config.repro,
            &["dse", "--quick", "--out", &dir_arg, "--threads", THREADS, "--json"],
        );
        outcome.setups_s.push(started.elapsed().as_secs_f64());
        outcome.record(run);
        let _ = std::fs::remove_dir_all(&dir);
    }

    // Reference: the in-process sweep and export every run must reproduce.
    let space = mp_bench::dse_cmd::experiment_space(config.tiny);
    let reference = {
        let result = Engine::new(2).sweep(&space, &AnalyticBackend, &SweepConfig::default());
        let mut json = Vec::new();
        let mut csv = Vec::new();
        write_json(&mut json, &space, &result.records, &result.stats).map_err(|e| e.to_string())?;
        write_csv(&mut csv, &space, &result.records).map_err(|e| e.to_string())?;
        (digest_after_first_line(&json), digest_all(&csv))
    };
    let scenarios = space.len();
    drop(space);

    let mut traced: Vec<Vec<(&'static str, f64)>> = Vec::new();
    let mut replay_pairs_ms = Vec::new();
    let replay_dir = config.work.join("replay");
    let started = Instant::now();
    let mut busy_s = 0.0;
    let mut iteration = 0u64;
    while iteration == 0 || started.elapsed() < config.seconds {
        iteration += 1;
        let dir = config.work.join("out");
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&replay_dir);
        // A traced iteration replays each command right after it runs, so
        // the command and its replay see the same host speed.
        let replay_step = |warm: bool, outcome: &mut Outcome| {
            config
                .trace
                .then(|| outcome.record(replay(config, tracer, &replay_dir, warm, iteration)))
                .flatten()
        };
        let Some(cold_s) = run_cli(config, &dir, false, scenarios, outcome) else { continue };
        let cold = replay_step(false, outcome);
        let cold_digests = export_digests(&dir);
        outcome.check(cold_digests.as_ref().ok() == Some(&reference), || {
            format!("cold export digests {cold_digests:?} differ from the reference {reference:?}")
        });
        let Some(warm_s) = run_cli(config, &dir, true, scenarios, outcome) else { continue };
        let warm = replay_step(true, outcome);
        let warm_digests = export_digests(&dir);
        outcome.check(warm_digests.as_ref().ok() == Some(&reference), || {
            format!("warm export digests {warm_digests:?} differ from the reference {reference:?}")
        });
        outcome.latencies_ms.push((cold_s + warm_s) * 1e3);
        busy_s += cold_s + warm_s;
        if let (Some(cold), Some(warm)) = (cold, warm) {
            outcome.check(cold.digests == reference && warm.digests == reference, || {
                "traced in-process export digests differ from the reference".to_string()
            });
            traced.push(layers_of(&cold, &warm, cold_s, warm_s));
            replay_pairs_ms.push(cold.root_ms + warm.root_ms);
        }
    }
    outcome.elapsed_s = busy_s;
    outcome
        .note(format!("{} cold+warm pairs over {scenarios} scenarios", outcome.latencies_ms.len()));
    // Each command sweeps the space twice, so all but the first pass of the
    // run's first command request scenarios already requested.
    let passes = 4.0 * outcome.latencies_ms.len().max(1) as f64;
    let repeat = 1.0 - 1.0 / passes;
    outcome.note(format!(
        "repeat_share: {repeat:.4} of requested scenarios were requested earlier in the run"
    ));
    if let Some(first) = traced.first() {
        // Each layer is its median over the traced iterations; the
        // unattributed rest is defined against those medians, so the
        // reported cold layer self times plus `bench.unattributed_ms` add up
        // to the reported untraced cold run exactly.
        for (i, (name, _)) in first.iter().enumerate() {
            outcome
                .layer(name, median(&traced.iter().map(|layers| layers[i].1).collect::<Vec<_>>()));
        }
        let get = |name: &str| outcome.layers.get(name).copied().unwrap_or(0.0);
        let layers_ms: f64 = COLD_LAYERS.iter().map(|name| get(name)).sum();
        let cold_ms = get("bench.dse_cold_s") * 1e3;
        outcome.layer("bench.unattributed_ms", cold_ms - layers_ms);
        outcome.layer(
            "bench.trace_overhead_ms",
            median(&replay_pairs_ms) - median(&outcome.latencies_ms),
        );
        outcome.note(format!(
            "attribution: cold layer self times {layers_ms:.1} ms + bench.unattributed_ms {:.1} ms = untraced cold run {cold_ms:.1} ms (medians of {} traced iterations)",
            cold_ms - layers_ms,
            traced.len()
        ));
    }
    Ok(())
}
