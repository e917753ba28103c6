//! The `repro dse` subcommand: a large-scale design-space exploration.
//!
//! Sweeps every Table II application and Table III class over fine-grained
//! symmetric and asymmetric core grids, three chip budgets, four
//! reduction-overhead growth laws and three core performance models —
//! ≥ 200 000 scenarios — through the `mp-dse` engine on all available cores,
//! then reports the top designs, per-axis optima and the Pareto frontier of
//! speedup against core count, and exports the full sweep as JSON and CSV.
//! The two export files are written concurrently, one per worker, up to the
//! `--threads` budget (`--threads 1` writes them in turn on the caller).
//!
//! The sweep runs twice: the second pass is answered entirely from the
//! memoisation cache and must reproduce the first pass bit-for-bit, which the
//! command verifies and reports. The cache is also persisted to the output
//! directory as a CRC-guarded binary segment (`cache-<backend>.seg`, see
//! [`EvalCache::save_segment`]), so a repeated *process* run warm-starts from
//! disk and hits the cache immediately. A torn, stale or foreign segment is
//! refused whole with a warning and the run starts cold. Segments are sorted,
//! so a warm run whose cache gained no entries would rewrite the same bytes:
//! it skips the write.
//!
//! `--trace PATH` records the whole command after argument parsing — cache
//! load, both sweeps, analysis, export and cache save (when there is one) —
//! under stable span names (`dse.engine.batch`, `dse.analysis.top_k`,
//! `dse.export.json`, `dse.cache.save`, …) and writes the chrome://tracing
//! file last.

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};

use mp_dse::prelude::*;
use mp_model::calibrate::{CalibratedParams, MeasuredRun};
use mp_model::growth::GrowthFunction;
use mp_model::params::AppParams;
use mp_model::perf::PerfModel;
use mp_model::topology::Topology;
use mp_obs::profile::{thread_lane, Profiler};
use mp_profile::{render_table, TableRow};

use crate::alloc_track;

/// The `dse` flags that consume a value token. The `repro` binary's
/// subcommand scanner uses this to step over flag values when the flags
/// precede the subcommand name, so the list lives here next to `parse`.
pub const VALUE_FLAGS: &[&str] = &["--backend", "--out", "--top", "--threads", "--trace"];

/// Options of one `dse` invocation.
#[derive(Debug)]
struct Options {
    backend: String,
    out_dir: PathBuf,
    quick: bool,
    json: bool,
    profile: bool,
    force_scalar: bool,
    threads: Option<usize>,
    top_k: usize,
    trace: Option<PathBuf>,
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut options = Options {
        backend: "analytic".to_string(),
        out_dir: PathBuf::from("target/dse"),
        quick: false,
        json: false,
        profile: false,
        force_scalar: false,
        threads: None,
        top_k: 10,
        trace: None,
    };
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let arg = arg.as_str();
        if VALUE_FLAGS.contains(&arg) {
            // Value-taking flags are routed through VALUE_FLAGS so the
            // `repro` subcommand scanner (which must step over their values)
            // cannot drift out of sync: a flag handled here but missing from
            // the list would never reach this branch.
            let value = iter.next().ok_or_else(|| format!("{arg} needs a value"))?.clone();
            match arg {
                "--backend" => options.backend = value,
                "--out" => options.out_dir = PathBuf::from(value),
                "--top" => {
                    options.top_k = crate::cli::parse_count(arg, &value, 1, crate::cli::MAX_COUNT)?;
                }
                "--threads" => {
                    options.threads = Some(crate::cli::parse_parallelism(arg, &value)?);
                }
                "--trace" => options.trace = Some(PathBuf::from(value)),
                other => unreachable!("{other} is listed in VALUE_FLAGS but unhandled"),
            }
        } else {
            match arg {
                "--json" => options.json = true,
                "--quick" => options.quick = true,
                "--profile" => options.profile = true,
                "--force-scalar" => options.force_scalar = true,
                other => return Err(format!("unknown dse option `{other}`")),
            }
        }
    }
    Ok(options)
}

/// The sweep's application axis: Table III's eight synthetic classes plus the
/// three measured Table II applications.
fn applications() -> Vec<AppParams> {
    AppParams::paper_catalog()
}

/// Deterministic synthetic calibrations of the paper catalogue for the
/// `measured` backend: each application's parameters are converted into the
/// section times an ideal instrumented run would report at 1–16 threads
/// (linear merge growth) and re-fitted through [`CalibratedParams::fit`].
/// This exercises the full calibration-driven evaluation path — parameter
/// lookup, fitted growth, extended model — without running workloads, so the
/// `measured` throughput numbers are reproducible on any host.
pub fn synthetic_calibrations() -> Vec<CalibratedParams> {
    applications()
        .iter()
        .map(|app| {
            let s = app.serial_fraction();
            let runs: Vec<MeasuredRun> = [1usize, 2, 4, 8, 16]
                .iter()
                .map(|&p| {
                    MeasuredRun::new(
                        p,
                        app.f / p as f64,
                        s * app.split.fcon,
                        s * app.split.fred * (1.0 + app.fored * (p as f64 - 1.0)),
                    )
                })
                .collect();
            CalibratedParams::fit(&app.name, &runs).expect("catalogue calibrations fit")
        })
        .collect()
}

/// Build the exploration space. The full grid is ≥ 200 000 scenarios; the
/// quick grid (used by tests) is a few thousand.
/// The analytic exploration space of `repro dse` (the 214k-scenario
/// space in full mode), shared with `repro job --dse-space` so durable
/// jobs can run the headline warm-restart experiment over it.
pub fn experiment_space(quick: bool) -> ScenarioSpace {
    let mut options = parse(&[]).expect("defaults parse");
    options.quick = quick;
    build_space(&options)
}

fn build_space(options: &Options) -> ScenarioSpace {
    let (sym_points, budgets) =
        if options.quick { (48usize, vec![256.0]) } else { (512usize, vec![128.0, 256.0, 512.0]) };
    // Log-spaced per-core areas in [1, 128] BCE — valid under every budget.
    let max_r: f64 = 128.0;
    let sym = (0..sym_points)
        .map(move |i| max_r.powf(i as f64 / (sym_points.saturating_sub(1).max(1)) as f64));
    let pow2 = |limit: f64| {
        std::iter::successors(Some(1.0f64), move |r| (r * 2.0 <= limit).then_some(r * 2.0))
    };
    let mut space = ScenarioSpace::new()
        .with_apps(applications())
        .with_budgets(budgets)
        .clear_designs()
        .add_symmetric_grid(sym)
        .add_asymmetric_grid([1.0, 2.0, 4.0, 8.0, 16.0], pow2(128.0).skip(1))
        .with_growths(vec![
            GrowthFunction::Constant,
            GrowthFunction::Linear,
            GrowthFunction::Logarithmic,
            GrowthFunction::Superlinear(1.55),
        ])
        .with_perfs(vec![PerfModel::Pollack, PerfModel::Power(0.75), PerfModel::Linear]);
    if options.backend == "comm" {
        // The comm backend reads the growth axis as the reduction-computation
        // growth and explores the interconnect on the topology axis.
        space = space.with_topologies(vec![
            Topology::Mesh2D,
            Topology::Torus2D,
            Topology::Crossbar,
            Topology::Ideal,
        ]);
    }
    if options.backend == "sim" {
        // The simulator derives its own overhead growth and core performance,
        // so sweeping those axes would just repeat every (expensive)
        // simulation; its meaningful strategy axis is the merge
        // implementation. Its machines are also discrete (floor(budget / r)
        // cores), so the fractional log-spaced grid would simulate duplicate
        // machines under different labels — sweep integer core sizes instead.
        let sym_limit = if options.quick { 48usize } else { 128 };
        space = space
            .clear_designs()
            .add_symmetric_grid((1..=sym_limit).map(|r| r as f64))
            .add_asymmetric_grid([1.0, 2.0, 4.0, 8.0, 16.0], pow2(128.0).skip(1))
            .with_growths(vec![GrowthFunction::Linear])
            .with_perfs(vec![PerfModel::Pollack])
            .with_reductions(mp_par::ReductionStrategy::all().to_vec());
    }
    space
}

pub(crate) fn scenario_label(space: &ScenarioSpace, record: &EvalRecord) -> String {
    let s = space.scenario(record.index);
    let design = match s.design {
        ChipSpec::Symmetric { r } => format!("sym r={r:.2}"),
        ChipSpec::Asymmetric { r, rl } => format!("asym r={r:.0} rl={rl:.0}"),
    };
    let mut label = format!(
        "{} | {} | b={} | {} | {}",
        s.app.name,
        design,
        s.budget.total_bce(),
        s.growth.label(),
        s.perf.label(),
    );
    // The strategy axes only appear when they are actually swept, so rows
    // stay compact for the analytic backend but remain unambiguous for the
    // sim (reduction) and comm (topology) sweeps.
    if space.reductions().len() > 1 {
        label.push_str(&format!(" | {}", s.reduction.name()));
    }
    if space.topologies().len() > 1 {
        label.push_str(&format!(" | {:?}", s.topology));
    }
    label
}

pub(crate) fn record_row(label: String, record: &EvalRecord) -> TableRow {
    TableRow::new(label)
        .with("speedup", record.speedup)
        .with("cores", record.cores)
        .with("area", record.area)
}

/// Entry point of the `dse` subcommand.
pub fn run(args: &[String]) -> ExitCode {
    let options = match parse(args) {
        Ok(options) => options,
        Err(message) => {
            eprintln!("{message}");
            eprintln!("usage: repro dse [--backend analytic|comm|sim|measured] [--out DIR] [--top K] [--threads N] [--trace PATH] [--quick] [--json] [--profile] [--force-scalar]");
            return ExitCode::FAILURE;
        }
    };

    if options.force_scalar {
        // Pin the scalar reference kernels for this process — the A/B
        // baseline against the SIMD lane path (results are bit-identical by
        // contract; only throughput differs).
        mp_model::simd::set_forced_scalar(true);
    }

    let backend = match crate::cli::backend_by_name(&options.backend) {
        Ok(backend) => backend,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };
    // The calibrated application axis, derived straight from the same
    // deterministic calibrations the shared constructor parameterised the
    // backend with (no second backend build).
    let measured_apps = (options.backend == "measured").then(|| {
        synthetic_calibrations().iter().map(|c| c.app_params().clone()).collect::<Vec<_>>()
    });

    let mut space = build_space(&options);
    if let Some(apps) = measured_apps {
        // The calibrations supply both the application parameters and the
        // growth function, so the space sweeps the calibrated applications
        // and the growth axis collapses to a single label the backend
        // ignores anyway.
        space = space.with_apps(apps).with_growths(vec![GrowthFunction::Linear]);
    }
    let engine = match options.threads {
        Some(threads) => Engine::new(threads),
        None => Engine::with_all_cores(),
    };
    let config = SweepConfig::default();

    // Profiling is opt-in per run: spans cost an allocation each, so the
    // recorder only arms when an export path was requested. It stays armed
    // until the trace is written, so every stage below shows on the timeline.
    let profiler = Profiler::global();
    if options.trace.is_some() {
        profiler.set_enabled(true);
    }
    let lane = thread_lane();

    // Warm-start from a persisted cache if a previous run left one.
    let cache_path = options.out_dir.join(format!("cache-{}.seg", options.backend));
    let mut warm_entries = 0usize;
    if let Ok(bytes) = std::fs::read(&cache_path) {
        let _span = profiler.span("dse.cache.load", "dse", lane);
        match engine.cache().load_segment(&bytes) {
            Ok(loaded) => warm_entries = loaded,
            Err(e) => eprintln!("ignoring stale cache at {}: {e}", cache_path.display()),
        }
    }

    let allocs_before_first = alloc_track::allocation_count();
    let first = engine.sweep(&space, backend.as_ref(), &config);
    let allocs_first = alloc_track::allocation_count() - allocs_before_first;

    // Second pass: must be answered from the cache and reproduce the first
    // pass bit-for-bit.
    let allocs_before_second = alloc_track::allocation_count();
    let second = engine.sweep(&space, backend.as_ref(), &config);
    let allocs_second = alloc_track::allocation_count() - allocs_before_second;
    let identical = first
        .records
        .iter()
        .zip(second.records.iter())
        .all(|(a, b)| a.index == b.index && a.speedup.to_bits() == b.speedup.to_bits());

    let top = {
        let _span = profiler.span("dse.analysis.top_k", "dse", lane);
        top_k(&first.records, options.top_k)
    };
    let optima = {
        let _span = profiler.span("dse.analysis.optima", "dse", lane);
        per_axis_optima(&space, &first.records)
    };
    let frontier = {
        let _span = profiler.span("dse.analysis.pareto", "dse", lane);
        pareto_frontier(&first.records, CostAxis::Cores)
    };

    if let Err(e) = export_sweep(&options.out_dir, &space, &first, engine.threads()) {
        eprintln!("export failed: {e}");
        return ExitCode::FAILURE;
    }
    // A cache that gained no entries since the load would serialise to the
    // very bytes already on disk (segments are sorted), so leave them be. A
    // plain write is enough: the segment's CRC refuses a torn file.
    if engine.cache().len() != warm_entries {
        let saved = {
            let _span = profiler.span("dse.cache.save", "dse", lane);
            std::fs::write(&cache_path, engine.cache().save_segment())
        };
        if let Err(e) = saved {
            eprintln!("cache persistence failed: {e}");
            return ExitCode::FAILURE;
        }
    }

    if let Some(trace_path) = &options.trace {
        // Every stage's spans (cache load, per-window batches, table builds,
        // cached re-sweep, analysis, export, cache save) in one timeline,
        // viewable at chrome://tracing or Perfetto.
        profiler.set_enabled(false);
        let spans = profiler.take();
        if let Some(parent) = trace_path.parent().filter(|p| !p.as_os_str().is_empty()) {
            if let Err(e) = std::fs::create_dir_all(parent) {
                eprintln!("trace export failed: cannot create {}: {e}", parent.display());
                return ExitCode::FAILURE;
            }
        }
        if let Err(e) = std::fs::write(trace_path, mp_obs::profile::chrome_trace_json(&spans)) {
            eprintln!("trace export failed: {e}");
            return ExitCode::FAILURE;
        }
        if !options.json {
            println!("  trace: {} spans exported to {}", spans.len(), trace_path.display());
        }
    }

    let scenarios_per_second = first.stats.scenarios as f64 / first.stats.elapsed_seconds.max(1e-9);
    let cached_per_second = second.stats.scenarios as f64 / second.stats.elapsed_seconds.max(1e-9);

    if options.json {
        let profile_fields = if options.profile {
            format!(
                ",\"simd_kernel\":\"{}\",\"scenarios_per_second\":{},\"cached_scenarios_per_second\":{},\"allocations_first_pass\":{},\"allocations_cached_pass\":{},\"allocations_per_scenario\":{}",
                simd_kernel_label(),
                scenarios_per_second,
                cached_per_second,
                allocs_first,
                allocs_second,
                allocs_first as f64 / first.stats.scenarios.max(1) as f64,
            )
        } else {
            String::new()
        };
        println!(
            "{{\"experiment\":\"dse\",\"backend\":\"{}\",\"scenarios\":{},\"valid\":{},\"threads\":{},\"elapsed_seconds\":{},\"rescan_hits\":{},\"warm_entries\":{},\"identical\":{},\"frontier_size\":{},\"best_speedup\":{}{}}}",
            options.backend,
            first.stats.scenarios,
            first.stats.valid,
            first.stats.threads,
            first.stats.elapsed_seconds,
            second.stats.cache_hits,
            warm_entries,
            identical,
            frontier.len(),
            // JSON has no NaN: an empty top-k list emits null.
            top.first()
                .map(|r| r.speedup.to_string())
                .unwrap_or_else(|| "null".to_string()),
            profile_fields,
        );
        return if identical { ExitCode::SUCCESS } else { ExitCode::FAILURE };
    }

    println!("design-space exploration — backend `{}`", options.backend);
    println!(
        "  swept {} scenarios ({} valid) on {} thread(s) in {:.3}s ({:.0} scenarios/s)",
        first.stats.scenarios,
        first.stats.valid,
        first.stats.threads,
        first.stats.elapsed_seconds,
        first.stats.scenarios as f64 / first.stats.elapsed_seconds.max(1e-9),
    );
    println!(
        "  first pass: {} cache hits, {} misses{}",
        first.stats.cache_hits,
        first.stats.cache_misses,
        if warm_entries > 0 {
            format!(" (warm-started from {warm_entries} persisted entries)")
        } else {
            String::new()
        },
    );
    println!(
        "  repeat pass: {} cache hits, {} misses in {:.3}s — outputs bit-identical: {}",
        second.stats.cache_hits, second.stats.cache_misses, second.stats.elapsed_seconds, identical,
    );
    println!(
        "  exports: {} (JSON), {} (CSV), {} (cache)",
        options.out_dir.join("sweep.json").display(),
        options.out_dir.join("sweep.csv").display(),
        cache_path.display(),
    );
    if options.profile {
        println!();
        println!("  profile (throughput and heap traffic, {} kernels):", simd_kernel_label());
        println!(
            "    first pass:  {scenarios_per_second:>12.0} scenarios/s, {allocs_first} heap allocations ({:.4} per scenario)",
            allocs_first as f64 / first.stats.scenarios.max(1) as f64,
        );
        println!(
            "    cached pass: {cached_per_second:>12.0} scenarios/s, {allocs_second} heap allocations ({:.4} per scenario)",
            allocs_second as f64 / second.stats.scenarios.max(1) as f64,
        );
        if alloc_track::allocation_count() == 0 {
            println!("    (allocation counting unavailable: no counting allocator installed)");
        }
    }
    println!();

    let top_rows: Vec<TableRow> = top
        .iter()
        .enumerate()
        .map(|(rank, record)| {
            record_row(format!("{:>2}. {}", rank + 1, scenario_label(&space, record)), record)
        })
        .collect();
    println!("{}", render_table("top designs by speedup", &top_rows, 2));

    let optima_rows: Vec<TableRow> =
        optima.iter().map(|o| record_row(format!("{}={}", o.axis, o.value), &o.record)).collect();
    println!("{}", render_table("per-axis optima", &optima_rows, 2));

    let frontier_rows: Vec<TableRow> =
        frontier.iter().map(|record| record_row(scenario_label(&space, record), record)).collect();
    println!(
        "{}",
        render_table(
            &format!("Pareto frontier (speedup vs cores, {} points)", frontier.len()),
            &frontier_rows,
            2,
        )
    );

    if identical {
        ExitCode::SUCCESS
    } else {
        eprintln!("cached re-sweep diverged from the first pass");
        ExitCode::FAILURE
    }
}

/// Which evaluation kernel the sweep actually ran with, for profile output
/// (`avx2` on hosts with the lanes, `scalar` when absent or forced off).
fn simd_kernel_label() -> &'static str {
    match mp_model::simd::level() {
        mp_model::simd::SimdLevel::Avx2 => "avx2",
        mp_model::simd::SimdLevel::Scalar => "scalar",
    }
}

/// Export a sweep to `dir/sweep.{json,csv}`. The two files are a task list
/// drained by `min(threads, 2)` scoped workers, the caller among them, so
/// they are written concurrently — or, with one thread, in turn on the
/// caller. Each file streams through its own buffered writer, so memory
/// stays O(1) in the record count.
pub fn export_sweep(
    dir: &Path,
    space: &ScenarioSpace,
    result: &SweepResult,
    threads: usize,
) -> std::io::Result<()> {
    type Writer = std::io::BufWriter<std::fs::File>;
    type WriteFn<'a> = &'a (dyn Fn(&mut Writer) -> std::io::Result<()> + Sync);
    std::fs::create_dir_all(dir)?;
    // (file extension, trace lane, writer). Each file's span gets a lane of
    // its own, clear of the per-thread lanes of the other spans.
    let tasks: [(&str, u64, WriteFn<'_>); 2] = [
        ("json", 1_000, &|out| write_json(out, space, &result.records, &result.stats)),
        ("csv", 1_001, &|out| write_csv(out, space, &result.records)),
    ];
    let next = AtomicUsize::new(0);
    let drain = || -> std::io::Result<()> {
        while let Some(&(ext, lane, write)) = tasks.get(next.fetch_add(1, Ordering::Relaxed)) {
            let _span = Profiler::global().span(&format!("dse.export.{ext}"), "dse", lane);
            let path = dir.join(format!("sweep.{ext}"));
            let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
            write(&mut out)?;
            out.flush()?;
        }
        Ok(())
    };
    std::thread::scope(|scope| {
        let helpers: Vec<_> =
            (1..threads.clamp(1, tasks.len())).map(|_| scope.spawn(drain)).collect();
        helpers.into_iter().fold(drain(), |result, helper| {
            result.and(helper.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic)))
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_space_exceeds_one_hundred_thousand_scenarios() {
        let options = parse(&[]).unwrap();
        let space = build_space(&options);
        assert!(space.len() >= 100_000, "got {}", space.len());
    }

    #[test]
    fn quick_space_is_small_but_complete() {
        let options = parse(&["--quick".to_string()]).unwrap();
        let space = build_space(&options);
        assert!(space.len() < 100_000);
        assert!(space.len() > 1_000);
        let engine = Engine::new(1);
        let result = engine.sweep(&space, &AnalyticBackend, &SweepConfig::default());
        // Every scenario of the quick grid fits its budget.
        assert_eq!(result.stats.valid, space.len());
    }

    #[test]
    fn export_writes_the_same_bytes_on_any_thread_count() {
        let space = experiment_space(true);
        let result = Engine::new(1).sweep(&space, &AnalyticBackend, &SweepConfig::default());
        let mut json = Vec::new();
        write_json(&mut json, &space, &result.records, &result.stats).unwrap();
        let mut csv = Vec::new();
        write_csv(&mut csv, &space, &result.records).unwrap();
        let root = std::env::temp_dir().join(format!("mp-dse-export-{}", std::process::id()));
        for threads in [1, 2, 8] {
            let dir = root.join(threads.to_string());
            export_sweep(&dir, &space, &result, threads).unwrap();
            assert!(std::fs::read(dir.join("sweep.json")).unwrap() == json, "threads={threads}");
            assert!(std::fs::read(dir.join("sweep.csv")).unwrap() == csv, "threads={threads}");
        }
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn parse_rejects_unknown_options() {
        assert!(parse(&["--bogus".to_string()]).is_err());
        assert!(parse(&["--backend".to_string()]).is_err());
        let options =
            parse(&["--backend".to_string(), "sim".to_string(), "--quick".to_string()]).unwrap();
        assert_eq!(options.backend, "sim");
        assert!(options.quick);
        assert!(options.trace.is_none());
        let options = parse(&["--trace".to_string(), "target/trace.json".to_string()]).unwrap();
        assert_eq!(options.trace.as_deref(), Some(Path::new("target/trace.json")));
    }

    #[test]
    fn parse_rejects_zero_and_oversized_counts() {
        let args = |flag: &str, value: &str| vec![flag.to_string(), value.to_string()];
        let error = parse(&args("--threads", "0")).unwrap_err();
        assert!(error.contains("--threads") && error.contains("at least 1"), "{error}");
        let error = parse(&args("--threads", "1000000")).unwrap_err();
        assert!(error.contains("at most"), "{error}");
        let error = parse(&args("--top", "0")).unwrap_err();
        assert!(error.contains("--top") && error.contains("at least 1"), "{error}");
        // usize overflow surfaces as a clear integer error, not a panic.
        let error = parse(&args("--top", "18446744073709551616")).unwrap_err();
        assert!(error.contains("integer"), "{error}");
    }
}
