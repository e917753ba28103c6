//! Asserts the acceptance criterion of the columnar sweep path: after batch
//! setup, the analytic batched evaluation performs **zero** heap allocations
//! per scenario. A counting global allocator (installed for this test binary
//! only) measures exact allocation counts around the hot loops.
//!
//! Counts are kept **per thread**: every counting window below runs on the
//! test's own thread (the cache calls, the prepared batches and the
//! single-threaded `Engine::new(1)`, which evaluates inline without a pool),
//! so a window sees only its own allocations. Allocations the test harness
//! makes on its other threads cannot land in it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::{Mutex, PoisonError};

use mp_dse::prelude::*;
use mp_model::growth::GrowthFunction;
use mp_model::params::AppParams;
use mp_model::perf::PerfModel;

thread_local! {
    /// Allocations made by the current thread. `const`-initialised and
    /// without a destructor, so touching it from the allocator never
    /// allocates or registers anything itself.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Serialises the counting windows. The counts are per thread, but
/// `lane_and_forced_scalar_paths_both_allocate_nothing` flips the
/// process-wide forced-scalar switch, which must not leak into a sibling's
/// window. A test that fails inside its window poisons the mutex; the
/// siblings still take it, so one failure reports as one failure.
static WINDOW: Mutex<()> = Mutex::new(());

struct Counting;

fn count_one() {
    // `try_with`: the slot is gone while the thread itself is torn down.
    let _ = ALLOCATIONS.try_with(|count| count.set(count.get() + 1));
}

// SAFETY: delegates to `System`; counting does not affect behaviour.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Allocations made so far by the calling thread.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

fn space() -> ScenarioSpace {
    ScenarioSpace::new()
        .with_apps(AppParams::paper_catalog())
        .with_budgets(vec![128.0, 256.0])
        .clear_designs()
        .add_symmetric_grid((0..96).map(|i| 1.0 + i as f64))
        .add_asymmetric_grid([1.0, 4.0], [4.0, 16.0, 64.0])
        .with_growths(vec![
            GrowthFunction::Linear,
            GrowthFunction::Superlinear(1.55),
            GrowthFunction::Measured(vec![(1.0, 0.0), (8.0, 6.0)]),
        ])
        .with_perfs(vec![PerfModel::Pollack, PerfModel::Power(0.75)])
}

#[test]
fn analytic_batched_path_allocates_nothing_per_scenario() {
    let _window = WINDOW.lock().unwrap_or_else(PoisonError::into_inner);
    let space = space();
    let tables = SpaceTables::new(&space);
    let n = space.len();
    let mut out = vec![f64::NAN; n];

    // Warm-up covering every batch once (faults, lazily-initialised state).
    for start in (0..n).step_by(1024) {
        let end = (start + 1024).min(n);
        AnalyticBackend.evaluate_batch_prepared(&space, &tables, start..end, &mut out[start..end]);
    }

    let before = allocations();
    for _ in 0..3 {
        for start in (0..n).step_by(1024) {
            let end = (start + 1024).min(n);
            AnalyticBackend.evaluate_batch_prepared(
                &space,
                &tables,
                start..end,
                &mut out[start..end],
            );
        }
    }
    let after = allocations();
    assert_eq!(after - before, 0, "analytic batched evaluation must not allocate");
    assert!(out.iter().any(|v| v.is_finite()), "sweep produced real results");
}

#[test]
fn cache_probe_and_insert_allocate_nothing_after_reserve() {
    let _window = WINDOW.lock().unwrap_or_else(PoisonError::into_inner);
    let space = space();
    let tables = SpaceTables::new(&space);
    let n = space.len();
    let mut out = vec![f64::NAN; n];
    AnalyticBackend.evaluate_batch_prepared(&space, &tables, 0..n, &mut out);
    let keys: Vec<(u64, u64)> =
        (0..n).map(|i| space.scenario(i).canonical_key("analytic")).collect();

    let cache = EvalCache::new();
    cache.reserve(n);
    let before = allocations();
    cache.prefetch(&keys);
    cache.insert_batch(&keys, &out);
    for &key in &keys {
        assert!(cache.peek(key).is_some());
    }
    let after = allocations();
    assert_eq!(after - before, 0, "reserved cache traffic must not allocate");
}

#[test]
fn lane_and_forced_scalar_paths_both_allocate_nothing() {
    let _window = WINDOW.lock().unwrap_or_else(PoisonError::into_inner);
    let space = space();
    let tables = SpaceTables::new(&space);
    let n = space.len();
    let mut lane_out = vec![f64::NAN; n];
    let mut scalar_out = vec![f64::NAN; n];

    // Warm-up arms the dispatch state (feature detection, env override) so
    // the counting windows measure only the evaluation itself.
    AnalyticBackend.evaluate_batch_prepared(&space, &tables, 0..n, &mut lane_out);

    let before = allocations();
    AnalyticBackend.evaluate_batch_prepared(&space, &tables, 0..n, &mut lane_out);
    assert_eq!(allocations() - before, 0, "lane path must not allocate");

    mp_model::simd::set_forced_scalar(true);
    let before = allocations();
    AnalyticBackend.evaluate_batch_prepared(&space, &tables, 0..n, &mut scalar_out);
    let scalar_allocs = allocations() - before;
    mp_model::simd::set_forced_scalar(false);
    assert_eq!(scalar_allocs, 0, "forced-scalar path must not allocate");

    // Same window, both kernels: the dispatch toggle changes throughput
    // only, never bits.
    for (i, (a, b)) in lane_out.iter().zip(&scalar_out).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "lane/scalar divergence at {i}");
    }
}

#[test]
fn batched_cache_probe_allocates_nothing_after_reserve() {
    let _window = WINDOW.lock().unwrap_or_else(PoisonError::into_inner);
    let space = space();
    let tables = SpaceTables::new(&space);
    let n = space.len();
    let mut out = vec![f64::NAN; n];
    AnalyticBackend.evaluate_batch_prepared(&space, &tables, 0..n, &mut out);
    let keys: Vec<(u64, u64)> =
        (0..n).map(|i| space.scenario(i).canonical_key("analytic")).collect();
    let mut speedups = vec![f64::NAN; n];
    let mut holes = vec![false; n];

    let cache = EvalCache::new();
    cache.reserve(n);
    cache.insert_batch(&keys, &out);
    let before = allocations();
    let missing = cache.get_batch(&keys, &mut speedups, &mut holes);
    let after = allocations();
    assert_eq!(after - before, 0, "batched probe must not allocate");
    assert_eq!(missing, 0, "every inserted key must probe back");
    for (got, want) in speedups.iter().zip(&out) {
        assert_eq!(got.to_bits(), want.to_bits());
    }
}

#[test]
fn full_engine_sweep_allocations_do_not_scale_with_scenario_count() {
    let _window = WINDOW.lock().unwrap_or_else(PoisonError::into_inner);
    // The engine may allocate during setup (records vector, tables, scratch)
    // but per-scenario allocation must be zero: growing the space 16× must
    // not grow the allocation count beyond the setup's own (bounded) needs.
    let small = ScenarioSpace::new()
        .with_apps(AppParams::table2_all())
        .clear_designs()
        .add_symmetric_grid((0..24).map(|i| 1.0 + i as f64));
    let large = ScenarioSpace::new()
        .with_apps(AppParams::table2_all())
        .clear_designs()
        .add_symmetric_grid((0..24).map(|i| 1.0 + i as f64))
        .with_budgets(vec![64.0, 128.0, 192.0, 256.0])
        .with_perfs(vec![
            PerfModel::Pollack,
            PerfModel::Power(0.75),
            PerfModel::Power(0.6),
            PerfModel::Linear,
        ]);
    assert_eq!(large.len(), 16 * small.len());
    // One thread: the engine evaluates inline on this thread, with no pool,
    // so the per-thread count sees the whole sweep.
    let engine = Engine::new(1);
    let config = SweepConfig { batch_size: 64, use_cache: false };

    // Warm both shapes once so lazily-allocated state exists.
    engine.sweep(&small, &AnalyticBackend, &config);
    engine.sweep(&large, &AnalyticBackend, &config);

    let before_small = allocations();
    engine.sweep(&small, &AnalyticBackend, &config);
    let small_allocs = allocations() - before_small;

    let before_large = allocations();
    engine.sweep(&large, &AnalyticBackend, &config);
    let large_allocs = allocations() - before_large;

    // Setup allocations grow with axis lengths (tables, records buffer), not
    // with the scenario product: 16× the scenarios must cost far less than
    // 16× the allocations, and both counts stay tiny in absolute terms.
    assert!(
        large_allocs < small_allocs + 64,
        "sweep allocations scale with the space: {small_allocs} -> {large_allocs}"
    );
}
