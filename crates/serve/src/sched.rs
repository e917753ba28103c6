//! The work-stealing sweep scheduler: cost-sized work units on per-shard
//! deques, claimed by any worker, fused back in index order.
//!
//! Replaces the static band fan-out (one fixed slice per shard worker)
//! that PR 1–8 served from. Each admitted sweep is split into **work
//! units** sized by the planner's live per-scenario cost
//! ([`mp_dse::units`]) and pushed onto the deque of the unit's **home
//! shard** — the shard whose engine cache holds (or will hold) the unit's
//! scenarios. A worker drains its own deque front-to-back first
//! (warm-cache affinity); only when it is empty does it **steal half** of
//! the longest other deque, back half first, coarse-grained per the
//! Yavits/Morad/Ginosar synchronization analysis (one lock hop per ~ms of
//! work, not per scenario).
//!
//! **Stolen units still evaluate against their home shard's engine.** The
//! engines are shared (`Arc<Engine>`, concurrent caches), so a steal moves
//! *CPU* to the idle worker without moving *cache placement* — repeat
//! queries keep their 100% warm-hit guarantee deterministically, and
//! results stay bit-identical to `Engine::sweep` whoever ran them. Durable
//! placement only moves through **adaptive re-banding**
//! ([`Placement`]): a segment whose units keep getting stolen re-homes to
//! the stealing worker, paying one cold pass there, after which both the
//! CPU and the cache for that segment live on the less-loaded shard and
//! repeat queries land warm again without steals.
//!
//! The caller that submitted a sweep's units drains one reply per unit and
//! fuses the partial results in index order with the Merge-Path merge —
//! see `SweepService::sweep_scheduled`.

use std::collections::VecDeque;
use std::ops::Range;
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;

use crossbeam::channel::Sender;
use mp_obs::hist::Histogram;
use mp_obs::metrics::Counter;
use mp_obs::profile::Profiler;
use std::sync::Condvar;

use parking_lot::Mutex;

use mp_dse::backend::EvalBackend;
use mp_dse::engine::{Engine, SweepConfig, SweepHandle, SweepResult};
use mp_par::pool::chunk_range;

/// Work units executed by any scheduler worker (home or thief).
pub(crate) fn obs_units_total() -> &'static Counter {
    static CELL: OnceLock<Arc<Counter>> = OnceLock::new();
    CELL.get_or_init(|| mp_obs::counter("sched_units_total"))
}

/// Work units transferred off their home shard's deque by a steal.
pub(crate) fn obs_units_stolen() -> &'static Counter {
    static CELL: OnceLock<Arc<Counter>> = OnceLock::new();
    CELL.get_or_init(|| mp_obs::counter("sched_units_stolen"))
}

/// Placement segments re-homed by adaptive re-banding.
pub(crate) fn obs_rebands() -> &'static Counter {
    static CELL: OnceLock<Arc<Counter>> = OnceLock::new();
    CELL.get_or_init(|| mp_obs::counter("sched_rebands"))
}

/// Wall time a worker spent evaluating one work unit, milliseconds — the
/// per-shard busy/imbalance histogram (a skewed mix without stealing shows
/// up as a long tail here).
pub(crate) fn obs_shard_busy_ms() -> &'static Histogram {
    static CELL: OnceLock<Arc<Histogram>> = OnceLock::new();
    CELL.get_or_init(|| mp_obs::histogram_ms("sched_shard_busy_ms"))
}

/// Register every scheduler series (service construction calls this so an
/// idle scrape exports explicit zeros, not absent names).
pub(crate) fn register_metrics() {
    obs_units_total();
    obs_units_stolen();
    obs_rebands();
    obs_shard_busy_ms();
}

/// Placement segments per shard: fine enough that re-banding moves a
/// fraction of a band, coarse enough that the pressure counters stay
/// cheap.
const SEGMENTS_PER_SHARD: usize = 8;

/// Stolen executions a segment absorbs before it re-homes to the thief.
/// Deliberately high: a short burst (one cold pass, a handful of racing
/// clients) must not move placement — the warm-repeat tests pin exact
/// 100% hit rates across a cold+warm pass pair, and only a *persistently*
/// skewed mix should pay the one-cold-pass cost of moving a segment.
const REBAND_AFTER: u32 = 16;

/// Where each segment of one prepared space's index range currently lives:
/// the scheduler's durable, query-spanning placement map. Fresh placements
/// reproduce the static `chunk_range` bands exactly (so cache segments
/// spilled by an earlier process restore onto the shard that will probe
/// them); adaptive re-banding then moves segments under persistent steal
/// pressure. All state is atomic — racing queries may briefly disagree on
/// a segment's home, which costs a steal or a cold probe, never a wrong
/// answer.
pub(crate) struct Placement {
    /// Scenario count of the space this placement routes.
    n: usize,
    /// Scenarios per segment.
    seg_span: usize,
    /// Current home shard per segment.
    homes: Vec<AtomicUsize>,
    /// Stolen executions per segment since its last re-band.
    pressure: Vec<AtomicU32>,
}

impl Placement {
    pub(crate) fn new(n: usize, shards: usize) -> Placement {
        assert!(shards > 0, "placement needs at least one shard");
        let seg_span = n.div_ceil((shards * SEGMENTS_PER_SHARD).max(1)).max(1);
        let segments = n.div_ceil(seg_span);
        let homes = (0..segments)
            .map(|seg| {
                let index = seg * seg_span;
                // The shard whose static band owns the segment's first
                // scenario — identical routing to the old `band_slices`
                // for every fresh placement.
                let home = (0..shards)
                    .find(|&shard| chunk_range(shard, shards, n).contains(&index))
                    .unwrap_or(0);
                AtomicUsize::new(home)
            })
            .collect();
        Placement {
            n,
            seg_span,
            homes,
            pressure: (0..segments).map(|_| AtomicU32::new(0)).collect(),
        }
    }

    /// The scenario count this placement was built for (callers verify it
    /// against the handle before routing — a fingerprint collision must
    /// fall back to a fresh placement, not index out of bounds).
    pub(crate) fn len(&self) -> usize {
        self.n
    }

    /// Decompose `range` into maximal same-home bands, in index order:
    /// `(home shard, scenario sub-range, covered segment ordinals)`.
    /// Trailing shards of an `n < shards` space simply never appear — a
    /// 1-scenario space yields exactly one band, never nothing.
    pub(crate) fn bands(&self, range: &Range<usize>) -> Vec<(usize, Range<usize>, Range<usize>)> {
        let mut bands: Vec<(usize, Range<usize>, Range<usize>)> = Vec::new();
        if range.start >= range.end {
            return bands;
        }
        let first_seg = range.start / self.seg_span;
        let last_seg = (range.end - 1) / self.seg_span;
        for seg in first_seg..=last_seg {
            let seg_range = seg * self.seg_span..((seg + 1) * self.seg_span).min(self.n);
            let slice = seg_range.start.max(range.start)..seg_range.end.min(range.end);
            if slice.is_empty() {
                continue;
            }
            let home = self.homes[seg].load(Ordering::Relaxed);
            match bands.last_mut() {
                Some((last_home, last_slice, last_segs))
                    if *last_home == home && last_slice.end == slice.start =>
                {
                    last_slice.end = slice.end;
                    last_segs.end = seg + 1;
                }
                _ => bands.push((home, slice, seg..seg + 1)),
            }
        }
        bands
    }

    /// The segment ordinals a scenario sub-range touches (empty in, empty
    /// out). Units carved *within* one band still need their own segment
    /// span: steal pressure is recorded per unit, not per band.
    pub(crate) fn segments_of(&self, range: &Range<usize>) -> Range<usize> {
        if range.start >= range.end {
            return 0..0;
        }
        range.start / self.seg_span..(range.end - 1) / self.seg_span + 1
    }

    /// Record that a unit covering `segments` was executed by `thief`
    /// after a steal. A segment whose pressure reaches [`REBAND_AFTER`]
    /// re-homes to the thief and its counter resets.
    fn record_steal(&self, segments: &Range<usize>, thief: usize) {
        for seg in segments.clone() {
            let pressure = self.pressure[seg].fetch_add(1, Ordering::Relaxed) + 1;
            if pressure >= REBAND_AFTER {
                self.pressure[seg].store(0, Ordering::Relaxed);
                if self.homes[seg].swap(thief, Ordering::Relaxed) != thief {
                    obs_rebands().inc();
                }
            }
        }
    }
}

/// What one executed unit reports back to the submitting caller.
pub(crate) struct UnitDone {
    /// First scenario index of the unit (its merge key).
    pub start: usize,
    /// The unit's home shard — the caller credits this shard's admission
    /// gauges.
    pub home: usize,
    /// Worker that executed the unit (diagnostics; read by the scheduler
    /// tests — production stats key on `home`, not the executing worker).
    #[cfg_attr(not(test), allow(dead_code))]
    pub worker: usize,
    /// Cost debited against the home shard at submit, microseconds.
    pub cost_us: u64,
    /// The evaluation, or the panic reason of a contained backend panic.
    pub result: Result<SweepResult, String>,
}

/// One schedulable work unit: a sub-range of an admitted sweep, routed to
/// its home shard's deque.
pub(crate) struct WorkUnit {
    pub handle: Arc<SweepHandle<'static>>,
    pub range: Range<usize>,
    /// Placement segment ordinals this unit covers (steal-pressure keys).
    pub segments: Range<usize>,
    pub home: usize,
    pub config: SweepConfig,
    pub placement: Arc<Placement>,
    pub reply: Sender<UnitDone>,
    /// When the unit entered its deque ([`mp_obs::monotonic_ns`]).
    pub enqueued_ns: u64,
    pub cost_us: u64,
    /// Set when a steal transferred the unit off its home deque.
    stolen: bool,
}

impl WorkUnit {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        handle: Arc<SweepHandle<'static>>,
        range: Range<usize>,
        segments: Range<usize>,
        home: usize,
        config: SweepConfig,
        placement: Arc<Placement>,
        reply: Sender<UnitDone>,
        cost_us: u64,
    ) -> WorkUnit {
        WorkUnit {
            handle,
            range,
            segments,
            home,
            config,
            placement,
            reply,
            enqueued_ns: mp_obs::monotonic_ns(),
            cost_us,
            stolen: false,
        }
    }
}

struct SchedState {
    queues: Vec<VecDeque<WorkUnit>>,
    shutdown: bool,
}

struct SchedInner {
    state: Mutex<SchedState>,
    available: Condvar,
    engines: Vec<Arc<Engine>>,
    backend: Arc<dyn EvalBackend + Send + Sync>,
    steal: bool,
}

/// The scheduler: one deque and one worker thread per shard over the
/// shared engines. See the module docs.
pub(crate) struct Scheduler {
    inner: Arc<SchedInner>,
    workers: Vec<JoinHandle<()>>,
}

impl Scheduler {
    /// Spawn one worker per engine. With `steal` off, every unit runs on
    /// its home worker — the static-bands baseline, selectable for
    /// measurements via `ServiceConfig::steal`.
    pub(crate) fn new(
        engines: Vec<Arc<Engine>>,
        backend: Arc<dyn EvalBackend + Send + Sync>,
        steal: bool,
    ) -> Scheduler {
        register_metrics();
        let shards = engines.len();
        let inner = Arc::new(SchedInner {
            state: Mutex::new(SchedState {
                queues: (0..shards).map(|_| VecDeque::new()).collect(),
                shutdown: false,
            }),
            available: Condvar::new(),
            engines,
            backend,
            steal,
        });
        let workers = (0..shards)
            .map(|index| {
                let worker_inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("mp-serve-worker-{index}"))
                    .spawn(move || worker_loop(index, &worker_inner))
                    .expect("failed to spawn scheduler worker")
            })
            .collect();
        Scheduler { inner, workers }
    }

    /// Push a sweep's units onto their home deques and wake the workers.
    /// Fails (units returned untouched) only after shutdown.
    pub(crate) fn submit(&self, units: Vec<WorkUnit>) -> Result<(), Vec<WorkUnit>> {
        let mut state = self.inner.state.lock();
        if state.shutdown {
            return Err(units);
        }
        for unit in units {
            state.queues[unit.home].push_back(unit);
        }
        drop(state);
        self.inner.available.notify_all();
        Ok(())
    }

    /// Stop accepting work, let the workers drain what is queued, join
    /// them.
    pub(crate) fn shutdown(&mut self) {
        self.inner.state.lock().shutdown = true;
        self.inner.available.notify_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for Scheduler {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Move the back half of the longest other deque onto `me`'s. Returns how
/// many units were transferred. Pure deque surgery under the state lock —
/// factored out so the steal policy is testable without threads.
fn steal_half(state: &mut SchedState, me: usize) -> usize {
    let victim = (0..state.queues.len())
        .filter(|&i| i != me)
        .max_by_key(|&i| state.queues[i].len())
        .filter(|&i| !state.queues[i].is_empty());
    let Some(victim) = victim else { return 0 };
    let take = state.queues[victim].len().div_ceil(2);
    // The back half: the units the victim would reach last, so the owner
    // keeps draining undisturbed from the front.
    let keep = state.queues[victim].len() - take;
    let mut taken = state.queues[victim].split_off(keep);
    for unit in &mut taken {
        unit.stolen = true;
    }
    state.queues[me].append(&mut taken);
    obs_units_stolen().add(take as u64);
    take
}

fn worker_loop(me: usize, inner: &Arc<SchedInner>) {
    loop {
        let unit = {
            let mut state = inner.state.lock();
            loop {
                if let Some(unit) = state.queues[me].pop_front() {
                    break unit;
                }
                if inner.steal && steal_half(&mut state, me) > 0 {
                    continue;
                }
                if state.shutdown {
                    return;
                }
                state = inner.available.wait(state).unwrap_or_else(|e| e.into_inner());
            }
        };
        execute(me, inner, unit);
    }
}

/// Evaluate one unit on its **home** engine (cache affinity survives the
/// steal — see the module docs) and report back. Backend panics are
/// contained to the unit: the worker lives on to serve the next one.
fn execute(me: usize, inner: &SchedInner, unit: WorkUnit) {
    let waited_ns = mp_obs::monotonic_ns().saturating_sub(unit.enqueued_ns);
    crate::service::obs_queue_wait_ms().record(waited_ns as f64 / 1e6);
    let profiler = Profiler::global();
    let _span = profiler.is_enabled().then(|| {
        profiler.span_with(
            "serve.sched.unit",
            format!("{:?} home {}", unit.range, unit.home),
            "serve",
            me as u64,
        )
    });
    let engine = &inner.engines[unit.home];
    let started = std::time::Instant::now();
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        engine.sweep_range(&unit.handle, inner.backend.as_ref(), &unit.config, unit.range.clone())
    }))
    .map_err(|payload| {
        let reason = crate::service::panic_reason(payload.as_ref());
        mp_obs::warn(
            "serve",
            &format!(
                "unit {}..{} (home {}) panicked on worker {me}: {reason}",
                unit.range.start, unit.range.end, unit.home
            ),
        );
        reason
    });
    obs_shard_busy_ms().record(started.elapsed().as_secs_f64() * 1e3);
    obs_units_total().inc();
    // Steal pressure drives re-banding, and re-banding evicts the old
    // home's warm entries — so only steals that did real evaluation work
    // count. A stolen unit served entirely from the home cache cost its
    // thief microseconds; letting it move placement would churn warm
    // segments between shards forever on hot (fully cached) bands.
    let evaluated = matches!(&result, Ok(partial) if partial.stats.cache_misses > 0);
    if unit.stolen && evaluated {
        unit.placement.record_steal(&unit.segments, me);
    }
    // A dropped reply receiver just means the querying connection went
    // away mid-sweep.
    let _ = unit.reply.send(UnitDone {
        start: unit.range.start,
        home: unit.home,
        worker: me,
        cost_us: unit.cost_us,
        result,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam::channel::unbounded;
    use mp_dse::backend::AnalyticBackend;
    use mp_dse::scenario::ScenarioSpace;

    fn dummy_unit(home: usize, start: usize, reply: &Sender<UnitDone>) -> WorkUnit {
        static HANDLE: OnceLock<Arc<SweepHandle<'static>>> = OnceLock::new();
        let handle = HANDLE.get_or_init(|| {
            Arc::new(SweepHandle::owned(
                ScenarioSpace::new()
                    .clear_designs()
                    .add_symmetric_grid((0..64).map(|i| 1.0 + i as f64)),
            ))
        });
        WorkUnit::new(
            Arc::clone(handle),
            start..start + 1,
            0..1,
            home,
            SweepConfig::default(),
            Arc::new(Placement::new(64, 2)),
            reply.clone(),
            0,
        )
    }

    #[test]
    fn fresh_placement_reproduces_the_static_bands() {
        for (n, shards) in [(100usize, 4usize), (7, 3), (1, 4), (1, 8), (8192, 2)] {
            let placement = Placement::new(n, shards);
            let bands = placement.bands(&(0..n));
            // Exhaustive, disjoint, index-ordered.
            let mut walked = 0usize;
            for (home, slice, _) in &bands {
                assert_eq!(slice.start, walked, "n={n} shards={shards}");
                assert!(*home < shards);
                walked = slice.end;
            }
            assert_eq!(walked, n, "bands cover the range: n={n} shards={shards}");
            // Every scenario routes to the shard whose static band owns it.
            for (home, slice, _) in &bands {
                for shard in 0..shards {
                    let band = chunk_range(shard, shards, n);
                    if band.contains(&slice.start) {
                        assert_eq!(*home, shard, "n={n} shards={shards} slice {slice:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn one_scenario_spaces_yield_one_band_at_any_shard_count() {
        for shards in [1usize, 4, 8, 16] {
            let placement = Placement::new(1, shards);
            let bands = placement.bands(&(0..1));
            assert_eq!(bands.len(), 1, "shards={shards}");
            assert_eq!(bands[0].1, 0..1);
            assert_eq!(bands[0].0, 0, "index 0 belongs to shard 0's band");
            assert!(placement.bands(&(0..0)).is_empty(), "empty range yields nothing");
        }
    }

    #[test]
    fn persistent_steal_pressure_rebands_a_segment_to_the_thief() {
        let placement = Placement::new(256, 2);
        let segments = 0..1;
        let original = placement.homes[0].load(Ordering::Relaxed);
        for _ in 0..REBAND_AFTER - 1 {
            placement.record_steal(&segments, 1);
        }
        assert_eq!(
            placement.homes[0].load(Ordering::Relaxed),
            original,
            "below the threshold placement must not move"
        );
        placement.record_steal(&segments, 1);
        assert_eq!(placement.homes[0].load(Ordering::Relaxed), 1, "threshold re-homes to thief");
        // The counter reset: the next burst needs a full run again.
        placement.record_steal(&segments, 0);
        assert_eq!(placement.homes[0].load(Ordering::Relaxed), 1);
    }

    #[test]
    fn steal_half_takes_the_back_half_of_the_longest_victim() {
        let (reply, _rx) = unbounded();
        let mut state = SchedState {
            queues: vec![VecDeque::new(), VecDeque::new(), VecDeque::new()],
            shutdown: false,
        };
        for start in 0..5 {
            state.queues[0].push_back(dummy_unit(0, start, &reply));
        }
        state.queues[2].push_back(dummy_unit(2, 100, &reply));
        let took = steal_half(&mut state, 1);
        assert_eq!(took, 3, "ceil(5/2) from the longest deque");
        assert_eq!(state.queues[0].len(), 2);
        assert_eq!(state.queues[1].len(), 3);
        // The thief got the back half, in order, marked stolen.
        let starts: Vec<usize> = state.queues[1].iter().map(|u| u.range.start).collect();
        assert_eq!(starts, vec![2, 3, 4]);
        assert!(state.queues[1].iter().all(|u| u.stolen));
        // The owner keeps its front, unmarked.
        assert!(state.queues[0].iter().all(|u| !u.stolen));

        // Nothing left to steal from anyone but ourselves: no-op.
        state.queues[0].clear();
        state.queues[2].clear();
        assert_eq!(steal_half(&mut state, 1), 0);
    }

    #[test]
    fn scheduler_executes_homed_units_and_shuts_down_clean() {
        let space = ScenarioSpace::new()
            .clear_designs()
            .add_symmetric_grid((0..32).map(|i| 1.0 + i as f64 * 0.5));
        let handle = Arc::new(SweepHandle::owned(space));
        let engines = vec![Arc::new(Engine::new(1)), Arc::new(Engine::new(1))];
        let backend: Arc<dyn EvalBackend + Send + Sync> = Arc::new(AnalyticBackend);
        let scheduler = Scheduler::new(engines, backend, true);
        let placement = Arc::new(Placement::new(handle.len(), 2));
        let (reply, done) = unbounded();
        let units = vec![
            WorkUnit::new(
                Arc::clone(&handle),
                0..16,
                0..1,
                0,
                SweepConfig::default(),
                Arc::clone(&placement),
                reply.clone(),
                1,
            ),
            WorkUnit::new(
                Arc::clone(&handle),
                16..32,
                1..2,
                1,
                SweepConfig::default(),
                Arc::clone(&placement),
                reply.clone(),
                1,
            ),
        ];
        drop(reply);
        scheduler.submit(units).unwrap_or_else(|_| panic!("submit before shutdown succeeds"));
        let mut partials: Vec<UnitDone> = (0..2).map(|_| done.recv().unwrap()).collect();
        partials.sort_by_key(|p| p.start);
        assert_eq!(partials[0].start, 0);
        assert_eq!(partials[1].start, 16);
        for partial in &partials {
            assert!(partial.worker < 2, "worker id is one of the two spawned lanes");
            assert_eq!(partial.result.as_ref().unwrap().records.len(), 16);
        }
        let mut scheduler = scheduler;
        scheduler.shutdown();
        let (reply, _rx) = unbounded();
        let late =
            WorkUnit::new(handle, 0..1, 0..1, 0, SweepConfig::default(), placement, reply, 1);
        assert!(scheduler.submit(vec![late]).is_err(), "submits after shutdown are refused");
    }
}
