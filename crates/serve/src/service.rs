//! The resident sweep service: sharded engines behind a work-stealing
//! scheduler.
//!
//! A [`SweepService`] owns `shards` long-lived [`Engine`]s, each with its own
//! lock-free memoisation cache and worker pool. A sweep query is split along
//! the space's flat index order into cost-sized **work units**
//! ([`mp_dse::units`]) routed to each unit's **home shard** — the shard
//! whose cache placement (`sched::Placement`) owns that slice of
//! the space, initially the static `chunk_range` bands — so repeated or
//! overlapping queries land every scenario on the shard that cached it.
//! Any idle worker may **steal** queued units off another shard's deque
//! (`sched`); a stolen unit still evaluates against its home
//! shard's engine, so stealing moves CPU without moving cache placement,
//! and persistent steal pressure re-bands placement adaptively. Unit
//! results fuse back in index order through the Merge-Path partitioned
//! merge ([`mp_dse::merge`]), which makes a sharded, stolen sweep answer
//! **bit-identical** to a direct [`Engine::sweep`] over the same space:
//! every scenario's value is a deterministic function of the scenario and
//! backend alone, independent of batch, unit or shard boundaries.
//!
//! Between the callers and the shards sits the **query planner**
//! ([`crate::planner`]): concurrent queries over the same prepared space
//! and range **coalesce** onto one in-flight evaluation whose result fans
//! back out per subscriber (byte-identical to an uncoalesced run, follower
//! stats marked [`SweepStats::coalesced`]), and admission is **cost-based**
//! — each shard budgets the *estimated evaluation cost* of its queued work
//! (calibrated from the engine's live metrics) and rejects, retryably and
//! with the estimate attached, what would blow the budget; the raw
//! in-flight depth cap remains as a backstop.
//!
//! Prepared sweeps ([`SweepHandle`]: the space plus its columnar
//! [`SpaceTables`]) are cached by content fingerprint and shared across
//! requests and shards — racing first queries over the same new space share
//! one table build — so a repeated query pays neither the table
//! precomputation nor — thanks to the per-shard caches — the evaluation.
//!
//! [`SpaceTables`]: mp_dse::tables::SpaceTables

use std::collections::{BTreeMap, HashMap};
use std::ops::Range;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use crossbeam::channel::unbounded;
use mp_obs::hist::Histogram;
use mp_obs::metrics::{Counter, Gauge};
use mp_obs::profile::{thread_lane, Profiler};
use parking_lot::Mutex;

use mp_dse::analysis::{pareto_frontier, top_k, CostAxis};
use mp_dse::backend::EvalBackend;
use mp_dse::curves::{figure_curves, Figure};
use mp_dse::engine::{
    Engine, EvalRecord, RangeCursor, SweepConfig, SweepHandle, SweepResult, SweepStats,
};
use mp_dse::merge::merge_runs;
use mp_dse::scenario::ScenarioSpace;
use mp_model::catalogue::CatalogueRegistry;
use mp_model::explore::Curve;

use crate::planner::{BuildRole, BuildTable, Coalescer, CostModel, PlanKey, Role};
use crate::protocol::{
    to_wire, CatalogueEntry, Request, Response, ServiceStats, ShardStats, SpaceSpec, DEFAULT_CHUNK,
    PROTOCOL_VERSION,
};
use crate::sched::{Placement, Scheduler, UnitDone, WorkUnit};

/// Queries rejected by admission control with a retryable
/// [`Response::Busy`].
fn obs_busy_rejections() -> &'static Counter {
    static CELL: OnceLock<Arc<Counter>> = OnceLock::new();
    CELL.get_or_init(|| mp_obs::counter("busy_rejections"))
}

/// Sweeps queued or running across every shard's admission queue (the sum
/// of the per-shard depth gauges the admission gate reads).
fn obs_queue_depth() -> &'static Gauge {
    static CELL: OnceLock<Arc<Gauge>> = OnceLock::new();
    CELL.get_or_init(|| mp_obs::gauge("executor_queue_depth"))
}

/// Time a work unit spent on its home shard's deque before a worker
/// (home or thief) picked it up, milliseconds.
pub(crate) fn obs_queue_wait_ms() -> &'static Histogram {
    static CELL: OnceLock<Arc<Histogram>> = OnceLock::new();
    CELL.get_or_init(|| mp_obs::histogram_ms("serve_queue_wait_ms"))
}

/// Per-verb request counter (`requests_total_<verb>`), counted once per
/// protocol request at dispatch — socket-served and in-process alike.
fn obs_requests(request: &Request) -> &'static Counter {
    macro_rules! verb_counter {
        ($verb:literal) => {{
            static CELL: OnceLock<Arc<Counter>> = OnceLock::new();
            CELL.get_or_init(|| mp_obs::counter(concat!("requests_total_", $verb)))
        }};
    }
    match request {
        Request::Ping => verb_counter!("ping"),
        Request::Stats => verb_counter!("stats"),
        Request::Metrics => verb_counter!("metrics"),
        Request::Catalogue => verb_counter!("catalogue"),
        Request::Shutdown => verb_counter!("shutdown"),
        Request::Sweep { .. } => verb_counter!("sweep"),
        Request::TopK { .. } => verb_counter!("top_k"),
        Request::Pareto { .. } => verb_counter!("pareto"),
        Request::Curve { .. } => verb_counter!("curve"),
        Request::Prepare { .. } => verb_counter!("prepare"),
        Request::JobSubmit { .. } => verb_counter!("job_submit"),
        Request::JobStatus { .. } => verb_counter!("job_status"),
        Request::JobCancel { .. } => verb_counter!("job_cancel"),
        Request::JobResume { .. } => verb_counter!("job_resume"),
    }
}

/// Count one request on its per-verb series. The socket path calls this for
/// the verbs it answers without delegating to
/// [`SweepService::handle_streaming`] (sweeps and shutdowns), so every
/// request is counted exactly once on either path.
pub(crate) fn count_request(request: &Request) {
    obs_requests(request).inc();
}

/// Construction knobs of a [`SweepService`].
#[derive(Debug, Clone, Copy)]
pub struct ServiceConfig {
    /// Number of shards (each an independent engine + cache). Must be ≥ 1.
    pub shards: usize,
    /// Worker threads inside each shard's engine. Must be ≥ 1.
    pub threads_per_shard: usize,
    /// Sweep batch size handed to the engines.
    pub batch_size: usize,
    /// Whether shard engines memoise evaluations.
    pub use_cache: bool,
    /// Admission cap: sweeps in flight (queued or running) per shard before
    /// new queries are rejected with a retryable [`Response::Busy`] instead
    /// of growing the queue. Must be ≥ 1. The backstop behind the primary,
    /// cost-based gate ([`ServiceConfig::cost_budget_ms`]).
    pub queue_capacity: usize,
    /// Cost-based admission budget: the estimated evaluation cost (ms) a
    /// shard's queued work may reach before further queries are rejected
    /// with a retryable [`Response::Busy`] carrying the estimate. A query
    /// is always admitted onto an idle shard regardless of its size. Must
    /// be positive.
    pub cost_budget_ms: f64,
    /// Pin the cost model's per-scenario cost (ms) instead of calibrating
    /// from the engine's live `dse_batch_ms` / `dse_scenarios_evaluated`
    /// metrics — deterministic admission for tests and benches.
    pub cost_per_scenario_ms: Option<f64>,
    /// Whether concurrent queries over the same prepared space and range
    /// coalesce onto one shared in-flight evaluation. On by default;
    /// disabled for uncoalesced baseline measurements.
    pub coalesce: bool,
    /// Whether idle workers steal queued work units from other shards'
    /// deques (and placement re-bands under persistent steal pressure).
    /// On by default; disabled for static-band baseline measurements —
    /// with stealing off every unit runs on its home shard's worker,
    /// which is exactly the pre-scheduler banding.
    pub steal: bool,
    /// Force the scalar reference kernels even on hosts with SIMD lanes
    /// (the in-process equivalent of `MP_SIMD_FORCE_SCALAR=1`): latched
    /// process-wide via [`mp_model::simd::set_forced_scalar`] at service
    /// construction, for scalar-vs-lane A/B baselines. Both paths are
    /// bit-identical by contract, so flipping this changes throughput only,
    /// never results. A `true` here latches on for the process; it is never
    /// un-set by a later service constructed with `false`.
    pub force_scalar: bool,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            shards: 1,
            threads_per_shard: 1,
            batch_size: 1024,
            use_cache: true,
            queue_capacity: 1024,
            cost_budget_ms: 30_000.0,
            cost_per_scenario_ms: None,
            coalesce: true,
            steal: true,
            force_scalar: false,
        }
    }
}

/// What kind of failure a [`ServeError`] is — the wire protocol reports the
/// two differently ([`Response::Busy`] is retryable, [`Response::Error`] is
/// not).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeErrorKind {
    /// The request itself is unanswerable (bad range, unknown catalogue id,
    /// dead shard worker).
    Invalid,
    /// The service's admission queues are full; the request was not executed
    /// and may be retried.
    Busy,
}

/// Error produced by a service query.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeError {
    /// Whether the failure is retryable.
    pub kind: ServeErrorKind,
    /// Human-readable reason.
    pub message: String,
    /// The planner's estimated evaluation cost of the rejected query,
    /// milliseconds (`0.0` when the rejection was not cost-informed —
    /// invalid requests, dead workers).
    pub estimated_cost_ms: f64,
}

impl ServeError {
    /// Whether this is an admission rejection (retryable).
    pub fn is_busy(&self) -> bool {
        self.kind == ServeErrorKind::Busy
    }

    /// The terminal wire response reporting this error.
    pub fn into_response(self) -> Response {
        match self.kind {
            ServeErrorKind::Busy => {
                Response::Busy { message: self.message, estimated_cost_ms: self.estimated_cost_ms }
            }
            ServeErrorKind::Invalid => Response::Error { message: self.message },
        }
    }
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for ServeError {}

fn err(message: impl Into<String>) -> ServeError {
    ServeError { kind: ServeErrorKind::Invalid, message: message.into(), estimated_cost_ms: 0.0 }
}

/// Best-effort human-readable reason from a caught panic payload.
pub(crate) fn panic_reason(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "backend panicked".to_string()
    }
}

fn busy(message: impl Into<String>, estimated_cost_ms: f64) -> ServeError {
    ServeError { kind: ServeErrorKind::Busy, message: message.into(), estimated_cost_ms }
}

/// One shard: a long-lived engine plus its admission gauges. The worker
/// threads live in the scheduler ([`crate::sched::Scheduler`]), which owns
/// one deque per shard over these same engines.
struct Shard {
    engine: Arc<Engine>,
    /// Sweeps queued or running whose units are homed on this shard — the
    /// admission-control gauge. Debited once per query at dispatch,
    /// credited by the submitting caller when the shard's last homed unit
    /// of that query completes.
    depth: std::sync::atomic::AtomicUsize,
    /// Estimated evaluation cost of the shard's queued-or-running homed
    /// units, microseconds — what the cost-based admission gate budgets.
    /// Debited per unit at dispatch, credited per completed unit.
    pending_cost_us: AtomicU64,
}

/// Maximum prepared sweep snapshots kept resident. The cache key (the query
/// space) is client-controlled, so without a cap a client iterating distinct
/// spaces would grow the service's memory without bound; beyond the cap the
/// least-recently-used snapshot is evicted (in-flight sweeps keep theirs
/// alive through their `Arc`).
const MAX_PREPARED: usize = 32;

/// The prepared-handle cache: fingerprint-keyed, LRU-bounded.
#[derive(Default)]
struct PreparedCache {
    handles: HashMap<u64, Arc<SweepHandle<'static>>>,
    /// Keys in use order, least recently used first.
    order: Vec<u64>,
}

impl PreparedCache {
    fn touch(&mut self, key: u64) {
        self.order.retain(|&k| k != key);
        self.order.push(key);
    }

    fn insert(&mut self, key: u64, handle: Arc<SweepHandle<'static>>) {
        self.handles.insert(key, handle);
        self.touch(key);
        while self.handles.len() > MAX_PREPARED {
            let evict = self.order.remove(0);
            self.handles.remove(&evict);
        }
    }
}

/// The placement cache: one [`Placement`] per prepared-space fingerprint,
/// bounded like the prepared-handle cache. Placements outlive individual
/// queries — that is what lets adaptive re-banding learn a skewed mix and
/// keep routing repeat queries to the cache that warmed for them.
#[derive(Default)]
struct PlacementCache {
    placements: HashMap<u64, Arc<Placement>>,
    /// Keys in use order, least recently used first.
    order: Vec<u64>,
}

/// The resident, sharded sweep service. See the module docs.
pub struct SweepService {
    backend: Arc<dyn EvalBackend + Send + Sync>,
    shards: Vec<Shard>,
    /// The work-stealing scheduler: one worker and one deque per shard
    /// over the shards' engines. Its own `Drop` drains and joins the
    /// workers, so the service needs no teardown of its own.
    sched: Scheduler,
    placements: Mutex<PlacementCache>,
    prepared: Mutex<PreparedCache>,
    /// In-flight table builds, so racing first queries over the same new
    /// space share one [`SpaceTables`] construction.
    ///
    /// [`SpaceTables`]: mp_dse::tables::SpaceTables
    builds: BuildTable,
    /// The planner's in-flight coalescing table.
    coalescer: Coalescer,
    cost_model: CostModel,
    registry: CatalogueRegistry,
    sweep_config: SweepConfig,
    queue_capacity: usize,
    cost_budget_ms: f64,
    coalesce: bool,
    queries: AtomicU64,
    started: Instant,
    /// The durable-job manager, when one is attached
    /// ([`crate::jobs::JobManager::new`]). Weak: the manager owns the
    /// service (its runner sweeps through it), never the other way around,
    /// so tearing down is cycle-free.
    jobs: OnceLock<std::sync::Weak<crate::jobs::JobManager>>,
}

impl std::fmt::Debug for SweepService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SweepService")
            .field("backend", &self.backend.name())
            .field("shards", &self.shards.len())
            .finish()
    }
}

impl SweepService {
    /// Start a service evaluating with `backend`: spawns the work-stealing
    /// scheduler's one worker per shard, each shard owning an engine with
    /// [`ServiceConfig::threads_per_shard`] sweep workers.
    pub fn new(backend: Arc<dyn EvalBackend + Send + Sync>, config: &ServiceConfig) -> Self {
        assert!(config.shards > 0, "service needs at least one shard");
        assert!(config.threads_per_shard > 0, "shards need at least one thread");
        assert!(config.batch_size > 0, "batch size must be positive");
        assert!(config.queue_capacity > 0, "admission queue capacity must be positive");
        assert!(config.cost_budget_ms > 0.0, "cost budget must be positive");
        if config.force_scalar {
            mp_model::simd::set_forced_scalar(true);
        }
        // Register the core series now: a scrape must see `busy_rejections`
        // at zero on an idle server, not have the series appear at the first
        // rejection. Same for the planner's and the scheduler's series.
        obs_busy_rejections();
        obs_queue_depth();
        obs_queue_wait_ms();
        crate::planner::obs_coalesced_requests();
        crate::planner::obs_shared_scenarios();
        crate::planner::obs_cost_rejections();
        crate::planner::obs_merge_ms();
        let shards: Vec<Shard> = (0..config.shards)
            .map(|_| Shard {
                engine: Arc::new(Engine::new(config.threads_per_shard)),
                depth: std::sync::atomic::AtomicUsize::new(0),
                pending_cost_us: AtomicU64::new(0),
            })
            .collect();
        let engines = shards.iter().map(|shard| Arc::clone(&shard.engine)).collect();
        let sched = Scheduler::new(engines, Arc::clone(&backend), config.steal);
        SweepService {
            backend,
            shards,
            sched,
            placements: Mutex::new(PlacementCache::default()),
            prepared: Mutex::new(PreparedCache::default()),
            builds: BuildTable::default(),
            coalescer: Coalescer::default(),
            cost_model: CostModel::new(config.cost_per_scenario_ms),
            registry: CatalogueRegistry::new(),
            sweep_config: SweepConfig {
                batch_size: config.batch_size,
                use_cache: config.use_cache,
            },
            queue_capacity: config.queue_capacity,
            cost_budget_ms: config.cost_budget_ms,
            coalesce: config.coalesce,
            queries: AtomicU64::new(0),
            started: Instant::now(),
            jobs: OnceLock::new(),
        }
    }

    /// Attach a durable-job manager (called once by
    /// [`crate::jobs::JobManager::new`]): the four `job_*` protocol verbs
    /// dispatch to it. A service without one answers them with an error.
    pub(crate) fn attach_jobs(&self, manager: std::sync::Weak<crate::jobs::JobManager>) {
        let _ = self.jobs.set(manager);
    }

    /// The attached job manager, if one is alive.
    pub fn jobs(&self) -> Option<Arc<crate::jobs::JobManager>> {
        self.jobs.get().and_then(std::sync::Weak::upgrade)
    }

    /// Spill every shard's [`EvalCache`] to `dir` as binary segment files
    /// (`cache-shard-<i>.seg`), each written atomically (tmp file + fsync +
    /// rename). Returns the number of entries spilled. Part of a durable
    /// job's checkpoint; also callable on its own for an orderly shutdown.
    ///
    /// [`EvalCache`]: mp_dse::cache::EvalCache
    pub fn save_cache_segments(&self, dir: &Path) -> std::io::Result<usize> {
        std::fs::create_dir_all(dir)?;
        let mut entries = 0usize;
        for (index, shard) in self.shards.iter().enumerate() {
            let cache = shard.engine.cache();
            entries += cache.len();
            crate::jobs::atomic_write(
                &dir.join(format!("cache-shard-{index}.seg")),
                &cache.save_segment(),
            )?;
        }
        Ok(entries)
    }

    /// Warm-start the shard caches from the segment files a previous
    /// process spilled to `dir`. Segment `i` loads into shard `i % shards`,
    /// so a restart with the same shard count reproduces the exact cache
    /// placement; with a different count the entries still load but may sit
    /// in a shard whose band never probes them (documented cost: a colder
    /// warm start, never a wrong answer — values are keyed by scenario
    /// fingerprint and salt, not by shard).
    ///
    /// Returns the number of entries restored. Corrupt, truncated or
    /// version-stale segments are **skipped with a warning** — a damaged
    /// spill degrades to a cold shard, it never aborts startup.
    pub fn load_cache_segments(&self, dir: &Path) -> usize {
        let mut restored = 0usize;
        for index in 0.. {
            let path = dir.join(format!("cache-shard-{index}.seg"));
            let bytes = match std::fs::read(&path) {
                Ok(bytes) => bytes,
                Err(_) => break,
            };
            let shard = &self.shards[index % self.shards.len()];
            match shard.engine.cache().load_segment(&bytes) {
                Ok(loaded) => restored += loaded,
                Err(e) => mp_obs::warn(
                    "jobs",
                    &format!("skipping cache segment {} (cold start): {e}", path.display()),
                ),
            }
        }
        restored
    }

    /// Attach a calibration catalogue (what [`SpaceSpec::Catalogue`] resolves
    /// against and [`Request::Catalogue`] lists).
    pub fn with_registry(mut self, registry: CatalogueRegistry) -> Self {
        self.registry = registry;
        self
    }

    /// The backend's stable name.
    pub fn backend_name(&self) -> &'static str {
        self.backend.name()
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Resolve a wire-level space spec into a prepared sweep handle — the
    /// form every query path consumes. [`SpaceSpec::Prepared`] ids hit the
    /// handle cache directly (no parse, clone or fingerprint work);
    /// everything else resolves to a space and goes through the prepared
    /// handle cache.
    pub fn resolve_handle(
        &self,
        spec: &SpaceSpec,
    ) -> Result<Arc<SweepHandle<'static>>, ServeError> {
        match spec {
            SpaceSpec::Prepared { id } => self.lookup_prepared(id),
            SpaceSpec::Explicit(space) => Ok(self.prepared(space)),
            SpaceSpec::Catalogue { .. } => Ok(self.prepared(&self.resolve_space(spec)?)),
        }
    }

    /// Register a space and return its prepared id plus scenario count
    /// (the [`Request::Prepare`] implementation).
    pub fn prepare_spec(&self, spec: &SpaceSpec) -> Result<(String, usize), ServeError> {
        let handle = self.resolve_handle(spec)?;
        let id = CatalogueRegistry::format_id(space_fingerprint(handle.space()));
        Ok((id, handle.len()))
    }

    /// Look a prepared id up in the handle cache.
    fn lookup_prepared(&self, id: &str) -> Result<Arc<SweepHandle<'static>>, ServeError> {
        let key = CatalogueRegistry::parse_id(id)
            .ok_or_else(|| err(format!("malformed prepared-space id `{id}`")))?;
        let mut prepared = self.prepared.lock();
        match prepared.handles.get(&key) {
            Some(handle) => {
                let handle = Arc::clone(handle);
                prepared.touch(key);
                Ok(handle)
            }
            None => Err(err(format!(
                "unknown prepared-space id `{id}` (expired from the LRU cache? re-prepare)"
            ))),
        }
    }

    /// Resolve a wire-level space spec into a concrete space.
    pub fn resolve_space(&self, spec: &SpaceSpec) -> Result<ScenarioSpace, ServeError> {
        match spec {
            SpaceSpec::Explicit(space) => Ok(space.clone()),
            SpaceSpec::Prepared { id } => Ok(self.lookup_prepared(id)?.space().clone()),
            SpaceSpec::Catalogue { ids, space } => {
                if ids.is_empty() {
                    return Err(err("catalogue space needs at least one id"));
                }
                let mut apps = Vec::with_capacity(ids.len());
                for id in ids {
                    let parsed = CatalogueRegistry::parse_id(id)
                        .ok_or_else(|| err(format!("malformed catalogue id `{id}`")))?;
                    let calibration = self
                        .registry
                        .get(parsed)
                        .ok_or_else(|| err(format!("unknown catalogue id `{id}`")))?;
                    apps.push(calibration.app_params().clone());
                }
                Ok(space.clone().with_apps(apps))
            }
        }
    }

    /// The prepared (tables-built) handle for `space`, shared across
    /// requests and LRU-bounded to [`MAX_PREPARED`] snapshots. Keyed by
    /// content fingerprint; an (astronomically unlikely) fingerprint
    /// collision falls back to a fresh uncached handle rather than
    /// answering for the wrong space.
    ///
    /// The cache mutex is held only for the lookup and the insert, never
    /// while the [`SpaceTables`] are built — a first query over a large new
    /// space must not head-of-line-block queries over already-prepared
    /// spaces. Clients racing on the same new space share **one** build
    /// through the planner's [`BuildTable`]: the first becomes the build
    /// leader, the rest block for its handle instead of redundantly
    /// deriving the same columns.
    ///
    /// [`SpaceTables`]: mp_dse::tables::SpaceTables
    fn prepared(&self, space: &ScenarioSpace) -> Arc<SweepHandle<'static>> {
        let key = space_fingerprint(space);
        {
            let mut prepared = self.prepared.lock();
            if let Some(handle) = prepared.handles.get(&key) {
                if handle.space() == space {
                    let handle = Arc::clone(handle);
                    prepared.touch(key);
                    return handle;
                }
                return Arc::new(SweepHandle::owned(space.clone()));
            }
        }
        match self.builds.join(key) {
            BuildRole::Leader => {
                let handle = Arc::new(SweepHandle::owned(space.clone()));
                {
                    let mut prepared = self.prepared.lock();
                    match prepared.handles.get(&key) {
                        // A fingerprint collision landed while we built:
                        // leave the existing snapshot alone, keep ours
                        // uncached.
                        Some(existing) if existing.space() != space => {}
                        _ => prepared.insert(key, Arc::clone(&handle)),
                    }
                }
                self.builds.publish(key, &handle);
                handle
            }
            BuildRole::Follower(build) => {
                let handle = build.wait();
                if handle.space() == space {
                    handle
                } else {
                    // Fingerprint collision with the leader's space: build
                    // a fresh uncached handle rather than answer for the
                    // wrong space.
                    Arc::new(SweepHandle::owned(space.clone()))
                }
            }
        }
    }

    /// Evaluate `range` of `space` (`None` = the whole space) across the
    /// shards, returning merged records in index order plus summed stats.
    /// Subject to admission control: when any participating shard already
    /// has [`ServiceConfig::queue_capacity`] sweeps in flight, the query is
    /// rejected with a retryable busy error instead of queued.
    pub fn sweep(
        &self,
        space: &ScenarioSpace,
        range: Option<Range<usize>>,
    ) -> Result<SweepResult, ServeError> {
        self.sweep_handle(&self.prepared(space), range)
    }

    /// [`SweepService::sweep`] over an already-prepared handle (what the
    /// wire paths use — a [`SpaceSpec::Prepared`] query never touches the
    /// space itself).
    pub fn sweep_handle(
        &self,
        handle: &Arc<SweepHandle<'static>>,
        range: Option<Range<usize>>,
    ) -> Result<SweepResult, ServeError> {
        let n = handle.len();
        let range = range.unwrap_or(0..n);
        check_range(&range, n)?;
        self.queries.fetch_add(1, Ordering::Relaxed);
        self.admit(handle, &range)?;
        self.sweep_prepared(handle, range)
    }

    /// The durable cache placement of `handle`'s space: fingerprint-keyed,
    /// LRU-bounded like the prepared-handle cache. Fresh placements
    /// reproduce the static bands; adaptive re-banding then mutates them
    /// in place, which is why the same `Arc` must be handed to every query
    /// over the space. A fingerprint collision (placement built for a
    /// different-length space) falls back to a fresh uncached placement.
    fn placement(&self, handle: &SweepHandle<'static>) -> Arc<Placement> {
        let key = handle.fingerprint();
        let mut placements = self.placements.lock();
        if let Some(placement) = placements.placements.get(&key) {
            if placement.len() == handle.len() {
                let placement = Arc::clone(placement);
                placements.order.retain(|&k| k != key);
                placements.order.push(key);
                return placement;
            }
            return Arc::new(Placement::new(handle.len(), self.shards.len()));
        }
        let placement = Arc::new(Placement::new(handle.len(), self.shards.len()));
        placements.placements.insert(key, Arc::clone(&placement));
        placements.order.push(key);
        while placements.placements.len() > MAX_PREPARED {
            let evict = placements.order.remove(0);
            placements.placements.remove(&evict);
        }
        placement
    }

    /// Scenarios of `range` homed on each participating shard, shard-keyed
    /// and deterministic. Admission, cache reservation and unit dispatch
    /// all derive from the same [`Placement::bands`] decomposition, so the
    /// three can never drift apart on what "participating" means.
    fn homed_scenarios(placement: &Placement, range: &Range<usize>) -> BTreeMap<usize, usize> {
        let mut homed: BTreeMap<usize, usize> = BTreeMap::new();
        for (home, slice, _) in placement.bands(range) {
            *homed.entry(home).or_default() += slice.len();
        }
        homed
    }

    /// The admission gate, checked once per *query* — the windows of an
    /// admitted streaming sweep are never rejected mid-answer, they just
    /// queue behind other admitted work. Two conditions, per participating
    /// shard:
    ///
    /// * **cost budget** (primary): the estimated evaluation cost of the
    ///   shard's queued work plus this query's slice must stay within
    ///   [`ServiceConfig::cost_budget_ms`] — a giant sweep can no longer
    ///   bury a queue that hundreds of cheap warm queries would sail
    ///   through, and conversely cheap queries keep being admitted by
    ///   *cost* where a raw depth cap would count them like giants. An
    ///   idle (zero-pending) shard admits anything: budgets bound *waiting*
    ///   work, they must not make oversized queries unanswerable.
    /// * **depth cap** (backstop): at most
    ///   [`ServiceConfig::queue_capacity`] sweeps in flight per shard,
    ///   whatever the model thinks they cost.
    ///
    /// Rejections are retryable ([`Response::Busy`]) and carry the query's
    /// estimated cost.
    fn admit(&self, handle: &SweepHandle<'static>, range: &Range<usize>) -> Result<(), ServeError> {
        let per_scenario_ms = self.cost_model.cost_per_scenario_ms();
        let query_cost_ms = range.len() as f64 * per_scenario_ms;
        let placement = self.placement(handle);
        for (index, scenarios) in Self::homed_scenarios(&placement, range) {
            let shard = &self.shards[index];
            let depth = shard.depth.load(Ordering::Acquire);
            if depth >= self.queue_capacity {
                obs_busy_rejections().inc();
                return Err(busy(
                    format!(
                        "shard {index} admission queue is full ({depth} sweeps in flight, cap {})",
                        self.queue_capacity
                    ),
                    query_cost_ms,
                ));
            }
            let pending_ms = shard.pending_cost_us.load(Ordering::Acquire) as f64 / 1e3;
            let slice_ms = scenarios as f64 * per_scenario_ms;
            if pending_ms > 0.0 && pending_ms + slice_ms > self.cost_budget_ms {
                crate::planner::obs_cost_rejections().inc();
                obs_busy_rejections().inc();
                return Err(busy(
                    format!(
                        "shard {index} estimated backlog {pending_ms:.1} ms + this query's \
                         {slice_ms:.1} ms exceeds the {:.0} ms admission budget",
                        self.cost_budget_ms
                    ),
                    query_cost_ms,
                ));
            }
        }
        Ok(())
    }

    /// The planner's evaluation entry point: every query path (one-shot
    /// sweeps, streaming windows, analysis queries) funnels its admitted,
    /// validated ranges through here. When coalescing is on, concurrent
    /// calls with the same `(prepared-space fingerprint, range)` key share
    /// one scheduled evaluation: the first becomes the leader and evaluates,
    /// the rest block and receive the published result — records
    /// bit-identical, follower stats marked [`SweepStats::coalesced`] so
    /// the shared work is counted once by aggregators but still reported to
    /// every subscriber.
    fn sweep_prepared(
        &self,
        handle: &Arc<SweepHandle<'static>>,
        range: Range<usize>,
    ) -> Result<SweepResult, ServeError> {
        if !self.coalesce || range.is_empty() {
            return self.sweep_scheduled(handle, range);
        }
        let key = PlanKey { fingerprint: handle.fingerprint(), start: range.start, end: range.end };
        match self.coalescer.join(key) {
            Role::Leader => {
                let result = self.sweep_scheduled(handle, range).map(Arc::new);
                self.coalescer.publish(&key, &result);
                // No follower joined: the published Arc is already dropped
                // and the result is returned without a copy.
                result.map(|shared| match Arc::try_unwrap(shared) {
                    Ok(owned) => owned,
                    Err(shared) => SweepResult::clone(&shared),
                })
            }
            Role::Follower(inflight) => {
                crate::planner::obs_coalesced_requests().inc();
                crate::planner::obs_shared_scenarios().add(range.len() as u64);
                let shared = inflight.wait()?;
                let mut result = SweepResult::clone(&shared);
                result.stats.coalesced = true;
                Ok(result)
            }
        }
    }

    /// The scheduled sweep core: decompose `range` into cost-sized work
    /// units along the placement's cache bands, submit them to the
    /// work-stealing scheduler, and fuse the completed units back into
    /// index order with the Merge-Path partitioned merge — bit-identical
    /// to evaluating the range in one piece, whichever worker ran each
    /// unit. No admission check — callers gate first.
    fn sweep_scheduled(
        &self,
        handle: &Arc<SweepHandle<'static>>,
        range: Range<usize>,
    ) -> Result<SweepResult, ServeError> {
        let started = Instant::now();
        let per_scenario_ms = self.cost_model.cost_per_scenario_ms();
        let placement = self.placement(handle);
        let span = mp_dse::units::unit_span(per_scenario_ms);
        let (reply, replies) = unbounded();

        // Decompose along the placement's cache bands first — every unit
        // gets exactly one home shard whose cache owns its scenarios — and
        // then into cost-sized units within each band, so a scenario lands
        // on the same shard's cache no matter how the request is windowed.
        let mut units: Vec<WorkUnit> = Vec::new();
        let mut homes: BTreeMap<usize, usize> = BTreeMap::new();
        for (home, band, _) in placement.bands(&range) {
            for unit_range in mp_dse::units::split_units(band, span) {
                let cost_us = (unit_range.len() as f64 * per_scenario_ms * 1e3) as u64;
                *homes.entry(home).or_insert(0) += 1;
                let segments = placement.segments_of(&unit_range);
                units.push(WorkUnit::new(
                    Arc::clone(handle),
                    unit_range,
                    segments,
                    home,
                    self.sweep_config,
                    Arc::clone(&placement),
                    reply.clone(),
                    cost_us,
                ));
            }
        }
        drop(reply);

        // Debit the admission gauges before dispatch: one queue-depth slot
        // per participating *home* shard (what `admit` gates on) plus each
        // unit's pending cost against its home. Stolen units still debit
        // the home — the admission budget models cache placement, not
        // whichever worker happens to execute.
        for &home in homes.keys() {
            self.shards[home].depth.fetch_add(1, Ordering::AcqRel);
            obs_queue_depth().add(1);
        }
        for unit in &units {
            self.shards[unit.home].pending_cost_us.fetch_add(unit.cost_us, Ordering::AcqRel);
        }
        // Snapshot warm-cache state at dispatch: entries resident in the
        // participating homes' caches, each home counted once per sweep —
        // summing per unit (or per executing worker) would inflate it.
        let warm_entries: usize = if self.sweep_config.use_cache {
            homes.keys().map(|&home| self.shards[home].engine.cache().len()).sum()
        } else {
            0
        };
        let outstanding = units.len();
        let mut remaining: BTreeMap<usize, usize> = homes.clone();
        if let Err(units) = self.sched.submit(units) {
            for unit in &units {
                self.shards[unit.home].pending_cost_us.fetch_sub(unit.cost_us, Ordering::Release);
            }
            for &home in homes.keys() {
                self.shards[home].depth.fetch_sub(1, Ordering::Release);
                obs_queue_depth().sub(1);
            }
            return Err(err("the sweep scheduler has shut down"));
        }

        // Drain *every* outstanding reply before ruling on errors: unit
        // results are already inserted into their home shards' caches and
        // are deterministic, so a retried query re-reads them warm. The
        // *caller* credits the admission gauges — a unit is done for
        // backpressure purposes only once its result is collected, whether
        // its home worker or a thief evaluated it.
        let mut partials: Vec<(usize, SweepResult)> = Vec::with_capacity(outstanding);
        let mut failure: Option<String> = None;
        let mut threads_by_home: BTreeMap<usize, usize> = BTreeMap::new();
        for _ in 0..outstanding {
            let done: UnitDone =
                replies.recv().map_err(|_| err("the scheduler dropped a sweep reply"))?;
            self.shards[done.home].pending_cost_us.fetch_sub(done.cost_us, Ordering::Release);
            if let Some(left) = remaining.get_mut(&done.home) {
                *left -= 1;
                if *left == 0 {
                    remaining.remove(&done.home);
                    self.shards[done.home].depth.fetch_sub(1, Ordering::Release);
                    obs_queue_depth().sub(1);
                }
            }
            match done.result {
                Ok(partial) => {
                    // Distinct evaluation lanes per home, not per unit: a
                    // home's units run one at a time on some worker, so its
                    // thread count is the max any of its units saw.
                    let lanes = threads_by_home.entry(done.home).or_insert(0);
                    *lanes = (*lanes).max(partial.stats.threads);
                    partials.push((done.start, partial));
                }
                Err(reason) => failure = Some(reason),
            }
        }
        if let Some(reason) = failure {
            return Err(err(format!("sweep evaluation failed: {reason}")));
        }

        // Fusion merge: unit runs are index-sorted and disjoint, so after
        // ordering them by start index the Merge-Path recombination is
        // bit-identical to a stable sequential merge whatever order (and
        // on whichever worker) the units ran.
        partials.sort_unstable_by_key(|&(start, _)| start);
        let merge_started = Instant::now();
        let runs: Vec<&[EvalRecord]> =
            partials.iter().map(|(_, partial)| partial.records.as_slice()).collect();
        let records = merge_runs(&runs, self.shards.len());
        crate::planner::obs_merge_ms().record(merge_started.elapsed().as_secs_f64() * 1e3);

        let mut stats = SweepStats {
            scenarios: 0,
            valid: 0,
            cache_hits: 0,
            cache_misses: 0,
            warm_entries,
            threads: threads_by_home.values().sum(),
            coalesced: false,
            elapsed_seconds: 0.0,
        };
        for (_, partial) in &partials {
            stats.scenarios += partial.stats.scenarios;
            stats.valid += partial.stats.valid;
            stats.cache_hits += partial.stats.cache_hits;
            stats.cache_misses += partial.stats.cache_misses;
        }
        stats.elapsed_seconds = started.elapsed().as_secs_f64();
        debug_assert_eq!(stats.scenarios, range.len());
        Ok(SweepResult { records, stats })
    }

    /// Open a **pull-based** streaming sweep over `range` of `space`:
    /// validates and admits the query once, prepares (or reuses) the
    /// [`SweepHandle`], and returns a [`SweepTicket`] whose windows are
    /// computed only when [`SweepService::next_window`] pulls them — nothing
    /// is evaluated or buffered for a consumer that has stopped draining.
    /// `chunk` is the response chunk size (`0` = [`DEFAULT_CHUNK`]); windows
    /// are chunk-aligned so streamed chunk boundaries are identical to a
    /// one-shot sweep's.
    pub fn begin_sweep(
        &self,
        space: &ScenarioSpace,
        range: Range<usize>,
        chunk: usize,
    ) -> Result<SweepTicket, ServeError> {
        self.begin_sweep_handle(self.prepared(space), range, chunk)
    }

    /// [`SweepService::begin_sweep`] over an already-prepared handle.
    pub fn begin_sweep_handle(
        &self,
        handle: Arc<SweepHandle<'static>>,
        range: Range<usize>,
        chunk: usize,
    ) -> Result<SweepTicket, ServeError> {
        check_range(&range, handle.len())?;
        self.queries.fetch_add(1, Ordering::Relaxed);
        self.admit(&handle, &range)?;
        // Size each participating shard's cache for its whole share of the
        // sweep up front — exactly what a one-shot `Engine::sweep` does —
        // so the window-by-window inserts never rehash (and transiently
        // double) a table mid-stream.
        if self.sweep_config.use_cache {
            let placement = self.placement(&handle);
            for (&home, &scenarios) in &Self::homed_scenarios(&placement, &range) {
                self.shards[home].engine.cache().reserve(scenarios);
            }
        }
        let chunk = if chunk == 0 { DEFAULT_CHUNK } else { chunk };
        // Pull windows of roughly DEFAULT_CHUNK scenarios, rounded to a
        // whole number of response chunks so boundaries stay aligned.
        let window = (DEFAULT_CHUNK / chunk).max(1) * chunk;
        let cursor = handle.cursor(range, window);
        Ok(SweepTicket {
            handle,
            cursor,
            chunk,
            stats: SweepStats {
                scenarios: 0,
                valid: 0,
                cache_hits: 0,
                cache_misses: 0,
                warm_entries: 0,
                threads: 0,
                coalesced: false,
                elapsed_seconds: 0.0,
            },
            started: Instant::now(),
            first_window: true,
        })
    }

    /// Pull the next window of an open streaming sweep: evaluates it across
    /// the shards and returns its records (global indices, index order), or
    /// `None` once the ticket's range is exhausted — read the final merged
    /// statistics from [`SweepTicket::stats`] then.
    pub fn next_window(
        &self,
        ticket: &mut SweepTicket,
    ) -> Result<Option<Vec<EvalRecord>>, ServeError> {
        let Some(window) = ticket.cursor.next_window() else {
            return Ok(None);
        };
        let profiler = Profiler::global();
        let _span = profiler.is_enabled().then(|| {
            profiler.span_with("serve.window", format!("{window:?}"), "serve", thread_lane())
        });
        let result = self.sweep_prepared(&ticket.handle, window)?;
        ticket.stats.scenarios += result.stats.scenarios;
        ticket.stats.valid += result.stats.valid;
        ticket.stats.cache_hits += result.stats.cache_hits;
        ticket.stats.cache_misses += result.stats.cache_misses;
        // Later windows see the entries the earlier ones just inserted; only
        // the first window's count is the sweep's true warm-start budget.
        if ticket.first_window {
            ticket.stats.warm_entries = result.stats.warm_entries;
            ticket.first_window = false;
        }
        ticket.stats.threads = ticket.stats.threads.max(result.stats.threads);
        ticket.stats.coalesced |= result.stats.coalesced;
        ticket.stats.elapsed_seconds = ticket.started.elapsed().as_secs_f64();
        Ok(Some(result.records))
    }

    /// The `k` highest-speedup records of a full sweep of `space`.
    pub fn top_k(&self, space: &ScenarioSpace, k: usize) -> Result<Vec<EvalRecord>, ServeError> {
        Ok(top_k(&self.sweep(space, None)?.records, k))
    }

    /// The Pareto frontier (speedup vs `cost`) of a full sweep of `space`.
    pub fn pareto(
        &self,
        space: &ScenarioSpace,
        cost: CostAxis,
    ) -> Result<Vec<EvalRecord>, ServeError> {
        Ok(pareto_frontier(&self.sweep(space, None)?.records, cost))
    }

    /// The engine-reproduced curve family of one paper figure.
    pub fn curves(&self, figure: Figure) -> Result<Vec<Curve>, ServeError> {
        self.queries.fetch_add(1, Ordering::Relaxed);
        figure_curves(figure).map_err(|e| err(format!("figure {figure} failed: {e}")))
    }

    /// Aggregate service statistics.
    pub fn stats(&self) -> ServiceStats {
        ServiceStats {
            backend: self.backend.name().to_string(),
            shards: self
                .shards
                .iter()
                .enumerate()
                .map(|(index, shard)| ShardStats {
                    shard: index,
                    threads: shard.engine.threads(),
                    cache: shard.engine.cache().stats(),
                })
                .collect(),
            queries: self.queries.load(Ordering::Relaxed),
            prepared_spaces: self.prepared.lock().handles.len(),
            uptime_seconds: self.started.elapsed().as_secs_f64(),
            metrics: mp_obs::registry().snapshot().to_json(),
        }
    }

    /// The calibration catalogue in wire form.
    pub fn catalogue_entries(&self) -> Vec<CatalogueEntry> {
        self.registry
            .entries()
            .iter()
            .map(|calibration| CatalogueEntry {
                id: CatalogueRegistry::format_id(calibration.fingerprint()),
                name: calibration.app_params().name.clone(),
                growth: calibration.growth().label(),
                f: calibration.app_params().f,
                fit_rmse: calibration.fit_rmse(),
            })
            .collect()
    }

    /// Answer one protocol request, emitting responses through `emit` as
    /// they are produced: a sweep's chunks are built (records → wire form)
    /// and emitted **one at a time**, so beyond the sweep result itself at
    /// most one chunk's wire copy is ever alive — the server writes and
    /// flushes each line before the next is built. An `Err` from `emit`
    /// (a dead connection) aborts the remaining chunks.
    /// [`Request::Shutdown`] is acknowledged here but acted on by the
    /// server loop.
    pub fn handle_streaming(
        &self,
        request: &Request,
        emit: &mut dyn FnMut(Response) -> std::io::Result<()>,
    ) -> std::io::Result<()> {
        obs_requests(request).inc();
        match request {
            Request::Ping => emit(Response::Pong { version: PROTOCOL_VERSION.to_string() }),
            Request::Stats => emit(Response::Stats(self.stats())),
            Request::Metrics => {
                let snapshot = mp_obs::registry().snapshot();
                emit(Response::Metrics {
                    json: snapshot.to_json(),
                    prometheus: snapshot.to_prometheus(),
                })
            }
            Request::Catalogue => emit(Response::Catalogue { entries: self.catalogue_entries() }),
            Request::Shutdown => emit(Response::ShuttingDown),
            Request::Sweep { space, start, end, chunk } => {
                let handle = match self.resolve_handle(space) {
                    Ok(handle) => handle,
                    Err(e) => return emit(e.into_response()),
                };
                let mut ticket = match self.begin_sweep_handle(handle, *start..*end, *chunk) {
                    Ok(ticket) => ticket,
                    Err(e) => return emit(e.into_response()),
                };
                loop {
                    match self.next_window(&mut ticket) {
                        Ok(Some(records)) => {
                            for slice in records.chunks(ticket.chunk()) {
                                emit(Response::SweepChunk {
                                    start: slice[0].index,
                                    records: to_wire(slice),
                                })?;
                            }
                        }
                        Ok(None) => return emit(Response::SweepDone { stats: ticket.stats() }),
                        Err(e) => return emit(e.into_response()),
                    }
                }
            }
            Request::TopK { space, k } => {
                self.record_query(space, |records| top_k(records, *k), emit)
            }
            Request::Pareto { space, cost } => {
                self.record_query(space, |records| pareto_frontier(records, *cost), emit)
            }
            Request::Curve { figure } => match self.curves(*figure) {
                Ok(curves) => emit(Response::Curves { curves }),
                Err(e) => emit(e.into_response()),
            },
            Request::Prepare { space } => match self.prepare_spec(space) {
                Ok((id, scenarios)) => emit(Response::Prepared { id, scenarios }),
                Err(e) => emit(e.into_response()),
            },
            Request::JobSubmit { space, start, end, chunk, checkpoint_every } => {
                self.job_verb(emit, |jobs| {
                    let space = self.resolve_space(space)?;
                    jobs.submit(space, *start..*end, *chunk, *checkpoint_every)
                })
            }
            Request::JobStatus { id } => self.job_verb(emit, |jobs| jobs.status(id)),
            Request::JobCancel { id } => self.job_verb(emit, |jobs| jobs.cancel(id)),
            Request::JobResume { id } => self.job_verb(emit, |jobs| jobs.resume(id)),
        }
    }

    /// Shared dispatch of the four job verbs: resolve the attached manager,
    /// run the verb, answer with the resulting snapshot or error.
    fn job_verb(
        &self,
        emit: &mut dyn FnMut(Response) -> std::io::Result<()>,
        verb: impl FnOnce(&crate::jobs::JobManager) -> Result<crate::protocol::JobSnapshot, ServeError>,
    ) -> std::io::Result<()> {
        let Some(jobs) = self.jobs() else {
            return emit(
                err("durable jobs are not enabled on this server (start it with a jobs manager)")
                    .into_response(),
            );
        };
        match verb(&jobs) {
            Ok(snapshot) => emit(Response::Job(snapshot)),
            Err(e) => emit(e.into_response()),
        }
    }

    /// [`SweepService::handle_streaming`] with the responses collected into
    /// a vector — the convenient form for in-process use and tests.
    pub fn handle(&self, request: &Request) -> Vec<Response> {
        let mut responses = Vec::new();
        self.handle_streaming(request, &mut |response| {
            responses.push(response);
            Ok(())
        })
        .expect("collecting emitter never fails");
        responses
    }

    /// Shared resolve → sweep → analyse path of the record-returning queries.
    fn record_query(
        &self,
        spec: &SpaceSpec,
        analyse: impl FnOnce(&[EvalRecord]) -> Vec<EvalRecord>,
        emit: &mut dyn FnMut(Response) -> std::io::Result<()>,
    ) -> std::io::Result<()> {
        let handle = match self.resolve_handle(spec) {
            Ok(handle) => handle,
            Err(e) => return emit(e.into_response()),
        };
        match self.sweep_handle(&handle, None) {
            Ok(result) => emit(Response::Records { records: to_wire(&analyse(&result.records)) }),
            Err(e) => emit(e.into_response()),
        }
    }
}

/// Validate a sweep range against a space length.
fn check_range(range: &Range<usize>, n: usize) -> Result<(), ServeError> {
    if range.start > range.end || range.end > n {
        return Err(err(format!(
            "sweep range {}..{} exceeds the {n}-scenario space",
            range.start, range.end
        )));
    }
    Ok(())
}

/// An open, admitted streaming sweep: the prepared handle plus a
/// [`RangeCursor`] over the not-yet-pulled remainder and the statistics
/// accumulated so far. Holding a ticket costs one `Arc` on the prepared
/// snapshot — no records are computed or buffered until
/// [`SweepService::next_window`] pulls them, which is what lets the reactor
/// park a sweep for a slow connection and re-arm it from `EPOLLOUT`.
#[derive(Debug)]
pub struct SweepTicket {
    handle: Arc<SweepHandle<'static>>,
    cursor: RangeCursor,
    chunk: usize,
    stats: SweepStats,
    started: Instant,
    first_window: bool,
}

impl SweepTicket {
    /// The response chunk size the query asked for (normalised, never 0).
    pub fn chunk(&self) -> usize {
        self.chunk
    }

    /// Scenarios not yet pulled.
    pub fn remaining(&self) -> usize {
        self.cursor.remaining()
    }

    /// Whether every window has been pulled.
    pub fn is_done(&self) -> bool {
        self.cursor.is_done()
    }

    /// Statistics accumulated over the windows pulled so far (the final
    /// sweep statistics once [`SweepTicket::is_done`]).
    pub fn stats(&self) -> SweepStats {
        self.stats
    }
}

/// Content fingerprint of a space: FNV over its canonical JSON form
/// (delegates to [`mp_dse::engine::space_fingerprint`], the same hash the
/// planner keys its coalescing table on).
fn space_fingerprint(space: &ScenarioSpace) -> u64 {
    mp_dse::engine::space_fingerprint(space)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mp_dse::backend::AnalyticBackend;
    use mp_model::params::AppParams;

    fn space() -> ScenarioSpace {
        ScenarioSpace::new()
            .with_apps(AppParams::table2_all())
            .clear_designs()
            .add_symmetric_grid((0..40).map(|i| 1.0 + i as f64 * 3.0))
            .add_asymmetric_grid([1.0, 4.0], [4.0, 16.0, 64.0])
    }

    fn service(shards: usize) -> SweepService {
        SweepService::new(
            Arc::new(AnalyticBackend),
            &ServiceConfig { shards, threads_per_shard: 2, ..ServiceConfig::default() },
        )
    }

    #[test]
    fn sharded_sweep_is_bit_identical_to_a_direct_engine_sweep() {
        let space = space();
        let direct = Engine::new(2).sweep(&space, &AnalyticBackend, &SweepConfig::default());
        for shards in [1usize, 3] {
            let service = service(shards);
            let served = service.sweep(&space, None).unwrap();
            assert_eq!(served.records.len(), direct.records.len());
            for (a, b) in served.records.iter().zip(direct.records.iter()) {
                assert_eq!(a.index, b.index);
                assert_eq!(a.speedup.to_bits(), b.speedup.to_bits());
            }
            assert_eq!(served.stats.scenarios, space.len());
        }
    }

    #[test]
    fn one_scenario_spaces_sweep_cleanly_at_any_shard_count() {
        // The old `band_slices` silently yielded nothing for trailing
        // shards when n < shards; a 1-scenario space must still evaluate
        // its one scenario, warm one cache, and answer repeats from it.
        let space = ScenarioSpace::new().clear_designs().add_symmetric_grid([2.0]);
        assert_eq!(space.len(), 1);
        let direct = Engine::new(1).sweep(&space, &AnalyticBackend, &SweepConfig::default());
        for shards in [1usize, 4, 8] {
            let service = service(shards);
            let cold = service.sweep(&space, None).unwrap();
            assert_eq!(cold.records.len(), 1, "{shards} shards");
            assert_eq!(cold.records[0].speedup.to_bits(), direct.records[0].speedup.to_bits());
            assert_eq!(cold.stats.scenarios, 1);
            let warm = service.sweep(&space, None).unwrap();
            assert_eq!(warm.stats.cache_hits, 1, "{shards} shards answer repeats warm");
            assert_eq!(warm.stats.cache_misses, 0);
            assert_eq!(warm.records[0].speedup.to_bits(), direct.records[0].speedup.to_bits());
            // Streaming path, same degenerate shape.
            let mut ticket = service.begin_sweep(&space, 0..1, 0).unwrap();
            let window = service.next_window(&mut ticket).unwrap().expect("one window");
            assert_eq!(window.len(), 1);
            assert!(service.next_window(&mut ticket).unwrap().is_none());
        }
    }

    #[test]
    fn range_queries_intersect_the_static_shard_bands() {
        let space = space();
        let service = service(4);
        let full = service.sweep(&space, None).unwrap();
        let n = space.len();
        let windows = [0..n / 5, n / 5..n - 3, n - 3..n, 0..0];
        for window in windows {
            let part = service.sweep(&space, Some(window.clone())).unwrap();
            assert_eq!(part.records.len(), window.len());
            for (record, truth) in part.records.iter().zip(&full.records[window]) {
                assert_eq!(record.index, truth.index);
                assert_eq!(record.speedup.to_bits(), truth.speedup.to_bits());
            }
        }
        assert!(service.sweep(&space, Some(0..n + 1)).is_err());
    }

    #[test]
    fn prepared_handle_cache_is_lru_bounded() {
        let service = service(1);
        // One more distinct space than the cap: the oldest must be evicted.
        for designs in 1..=(MAX_PREPARED + 1) {
            let space = ScenarioSpace::new()
                .clear_designs()
                .add_symmetric_grid((0..designs).map(|i| 1.0 + i as f64));
            service.sweep(&space, None).unwrap();
        }
        assert_eq!(service.stats().prepared_spaces, MAX_PREPARED);
        // Re-querying a recent space is still a handle hit (count unchanged);
        // the evicted first space gets re-prepared without growing past the
        // cap.
        let recent = ScenarioSpace::new()
            .clear_designs()
            .add_symmetric_grid((0..MAX_PREPARED + 1).map(|i| 1.0 + i as f64));
        service.sweep(&recent, None).unwrap();
        assert_eq!(service.stats().prepared_spaces, MAX_PREPARED);
        let evicted = ScenarioSpace::new().clear_designs().add_symmetric_grid([1.0]);
        service.sweep(&evicted, None).unwrap();
        assert_eq!(service.stats().prepared_spaces, MAX_PREPARED);
    }

    #[test]
    fn warm_repeat_queries_hit_the_shard_caches() {
        let space = space();
        let service = service(4);
        let first = service.sweep(&space, None).unwrap();
        assert_eq!(first.stats.cache_hits, 0);
        let second = service.sweep(&space, None).unwrap();
        assert_eq!(second.stats.cache_hits, space.len() as u64);
        assert_eq!(second.stats.cache_misses, 0);
        assert!(second.stats.warm_entries > 0);
        let totals = service.stats().cache_totals();
        assert_eq!(totals.entries, space.len());
        assert!(totals.hits >= space.len() as u64);
        // The prepared handle was reused, not rebuilt.
        assert_eq!(service.stats().prepared_spaces, 1);
        assert_eq!(service.stats().queries, 2);
    }

    #[test]
    fn analysis_queries_match_direct_analysis() {
        let space = space();
        let service = service(2);
        let direct = Engine::new(1).sweep(&space, &AnalyticBackend, &SweepConfig::default());
        let top = service.top_k(&space, 5).unwrap();
        assert_eq!(top, top_k(&direct.records, 5));
        let frontier = service.pareto(&space, CostAxis::Cores).unwrap();
        assert_eq!(frontier, pareto_frontier(&direct.records, CostAxis::Cores));
    }

    #[test]
    fn pulled_windows_are_bit_identical_to_a_blocking_sweep() {
        let space = space();
        let service = service(3);
        let blocking = service.sweep(&space, None).unwrap();
        // A ragged sub-range and a chunk size that does not divide it.
        let range = 7..space.len() - 5;
        let mut ticket = service.begin_sweep(&space, range.clone(), 100).unwrap();
        assert_eq!(ticket.chunk(), 100);
        assert_eq!(ticket.remaining(), range.len());
        let mut pulled = Vec::new();
        while let Some(records) = service.next_window(&mut ticket).unwrap() {
            assert!(records.len() <= 8100, "windows pull at most ~DEFAULT_CHUNK scenarios");
            if !ticket.is_done() {
                assert_eq!(records.len() % 100, 0, "non-final windows are chunk-aligned");
            }
            pulled.extend(records);
        }
        assert!(ticket.is_done());
        let stats = ticket.stats();
        assert_eq!(stats.scenarios, range.len());
        assert_eq!(pulled.len(), range.len());
        for (record, truth) in pulled.iter().zip(&blocking.records[range]) {
            assert_eq!(record.index, truth.index);
            assert_eq!(record.speedup.to_bits(), truth.speedup.to_bits());
        }
        // The ticket pulled everything warm (the blocking sweep filled the
        // caches), so hits account for every scenario.
        assert_eq!(stats.cache_hits, stats.scenarios as u64);

        // Range validation happens at begin time.
        let bad = service.begin_sweep(&space, 0..space.len() + 1, 0).unwrap_err();
        assert!(!bad.is_busy());
    }

    #[test]
    fn protocol_dispatch_streams_chunks_and_reports_errors() {
        let space = space();
        let service = service(2);
        let responses = service.handle(&Request::Sweep {
            space: SpaceSpec::Explicit(space.clone()),
            start: 0,
            end: space.len(),
            chunk: 64,
        });
        let terminal = responses.last().unwrap();
        assert!(matches!(terminal, Response::SweepDone { .. }));
        let chunks = responses.len() - 1;
        assert_eq!(chunks, space.len().div_ceil(64));
        assert!(responses[..chunks].iter().all(|r| !r.is_terminal()));

        let bad = service.handle(&Request::Sweep {
            space: SpaceSpec::Explicit(space.clone()),
            start: 5,
            end: 1,
            chunk: 0,
        });
        assert!(matches!(bad.as_slice(), [Response::Error { .. }]));

        let unknown = service.handle(&Request::Sweep {
            space: SpaceSpec::Catalogue { ids: vec!["0123456789abcdef".into()], space },
            start: 0,
            end: 1,
            chunk: 0,
        });
        assert!(matches!(unknown.as_slice(), [Response::Error { .. }]));
    }
}
