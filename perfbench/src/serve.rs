//! `serve-sweep` and `serve-explore`: a closed loop of two connections
//! against one spawned `repro serve --shards 2 --threads 1`.
//!
//! * `serve-sweep` sends full and window `Sweep` requests over one prepared
//!   6 352-scenario space (the `repro load` space). Responses are large and
//!   the cache is warm, so protocol encode/decode and the reactor carry the
//!   latency.
//! * `serve-explore` sends `TopK` and `Pareto` requests over explicit
//!   spaces drawn from a seeded pool of 64 spaces of ~10k scenarios — more
//!   than the server's 32-entry prepared-space LRU holds. Responses are
//!   tiny, so space resolution, the engine with its growing memo cache and
//!   the analyses carry the latency. The first touch of each space is cold
//!   and counts: the workload is not pre-warmed.
//!
//! Every response is checked bit for bit against a local `Engine::sweep`
//! reference. The traced run wraps each call in a span and replays the same
//! request in process against a `SweepService` with the server's
//! configuration, `Engine::sweep_range`, the analyses and the chunk
//! encoder/decoder; it also differences the server's own metrics around the
//! timed section.

use std::collections::HashSet;
use std::ops::Range;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mp_dse::prelude::*;
use mp_model::growth::GrowthFunction;
use mp_model::params::AppClass;
use mp_model::perf::PerfModel;
use mp_serve::prelude::*;

use crate::proc::Server;
use crate::report::Outcome;
use crate::scrape::Scrape;
use crate::stats::{median, Digest, Rng};
use crate::trace::Tracer;
use crate::Config;

/// Client connections of the closed loop.
const CONNECTIONS: usize = 2;
/// How many times set-up runs (its median is reported).
const SETUPS: usize = 9;
/// `k` of every `TopK` request.
const TOP_K: usize = 10;
/// Requests per connection folded into the stream digest.
const DIGESTED: usize = 1000;

/// One request of the stream.
#[derive(Debug, Clone)]
enum Query {
    Sweep { space: usize, range: Range<usize> },
    TopK { space: usize },
    Pareto { space: usize, cost: CostAxis },
}

impl Query {
    fn space(&self) -> usize {
        match self {
            Query::Sweep { space, .. } | Query::TopK { space } | Query::Pareto { space, .. } => {
                *space
            }
        }
    }

    fn request(&self, specs: &[SpaceSpec]) -> Request {
        let space = specs[self.space()].clone();
        match self {
            Query::Sweep { range, .. } => {
                Request::Sweep { space, start: range.start, end: range.end, chunk: 0 }
            }
            Query::TopK { .. } => Request::TopK { space, k: TOP_K },
            Query::Pareto { cost, .. } => Request::Pareto { space, cost: *cost },
        }
    }

    fn digest_into(&self, digest: &mut Digest) {
        match self {
            Query::Sweep { space, range } => {
                for x in [0, *space, range.start, range.end] {
                    digest.update_u64(x as u64);
                }
            }
            Query::TopK { space } => {
                digest.update_u64(1);
                digest.update_u64(*space as u64);
            }
            Query::Pareto { space, cost } => {
                digest.update_u64(2);
                digest.update_u64(*space as u64);
                digest.update_u64(matches!(cost, CostAxis::Area) as u64);
            }
        }
    }
}

/// One connection's seeded request stream. Verbs come in fixed-composition
/// blocks whose order the seed shuffles, so the verb mix of every run is
/// the same and only positions and order vary with the seed.
struct RequestStream {
    rng: Rng,
    explore: bool,
    sizes: Vec<usize>,
    block: Vec<Query>,
}

impl RequestStream {
    fn new(seed: u64, connection: usize, explore: bool, sizes: Vec<usize>) -> RequestStream {
        RequestStream {
            rng: Rng::new(seed, connection as u64 + 1),
            explore,
            sizes,
            block: Vec::new(),
        }
    }

    fn next(&mut self) -> Query {
        if self.block.is_empty() {
            self.refill();
        }
        self.block.pop().expect("refilled")
    }

    fn refill(&mut self) {
        let rng = &mut self.rng;
        if self.explore {
            // One TopK and one Pareto per block, each on a uniformly drawn
            // pool space.
            let pool = self.sizes.len();
            let cost = if rng.below(2) == 0 { CostAxis::Cores } else { CostAxis::Area };
            self.block.push(Query::TopK { space: rng.below(pool) });
            self.block.push(Query::Pareto { space: rng.below(pool), cost });
            if rng.below(2) == 1 {
                self.block.swap(0, 1);
            }
        } else {
            // One full sweep and three quarter-space windows per block.
            let n = self.sizes[0];
            let len = (n / 4).max(1);
            let full = rng.below(4);
            for slot in 0..4 {
                let range = if slot == full {
                    0..n
                } else {
                    let start = rng.below(n - len + 1);
                    start..start + len
                };
                self.block.push(Query::Sweep { space: 0, range });
            }
        }
    }
}

/// The seeded pool of `serve-explore` spaces: Table III's eight classes over
/// a log-spaced symmetric grid with a seeded top size plus a small
/// asymmetric grid, under a seeded pair of growth laws, pair of core
/// performance models and chip budget (~10k scenarios each).
fn explore_pool(seed: u64, tiny: bool) -> Vec<ScenarioSpace> {
    let mut rng = Rng::new(seed, 0x5eed);
    let (count, points) = if tiny { (8, 60usize) } else { (64, 300usize) };
    let apps: Vec<_> = AppClass::table3_all().into_iter().map(|c| c.params()).collect();
    let growths = [
        GrowthFunction::Constant,
        GrowthFunction::Linear,
        GrowthFunction::Logarithmic,
        GrowthFunction::Superlinear(1.55),
    ];
    let perfs = [PerfModel::Pollack, PerfModel::Power(0.75), PerfModel::Linear];
    (0..count)
        .map(|_| {
            let max_r = 2f64.powf(rng.range_f64(5.0, 8.0));
            let sym = (0..points).map(move |i| max_r.powf(i as f64 / (points - 1) as f64));
            let g = rng.below(growths.len());
            let g2 = (g + 1 + rng.below(growths.len() - 1)) % growths.len();
            let p = rng.below(perfs.len());
            let p2 = (p + 1 + rng.below(perfs.len() - 1)) % perfs.len();
            let budget = [128.0, 256.0, 512.0][rng.below(3)];
            let pow2 =
                std::iter::successors(Some(2.0f64), |r| (r * 2.0 <= 128.0).then_some(r * 2.0));
            ScenarioSpace::new()
                .with_apps(apps.clone())
                .with_budgets(vec![budget])
                .clear_designs()
                .add_symmetric_grid(sym)
                .add_asymmetric_grid([1.0, 2.0, 4.0], pow2)
                .with_growths(vec![growths[g].clone(), growths[g2].clone()])
                .with_perfs(vec![perfs[p], perfs[p2]])
        })
        .collect()
}

/// The workload's spaces.
fn spaces(config: &Config, seed: u64) -> Vec<ScenarioSpace> {
    if explore(config) {
        explore_pool(seed, config.tiny)
    } else {
        vec![mp_bench::load_cmd::load_space(config.tiny, &AnalyticBackend)]
    }
}

fn explore(config: &Config) -> bool {
    config.workload == "serve-explore"
}

/// Digest of the pool's space fingerprints and of each connection's first
/// requests.
pub fn stream_digest(config: &Config, seed: u64) -> u64 {
    let spaces = spaces(config, seed);
    let mut digest = Digest::default();
    for space in &spaces {
        digest.update_u64(mp_dse::engine::space_fingerprint(space));
    }
    let sizes: Vec<usize> = spaces.iter().map(ScenarioSpace::len).collect();
    for connection in 0..CONNECTIONS {
        let mut stream = RequestStream::new(seed, connection, explore(config), sizes.clone());
        for _ in 0..DIGESTED {
            stream.next().digest_into(&mut digest);
        }
    }
    digest.finish()
}

/// Ground truth for one space.
struct Reference {
    /// Every record (kept for the sweep workload only).
    records: Vec<EvalRecord>,
    top: Vec<EvalRecord>,
    frontier_cores: Vec<EvalRecord>,
    frontier_area: Vec<EvalRecord>,
}

fn reference(space: &ScenarioSpace, keep_records: bool) -> Reference {
    let result = Engine::new(2).sweep(
        space,
        &AnalyticBackend,
        &SweepConfig { use_cache: false, ..SweepConfig::default() },
    );
    Reference {
        top: top_k(&result.records, TOP_K),
        frontier_cores: pareto_frontier(&result.records, CostAxis::Cores),
        frontier_area: pareto_frontier(&result.records, CostAxis::Area),
        records: if keep_records { result.records } else { Vec::new() },
    }
}

/// Bitwise record-list equality: index plus the speedup, cores and area bits.
pub fn identical(a: &[EvalRecord], b: &[EvalRecord]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.index == y.index
                && x.speedup.to_bits() == y.speedup.to_bits()
                && x.cores.to_bits() == y.cores.to_bits()
                && x.area.to_bits() == y.area.to_bits()
        })
}

/// Check one answer against the reference.
fn verify(query: &Query, responses: Vec<Response>, refs: &[Reference]) -> Result<(), String> {
    let truth = &refs[query.space()];
    match query {
        Query::Sweep { range, .. } => {
            let (records, _) =
                assemble_sweep(responses, range).map_err(|e| format!("sweep {range:?}: {e}"))?;
            identical(&records, &truth.records[range.clone()])
                .then_some(())
                .ok_or_else(|| format!("sweep {range:?} differs from the reference"))
        }
        Query::TopK { .. } | Query::Pareto { .. } => {
            let expected = match query {
                Query::TopK { .. } => &truth.top,
                Query::Pareto { cost: CostAxis::Cores, .. } => &truth.frontier_cores,
                _ => &truth.frontier_area,
            };
            match responses.as_slice() {
                [Response::Records { records }] if identical(&from_wire(records), expected) => {
                    Ok(())
                }
                [Response::Records { .. }] => Err(format!("{query:?} differs from the reference")),
                other => Err(format!("{query:?} answered {other:?}")),
            }
        }
    }
}

/// Per-request timings of one traced replay, in ms.
#[derive(Debug, Clone, Copy)]
struct Replayed {
    call_ms: f64,
    resolve_ms: f64,
    handle_ms: f64,
    sweep_ms: f64,
    top_k_ms: Option<f64>,
    pareto_ms: Option<f64>,
    encode_ms: f64,
    decode_ms: f64,
    resp_bytes: f64,
}

/// In-process counterparts of the server's layers, for the traced replay.
struct Layers {
    service: SweepService,
    engine: Engine,
}

impl Layers {
    fn new() -> Layers {
        let config = ServiceConfig { shards: 2, threads_per_shard: 1, ..ServiceConfig::default() };
        Layers {
            service: SweepService::new(Arc::new(AnalyticBackend), &config),
            engine: Engine::new(1),
        }
    }

    /// Replay `query` through each layer under spans.
    fn replay(
        &self,
        tracer: &Tracer,
        id: u64,
        query: &Query,
        request: &Request,
        spec: &SpaceSpec,
        call_ms: f64,
    ) -> Result<Replayed, String> {
        let (handle, resolve_ms) =
            tracer.timed("serve.service.resolve", id, None, || self.service.resolve_handle(spec));
        let handle = handle.map_err(|e| format!("in-process resolve: {}", e.message))?;
        let (responses, handle_ms) =
            tracer.timed("serve.service.handle", id, None, || self.service.handle(request));
        if let Some(Response::Error { message }) = responses.last() {
            return Err(format!("in-process handle: {message}"));
        }
        let range = match query {
            Query::Sweep { range, .. } => range.clone(),
            _ => 0..handle.len(),
        };
        let (result, sweep_ms) = tracer.timed("dse.engine.sweep", id, None, || {
            self.engine.sweep_range(
                &handle,
                &AnalyticBackend,
                &SweepConfig::default(),
                range.clone(),
            )
        });
        let (mut top_k_ms, mut pareto_ms) = (None, None);
        let selected = match query {
            Query::Sweep { .. } => Vec::new(),
            Query::TopK { .. } => {
                let (top, ms) =
                    tracer.timed("dse.analysis.top_k", id, None, || top_k(&result.records, TOP_K));
                top_k_ms = Some(ms);
                top
            }
            Query::Pareto { cost, .. } => {
                let (frontier, ms) = tracer.timed("dse.analysis.pareto", id, None, || {
                    pareto_frontier(&result.records, *cost)
                });
                pareto_ms = Some(ms);
                frontier
            }
        };
        let (lines, encode_ms) = tracer.timed("serve.protocol.encode", id, None, || match query {
            Query::Sweep { .. } => {
                let mut lines: Vec<String> = result
                    .records
                    .chunks(DEFAULT_CHUNK)
                    .enumerate()
                    .map(|(i, chunk)| encode_chunk_line(id, range.start + i * DEFAULT_CHUNK, chunk))
                    .collect();
                lines.push(encode_line(&ResponseEnvelope {
                    id,
                    response: Response::SweepDone { stats: result.stats },
                }));
                lines
            }
            _ => vec![encode_line(&ResponseEnvelope {
                id,
                response: Response::Records { records: to_wire(&selected) },
            })],
        });
        let (decoded, decode_ms) = tracer.timed("serve.protocol.decode", id, None, || {
            lines
                .iter()
                .filter(|line| {
                    decode_chunk_line(line).is_some()
                        || decode_line::<ResponseEnvelope>(line).is_ok()
                })
                .count()
        });
        if decoded != lines.len() {
            return Err("in-process decode rejected an encoded line".to_string());
        }
        Ok(Replayed {
            call_ms,
            resolve_ms,
            handle_ms,
            sweep_ms,
            top_k_ms,
            pareto_ms,
            encode_ms,
            decode_ms,
            resp_bytes: lines.iter().map(|l| l.len() as f64 + 1.0).sum(),
        })
    }
}

/// What one connection saw.
#[derive(Default)]
struct ConnectionLog {
    untraced_ms: Vec<f64>,
    traced_ms: Vec<f64>,
    issued: Vec<(Duration, Query)>,
    replays: Vec<Replayed>,
    busy_retries: u64,
    attempted: u64,
    failures: Vec<String>,
}

/// Shared, read-only state of the closed loop.
struct Loop<'a> {
    config: &'a Config,
    server: &'a Server,
    specs: &'a [SpaceSpec],
    refs: &'a [Reference],
    sizes: Vec<usize>,
    tracer: &'a Tracer,
    layers: Option<&'a Layers>,
    started: Instant,
}

impl Loop<'_> {
    fn connection(&self, connection: usize) -> ConnectionLog {
        let mut log = ConnectionLog::default();
        let mut client = match self.server.connect() {
            Ok(client) => client,
            Err(e) => {
                log.attempted += 1;
                log.failures.push(e);
                return log;
            }
        };
        let mut stream = RequestStream::new(
            self.config.seed,
            connection,
            explore(self.config),
            self.sizes.clone(),
        );
        let policy = RetryPolicy::backoff_ms(1, 250);
        let half = self.config.seconds / 2;
        let mut n = 0u64;
        while self.started.elapsed() < self.config.seconds {
            n += 1;
            let id = (connection as u64) << 32 | n;
            let query = stream.next();
            let request = query.request(self.specs);
            // The traced run measures its first half untraced, so the
            // tracing overhead is the difference of the two halves.
            let traced = self.layers.is_some() && self.started.elapsed() >= half;
            log.issued.push((self.started.elapsed(), query.clone()));
            log.attempted += 1;
            let span = traced.then(|| self.tracer.begin("serve.client.call", id, None));
            let sent = Instant::now();
            let outcome = client.call_with_retry(&request, &policy, id);
            let call_ms = sent.elapsed().as_secs_f64() * 1e3;
            if let Some(span) = span {
                self.tracer.end(span);
            }
            let checked = match outcome {
                Err(e) => Err(format!("{query:?}: {e}")),
                Ok(outcome) => {
                    log.busy_retries += outcome.busy_retries;
                    if outcome.exhausted {
                        Err(format!("{query:?}: still busy after {} retries", outcome.busy_retries))
                    } else {
                        verify(&query, outcome.responses, self.refs)
                    }
                }
            };
            if let Err(why) = checked {
                log.failures.push(why);
                continue;
            }
            if traced {
                log.traced_ms.push(call_ms);
                let layers = self.layers.expect("traced");
                log.attempted += 1;
                match layers.replay(
                    self.tracer,
                    id,
                    &query,
                    &request,
                    &self.specs[query.space()],
                    call_ms,
                ) {
                    Ok(replayed) => log.replays.push(replayed),
                    Err(why) => log.failures.push(why),
                }
            } else {
                log.untraced_ms.push(call_ms);
            }
        }
        log
    }
}

/// Share of requested scenarios that an earlier request of the run already
/// asked for (scenario identity is the engine's canonical key, so equal
/// scenarios of different pool spaces count as repeats).
fn repeat_share(spaces: &[ScenarioSpace], mut issued: Vec<(Duration, Query)>) -> f64 {
    issued.sort_by_key(|(at, _)| *at);
    let mut requested = 0u64;
    let mut repeats = 0u64;
    let mut seen_index = vec![false; spaces[0].len()];
    let mut touched = vec![false; spaces.len()];
    let mut seen_keys: HashSet<(u64, u64)> = HashSet::new();
    for (_, query) in issued {
        match query {
            Query::Sweep { range, .. } => {
                requested += range.len() as u64;
                for seen in &mut seen_index[range] {
                    repeats += *seen as u64;
                    *seen = true;
                }
            }
            Query::TopK { space } | Query::Pareto { space, .. } => {
                let n = spaces[space].len();
                requested += n as u64;
                if touched[space] {
                    repeats += n as u64;
                    continue;
                }
                touched[space] = true;
                for i in 0..n {
                    if !seen_keys.insert(spaces[space].scenario(i).canonical_key("")) {
                        repeats += 1;
                    }
                }
            }
        }
    }
    repeats as f64 / requested.max(1) as f64
}

/// Spawn, make ready, prepare and warm one server; returns it with the
/// space specs requests address.
fn set_up(
    config: &Config,
    spaces: &[ScenarioSpace],
    refs: &[Reference],
) -> Result<(Server, Vec<SpaceSpec>), String> {
    let server = Server::spawn(&config.repro, &[])?;
    let mut client = server.connect()?;
    client.ping().map_err(|e| format!("ping: {e}"))?;
    if explore(config) {
        return Ok((server, spaces.iter().cloned().map(SpaceSpec::Explicit).collect()));
    }
    let (id, scenarios) = client.prepare(&spaces[0]).map_err(|e| format!("prepare: {e}"))?;
    if scenarios != spaces[0].len() {
        return Err(format!("prepared {scenarios} of {} scenarios", spaces[0].len()));
    }
    let specs = vec![SpaceSpec::Prepared { id }];
    let warm = Query::Sweep { space: 0, range: 0..spaces[0].len() };
    let responses = client.call(warm.request(&specs)).map_err(|e| format!("warm-up: {e}"))?;
    verify(&warm, responses, refs)?;
    Ok((server, specs))
}

/// Run the workload.
pub fn run(config: &Config, tracer: &Tracer, outcome: &mut Outcome) -> Result<(), String> {
    let spaces = spaces(config, config.seed);
    let refs: Vec<Reference> = spaces.iter().map(|s| reference(s, !explore(config))).collect();
    let sizes: Vec<usize> = spaces.iter().map(ScenarioSpace::len).collect();
    outcome.note(format!(
        "{} space(s) of {}..{} scenarios, {CONNECTIONS} connections, closed loop",
        spaces.len(),
        sizes.iter().min().unwrap_or(&0),
        sizes.iter().max().unwrap_or(&0)
    ));

    // Set-up runs SETUPS times on fresh servers; the last one serves the run,
    // so one server process carries every measured request and its metrics.
    let mut kept = None;
    for i in 0..SETUPS {
        let started = Instant::now();
        let (server, specs) = set_up(config, &spaces, &refs)?;
        outcome.setups_s.push(started.elapsed().as_secs_f64());
        if i + 1 < SETUPS {
            outcome.record(server.shutdown());
        } else {
            kept = Some((server, specs));
        }
    }
    let (server, specs) = kept.expect("set up");
    let layers = config.trace.then(Layers::new);
    if let Some(layers) = &layers {
        if !explore(config) {
            layers
                .service
                .prepare_spec(&SpaceSpec::Explicit(spaces[0].clone()))
                .map_err(|e| e.message)?;
        }
    }

    let mut control = server.connect()?;
    let before = Scrape::fetch(&mut control)?;
    let started = Instant::now();
    let shared = Loop {
        config,
        server: &server,
        specs: &specs,
        refs: &refs,
        sizes,
        tracer,
        layers: layers.as_ref(),
        started,
    };
    let logs: Vec<ConnectionLog> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                let shared = &shared;
                scope.spawn(move || shared.connection(c))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("connection thread")).collect()
    });
    outcome.elapsed_s = started.elapsed().as_secs_f64();
    let delta = Scrape::fetch(&mut control)?.delta(&before);
    let entries = control.stats().map_err(|e| format!("stats: {e}"))?.cache_totals().entries;
    drop(control);
    if let Some(exit) = outcome.record(server.shutdown()) {
        outcome.rss(exit.peak_rss_mb);
    }

    let mut issued = Vec::new();
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let mut replays = Vec::new();
    let mut busy_retries = 0;
    for log in logs {
        let failed = log.failures.len() as u64;
        for why in log.failures {
            outcome.check(false, || why);
        }
        for _ in 0..log.attempted.saturating_sub(failed) {
            outcome.check(true, String::new);
        }
        issued.extend(log.issued);
        untraced.extend(log.untraced_ms);
        traced.extend(log.traced_ms);
        replays.extend(log.replays);
        busy_retries += log.busy_retries;
    }
    outcome.latencies_ms = untraced.iter().chain(traced.iter()).copied().collect();
    let repeat = repeat_share(&spaces, issued);
    outcome.note(format!(
        "repeat_share: {repeat:.4} of requested scenarios were requested earlier in the run"
    ));

    if config.trace {
        let mean = |f: &dyn Fn(&Replayed) -> Option<f64>| {
            let values: Vec<f64> = replays.iter().filter_map(f).collect();
            if values.is_empty() {
                0.0
            } else {
                values.iter().sum::<f64>() / values.len() as f64
            }
        };
        let hits = delta.counter("cache_hits");
        let misses = delta.counter("cache_misses");
        outcome.layer("serve.protocol.encode_ms", mean(&|r| Some(r.encode_ms)));
        outcome.layer("serve.protocol.decode_ms", mean(&|r| Some(r.decode_ms)));
        outcome.layer("serve.protocol.resp_kb", mean(&|r| Some(r.resp_bytes / 1024.0)));
        outcome.layer("serve.service.handle_ms", mean(&|r| Some(r.handle_ms)));
        outcome.layer("serve.service.resolve_ms", mean(&|r| Some(r.resolve_ms)));
        outcome.layer(
            "serve.transport_ms",
            mean(&|r| Some(r.call_ms - r.handle_ms - r.encode_ms - r.decode_ms)),
        );
        outcome.layer("dse.engine.sweep_ms", mean(&|r| Some(r.sweep_ms)));
        outcome.layer("dse.analysis.top_k_ms", mean(&|r| r.top_k_ms));
        outcome.layer("dse.analysis.pareto_ms", mean(&|r| r.pareto_ms));
        outcome.layer("dse.engine.scenarios", delta.counter("dse_scenarios_evaluated"));
        outcome.layer("dse.cache.entries", entries as f64);
        outcome.layer("dse.cache.hits", hits);
        outcome.layer("dse.cache.misses", misses);
        outcome.layer("dse.cache.inserts", delta.counter("cache_inserts"));
        outcome.layer("dse.cache.hit_ratio", hits / (hits + misses).max(1.0));
        outcome.layer("serve.queue_wait_ms", delta.mean_ms("serve_queue_wait_ms"));
        outcome.layer("serve.merge_ms", delta.mean_ms("planner_merge_ms"));
        outcome.layer("serve.sched.units", delta.counter("sched_units_total"));
        outcome.layer("serve.sched.stolen", delta.counter("sched_units_stolen"));
        outcome.layer("serve.sched.rebands", delta.counter("sched_rebands"));
        outcome.layer("serve.sched.shard_busy_ms", delta.mean_ms("sched_shard_busy_ms"));
        outcome.layer("serve.planner.coalesced", delta.counter("planner_coalesced_requests"));
        outcome.layer("serve.planner.busy_rejections", delta.counter("busy_rejections"));
        outcome.layer("serve.planner.cost_rejections", delta.counter("planner_cost_rejections"));
        outcome.layer("serve.client.busy_retries", busy_retries as f64);
        outcome.layer("bench.trace_overhead_ms", median(&traced) - median(&untraced));
        outcome.note(format!(
            "tracing overhead: traced p50 {:.3} ms ({} requests) - untraced p50 {:.3} ms ({} requests)",
            median(&traced),
            traced.len(),
            median(&untraced),
            untraced.len()
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_keep_their_verb_mix_and_stay_in_bounds() {
        let mut sweep = RequestStream::new(5, 0, false, vec![6352]);
        let queries: Vec<Query> = (0..400).map(|_| sweep.next()).collect();
        let full = queries
            .iter()
            .filter(|q| matches!(q, Query::Sweep { range, .. } if range.len() == 6352))
            .count();
        assert_eq!(full, 100);
        assert!(queries.iter().all(
            |q| matches!(q, Query::Sweep { range, .. } if range.end <= 6352 && !range.is_empty())
        ));
        let mut explore = RequestStream::new(5, 1, true, vec![10; 64]);
        let queries: Vec<Query> = (0..400).map(|_| explore.next()).collect();
        assert_eq!(queries.iter().filter(|q| matches!(q, Query::TopK { .. })).count(), 200);
        assert!(queries.iter().all(|q| q.space() < 64));
    }

    #[test]
    fn explore_pool_is_seeded_and_sized() {
        let a = explore_pool(1, false);
        assert_eq!(a.len(), 64);
        assert!(
            a.iter().all(|s| (9_000..11_000).contains(&s.len())),
            "{:?}",
            a.iter().map(|s| s.len()).collect::<Vec<_>>()
        );
        let b = explore_pool(1, false);
        let c = explore_pool(2, false);
        let fp = |pool: &[ScenarioSpace]| {
            pool.iter().map(mp_dse::engine::space_fingerprint).collect::<Vec<_>>()
        };
        assert_eq!(fp(&a), fp(&b));
        assert_ne!(fp(&a), fp(&c));
    }

    #[test]
    fn repeat_share_counts_earlier_requests() {
        let space =
            ScenarioSpace::new().clear_designs().add_symmetric_grid((0..8).map(|i| 1.0 + i as f64));
        let at = Duration::from_millis;
        let issued = vec![
            (at(1), Query::Sweep { space: 0, range: 0..4 }),
            (at(2), Query::Sweep { space: 0, range: 2..6 }),
        ];
        assert_eq!(repeat_share(std::slice::from_ref(&space), issued), 2.0 / 8.0);
        let issued = vec![(at(2), Query::TopK { space: 1 }), (at(1), Query::TopK { space: 0 })];
        assert_eq!(repeat_share(&[space.clone(), space], issued), 0.5);
    }
}
