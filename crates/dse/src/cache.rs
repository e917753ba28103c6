//! Lock-free, sharded, memoising evaluation cache.
//!
//! Keys are the 128-bit canonical scenario fingerprints of
//! [`crate::scenario::Scenario::canonical_key`]; values are the raw bit
//! patterns of the evaluated speedup, so cached and uncached sweeps are
//! **bit-identical** by construction (`NaN` markers for invalid scenarios
//! round-trip too).
//!
//! ## Structure
//!
//! The cache is split into a fixed number of shards selected by the key's
//! low bits.
//! Each shard is an **open-addressed table of atomic slots** (state word,
//! two key words, one value word): probes and inserts are plain atomic loads
//! and one CAS — no locks, no per-probe allocation — so the worker threads of
//! a parallel sweep never serialise on the cache. This replaces the previous
//! `Vec<Mutex<HashMap>>`, whose per-probe lock was the last piece of
//! cross-thread synchronisation on the sweep hot path.
//!
//! ## Growth
//!
//! Each shard grows independently: when its table passes a ¾ load factor,
//! the inserting thread takes the shard's (cold-path) grow lock, publishes a
//! double-size table, waits for in-flight writers to drain, and migrates the
//! old entries. Readers are never blocked — at worst a probe against the old
//! table reports a miss and the scenario is recomputed, which is harmless
//! because every cached value is a deterministic function of its key.
//! [`EvalCache::reserve`] pre-sizes all shards so a sweep of known size (the
//! engine reserves `space.len()` up front) never grows mid-run. Retired
//! tables are kept until the cache is dropped, so concurrent readers can
//! finish probing them safely; total retired memory is bounded by the final
//! table size (geometric series).
//!
//! The cache persists in one of two formats. The length-prefixed,
//! CRC-guarded binary **segment** ([`EvalCache::save_segment`] /
//! [`EvalCache::load_segment`]) is the one the program uses: `repro dse`
//! warm-starts from `cache-<backend>.seg`, and durable sweep jobs spill
//! their checkpoints in it. A 214k-entry segment is ~5 MB and saves or
//! reloads in tens of milliseconds. The older JSON form
//! ([`EvalCache::save_json`] / [`EvalCache::load_json`], hex-encoded keys and
//! value bits) re-parses hex strings and costs several times that; it is
//! kept for external tools and tests, and no command writes it any more.
//! Both loaders validate the whole document before inserting anything and
//! report a typed [`CacheLoadError`]; a corrupt or torn file degrades to a
//! cold cache, never a panic or a half-populated table.

use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use mp_obs::metrics::Counter;

/// Process-wide cache metrics in the global mp-obs registry, mirroring the
/// per-instance counters across every live cache. Only cold/bulk paths
/// touch them (migrations, inserts); per-probe traffic is mirrored at batch
/// granularity by the engine.
fn obs_inserts() -> &'static Counter {
    static CELL: OnceLock<Arc<Counter>> = OnceLock::new();
    CELL.get_or_init(|| mp_obs::counter("cache_inserts"))
}

fn obs_migrations() -> &'static Counter {
    static CELL: OnceLock<Arc<Counter>> = OnceLock::new();
    CELL.get_or_init(|| mp_obs::counter("cache_migrations"))
}

/// Number of independent shards (power of two). Shards only gate the cold
/// grow/migrate paths — probes and inserts are per-slot atomics — so the
/// count is chosen for *reserve* behaviour: fewer, larger shards keep the
/// relative hash imbalance between shards small (√n̄/n̄), which lets `reserve`
/// run the tables denser without any shard outgrowing its slack mid-sweep.
const SHARDS: usize = 32;

/// Initial slot count per shard (power of two). [`SHARDS`] × 64 slots ≈ 2k
/// slots before any growth; `reserve` raises this for real sweeps.
const INITIAL_SLOTS: usize = 64;

/// Slot states.
const EMPTY: u8 = 0;
const BUSY: u8 = 1;
const FULL: u8 = 2;

/// One open-addressed slot: a state word guarding two key words and a value.
struct Slot {
    state: AtomicU8,
    k0: AtomicU64,
    k1: AtomicU64,
    value: AtomicU64,
}

/// Outcome of one table-level insert attempt.
enum InsertOutcome {
    /// A fresh slot was claimed; the table now holds `len` entries.
    Inserted { len: usize },
    /// The key already existed; its value was overwritten (values are
    /// deterministic per key, so this is a no-op bit-wise in normal use).
    Updated,
    /// No free slot within the probe budget: the table must grow.
    TableFull,
}

/// A fixed-capacity open-addressed table. Never grows in place; a full table
/// is replaced wholesale by the owning shard.
struct Table {
    mask: usize,
    len: AtomicUsize,
    slots: Box<[Slot]>,
}

impl Table {
    fn with_capacity(capacity: usize) -> Box<Table> {
        debug_assert!(capacity.is_power_of_two());
        // The all-zero byte pattern is exactly a table of EMPTY slots, so the
        // slot array comes from `alloc_zeroed`: for the multi-megabyte tables
        // a reserved sweep uses, the kernel's lazily-mapped zero pages make
        // this near-free instead of a full init write pass.
        let slots: Box<[Slot]> = unsafe {
            let layout = std::alloc::Layout::array::<Slot>(capacity).expect("table layout");
            let ptr = std::alloc::alloc_zeroed(layout) as *mut Slot;
            assert!(!ptr.is_null(), "cache table allocation failed");
            crate::mem::advise_huge_pages(ptr, layout.size());
            Box::from_raw(std::ptr::slice_from_raw_parts_mut(ptr, capacity))
        };
        Box::new(Table { mask: capacity - 1, len: AtomicUsize::new(0), slots })
    }

    fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// The load-factor ceiling: grow once the table holds more than ⅞ of its
    /// capacity. Linear probing at ⅞ load averages a handful of adjacent
    /// slots per probe — cheap, since consecutive slots share cachelines —
    /// while the denser table halves the memory footprint (and first-touch
    /// fault count) of a reserved sweep compared to a ¾ ceiling.
    fn threshold(&self) -> usize {
        self.capacity() - self.capacity() / 8
    }

    /// Slot index of the first probe. The shard was selected by `key.0`'s low
    /// bits, so the in-shard position uses the independent second stream.
    fn home(&self, key: (u64, u64)) -> usize {
        (key.1 as usize) & self.mask
    }

    /// Probe for `key`; `Some(bits)` when present and fully published.
    fn probe(&self, key: (u64, u64)) -> Option<u64> {
        let mut index = self.home(key);
        for _ in 0..self.capacity() {
            let slot = &self.slots[index];
            match slot.state.load(Ordering::Acquire) {
                EMPTY => return None,
                FULL if slot.k0.load(Ordering::Relaxed) == key.0
                    && slot.k1.load(Ordering::Relaxed) == key.1 =>
                {
                    return Some(slot.value.load(Ordering::Relaxed));
                }
                // Other key, or BUSY — a writer mid-publish: treat as
                // occupied-by-unknown and keep probing. If a busy slot held
                // our key, the caller simply recomputes a deterministic
                // value.
                _ => {}
            }
            index = (index + 1) & self.mask;
        }
        None
    }

    /// Insert or overwrite `key`, publishing the `FULL` state with `publish`
    /// ordering. The optimistic insert protocol (see [`Shard::insert`])
    /// requires the publication to be ordered before the post-insert check
    /// of the shard's migration flag: single inserts publish `SeqCst`,
    /// batched inserts publish `Release` and order the whole batch with one
    /// trailing `SeqCst` fence.
    fn insert(&self, key: (u64, u64), bits: u64, publish: Ordering) -> InsertOutcome {
        let mut index = self.home(key);
        for _ in 0..self.capacity() {
            let slot = &self.slots[index];
            match slot.state.compare_exchange(EMPTY, BUSY, Ordering::Acquire, Ordering::Acquire) {
                Ok(_) => {
                    // Claimed a fresh slot: publish key and value, then flip
                    // to FULL so readers (Acquire on state) see them.
                    slot.k0.store(key.0, Ordering::Relaxed);
                    slot.k1.store(key.1, Ordering::Relaxed);
                    slot.value.store(bits, Ordering::Relaxed);
                    slot.state.store(FULL, publish);
                    let len = self.len.fetch_add(1, Ordering::Relaxed) + 1;
                    return InsertOutcome::Inserted { len };
                }
                Err(mut state) => {
                    // Someone owns this slot. Wait out a concurrent publish
                    // (a handful of stores), then match on the key.
                    while state == BUSY {
                        std::hint::spin_loop();
                        state = slot.state.load(Ordering::Acquire);
                    }
                    if slot.k0.load(Ordering::Relaxed) == key.0
                        && slot.k1.load(Ordering::Relaxed) == key.1
                    {
                        slot.value.store(bits, Ordering::Relaxed);
                        return InsertOutcome::Updated;
                    }
                }
            }
            index = (index + 1) & self.mask;
        }
        InsertOutcome::TableFull
    }

    /// Snapshot every published entry. `SeqCst` state loads so a migration
    /// scan sequenced after the `migrating` flag store observes every
    /// publication that was `SeqCst`-ordered before the flag (writers whose
    /// publication came later re-insert themselves instead).
    fn entries(&self) -> impl Iterator<Item = ((u64, u64), u64)> + '_ {
        self.slots.iter().filter(|s| s.state.load(Ordering::SeqCst) == FULL).map(|s| {
            (
                (s.k0.load(Ordering::Relaxed), s.k1.load(Ordering::Relaxed)),
                s.value.load(Ordering::Relaxed),
            )
        })
    }
}

/// One shard: the live table, a `migrating` flag gating writers during
/// migration, and the cold-path grow lock holding retired tables.
struct Shard {
    current: AtomicPtr<Table>,
    /// Set while a migration is in flight. Writers insert *optimistically*
    /// (no registration) and re-check this flag plus the table pointer after
    /// publishing: a publication the migration scan could have missed is
    /// always followed by a re-check that observes the flag or the swapped
    /// pointer, and that writer re-inserts into the live table. Readers
    /// never check the flag: probes stay lock-free and a racy miss merely
    /// recomputes a deterministic value.
    migrating: AtomicBool,
    grow: Mutex<Vec<*mut Table>>,
    /// Completed table migrations (growth events) of this shard.
    migrations: AtomicU64,
}

impl Shard {
    fn new() -> Self {
        Shard {
            current: AtomicPtr::new(Box::into_raw(Table::with_capacity(INITIAL_SLOTS))),
            migrating: AtomicBool::new(false),
            grow: Mutex::new(Vec::new()),
            migrations: AtomicU64::new(0),
        }
    }

    /// The live table. Safe because tables are only retired, never freed,
    /// while the cache is alive.
    fn table(&self) -> &Table {
        unsafe { &*self.current.load(Ordering::Acquire) }
    }

    fn insert(&self, key: (u64, u64), bits: u64) {
        loop {
            while self.migrating.load(Ordering::Acquire) {
                std::hint::spin_loop();
            }
            let table_ptr = self.current.load(Ordering::SeqCst);
            let table = unsafe { &*table_ptr };
            let outcome = table.insert(key, bits, Ordering::SeqCst);
            // Post-publication check, `SeqCst` like the publication: either
            // the publication is ordered before a concurrent migration's
            // flag store — then the migration scan (`SeqCst` loads,
            // sequenced after that store) sees the entry and copies it — or
            // this load observes the flag / the swapped pointer and the
            // insert retries against the live table. No entry is lost either
            // way.
            if self.migrating.load(Ordering::SeqCst)
                || self.current.load(Ordering::SeqCst) != table_ptr
            {
                continue;
            }
            match outcome {
                InsertOutcome::Inserted { len } if len > table.threshold() => {
                    self.grow_to(table.capacity() * 2);
                    return;
                }
                InsertOutcome::Inserted { .. } | InsertOutcome::Updated => return,
                InsertOutcome::TableFull => {
                    self.grow_to(table.capacity() * 2);
                    // Retry against the (possibly freshly grown) table.
                }
            }
        }
    }

    /// Replace the live table with one of at least `capacity` slots,
    /// migrating every entry. No-op if the live table is already big enough
    /// (e.g. a racing grower got there first).
    fn grow_to(&self, capacity: usize) {
        let capacity = capacity.next_power_of_two();
        let mut retired = self.grow.lock();
        let old_ptr = self.current.load(Ordering::SeqCst);
        let old = unsafe { &*old_ptr };
        if old.capacity() >= capacity {
            return;
        }
        // Gate new writers out, then copy. Writers whose publication raced
        // the flag re-insert themselves (see `insert`), so the scan below
        // may miss them; everything it does see lands in the new table,
        // which — at least double the old capacity and filled by no one
        // else — cannot overflow. Racing re-inserts spin on the flag and
        // land in the new table after the swap.
        self.migrating.store(true, Ordering::SeqCst);
        let new_ptr = Box::into_raw(Table::with_capacity(capacity));
        let new = unsafe { &*new_ptr };
        for (key, bits) in old.entries() {
            if matches!(new.insert(key, bits, Ordering::Release), InsertOutcome::TableFull) {
                unreachable!("migration target cannot fill up");
            }
        }
        self.current.store(new_ptr, Ordering::SeqCst);
        self.migrating.store(false, Ordering::SeqCst);
        retired.push(old_ptr);
        self.migrations.fetch_add(1, Ordering::Relaxed);
        obs_migrations().inc();
    }
}

// SAFETY: the raw table pointers are only created from `Box::into_raw`, only
// freed in `Drop`, and all shared access goes through atomics.
unsafe impl Send for Shard {}
unsafe impl Sync for Shard {}

/// A sharded, lock-free memoisation cache for scenario evaluations.
pub struct EvalCache {
    shards: Vec<Shard>,
    hits: AtomicU64,
    misses: AtomicU64,
    /// Misses recorded without a probe (the engine's cold-start bypass).
    bypassed: AtomicU64,
    inserts: AtomicU64,
}

/// Snapshot of a cache's warm-start state — see [`EvalCache::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct CacheStats {
    /// Entries currently cached.
    pub entries: usize,
    /// Total slot capacity across all shards.
    pub capacity: usize,
    /// Probes answered from the cache since construction / the last reset.
    pub hits: u64,
    /// Probes that missed since construction / the last reset.
    pub misses: u64,
    /// Slot probes actually performed (`hits + misses` minus the cold-start
    /// bypassed lookups, which are counted as misses but never walk a table).
    pub probes: u64,
    /// Entries stored (single and batched) since construction / the last
    /// reset.
    pub inserts: u64,
    /// Shard-table migrations (growth events) since construction.
    pub migrations: u64,
}

impl CacheStats {
    /// Fraction of probes answered from the cache (`0.0` when unprobed).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

impl Default for EvalCache {
    fn default() -> Self {
        EvalCache::new()
    }
}

impl Drop for EvalCache {
    fn drop(&mut self) {
        for shard in &self.shards {
            let current = shard.current.load(Ordering::Relaxed);
            drop(unsafe { Box::from_raw(current) });
            for &retired in shard.grow.lock().iter() {
                drop(unsafe { Box::from_raw(retired) });
            }
        }
    }
}

impl std::fmt::Debug for EvalCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EvalCache")
            .field("entries", &self.len())
            .field("capacity", &self.capacity())
            .field("hits", &self.hits())
            .field("misses", &self.misses())
            .finish()
    }
}

impl EvalCache {
    /// An empty cache.
    pub fn new() -> Self {
        // Touch the registry-backed counters now: their first use allocates
        // (registry entry + Arc), and the probe/insert paths are covered by
        // a zero-allocation acceptance test.
        obs_inserts();
        obs_migrations();
        EvalCache {
            shards: (0..SHARDS).map(|_| Shard::new()).collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            bypassed: AtomicU64::new(0),
            inserts: AtomicU64::new(0),
        }
    }

    /// An empty cache pre-sized for `entries` entries.
    pub fn with_capacity(entries: usize) -> Self {
        let cache = EvalCache::new();
        cache.reserve(entries);
        cache
    }

    fn shard(&self, key: (u64, u64)) -> &Shard {
        &self.shards[(key.0 as usize) & (SHARDS - 1)]
    }

    /// Pre-size every shard so `entries` total entries fit without growing:
    /// large sweeps reserve their scenario count up front and the hot loop
    /// then never migrates a table mid-run.
    pub fn reserve(&self, entries: usize) {
        let per_shard = entries.div_ceil(SHARDS);
        // FNV-sharded keys spread binomially, so a shard can exceed the mean
        // by a few standard deviations; four of them (plus a small constant
        // for tiny reservations) makes mid-sweep growth vanishingly unlikely
        // without doubling the tables for it.
        let target = per_shard + 4 * (per_shard as f64).sqrt() as usize + 8;
        let mut capacity = INITIAL_SLOTS.max(target.next_power_of_two());
        while capacity - capacity / 8 < target {
            capacity *= 2;
        }
        for shard in &self.shards {
            if shard.table().capacity() < capacity {
                shard.grow_to(capacity);
            }
        }
    }

    /// Total slot capacity across all shards.
    pub fn capacity(&self) -> usize {
        self.shards.iter().map(|s| s.table().capacity()).sum()
    }

    /// Touch the home slot of every key with a plain load. Independent loads
    /// pipeline through the memory system (unlike the locked operations of
    /// `insert`, which drain the store buffer and serialise their cache
    /// misses), so warming a whole batch's cachelines first and then
    /// probing/inserting against L2 is several times faster than paying one
    /// serialised DRAM round-trip per key. A batch of ~1k keys touches ~64
    /// KiB — comfortably cache-resident.
    pub fn prefetch(&self, keys: &[(u64, u64)]) {
        for &key in keys {
            let table = self.shard(key).table();
            let slot = &table.slots[table.home(key)];
            prefetch_slot(slot);
        }
    }

    /// Probe a whole batch: hits fill `speedups`, misses mark `holes`
    /// (slots whose key is absent are left untouched otherwise). Returns the
    /// number of misses. Equivalent to [`EvalCache::prefetch`] followed by a
    /// per-key [`EvalCache::get`] loop — same probes, same hit/miss counting
    /// — but the home slot of the key `PROBE_AHEAD` positions ahead is
    /// prefetched each step, so the dependent probe walk overlaps its memory
    /// traffic instead of serialising one cache-line fetch per key. Panics
    /// if the slices differ in length.
    pub fn get_batch(
        &self,
        keys: &[(u64, u64)],
        speedups: &mut [f64],
        holes: &mut [bool],
    ) -> usize {
        assert_eq!(keys.len(), speedups.len(), "one speedup slot per key");
        assert_eq!(keys.len(), holes.len(), "one hole flag per key");
        /// How far ahead of the probe walk the pipeline warms cachelines:
        /// far enough to cover a DRAM round-trip at a few cycles per probe,
        /// near enough that the warmed lines survive until their turn.
        const PROBE_AHEAD: usize = 16;
        let mut missing = 0usize;
        for i in 0..keys.len() {
            if let Some(&ahead) = keys.get(i + PROBE_AHEAD) {
                let table = self.shard(ahead).table();
                prefetch_slot(&table.slots[table.home(ahead)]);
            }
            match self.get(keys[i]) {
                Some(speedup) => speedups[i] = speedup,
                None => {
                    holes[i] = true;
                    missing += 1;
                }
            }
        }
        missing
    }

    /// Look up a cached speedup, counting the probe as a hit or miss.
    pub fn get(&self, key: (u64, u64)) -> Option<f64> {
        match self.shard(key).table().probe(key) {
            Some(bits) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(f64::from_bits(bits))
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Look up a cached speedup without touching the hit/miss counters.
    /// Used for internal re-probes (a batch re-checking its own first-probe
    /// holes), which would otherwise double-count and skew the statistics.
    pub fn peek(&self, key: (u64, u64)) -> Option<f64> {
        self.shard(key).table().probe(key).map(f64::from_bits)
    }

    /// Store an evaluated speedup (bit pattern preserved, NaNs included).
    pub fn insert(&self, key: (u64, u64), speedup: f64) {
        self.inserts.fetch_add(1, Ordering::Relaxed);
        obs_inserts().inc();
        self.shard(key).insert(key, speedup.to_bits());
    }

    /// Store a batch of evaluated speedups. Equivalent to calling
    /// [`EvalCache::insert`] per entry, but the publications are `Release`
    /// with **one** trailing `SeqCst` fence ordering the whole batch against
    /// concurrent shard migrations — on the sweep's cold back-fill path this
    /// replaces a full fence per scenario with one per batch. Panics if the
    /// slices differ in length.
    pub fn insert_batch(&self, keys: &[(u64, u64)], speedups: &[f64]) {
        assert_eq!(keys.len(), speedups.len(), "one speedup per key");
        self.inserts.fetch_add(keys.len() as u64, Ordering::Relaxed);
        obs_inserts().add(keys.len() as u64);
        self.prefetch(keys);
        // The table pointer each shard's inserts went through (null =
        // untouched). If the post-fence check finds a shard migrated (or
        // migrating) since, its keys are re-inserted through the fully
        // fenced single path — idempotent, values are deterministic per key.
        let mut seen: [*mut Table; SHARDS] = [std::ptr::null_mut(); SHARDS];
        for (&key, &speedup) in keys.iter().zip(speedups) {
            let index = (key.0 as usize) & (SHARDS - 1);
            let shard = &self.shards[index];
            if shard.migrating.load(Ordering::Acquire) {
                // Rare: fall back to the single path, which parks and
                // retries; the shard still gets a post-fence check below
                // for any earlier unfenced inserts.
                shard.insert(key, speedup.to_bits());
                continue;
            }
            let table_ptr = shard.current.load(Ordering::Acquire);
            if seen[index].is_null() {
                seen[index] = table_ptr;
            }
            // Keep the *earliest* observed pointer in `seen`: if the shard
            // migrates between two inserts of this batch, the final check
            // sees the mismatch and replays the shard's keys.
            let table = unsafe { &*table_ptr };
            match table.insert(key, speedup.to_bits(), Ordering::Release) {
                InsertOutcome::Inserted { len } if len > table.threshold() => {
                    shard.grow_to(table.capacity() * 2);
                }
                InsertOutcome::Inserted { .. } | InsertOutcome::Updated => {}
                InsertOutcome::TableFull => shard.insert(key, speedup.to_bits()),
            }
        }
        std::sync::atomic::fence(Ordering::SeqCst);
        for (index, &table_ptr) in seen.iter().enumerate() {
            if table_ptr.is_null() {
                continue;
            }
            let shard = &self.shards[index];
            if shard.migrating.load(Ordering::SeqCst)
                || shard.current.load(Ordering::SeqCst) != table_ptr
            {
                for (&key, &speedup) in keys.iter().zip(speedups) {
                    if (key.0 as usize) & (SHARDS - 1) == index {
                        shard.insert(key, speedup.to_bits());
                    }
                }
            }
        }
    }

    /// Number of cached entries (exact while no inserts are in flight).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.table().entries().count()).sum()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Probes answered from the cache since construction / the last reset.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Probes that missed since construction / the last reset.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Record `n` misses whose probes were skipped: the engine's cold-start
    /// path evaluates straight away when the cache starts empty (every probe
    /// would miss), so it reports the bypassed probes here — otherwise the
    /// hit-rate a service derives from these counters would ignore exactly
    /// the sweeps that filled the cache.
    pub fn record_bypassed_misses(&self, n: u64) {
        self.misses.fetch_add(n, Ordering::Relaxed);
        self.bypassed.fetch_add(n, Ordering::Relaxed);
    }

    /// Slot probes actually performed: every [`EvalCache::get`] call, i.e.
    /// `hits + misses` minus the bypassed cold-start misses (which are
    /// counted as misses without walking a table).
    pub fn probes(&self) -> u64 {
        (self.hits() + self.misses()).saturating_sub(self.bypassed.load(Ordering::Relaxed))
    }

    /// Entries stored (single and batched) since construction / the last
    /// reset. Counts insert *calls*; overwrites of duplicate keys are not
    /// distinguished.
    pub fn inserts(&self) -> u64 {
        self.inserts.load(Ordering::Relaxed)
    }

    /// Completed shard-table migrations (growth events) since construction.
    pub fn migrations(&self) -> u64 {
        self.shards.iter().map(|s| s.migrations.load(Ordering::Relaxed)).sum()
    }

    /// Reset the hit/miss/probe/insert counters (entries — and the
    /// structural migration count — are kept).
    pub fn reset_counters(&self) {
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
        self.bypassed.store(0, Ordering::Relaxed);
        self.inserts.store(0, Ordering::Relaxed);
    }

    /// One consistent-enough snapshot of the cache's warm-start state:
    /// entry/capacity footprint plus the lifetime hit/miss counters. Cheap to
    /// take (one table walk) and safe concurrently with inserts — counts may
    /// lag in-flight writers by a few entries, which is fine for the service
    /// stats and hit-rate reporting this feeds.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            entries: self.len(),
            capacity: self.capacity(),
            hits: self.hits(),
            misses: self.misses(),
            probes: self.probes(),
            inserts: self.inserts(),
            migrations: self.migrations(),
        }
    }

    /// The version tag stamped into persisted caches: the mp-dse crate
    /// version. Bumping the workspace version invalidates every persisted
    /// cache, so stale files cannot replay results an older build produced.
    pub fn format_version() -> String {
        format!("mp-dse-cache/{}", env!("CARGO_PKG_VERSION"))
    }

    /// Serialise every entry as JSON: a `[version, entries]` pair where the
    /// entries are `[key_hi, key_lo, value_bits]` hex-string triplets (hex so
    /// no `f64` precision is lost in transit).
    ///
    /// `repro dse` no longer persists this form: it writes the binary
    /// [`EvalCache::save_segment`], which carries the same entries at a
    /// fraction of the cost. The JSON form stays for external tools and
    /// tests that read or compare it.
    pub fn save_json(&self) -> String {
        let mut entries: Vec<(String, String, String)> = Vec::with_capacity(self.len());
        for shard in &self.shards {
            for ((hi, lo), bits) in shard.table().entries() {
                entries.push((format!("{hi:016x}"), format!("{lo:016x}"), format!("{bits:016x}")));
            }
        }
        // Deterministic order regardless of slot placement.
        entries.sort();
        serde_json::to_string(&(Self::format_version(), entries))
            .expect("cache entries always serialise")
    }

    /// Load entries previously produced by [`EvalCache::save_json`] into this
    /// cache (existing entries are kept; duplicates are overwritten).
    /// `repro dse` reads [`EvalCache::load_segment`] instead and ignores any
    /// leftover JSON cache file.
    ///
    /// # Errors
    /// Returns [`CacheLoadError::VersionMismatch`] when the file was
    /// persisted by a different build lineage (it must not replay its
    /// results), or [`CacheLoadError::Malformed`] describing the first bad
    /// entry. The whole document is validated before anything is inserted,
    /// so a partially corrupt file leaves the cache untouched instead of
    /// half-loaded.
    pub fn load_json(&self, json: &str) -> Result<usize, CacheLoadError> {
        let (version, entries): (String, Vec<(String, String, String)>) =
            serde_json::from_str(json).map_err(|e| CacheLoadError::Malformed(e.to_string()))?;
        Self::check_version(&version)?;
        let mut parsed = Vec::with_capacity(entries.len());
        for (hi, lo, bits) in entries {
            let field = |s: &str| {
                u64::from_str_radix(s, 16)
                    .map_err(|e| CacheLoadError::Malformed(format!("bad hex `{s}`: {e}")))
            };
            parsed.push(((field(&hi)?, field(&lo)?), field(&bits)?));
        }
        self.insert_validated(&parsed);
        Ok(parsed.len())
    }

    /// Serialise every entry in the binary **segment** format: the compact,
    /// checksummed form `repro dse` persists its cache in and the durable-job
    /// checkpoints spill every K windows (24 bytes per entry instead of ~60
    /// of JSON hex, no parse on reload).
    ///
    /// Layout (all integers little-endian):
    ///
    /// ```text
    /// magic   8 bytes   b"MPSEGV1\0"
    /// vlen    u32       length of the version string
    /// version vlen      `EvalCache::format_version()` bytes
    /// count   u64       entry count N
    /// entries 24 × N    key_hi u64 | key_lo u64 | value_bits u64
    /// crc     u32       CRC-32 (IEEE) of every preceding byte
    /// ```
    ///
    /// Entries are sorted, so equal cache contents serialise to equal bytes.
    pub fn save_segment(&self) -> Vec<u8> {
        let mut entries: Vec<((u64, u64), u64)> = Vec::with_capacity(self.len());
        for shard in &self.shards {
            entries.extend(shard.table().entries());
        }
        entries.sort_unstable();
        let version = Self::format_version();
        let mut bytes =
            Vec::with_capacity(SEGMENT_MAGIC.len() + 12 + version.len() + entries.len() * 24 + 4);
        bytes.extend_from_slice(SEGMENT_MAGIC);
        bytes.extend_from_slice(&(version.len() as u32).to_le_bytes());
        bytes.extend_from_slice(version.as_bytes());
        bytes.extend_from_slice(&(entries.len() as u64).to_le_bytes());
        for ((hi, lo), value) in entries {
            bytes.extend_from_slice(&hi.to_le_bytes());
            bytes.extend_from_slice(&lo.to_le_bytes());
            bytes.extend_from_slice(&value.to_le_bytes());
        }
        let crc = crc32(&bytes);
        bytes.extend_from_slice(&crc.to_le_bytes());
        bytes
    }

    /// Load a segment previously produced by [`EvalCache::save_segment`]
    /// (existing entries are kept; duplicates are overwritten).
    ///
    /// # Errors
    /// A file truncated at **any** byte boundary — the torn write a crash
    /// mid-spill leaves behind — is reported as [`CacheLoadError::Truncated`]
    /// (the length prefix claims more than is present) or
    /// [`CacheLoadError::Checksum`] (the CRC no longer covers what it
    /// guards); flipped bytes fail the CRC; foreign files fail the magic;
    /// stale files fail the version check. Nothing is inserted on any error.
    pub fn load_segment(&self, bytes: &[u8]) -> Result<usize, CacheLoadError> {
        let truncated =
            |expected: usize| CacheLoadError::Truncated { expected, actual: bytes.len() };
        let header = SEGMENT_MAGIC.len() + 4;
        if bytes.len() < header {
            return Err(truncated(header));
        }
        if &bytes[..SEGMENT_MAGIC.len()] != SEGMENT_MAGIC {
            return Err(CacheLoadError::Malformed("not a cache segment (bad magic)".to_string()));
        }
        let vlen = u32::from_le_bytes(
            bytes[SEGMENT_MAGIC.len()..header].try_into().expect("4 bytes sliced"),
        ) as usize;
        // Guard the arithmetic below against absurd prefixes before using
        // them as lengths.
        if vlen > 1024 {
            return Err(CacheLoadError::Malformed(format!("implausible version length {vlen}")));
        }
        if bytes.len() < header + vlen + 8 {
            return Err(truncated(header + vlen + 8));
        }
        let version = std::str::from_utf8(&bytes[header..header + vlen])
            .map_err(|_| CacheLoadError::Malformed("version string is not UTF-8".to_string()))?;
        Self::check_version(version)?;
        let count = u64::from_le_bytes(
            bytes[header + vlen..header + vlen + 8].try_into().expect("8 bytes sliced"),
        );
        let body = header + vlen + 8;
        let expected = body
            .checked_add((count as usize).checked_mul(24).ok_or_else(|| {
                CacheLoadError::Malformed(format!("implausible entry count {count}"))
            })?)
            .and_then(|n| n.checked_add(4))
            .ok_or_else(|| CacheLoadError::Malformed(format!("implausible entry count {count}")))?;
        if bytes.len() < expected {
            return Err(truncated(expected));
        }
        if bytes.len() > expected {
            return Err(CacheLoadError::Malformed(format!(
                "{} trailing bytes after the checksum",
                bytes.len() - expected
            )));
        }
        let stored = u32::from_le_bytes(bytes[expected - 4..].try_into().expect("4 bytes sliced"));
        let computed = crc32(&bytes[..expected - 4]);
        if stored != computed {
            return Err(CacheLoadError::Checksum { stored, computed });
        }
        let mut parsed = Vec::with_capacity(count as usize);
        for chunk in bytes[body..expected - 4].chunks_exact(24) {
            let word = |i: usize| {
                u64::from_le_bytes(chunk[i * 8..(i + 1) * 8].try_into().expect("8 bytes sliced"))
            };
            parsed.push(((word(0), word(1)), word(2)));
        }
        self.insert_validated(&parsed);
        Ok(parsed.len())
    }

    fn check_version(version: &str) -> Result<(), CacheLoadError> {
        if version == Self::format_version() {
            Ok(())
        } else {
            Err(CacheLoadError::VersionMismatch {
                found: version.to_string(),
                expected: Self::format_version(),
            })
        }
    }

    /// Bulk-insert fully validated entries (shared tail of both loaders).
    fn insert_validated(&self, entries: &[((u64, u64), u64)]) {
        self.reserve(entries.len());
        for &(key, bits) in entries {
            self.shard(key).insert(key, bits);
        }
    }
}

/// Magic prefix of the binary segment format ([`EvalCache::save_segment`]).
const SEGMENT_MAGIC: &[u8; 8] = b"MPSEGV1\0";

/// Why a persisted cache (JSON or binary segment) was refused. Every
/// variant means "start cold", never "panic": loaders validate the whole
/// file before touching the cache.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CacheLoadError {
    /// The document or segment could not be parsed (bad JSON, bad magic,
    /// non-hex fields, trailing bytes).
    Malformed(String),
    /// The file was persisted by a different build lineage and must not
    /// replay its results.
    VersionMismatch {
        /// The version tag found in the file.
        found: String,
        /// This build's [`EvalCache::format_version`].
        expected: String,
    },
    /// The segment is shorter than its own header and length prefix claim —
    /// the torn write a crash mid-spill leaves behind.
    Truncated {
        /// Bytes the header claims the segment holds.
        expected: usize,
        /// Bytes actually present.
        actual: usize,
    },
    /// The CRC-32 guard does not cover the bytes present.
    Checksum {
        /// The checksum stored in the file.
        stored: u32,
        /// The checksum of the bytes actually read.
        computed: u32,
    },
}

impl std::fmt::Display for CacheLoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CacheLoadError::Malformed(reason) => write!(f, "malformed cache file: {reason}"),
            CacheLoadError::VersionMismatch { found, expected } => {
                write!(f, "cache version `{found}` does not match this build (`{expected}`)")
            }
            CacheLoadError::Truncated { expected, actual } => {
                write!(f, "cache segment truncated: {actual} of {expected} bytes present")
            }
            CacheLoadError::Checksum { stored, computed } => write!(
                f,
                "cache segment checksum mismatch: stored {stored:08x}, computed {computed:08x}"
            ),
        }
    }
}

impl std::error::Error for CacheLoadError {}

/// CRC-32 (IEEE 802.3, reflected, polynomial `0xEDB88320`) — the guard under
/// the binary cache segments and the durable-job checkpoint manifests.
///
/// Slicing-by-8: eight 256-entry tables, built at compile time, fold eight
/// input bytes per step with eight independent lookups instead of a chain of
/// eight dependent ones; the tail (under eight bytes) falls back to the
/// bytewise loop over the first table.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut crc = !0u32;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][chunk[4] as usize]
            ^ t[2][chunk[5] as usize]
            ^ t[1][chunk[6] as usize]
            ^ t[0][chunk[7] as usize];
    }
    for &byte in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ byte as u32) & 0xFF) as usize];
    }
    !crc
}

/// The slicing-by-8 tables of [`crc32`]: `[0]` is the classic bytewise
/// table, and `[k][i]` advances `[k - 1][i]` by one more zero byte.
const CRC32_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// Warm the cacheline of one slot ahead of a dependent probe. On x86-64 this
/// is a dedicated `prefetcht0` (no load port, no dependency); elsewhere a
/// plain relaxed load of the state byte.
#[inline]
fn prefetch_slot(slot: &Slot) {
    #[cfg(target_arch = "x86_64")]
    unsafe {
        use core::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        _mm_prefetch::<_MM_HINT_T0>(slot as *const Slot as *const i8);
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = slot.state.load(Ordering::Relaxed);
    }
}

/// Fill the canonical cache keys of one design run, dispatching between the
/// scalar fold ([`CanonicalKeyPrefix::key_for`] per design) and the
/// lane-parallel AVX2 suffix fold. The fold is pure integer arithmetic
/// (per-byte FNV-1a: xor then a 64-bit multiply, emulated on AVX2 as three
/// 32×32 partial products), so lane keys are *exactly* the scalar keys —
/// there is no rounding to reason about.
///
/// [`CanonicalKeyPrefix::key_for`]: crate::scenario::CanonicalKeyPrefix::key_for
pub(crate) fn fill_design_keys(
    prefix: &crate::scenario::CanonicalKeyPrefix,
    designs: &[crate::scenario::ChipSpec],
    tables: &crate::tables::SpaceTables,
    design_start: usize,
    out: &mut [(u64, u64)],
) {
    #[cfg(target_arch = "x86_64")]
    {
        if mp_model::simd::level() == mp_model::simd::SimdLevel::Avx2 {
            let state = prefix.state();
            let r_bits = tables.key_r_bits();
            let rl_bits = tables.key_rl_bits();
            let end = design_start + out.len();
            for seg in tables.segments() {
                let a = seg.start.max(design_start);
                let b = (seg.start + seg.len).min(end);
                if a >= b {
                    continue;
                }
                let ka = a - design_start;
                let len = b - a;
                let lanes_len = len & !3;
                if lanes_len > 0 {
                    // SAFETY: AVX2 was detected above; the bit columns hold
                    // one entry per design, covering `[a, a + lanes_len)`.
                    unsafe {
                        fold_design_keys_avx2(
                            state,
                            seg.asym,
                            lanes_len,
                            r_bits[a..].as_ptr(),
                            rl_bits[a..].as_ptr(),
                            out[ka..].as_mut_ptr(),
                        );
                    }
                }
                for k in lanes_len..len {
                    out[ka + k] = prefix.key_for(designs[a + k]);
                }
            }
            return;
        }
    }
    for (k, slot) in out.iter_mut().enumerate() {
        *slot = prefix.key_for(designs[design_start + k]);
    }
}

/// Four FNV-1a suffix folds at a time: broadcast the prefix state, fold the
/// organisation tag byte once, then fold the 8 little-endian bytes of each
/// design's canonicalised `r` bits (and `rl` bits for asymmetric designs)
/// lane-parallel. The 64-bit multiply by the FNV prime is emulated with
/// three `vpmuludq` partial products (the prime's high half is `0x100`, the
/// low half `0x1b3`).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn fold_design_keys_avx2(
    state: (u64, u64),
    asym: bool,
    n: usize,
    r_bits: *const u64,
    rl_bits: *const u64,
    out: *mut (u64, u64),
) {
    use core::arch::x86_64::*;

    const PRIME: u64 = 0x100_0000_01b3;
    let prime_lo = _mm256_set1_epi64x((PRIME & 0xffff_ffff) as i64);
    let prime_hi = _mm256_set1_epi64x((PRIME >> 32) as i64);
    let byte_mask = _mm256_set1_epi64x(0xff);

    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn fold(state: __m256i, byte: __m256i, prime_lo: __m256i, prime_hi: __m256i) -> __m256i {
        let x = _mm256_xor_si256(state, byte);
        // x * PRIME mod 2^64 = lo(x)·lo(p) + ((hi(x)·lo(p) + lo(x)·hi(p)) << 32)
        let lo_lo = _mm256_mul_epu32(x, prime_lo);
        let hi_lo = _mm256_mul_epu32(_mm256_srli_epi64::<32>(x), prime_lo);
        let lo_hi = _mm256_mul_epu32(x, prime_hi);
        let cross = _mm256_slli_epi64::<32>(_mm256_add_epi64(hi_lo, lo_hi));
        _mm256_add_epi64(lo_lo, cross)
    }

    // The tag byte is segment-wide: fold it into the broadcast prefix once.
    let tag = _mm256_set1_epi64x(if asym { 2 } else { 1 });
    let base0 = fold(_mm256_set1_epi64x(state.0 as i64), tag, prime_lo, prime_hi);
    let base1 = fold(_mm256_set1_epi64x(state.1 as i64), tag, prime_lo, prime_hi);

    let mut i = 0;
    while i < n {
        let mut s0 = base0;
        let mut s1 = base1;
        let rb = _mm256_loadu_si256(r_bits.add(i) as *const __m256i);
        for shift in 0..8 {
            let byte =
                _mm256_and_si256(_mm256_srl_epi64(rb, _mm_cvtsi32_si128(8 * shift)), byte_mask);
            s0 = fold(s0, byte, prime_lo, prime_hi);
            s1 = fold(s1, byte, prime_lo, prime_hi);
        }
        if asym {
            let rlb = _mm256_loadu_si256(rl_bits.add(i) as *const __m256i);
            for shift in 0..8 {
                let byte = _mm256_and_si256(
                    _mm256_srl_epi64(rlb, _mm_cvtsi32_si128(8 * shift)),
                    byte_mask,
                );
                s0 = fold(s0, byte, prime_lo, prime_hi);
                s1 = fold(s1, byte, prime_lo, prime_hi);
            }
        }
        let mut lanes0 = [0u64; 4];
        let mut lanes1 = [0u64; 4];
        _mm256_storeu_si256(lanes0.as_mut_ptr() as *mut __m256i, s0);
        _mm256_storeu_si256(lanes1.as_mut_ptr() as *mut __m256i, s1);
        for j in 0..4 {
            *out.add(i + j) = (lanes0[j], lanes1[j]);
        }
        i += 4;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_and_miss_counting() {
        let cache = EvalCache::new();
        assert_eq!(cache.get((1, 2)), None);
        cache.insert((1, 2), 3.5);
        assert_eq!(cache.get((1, 2)), Some(3.5));
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
    }

    #[test]
    fn nan_round_trips_bitwise() {
        let cache = EvalCache::new();
        cache.insert((9, 9), f64::NAN);
        let got = cache.get((9, 9)).unwrap();
        assert_eq!(got.to_bits(), f64::NAN.to_bits());
    }

    #[test]
    fn overwriting_a_key_keeps_one_entry() {
        let cache = EvalCache::new();
        cache.insert((5, 6), 1.0);
        cache.insert((5, 6), 2.0);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.peek((5, 6)), Some(2.0));
    }

    #[test]
    fn growth_keeps_every_entry() {
        let cache = EvalCache::new();
        // Far beyond the initial SHARDS × 64-slot capacity, with keys
        // crafted to hammer a handful of shards (same low bits of key.0).
        let n = 40_000u64;
        for i in 0..n {
            cache.insert((i * SHARDS as u64, i.wrapping_mul(0x9E37_79B9_7F4A_7C15)), i as f64);
        }
        assert_eq!(cache.len(), n as usize);
        for i in 0..n {
            let got = cache
                .peek((i * SHARDS as u64, i.wrapping_mul(0x9E37_79B9_7F4A_7C15)))
                .unwrap_or(f64::NAN);
            assert_eq!(got.to_bits(), (i as f64).to_bits(), "entry {i} lost in growth");
        }
    }

    #[test]
    fn reserve_presizes_and_prevents_growth() {
        let cache = EvalCache::new();
        cache.reserve(100_000);
        let capacity = cache.capacity();
        assert!(capacity >= 100_000 * 8 / 7, "got {capacity}");
        for i in 0..100_000u64 {
            cache.insert((i, i * 31), i as f64);
        }
        assert_eq!(cache.capacity(), capacity, "a reserved cache must not grow mid-run");
        assert_eq!(cache.len(), 100_000);
    }

    #[test]
    fn json_round_trip_preserves_bits() {
        let cache = EvalCache::new();
        cache.insert((1, 2), 0.1 + 0.2);
        cache.insert((u64::MAX, 7), f64::NAN);
        cache.insert((3, 4), -0.0);
        let json = cache.save_json();

        let restored = EvalCache::new();
        assert_eq!(restored.load_json(&json).unwrap(), 3);
        assert_eq!(restored.get((1, 2)).unwrap().to_bits(), (0.1f64 + 0.2).to_bits());
        assert_eq!(restored.get((u64::MAX, 7)).unwrap().to_bits(), f64::NAN.to_bits());
        assert_eq!(restored.get((3, 4)).unwrap().to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    fn partially_malformed_json_loads_nothing() {
        let cache = EvalCache::new();
        // First entry valid, second has non-hex value bits.
        let json = format!(
            r#"["{}",[["0000000000000001","0000000000000002","3ff0000000000000"],["0000000000000003","0000000000000004","zzzz"]]]"#,
            EvalCache::format_version()
        );
        assert!(cache.load_json(&json).is_err());
        assert!(cache.is_empty(), "a failed load must not half-populate the cache");
    }

    #[test]
    fn mismatched_version_loads_nothing() {
        let source = EvalCache::new();
        source.insert((1, 2), 3.5);
        let stale = source.save_json().replace(&EvalCache::format_version(), "mp-dse-cache/0.0.0");
        let cache = EvalCache::new();
        let err = cache.load_json(&stale).unwrap_err();
        assert!(matches!(err, CacheLoadError::VersionMismatch { .. }), "{err}");
        assert!(err.to_string().contains("version"), "{err}");
        assert!(cache.is_empty());
    }

    #[test]
    fn segment_round_trip_preserves_bits_and_matches_json() {
        let cache = EvalCache::new();
        cache.insert((1, 2), 0.1 + 0.2);
        cache.insert((u64::MAX, 7), f64::NAN);
        cache.insert((3, 4), -0.0);
        let segment = cache.save_segment();

        let restored = EvalCache::new();
        assert_eq!(restored.load_segment(&segment).unwrap(), 3);
        assert_eq!(restored.get((1, 2)).unwrap().to_bits(), (0.1f64 + 0.2).to_bits());
        assert_eq!(restored.get((u64::MAX, 7)).unwrap().to_bits(), f64::NAN.to_bits());
        assert_eq!(restored.get((3, 4)).unwrap().to_bits(), (-0.0f64).to_bits());
        // The two persistence formats describe the same contents.
        assert_eq!(restored.save_json(), cache.save_json());
        assert_eq!(restored.save_segment(), segment, "segment bytes are deterministic");
    }

    #[test]
    fn segment_truncated_at_any_byte_loads_nothing() {
        let cache = EvalCache::new();
        for i in 0..50u64 {
            cache.insert((i, i * 31), i as f64);
        }
        let segment = cache.save_segment();
        for cut in 0..segment.len() {
            let torn = EvalCache::new();
            let err = torn.load_segment(&segment[..cut]);
            assert!(err.is_err(), "truncation at byte {cut} of {} must fail", segment.len());
            assert!(torn.is_empty(), "truncation at byte {cut} must not half-load");
        }
    }

    #[test]
    fn segment_corruption_and_foreign_files_are_typed_errors() {
        let cache = EvalCache::new();
        cache.insert((1, 2), 3.5);
        let segment = cache.save_segment();

        // A flipped payload byte (inside the last entry, before the CRC
        // trailer) fails the CRC.
        let mut flipped = segment.clone();
        let cut = flipped.len() - 10;
        flipped[cut] ^= 0x40;
        let target = EvalCache::new();
        assert!(matches!(
            target.load_segment(&flipped).unwrap_err(),
            CacheLoadError::Checksum { .. }
        ));
        assert!(target.is_empty());

        // Trailing garbage is rejected, not silently ignored.
        let mut padded = segment.clone();
        padded.extend_from_slice(b"junk");
        assert!(matches!(target.load_segment(&padded).unwrap_err(), CacheLoadError::Malformed(_)));

        // A foreign file fails the magic check.
        assert!(matches!(
            target.load_segment(b"this is not a segment at all").unwrap_err(),
            CacheLoadError::Malformed(_)
        ));
        // An empty file is a truncation, not a panic.
        assert!(matches!(target.load_segment(b"").unwrap_err(), CacheLoadError::Truncated { .. }));
        assert!(target.is_empty());
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC-32 check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);
    }

    /// The reference bytewise CRC-32 the slicing-by-8 [`crc32`] replaced.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &byte in bytes {
            crc = (crc >> 8) ^ CRC32_TABLES[0][((crc ^ byte as u32) & 0xFF) as usize];
        }
        !crc
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// Slicing-by-8 equals the bytewise oracle on random bytes of every
        /// length 0..=4096, and on sub-slices that start and end off any
        /// eight-byte alignment (the chunking must not depend on where the
        /// slice sits in memory).
        #[test]
        fn crc32_matches_the_bytewise_oracle(
            bytes in proptest::collection::vec(0u8..=255, 0..=4096),
            skip in 0usize..16,
            trim in 0usize..16,
        ) {
            proptest::prop_assert_eq!(crc32(&bytes), crc32_bytewise(&bytes));
            let end = bytes.len().saturating_sub(trim);
            let sub = &bytes[skip.min(end)..end];
            proptest::prop_assert_eq!(crc32(sub), crc32_bytewise(sub));
        }
    }

    #[test]
    fn save_is_deterministic() {
        let a = EvalCache::new();
        let b = EvalCache::new();
        for i in 0..100u64 {
            a.insert((i * 31, i), i as f64);
            b.insert(((99 - i) * 31, 99 - i), (99 - i) as f64);
        }
        assert_eq!(a.save_json(), b.save_json());
    }

    #[test]
    fn concurrent_inserts_and_probes_stay_consistent() {
        let cache = EvalCache::new();
        std::thread::scope(|scope| {
            for t in 0..8u64 {
                let cache = &cache;
                scope.spawn(move || {
                    for i in 0..2_000u64 {
                        let key = (i * 7 + t * 101, i.rotate_left(17) ^ t);
                        cache.insert(key, (i + t) as f64);
                        if let Some(v) = cache.peek(key) {
                            // A probe may race a concurrent overwrite of the
                            // same key by another thread, but a present value
                            // is always one that was inserted for this key.
                            assert!((0.0..3_000.0).contains(&v));
                        }
                    }
                });
            }
        });
        // Every thread's final inserts are all present afterwards.
        for t in 0..8u64 {
            for i in 0..2_000u64 {
                let key = (i * 7 + t * 101, i.rotate_left(17) ^ t);
                assert!(cache.peek(key).is_some(), "t={t} i={i}");
            }
        }
    }
}
