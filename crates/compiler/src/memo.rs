//! Fine-grained incremental compilation: content-hashed stage memos.
//!
//! A sweep over a policy/capacity grid re-runs the same compilation
//! *stages* over and over: two jobs that differ only in a trap capacity
//! share every static route, and two jobs that differ only in a
//! downstream policy (routing, reorder, eviction) share their initial
//! placement. [`CompileMemo`] memoizes those stages per device, keyed by
//! content hashes of exactly the inputs each stage depends on, so a warm
//! sweep only pays for what actually changed:
//!
//! | Stage | Key inputs | Shared across |
//! |-------|-----------|----------------|
//! | placement | device digest · circuit digest · mapping policy name · buffer slots | routing/reorder/eviction policies, physical models |
//! | route row | *topology* digest · source trap | capacities, all policies, circuits |
//!
//! Routes depend only on the device's segments, junctions and lengths —
//! never on trap capacities — so route stages are keyed by the
//! *topology digest* ([`Device::with_uniform_capacity`] with capacity 0
//! zeroes the capacity field before hashing), letting a re-invoked sweep
//! with one new capacity value reuse every route of the old run.
//! Placements do read capacities, so they key on the full device digest.
//!
//! Every memoized stage is **bit-identical** to its cold computation:
//! route rows snapshot/preload the dense [`RouteCache`] rows exactly
//! (including positionally-reconstructed errors), and placements are
//! pure functions of their key inputs. The differential suite
//! in `tests/incremental_memo.rs` pins this across the full device ×
//! circuit × 16-policy matrix.
//!
//! Stages optionally persist across processes through a [`StagePersist`]
//! sink (`qccd::engine::StageCache` keeps them as files in a
//! directory); keys carry [`STAGE_VERSION`] so a format change
//! abandons old entries instead of misreading them. The sweep engine
//! compiles without a memo; memoized compiles serve callers that
//! replay its runs.

use crate::config::MappingKind;
use crate::digest::{content_digest, fnv1a};
use crate::error::CompileError;
use crate::mapping::Placement;
use qccd_circuit::Circuit;
use qccd_device::{Device, Route, RouteCache, TrapId};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};

/// Version salt folded into every stage key. Bump when a stage's
/// content or encoding changes incompatibly: old persisted entries
/// then miss instead of being misread.
pub const STAGE_VERSION: &str = "qccd-stage-v1";

/// Persisted-stage kind for one dense route row (payload:
/// `Vec<Option<Route>>`, see [`RouteCache::snapshot`]).
pub const ROUTE_ROW_KIND: &str = "route-row";

/// Persisted-stage kind for one initial placement (payload:
/// [`Placement`]).
pub const PLACEMENT_KIND: &str = "placement";

/// A sink the memo persists stages through (and warm-starts from), so a
/// re-invoked sweep reuses stages across processes. Implemented by the
/// engine's on-disk stage cache; tests use in-memory fakes.
pub trait StagePersist: Send + Sync {
    /// Returns the payload stored for `(kind, key)`, if any.
    fn load(&self, kind: &str, key: u64) -> Option<String>;

    /// Stores `payload` under `(kind, key)`. Failures are silent: the
    /// memo treats persistence as an optimization, never a requirement.
    fn store(&self, kind: &str, key: u64, payload: &str);
}

/// One claimed placement-stage slot. The claimant flips it from
/// `InFlight` to `Ready` (or withdraws it as `Failed` when the mapping
/// errors) and wakes every waiter through the paired condvar.
enum SlotState {
    /// The claimant is still computing; waiters block on the condvar.
    InFlight,
    /// The stage resolved; waiters clone the placement and count hits.
    Ready(Placement),
    /// The claimant's mapping errored and the claim was withdrawn;
    /// waiters race to claim afresh (errors are never memoized).
    Failed,
}

type PlacementSlot = Arc<(Mutex<SlotState>, Condvar)>;

/// Per-stage reuse counters, summed into the engine's `RunStats`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageCounters {
    /// Initial placements served from the memo (in-memory or persisted).
    pub placement_hits: u64,
    /// Initial placements computed cold.
    pub placement_misses: u64,
    /// Route rows preloaded from the persist sink.
    pub route_hits: u64,
    /// Route rows computed cold by the batched Dijkstra.
    pub route_misses: u64,
}

/// The incremental-compilation memo for one device: a warmed
/// [`RouteCache`] plus a content-keyed placement store, shareable
/// across sweep workers (`Sync`).
///
/// Construction eagerly warms every route row — preloading persisted
/// rows where a [`StagePersist`] sink has them, running the batched
/// Dijkstra otherwise — so compilation never pays a row fill twice, in
/// this process or the next.
///
/// # Example
///
/// ```
/// use qccd_circuit::generators;
/// use qccd_compiler::{CompileMemo, CompileMemoRef, Pipeline, CompilerConfig};
/// use qccd_device::presets;
///
/// let device = presets::l6(20);
/// let memo = CompileMemo::new(&device);
/// let circuit = generators::qaoa(20, 1, 3);
/// let pipeline = Pipeline::from_config(&CompilerConfig::default());
/// let cold = pipeline.compile(&circuit, &device).unwrap();
/// let warm = pipeline
///     .compile_with(&circuit, &device, Some(CompileMemoRef::for_circuit(&memo, &circuit)))
///     .unwrap();
/// assert_eq!(cold, warm);
/// ```
pub struct CompileMemo<'d> {
    device: &'d Device,
    /// Hash of the full device description (capacities included).
    device_digest: u64,
    /// Hash of the device with capacities zeroed — what routes actually
    /// depend on.
    topology_digest: u64,
    routes: RouteCache<'d>,
    /// Sorted by key (the compiler crates ban `HashMap` on hot paths;
    /// a policy grid holds at most a handful of distinct placements).
    /// Each entry is a claim slot: the first worker to insert one
    /// computes the stage, racers block on its condvar, so a placement
    /// is computed (and counted as a miss) exactly once.
    placements: Mutex<Vec<(u64, PlacementSlot)>>,
    placement_hits: AtomicU64,
    placement_misses: AtomicU64,
    route_hits: AtomicU64,
    route_misses: AtomicU64,
    persist: Option<Arc<dyn StagePersist>>,
}

impl std::fmt::Debug for CompileMemo<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompileMemo")
            .field("device_digest", &self.device_digest)
            .field("topology_digest", &self.topology_digest)
            .field("counters", &self.counters())
            .finish_non_exhaustive()
    }
}

impl<'d> CompileMemo<'d> {
    /// Builds a memo for `device` with no cross-process persistence and
    /// eagerly warms every route row.
    pub fn new(device: &'d Device) -> Self {
        CompileMemo::with_persist(device, None)
    }

    /// Builds a memo that warm-starts route rows and placements from
    /// `persist` and writes newly-computed ones back to it.
    pub fn with_persist(device: &'d Device, persist: Option<Arc<dyn StagePersist>>) -> Self {
        let memo = CompileMemo {
            device,
            device_digest: content_digest(device),
            topology_digest: content_digest(&device.with_uniform_capacity(0)),
            routes: RouteCache::new(device),
            placements: Mutex::new(Vec::new()),
            placement_hits: AtomicU64::new(0),
            placement_misses: AtomicU64::new(0),
            route_hits: AtomicU64::new(0),
            route_misses: AtomicU64::new(0),
            persist,
        };
        memo.warm_routes();
        memo
    }

    /// The device this memo compiles for.
    pub fn device(&self) -> &'d Device {
        self.device
    }

    /// The warmed all-pairs static route cache.
    pub fn routes(&self) -> &RouteCache<'d> {
        &self.routes
    }

    /// Hash of the full device description (placement stage key input).
    pub fn device_digest(&self) -> u64 {
        self.device_digest
    }

    /// Hash of the capacity-independent topology (route stage key
    /// input): two devices differing only in trap capacities share it.
    pub fn topology_digest(&self) -> u64 {
        self.topology_digest
    }

    /// The stage reuse counters accumulated so far.
    pub fn counters(&self) -> StageCounters {
        StageCounters {
            placement_hits: self.placement_hits.load(Ordering::Relaxed),
            placement_misses: self.placement_misses.load(Ordering::Relaxed),
            route_hits: self.route_hits.load(Ordering::Relaxed),
            route_misses: self.route_misses.load(Ordering::Relaxed),
        }
    }

    /// The stage key of the route row out of `from`.
    pub fn route_row_key(&self, from: TrapId) -> u64 {
        fnv1a(
            format!(
                "{STAGE_VERSION}|{ROUTE_ROW_KIND}|{:016x}|{}",
                self.topology_digest,
                from.index()
            )
            .as_bytes(),
        )
    }

    /// The stage key of an initial placement: full device digest (the
    /// mapper reads capacities) plus everything the mapping stage sees;
    /// the mapping policy enters as its [`MappingKind::name`].
    pub fn placement_key(&self, circuit_digest: u64, mapping_name: &str, buffer_slots: u32) -> u64 {
        fnv1a(
            format!(
                "{STAGE_VERSION}|{PLACEMENT_KIND}|{:016x}|{circuit_digest:016x}|{mapping_name}|{buffer_slots}",
                self.device_digest
            )
            .as_bytes(),
        )
    }

    /// Eagerly fills every route row: persisted snapshots preload where
    /// available (a hit per row), the batched Dijkstra covers the rest
    /// (a miss per row, written back to the sink).
    fn warm_routes(&self) {
        let mut preloaded = vec![false; self.device.trap_count()];
        if let Some(persist) = &self.persist {
            for from in self.device.trap_ids() {
                if let Some(payload) = persist.load(ROUTE_ROW_KIND, self.route_row_key(from)) {
                    if let Ok(row) = serde_json::from_str::<Vec<Option<Route>>>(&payload) {
                        preloaded[from.index()] = self.routes.preload(from, row);
                    }
                }
            }
        }
        self.routes.warm();
        for from in self.device.trap_ids() {
            if preloaded[from.index()] {
                self.route_hits.fetch_add(1, Ordering::Relaxed);
            } else {
                self.route_misses.fetch_add(1, Ordering::Relaxed);
                if let Some(persist) = &self.persist {
                    let snapshot = self.routes.snapshot(from).expect("warmed row");
                    if let Ok(payload) = serde_json::to_string(&snapshot) {
                        persist.store(ROUTE_ROW_KIND, self.route_row_key(from), &payload);
                    }
                }
            }
        }
    }

    /// The memoized initial placement for `(circuit, mapping,
    /// buffer_slots)` on this device, computing (and recording) it on a
    /// miss. Mapping failures are returned, not memoized.
    ///
    /// Racing workers resolve through a claim: the first to insert the
    /// stage's slot computes (one miss), the rest block on the slot's
    /// condvar and clone the result (one hit each) — a stage is never
    /// double-counted or double-computed, however many workers ask.
    ///
    /// # Errors
    ///
    /// Propagates the mapping policy's [`CompileError`] on a cold miss.
    pub fn placement(
        &self,
        circuit: &Circuit,
        circuit_digest: u64,
        mapping: MappingKind,
        buffer_slots: u32,
    ) -> Result<Placement, CompileError> {
        self.placement_by(
            circuit,
            circuit_digest,
            mapping.name(),
            buffer_slots,
            |c, d, s| mapping.place(c, d, s),
        )
    }

    /// [`CompileMemo::placement`] with the mapping stage given as its
    /// key name and a `place` function, so tests can inject counting,
    /// failing or lock-poisoning placements.
    fn placement_by<F>(
        &self,
        circuit: &Circuit,
        circuit_digest: u64,
        mapping_name: &str,
        buffer_slots: u32,
        place: F,
    ) -> Result<Placement, CompileError>
    where
        F: Fn(&Circuit, &Device, u32) -> Result<Placement, CompileError>,
    {
        let key = self.placement_key(circuit_digest, mapping_name, buffer_slots);
        loop {
            let (slot, claimed) = {
                // qccd-lint: allow(engine-panic) — a poisoned lock means another worker thread already panicked; aborting the sweep is correct
                let mut store = self.placements.lock().expect("memo lock");
                match store.binary_search_by_key(&key, |(k, _)| *k) {
                    Ok(pos) => (store[pos].1.clone(), false),
                    Err(pos) => {
                        let slot: PlacementSlot =
                            Arc::new((Mutex::new(SlotState::InFlight), Condvar::new()));
                        store.insert(pos, (key, slot.clone()));
                        (slot, true)
                    }
                }
            };
            if claimed {
                return self.fill_claim(key, &slot, circuit, &place, buffer_slots);
            }
            // qccd-lint: allow(engine-panic) — a poisoned lock means another worker thread already panicked; aborting the sweep is correct
            let mut state = slot.0.lock().expect("memo slot lock");
            while matches!(*state, SlotState::InFlight) {
                // qccd-lint: allow(engine-panic) — a poisoned lock means another worker thread already panicked; aborting the sweep is correct
                state = slot.1.wait(state).expect("memo slot lock");
            }
            if let SlotState::Ready(placement) = &*state {
                self.placement_hits.fetch_add(1, Ordering::Relaxed);
                return Ok(placement.clone());
            }
            // Failed: the claim was withdrawn — race to claim afresh.
        }
    }

    /// Claimant side of [`CompileMemo::placement`]: resolves the slot
    /// from the persist sink (a hit) or a cold `place()` run (the one
    /// miss), then wakes every waiter. The guard withdraws the claim if
    /// the mapping errors — or panics — so waiters never hang on a slot
    /// nobody is filling.
    fn fill_claim<F>(
        &self,
        key: u64,
        slot: &PlacementSlot,
        circuit: &Circuit,
        place: &F,
        buffer_slots: u32,
    ) -> Result<Placement, CompileError>
    where
        F: Fn(&Circuit, &Device, u32) -> Result<Placement, CompileError>,
    {
        struct Claim<'a, 'd> {
            memo: &'a CompileMemo<'d>,
            key: u64,
            slot: &'a PlacementSlot,
            resolved: bool,
        }
        impl Drop for Claim<'_, '_> {
            fn drop(&mut self) {
                if self.resolved {
                    return;
                }
                // A poisoned lock still holds a consistent store (every
                // critical section is a single insert or remove), and
                // panicking here would abort a thread already unwinding.
                let mut store = self
                    .memo
                    .placements
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner);
                if let Ok(pos) = store.binary_search_by_key(&self.key, |(k, _)| *k) {
                    if Arc::ptr_eq(&store[pos].1, self.slot) {
                        store.remove(pos);
                    }
                }
                drop(store);
                *self.slot.0.lock().unwrap_or_else(PoisonError::into_inner) = SlotState::Failed;
                self.slot.1.notify_all();
            }
        }
        let mut claim = Claim {
            memo: self,
            key,
            slot,
            resolved: false,
        };

        let persisted = self.persist.as_ref().and_then(|persist| {
            let payload = persist.load(PLACEMENT_KIND, key)?;
            serde_json::from_str::<Placement>(&payload).ok()
        });
        let placement = match persisted {
            Some(placement) => {
                self.placement_hits.fetch_add(1, Ordering::Relaxed);
                placement
            }
            None => {
                self.placement_misses.fetch_add(1, Ordering::Relaxed);
                let placement = place(circuit, self.device, buffer_slots)?;
                if let Some(persist) = &self.persist {
                    if let Ok(payload) = serde_json::to_string(&placement) {
                        persist.store(PLACEMENT_KIND, key, &payload);
                    }
                }
                placement
            }
        };
        claim.resolved = true;
        // qccd-lint: allow(engine-panic) — a poisoned lock means another worker thread already panicked; aborting the sweep is correct
        *slot.0.lock().expect("memo slot lock") = SlotState::Ready(placement.clone());
        slot.1.notify_all();
        Ok(placement)
    }
}

/// A borrowed memo plus the circuit digest the caller already computed
/// — what [`crate::Pipeline::compile_with`] threads through the passes.
/// `Copy` so the scheduler can hand it around freely.
#[derive(Debug, Clone, Copy)]
pub struct CompileMemoRef<'a> {
    memo: &'a CompileMemo<'a>,
    circuit_digest: u64,
}

impl<'a> CompileMemoRef<'a> {
    /// Pairs `memo` with a circuit digest the caller computed (the
    /// engine hashes each distinct circuit once per grid).
    pub fn new(memo: &'a CompileMemo<'a>, circuit_digest: u64) -> Self {
        CompileMemoRef {
            memo,
            circuit_digest,
        }
    }

    /// Convenience constructor hashing `circuit` here (tests, benches,
    /// one-off callers).
    pub fn for_circuit(memo: &'a CompileMemo<'a>, circuit: &Circuit) -> Self {
        CompileMemoRef::new(memo, content_digest(circuit))
    }

    /// The underlying memo.
    pub fn memo(&self) -> &'a CompileMemo<'a> {
        self.memo
    }

    /// The digest of the circuit being compiled.
    pub fn circuit_digest(&self) -> u64 {
        self.circuit_digest
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CompilerConfig, MappingKind};
    use qccd_circuit::generators;
    use qccd_device::presets;

    /// In-memory [`StagePersist`] fake recording loads and stores.
    #[derive(Default)]
    struct MemPersist {
        entries: Mutex<Vec<(String, u64, String)>>,
    }

    impl MemPersist {
        fn len(&self) -> usize {
            self.entries.lock().unwrap().len()
        }

        fn kinds(&self) -> Vec<String> {
            self.entries
                .lock()
                .unwrap()
                .iter()
                .map(|(k, _, _)| k.clone())
                .collect()
        }
    }

    impl StagePersist for MemPersist {
        fn load(&self, kind: &str, key: u64) -> Option<String> {
            self.entries
                .lock()
                .unwrap()
                .iter()
                .find(|(k, id, _)| k == kind && *id == key)
                .map(|(_, _, payload)| payload.clone())
        }

        fn store(&self, kind: &str, key: u64, payload: &str) {
            let mut entries = self.entries.lock().unwrap();
            if !entries.iter().any(|(k, id, _)| k == kind && *id == key) {
                entries.push((kind.to_owned(), key, payload.to_owned()));
            }
        }
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn topology_digest_ignores_capacities_device_digest_does_not() {
        let d14 = presets::l6(14);
        let d20 = presets::l6(20);
        let m14 = CompileMemo::new(&d14);
        let m20 = CompileMemo::new(&d20);
        assert_eq!(m14.topology_digest(), m20.topology_digest());
        assert_ne!(m14.device_digest(), m20.device_digest());
        // A different topology changes both.
        let grid = presets::g2x3(14);
        let mg = CompileMemo::new(&grid);
        assert_ne!(m14.topology_digest(), mg.topology_digest());
    }

    #[test]
    fn route_stage_keys_are_capacity_invariant() {
        let d14 = presets::l6(14);
        let d20 = presets::l6(20);
        let m14 = CompileMemo::new(&d14);
        let m20 = CompileMemo::new(&d20);
        for from in d14.trap_ids() {
            assert_eq!(m14.route_row_key(from), m20.route_row_key(from));
        }
        // Placement keys differ: the mapper reads capacities.
        assert_ne!(
            m14.placement_key(1, "round-robin", 2),
            m20.placement_key(1, "round-robin", 2),
        );
    }

    #[test]
    fn placement_memo_hits_and_is_identical() {
        let d = presets::l6(14);
        let memo = CompileMemo::new(&d);
        let c = generators::qaoa(20, 1, 3);
        let digest = content_digest(&c);
        let mapping = MappingKind::RoundRobin;
        let cold = mapping.place(&c, &d, 2).unwrap();
        let first = memo.placement(&c, digest, mapping, 2).unwrap();
        let second = memo.placement(&c, digest, mapping, 2).unwrap();
        assert_eq!(first, cold);
        assert_eq!(second, cold);
        let counters = memo.counters();
        assert_eq!(counters.placement_misses, 1);
        assert_eq!(counters.placement_hits, 1);
        // A different mapping policy is a distinct stage.
        let uw = MappingKind::UsageWeighted;
        let third = memo.placement(&c, digest, uw, 2).unwrap();
        assert_eq!(third, uw.place(&c, &d, 2).unwrap());
        assert_eq!(memo.counters().placement_misses, 2);
    }

    #[test]
    fn persisted_route_rows_warm_start_a_second_memo() {
        let d = presets::g2x3(14);
        let persist: Arc<MemPersist> = Arc::default();
        let cold = CompileMemo::with_persist(&d, Some(persist.clone()));
        assert_eq!(cold.counters().route_hits, 0);
        assert_eq!(cold.counters().route_misses, d.trap_count() as u64);
        assert_eq!(persist.len(), d.trap_count());

        let warm = CompileMemo::with_persist(&d, Some(persist.clone()));
        assert_eq!(warm.counters().route_hits, d.trap_count() as u64);
        assert_eq!(warm.counters().route_misses, 0);
        for a in d.trap_ids() {
            for b in d.trap_ids() {
                assert_eq!(cold.routes().route(a, b), warm.routes().route(a, b));
            }
        }

        // A capacity-only variant hits the same persisted rows.
        let wider = presets::g2x3(30);
        let variant = CompileMemo::with_persist(&wider, Some(persist.clone()));
        assert_eq!(variant.counters().route_hits, wider.trap_count() as u64);
        assert_eq!(persist.len(), d.trap_count());
    }

    #[test]
    fn persisted_placements_warm_start_a_second_memo() {
        let d = presets::l6(14);
        let persist: Arc<MemPersist> = Arc::default();
        let c = generators::qaoa(20, 1, 3);
        let digest = content_digest(&c);
        let mapping = MappingKind::RoundRobin;

        let cold = CompileMemo::with_persist(&d, Some(persist.clone()));
        let placed = cold.placement(&c, digest, mapping, 2).unwrap();
        assert!(persist.kinds().iter().any(|k| k == PLACEMENT_KIND));

        let warm = CompileMemo::with_persist(&d, Some(persist.clone()));
        let reloaded = warm.placement(&c, digest, mapping, 2).unwrap();
        assert_eq!(reloaded, placed);
        assert_eq!(warm.counters().placement_hits, 1);
        assert_eq!(warm.counters().placement_misses, 0);
    }

    #[test]
    fn corrupt_persisted_payloads_fall_back_to_recompute() {
        let d = presets::l6(14);
        let persist: Arc<MemPersist> = Arc::default();
        {
            // Poison every stage key the memo will ask for.
            let probe = CompileMemo::new(&d);
            for from in d.trap_ids() {
                persist.store(ROUTE_ROW_KIND, probe.route_row_key(from), "not json");
            }
        }
        let memo = CompileMemo::with_persist(&d, Some(persist));
        assert_eq!(memo.counters().route_hits, 0);
        assert_eq!(memo.counters().route_misses, d.trap_count() as u64);
        for a in d.trap_ids() {
            for b in d.trap_ids() {
                assert_eq!(
                    memo.routes().route(a, b).cloned(),
                    d.route(a, b),
                    "{a}->{b}"
                );
            }
        }
    }

    #[test]
    fn memo_is_shareable_across_threads() {
        let d = presets::g2x3(14);
        let memo = CompileMemo::new(&d);
        let c = generators::qaoa(12, 1, 2);
        let digest = content_digest(&c);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    let mapping = MappingKind::RoundRobin;
                    let p = memo.placement(&c, digest, mapping, 2).unwrap();
                    assert_eq!(p, mapping.place(&c, &d, 2).unwrap());
                });
            }
        });
        // The claim protocol makes this exact, not just bounded: one
        // thread computes, the other three wait and hit.
        let counters = memo.counters();
        assert_eq!(counters.placement_misses, 1);
        assert_eq!(counters.placement_hits, 3);
    }

    /// Round-robin placement counting (and optionally failing) its
    /// `place()` calls, for the claim-protocol tests, which inject it
    /// through [`CompileMemo::placement_by`].
    struct CountingMapping {
        calls: AtomicU64,
        fail_first: AtomicU64,
    }

    impl CountingMapping {
        fn new(fail_first: u64) -> Self {
            CountingMapping {
                calls: AtomicU64::new(0),
                fail_first: AtomicU64::new(fail_first),
            }
        }

        fn place(
            &self,
            circuit: &Circuit,
            device: &Device,
            buffer_slots: u32,
        ) -> Result<Placement, CompileError> {
            self.calls.fetch_add(1, Ordering::Relaxed);
            // Simulate work so racing threads pile onto the in-flight
            // claim instead of serializing past it.
            std::thread::sleep(std::time::Duration::from_millis(20));
            let failing = self
                .fail_first
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1))
                .is_ok();
            if failing {
                return Err(CompileError::InsufficientCapacity {
                    needed: 1,
                    capacity: 0,
                });
            }
            MappingKind::RoundRobin.place(circuit, device, buffer_slots)
        }
    }

    #[test]
    fn racing_threads_compute_a_placement_exactly_once() {
        let d = presets::g2x3(14);
        let memo = CompileMemo::new(&d);
        let c = generators::qaoa(12, 1, 2);
        let digest = content_digest(&c);
        let mapping = CountingMapping::new(0);
        let place = |c: &Circuit, d: &Device, s: u32| mapping.place(c, d, s);
        let barrier = std::sync::Barrier::new(8);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    barrier.wait();
                    let p = memo
                        .placement_by(&c, digest, "round-robin", 2, place)
                        .unwrap();
                    assert_eq!(p, MappingKind::RoundRobin.place(&c, &d, 2).unwrap());
                });
            }
        });
        // Pre-claim, two racers past the in-memory lookup each counted
        // a miss and ran place(); the claim admits exactly one.
        assert_eq!(mapping.calls.load(Ordering::Relaxed), 1);
        let counters = memo.counters();
        assert_eq!(counters.placement_misses, 1);
        assert_eq!(counters.placement_hits, 7);
    }

    #[test]
    fn failed_placement_withdraws_the_claim_instead_of_memoizing() {
        let d = presets::l6(14);
        let memo = CompileMemo::new(&d);
        let c = generators::qaoa(20, 1, 3);
        let digest = content_digest(&c);
        let mapping = CountingMapping::new(1);
        let place = |c: &Circuit, d: &Device, s: u32| mapping.place(c, d, s);
        // First call fails and must not poison the stage...
        assert!(memo
            .placement_by(&c, digest, "round-robin", 2, place)
            .is_err());
        // ...so the retry claims afresh, recomputes, and succeeds.
        let placed = memo
            .placement_by(&c, digest, "round-robin", 2, place)
            .unwrap();
        assert_eq!(placed, MappingKind::RoundRobin.place(&c, &d, 2).unwrap());
        assert_eq!(mapping.calls.load(Ordering::Relaxed), 2);
        let counters = memo.counters();
        assert_eq!(counters.placement_misses, 2);
        // The third call is a plain memo hit.
        assert_eq!(
            memo.placement_by(&c, digest, "round-robin", 2, place)
                .unwrap(),
            placed
        );
        assert_eq!(memo.counters().placement_hits, 1);
    }

    #[test]
    fn unresolved_claim_withdraws_through_a_poisoned_lock() {
        let d = presets::l6(14);
        let memo = CompileMemo::new(&d);
        let c = generators::qaoa(20, 1, 3);
        // A placement that poisons the memo's placement store mid-claim
        // (a worker panicking while holding the lock), then fails.
        let poisoning = |_: &Circuit, _: &Device, _: u32| {
            std::thread::scope(|scope| {
                let poisoner = scope.spawn(|| {
                    let _held = memo.placements.lock().unwrap();
                    panic!("worker panics while holding the placement lock");
                });
                assert!(poisoner.join().is_err());
            });
            Err(CompileError::InsufficientCapacity {
                needed: 1,
                capacity: 0,
            })
        };
        // The claim's drop must not panic on the poisoned lock: the
        // mapping error comes back and the claim is withdrawn.
        assert!(memo
            .placement_by(&c, content_digest(&c), "poisoning", 2, poisoning)
            .is_err());
        assert!(memo.placements.is_poisoned());
        let store = memo
            .placements
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        assert!(store.is_empty());
    }

    mod stage_key_invalidation {
        use super::*;
        use proptest::prelude::*;

        /// The 16-policy matrix, indexed for the range strategy.
        fn config_at(index: usize) -> CompilerConfig {
            let grid = CompilerConfig::policy_grid(2);
            grid[index % grid.len()]
        }

        proptest! {
            /// A capacity tweak invalidates exactly the placement stage:
            /// route-row keys are capacity-blind.
            #[test]
            fn capacity_edit_invalidates_only_placements(
                cap in 8u32..40,
                delta in 1u32..8,
                config_idx in 0usize..16,
            ) {
                let config = config_at(config_idx);
                let before = presets::l6(cap);
                let after = presets::l6(cap + delta);
                let mb = CompileMemo::new(&before);
                let ma = CompileMemo::new(&after);
                for from in before.trap_ids() {
                    prop_assert_eq!(mb.route_row_key(from), ma.route_row_key(from));
                }
                let digest = 0x1234;
                prop_assert_ne!(
                    mb.placement_key(digest, config.mapping.name(), config.buffer_slots),
                    ma.placement_key(digest, config.mapping.name(), config.buffer_slots)
                );
            }

            /// A mapping-policy swap invalidates exactly the placement
            /// stage; swapping any downstream policy (routing, reorder,
            /// eviction) invalidates nothing.
            #[test]
            fn policy_swap_invalidates_expected_stages(
                config_idx in 0usize..16,
                digest in 0u64..u64::MAX,
            ) {
                let config = config_at(config_idx);
                let d = presets::l6(14);
                let memo = CompileMemo::new(&d);
                let key = memo.placement_key(digest, config.mapping.name(), config.buffer_slots);

                let mut swapped = config;
                swapped.mapping = match config.mapping {
                    MappingKind::RoundRobin => MappingKind::UsageWeighted,
                    MappingKind::UsageWeighted => MappingKind::RoundRobin,
                };
                prop_assert_ne!(
                    key,
                    memo.placement_key(digest, swapped.mapping.name(), swapped.buffer_slots)
                );

                // Downstream-policy swaps leave the placement key alone
                // (the key never sees routing/reorder/eviction), and
                // route stages are policy-blind by construction.
                prop_assert_eq!(
                    key,
                    memo.placement_key(digest, config.mapping.name(), config.buffer_slots)
                );
                prop_assert_eq!(
                    memo.route_row_key(TrapId(2)),
                    CompileMemo::new(&d).route_row_key(TrapId(2))
                );
            }
        }
    }
}
