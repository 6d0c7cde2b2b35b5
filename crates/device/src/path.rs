//! Shuttling-route computation.
//!
//! The compiler moves an ion from one trap to another along the *shortest
//! shuttling path* (paper §VI). A route is found with Dijkstra over the
//! topology graph, with weights chosen to reflect the paper's cost
//! hierarchy: segment units are cheap, junction crossings cost more, and
//! passing through an intermediate trap is expensive because it forces a
//! merge, a chain reorder and a second split (Fig. 4).
//!
//! The resulting node path is cut into [`Leg`]s at trap boundaries: each
//! leg is one split→move→merge flight between traps, crossing only
//! junctions.

use crate::ids::{JunctionId, SegmentId, Side, TrapId};
use crate::topology::{Device, NodeRef};
use serde::{Deserialize, Serialize};
use std::collections::BinaryHeap;
use std::fmt;
use std::sync::OnceLock;

/// Packed "no predecessor" sentinel in [`RouteScratch::prev`].
const NO_PREV: u64 = u64::MAX;

/// Relative Dijkstra weight of crossing one junction (vs one segment unit).
const JUNCTION_WEIGHT: u64 = 12;
/// Relative Dijkstra weight of passing through an intermediate trap.
const TRAP_WEIGHT: u64 = 120;

/// One split→move→merge flight between two traps, crossing only junctions.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Leg {
    /// Source trap.
    pub from: TrapId,
    /// End of the source chain the ion departs from.
    pub exit_side: Side,
    /// Destination trap.
    pub to: TrapId,
    /// End of the destination chain the ion arrives at.
    pub entry_side: Side,
    /// Segments traversed, in order.
    pub segments: Vec<SegmentId>,
    /// Junctions crossed, in order.
    pub junctions: Vec<JunctionId>,
    /// Total length in unit segments.
    pub length_units: u32,
}

/// A complete route between two traps: one or more [`Leg`]s.
///
/// Multi-leg routes only occur on topologies where some trap pairs have no
/// junction-only path (e.g. linear devices); the traps between legs are the
/// "intermediate traps" of Fig. 4.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Route {
    from: TrapId,
    to: TrapId,
    legs: Vec<Leg>,
}

impl Route {
    /// Source trap.
    pub fn from(&self) -> TrapId {
        self.from
    }

    /// Destination trap.
    pub fn to(&self) -> TrapId {
        self.to
    }

    /// The legs, in travel order.
    pub fn legs(&self) -> &[Leg] {
        &self.legs
    }

    /// Traps the ion must merge into and split from along the way
    /// (destinations of all but the last leg).
    pub fn intermediate_traps(&self) -> Vec<TrapId> {
        self.legs[..self.legs.len() - 1]
            .iter()
            .map(|l| l.to)
            .collect()
    }

    /// Total segment units over all legs.
    pub fn total_length_units(&self) -> u32 {
        self.legs.iter().map(|l| l.length_units).sum()
    }

    /// Total junctions crossed over all legs.
    pub fn junction_count(&self) -> usize {
        self.legs.iter().map(|l| l.junctions.len()).sum()
    }
}

impl fmt::Display for Route {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.from)?;
        for leg in &self.legs {
            write!(f, " -[{}u]-> {}", leg.length_units, leg.to)?;
        }
        Ok(())
    }
}

/// Errors from route computation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RouteError {
    /// Source and destination are the same trap.
    SameTrap(TrapId),
    /// No path exists between the traps.
    Unreachable(TrapId, TrapId),
}

impl fmt::Display for RouteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RouteError::SameTrap(t) => write!(f, "route endpoints are both {t}"),
            RouteError::Unreachable(a, b) => write!(f, "no shuttling path from {a} to {b}"),
        }
    }
}

impl std::error::Error for RouteError {}

/// Reusable flat Dijkstra arena: distance and packed-parent arrays plus
/// the frontier heap, sized once per device and reused across sources.
///
/// A per-pair [`Device::route`] call allocates all three afresh; the
/// batched [`Device::routes_from_with`] path reuses one arena across an
/// entire all-pairs sweep (n Dijkstra runs, zero reallocation after the
/// first), which is what [`RouteCache::warm`] and the cache's
/// row-at-a-time fills ride on.
#[derive(Debug, Default)]
pub struct RouteScratch {
    /// Per node: best known cost from the current source.
    dist: Vec<u64>,
    /// Per node: packed `(parent node index << 32) | segment raw id`,
    /// or [`NO_PREV`].
    prev: Vec<u64>,
    /// Frontier, min-first via `Reverse`.
    heap: BinaryHeap<std::cmp::Reverse<(u64, usize)>>,
}

impl RouteScratch {
    /// Creates an empty arena; buffers are sized on first use.
    pub fn new() -> Self {
        RouteScratch::default()
    }

    /// Resets for a fresh run over `n` nodes, keeping allocations.
    fn reset(&mut self, n: usize) {
        self.dist.clear();
        self.dist.resize(n, u64::MAX);
        self.prev.clear();
        self.prev.resize(n, NO_PREV);
        self.heap.clear();
    }
}

impl Device {
    /// Computes the cheapest shuttling route from `from` to `to`.
    ///
    /// # Errors
    ///
    /// Returns [`RouteError::SameTrap`] if `from == to` and
    /// [`RouteError::Unreachable`] if the traps are not connected.
    ///
    /// # Panics
    ///
    /// Panics if either id is out of range for this device.
    pub fn route(&self, from: TrapId, to: TrapId) -> Result<Route, RouteError> {
        self.route_weighted(from, to, &|_| 0, &|_| 0)
    }

    /// Computes the cheapest shuttling route under additional per-resource
    /// penalties: `segment_penalty` is added to the cost of traversing a
    /// segment and `junction_penalty` to the cost of crossing a junction.
    ///
    /// With all-zero penalties this is exactly [`Device::route`]; routing
    /// policies (e.g. congestion-aware lookahead) supply penalties derived
    /// from queued traffic to steer routes around contended resources.
    ///
    /// # Errors
    ///
    /// Returns [`RouteError::SameTrap`] if `from == to` and
    /// [`RouteError::Unreachable`] if the traps are not connected.
    ///
    /// # Panics
    ///
    /// Panics if either id is out of range for this device.
    pub fn route_weighted(
        &self,
        from: TrapId,
        to: TrapId,
        segment_penalty: &dyn Fn(SegmentId) -> u64,
        junction_penalty: &dyn Fn(JunctionId) -> u64,
    ) -> Result<Route, RouteError> {
        assert!(from.index() < self.trap_count(), "unknown trap {from}");
        assert!(to.index() < self.trap_count(), "unknown trap {to}");
        if from == to {
            return Err(RouteError::SameTrap(from));
        }
        let mut scratch = RouteScratch::new();
        self.dijkstra(
            from,
            Some(to),
            &mut scratch,
            segment_penalty,
            junction_penalty,
        );
        self.extract_route(from, to, &scratch)
    }

    /// Computes the cheapest static route from `from` to **every** trap
    /// in one Dijkstra pass over `scratch`'s flat distance/parent
    /// arrays, returning one `Result` per destination (indexed by trap
    /// id; `from` itself yields [`RouteError::SameTrap`]).
    ///
    /// Each returned route is *identical* to the corresponding
    /// [`Device::route`] result: the destination-specific run differs
    /// from this batched one only in the entry cost of the destination
    /// itself (0 vs `TRAP_WEIGHT`), a constant offset on every
    /// candidate path that cannot change which predecessor chain wins —
    /// and no edge out of a trap is relaxed until that trap is settled,
    /// so the chains the per-destination run would have produced are
    /// settled identically here. Pinned by the all-pairs equivalence
    /// tests below.
    ///
    /// # Panics
    ///
    /// Panics if `from` is out of range for this device.
    pub fn routes_from_with(
        &self,
        from: TrapId,
        scratch: &mut RouteScratch,
    ) -> Vec<Result<Route, RouteError>> {
        assert!(from.index() < self.trap_count(), "unknown trap {from}");
        self.dijkstra(from, None, scratch, &|_| 0, &|_| 0);
        self.trap_ids()
            .map(|to| {
                if to == from {
                    Err(RouteError::SameTrap(from))
                } else {
                    self.extract_route(from, to, scratch)
                }
            })
            .collect()
    }

    /// The shared Dijkstra core over the flat node index space (traps
    /// then junctions). With `to == Some(t)`, entering `t` is free and
    /// the search stops once `t` is settled (the per-pair query); with
    /// `to == None` every trap entry costs [`TRAP_WEIGHT`] and the
    /// search settles the whole component (the batched all-destinations
    /// query).
    fn dijkstra(
        &self,
        from: TrapId,
        to: Option<TrapId>,
        scratch: &mut RouteScratch,
        segment_penalty: &dyn Fn(SegmentId) -> u64,
        junction_penalty: &dyn Fn(JunctionId) -> u64,
    ) {
        let n_traps = self.trap_count();
        let n_nodes = n_traps + self.junction_count();
        let node_of = |i: usize| {
            if i < n_traps {
                NodeRef::Trap(TrapId(i as u32))
            } else {
                NodeRef::Junction(JunctionId((i - n_traps) as u32))
            }
        };

        // Cost of *entering* a node: junctions cost a crossing (plus any
        // caller-supplied congestion penalty); traps other than the final
        // destination cost a merge+reorder+split.
        let entry_cost = |node: NodeRef| -> u64 {
            match node {
                NodeRef::Trap(t) if Some(t) == to => 0,
                NodeRef::Trap(_) => TRAP_WEIGHT,
                NodeRef::Junction(j) => JUNCTION_WEIGHT + junction_penalty(j),
            }
        };

        scratch.reset(n_nodes);
        let src = from.index();
        scratch.dist[src] = 0;
        scratch.heap.push(std::cmp::Reverse((0, src)));

        while let Some(std::cmp::Reverse((d, u))) = scratch.heap.pop() {
            if d > scratch.dist[u] {
                continue;
            }
            if Some(u) == to.map(TrapId::index) {
                break;
            }
            let u_node = node_of(u);
            for s in self.segments_at(u_node) {
                let seg = self.segment(s);
                let Some(v_node) = seg.other_end(u_node) else {
                    continue;
                };
                let v = match v_node {
                    NodeRef::Trap(t) => t.index(),
                    NodeRef::Junction(j) => n_traps + j.index(),
                };
                let nd = d + u64::from(seg.length()) + segment_penalty(s) + entry_cost(v_node);
                if nd < scratch.dist[v] {
                    scratch.dist[v] = nd;
                    scratch.prev[v] = ((u as u64) << 32) | u64::from(s.0);
                    scratch.heap.push(std::cmp::Reverse((nd, v)));
                }
            }
        }
    }

    /// Walks `scratch.prev` back from `to` and cuts the node/segment
    /// path into [`Leg`]s at trap boundaries.
    fn extract_route(
        &self,
        from: TrapId,
        to: TrapId,
        scratch: &RouteScratch,
    ) -> Result<Route, RouteError> {
        let n_traps = self.trap_count();
        let node_of = |i: usize| {
            if i < n_traps {
                NodeRef::Trap(TrapId(i as u32))
            } else {
                NodeRef::Junction(JunctionId((i - n_traps) as u32))
            }
        };
        let dst = to.index();
        if scratch.dist[dst] == u64::MAX {
            return Err(RouteError::Unreachable(from, to));
        }

        // Reconstruct the node/segment path. One walk of the parent
        // chain sizes every vector up front: a row fill extracts one
        // route per destination, and regrowing them dominated its cost.
        let (mut hops, mut leg_count, mut cur) = (0, 0, dst);
        while scratch.prev[cur] != NO_PREV {
            hops += 1;
            if cur < n_traps {
                leg_count += 1; // every leg ends at a trap
            }
            cur = (scratch.prev[cur] >> 32) as usize;
        }
        let mut nodes: Vec<NodeRef> = Vec::with_capacity(hops + 1);
        nodes.push(NodeRef::Trap(to));
        let mut segs: Vec<SegmentId> = Vec::with_capacity(hops);
        cur = dst;
        while scratch.prev[cur] != NO_PREV {
            let packed = scratch.prev[cur];
            let p = (packed >> 32) as usize;
            segs.push(SegmentId(packed as u32));
            nodes.push(node_of(p));
            cur = p;
        }
        nodes.reverse();
        segs.reverse();

        // Cut into legs at trap nodes.
        let mut legs = Vec::with_capacity(leg_count);
        let mut leg_start_trap = from;
        let mut leg_segments: Vec<SegmentId> = Vec::new();
        let mut leg_junctions: Vec<JunctionId> = Vec::new();
        for (i, seg_id) in segs.iter().enumerate() {
            leg_segments.push(*seg_id);
            match nodes[i + 1] {
                NodeRef::Junction(j) => leg_junctions.push(j),
                NodeRef::Trap(t) => {
                    let first = leg_segments[0];
                    // qccd-lint: allow(engine-panic) — the expect message documents a structural invariant; a violation is a bug, not an input error
                    let last = *leg_segments.last().expect("non-empty leg");
                    let exit_side = self
                        .trap(leg_start_trap)
                        .side_of_port(first)
                        // qccd-lint: allow(engine-panic) — the expect message documents a structural invariant; a violation is a bug, not an input error
                        .expect("leg's first segment attaches to its source trap");
                    let entry_side = self
                        .trap(t)
                        .side_of_port(last)
                        // qccd-lint: allow(engine-panic) — the expect message documents a structural invariant; a violation is a bug, not an input error
                        .expect("leg's last segment attaches to its destination trap");
                    let length_units = leg_segments.iter().map(|&s| self.segment(s).length()).sum();
                    legs.push(Leg {
                        from: leg_start_trap,
                        exit_side,
                        to: t,
                        entry_side,
                        segments: std::mem::take(&mut leg_segments),
                        junctions: std::mem::take(&mut leg_junctions),
                        length_units,
                    });
                    leg_start_trap = t;
                }
            }
        }
        debug_assert!(leg_segments.is_empty(), "path must end at the target trap");
        Ok(Route { from, to, legs })
    }
}

/// Lazily-built memo of all-pairs shortest routes for one device.
///
/// [`Device::route`] runs a fresh Dijkstra per call; the compiler's
/// routing and eviction policies ask for the same trap pairs over and
/// over (once per gate, and once per candidate trap per eviction).
/// The cache stores one dense row of routes per source trap, filled by
/// a *single* batched Dijkstra pass ([`Device::routes_from_with`]) on
/// the first query from that source — the common access pattern routes
/// one source to many candidate destinations, so the whole row pays
/// for itself immediately, and every later `(src, dst)` query is a
/// dense index lookup with no hashing.
///
/// The cache is `Sync`: sweep workers can share one per device.
///
/// # Example
///
/// ```
/// use qccd_device::{presets, RouteCache, TrapId};
///
/// let device = presets::g2x3(20);
/// let cache = RouteCache::new(&device);
/// let first = cache.route(TrapId(0), TrapId(5)).unwrap().clone();
/// // The second query is a lookup, not a Dijkstra run.
/// assert_eq!(cache.route(TrapId(0), TrapId(5)).unwrap(), &first);
/// assert_eq!(&first, &device.route(TrapId(0), TrapId(5)).unwrap());
/// ```
#[derive(Debug)]
pub struct RouteCache<'d> {
    device: &'d Device,
    /// One dense destination-indexed row per source trap, each batch
    /// computed at most once.
    rows: Vec<OnceLock<RouteRow>>,
}

/// A computed row of the cache: every route out of one source trap,
/// indexed by destination trap.
type RouteRow = Box<[Result<Route, RouteError>]>;

impl<'d> RouteCache<'d> {
    /// Creates an empty cache over `device`. No routes are computed yet.
    pub fn new(device: &'d Device) -> Self {
        let n = device.trap_count();
        RouteCache {
            device,
            rows: (0..n).map(|_| OnceLock::new()).collect(),
        }
    }

    /// The device this cache routes over.
    pub fn device(&self) -> &'d Device {
        self.device
    }

    /// Eagerly computes every row, reusing one scratch arena across all
    /// sources. After `warm()` every [`RouteCache::route`] call is a
    /// pure lookup.
    pub fn warm(&self) {
        let mut scratch = RouteScratch::new();
        for from in self.device.trap_ids() {
            self.rows[from.index()]
                .get_or_init(|| self.device.routes_from_with(from, &mut scratch).into());
        }
    }

    /// A serializable snapshot of one computed row: `Some(route)` per
    /// reachable destination, `None` where routing failed. Returns
    /// `None` if the row has not been computed yet.
    ///
    /// [`RouteError`] has exactly two variants and both are implied by
    /// position — the diagonal is always [`RouteError::SameTrap`] and
    /// any other failure is [`RouteError::Unreachable`] — so the
    /// `Option` encoding loses nothing: [`RouteCache::preload`]
    /// reconstructs the errors exactly.
    ///
    /// # Panics
    ///
    /// Panics if `from` is out of range for this device.
    pub fn snapshot(&self, from: TrapId) -> Option<Vec<Option<Route>>> {
        assert!(
            from.index() < self.device.trap_count(),
            "unknown trap {from}"
        );
        self.rows[from.index()]
            .get()
            .map(|row| row.iter().map(|r| r.as_ref().ok().cloned()).collect())
    }

    /// Installs a previously [`RouteCache::snapshot`]ted row for `from`
    /// without running Dijkstra, reconstructing the positional errors
    /// (`None` on the diagonal → [`RouteError::SameTrap`], elsewhere →
    /// [`RouteError::Unreachable`]).
    ///
    /// Returns `true` if the row was installed; `false` (leaving the
    /// cache untouched, to be filled by Dijkstra later) if the row was
    /// already computed or the snapshot does not fit this device — wrong
    /// length, a route on the diagonal, or endpoint ids that disagree
    /// with their position.
    ///
    /// # Panics
    ///
    /// Panics if `from` is out of range for this device.
    pub fn preload(&self, from: TrapId, row: Vec<Option<Route>>) -> bool {
        let n = self.device.trap_count();
        assert!(from.index() < n, "unknown trap {from}");
        if row.len() != n {
            return false;
        }
        let consistent = row.iter().enumerate().all(|(i, r)| match r {
            Some(r) => r.from() == from && r.to() == TrapId(i as u32) && i != from.index(),
            None => true,
        });
        if !consistent {
            return false;
        }
        let rebuilt: RouteRow = row
            .into_iter()
            .enumerate()
            .map(|(i, r)| match r {
                Some(r) => Ok(r),
                None if i == from.index() => Err(RouteError::SameTrap(from)),
                None => Err(RouteError::Unreachable(from, TrapId(i as u32))),
            })
            .collect();
        self.rows[from.index()].set(rebuilt).is_ok()
    }

    /// The cheapest route from `from` to `to`. The first query from
    /// any source computes that source's whole row in one batched
    /// Dijkstra pass; later queries are lookups. Identical to
    /// [`Device::route`] in every outcome, including errors.
    ///
    /// # Errors
    ///
    /// Returns the same [`RouteError`]s as [`Device::route`] (also
    /// memoized).
    ///
    /// # Panics
    ///
    /// Panics if either id is out of range for this device.
    pub fn route(&self, from: TrapId, to: TrapId) -> Result<&Route, RouteError> {
        let n = self.device.trap_count();
        assert!(from.index() < n, "unknown trap {from}");
        assert!(to.index() < n, "unknown trap {to}");
        let row = self.rows[from.index()].get_or_init(|| {
            let mut scratch = RouteScratch::new();
            self.device.routes_from_with(from, &mut scratch).into()
        });
        row[to.index()].as_ref().map_err(Clone::clone)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;

    #[test]
    fn adjacent_linear_route_is_one_leg() {
        let d = presets::l6(15);
        let r = d.route(TrapId(1), TrapId(2)).unwrap();
        assert_eq!(r.legs().len(), 1);
        let leg = &r.legs()[0];
        assert_eq!(leg.exit_side, Side::Right);
        assert_eq!(leg.entry_side, Side::Left);
        assert_eq!(leg.length_units, 4);
        assert!(leg.junctions.is_empty());
    }

    #[test]
    fn linear_route_direction_flips_sides() {
        let d = presets::l6(15);
        let r = d.route(TrapId(3), TrapId(2)).unwrap();
        let leg = &r.legs()[0];
        assert_eq!(leg.exit_side, Side::Left);
        assert_eq!(leg.entry_side, Side::Right);
    }

    #[test]
    fn long_linear_route_passes_every_intermediate_trap() {
        let d = presets::l6(15);
        let r = d.route(TrapId(0), TrapId(5)).unwrap();
        assert_eq!(r.legs().len(), 5);
        assert_eq!(
            r.intermediate_traps(),
            vec![TrapId(1), TrapId(2), TrapId(3), TrapId(4)]
        );
        assert_eq!(r.total_length_units(), 20);
        assert_eq!(r.junction_count(), 0);
    }

    #[test]
    fn grid_routes_avoid_intermediate_traps() {
        let d = presets::g2x3(15);
        for a in d.trap_ids() {
            for b in d.trap_ids() {
                if a == b {
                    continue;
                }
                let r = d.route(a, b).unwrap();
                assert_eq!(r.legs().len(), 1, "{a}->{b} used intermediate traps");
                assert!(
                    !r.legs()[0].junctions.is_empty(),
                    "{a}->{b} crossed no junction"
                );
            }
        }
    }

    #[test]
    fn grid_adjacent_crosses_one_junction_diagonal_more() {
        let d = presets::g2x3(15);
        // T0 and T1 share junction J(0,0).
        let r01 = d.route(TrapId(0), TrapId(1)).unwrap();
        assert_eq!(r01.junction_count(), 1);
        // T0 (row 0, col 0) to T5 (row 1, col 2) needs three crossings.
        let r05 = d.route(TrapId(0), TrapId(5)).unwrap();
        assert_eq!(r05.junction_count(), 3);
    }

    #[test]
    fn same_trap_route_is_an_error() {
        let d = presets::l6(15);
        assert_eq!(
            d.route(TrapId(2), TrapId(2)),
            Err(RouteError::SameTrap(TrapId(2)))
        );
    }

    #[test]
    fn route_is_symmetric_in_cost() {
        let d = presets::g2x3(15);
        let ab = d.route(TrapId(0), TrapId(4)).unwrap();
        let ba = d.route(TrapId(4), TrapId(0)).unwrap();
        assert_eq!(ab.total_length_units(), ba.total_length_units());
        assert_eq!(ab.junction_count(), ba.junction_count());
    }

    #[test]
    fn display_shows_hops() {
        let d = presets::l6(15);
        let r = d.route(TrapId(0), TrapId(2)).unwrap();
        assert_eq!(r.to_string(), "T0 -[4u]-> T1 -[4u]-> T2");
    }

    #[test]
    fn zero_penalties_reproduce_route_exactly() {
        for d in [presets::l6(15), presets::g2x3(15)] {
            for a in d.trap_ids() {
                for b in d.trap_ids() {
                    assert_eq!(d.route(a, b), d.route_weighted(a, b, &|_| 0, &|_| 0));
                }
            }
        }
    }

    #[test]
    fn segment_penalty_reroutes_around_contention() {
        // G2x3: T0 -> T1 crosses junction J0 via T0's right-port segment.
        // Penalizing every segment of the preferred route forces a
        // different (longer) path if one exists, or the same route at
        // higher internal cost when the topology admits no detour.
        let d = presets::g2x3(15);
        let base = d.route(TrapId(0), TrapId(5)).unwrap();
        let banned: Vec<SegmentId> = base.legs()[0].segments.clone();
        let detour = d
            .route_weighted(
                TrapId(0),
                TrapId(5),
                &|s| if banned.contains(&s) { 10_000 } else { 0 },
                &|_| 0,
            )
            .unwrap();
        assert_ne!(
            detour.legs()[0].segments,
            banned,
            "penalized segments should be avoided on the grid"
        );
        // The detour is still a valid T0 -> T5 route.
        assert_eq!(detour.from(), TrapId(0));
        assert_eq!(detour.to(), TrapId(5));
    }

    #[test]
    fn junction_penalty_steers_grid_routes() {
        // T0's single exit port makes its first junction unavoidable, but
        // the grid offers a choice of *interior* crossings: penalizing a
        // mid-route junction must change the crossing sequence.
        let d = presets::g2x3(15);
        let base = d.route(TrapId(0), TrapId(5)).unwrap();
        let crossed = base.legs()[0].junctions.clone();
        assert!(crossed.len() >= 2, "diagonal route crosses junctions");
        let avoided = crossed[1];
        let rerouted = d
            .route_weighted(TrapId(0), TrapId(5), &|_| 0, &|j| {
                if j == avoided {
                    10_000
                } else {
                    0
                }
            })
            .unwrap();
        assert!(
            !rerouted.legs()[0].junctions.contains(&avoided),
            "a prohibitively expensive interior junction should be avoided"
        );
    }

    #[test]
    fn route_cache_matches_device_for_all_pairs() {
        for d in [presets::l6(15), presets::g2x3(15)] {
            let cache = RouteCache::new(&d);
            for a in d.trap_ids() {
                for b in d.trap_ids() {
                    let direct = d.route(a, b);
                    let cached = cache.route(a, b).cloned();
                    assert_eq!(direct, cached, "{a}->{b}");
                    // Second lookup hits the memo and agrees with itself.
                    assert_eq!(cached, cache.route(a, b).cloned());
                }
            }
        }
    }

    #[test]
    fn batched_routes_match_per_pair_dijkstra_exactly() {
        // The bit-identical contract for the batched pass: one generic
        // Dijkstra per source must reproduce every per-destination
        // early-break run, including errors, on both topology families.
        let mut scratch = RouteScratch::new();
        for d in [presets::l6(15), presets::g2x3(15)] {
            for a in d.trap_ids() {
                let row = d.routes_from_with(a, &mut scratch);
                assert_eq!(row.len(), d.trap_count());
                for b in d.trap_ids() {
                    assert_eq!(row[b.index()], d.route(a, b), "{a}->{b}");
                }
            }
        }
    }

    #[test]
    fn warmed_cache_matches_lazy_cache() {
        let d = presets::g2x3(15);
        let warmed = RouteCache::new(&d);
        warmed.warm();
        let lazy = RouteCache::new(&d);
        for a in d.trap_ids() {
            for b in d.trap_ids() {
                assert_eq!(warmed.route(a, b), lazy.route(a, b), "{a}->{b}");
            }
        }
    }

    #[test]
    fn route_cache_memoizes_errors_too() {
        let d = presets::l6(15);
        let cache = RouteCache::new(&d);
        assert_eq!(
            cache.route(TrapId(2), TrapId(2)),
            Err(RouteError::SameTrap(TrapId(2)))
        );
        assert_eq!(
            cache.route(TrapId(2), TrapId(2)),
            Err(RouteError::SameTrap(TrapId(2)))
        );
    }

    #[test]
    fn snapshot_preload_roundtrip_is_exact() {
        for d in [presets::l6(15), presets::g2x3(15)] {
            let cold = RouteCache::new(&d);
            cold.warm();
            let warmed = RouteCache::new(&d);
            for a in d.trap_ids() {
                let snap = cold.snapshot(a).expect("warmed row");
                assert!(warmed.preload(a, snap), "row {a} should install");
            }
            for a in d.trap_ids() {
                for b in d.trap_ids() {
                    assert_eq!(cold.route(a, b), warmed.route(a, b), "{a}->{b}");
                }
            }
        }
    }

    #[test]
    fn snapshot_of_uncomputed_row_is_none() {
        let d = presets::l6(15);
        let cache = RouteCache::new(&d);
        assert_eq!(cache.snapshot(TrapId(0)), None);
        cache.route(TrapId(0), TrapId(1)).unwrap();
        assert!(cache.snapshot(TrapId(0)).is_some());
        assert_eq!(cache.snapshot(TrapId(3)), None);
    }

    #[test]
    fn preload_rejects_misfit_rows() {
        let d = presets::l6(15);
        let cache = RouteCache::new(&d);
        // Wrong length.
        assert!(!cache.preload(TrapId(0), vec![None; 3]));
        // A route sitting at the wrong position.
        let misplaced = d.route(TrapId(0), TrapId(2)).unwrap();
        let mut row: Vec<Option<Route>> = vec![None; d.trap_count()];
        row[1] = Some(misplaced);
        assert!(!cache.preload(TrapId(0), row));
        // A rejected preload leaves the row free for Dijkstra.
        assert_eq!(
            cache.route(TrapId(0), TrapId(1)).cloned(),
            d.route(TrapId(0), TrapId(1))
        );
        // An already-computed row cannot be overwritten.
        let snap = cache.snapshot(TrapId(0)).unwrap();
        assert!(!cache.preload(TrapId(0), snap));
    }

    #[test]
    fn route_cache_is_shareable_across_threads() {
        let d = presets::g2x3(15);
        let cache = RouteCache::new(&d);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for a in d.trap_ids() {
                        for b in d.trap_ids() {
                            if a != b {
                                assert!(cache.route(a, b).is_ok());
                            }
                        }
                    }
                });
            }
        });
    }

    #[test]
    fn leg_segments_are_contiguous() {
        let d = presets::g2x3(15);
        let r = d.route(TrapId(0), TrapId(5)).unwrap();
        let leg = &r.legs()[0];
        // Walk the leg: each consecutive segment pair shares a junction.
        for w in leg.segments.windows(2) {
            let s0 = d.segment(w[0]);
            let s1 = d.segment(w[1]);
            let shared = [s0.a(), s0.b()]
                .into_iter()
                .any(|n| matches!(n, NodeRef::Junction(_)) && (s1.a() == n || s1.b() == n));
            assert!(
                shared,
                "segments {} and {} do not meet at a junction",
                w[0], w[1]
            );
        }
    }
}
