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
use crate::topology::{Device, NodeRef, MAX_DEVICE_NODES};
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
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
/// the frontier heap, sized once per device and reused across searches.
///
/// The caller owns the arena. The compiler holds one for a whole
/// compile and hands it to every [`RouteCache::first_leg_weighted`]
/// query, so the congestion-aware router's per-hop searches allocate
/// nothing after the first. [`RouteCache::warm`] reuses one across an
/// entire all-pairs sweep of row fills; a lazily filled cache row and
/// the one-off [`Device::route`] each build their own.
#[derive(Debug, Default)]
pub struct RouteScratch {
    /// Per node: best known cost from the current source.
    dist: Vec<u64>,
    /// Per node: packed `(parent node index << 32) | segment raw id`,
    /// or [`NO_PREV`].
    prev: Vec<u64>,
    /// Frontier of packed `(cost << NODE_BITS) | node` keys, min-first
    /// via `Reverse`.
    heap: BinaryHeap<Reverse<u64>>,
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

/// Low bits of a packed frontier key that hold the node index. Nodes are
/// traps then junctions, fewer than 2 × [`MAX_DEVICE_NODES`] = 2^13.
///
/// The cost in the high bits stays below 2^51, so the packing is exact.
/// Weights are positive, so a settled path repeats no node and has fewer
/// than 2^13 edges (a candidate is a settled path plus one edge). An
/// edge costs its length (at most [`crate::MAX_SEGMENT_LENGTH`], under
/// 2^19), an entry weight (at most [`TRAP_WEIGHT`], or
/// [`JUNCTION_WEIGHT`] plus a junction penalty) and a segment penalty.
/// With every penalty below 2^36, an edge costs under 2^38 and a path
/// under 2^51; the kernel asserts the bound on every cost it records.
const NODE_BITS: u32 = 13;
const NODE_MASK: u64 = (1 << NODE_BITS) - 1;
const _: () = assert!(2 * MAX_DEVICE_NODES as u64 <= 1 << NODE_BITS);

/// One directed edge of a [`FlatGraph`] node.
#[derive(Debug, Clone, Copy)]
struct Edge {
    /// Flat index of the node at the segment's other end.
    to: u32,
    /// Raw id of the segment.
    segment: u32,
    /// Segment length in unit segments.
    length: u32,
}

/// A device's topology graph as flat adjacency (CSR) over the node index
/// space, traps then junctions, built once per [`RouteCache`].
///
/// Node `u`'s edges are `edges[offsets[u]..offsets[u + 1]]`, in exactly
/// the order [`Device::segments_at`] yields its segments, so equal-cost
/// paths tie-break as they always have. The graph lives beside the
/// device rather than in it: [`Device`] serializes into job ids.
#[derive(Debug)]
struct FlatGraph {
    n_traps: usize,
    offsets: Box<[u32]>,
    edges: Box<[Edge]>,
}

impl FlatGraph {
    fn new(device: &Device) -> Self {
        let n_traps = device.trap_count();
        let n = n_traps + device.junction_count();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut edges = Vec::with_capacity(2 * device.segment_count());
        offsets.push(0);
        for u in 0..n {
            let u_node = if u < n_traps {
                NodeRef::Trap(TrapId(u as u32))
            } else {
                NodeRef::Junction(JunctionId((u - n_traps) as u32))
            };
            for s in device.segments_at(u_node) {
                let seg = device.segment(s);
                if let Some(v) = seg.other_end(u_node) {
                    edges.push(Edge {
                        to: flat_index(n_traps, v) as u32,
                        segment: s.0,
                        length: seg.length(),
                    });
                }
            }
            offsets.push(edges.len() as u32);
        }
        FlatGraph {
            n_traps,
            offsets: offsets.into(),
            edges: edges.into(),
        }
    }

    /// Checks a per-pair query's endpoints, then runs [`FlatGraph::dijkstra`]
    /// until `to` is settled.
    fn search(
        &self,
        from: TrapId,
        to: TrapId,
        scratch: &mut RouteScratch,
        segment_penalty: impl Fn(SegmentId) -> u64,
        junction_penalty: impl Fn(JunctionId) -> u64,
    ) -> Result<(), RouteError> {
        assert!(from.index() < self.n_traps, "unknown trap {from}");
        assert!(to.index() < self.n_traps, "unknown trap {to}");
        if from == to {
            return Err(RouteError::SameTrap(from));
        }
        self.dijkstra(
            from.index(),
            Some(to.index()),
            scratch,
            segment_penalty,
            junction_penalty,
        );
        if scratch.dist[to.index()] == u64::MAX {
            return Err(RouteError::Unreachable(from, to));
        }
        Ok(())
    }

    /// The one Dijkstra kernel, over the flat node index space. With
    /// `to == Some(t)`, entering `t` is free and the search stops once
    /// `t` is settled (the per-pair query); with `to == None` every trap
    /// entry costs [`TRAP_WEIGHT`] and the search settles the whole
    /// component (a cache row fill).
    ///
    /// Nodes settle in `(cost, node index)` order, and a node's parent
    /// is the first settled neighbour, then its first edge, that
    /// strictly improves its cost.
    fn dijkstra(
        &self,
        from: usize,
        to: Option<usize>,
        scratch: &mut RouteScratch,
        segment_penalty: impl Fn(SegmentId) -> u64,
        junction_penalty: impl Fn(JunctionId) -> u64,
    ) {
        let n_traps = self.n_traps;
        scratch.reset(self.offsets.len() - 1);
        scratch.dist[from] = 0;
        scratch.heap.push(Reverse(from as u64));

        while let Some(Reverse(key)) = scratch.heap.pop() {
            let (d, u) = (key >> NODE_BITS, (key & NODE_MASK) as usize);
            if d > scratch.dist[u] {
                continue;
            }
            if Some(u) == to {
                break;
            }
            let edges = &self.edges[self.offsets[u] as usize..self.offsets[u + 1] as usize];
            for e in edges {
                let v = e.to as usize;
                // Cost of *entering* `v`: junctions cost a crossing (plus
                // any caller-supplied congestion penalty); traps other
                // than the final destination cost a merge+reorder+split.
                let entry = if v >= n_traps {
                    JUNCTION_WEIGHT + junction_penalty(JunctionId((v - n_traps) as u32))
                } else if Some(v) == to {
                    0
                } else {
                    TRAP_WEIGHT
                };
                let nd = d + u64::from(e.length) + segment_penalty(SegmentId(e.segment)) + entry;
                if nd < scratch.dist[v] {
                    assert!(
                        nd < 1 << (64 - NODE_BITS),
                        "route cost {nd} overflows a frontier key: a penalty is past 2^36"
                    );
                    scratch.dist[v] = nd;
                    scratch.prev[v] = ((u as u64) << 32) | u64::from(e.segment);
                    scratch.heap.push(Reverse((nd << NODE_BITS) | v as u64));
                }
            }
        }
    }
}

/// The index of `node` in the flat node space: traps, then junctions.
fn flat_index(n_traps: usize, node: NodeRef) -> usize {
    match node {
        NodeRef::Trap(t) => t.index(),
        NodeRef::Junction(j) => n_traps + j.index(),
    }
}

/// Whether no segment of `device` closes a cycle (two segments joining
/// the same pair of nodes form one), so every pair of connected nodes
/// has exactly one simple path. Union-find over the segments: the first
/// one whose ends are already connected closes a cycle.
fn is_forest(device: &Device) -> bool {
    fn find(root: &mut [usize], mut x: usize) -> usize {
        while root[x] != x {
            root[x] = root[root[x]];
            x = root[x];
        }
        x
    }
    let n_traps = device.trap_count();
    let mut root: Vec<usize> = (0..n_traps + device.junction_count()).collect();
    (0..device.segment_count()).all(|s| {
        let seg = device.segment(SegmentId(s as u32));
        let a = find(&mut root, flat_index(n_traps, seg.a()));
        let b = find(&mut root, flat_index(n_traps, seg.b()));
        root[a] = b;
        a != b
    })
}

impl Device {
    /// Computes the cheapest shuttling route from `from` to `to`.
    ///
    /// A one-off query: it flattens the graph and searches afresh on
    /// every call. Repeated queries belong in a [`RouteCache`].
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
        let mut scratch = RouteScratch::new();
        FlatGraph::new(self).search(from, to, &mut scratch, |_| 0, |_| 0)?;
        Ok(self.extract_route(from, to, &scratch))
    }

    /// Walks `scratch.prev` back from the settled, reachable trap `to`
    /// and cuts the path into [`Leg`]s at trap boundaries.
    fn extract_route(&self, from: TrapId, to: TrapId, scratch: &RouteScratch) -> Route {
        let n_traps = self.trap_count();
        let dst = to.index();
        // Every leg ends at a trap: count them to size the leg list, then
        // cut the legs off the path from its end.
        let (mut leg_count, mut cur) = (0, dst);
        while scratch.prev[cur] != NO_PREV {
            if cur < n_traps {
                leg_count += 1;
            }
            cur = (scratch.prev[cur] >> 32) as usize;
        }
        let mut legs = Vec::with_capacity(leg_count);
        let mut end = dst;
        while end != from.index() {
            let leg = self.leg_ending_at(end, scratch);
            end = leg.from.index();
            legs.push(leg);
        }
        legs.reverse();
        Route { from, to, legs }
    }

    /// The leg of the path in `scratch.prev` that ends at trap node
    /// `end`: the segments and junctions back to the previous trap.
    /// `end` must not be the search's source.
    fn leg_ending_at(&self, end: usize, scratch: &RouteScratch) -> Leg {
        let n_traps = self.trap_count();
        let parent = |node: usize| (scratch.prev[node] >> 32) as usize;
        // One walk sizes both vectors: a row fill extracts one route per
        // destination, and regrowing them dominated its cost.
        let (mut hops, mut cur) = (1, parent(end));
        while cur >= n_traps {
            hops += 1;
            cur = parent(cur);
        }
        let (from, to) = (TrapId(cur as u32), TrapId(end as u32));
        let mut segments = vec![SegmentId(0); hops];
        let mut junctions = vec![JunctionId(0); hops - 1];
        cur = end;
        for i in (0..hops).rev() {
            let packed = scratch.prev[cur];
            segments[i] = SegmentId(packed as u32);
            cur = (packed >> 32) as usize;
            if i > 0 {
                junctions[i - 1] = JunctionId((cur - n_traps) as u32);
            }
        }
        let exit_side = self
            .trap(from)
            .side_of_port(segments[0])
            // qccd-lint: allow(engine-panic) — the expect message documents a structural invariant; a violation is a bug, not an input error
            .expect("leg's first segment attaches to its source trap");
        let entry_side = self
            .trap(to)
            .side_of_port(segments[hops - 1])
            // qccd-lint: allow(engine-panic) — the expect message documents a structural invariant; a violation is a bug, not an input error
            .expect("leg's last segment attaches to its destination trap");
        let length_units = segments.iter().map(|&s| self.segment(s).length()).sum();
        Leg {
            from,
            exit_side,
            to,
            entry_side,
            segments,
            junctions,
            length_units,
        }
    }
}

/// Lazily-built memo of all-pairs shortest routes for one device.
///
/// [`Device::route`] runs a fresh Dijkstra per call; the compiler's
/// routing and eviction policies ask for the same trap pairs over and
/// over (once per gate, and once per candidate trap per eviction).
/// The cache stores one dense row of routes per source trap, filled by
/// a *single* batched Dijkstra pass on the first query from that source
/// — the common access pattern routes one source to many candidate
/// destinations, so the whole row pays for itself immediately, and
/// every later `(src, dst)` query is a dense index lookup with no
/// hashing.
///
/// The cache flattens the device graph once, on creation: row fills
/// and the congestion-aware router's
/// [`RouteCache::first_leg_weighted`] searches all run one Dijkstra
/// kernel over that flat adjacency.
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
    graph: FlatGraph,
    /// See [`RouteCache::is_forest`].
    forest: bool,
    /// One dense destination-indexed row per source trap, each batch
    /// computed at most once.
    rows: Vec<OnceLock<RouteRow>>,
}

/// A computed row of the cache: every route out of one source trap,
/// indexed by destination trap.
type RouteRow = Box<[Result<Route, RouteError>]>;

impl<'d> RouteCache<'d> {
    /// Creates an empty cache over `device`, flattening its graph. No
    /// routes are computed yet.
    pub fn new(device: &'d Device) -> Self {
        let n = device.trap_count();
        RouteCache {
            device,
            graph: FlatGraph::new(device),
            forest: is_forest(device),
            rows: (0..n).map(|_| OnceLock::new()).collect(),
        }
    }

    /// The device this cache routes over.
    pub fn device(&self) -> &'d Device {
        self.device
    }

    /// Whether the device graph is a forest: no segment closes a cycle,
    /// and no two segments join the same pair of nodes. Every pair of
    /// connected traps then has exactly one simple path (a linear device
    /// is the common case).
    pub fn is_forest(&self) -> bool {
        self.forest
    }

    /// Eagerly computes every row, reusing one scratch arena across all
    /// sources. After `warm()` every [`RouteCache::route`] call is a
    /// pure lookup.
    pub fn warm(&self) {
        let mut scratch = RouteScratch::new();
        for from in self.device.trap_ids() {
            self.rows[from.index()].get_or_init(|| self.fill_row(from, &mut scratch));
        }
    }

    /// Computes the cheapest static route from `from` to **every** trap
    /// in one Dijkstra pass, one `Result` per destination (indexed by
    /// trap id; `from` itself yields [`RouteError::SameTrap`]).
    ///
    /// Each route is *identical* to the corresponding [`Device::route`]
    /// result: the destination-specific run differs from this batched
    /// one only in the entry cost of the destination itself (0 vs
    /// `TRAP_WEIGHT`), a constant offset on every candidate path that
    /// cannot change which predecessor chain wins — and no edge out of
    /// a trap is relaxed until that trap is settled, so the chains the
    /// per-destination run would have produced are settled identically
    /// here. Pinned by the all-pairs equivalence tests below.
    fn fill_row(&self, from: TrapId, scratch: &mut RouteScratch) -> RouteRow {
        self.graph
            .dijkstra(from.index(), None, scratch, |_| 0, |_| 0);
        self.device
            .trap_ids()
            .map(|to| {
                if to == from {
                    Err(RouteError::SameTrap(from))
                } else if scratch.dist[to.index()] == u64::MAX {
                    Err(RouteError::Unreachable(from, to))
                } else {
                    Ok(self.device.extract_route(from, to, scratch))
                }
            })
            .collect()
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
        let row =
            self.rows[from.index()].get_or_init(|| self.fill_row(from, &mut RouteScratch::new()));
        row[to.index()].as_ref().map_err(Clone::clone)
    }

    /// The first leg of the cheapest shuttling route from `from` to `to`
    /// under additional per-resource penalties: `segment_penalty` is
    /// added to the cost of traversing a segment and `junction_penalty`
    /// to the cost of crossing a junction. Each penalty must stay below
    /// 2^36, which keeps every search cost exact.
    ///
    /// With all-zero penalties this is exactly the first leg of
    /// [`Device::route`]; routing policies (e.g. congestion-aware
    /// lookahead) supply penalties derived from queued traffic to steer
    /// routes around contended resources. Only the first leg is built: a
    /// router that re-plans after every hop commits nothing else.
    ///
    /// The search runs over the cache's flat graph in the caller's
    /// `scratch` arena. The compiler owns one per compile and passes it
    /// to every query, so after the first query a search allocates only
    /// the returned leg.
    ///
    /// # Errors
    ///
    /// Returns [`RouteError::SameTrap`] if `from == to` and
    /// [`RouteError::Unreachable`] if the traps are not connected.
    ///
    /// # Panics
    ///
    /// Panics if either id is out of range for this device.
    pub fn first_leg_weighted(
        &self,
        from: TrapId,
        to: TrapId,
        scratch: &mut RouteScratch,
        segment_penalty: impl Fn(SegmentId) -> u64,
        junction_penalty: impl Fn(JunctionId) -> u64,
    ) -> Result<Leg, RouteError> {
        self.graph
            .search(from, to, scratch, segment_penalty, junction_penalty)?;
        // The parent chain runs from `to` back to `from`; the last trap
        // it passes before reaching `from` ends the first leg.
        let n_traps = self.graph.n_traps;
        let (mut end, mut cur) = (to.index(), to.index());
        while scratch.prev[cur] != NO_PREV {
            cur = (scratch.prev[cur] >> 32) as usize;
            if cur < n_traps && cur != from.index() {
                end = cur;
            }
        }
        Ok(self.device.leg_ending_at(end, scratch))
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
        let mut scratch = RouteScratch::new();
        for d in [presets::l6(15), presets::g2x3(15)] {
            let cache = RouteCache::new(&d);
            for a in d.trap_ids() {
                for b in d.trap_ids() {
                    assert_eq!(
                        d.route(a, b).map(|r| r.legs()[0].clone()),
                        cache.first_leg_weighted(a, b, &mut scratch, |_| 0, |_| 0)
                    );
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
        let detour = RouteCache::new(&d)
            .first_leg_weighted(
                TrapId(0),
                TrapId(5),
                &mut RouteScratch::new(),
                |s| if banned.contains(&s) { 10_000 } else { 0 },
                |_| 0,
            )
            .unwrap();
        assert_ne!(
            detour.segments, banned,
            "penalized segments should be avoided on the grid"
        );
        // The detour is still a valid T0 -> T5 leg.
        assert_eq!(detour.from, TrapId(0));
        assert_eq!(detour.to, TrapId(5));
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
        let rerouted = RouteCache::new(&d)
            .first_leg_weighted(
                TrapId(0),
                TrapId(5),
                &mut RouteScratch::new(),
                |_| 0,
                |j| if j == avoided { 10_000 } else { 0 },
            )
            .unwrap();
        assert!(
            !rerouted.junctions.contains(&avoided),
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
            let cache = RouteCache::new(&d);
            for a in d.trap_ids() {
                let row = cache.fill_row(a, &mut scratch);
                assert_eq!(row.len(), d.trap_count());
                for b in d.trap_ids() {
                    assert_eq!(row[b.index()], d.route(a, b), "{a}->{b}");
                }
            }
        }
    }

    #[test]
    fn forest_flag_marks_lines_and_clears_on_cycles() {
        let (stub, link) = (presets::DEFAULT_GRID_STUB, presets::DEFAULT_GRID_LINK);
        for d in [
            presets::l6(15),
            presets::linear(1, 10, 4),
            presets::linear(32, 20, presets::DEFAULT_LINEAR_SPACING),
        ] {
            assert!(RouteCache::new(&d).is_forest(), "{}", d.name());
        }
        for d in [
            presets::g2x3(15),
            presets::grid(3, 4, 10, stub, link),
            presets::grid(4, 8, 20, stub, link),
            presets::grid(8, 8, 12, stub, link),
        ] {
            assert!(!RouteCache::new(&d).is_forest(), "{}", d.name());
        }
        // Two parallel segments between one pair of nodes close a cycle.
        let mut b = crate::DeviceBuilder::new("parallel");
        let (t0, t1) = (b.add_trap(4), b.add_trap(4));
        b.connect((t0, Side::Right), (t1, Side::Left), 3).unwrap();
        let tree = b.clone().build().unwrap();
        assert!(RouteCache::new(&tree).is_forest());
        b.connect((t0, Side::Left), (t1, Side::Right), 3).unwrap();
        assert!(!RouteCache::new(&b.build().unwrap()).is_forest());
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
