//! Differential pin for the lookahead router and its search kernel.
//!
//! `RoutingKind::LookaheadCongestion` serves the cached static route's
//! first leg on forest devices and whenever no segment or junction on
//! that route carries load, and runs `RouteCache::first_leg_weighted`
//! otherwise. Either way its leg must equal the first leg of a weighted
//! search under the same penalties. The reference here is a test-local
//! Dijkstra over the device's `NodeRef` graph, written the way the
//! search was before it moved onto the cache's flat adjacency, so it
//! pins the flat kernel too. Each case fills a congestion window with
//! the static legs of random trap pairs, then compares the router, the
//! kernel and the reference for random queries.
//!
//! Each proptest case draws a seed for a deterministic xorshift walk,
//! so failures replay.

use proptest::prelude::*;
use qccd_compiler::policy::Congestion;
use qccd_compiler::RoutingKind;
use qccd_device::{
    presets, Device, DeviceBuilder, JunctionId, Leg, NodeRef, RouteCache, RouteScratch, SegmentId,
    Side, TrapId,
};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Relative search weight of crossing one junction.
const JUNCTION_WEIGHT: u64 = 12;
/// Relative search weight of passing through an intermediate trap.
const TRAP_WEIGHT: u64 = 120;

/// The first leg of the cheapest `from` → `to` route under the given
/// penalties, by a plain Dijkstra over `NodeRef`s: settle order
/// `(cost, node index)` with traps before junctions, strict-`<`
/// relaxation in `Device::segments_at` order, entering `to` free.
fn reference_first_leg(
    device: &Device,
    from: TrapId,
    to: TrapId,
    segment_penalty: impl Fn(SegmentId) -> u64,
    junction_penalty: impl Fn(JunctionId) -> u64,
) -> Leg {
    let n_traps = device.trap_count();
    let n = n_traps + device.junction_count();
    let node_of = |i: usize| {
        if i < n_traps {
            NodeRef::Trap(TrapId(i as u32))
        } else {
            NodeRef::Junction(JunctionId((i - n_traps) as u32))
        }
    };
    let index_of = |node: NodeRef| match node {
        NodeRef::Trap(t) => t.index(),
        NodeRef::Junction(j) => n_traps + j.index(),
    };
    let mut dist = vec![u64::MAX; n];
    let mut prev: Vec<Option<(usize, SegmentId)>> = vec![None; n];
    let mut heap = BinaryHeap::new();
    dist[from.index()] = 0;
    heap.push(Reverse((0u64, from.index())));
    while let Some(Reverse((d, u))) = heap.pop() {
        if d > dist[u] {
            continue;
        }
        if u == to.index() {
            break;
        }
        let u_node = node_of(u);
        for s in device.segments_at(u_node) {
            let seg = device.segment(s);
            let v_node = seg.other_end(u_node).expect("segment touches its node");
            let entry = match v_node {
                NodeRef::Trap(t) if t == to => 0,
                NodeRef::Trap(_) => TRAP_WEIGHT,
                NodeRef::Junction(j) => JUNCTION_WEIGHT + junction_penalty(j),
            };
            let v = index_of(v_node);
            let nd = d + u64::from(seg.length()) + segment_penalty(s) + entry;
            if nd < dist[v] {
                dist[v] = nd;
                prev[v] = Some((u, s));
                heap.push(Reverse((nd, v)));
            }
        }
    }
    // The hops after `from`, each as (node entered, segment used), in
    // travel order; the first leg ends at the first trap among them.
    let mut hops = Vec::new();
    let mut cur = to.index();
    while let Some((p, s)) = prev[cur] {
        hops.push((cur, s));
        cur = p;
    }
    hops.reverse();
    let last = hops
        .iter()
        .position(|&(v, _)| v < n_traps)
        .expect("path ends at a trap");
    let first = &hops[..=last];
    let segments: Vec<SegmentId> = first.iter().map(|&(_, s)| s).collect();
    let junctions = first[..last]
        .iter()
        .map(|&(v, _)| JunctionId((v - n_traps) as u32))
        .collect();
    let leg_to = TrapId(first[last].0 as u32);
    Leg {
        from,
        exit_side: device.trap(from).side_of_port(segments[0]).unwrap(),
        to: leg_to,
        entry_side: device.trap(leg_to).side_of_port(segments[last]).unwrap(),
        length_units: segments.iter().map(|&s| device.segment(s).length()).sum(),
        segments,
        junctions,
    }
}

/// Deterministic xorshift64 — cheap query driver.
fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

fn pick(state: &mut u64, n: usize) -> usize {
    (xorshift(&mut *state) % n as u64) as usize
}

/// Two distinct random traps of `device`.
fn trap_pair(device: &Device, rng: &mut u64) -> (TrapId, TrapId) {
    let n = device.trap_count();
    let a = pick(rng, n);
    let b = (a + 1 + pick(rng, n - 1)) % n;
    (TrapId(a as u32), TrapId(b as u32))
}

/// A random tree-shaped device that is not a line: `junctions`
/// junctions in a random tree, then `traps` traps, each hung off a
/// random junction with a free slot or a random trap with a free port.
/// Junction 0 takes three traps first, so the tree always branches.
fn random_tree(junctions: usize, traps: usize, rng: &mut u64) -> Device {
    let mut b = DeviceBuilder::new("tree");
    let mut degree = vec![0usize; junctions];
    let js: Vec<JunctionId> = (0..junctions).map(|_| b.add_junction()).collect();
    for j in 1..junctions {
        let parent = loop {
            // Junction 0 keeps three slots for its traps.
            let p = pick(rng, j);
            if degree[p] < if p == 0 { 1 } else { 2 } {
                break p;
            }
        };
        b.connect(js[parent], js[j], 1 + pick(rng, 3) as u32)
            .unwrap();
        degree[parent] += 1;
        degree[j] += 1;
    }
    // Free ports of the traps placed so far.
    let mut open: Vec<(TrapId, Side)> = Vec::new();
    for i in 0..traps {
        let t = b.add_trap(4);
        let length = 1 + pick(rng, 4) as u32;
        let free: Vec<usize> = (0..junctions).filter(|&j| degree[j] < 4).collect();
        let to_junction = i < 3 || open.is_empty() || (!free.is_empty() && pick(rng, 2) == 0);
        let side = if pick(rng, 2) == 0 {
            Side::Left
        } else {
            Side::Right
        };
        if to_junction {
            let j = if i < 3 {
                0
            } else {
                free[pick(rng, free.len())]
            };
            b.connect((t, side), js[j], length).unwrap();
            degree[j] += 1;
        } else {
            let port = open.swap_remove(pick(rng, open.len()));
            b.connect((t, side), port, length).unwrap();
        }
        open.push((t, side.opposite()));
    }
    b.build().unwrap()
}

/// Fills a window of `horizon` legs with random static legs of
/// `device`, then checks the lookahead leg and the cache's weighted
/// search of random queries against the reference search. Returns how
/// many queries found their static route load-free, so callers can see
/// both branches ran.
fn check_device(device: &Device, horizon: usize, seed: u64) -> usize {
    let mut rng = seed | 1; // xorshift state must be nonzero
    let routes = RouteCache::new(device);
    let mut congestion = Congestion::with_horizon(device, horizon);
    for _ in 0..pick(&mut rng, 2 * horizon + 1) {
        let (a, b) = trap_pair(device, &mut rng);
        let route = routes.route(a, b).unwrap();
        let leg = &route.legs()[pick(&mut rng, route.legs().len())];
        congestion.commit(leg);
    }
    let mut scratch = RouteScratch::new();
    let mut load_free = 0;
    for _ in 0..24 {
        let (from, to) = trap_pair(device, &mut rng);
        let leg = RoutingKind::LookaheadCongestion
            .next_route(&routes, &congestion, &mut scratch, from, to)
            .unwrap();
        let segment_penalty = |s| congestion.segment_penalty(s);
        let junction_penalty = |j| congestion.junction_penalty(j);
        let reference = reference_first_leg(device, from, to, segment_penalty, junction_penalty);
        let weighted = routes
            .first_leg_weighted(from, to, &mut scratch, segment_penalty, junction_penalty)
            .unwrap();
        assert_eq!(weighted, reference, "{} {from}->{to}", device.name());
        assert_eq!(*leg, reference, "{} {from}->{to}", device.name());
        let fixed = routes.route(from, to).unwrap();
        if fixed.legs().iter().all(|l| {
            l.segments.iter().all(|&s| congestion.segment_load(s) == 0)
                && l.junctions
                    .iter()
                    .all(|&j| congestion.junction_load(j) == 0)
        }) {
            load_free += 1;
        }
    }
    load_free
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Linear devices: every multi-trap route passes intermediate
    /// traps, so the window often leaves a query's route untouched.
    #[test]
    fn lookahead_leg_matches_weighted_search_on_linear(
        traps in 8u32..33,
        horizon in 1usize..9,
        seed in 0u64..u64::MAX,
    ) {
        let device = presets::linear(traps, 10, presets::DEFAULT_LINEAR_SPACING);
        check_device(&device, horizon, seed);
    }

    /// Trees with junctions: one simple path per pair, like a line, but
    /// legs cross junctions and the window's penalties land on them.
    #[test]
    fn lookahead_leg_matches_weighted_search_on_trees(
        junctions in 1usize..5,
        traps in 4usize..16,
        horizon in 1usize..9,
        seed in 0u64..u64::MAX,
    ) {
        let mut rng = seed | 1;
        let device = random_tree(junctions, traps, &mut rng);
        check_device(&device, horizon, xorshift(&mut rng));
    }

    /// Grids: junction fabrics offer detours, so loaded routes are
    /// usually rerouted.
    #[test]
    fn lookahead_leg_matches_weighted_search_on_grids(
        which in 0usize..3,
        horizon in 1usize..9,
        seed in 0u64..u64::MAX,
    ) {
        let (stub, link) = (presets::DEFAULT_GRID_STUB, presets::DEFAULT_GRID_LINK);
        let device = match which {
            0 => presets::g2x3(10),
            1 => presets::grid(3, 4, 10, stub, link),
            _ => presets::grid(8, 8, 12, stub, link),
        };
        check_device(&device, horizon, seed);
    }
}

/// Both branches of the router's load check run under the property's
/// inputs: on the grids some queries find their static route load-free
/// and some do not. The linear and tree devices take the forest
/// shortcut ahead of that check.
#[test]
fn property_inputs_reach_both_branches() {
    let device = presets::grid(
        3,
        4,
        10,
        presets::DEFAULT_GRID_STUB,
        presets::DEFAULT_GRID_LINK,
    );
    assert!(!RouteCache::new(&device).is_forest());
    let (mut free, mut total) = (0, 0);
    for seed in 0..16 {
        free += check_device(&device, 1 + seed as usize % 8, seed);
        total += 24;
    }
    assert!(0 < free && free < total, "{free} of {total} load-free");
    let line = presets::linear(8, 10, presets::DEFAULT_LINEAR_SPACING);
    assert!(RouteCache::new(&line).is_forest());
    for seed in 0..16 {
        let tree = random_tree(1 + seed as usize % 4, 5 + seed as usize, &mut (seed | 1));
        assert!(RouteCache::new(&tree).is_forest());
        assert!(tree.junction_count() > 0, "a tree, not a line");
    }
}
