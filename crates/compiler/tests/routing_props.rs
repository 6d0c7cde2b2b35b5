//! Differential pin for the lookahead router's load-free shortcut.
//!
//! `RoutingKind::LookaheadCongestion` serves the cached static route's
//! first leg whenever no segment or junction on that route carries
//! load, and runs `Device::first_leg_weighted` otherwise. Either way
//! its leg must equal the first leg of a weighted search under the same
//! penalties. Each case fills a congestion window with the static legs
//! of random trap pairs, then compares the two for random queries.
//!
//! Each proptest case draws a seed for a deterministic xorshift walk,
//! so failures replay.

use proptest::prelude::*;
use qccd_compiler::policy::Congestion;
use qccd_compiler::RoutingKind;
use qccd_device::{presets, Device, RouteCache, RouteScratch, TrapId};

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

/// Fills a window of `horizon` legs with random static legs of
/// `device`, then checks the lookahead leg of random queries against
/// the weighted search. Returns how many queries found their static
/// route load-free, so callers can see both branches ran.
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
        let weighted = device
            .first_leg_weighted(
                from,
                to,
                &mut RouteScratch::new(),
                |s| congestion.segment_penalty(s),
                |j| congestion.junction_penalty(j),
            )
            .unwrap();
        assert_eq!(leg, weighted, "{} {from}->{to}", device.name());
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

/// Both branches of the router run under the property's inputs: some
/// queries find their static route load-free and some do not.
#[test]
fn property_inputs_reach_both_branches() {
    let device = presets::linear(32, 10, presets::DEFAULT_LINEAR_SPACING);
    let (mut free, mut total) = (0, 0);
    for seed in 0..16 {
        free += check_device(&device, 8, seed);
        total += 24;
    }
    assert!(0 < free && free < total, "{free} of {total} load-free");
}
