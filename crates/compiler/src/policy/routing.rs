//! Routing policies (pipeline seam 2) and the congestion bookkeeping
//! they consult.

use crate::config::RoutingKind;
use crate::error::CompileError;
use qccd_device::{Device, JunctionId, Leg, Route, RouteCache, SegmentId, TrapId};

/// The resource claims of one committed leg, held in a reused ring
/// slot. The id vectors keep their allocations across reuse (clear +
/// extend), so a warm `Congestion` window commits legs with zero
/// allocation.
#[derive(Debug, Clone, Default)]
struct ClaimSlot {
    segments: Vec<SegmentId>,
    junctions: Vec<JunctionId>,
}

/// Sliding-window tally of the segments and junctions claimed by the
/// most recently committed route legs.
///
/// The compiler emits a total order, so "in flight" is approximated by
/// the last [`Congestion::DEFAULT_HORIZON`] committed legs — the moves
/// the simulator's resource timeline will be draining when the next
/// shuttle launches. Deterministic by construction.
///
/// Internally a fixed ring of `horizon` reused claim slots plus
/// per-segment/per-junction load counters updated incrementally: a
/// commit bumps the new leg's counters, retires the slot it overwrites,
/// and never clones the `Leg` or reallocates once the ring is warm.
#[derive(Debug, Clone)]
pub struct Congestion {
    /// Ring of the last `horizon` committed legs' claims.
    ring: Vec<ClaimSlot>,
    /// Ring slot the *next* commit writes (oldest live slot once full).
    head: usize,
    /// Live slots, `0..=ring.len()`.
    len: usize,
    segment_load: Vec<u32>,
    junction_load: Vec<u32>,
}

impl Congestion {
    /// How many committed legs count as "in flight".
    pub const DEFAULT_HORIZON: usize = 8;

    /// Empty tracker for `device` with the default horizon.
    pub fn new(device: &Device) -> Self {
        Congestion::with_horizon(device, Congestion::DEFAULT_HORIZON)
    }

    /// Empty tracker with an explicit window size.
    pub fn with_horizon(device: &Device, horizon: usize) -> Self {
        Congestion {
            ring: vec![ClaimSlot::default(); horizon.max(1)],
            head: 0,
            len: 0,
            segment_load: vec![0; device.segment_count()],
            junction_load: vec![0; device.junction_count()],
        }
    }

    /// Records a committed leg, retiring the oldest once the window is
    /// full.
    pub fn commit(&mut self, leg: &Leg) {
        for &s in &leg.segments {
            self.segment_load[s.index()] += 1;
        }
        for &j in &leg.junctions {
            self.junction_load[j.index()] += 1;
        }
        let full = self.len == self.ring.len();
        let slot = &mut self.ring[self.head];
        if full {
            // Full window: the slot being overwritten is the oldest leg.
            for s in &slot.segments {
                self.segment_load[s.index()] -= 1;
            }
            for j in &slot.junctions {
                self.junction_load[j.index()] -= 1;
            }
        } else {
            self.len += 1;
        }
        slot.segments.clear();
        slot.segments.extend_from_slice(&leg.segments);
        slot.junctions.clear();
        slot.junctions.extend_from_slice(&leg.junctions);
        self.head = (self.head + 1) % self.ring.len();
    }

    /// In-flight legs currently claiming `segment`.
    pub fn segment_load(&self, segment: SegmentId) -> u32 {
        self.segment_load[segment.index()]
    }

    /// In-flight legs currently claiming `junction`.
    pub fn junction_load(&self, junction: JunctionId) -> u32 {
        self.junction_load[junction.index()]
    }

    /// Number of legs in the window.
    pub fn in_flight(&self) -> usize {
        self.len
    }
}

impl RoutingKind {
    /// Chooses the route from trap `from` to trap `to` over
    /// `routes.device()`, given the traffic in `congestion`. The
    /// scheduler commits only the first leg and asks again after every
    /// hop, so congestion-aware policies see up-to-date traffic.
    ///
    /// # Errors
    ///
    /// Returns [`CompileError::Routing`] when no route exists.
    pub fn next_route(
        &self,
        routes: &RouteCache<'_>,
        congestion: &Congestion,
        from: TrapId,
        to: TrapId,
    ) -> Result<Route, CompileError> {
        match self {
            // The paper's §VI router: always the device's cheapest static
            // route (via the memoized all-pairs cache).
            RoutingKind::GreedyShortest => Ok(routes.route(from, to)?.clone()),
            RoutingKind::LookaheadCongestion => lookahead_congestion(routes, congestion, from, to),
        }
    }
}

/// Extra weight per in-flight claim on a segment.
const SEGMENT_PENALTY: u64 = 4;
/// Extra weight per in-flight claim on a junction.
const JUNCTION_PENALTY: u64 = 16;

/// Congestion-aware lookahead routing: resources claimed by in-flight
/// legs are penalized, steering shuttles onto detours where the
/// topology offers one (grids do; pure linear devices do not).
///
/// The penalties are additive Dijkstra weights per unit of load,
/// comparable to the base costs (a segment unit is ~2–6, a junction
/// crossing 12, an intermediate trap 120), so moderate congestion picks
/// an alternate junction path but never drags a route through an extra
/// intermediate trap unless the contention is extreme.
fn lookahead_congestion(
    routes: &RouteCache<'_>,
    congestion: &Congestion,
    from: TrapId,
    to: TrapId,
) -> Result<Route, CompileError> {
    if congestion.in_flight() == 0 {
        // Quiet device: identical to the static shortest path, served
        // from the cache.
        return Ok(routes.route(from, to)?.clone());
    }
    let segment = |s: SegmentId| u64::from(congestion.segment_load(s)) * SEGMENT_PENALTY;
    let junction = |j: JunctionId| u64::from(congestion.junction_load(j)) * JUNCTION_PENALTY;
    Ok(routes
        .device()
        .route_weighted(from, to, &segment, &junction)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qccd_device::presets;

    #[test]
    fn congestion_window_retires_old_legs() {
        let d = presets::g2x3(10);
        let leg = d.route(TrapId(0), TrapId(1)).unwrap().legs()[0].clone();
        let mut c = Congestion::with_horizon(&d, 2);
        c.commit(&leg);
        c.commit(&leg);
        assert_eq!(c.in_flight(), 2);
        assert_eq!(c.segment_load(leg.segments[0]), 2);
        // Third commit retires the first.
        c.commit(&leg);
        assert_eq!(c.in_flight(), 2);
        assert_eq!(c.segment_load(leg.segments[0]), 2);
        assert_eq!(c.junction_load(leg.junctions[0]), 2);
        // A horizon-1 window retires a leg entirely once another commits.
        let other = d.route(TrapId(2), TrapId(3)).unwrap().legs()[0].clone();
        let mut one = Congestion::with_horizon(&d, 1);
        one.commit(&leg);
        one.commit(&other);
        assert_eq!(one.in_flight(), 1);
        assert_eq!(one.segment_load(leg.segments[0]), 0);
    }

    #[test]
    fn greedy_matches_device_route() {
        let d = presets::l6(10);
        let cache = RouteCache::new(&d);
        let congestion = Congestion::new(&d);
        let r = RoutingKind::GreedyShortest
            .next_route(&cache, &congestion, TrapId(0), TrapId(4))
            .unwrap();
        assert_eq!(r, d.route(TrapId(0), TrapId(4)).unwrap());
    }

    #[test]
    fn lookahead_equals_greedy_on_a_quiet_device() {
        let d = presets::g2x3(10);
        let cache = RouteCache::new(&d);
        let congestion = Congestion::new(&d);
        for a in d.trap_ids() {
            for b in d.trap_ids() {
                if a == b {
                    continue;
                }
                assert_eq!(
                    RoutingKind::LookaheadCongestion
                        .next_route(&cache, &congestion, a, b)
                        .unwrap(),
                    RoutingKind::GreedyShortest
                        .next_route(&cache, &congestion, a, b)
                        .unwrap(),
                    "{a}->{b}"
                );
            }
        }
    }

    #[test]
    fn lookahead_detours_around_committed_traffic() {
        // Saturate the static T0->T5 route on the grid; the lookahead
        // policy must pick a different junction sequence while greedy
        // keeps the congested one.
        let d = presets::g2x3(10);
        let cache = RouteCache::new(&d);
        let static_route = d.route(TrapId(0), TrapId(5)).unwrap();
        let mut congestion = Congestion::new(&d);
        for _ in 0..Congestion::DEFAULT_HORIZON {
            congestion.commit(&static_route.legs()[0]);
        }
        let (from, to) = (TrapId(0), TrapId(5));
        let greedy = RoutingKind::GreedyShortest
            .next_route(&cache, &congestion, from, to)
            .unwrap();
        assert_eq!(greedy, static_route, "greedy ignores congestion");
        let lookahead = RoutingKind::LookaheadCongestion
            .next_route(&cache, &congestion, from, to)
            .unwrap();
        assert_ne!(
            lookahead.legs()[0].junctions,
            static_route.legs()[0].junctions,
            "lookahead must leave the congested crossings"
        );
        assert_eq!(lookahead.from(), TrapId(0));
        assert_eq!(lookahead.to(), TrapId(5));
    }
}
