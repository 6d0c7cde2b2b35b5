//! Routing policies (pipeline seam 2) and the congestion bookkeeping
//! they consult.

use crate::config::RoutingKind;
use crate::error::CompileError;
use qccd_device::{Device, JunctionId, Leg, RouteCache, RouteScratch, SegmentId, TrapId};
use std::borrow::Cow;

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

    /// The lookahead router's extra search weight on `segment`: a fixed
    /// penalty per in-flight claim.
    pub fn segment_penalty(&self, segment: SegmentId) -> u64 {
        u64::from(self.segment_load(segment)) * SEGMENT_PENALTY
    }

    /// The lookahead router's extra search weight on `junction`: a
    /// fixed penalty per in-flight claim.
    pub fn junction_penalty(&self, junction: JunctionId) -> u64 {
        u64::from(self.junction_load(junction)) * JUNCTION_PENALTY
    }
}

impl RoutingKind {
    /// Chooses the next leg from trap `from` towards trap `to` over
    /// `routes.device()`, given the traffic in `congestion`. The
    /// scheduler commits only this first leg of the chosen route and
    /// asks again after every hop, so congestion-aware policies see
    /// up-to-date traffic. A weighted search runs in the caller's
    /// `scratch` arena.
    ///
    /// The leg is lent from `routes` whenever it is the cached static
    /// route's first leg (always for greedy routing; for lookahead on a
    /// forest device or a load-free route). Only a weighted search
    /// builds an owned one.
    ///
    /// # Errors
    ///
    /// Returns [`CompileError::Routing`] when no route exists.
    pub fn next_route<'r>(
        &self,
        routes: &'r RouteCache<'_>,
        congestion: &Congestion,
        scratch: &mut RouteScratch,
        from: TrapId,
        to: TrapId,
    ) -> Result<Cow<'r, Leg>, CompileError> {
        match self {
            // The paper's §VI router: always the device's cheapest static
            // route (via the memoized all-pairs cache).
            RoutingKind::GreedyShortest => Ok(Cow::Borrowed(&routes.route(from, to)?.legs()[0])),
            RoutingKind::LookaheadCongestion => {
                lookahead_congestion(routes, congestion, scratch, from, to)
            }
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
///
/// Two cases serve the cached static route's first leg without a
/// search. Each is exactly the leg [`RouteCache::first_leg_weighted`]
/// would return, not an approximation (the cached route is the
/// zero-penalty search's route).
///
/// **The device graph is a forest** ([`RouteCache::is_forest`], e.g.
/// every linear device). Between two connected traps there is then
/// exactly one simple path. Every edge weight is positive (segments are
/// at least one unit long), so the search's parent chain from `to` back
/// to `from` never repeats a node: it is that one simple path under any
/// penalties, and so is the static route.
///
/// **No segment or junction of the static route carries any load.**
///
/// - every segment is at least one unit long (the device builder, which
///   every device passes through, rejects zero-length ones), so the search settles
///   nodes in strictly increasing `(distance, node index)` order, and a
///   node's parent is the first settled neighbour (then the first
///   segment in [`Device::segments_at`] order) that reaches its final
///   distance;
/// - penalties are never negative, so no node gets closer than its
///   static distance; and they are zero along the whole static route,
///   so every node on that route keeps its static distance;
/// - a parent candidate under penalties therefore reaches its child at
///   the static distance through a zero-penalty segment, so it is also
///   a static candidate with the same `(distance, index)` key. The
///   static parent is one of them and was the earliest among all static
///   candidates, so it is still the earliest, and the path walked back
///   from `to` is the static route.
fn lookahead_congestion<'r>(
    routes: &'r RouteCache<'_>,
    congestion: &Congestion,
    scratch: &mut RouteScratch,
    from: TrapId,
    to: TrapId,
) -> Result<Cow<'r, Leg>, CompileError> {
    let fixed = routes.route(from, to)?;
    if routes.is_forest() {
        return Ok(Cow::Borrowed(&fixed.legs()[0]));
    }
    let load_free = fixed.legs().iter().all(|leg| {
        leg.segments
            .iter()
            .all(|&s| congestion.segment_load(s) == 0)
            && leg
                .junctions
                .iter()
                .all(|&j| congestion.junction_load(j) == 0)
    });
    if load_free {
        return Ok(Cow::Borrowed(&fixed.legs()[0]));
    }
    Ok(Cow::Owned(routes.first_leg_weighted(
        from,
        to,
        scratch,
        |s| congestion.segment_penalty(s),
        |j| congestion.junction_penalty(j),
    )?))
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
        assert_eq!(c.segment_load(leg.segments[0]), 2);
        // Third commit retires the first.
        c.commit(&leg);
        assert_eq!(c.segment_load(leg.segments[0]), 2);
        assert_eq!(c.junction_load(leg.junctions[0]), 2);
        // A horizon-1 window retires a leg entirely once another commits.
        let other = d.route(TrapId(2), TrapId(3)).unwrap().legs()[0].clone();
        let mut one = Congestion::with_horizon(&d, 1);
        one.commit(&leg);
        one.commit(&other);
        assert_eq!(one.segment_load(leg.segments[0]), 0);
        assert_eq!(one.segment_load(other.segments[0]), 1);
    }

    #[test]
    fn greedy_matches_device_route() {
        let d = presets::l6(10);
        let cache = RouteCache::new(&d);
        let congestion = Congestion::new(&d);
        let leg = RoutingKind::GreedyShortest
            .next_route(
                &cache,
                &congestion,
                &mut RouteScratch::new(),
                TrapId(0),
                TrapId(4),
            )
            .unwrap();
        assert!(
            matches!(leg, Cow::Borrowed(_)),
            "greedy lends the cached leg"
        );
        assert_eq!(*leg, d.route(TrapId(0), TrapId(4)).unwrap().legs()[0]);
    }

    #[test]
    fn lookahead_equals_greedy_on_a_quiet_device() {
        let d = presets::g2x3(10);
        let cache = RouteCache::new(&d);
        let congestion = Congestion::new(&d);
        let mut scratch = RouteScratch::new();
        for a in d.trap_ids() {
            for b in d.trap_ids() {
                if a == b {
                    continue;
                }
                assert_eq!(
                    RoutingKind::LookaheadCongestion
                        .next_route(&cache, &congestion, &mut scratch, a, b)
                        .unwrap(),
                    RoutingKind::GreedyShortest
                        .next_route(&cache, &congestion, &mut scratch, a, b)
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
        let static_leg = d.route(TrapId(0), TrapId(5)).unwrap().legs()[0].clone();
        let mut congestion = Congestion::new(&d);
        for _ in 0..Congestion::DEFAULT_HORIZON {
            congestion.commit(&static_leg);
        }
        let (from, to) = (TrapId(0), TrapId(5));
        let mut scratch = RouteScratch::new();
        let greedy = RoutingKind::GreedyShortest
            .next_route(&cache, &congestion, &mut scratch, from, to)
            .unwrap();
        assert_eq!(*greedy, static_leg, "greedy ignores congestion");
        let lookahead = RoutingKind::LookaheadCongestion
            .next_route(&cache, &congestion, &mut scratch, from, to)
            .unwrap();
        assert!(
            matches!(lookahead, Cow::Owned(_)),
            "only the search builds a leg"
        );
        assert_ne!(
            lookahead.junctions, static_leg.junctions,
            "lookahead must leave the congested crossings"
        );
        assert_eq!(lookahead.from, TrapId(0));
        assert_eq!(lookahead.to, TrapId(5));
    }

    #[test]
    fn lookahead_serves_the_static_leg_when_its_route_is_load_free() {
        // On g2x3 the T0->T1 route crosses J0 alone. Traffic on the far
        // side (T4 -> T5, across J3) leaves the window non-empty but
        // loads nothing on that route, so the static first leg is
        // served, and it is the leg the weighted search returns.
        let d = presets::g2x3(10);
        let cache = RouteCache::new(&d);
        assert!(!cache.is_forest());
        let far = d.route(TrapId(4), TrapId(5)).unwrap().legs()[0].clone();
        let mut congestion = Congestion::new(&d);
        congestion.commit(&far);
        assert_eq!(congestion.segment_load(far.segments[0]), 1);
        let (from, to) = (TrapId(0), TrapId(1));
        let fixed = cache.route(from, to).unwrap();
        assert!(fixed.legs().iter().all(|l| {
            l.segments.iter().all(|&s| congestion.segment_load(s) == 0)
                && l.junctions
                    .iter()
                    .all(|&j| congestion.junction_load(j) == 0)
        }));
        assert_weighted_leg_is_static(&cache, &congestion, from, to);
    }

    #[test]
    fn lookahead_serves_the_static_leg_on_a_forest() {
        // On l6 the T0->T2 route runs T0 -> T1 -> T2, the only path.
        // Saturating its first leg leaves nothing to detour onto, so the
        // static leg is served without a search, and it is the leg the
        // weighted search returns.
        let d = presets::l6(10);
        let cache = RouteCache::new(&d);
        assert!(cache.is_forest());
        let (from, to) = (TrapId(0), TrapId(2));
        let mut congestion = Congestion::new(&d);
        for _ in 0..Congestion::DEFAULT_HORIZON {
            congestion.commit(&cache.route(from, to).unwrap().legs()[0]);
        }
        assert_weighted_leg_is_static(&cache, &congestion, from, to);
    }

    /// The lookahead leg from `from` to `to` is the cached static first
    /// leg and equals the weighted search under `congestion`.
    fn assert_weighted_leg_is_static(
        cache: &RouteCache<'_>,
        congestion: &Congestion,
        from: TrapId,
        to: TrapId,
    ) {
        let mut scratch = RouteScratch::new();
        let leg = RoutingKind::LookaheadCongestion
            .next_route(cache, congestion, &mut scratch, from, to)
            .unwrap();
        assert!(matches!(leg, Cow::Borrowed(_)), "the static leg is lent");
        assert_eq!(*leg, cache.route(from, to).unwrap().legs()[0]);
        let weighted = cache
            .first_leg_weighted(
                from,
                to,
                &mut scratch,
                |s| congestion.segment_penalty(s),
                |j| congestion.junction_penalty(j),
            )
            .unwrap();
        assert_eq!(*leg, weighted);
    }
}
