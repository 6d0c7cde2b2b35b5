//! Eviction policies (pipeline seam 4, paper §VI).

use crate::config::EvictionKind;
use crate::error::CompileError;
use crate::state::MachineState;
use qccd_device::{IonId, RouteCache, TrapId};
use std::cmp::Reverse;

/// The scheduler's answer to "who leaves a full trap, and where to".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Eviction {
    /// Program qubit whose ion is shuttled out.
    pub victim_qubit: u32,
    /// Trap the victim is shuttled to.
    pub target: TrapId,
}

/// The nearest trap with free room (shortest eviction route), preferring
/// more room then lower ids on ties — the target rule shared by the
/// built-in eviction policies.
fn nearest_free_target(
    routes: &RouteCache<'_>,
    st: &MachineState,
    trap: TrapId,
) -> Result<TrapId, CompileError> {
    let device = routes.device();
    device
        .trap_ids()
        .filter(|&t| t != trap && st.free_slots(device, t) > 0)
        .filter_map(|t| routes.route(trap, t).ok().map(|r| (t, r.legs().len())))
        .min_by_key(|&(t, legs)| (legs, Reverse(st.free_slots(device, t)), t.0))
        .map(|(t, _)| t)
        .ok_or(CompileError::CapacityExhausted { trap })
}

/// The unprotected qubit carried by `ions` whose next use is farthest
/// in the future, ties broken toward lower qubit ids.
fn latest_used(
    st: &MachineState,
    ions: impl Iterator<Item = IonId>,
    protected: &[u32],
    next_use: &impl Fn(u32) -> usize,
) -> Option<u32> {
    ions.map(|ion| st.qubit_of_ion(ion))
        .filter(|q| !protected.contains(q))
        .max_by_key(|&q| (next_use(q), Reverse(q)))
}

impl EvictionKind {
    /// Picks the victim qubit that leaves the full `trap`, and the trap
    /// it goes to (paper §VI). `protected` qubits (the pending gate's
    /// operands) stay; `next_use(q)` is the index of the next operation
    /// that uses qubit `q`, or `usize::MAX` if none does. The scheduler
    /// then shuttles the victim out (which may recurse into further
    /// evictions along the way).
    ///
    /// - [`EvictionKind::FurthestNextUse`], the paper's rule ("leveraging
    ///   full knowledge of the program instructions"): the resident
    ///   whose next use is farthest leaves. The default pipeline's
    ///   eviction.
    /// - [`EvictionKind::ChainEnd`]: of the (up to) two end residents,
    ///   the one with the farther next use leaves. An end ion needs no
    ///   reorder at all when the eviction route departs from its side
    ///   (under GS the other end costs one swap, like any resident;
    ///   under IS an end ion is never *farther* from a departure end
    ///   than an interior one), so evictions stay cheap *now* at the
    ///   price of sometimes re-fetching a soon-needed interior qubit
    ///   later. When both ends are protected it falls back to the
    ///   interior rule rather than failing a compilable program.
    ///
    /// Both take the target from one rule: the reachable trap with free
    /// room at the fewest route legs, then the most room, then the
    /// lowest id.
    ///
    /// # Errors
    ///
    /// Returns [`CompileError::CapacityExhausted`] when every resident
    /// is protected or no reachable trap has room.
    pub fn pick(
        &self,
        routes: &RouteCache<'_>,
        st: &MachineState,
        trap: TrapId,
        protected: &[u32],
        next_use: impl Fn(u32) -> usize,
    ) -> Result<Eviction, CompileError> {
        let chain = st.chain(trap);
        let everyone = || latest_used(st, chain.iter().copied(), protected, &next_use);
        let victim = match self {
            EvictionKind::FurthestNextUse => everyone(),
            EvictionKind::ChainEnd => {
                let ends = chain.first().into_iter().chain(chain.last()).copied();
                latest_used(st, ends, protected, &next_use).or_else(everyone)
            }
        };
        Ok(Eviction {
            victim_qubit: victim.ok_or(CompileError::CapacityExhausted { trap })?,
            target: nearest_free_target(routes, st, trap)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::Placement;
    use crate::passes::UsesTable;
    use qccd_circuit::{Circuit, Qubit};
    use qccd_device::presets;

    /// T0 full with [0, 1, 2]; qubit 1's next use is farthest.
    fn scenario() -> (Circuit, MachineState) {
        let mut c = Circuit::new("t", 5);
        c.cx(Qubit(0), Qubit(3)); // op 0 (current)
        c.cx(Qubit(2), Qubit(4)); // op 1
        c.cx(Qubit(0), Qubit(4)); // op 2
        c.cx(Qubit(1), Qubit(3)); // op 3 — qubit 1 used last
        let st = MachineState::new(&Placement::from_chains(vec![
            vec![IonId(0), IonId(1), IonId(2)],
            vec![IonId(3), IonId(4)],
        ]));
        (c, st)
    }

    #[test]
    fn furthest_next_use_picks_the_least_soon_needed_interior_ion() {
        let (c, st) = scenario();
        let d = presets::linear(2, 3, 4);
        let routes = RouteCache::new(&d);
        let uses = UsesTable::new(&c);
        let next_use = |q| uses.next_use_after(q, 0);
        let protected = &[0, 3];
        let pick = EvictionKind::FurthestNextUse
            .pick(&routes, &st, TrapId(0), protected, next_use)
            .unwrap();
        assert_eq!(pick.victim_qubit, 1, "qubit 1's next use is op 3");
        assert_eq!(pick.target, TrapId(1), "only other trap with room");
    }

    #[test]
    fn chain_end_only_considers_the_ends() {
        let (c, st) = scenario();
        let d = presets::linear(2, 3, 4);
        let routes = RouteCache::new(&d);
        let uses = UsesTable::new(&c);
        let next_use = |q| uses.next_use_after(q, 0);
        let protected = &[0, 3];
        // Ends are qubits 0 (protected) and 2; the interior qubit 1 has a
        // farther next use but is not an end.
        let pick = EvictionKind::ChainEnd
            .pick(&routes, &st, TrapId(0), protected, next_use)
            .unwrap();
        assert_eq!(pick.victim_qubit, 2);
    }

    #[test]
    fn chain_end_falls_back_when_both_ends_are_protected() {
        let (c, st) = scenario();
        let d = presets::linear(2, 3, 4);
        let routes = RouteCache::new(&d);
        let uses = UsesTable::new(&c);
        let next_use = |q| uses.next_use_after(q, 0);
        let protected = &[0, 2];
        let pick = EvictionKind::ChainEnd
            .pick(&routes, &st, TrapId(0), protected, next_use)
            .unwrap();
        assert_eq!(pick.victim_qubit, 1, "interior fallback");
    }

    #[test]
    fn all_protected_reports_capacity_exhausted() {
        let (c, st) = scenario();
        let d = presets::linear(2, 3, 4);
        let routes = RouteCache::new(&d);
        let uses = UsesTable::new(&c);
        let next_use = |q| uses.next_use_after(q, 0);
        let protected = &[0, 1, 2];
        for policy in EvictionKind::ALL {
            assert!(matches!(
                policy.pick(&routes, &st, TrapId(0), protected, next_use),
                Err(CompileError::CapacityExhausted { trap: TrapId(0) })
            ));
        }
    }
}
