//! Eviction policies (pipeline seam 4, paper §VI).

use crate::config::EvictionKind;
use crate::error::CompileError;
use crate::passes::UsesTable;
use crate::state::MachineState;
use qccd_device::{Device, RouteCache, Side, TrapId};
use std::cmp::Reverse;

/// The scheduler's answer to "who leaves a full trap, and where to".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Eviction {
    /// Program qubit whose ion is shuttled out.
    pub victim_qubit: u32,
    /// Trap the victim is shuttled to.
    pub target: TrapId,
}

/// What an eviction policy can see when picking a victim.
#[derive(Debug)]
pub struct EvictionQuery<'a> {
    device: &'a Device,
    routes: &'a RouteCache<'a>,
    state: &'a MachineState,
    uses: &'a UsesTable,
    current_op: usize,
    trap: TrapId,
    protected: &'a [u32],
}

impl<'a> EvictionQuery<'a> {
    /// Builds a query (used by the scheduler, and by tests that drive
    /// a policy directly).
    pub fn new(
        device: &'a Device,
        routes: &'a RouteCache<'a>,
        state: &'a MachineState,
        uses: &'a UsesTable,
        current_op: usize,
        trap: TrapId,
        protected: &'a [u32],
    ) -> Self {
        EvictionQuery {
            device,
            routes,
            state,
            uses,
            current_op,
            trap,
            protected,
        }
    }

    /// The device being compiled for.
    pub fn device(&self) -> &'a Device {
        self.device
    }

    /// Memoized static shortest routes for the device.
    pub fn routes(&self) -> &'a RouteCache<'a> {
        self.routes
    }

    /// The machine state at the moment of eviction.
    pub fn state(&self) -> &'a MachineState {
        self.state
    }

    /// The full trap needing room.
    pub fn trap(&self) -> TrapId {
        self.trap
    }

    /// Qubits that may not be evicted (the pending gate's operands).
    pub fn protected(&self) -> &'a [u32] {
        self.protected
    }

    /// Index of the next operation after the current one that uses `q`,
    /// or `usize::MAX` if it is never used again.
    pub fn next_use(&self, q: u32) -> usize {
        self.uses.next_use_after(q, self.current_op)
    }

    /// Free slots in `trap` right now.
    pub fn free_slots(&self, trap: TrapId) -> usize {
        (self.device.trap(trap).capacity() as usize).saturating_sub(self.state.chain_len(trap))
    }
}

/// The nearest trap with free room (shortest eviction route), preferring
/// more room then lower ids on ties — the target rule shared by the
/// built-in eviction policies.
fn nearest_free_target(query: &EvictionQuery<'_>) -> Result<TrapId, CompileError> {
    query
        .device()
        .trap_ids()
        .filter(|&t| t != query.trap() && query.free_slots(t) > 0)
        .filter_map(|t| {
            query
                .routes()
                .route(query.trap(), t)
                .ok()
                .map(|r| (t, r.legs().len()))
        })
        .min_by_key(|&(t, legs)| (legs, Reverse(query.free_slots(t)), t.0))
        .map(|(t, _)| t)
        .ok_or(CompileError::CapacityExhausted { trap: query.trap() })
}

impl EvictionKind {
    /// Picks the victim qubit and its eviction target for the query's
    /// full trap (paper §VI). The scheduler then shuttles the victim out
    /// (which may recurse into further evictions along the way).
    ///
    /// # Errors
    ///
    /// Returns [`CompileError::CapacityExhausted`] when every resident
    /// is protected or no reachable trap has room.
    pub fn pick(&self, query: &EvictionQuery<'_>) -> Result<Eviction, CompileError> {
        match self {
            EvictionKind::FurthestNextUse => furthest_next_use(query),
            EvictionKind::ChainEnd => chain_end(query),
        }
    }
}

/// The paper's §VI rule: evict the unprotected resident whose next use
/// is farthest in the future ("leveraging full knowledge of the program
/// instructions"), ties broken toward lower qubit ids. The default
/// pipeline's eviction.
fn furthest_next_use(query: &EvictionQuery<'_>) -> Result<Eviction, CompileError> {
    let state = query.state();
    let victim_qubit = state
        .chain(query.trap())
        .iter()
        .map(|&ion| state.qubit_of_ion(ion))
        .filter(|q| !query.protected().contains(q))
        .max_by_key(|&q| (query.next_use(q), Reverse(q)))
        .ok_or(CompileError::CapacityExhausted { trap: query.trap() })?;
    Ok(Eviction {
        victim_qubit,
        target: nearest_free_target(query)?,
    })
}

/// Evicts from the chain ends only: of the (up to) two end residents,
/// the one with the farther next use leaves. An end ion needs no
/// reorder at all when the eviction route departs from its side (under
/// GS the other end costs one swap, like any resident; under IS an end
/// ion is never *farther* from a departure end than an interior one),
/// so evictions stay cheap *now* at the price of sometimes re-fetching
/// a soon-needed interior qubit later. Falls back to the interior rule
/// when both ends are protected.
fn chain_end(query: &EvictionQuery<'_>) -> Result<Eviction, CompileError> {
    let state = query.state();
    let ends = [
        state.end_ion(query.trap(), Side::Left),
        state.end_ion(query.trap(), Side::Right),
    ];
    let victim_qubit = ends
        .into_iter()
        .flatten()
        .map(|ion| state.qubit_of_ion(ion))
        .filter(|q| !query.protected().contains(q))
        .max_by_key(|&q| (query.next_use(q), Reverse(q)));
    match victim_qubit {
        Some(victim_qubit) => Ok(Eviction {
            victim_qubit,
            target: nearest_free_target(query)?,
        }),
        // Both ends protected: fall back to the interior rule rather
        // than failing a compilable program.
        None => furthest_next_use(query),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::Placement;
    use qccd_circuit::{Circuit, Qubit};
    use qccd_device::{presets, IonId};

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
        let q = EvictionQuery::new(&d, &routes, &st, &uses, 0, TrapId(0), &[0, 3]);
        let pick = EvictionKind::FurthestNextUse.pick(&q).unwrap();
        assert_eq!(pick.victim_qubit, 1, "qubit 1's next use is op 3");
        assert_eq!(pick.target, TrapId(1), "only other trap with room");
    }

    #[test]
    fn chain_end_only_considers_the_ends() {
        let (c, st) = scenario();
        let d = presets::linear(2, 3, 4);
        let routes = RouteCache::new(&d);
        let uses = UsesTable::new(&c);
        let q = EvictionQuery::new(&d, &routes, &st, &uses, 0, TrapId(0), &[0, 3]);
        // Ends are qubits 0 (protected) and 2; the interior qubit 1 has a
        // farther next use but is not an end.
        let pick = EvictionKind::ChainEnd.pick(&q).unwrap();
        assert_eq!(pick.victim_qubit, 2);
    }

    #[test]
    fn chain_end_falls_back_when_both_ends_are_protected() {
        let (c, st) = scenario();
        let d = presets::linear(2, 3, 4);
        let routes = RouteCache::new(&d);
        let uses = UsesTable::new(&c);
        let q = EvictionQuery::new(&d, &routes, &st, &uses, 0, TrapId(0), &[0, 2]);
        let pick = EvictionKind::ChainEnd.pick(&q).unwrap();
        assert_eq!(pick.victim_qubit, 1, "interior fallback");
    }

    #[test]
    fn all_protected_reports_capacity_exhausted() {
        let (c, st) = scenario();
        let d = presets::linear(2, 3, 4);
        let routes = RouteCache::new(&d);
        let uses = UsesTable::new(&c);
        let q = EvictionQuery::new(&d, &routes, &st, &uses, 0, TrapId(0), &[0, 1, 2]);
        for policy in EvictionKind::ALL {
            assert!(matches!(
                policy.pick(&q),
                Err(CompileError::CapacityExhausted { trap: TrapId(0) })
            ));
        }
    }
}
