//! Logical machine state: which ion sits where, and which program qubit's
//! state each ion carries.
//!
//! Used by the compiler while scheduling (to know chain orders, distances
//! and occupancies) and replayed by the simulator (which adds timing and
//! energy on top). Chains are ordered left→right; [`Side::Left`] is index
//! 0 of a chain.

use crate::mapping::Placement;
use qccd_device::{Device, IonId, Side, TrapId};

/// Sentinel for "this ion carries no program qubit".
pub const NO_QUBIT: u32 = u32::MAX;

/// Sentinel position for an in-flight ion (no chain index).
const IN_FLIGHT: u32 = u32::MAX;

/// Mutable placement state of every ion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MachineState {
    chains: Vec<Vec<IonId>>,
    /// Per ion: current trap, or `None` while in flight.
    location: Vec<Option<TrapId>>,
    /// Per ion: index within its chain (`IN_FLIGHT` while in flight).
    /// Inverse of `chains` so [`MachineState::position`] and
    /// [`MachineState::distance`] are O(1) instead of scanning the chain
    /// — they sit on the scheduler's per-gate hot path.
    pos: Vec<u32>,
    /// Per ion: program qubit whose state it carries (`NO_QUBIT` if none).
    qubit_of_ion: Vec<u32>,
    /// Per program qubit: the ion carrying its state.
    ion_of_qubit: Vec<IonId>,
}

impl MachineState {
    /// Builds the state from an initial placement. Ion `i` initially
    /// carries program qubit `i`.
    pub fn new(placement: &Placement) -> Self {
        let num_ions = placement.num_ions();
        let mut location = vec![None; num_ions as usize];
        let mut pos = vec![IN_FLIGHT; num_ions as usize];
        for (t, chain) in placement.chains().iter().enumerate() {
            for (p, &ion) in chain.iter().enumerate() {
                location[ion.index()] = Some(TrapId(t as u32));
                pos[ion.index()] = p as u32;
            }
        }
        MachineState {
            chains: placement.chains().to_vec(),
            location,
            pos,
            qubit_of_ion: (0..num_ions).collect(),
            ion_of_qubit: (0..num_ions).map(IonId).collect(),
        }
    }

    /// Number of ions.
    pub fn num_ions(&self) -> u32 {
        self.location.len() as u32
    }

    /// The chain (left→right ion order) in `trap`.
    ///
    /// # Panics
    ///
    /// Panics if `trap` is out of range.
    pub fn chain(&self, trap: TrapId) -> &[IonId] {
        &self.chains[trap.index()]
    }

    /// Number of ions currently in `trap`.
    pub fn chain_len(&self, trap: TrapId) -> usize {
        self.chains[trap.index()].len()
    }

    /// Slots left in `trap` before it reaches `device`'s capacity for
    /// it: zero means full. The scheduler's full-destination check and
    /// the eviction target rule both read it.
    pub fn free_slots(&self, device: &Device, trap: TrapId) -> usize {
        (device.trap(trap).capacity() as usize).saturating_sub(self.chain_len(trap))
    }

    /// The trap currently holding `ion`, or `None` while it is in flight.
    pub fn trap_of(&self, ion: IonId) -> Option<TrapId> {
        self.location[ion.index()]
    }

    /// The ion currently carrying program qubit `q`'s state.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn ion_of_qubit(&self, q: u32) -> IonId {
        self.ion_of_qubit[q as usize]
    }

    /// The program qubit carried by `ion` (`NO_QUBIT` if none).
    pub fn qubit_of_ion(&self, ion: IonId) -> u32 {
        self.qubit_of_ion[ion.index()]
    }

    /// Position of `ion` within its chain (0 = left end).
    ///
    /// # Panics
    ///
    /// Panics if the ion is in flight.
    pub fn position(&self, ion: IonId) -> usize {
        // qccd-lint: allow(engine-panic) — the expect message documents a structural invariant; a violation is a bug, not an input error
        let trap = self.location[ion.index()].expect("ion is in flight");
        let p = self.pos[ion.index()] as usize;
        debug_assert_eq!(
            self.chains[trap.index()].get(p),
            Some(&ion),
            "position index is consistent with chains"
        );
        p
    }

    /// The ion at the `side` end of `trap`'s chain, if non-empty.
    pub fn end_ion(&self, trap: TrapId, side: Side) -> Option<IonId> {
        let chain = &self.chains[trap.index()];
        match side {
            Side::Left => chain.first().copied(),
            Side::Right => chain.last().copied(),
        }
    }

    /// Chain-position distance between two co-located ions.
    ///
    /// # Panics
    ///
    /// Panics if the ions are not in the same trap.
    pub fn distance(&self, a: IonId, b: IonId) -> u32 {
        assert_eq!(
            self.location[a.index()],
            self.location[b.index()],
            "{a} and {b} are not co-located"
        );
        self.position(a).abs_diff(self.position(b)) as u32
    }

    /// Exchanges the *states* of two ions (gate-based swap). Positions are
    /// untouched.
    ///
    /// # Panics
    ///
    /// Panics if `a == b`.
    pub fn swap_states(&mut self, a: IonId, b: IonId) {
        assert_ne!(a, b, "cannot swap an ion's state with itself");
        let qa = self.qubit_of_ion[a.index()];
        let qb = self.qubit_of_ion[b.index()];
        self.qubit_of_ion[a.index()] = qb;
        self.qubit_of_ion[b.index()] = qa;
        if qa != NO_QUBIT {
            self.ion_of_qubit[qa as usize] = b;
        }
        if qb != NO_QUBIT {
            self.ion_of_qubit[qb as usize] = a;
        }
    }

    /// Exchanges the *positions* of two chain-adjacent ions (physical ion
    /// swap). States ride along with their ions.
    ///
    /// # Panics
    ///
    /// Panics if the ions are not adjacent in the same chain.
    pub fn swap_positions(&mut self, a: IonId, b: IonId) {
        // qccd-lint: allow(engine-panic) — the expect message documents a structural invariant; a violation is a bug, not an input error
        let trap = self.location[a.index()].expect("ion a in flight");
        assert_eq!(Some(trap), self.location[b.index()], "ions not co-located");
        let pa = self.position(a);
        let pb = self.position(b);
        assert_eq!(pa.abs_diff(pb), 1, "{a} and {b} are not adjacent");
        self.chains[trap.index()].swap(pa, pb);
        self.pos.swap(a.index(), b.index());
    }

    /// Removes the end ion `ion` from `trap` at `side` (split). The ion is
    /// then in flight.
    ///
    /// # Panics
    ///
    /// Panics if `ion` is not the end ion on that side.
    pub fn remove_end(&mut self, ion: IonId, trap: TrapId, side: Side) {
        assert_eq!(
            self.end_ion(trap, side),
            Some(ion),
            "{ion} is not at the {side} end of {trap}"
        );
        match side {
            Side::Left => {
                self.chains[trap.index()].remove(0);
                // Everyone left in the chain shifts one slot left.
                for &i in &self.chains[trap.index()] {
                    self.pos[i.index()] -= 1;
                }
            }
            Side::Right => {
                self.chains[trap.index()].pop();
            }
        }
        self.location[ion.index()] = None;
        self.pos[ion.index()] = IN_FLIGHT;
    }

    /// Inserts an in-flight ion into `trap` at `side` (merge).
    ///
    /// # Panics
    ///
    /// Panics if the ion is not in flight.
    pub fn insert_end(&mut self, ion: IonId, trap: TrapId, side: Side) {
        assert!(
            self.location[ion.index()].is_none(),
            "{ion} is not in flight"
        );
        match side {
            Side::Left => {
                // Everyone already in the chain shifts one slot right.
                for &i in &self.chains[trap.index()] {
                    self.pos[i.index()] += 1;
                }
                self.chains[trap.index()].insert(0, ion);
                self.pos[ion.index()] = 0;
            }
            Side::Right => {
                self.pos[ion.index()] = self.chains[trap.index()].len() as u32;
                self.chains[trap.index()].push(ion);
            }
        }
        self.location[ion.index()] = Some(trap);
    }

    /// Per-ion final qubit assignment (for [`crate::Executable`]).
    pub fn qubit_assignment(&self) -> Vec<u32> {
        self.qubit_of_ion.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::Placement;

    fn two_trap_state() -> MachineState {
        // T0: [0, 1, 2], T1: [3, 4].
        let placement = Placement::from_chains(vec![
            vec![IonId(0), IonId(1), IonId(2)],
            vec![IonId(3), IonId(4)],
        ]);
        MachineState::new(&placement)
    }

    #[test]
    fn initial_identity_mapping() {
        let st = two_trap_state();
        for q in 0..5 {
            assert_eq!(st.ion_of_qubit(q), IonId(q));
            assert_eq!(st.qubit_of_ion(IonId(q)), q);
        }
        assert_eq!(st.trap_of(IonId(4)), Some(TrapId(1)));
        assert_eq!(st.position(IonId(1)), 1);
    }

    #[test]
    fn end_ions_and_distance() {
        let st = two_trap_state();
        assert_eq!(st.end_ion(TrapId(0), Side::Left), Some(IonId(0)));
        assert_eq!(st.end_ion(TrapId(0), Side::Right), Some(IonId(2)));
        assert_eq!(st.distance(IonId(0), IonId(2)), 2);
    }

    #[test]
    fn swap_states_moves_qubits_not_ions() {
        let mut st = two_trap_state();
        st.swap_states(IonId(0), IonId(2));
        assert_eq!(st.qubit_of_ion(IonId(0)), 2);
        assert_eq!(st.qubit_of_ion(IonId(2)), 0);
        assert_eq!(st.ion_of_qubit(0), IonId(2));
        // Positions unchanged.
        assert_eq!(st.position(IonId(0)), 0);
        assert_eq!(st.position(IonId(2)), 2);
    }

    #[test]
    fn swap_positions_moves_ions_not_qubits() {
        let mut st = two_trap_state();
        st.swap_positions(IonId(0), IonId(1));
        assert_eq!(st.chain(TrapId(0)), &[IonId(1), IonId(0), IonId(2)]);
        assert_eq!(st.qubit_of_ion(IonId(0)), 0);
    }

    #[test]
    #[should_panic(expected = "not adjacent")]
    fn swap_positions_requires_adjacency() {
        let mut st = two_trap_state();
        st.swap_positions(IonId(0), IonId(2));
    }

    #[test]
    fn split_move_merge_cycle() {
        let mut st = two_trap_state();
        st.remove_end(IonId(2), TrapId(0), Side::Right);
        assert_eq!(st.trap_of(IonId(2)), None);
        assert_eq!(st.chain_len(TrapId(0)), 2);
        st.insert_end(IonId(2), TrapId(1), Side::Left);
        assert_eq!(st.chain(TrapId(1)), &[IonId(2), IonId(3), IonId(4)]);
        assert_eq!(st.trap_of(IonId(2)), Some(TrapId(1)));
        assert_eq!(st.position(IonId(2)), 0);
    }

    #[test]
    #[should_panic(expected = "not at the")]
    fn split_requires_end_position() {
        let mut st = two_trap_state();
        st.remove_end(IonId(1), TrapId(0), Side::Right);
    }

    #[test]
    fn double_state_swap_is_identity() {
        let mut st = two_trap_state();
        st.swap_states(IonId(1), IonId(3));
        st.swap_states(IonId(1), IonId(3));
        assert_eq!(st, two_trap_state());
    }
}
