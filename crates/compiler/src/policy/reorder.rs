//! Chain-reordering policies (pipeline seam 3, paper §IV-C).

use crate::config::ReorderMethod;
use crate::executable::Inst;
use crate::state::MachineState;
use qccd_device::{IonId, Side, TrapId};

impl ReorderMethod {
    /// Emits reordering instructions into `out` (updating `state`) until
    /// `ion` — or, for state-swapping policies, the ion carrying its
    /// qubit — sits at the `side` end of `trap`. No-op if already there.
    pub fn bring_to_end(
        &self,
        state: &mut MachineState,
        out: &mut Vec<Inst>,
        ion: IonId,
        trap: TrapId,
        side: Side,
    ) {
        match self {
            ReorderMethod::GateSwap => gate_swap(state, out, ion, trap, side),
            ReorderMethod::IonSwap => ion_swap(state, out, ion, trap, side),
        }
    }
}

/// Gate-based swapping (GS): one SWAP gate (3 MS gates) exchanges the
/// *quantum states* of the target ion and the ion already at the chain
/// end, which then departs carrying the right state. The default
/// pipeline's reordering.
fn gate_swap(state: &mut MachineState, out: &mut Vec<Inst>, ion: IonId, trap: TrapId, side: Side) {
    let end = state
        .end_ion(trap, side)
        // qccd-lint: allow(engine-panic) — the expect message documents a structural invariant; a violation is a bug, not an input error
        .expect("reorder on a non-empty chain");
    if end != ion {
        out.push(Inst::SwapGate { a: ion, b: end });
        state.swap_states(ion, end);
    }
}

/// Physical ion swapping (IS): the ion is moved to the end hop by hop;
/// each hop is a split, a 180° rotation of the adjacent pair, and a
/// merge (Kaufmann et al. 2017).
fn ion_swap(state: &mut MachineState, out: &mut Vec<Inst>, ion: IonId, trap: TrapId, side: Side) {
    loop {
        let pos = state.position(ion);
        let chain = state.chain(trap);
        let target = match side {
            Side::Left => 0,
            Side::Right => chain.len() - 1,
        };
        if pos == target {
            break;
        }
        let neighbor = if target > pos {
            chain[pos + 1]
        } else {
            chain[pos - 1]
        };
        out.push(Inst::IonSwap {
            a: ion,
            b: neighbor,
        });
        state.swap_positions(ion, neighbor);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::Placement;

    fn chain_of_three() -> MachineState {
        MachineState::new(&Placement::from_chains(vec![vec![
            IonId(0),
            IonId(1),
            IonId(2),
        ]]))
    }

    #[test]
    fn gate_swap_exchanges_states_with_the_end_ion() {
        let mut st = chain_of_three();
        let mut out = Vec::new();
        ReorderMethod::GateSwap.bring_to_end(&mut st, &mut out, IonId(0), TrapId(0), Side::Right);
        assert_eq!(
            out,
            vec![Inst::SwapGate {
                a: IonId(0),
                b: IonId(2)
            }]
        );
        // Qubit 0 now rides ion 2, which sits at the right end.
        assert_eq!(st.ion_of_qubit(0), IonId(2));
        assert_eq!(st.chain(TrapId(0)), &[IonId(0), IonId(1), IonId(2)]);
    }

    #[test]
    fn gate_swap_is_a_noop_at_the_end() {
        let mut st = chain_of_three();
        let mut out = Vec::new();
        ReorderMethod::GateSwap.bring_to_end(&mut st, &mut out, IonId(2), TrapId(0), Side::Right);
        assert!(out.is_empty());
    }

    #[test]
    fn ion_swap_walks_the_ion_to_the_end() {
        let mut st = chain_of_three();
        let mut out = Vec::new();
        ReorderMethod::IonSwap.bring_to_end(&mut st, &mut out, IonId(0), TrapId(0), Side::Right);
        assert_eq!(out.len(), 2, "two hops from position 0 to position 2");
        assert!(out.iter().all(|i| matches!(i, Inst::IonSwap { .. })));
        assert_eq!(st.chain(TrapId(0)), &[IonId(1), IonId(2), IonId(0)]);
        // The state rides the ion under IS.
        assert_eq!(st.ion_of_qubit(0), IonId(0));
    }
}
