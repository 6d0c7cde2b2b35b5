//! Chain-reordering policies (pipeline seam 3, paper §IV-C).

use super::ReorderPolicy;
use crate::executable::Inst;
use crate::state::MachineState;
use qccd_device::{IonId, Side, TrapId};

/// Gate-based swapping (GS): one SWAP gate (3 MS gates) exchanges the
/// *quantum states* of the target ion and the ion already at the chain
/// end, which then departs carrying the right state. The default
/// pipeline's reordering.
#[derive(Debug, Clone, Copy, Default)]
pub struct GateSwapReorder;

impl ReorderPolicy for GateSwapReorder {
    fn name(&self) -> &'static str {
        "gate-swap"
    }

    fn bring_to_end(
        &self,
        state: &mut MachineState,
        out: &mut Vec<Inst>,
        ion: IonId,
        trap: TrapId,
        side: Side,
    ) {
        let end = state
            .end_ion(trap, side)
            // qccd-lint: allow(engine-panic) — the expect message documents a structural invariant; a violation is a bug, not an input error
            .expect("reorder on a non-empty chain");
        if end != ion {
            out.push(Inst::SwapGate { a: ion, b: end });
            state.swap_states(ion, end);
        }
    }
}

/// Physical ion swapping (IS): the ion is moved to the end hop by hop;
/// each hop is a split, a 180° rotation of the adjacent pair, and a
/// merge (Kaufmann et al. 2017).
#[derive(Debug, Clone, Copy, Default)]
pub struct IonSwapReorder;

impl ReorderPolicy for IonSwapReorder {
    fn name(&self) -> &'static str {
        "ion-swap"
    }

    fn bring_to_end(
        &self,
        state: &mut MachineState,
        out: &mut Vec<Inst>,
        ion: IonId,
        trap: TrapId,
        side: Side,
    ) {
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
        GateSwapReorder.bring_to_end(&mut st, &mut out, IonId(0), TrapId(0), Side::Right);
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
        GateSwapReorder.bring_to_end(&mut st, &mut out, IonId(2), TrapId(0), Side::Right);
        assert!(out.is_empty());
    }

    #[test]
    fn ion_swap_walks_the_ion_to_the_end() {
        let mut st = chain_of_three();
        let mut out = Vec::new();
        IonSwapReorder.bring_to_end(&mut st, &mut out, IonId(0), TrapId(0), Side::Right);
        assert_eq!(out.len(), 2, "two hops from position 0 to position 2");
        assert!(out.iter().all(|i| matches!(i, Inst::IonSwap { .. })));
        assert_eq!(st.chain(TrapId(0)), &[IonId(1), IonId(2), IonId(0)]);
        // The state rides the ion under IS.
        assert_eq!(st.ion_of_qubit(0), IonId(0));
    }
}
