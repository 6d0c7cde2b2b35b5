//! Initial qubit-to-trap mapping (§VI).
//!
//! "Our heuristic orders the program qubits according to the sequence in
//! which they are used by the application. It maps each qubit to a trap,
//! co-locating qubits according to trap capacity constraints… To leave
//! enough buffer space for incoming shuttles, the heuristic ensures that
//! traps are not completely filled (in our experiments, we leave room for
//! 2 incoming ions per trap)."
//!
//! The buffer is relaxed (2 → 1 → 0 free slots) only when the program
//! would otherwise not fit — e.g. the 78-qubit SquareRoot on six traps of
//! capacity 14 (84 slots).

use crate::error::CompileError;
use qccd_circuit::Circuit;
use qccd_device::{Device, IonId};
use serde::{Deserialize, Serialize};

/// An initial placement of ions into traps.
///
/// Ion `i` carries program qubit `i`; chains list ions left→right.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Placement {
    chains: Vec<Vec<IonId>>,
}

impl Placement {
    /// Builds a placement directly from per-trap chains (used by tests and
    /// custom mappers).
    pub fn from_chains(chains: Vec<Vec<IonId>>) -> Self {
        Placement { chains }
    }

    /// Per-trap chains (index = trap id).
    pub fn chains(&self) -> &[Vec<IonId>] {
        &self.chains
    }

    /// Total ions placed.
    pub fn num_ions(&self) -> u32 {
        self.chains.iter().map(|c| c.len() as u32).sum()
    }

    /// Ions in the trap holding the most ions.
    pub fn max_occupancy(&self) -> usize {
        self.chains.iter().map(Vec::len).max().unwrap_or(0)
    }
}

/// Greedy first-use mapping of `circuit`'s qubits onto `device`'s traps.
///
/// Qubits are taken in first-use order and packed into traps in trap-id
/// order, leaving `buffer_slots` free per trap where possible.
///
/// # Errors
///
/// Returns [`CompileError::InsufficientCapacity`] if the device cannot
/// hold the program even with the buffer fully relaxed.
pub fn initial_map(
    circuit: &Circuit,
    device: &Device,
    buffer_slots: u32,
) -> Result<Placement, CompileError> {
    let order = circuit.qubits_by_first_use();
    fill_traps(circuit, device, buffer_slots, |i, _| IonId(order[i].0))
}

/// Fills `device`'s traps in trap-id order up to `buffer_slots` below
/// capacity, relaxing the buffer one slot at a time (2 → 1 → 0) while
/// qubits remain. `next(i, chain)` names the ion appended as the `i`-th
/// placement to a trap currently holding `chain`; it is called once per
/// program qubit. The placement policies differ only in `next`.
///
/// # Errors
///
/// Returns [`CompileError::InsufficientCapacity`] if the device cannot
/// hold the program even with the buffer fully relaxed.
pub(crate) fn fill_traps(
    circuit: &Circuit,
    device: &Device,
    buffer_slots: u32,
    mut next: impl FnMut(usize, &[IonId]) -> IonId,
) -> Result<Placement, CompileError> {
    let needed = circuit.num_qubits();
    if needed > device.total_capacity() {
        return Err(CompileError::InsufficientCapacity {
            needed,
            capacity: device.total_capacity(),
        });
    }

    let needed = needed as usize;
    let mut chains: Vec<Vec<IonId>> = vec![Vec::new(); device.trap_count()];
    let mut placed = 0usize;
    let mut buffer = buffer_slots;
    loop {
        for t in device.trap_ids() {
            let limit = device.trap(t).capacity().saturating_sub(buffer) as usize;
            let chain = &mut chains[t.index()];
            while chain.len() < limit && placed < needed {
                let ion = next(placed, chain);
                chain.push(ion);
                placed += 1;
            }
        }
        if placed >= needed {
            break;
        }
        if buffer == 0 {
            // All traps at physical capacity yet qubits remain: impossible
            // because of the total-capacity check above.
            unreachable!("capacity check guarantees placement terminates");
        }
        buffer -= 1;
    }
    Ok(Placement { chains })
}

#[cfg(test)]
mod tests {
    use super::*;
    use qccd_circuit::Qubit;
    use qccd_device::presets;

    fn line_circuit(n: u32) -> Circuit {
        let mut c = Circuit::new("line", n);
        for i in 0..n - 1 {
            c.cx(Qubit(i), Qubit(i + 1));
        }
        c
    }

    #[test]
    fn respects_buffer_when_it_fits() {
        let c = line_circuit(64);
        let d = presets::l6(20);
        let p = initial_map(&c, &d, 2).unwrap();
        assert_eq!(p.num_ions(), 64);
        assert!(p.max_occupancy() <= 18);
        // First-use order on a line circuit = index order.
        assert_eq!(p.chains()[0][0], IonId(0));
        assert_eq!(p.chains()[0][17], IonId(17));
        assert_eq!(p.chains()[1][0], IonId(18));
    }

    #[test]
    fn relaxes_buffer_when_tight() {
        // 78 qubits on 6×14 = 84 slots: buffer of 2 leaves only 72, so the
        // mapper must relax to 1 free slot per trap.
        let c = line_circuit(78);
        let d = presets::l6(14);
        let p = initial_map(&c, &d, 2).unwrap();
        assert_eq!(p.num_ions(), 78);
        assert!(p.max_occupancy() <= 14);
        // Still not completely full anywhere: 78 = 6×13 exactly.
        assert_eq!(p.max_occupancy(), 13);
    }

    #[test]
    fn fails_when_physically_impossible() {
        let c = line_circuit(100);
        let d = presets::l6(14);
        let err = initial_map(&c, &d, 2).unwrap_err();
        assert_eq!(
            err,
            CompileError::InsufficientCapacity {
                needed: 100,
                capacity: 84
            }
        );
    }

    #[test]
    fn first_use_order_drives_placement() {
        // Qubit 3 used first, then 0.
        let mut c = Circuit::new("t", 4);
        c.cx(Qubit(3), Qubit(0));
        c.h(Qubit(1));
        let d = presets::linear(2, 3, 4);
        let p = initial_map(&c, &d, 2).unwrap();
        // Capacity 3, buffer 2 → 1 per trap on first pass; 4 qubits on 2
        // traps forces relaxation; order is [3, 0, 1, 2].
        assert_eq!(p.chains()[0][0], IonId(3));
    }

    #[test]
    fn exact_fit_fills_every_slot() {
        let c = line_circuit(12);
        let d = presets::linear(3, 4, 4);
        let p = initial_map(&c, &d, 2).unwrap();
        assert_eq!(p.num_ions(), 12);
        assert_eq!(p.max_occupancy(), 4);
    }

    #[test]
    fn empty_circuit_places_nothing() {
        let c = Circuit::new("e", 0);
        let d = presets::l6(14);
        let p = initial_map(&c, &d, 2).unwrap();
        assert_eq!(p.num_ions(), 0);
    }
}
