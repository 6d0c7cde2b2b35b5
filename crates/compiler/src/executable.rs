//! The QCCD executable: primitive instructions over physical ions.
//!
//! "The output of our compiler is an executable with primitive QCCD
//! instructions" (§V-A). Instructions reference *ions* (hardware qubits);
//! the program-qubit ↔ ion correspondence evolves during execution via
//! gate-based swaps and is recorded in the executable's final mapping.

use qccd_circuit::OneQubitGate;
use qccd_device::{IonId, Leg, Side, TrapId};
use serde::{Deserialize, Serialize};
use std::fmt;

/// One primitive QCCD instruction.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Inst {
    /// A single-qubit gate on an ion (executed in the ion's current trap).
    OneQubit {
        /// The gate.
        gate: OneQubitGate,
        /// Target ion.
        ion: IonId,
    },
    /// A native Mølmer–Sørensen gate between two co-located ions.
    Ms {
        /// First ion.
        a: IonId,
        /// Second ion.
        b: IonId,
    },
    /// A gate-based SWAP (3 MS gates + single-qubit corrections) that
    /// exchanges the *quantum states* of two co-located ions (GS chain
    /// reordering, §IV-C).
    SwapGate {
        /// First ion.
        a: IonId,
        /// Second ion.
        b: IonId,
    },
    /// A physical exchange of two *adjacent* ions: split, 180° rotation,
    /// merge (IS chain reordering, §IV-C).
    IonSwap {
        /// First ion.
        a: IonId,
        /// Second ion (chain-adjacent to `a`).
        b: IonId,
    },
    /// Split `ion` off the chain in `trap` at `side` (it must be the end
    /// ion on that side).
    Split {
        /// The departing ion.
        ion: IonId,
        /// Its current trap.
        trap: TrapId,
        /// The chain end it departs from.
        side: Side,
    },
    /// Move a split-off ion along one route leg (through segments and
    /// junctions only).
    Move {
        /// The ion in flight.
        ion: IonId,
        /// The leg travelled.
        leg: Leg,
    },
    /// Merge a moved ion into the chain in `trap` at `side`.
    Merge {
        /// The arriving ion.
        ion: IonId,
        /// The destination trap.
        trap: TrapId,
        /// The chain end it joins.
        side: Side,
    },
    /// Measure an ion in its current trap.
    Measure {
        /// The measured ion.
        ion: IonId,
    },
}

impl Inst {
    /// Ions referenced by this instruction, in operand order. Does not
    /// allocate.
    pub fn ions(&self) -> impl Iterator<Item = IonId> {
        let (first, second) = match self {
            Inst::OneQubit { ion, .. }
            | Inst::Split { ion, .. }
            | Inst::Move { ion, .. }
            | Inst::Merge { ion, .. }
            | Inst::Measure { ion } => (*ion, None),
            Inst::Ms { a, b } | Inst::SwapGate { a, b } | Inst::IonSwap { a, b } => (*a, Some(*b)),
        };
        std::iter::once(first).chain(second)
    }

    /// `true` for shuttling instructions (split/move/merge/ion-swap).
    pub fn is_communication(&self) -> bool {
        matches!(
            self,
            Inst::Split { .. } | Inst::Move { .. } | Inst::Merge { .. } | Inst::IonSwap { .. }
        )
    }
}

impl fmt::Display for Inst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Inst::OneQubit { gate, ion } => write!(f, "{gate} {ion}"),
            Inst::Ms { a, b } => write!(f, "ms {a}, {b}"),
            Inst::SwapGate { a, b } => write!(f, "swapgate {a}, {b}"),
            Inst::IonSwap { a, b } => write!(f, "ionswap {a}, {b}"),
            Inst::Split { ion, trap, side } => write!(f, "split {ion} from {trap} ({side})"),
            Inst::Move { ion, leg } => write!(
                f,
                "move {ion} {} -> {} ({}u, {} junctions)",
                leg.from,
                leg.to,
                leg.length_units,
                leg.junctions.len()
            ),
            Inst::Merge { ion, trap, side } => write!(f, "merge {ion} into {trap} ({side})"),
            Inst::Measure { ion } => write!(f, "measure {ion}"),
        }
    }
}

/// Instruction-count summary of an executable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct OpCounts {
    /// Single-qubit gates (including lowering wrappers).
    pub one_qubit_gates: usize,
    /// Native MS gates from the program (excluding reordering swaps).
    pub two_qubit_gates: usize,
    /// Gate-based reordering swaps (each is 3 MS gates).
    pub swap_gates: usize,
    /// Physical ion swaps.
    pub ion_swaps: usize,
    /// Chain splits.
    pub splits: usize,
    /// Moves (route legs).
    pub moves: usize,
    /// Chain merges.
    pub merges: usize,
    /// Junction crossings (total over all moves).
    pub junction_crossings: usize,
    /// Measurements.
    pub measurements: usize,
}

impl OpCounts {
    /// Total shuttling operations (splits + moves + merges + ion swaps).
    pub fn communication_ops(&self) -> usize {
        self.splits + self.moves + self.merges + self.ion_swaps
    }
}

/// A compiled program: initial placement plus instruction stream.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Executable {
    name: String,
    num_ions: u32,
    initial_chains: Vec<Vec<IonId>>,
    insts: Vec<Inst>,
    final_qubit_of_ion: Vec<u32>,
}

impl Executable {
    /// Assembles an executable from parts.
    ///
    /// Normally produced by [`crate::compile()`]; public so tests, tools and
    /// alternative compilers can hand-author instruction streams. The
    /// simulator validates structure at load time.
    pub fn new(
        name: String,
        num_ions: u32,
        initial_chains: Vec<Vec<IonId>>,
        insts: Vec<Inst>,
        final_qubit_of_ion: Vec<u32>,
    ) -> Self {
        Executable {
            name,
            num_ions,
            initial_chains,
            insts,
            final_qubit_of_ion,
        }
    }

    /// Source circuit name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of physical ions used.
    pub fn num_ions(&self) -> u32 {
        self.num_ions
    }

    /// Initial chain contents per trap (index = trap id), in left-to-right
    /// chain order.
    pub fn initial_chains(&self) -> &[Vec<IonId>] {
        &self.initial_chains
    }

    /// The instruction stream, in a dependency-respecting total order.
    pub fn instructions(&self) -> &[Inst] {
        &self.insts
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// `true` if the executable has no instructions.
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// For each ion, the program qubit whose state it carries at the end
    /// of execution (`u32::MAX` for ions never assigned a qubit).
    pub fn final_qubit_of_ion(&self) -> &[u32] {
        &self.final_qubit_of_ion
    }

    /// Tallies the instruction stream.
    pub fn counts(&self) -> OpCounts {
        let mut c = OpCounts::default();
        for inst in &self.insts {
            match inst {
                Inst::OneQubit { .. } => c.one_qubit_gates += 1,
                Inst::Ms { .. } => c.two_qubit_gates += 1,
                Inst::SwapGate { .. } => c.swap_gates += 1,
                Inst::IonSwap { .. } => c.ion_swaps += 1,
                Inst::Split { .. } => c.splits += 1,
                Inst::Move { leg, .. } => {
                    c.moves += 1;
                    c.junction_crossings += leg.junctions.len();
                }
                Inst::Merge { .. } => c.merges += 1,
                Inst::Measure { .. } => c.measurements += 1,
            }
        }
        c
    }
}

impl fmt::Display for Executable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "executable {} ({} ions, {} instructions)",
            self.name,
            self.num_ions,
            self.insts.len()
        )?;
        for inst in &self.insts {
            writeln!(f, "  {inst}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_tally_each_kind() {
        let insts = vec![
            Inst::OneQubit {
                gate: OneQubitGate::H,
                ion: IonId(0),
            },
            Inst::Ms {
                a: IonId(0),
                b: IonId(1),
            },
            Inst::SwapGate {
                a: IonId(0),
                b: IonId(1),
            },
            Inst::Measure { ion: IonId(0) },
        ];
        let exe = Executable::new(
            "t".into(),
            2,
            vec![vec![IonId(0), IonId(1)]],
            insts,
            vec![0, 1],
        );
        let c = exe.counts();
        assert_eq!(c.one_qubit_gates, 1);
        assert_eq!(c.two_qubit_gates, 1);
        assert_eq!(c.swap_gates, 1);
        assert_eq!(c.measurements, 1);
        assert_eq!(c.communication_ops(), 0);
    }

    #[test]
    fn instruction_ions_and_classes() {
        let ms = Inst::Ms {
            a: IonId(3),
            b: IonId(5),
        };
        assert_eq!(ms.ions().collect::<Vec<_>>(), vec![IonId(3), IonId(5)]);
        assert!(!ms.is_communication());
        let split = Inst::Split {
            ion: IonId(1),
            trap: TrapId(0),
            side: Side::Right,
        };
        assert_eq!(split.ions().collect::<Vec<_>>(), vec![IonId(1)]);
        assert!(split.is_communication());
    }

    #[test]
    fn display_is_readable() {
        let s = Inst::Split {
            ion: IonId(4),
            trap: TrapId(2),
            side: Side::Left,
        };
        assert_eq!(s.to_string(), "split ion4 from T2 (left)");
    }
}
