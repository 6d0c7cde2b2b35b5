//! The QCCD executable: primitive instructions over physical ions.
//!
//! "The output of our compiler is an executable with primitive QCCD
//! instructions" (§V-A). Instructions reference *ions* (hardware qubits);
//! the program-qubit ↔ ion correspondence evolves during execution via
//! gate-based swaps and is recorded in the executable's final mapping.
//!
//! The stream is compact: an [`Inst`] is 24 bytes and owns no heap
//! memory. A move names its route leg by [`LegId`], an index into the
//! executable's flat [`LegTable`], which holds every leg's header and
//! one shared array each of segment and junction ids.

use qccd_circuit::OneQubitGate;
use qccd_device::{IonId, JunctionId, Leg, SegmentId, Side, TrapId};
use serde::{Deserialize, Serialize};
use std::fmt;

/// One primitive QCCD instruction: 24 bytes, no heap memory (a move's
/// leg lives in its executable's [`LegTable`]).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
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
        /// The leg travelled, in the executable's [`LegTable`].
        leg: LegId,
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
}

const _: () = assert!(std::mem::size_of::<Inst>() == 24);

impl fmt::Display for Inst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Inst::OneQubit { gate, ion } => write!(f, "{gate} {ion}"),
            Inst::Ms { a, b } => write!(f, "ms {a}, {b}"),
            Inst::SwapGate { a, b } => write!(f, "swapgate {a}, {b}"),
            Inst::IonSwap { a, b } => write!(f, "ionswap {a}, {b}"),
            Inst::Split { ion, trap, side } => write!(f, "split {ion} from {trap} ({side})"),
            Inst::Move { ion, leg } => write!(f, "move {ion} along {leg}"),
            Inst::Merge { ion, trap, side } => write!(f, "merge {ion} into {trap} ({side})"),
            Inst::Measure { ion } => write!(f, "measure {ion}"),
        }
    }
}

/// Index of a leg in its executable's [`LegTable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LegId(pub u32);

impl LegId {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for LegId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "leg{}", self.0)
    }
}

/// One leg of a [`LegTable`]: the fields of a [`Leg`], its id lists
/// read as slices of the table's shared arrays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LegView<'a> {
    /// Source trap.
    pub from: TrapId,
    /// End of the source chain the ion departs from.
    pub exit_side: Side,
    /// Destination trap.
    pub to: TrapId,
    /// End of the destination chain the ion arrives at.
    pub entry_side: Side,
    /// Segments traversed, in order.
    pub segments: &'a [SegmentId],
    /// Junctions crossed, in order.
    pub junctions: &'a [JunctionId],
    /// Total length in unit segments.
    pub length_units: u32,
}

/// Where one leg's fields and id ranges sit in a [`LegTable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
struct LegHeader {
    from: TrapId,
    exit_side: Side,
    to: TrapId,
    entry_side: Side,
    length_units: u32,
    /// `start..end` in [`LegTable::segments`].
    segments: [u32; 2],
    /// `start..end` in [`LegTable::junctions`].
    junctions: [u32; 2],
}

/// The route legs of one executable, flat: one header per leg plus one
/// array of every leg's segment ids and one of its junction ids.
///
/// Filled only by [`LegTable::push`], so every header's ranges lie
/// inside the shared arrays; the simulator still rejects a [`LegId`]
/// past the table's end.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize)]
pub struct LegTable {
    headers: Vec<LegHeader>,
    segments: Vec<SegmentId>,
    junctions: Vec<JunctionId>,
}

impl LegTable {
    /// An empty table.
    pub fn new() -> Self {
        LegTable::default()
    }

    /// Appends a copy of `leg` and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if the table would hold `u32::MAX` or more legs, segment
    /// ids or junction ids, past what its `u32` ids and ranges address.
    pub fn push(&mut self, leg: &Leg) -> LegId {
        let id = LegId(self.headers.len() as u32);
        let (s0, j0) = (self.segments.len() as u32, self.junctions.len() as u32);
        self.segments.extend_from_slice(&leg.segments);
        self.junctions.extend_from_slice(&leg.junctions);
        let max = u32::MAX as usize;
        assert!(
            self.headers.len() < max && self.segments.len() < max && self.junctions.len() < max,
            "a leg table addresses fewer than u32::MAX legs, segment ids and junction ids"
        );
        self.headers.push(LegHeader {
            from: leg.from,
            exit_side: leg.exit_side,
            to: leg.to,
            entry_side: leg.entry_side,
            length_units: leg.length_units,
            segments: [s0, self.segments.len() as u32],
            junctions: [j0, self.junctions.len() as u32],
        });
        id
    }

    /// The leg `id`, or `None` past the table's end.
    pub fn get(&self, id: LegId) -> Option<LegView<'_>> {
        let h = self.headers.get(id.index())?;
        let [s0, s1] = h.segments;
        let [j0, j1] = h.junctions;
        Some(LegView {
            from: h.from,
            exit_side: h.exit_side,
            to: h.to,
            entry_side: h.entry_side,
            segments: &self.segments[s0 as usize..s1 as usize],
            junctions: &self.junctions[j0 as usize..j1 as usize],
            length_units: h.length_units,
        })
    }

    /// Number of legs.
    pub fn len(&self) -> usize {
        self.headers.len()
    }

    /// `true` if the table holds no leg.
    pub fn is_empty(&self) -> bool {
        self.headers.is_empty()
    }

    /// Frees the spare capacity the tables grew by doubling.
    fn shrink_to_fit(&mut self) {
        self.headers.shrink_to_fit();
        self.segments.shrink_to_fit();
        self.junctions.shrink_to_fit();
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

/// A compiled program: initial placement, instruction stream and the
/// leg table its moves index.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Executable {
    name: String,
    num_ions: u32,
    initial_chains: Vec<Vec<IonId>>,
    insts: Vec<Inst>,
    legs: LegTable,
    final_qubit_of_ion: Vec<u32>,
}

impl Executable {
    /// Assembles an executable from parts.
    ///
    /// Normally produced by [`crate::compile()`]; public so tests, tools and
    /// alternative compilers can hand-author instruction streams. The
    /// simulator validates structure as it steps the stream. The
    /// instruction stream and the leg table keep only what they hold,
    /// not the spare capacity they grew by.
    pub fn new(
        name: String,
        num_ions: u32,
        initial_chains: Vec<Vec<IonId>>,
        mut insts: Vec<Inst>,
        mut legs: LegTable,
        final_qubit_of_ion: Vec<u32>,
    ) -> Self {
        insts.shrink_to_fit();
        legs.shrink_to_fit();
        Executable {
            name,
            num_ions,
            initial_chains,
            insts,
            legs,
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

    /// The legs the stream's moves index.
    pub fn legs(&self) -> &LegTable {
        &self.legs
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
                    c.junction_crossings += self.legs.get(*leg).map_or(0, |l| l.junctions.len());
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
            match inst {
                Inst::Move { ion, leg } => match self.legs.get(*leg) {
                    Some(l) => writeln!(
                        f,
                        "  move {ion} {} -> {} ({}u, {} junctions)",
                        l.from,
                        l.to,
                        l.length_units,
                        l.junctions.len()
                    )?,
                    None => writeln!(f, "  {inst}")?,
                },
                _ => writeln!(f, "  {inst}")?,
            }
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
            LegTable::new(),
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
        let split = Inst::Split {
            ion: IonId(1),
            trap: TrapId(0),
            side: Side::Right,
        };
        assert_eq!(split.ions().collect::<Vec<_>>(), vec![IonId(1)]);
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

    /// A leg with `segments` and `junctions`, from T0's right end to T1's
    /// left end.
    fn leg(segments: &[u32], junctions: &[u32]) -> Leg {
        Leg {
            from: TrapId(0),
            exit_side: Side::Right,
            to: TrapId(1),
            entry_side: Side::Left,
            segments: segments.iter().map(|&s| SegmentId(s)).collect(),
            junctions: junctions.iter().map(|&j| JunctionId(j)).collect(),
            length_units: 3,
        }
    }

    #[test]
    fn leg_table_reads_back_each_leg_as_pushed() {
        let legs = [leg(&[4, 2], &[1]), leg(&[], &[]), leg(&[7], &[0, 3])];
        let mut table = LegTable::new();
        let ids: Vec<LegId> = legs.iter().map(|l| table.push(l)).collect();
        assert_eq!(ids, vec![LegId(0), LegId(1), LegId(2)]);
        assert_eq!(table.len(), 3);
        for (l, id) in legs.iter().zip(ids) {
            let v = table.get(id).expect("pushed");
            assert_eq!(
                (v.from, v.exit_side, v.to, v.entry_side, v.length_units),
                (l.from, l.exit_side, l.to, l.entry_side, l.length_units)
            );
            assert_eq!(v.segments, &l.segments[..]);
            assert_eq!(v.junctions, &l.junctions[..]);
        }
        assert_eq!(table.get(LegId(3)), None);
    }

    #[test]
    fn moves_read_their_legs_from_the_table() {
        let mut legs = LegTable::new();
        let id = legs.push(&leg(&[0, 1], &[0, 1]));
        let exe = Executable::new(
            "t".into(),
            1,
            vec![vec![IonId(0)], vec![]],
            vec![
                Inst::Split {
                    ion: IonId(0),
                    trap: TrapId(0),
                    side: Side::Right,
                },
                Inst::Move {
                    ion: IonId(0),
                    leg: id,
                },
            ],
            legs,
            vec![0],
        );
        assert_eq!(exe.counts().junction_crossings, 2);
        assert!(exe
            .to_string()
            .contains("move ion0 T0 -> T1 (3u, 2 junctions)"));
        let orphan = Inst::Move {
            ion: IonId(0),
            leg: LegId(9),
        };
        assert_eq!(orphan.to_string(), "move ion0 along leg9");
    }
}
