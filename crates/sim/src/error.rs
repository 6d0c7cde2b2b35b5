//! Simulator error type.

use qccd_compiler::LegId;
use qccd_device::{IonId, JunctionId, SegmentId, TrapId};
use std::fmt;

/// Errors raised while interpreting an executable.
///
/// These guard against mismatched device/executable pairs, hand-written
/// executables, and compiler bugs. `qccd-compiler` aims never to emit a
/// stream that triggers them for the device it compiled against. The
/// checks that raise them, and the stream-order precedence among them,
/// are listed once, on [`crate::simulate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The initial chain table does not have one chain per device trap.
    ChainTableMismatch {
        /// Chains in the executable's initial chain table.
        chains: usize,
        /// Traps on the device.
        traps: usize,
    },
    /// The initial chain table leaves an ion below the executable's ion
    /// count out of every chain.
    UnplacedIon(IonId),
    /// An initial chain holds more ions than its trap's capacity.
    OverCapacity {
        /// The overfull trap.
        trap: TrapId,
        /// Ions in its initial chain.
        ions: usize,
        /// The trap's capacity on the device.
        capacity: u32,
    },
    /// An instruction referenced a trap the device does not have.
    UnknownTrap(TrapId),
    /// A move named a leg past the end of the executable's leg table.
    UnknownLeg(LegId),
    /// A move's leg crossed a segment the device does not have.
    UnknownSegment(SegmentId),
    /// A move's leg crossed a junction the device does not have.
    UnknownJunction(JunctionId),
    /// An instruction referenced an ion outside the executable's range.
    UnknownIon(IonId),
    /// A split named an ion that is not at the required chain end.
    SplitNotAtEnd(IonId, TrapId),
    /// A move/merge named an ion that is not in flight.
    IonNotInFlight(IonId),
    /// A gate named ions that are not co-located in one trap.
    NotColocated(IonId, IonId),
    /// An ion-swap named ions that are not chain-adjacent.
    NotAdjacent(IonId, IonId),
    /// A move's leg starts at another trap than the one its ion was
    /// split from or last moved to.
    MoveFromElsewhere {
        /// The moving ion.
        ion: IonId,
        /// Where the leg starts.
        from: TrapId,
        /// Where the ion is.
        at: TrapId,
    },
    /// A merge puts its ion into another trap than the one it was split
    /// from or last moved to.
    MergeElsewhere {
        /// The merging ion.
        ion: IonId,
        /// The trap the merge names.
        trap: TrapId,
        /// Where the ion is.
        at: TrapId,
    },
    /// A gate or split/merge targeted an ion that is in flight.
    IonInFlight(IonId),
    /// A two-ion instruction (MS gate, gate swap or ion swap) named the
    /// same ion twice.
    SameIon(IonId),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::ChainTableMismatch { chains, traps } => write!(
                f,
                "executable has {chains} initial chains but the device has {traps} traps"
            ),
            SimError::UnplacedIon(i) => {
                write!(f, "executable's initial chains do not place {i}")
            }
            SimError::OverCapacity {
                trap,
                ions,
                capacity,
            } => write!(
                f,
                "initial chain of {trap} holds {ions} ions, over its capacity of {capacity}"
            ),
            SimError::UnknownTrap(t) => write!(f, "executable references unknown trap {t}"),
            SimError::UnknownLeg(l) => write!(f, "executable references unknown {l}"),
            SimError::UnknownSegment(s) => write!(f, "executable references unknown segment {s}"),
            SimError::UnknownJunction(j) => {
                write!(f, "executable references unknown junction {j}")
            }
            SimError::UnknownIon(i) => write!(f, "executable references unknown ion {i}"),
            SimError::SplitNotAtEnd(i, t) => {
                write!(f, "split of {i} which is not at the required end of {t}")
            }
            SimError::IonNotInFlight(i) => write!(f, "{i} is not in flight"),
            SimError::NotColocated(a, b) => write!(f, "{a} and {b} are not in the same trap"),
            SimError::NotAdjacent(a, b) => write!(f, "{a} and {b} are not chain-adjacent"),
            SimError::MoveFromElsewhere { ion, from, at } => {
                write!(f, "{ion} is at {at} but its move starts at {from}")
            }
            SimError::MergeElsewhere { ion, trap, at } => {
                write!(f, "{ion} is at {at} but merges into {trap}")
            }
            SimError::IonInFlight(i) => write!(f, "{i} is in flight and cannot be gated"),
            SimError::SameIon(i) => write!(f, "two-ion instruction names {i} twice"),
        }
    }
}

impl std::error::Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_name_the_entities() {
        let e = SimError::NotColocated(IonId(3), IonId(9));
        assert!(e.to_string().contains("ion3"));
        assert!(e.to_string().contains("ion9"));
        let e = SimError::ChainTableMismatch {
            chains: 0,
            traps: 6,
        };
        assert_eq!(
            e.to_string(),
            "executable has 0 initial chains but the device has 6 traps"
        );
        assert_eq!(
            SimError::UnknownLeg(LegId(7)).to_string(),
            "executable references unknown leg7"
        );
        assert_eq!(
            SimError::UnplacedIon(IonId(2)).to_string(),
            "executable's initial chains do not place ion2"
        );
        assert_eq!(
            SimError::OverCapacity {
                trap: TrapId(1),
                ions: 18,
                capacity: 14,
            }
            .to_string(),
            "initial chain of T1 holds 18 ions, over its capacity of 14"
        );
        assert_eq!(
            SimError::MoveFromElsewhere {
                ion: IonId(4),
                from: TrapId(2),
                at: TrapId(0),
            }
            .to_string(),
            "ion4 is at T0 but its move starts at T2"
        );
        assert_eq!(
            SimError::MergeElsewhere {
                ion: IonId(4),
                trap: TrapId(3),
                at: TrapId(1),
            }
            .to_string(),
            "ion4 is at T1 but merges into T3"
        );
    }
}
