//! Gate definitions for the circuit IR.
//!
//! The IR keeps a conventional universal gate set (the kind emitted by
//! front-ends such as Qiskit, Cirq or ScaffCC). Lowering to the trapped-ion
//! native set — arbitrary single-qubit rotations plus the Mølmer–Sørensen
//! (MS/XX) entangling gate — is performed by the `qccd-compiler` crate,
//! following Maslov's basic circuit compilation for ion traps (paper §VII-A).

use serde::{Deserialize, Serialize};
use std::fmt;

/// A single-qubit gate.
///
/// Angles are in radians. The discrete Clifford+T names are kept distinct
/// from their rotation equivalents because benchmark statistics (Table II)
/// and OpenQASM round-tripping want to preserve the source-level identity.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum OneQubitGate {
    /// Hadamard.
    H,
    /// Pauli-X.
    X,
    /// Pauli-Y.
    Y,
    /// Pauli-Z.
    Z,
    /// Phase gate S = diag(1, i).
    S,
    /// Inverse phase gate.
    Sdg,
    /// T = diag(1, e^{iπ/4}).
    T,
    /// Inverse T gate.
    Tdg,
    /// √X, used by the supremacy benchmark's single-qubit layer.
    SqrtX,
    /// √Y, used by the supremacy benchmark's single-qubit layer.
    SqrtY,
    /// √W with W = (X+Y)/√2, used by the supremacy benchmark.
    SqrtW,
    /// Rotation about X by the given angle.
    Rx(f64),
    /// Rotation about Y by the given angle.
    Ry(f64),
    /// Rotation about Z by the given angle.
    Rz(f64),
    /// Diagonal phase rotation `diag(1, e^{iθ})` (OpenQASM `u1`/`p`).
    Phase(f64),
}

impl OneQubitGate {
    /// Canonical lower-case mnemonic, matching OpenQASM 2.0 where possible.
    pub fn mnemonic(&self) -> &'static str {
        match self {
            OneQubitGate::H => "h",
            OneQubitGate::X => "x",
            OneQubitGate::Y => "y",
            OneQubitGate::Z => "z",
            OneQubitGate::S => "s",
            OneQubitGate::Sdg => "sdg",
            OneQubitGate::T => "t",
            OneQubitGate::Tdg => "tdg",
            OneQubitGate::SqrtX => "sx",
            OneQubitGate::SqrtY => "sy",
            OneQubitGate::SqrtW => "sw",
            OneQubitGate::Rx(_) => "rx",
            OneQubitGate::Ry(_) => "ry",
            OneQubitGate::Rz(_) => "rz",
            OneQubitGate::Phase(_) => "p",
        }
    }

    /// The rotation angle carried by parametric gates, if any.
    pub fn angle(&self) -> Option<f64> {
        match self {
            OneQubitGate::Rx(t)
            | OneQubitGate::Ry(t)
            | OneQubitGate::Rz(t)
            | OneQubitGate::Phase(t) => Some(*t),
            _ => None,
        }
    }
}

impl fmt::Display for OneQubitGate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.angle() {
            Some(theta) => write!(f, "{}({:.6})", self.mnemonic(), theta),
            None => f.write_str(self.mnemonic()),
        }
    }
}

/// A two-qubit gate.
///
/// `Ms` is the native trapped-ion entangler; the others are source-level
/// gates that the compiler lowers onto one or more MS gates.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum TwoQubitGate {
    /// Controlled-NOT: lowered to 1 MS gate plus single-qubit wrappers.
    Cx,
    /// Controlled-Z: lowered to 1 MS gate plus single-qubit wrappers.
    Cz,
    /// Native Mølmer–Sørensen XX(θ) gate.
    Ms,
    /// SWAP: lowered to 3 MS gates (used by gate-based chain reordering).
    Swap,
}

impl TwoQubitGate {
    /// Canonical lower-case mnemonic, matching OpenQASM 2.0 where possible.
    pub fn mnemonic(&self) -> &'static str {
        match self {
            TwoQubitGate::Cx => "cx",
            TwoQubitGate::Cz => "cz",
            TwoQubitGate::Ms => "ms",
            TwoQubitGate::Swap => "swap",
        }
    }
}

impl fmt::Display for TwoQubitGate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// Either kind of gate; convenient for code that is generic over arity.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Gate {
    /// A single-qubit gate.
    One(OneQubitGate),
    /// A two-qubit gate.
    Two(TwoQubitGate),
}

impl Gate {
    /// Number of qubits the gate acts on (1 or 2).
    pub fn arity(&self) -> usize {
        match self {
            Gate::One(_) => 1,
            Gate::Two(_) => 2,
        }
    }
}

impl From<OneQubitGate> for Gate {
    fn from(g: OneQubitGate) -> Self {
        Gate::One(g)
    }
}

impl From<TwoQubitGate> for Gate {
    fn from(g: TwoQubitGate) -> Self {
        Gate::Two(g)
    }
}

impl fmt::Display for Gate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Gate::One(g) => g.fmt(f),
            Gate::Two(g) => g.fmt(f),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mnemonics_are_lowercase_and_stable() {
        assert_eq!(OneQubitGate::H.mnemonic(), "h");
        assert_eq!(OneQubitGate::Rz(1.0).mnemonic(), "rz");
        assert_eq!(TwoQubitGate::Cx.mnemonic(), "cx");
        assert_eq!(TwoQubitGate::Ms.mnemonic(), "ms");
    }

    #[test]
    fn angles_only_on_parametric_gates() {
        assert_eq!(OneQubitGate::H.angle(), None);
        assert_eq!(OneQubitGate::Rx(0.25).angle(), Some(0.25));
        assert_eq!(OneQubitGate::Phase(-1.5).angle(), Some(-1.5));
    }

    #[test]
    fn display_includes_angle_for_parametric() {
        assert_eq!(format!("{}", OneQubitGate::H), "h");
        assert!(format!("{}", OneQubitGate::Rz(0.5)).starts_with("rz(0.5"));
        assert_eq!(format!("{}", Gate::Two(TwoQubitGate::Swap)), "swap");
    }

    #[test]
    fn arity_matches_variant() {
        assert_eq!(Gate::from(OneQubitGate::X).arity(), 1);
        assert_eq!(Gate::from(TwoQubitGate::Cz).arity(), 2);
    }
}
