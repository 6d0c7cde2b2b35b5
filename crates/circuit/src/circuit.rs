//! The circuit container: an ordered list of operations on program qubits.
//!
//! Per §VI of the paper, QC IR has no control dependencies: loops are fully
//! unrolled and functions inlined, so a program is exactly a gate sequence
//! with data (qubit) dependencies. [`Circuit`] is that sequence.

use crate::gate::{OneQubitGate, TwoQubitGate};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A program (logical) qubit index.
///
/// Program qubits are mapped onto hardware ions by the compiler; this
/// newtype keeps the two spaces statically distinct (`qccd-device` has the
/// corresponding `IonId`).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct Qubit(pub u32);

impl Qubit {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Qubit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "q{}", self.0)
    }
}

impl From<u32> for Qubit {
    fn from(v: u32) -> Self {
        Qubit(v)
    }
}

/// One instruction of the IR.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Operation {
    /// A single-qubit gate applied to `q`.
    OneQubit {
        /// The gate.
        gate: OneQubitGate,
        /// Target qubit.
        q: Qubit,
    },
    /// A two-qubit gate applied to `a` (control where relevant) and `b`.
    TwoQubit {
        /// The gate.
        gate: TwoQubitGate,
        /// First operand (control for `Cx`).
        a: Qubit,
        /// Second operand (target for `Cx`).
        b: Qubit,
    },
    /// Computational-basis measurement of `q`.
    Measure {
        /// The measured qubit.
        q: Qubit,
    },
    /// A scheduling fence over the listed qubits (OpenQASM `barrier`).
    Barrier {
        /// Qubits constrained by the fence.
        qs: Vec<Qubit>,
    },
}

impl Operation {
    /// The qubits this operation touches, in operand order, borrowed
    /// without allocating: a gate's operands from a two-slot array, a
    /// barrier's from its list.
    pub fn qubits(&self) -> impl Iterator<Item = Qubit> + '_ {
        let (operands, listed): ([Option<Qubit>; 2], &[Qubit]) = match self {
            Operation::OneQubit { q, .. } | Operation::Measure { q } => ([Some(*q), None], &[]),
            Operation::TwoQubit { a, b, .. } => ([Some(*a), Some(*b)], &[]),
            Operation::Barrier { qs } => ([None; 2], qs),
        };
        operands.into_iter().flatten().chain(listed.iter().copied())
    }

    /// `true` for two-qubit gate operations.
    pub fn is_two_qubit(&self) -> bool {
        matches!(self, Operation::TwoQubit { .. })
    }

    /// `true` for measurement operations.
    pub fn is_measure(&self) -> bool {
        matches!(self, Operation::Measure { .. })
    }
}

impl fmt::Display for Operation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operation::OneQubit { gate, q } => write!(f, "{gate} {q}"),
            Operation::TwoQubit { gate, a, b } => write!(f, "{gate} {a}, {b}"),
            Operation::Measure { q } => write!(f, "measure {q}"),
            Operation::Barrier { qs } => {
                f.write_str("barrier")?;
                for (i, q) in qs.iter().enumerate() {
                    if i == 0 {
                        write!(f, " {q}")?;
                    } else {
                        write!(f, ", {q}")?;
                    }
                }
                Ok(())
            }
        }
    }
}

/// Errors raised while constructing or validating a circuit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CircuitError {
    /// An operation referenced a qubit index `found` outside `0..num_qubits`.
    QubitOutOfRange {
        /// The offending qubit index.
        found: u32,
        /// The circuit width.
        num_qubits: u32,
    },
    /// A two-qubit operation used the same qubit for both operands.
    DuplicateOperand {
        /// The repeated qubit.
        q: Qubit,
    },
}

impl fmt::Display for CircuitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CircuitError::QubitOutOfRange { found, num_qubits } => write!(
                f,
                "qubit index {found} out of range for circuit with {num_qubits} qubits"
            ),
            CircuitError::DuplicateOperand { q } => {
                write!(f, "two-qubit operation uses qubit {q} twice")
            }
        }
    }
}

impl std::error::Error for CircuitError {}

/// An ordered quantum program over `num_qubits` program qubits.
///
/// The builder-style mutators (`h`, `cx`, …) validate their operands with
/// `debug_assert!`; use [`Circuit::validate`] for a full dynamic check (the
/// OpenQASM parser and the compiler front door both call it).
///
/// # Example
///
/// ```
/// use qccd_circuit::{Circuit, Qubit};
///
/// let mut c = Circuit::new("ghz3", 3);
/// c.h(Qubit(0));
/// c.cx(Qubit(0), Qubit(1));
/// c.cx(Qubit(1), Qubit(2));
/// c.measure_all();
/// assert_eq!(c.len(), 6);
/// assert!(c.validate().is_ok());
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct Circuit {
    name: String,
    num_qubits: u32,
    ops: Vec<Operation>,
}

impl Circuit {
    /// Creates an empty circuit with the given name and width.
    pub fn new(name: impl Into<String>, num_qubits: u32) -> Self {
        Circuit {
            name: name.into(),
            num_qubits,
            ops: Vec::new(),
        }
    }

    /// The circuit's name (used in reports and QASM headers).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Renames the circuit.
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    /// Number of program qubits.
    pub fn num_qubits(&self) -> u32 {
        self.num_qubits
    }

    /// Number of operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// `true` if the circuit has no operations.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The operation list.
    pub fn operations(&self) -> &[Operation] {
        &self.ops
    }

    /// Iterates over operations.
    pub fn iter(&self) -> std::slice::Iter<'_, Operation> {
        self.ops.iter()
    }

    /// Appends a raw operation.
    pub fn push(&mut self, op: Operation) {
        debug_assert!(
            op.qubits().all(|q| q.0 < self.num_qubits),
            "operation {op} references qubit outside 0..{}",
            self.num_qubits
        );
        self.ops.push(op);
    }

    /// Appends a single-qubit gate.
    pub fn one_qubit(&mut self, gate: OneQubitGate, q: Qubit) {
        self.push(Operation::OneQubit { gate, q });
    }

    /// Appends a two-qubit gate.
    pub fn two_qubit(&mut self, gate: TwoQubitGate, a: Qubit, b: Qubit) {
        debug_assert_ne!(a, b, "two-qubit gate operands must differ");
        self.push(Operation::TwoQubit { gate, a, b });
    }

    /// Appends a Hadamard.
    pub fn h(&mut self, q: Qubit) {
        self.one_qubit(OneQubitGate::H, q);
    }

    /// Appends a Pauli-X.
    pub fn x(&mut self, q: Qubit) {
        self.one_qubit(OneQubitGate::X, q);
    }

    /// Appends a Pauli-Z.
    pub fn z(&mut self, q: Qubit) {
        self.one_qubit(OneQubitGate::Z, q);
    }

    /// Appends an Rz rotation.
    pub fn rz(&mut self, theta: f64, q: Qubit) {
        self.one_qubit(OneQubitGate::Rz(theta), q);
    }

    /// Appends an Rx rotation.
    pub fn rx(&mut self, theta: f64, q: Qubit) {
        self.one_qubit(OneQubitGate::Rx(theta), q);
    }

    /// Appends an Ry rotation.
    pub fn ry(&mut self, theta: f64, q: Qubit) {
        self.one_qubit(OneQubitGate::Ry(theta), q);
    }

    /// Appends a phase gate `diag(1, e^{iθ})`.
    pub fn phase(&mut self, theta: f64, q: Qubit) {
        self.one_qubit(OneQubitGate::Phase(theta), q);
    }

    /// Appends a CNOT with control `c` and target `t`.
    pub fn cx(&mut self, c: Qubit, t: Qubit) {
        self.two_qubit(TwoQubitGate::Cx, c, t);
    }

    /// Appends a CZ.
    pub fn cz(&mut self, a: Qubit, b: Qubit) {
        self.two_qubit(TwoQubitGate::Cz, a, b);
    }

    /// Appends a native MS (XX) gate.
    pub fn ms(&mut self, a: Qubit, b: Qubit) {
        self.two_qubit(TwoQubitGate::Ms, a, b);
    }

    /// Appends a SWAP.
    pub fn swap(&mut self, a: Qubit, b: Qubit) {
        self.two_qubit(TwoQubitGate::Swap, a, b);
    }

    /// Appends a controlled-phase `CP(θ)` **decomposed into its standard
    /// 2-CNOT realisation** (Rz wrappers + 2 CX).
    ///
    /// Table II counts QFT's controlled-phases this way (64·63 = 4032
    /// two-qubit gates for 64 qubits), so the decomposition happens at IR
    /// construction time rather than in the compiler.
    pub fn cphase(&mut self, theta: f64, a: Qubit, b: Qubit) {
        self.rz(theta / 2.0, a);
        self.rz(theta / 2.0, b);
        self.cx(a, b);
        self.rz(-theta / 2.0, b);
        self.cx(a, b);
    }

    /// Appends a Toffoli (CCX) on controls `a`, `b` and target `t`,
    /// decomposed into the standard 6-CNOT + 1-qubit network.
    pub fn toffoli(&mut self, a: Qubit, b: Qubit, t: Qubit) {
        use OneQubitGate::{Tdg, H, T};
        self.one_qubit(H, t);
        self.cx(b, t);
        self.one_qubit(Tdg, t);
        self.cx(a, t);
        self.one_qubit(T, t);
        self.cx(b, t);
        self.one_qubit(Tdg, t);
        self.cx(a, t);
        self.one_qubit(T, b);
        self.one_qubit(T, t);
        self.cx(a, b);
        self.one_qubit(H, t);
        self.one_qubit(T, a);
        self.one_qubit(Tdg, b);
        self.cx(a, b);
    }

    /// Appends a measurement of `q`.
    pub fn measure(&mut self, q: Qubit) {
        self.push(Operation::Measure { q });
    }

    /// Measures every qubit, in index order.
    pub fn measure_all(&mut self) {
        for i in 0..self.num_qubits {
            self.measure(Qubit(i));
        }
    }

    /// Appends a barrier over all qubits.
    pub fn barrier_all(&mut self) {
        let qs = (0..self.num_qubits).map(Qubit).collect();
        self.push(Operation::Barrier { qs });
    }

    /// Total number of two-qubit gates (the paper's headline workload size).
    pub fn two_qubit_gate_count(&self) -> usize {
        self.ops.iter().filter(|o| o.is_two_qubit()).count()
    }

    /// Total number of single-qubit gates.
    pub fn one_qubit_gate_count(&self) -> usize {
        self.ops
            .iter()
            .filter(|o| matches!(o, Operation::OneQubit { .. }))
            .count()
    }

    /// Total number of measurement operations.
    pub fn measure_count(&self) -> usize {
        self.ops.iter().filter(|o| o.is_measure()).count()
    }

    /// Checks every operation's operands against the circuit width and
    /// rejects two-qubit gates with repeated operands.
    ///
    /// # Errors
    ///
    /// Returns the first [`CircuitError`] found, if any.
    pub fn validate(&self) -> Result<(), CircuitError> {
        for op in &self.ops {
            for q in op.qubits() {
                if q.0 >= self.num_qubits {
                    return Err(CircuitError::QubitOutOfRange {
                        found: q.0,
                        num_qubits: self.num_qubits,
                    });
                }
            }
            if let Operation::TwoQubit { a, b, .. } = op {
                if a == b {
                    return Err(CircuitError::DuplicateOperand { q: *a });
                }
            }
        }
        Ok(())
    }

    /// Program qubits in order of first use, the ordering used by the
    /// paper's greedy mapping heuristic (§VI). Qubits never used are
    /// appended afterwards in index order.
    pub fn qubits_by_first_use(&self) -> Vec<Qubit> {
        let n = self.num_qubits as usize;
        let mut seen = vec![false; n];
        let mut order = Vec::with_capacity(n);
        for op in &self.ops {
            for q in op.qubits() {
                if !seen[q.index()] {
                    seen[q.index()] = true;
                    order.push(q);
                }
            }
        }
        for (i, was_seen) in seen.iter().enumerate() {
            if !was_seen {
                order.push(Qubit(i as u32));
            }
        }
        order
    }
}

impl Extend<Operation> for Circuit {
    fn extend<T: IntoIterator<Item = Operation>>(&mut self, iter: T) {
        for op in iter {
            self.push(op);
        }
    }
}

impl<'a> IntoIterator for &'a Circuit {
    type Item = &'a Operation;
    type IntoIter = std::slice::Iter<'a, Operation>;

    fn into_iter(self) -> Self::IntoIter {
        self.ops.iter()
    }
}

impl fmt::Display for Circuit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "circuit {} ({} qubits, {} ops)",
            self.name,
            self.num_qubits,
            self.ops.len()
        )?;
        for op in &self.ops {
            writeln!(f, "  {op}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_methods_append_in_order() {
        let mut c = Circuit::new("t", 2);
        c.h(Qubit(0));
        c.cx(Qubit(0), Qubit(1));
        c.measure(Qubit(1));
        assert_eq!(c.len(), 3);
        assert!(matches!(c.operations()[0], Operation::OneQubit { .. }));
        assert!(c.operations()[1].is_two_qubit());
        assert!(c.operations()[2].is_measure());
    }

    #[test]
    fn counts_are_consistent() {
        let mut c = Circuit::new("t", 3);
        c.h(Qubit(0));
        c.x(Qubit(1));
        c.cx(Qubit(0), Qubit(1));
        c.cz(Qubit(1), Qubit(2));
        c.measure_all();
        assert_eq!(c.one_qubit_gate_count(), 2);
        assert_eq!(c.two_qubit_gate_count(), 2);
        assert_eq!(c.measure_count(), 3);
    }

    #[test]
    fn cphase_decomposes_to_two_cnots() {
        let mut c = Circuit::new("t", 2);
        c.cphase(std::f64::consts::FRAC_PI_2, Qubit(0), Qubit(1));
        assert_eq!(c.two_qubit_gate_count(), 2);
        assert_eq!(c.one_qubit_gate_count(), 3);
    }

    #[test]
    fn toffoli_decomposes_to_six_cnots() {
        let mut c = Circuit::new("t", 3);
        c.toffoli(Qubit(0), Qubit(1), Qubit(2));
        assert_eq!(c.two_qubit_gate_count(), 6);
    }

    #[test]
    fn validate_rejects_out_of_range() {
        let mut c = Circuit::new("t", 1);
        c.ops.push(Operation::Measure { q: Qubit(3) });
        assert_eq!(
            c.validate(),
            Err(CircuitError::QubitOutOfRange {
                found: 3,
                num_qubits: 1
            })
        );
    }

    #[test]
    fn validate_rejects_duplicate_operands() {
        let mut c = Circuit::new("t", 2);
        c.ops.push(Operation::TwoQubit {
            gate: TwoQubitGate::Cx,
            a: Qubit(1),
            b: Qubit(1),
        });
        assert_eq!(
            c.validate(),
            Err(CircuitError::DuplicateOperand { q: Qubit(1) })
        );
    }

    #[test]
    fn first_use_order_tracks_operations_then_unused() {
        let mut c = Circuit::new("t", 4);
        c.cx(Qubit(2), Qubit(0));
        c.h(Qubit(1));
        let order = c.qubits_by_first_use();
        assert_eq!(order, vec![Qubit(2), Qubit(0), Qubit(1), Qubit(3)]);
    }

    #[test]
    fn error_display_is_lowercase_prose() {
        let e = CircuitError::QubitOutOfRange {
            found: 9,
            num_qubits: 4,
        };
        let s = e.to_string();
        assert!(s.contains("out of range"));
        assert!(!s.ends_with('.'));
    }

    #[test]
    fn display_lists_each_operation() {
        let mut c = Circuit::new("bell", 2);
        c.h(Qubit(0));
        c.cx(Qubit(0), Qubit(1));
        let text = c.to_string();
        assert!(text.contains("h q0"));
        assert!(text.contains("cx q0, q1"));
    }
}
