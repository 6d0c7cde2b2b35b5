//! Bernstein–Vazirani.
//!
//! The standard phase-kickback construction: `n` data qubits plus one
//! ancilla prepared in |−⟩; a CNOT from data qubit *i* to the ancilla for
//! every set bit of the secret string. The paper uses BV to characterise
//! trapped-ion hardware (Wright et al.'s 11-qubit benchmark) and lists it
//! at 64 qubits / 64 two-qubit gates.
//!
//! With the all-ones secret, `bv(63)` gives a 64-qubit circuit with 63
//! CNOTs — one fewer gate than Table II's nominal 64, the closest integral
//! realisation. The star-shaped pattern
//! (everything targets the ancilla) is what Table II calls "short and
//! long-range gates".

use crate::circuit::{Circuit, Qubit};

/// Builds a Bernstein–Vazirani circuit for the given `secret` bit-string.
///
/// The circuit has `secret.len() + 1` qubits; the ancilla is the last.
///
/// # Panics
///
/// Panics if `secret` is empty.
pub fn bv(secret: &[bool]) -> Circuit {
    assert!(!secret.is_empty(), "bv secret must be non-empty");
    let n = secret.len() as u32;
    let ancilla = Qubit(n);
    let mut c = Circuit::new(format!("bv_n{n}"), n + 1);
    for i in 0..n {
        c.h(Qubit(i));
    }
    c.x(ancilla);
    c.h(ancilla);
    for (i, &bit) in secret.iter().enumerate() {
        if bit {
            c.cx(Qubit(i as u32), ancilla);
        }
    }
    for i in 0..n {
        c.h(Qubit(i));
    }
    for i in 0..n {
        c.measure(Qubit(i));
    }
    c
}

/// The Table II instance: the all-ones secret of length 63, giving a
/// 64-qubit circuit with 63 CNOTs (~the paper's 64/64).
pub fn bv_paper() -> Circuit {
    bv(&[true; 63])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::Operation;

    #[test]
    fn paper_instance_dimensions() {
        let c = bv_paper();
        assert_eq!(c.num_qubits(), 64);
        assert_eq!(c.two_qubit_gate_count(), 63);
    }

    #[test]
    fn gate_count_equals_secret_weight() {
        let secret = [true, false, true, true, false];
        let c = bv(&secret);
        assert_eq!(c.two_qubit_gate_count(), 3);
        assert_eq!(c.num_qubits(), 6);
    }

    #[test]
    fn every_cnot_targets_the_ancilla() {
        let c = bv(&[true; 10]);
        let ancilla = Qubit(10);
        for op in c.iter() {
            if let Operation::TwoQubit { b, .. } = op {
                assert_eq!(*b, ancilla);
            }
        }
    }

    #[test]
    fn measures_only_data_qubits() {
        let c = bv(&[true; 7]);
        assert_eq!(c.measure_count(), 7);
    }

    #[test]
    fn zero_secret_has_no_two_qubit_gates() {
        let c = bv(&[false, false, false]);
        assert_eq!(c.two_qubit_gate_count(), 0);
        assert!(c.validate().is_ok());
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_secret_panics() {
        let _ = bv(&[]);
    }
}
