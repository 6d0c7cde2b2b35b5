//! Quantum circuit intermediate representation for the QCCD-Sim toolflow.
//!
//! This crate provides the program-side substrate of the ISCA 2020 study
//! *Architecting Noisy Intermediate-Scale Trapped Ion Quantum Computers*:
//!
//! * a gate-level circuit IR ([`Circuit`], [`Operation`], [`Gate`]) with the
//!   fully-unrolled, control-flow-free structure assumed by NISQ compilers
//!   (§VI of the paper);
//! * static analysis ([`analysis`]) of gate counts, depth and communication
//!   patterns, reproducing the columns of Table II;
//! * an OpenQASM 2.0 subset reader/writer ([`qasm`]), mirroring the paper's
//!   "OpenQASM interface which allows us to easily interface with high-level
//!   language frontends";
//! * parametric generators ([`generators`]) for the six NISQ benchmarks of
//!   Table II (Supremacy, QAOA, SquareRoot, QFT, Adder, BV).
//!
//! # Example
//!
//! ```
//! use qccd_circuit::{Circuit, Gate, Qubit};
//!
//! let mut bell = Circuit::new("bell", 2);
//! bell.h(Qubit(0));
//! bell.cx(Qubit(0), Qubit(1));
//! bell.measure_all();
//! assert_eq!(bell.two_qubit_gate_count(), 1);
//! ```

#![warn(missing_docs)]

pub mod analysis;
pub mod circuit;
pub mod gate;
pub mod generators;
pub mod qasm;

pub use analysis::{CircuitStats, CommunicationPattern};
pub use circuit::{Circuit, Operation, Qubit};
pub use gate::{Gate, OneQubitGate, TwoQubitGate};
