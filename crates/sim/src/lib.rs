//! Discrete-event simulator for QCCD executables.
//!
//! Implements §V-B/§VII of the paper: a custom simulator that estimates
//! application run time, reliability and device-level metrics, because
//! state-vector noise simulators are intractable beyond 50–60 qubits.
//!
//! ## Timing
//!
//! The executable is a dependency-respecting total order, so timing is
//! computed by *resource-timeline list scheduling* in one scan of the
//! instruction stream: every instruction is checked against the device
//! (see [`simulate`]), then starts as soon as its ion(s) and required
//! resources are free.
//! Resources encode the paper's parallelism constraints (§V-B):
//!
//! * each **trap** executes at most one gate / split / merge at a time
//!   (gates within a trap are serial);
//! * **segments** and **junctions** hold at most one ion: parallel
//!   shuttles queue at shared path elements, and the queueing delay is
//!   reported as shuttle wait time (the paper's inserted "wait
//!   operations");
//! * independent shuttles and gates in different traps run concurrently.
//!
//! The Fig. 6b split of run time into compute and communication comes
//! from the same scan. Every interval boundary goes on one timeline,
//! kept in time order as it is recorded: each instruction starts at a
//! ready time whose place on the timeline the engine already holds, so
//! placing its end is a short walk forward, and the closing split is one
//! walk with no sort (see [`simulate`]'s *Cost*).
//!
//! ## Heating and fidelity
//!
//! Per-chain motional energy evolves under `qccd-physics`'s
//! [`HeatingModel`](qccd_physics::HeatingModel) exactly as in §VII-B, and
//! every operation contributes to the application fidelity product
//! (accumulated in log space) with two-qubit errors split into background
//! and motional parts for the Fig. 6g analysis.
//!
//! # Example
//!
//! ```
//! use qccd_circuit::{Circuit, Qubit};
//! use qccd_compiler::{compile, CompilerConfig};
//! use qccd_device::presets;
//! use qccd_physics::PhysicalModel;
//! use qccd_sim::simulate;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut circuit = Circuit::new("bell", 2);
//! circuit.h(Qubit(0));
//! circuit.cx(Qubit(0), Qubit(1));
//! circuit.measure_all();
//!
//! let device = presets::l6(20);
//! let exe = compile(&circuit, &device, &CompilerConfig::default())?;
//! let report = simulate(&exe, &device, &PhysicalModel::default())?;
//! assert!(report.fidelity() > 0.99);
//! assert!(report.total_time_us > 0.0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod engine;
pub mod error;
pub mod report;
mod spans;

pub use engine::simulate;
pub use error::SimError;
pub use report::{canonical_float, ErrorTotals, SimReport, TimeBreakdown};
