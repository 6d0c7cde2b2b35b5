//! The QCCD design toolflow — reproduction of *Architecting Noisy
//! Intermediate-Scale Trapped Ion Quantum Computers* (ISCA 2020).
//!
//! This crate is the front door of the workspace, wiring together the
//! substrates exactly as in the paper's Fig. 3:
//!
//! ```text
//! candidate QCCD architecture ─┐
//! NISQ benchmark suite ────────┼─► compiler ─► simulator ─► application
//! TI performance/noise models ─┘                            reliability,
//!                                                           runtime, device
//!                                                           noise rates
//! ```
//!
//! * [`Toolflow`] — run one circuit through compile + simulate;
//! * [`sweep`] — parallel design-space exploration helpers;
//! * [`engine`] — the declarative experiment engine: a JSON-loadable
//!   [`engine::ExperimentSpec`] expands into a deduplicated, cached,
//!   parallel-executed job grid whose results project into paper
//!   artifacts;
//! * [`experiments`] — the projections that regenerate **every table
//!   and figure** of the paper's evaluation (Tables I–II, Figs. 6–8)
//!   from engine results, emitted by the `qccd-bench` `run` binary.
//!
//! # Example
//!
//! ```
//! use qccd::Toolflow;
//! use qccd_circuit::generators;
//! use qccd_device::presets;
//! use qccd_physics::PhysicalModel;
//!
//! # fn main() -> Result<(), qccd::ToolflowError> {
//! let toolflow = Toolflow::new(presets::l6(20), PhysicalModel::default());
//! let report = toolflow.run(&generators::bv(&[true; 10]))?;
//! assert!(report.fidelity() > 0.9);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod engine;
pub mod experiments;
pub mod sweep;
pub mod toolflow;

pub use toolflow::{Toolflow, ToolflowError};

// Convenience re-exports so downstream users can depend on `qccd` alone.
pub use qccd_circuit as circuit;
pub use qccd_compiler as compiler;
pub use qccd_device as device;
pub use qccd_physics as physics;
pub use qccd_sim as sim;
