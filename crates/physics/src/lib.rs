//! Performance and noise models for QCCD trapped-ion systems.
//!
//! Implements §VII of the paper ("Simulation framework: performance and
//! fidelity models") exactly as published:
//!
//! * [`GateImpl`] — the four Mølmer–Sørensen two-qubit gate implementations
//!   and their duration models: AM1 (Wu–Wang–Duan), AM2 (Trout et al.),
//!   PM (Milne et al.), FM (Leung et al.);
//! * [`ShuttleTimes`] — Table I's shuttling-operation durations;
//! * [`HeatingModel`] — the quantized motional-energy bookkeeping
//!   (k₁ quanta per split/merge, k₂ per segment moved);
//! * [`FidelityModel`] — equation (1): `F = 1 − Γτ − A(2n̄+1)` with
//!   `A ∝ N/ln N`;
//! * [`PhysicalModel`] — the aggregate handed to the compiler and
//!   simulator (Fig. 3's "TI performance and noise models" box).
//!
//! Times are `f64` microseconds and energies `f64` motional quanta
//! throughout the workspace.
//!
//! # Example
//!
//! ```
//! use qccd_physics::{GateImpl, PhysicalModel};
//!
//! let model = PhysicalModel::default();
//! // FM gate time depends on chain length, not ion separation:
//! let t1 = GateImpl::Fm.two_qubit_time(1, 20);
//! let t2 = GateImpl::Fm.two_qubit_time(15, 20);
//! assert_eq!(t1, t2);
//! // Fidelity degrades as the chain heats up:
//! let beam = model.fidelity.beam_instability(20);
//! let cold = model.fidelity.two_qubit_error(t1, beam, 0.0).total();
//! let hot = model.fidelity.two_qubit_error(t1, beam, 10.0).total();
//! assert!(hot > cold);
//! ```

#![warn(missing_docs)]

pub mod fidelity;
pub mod gate_time;
pub mod heating;
pub mod model;
pub mod shuttle;

pub use fidelity::{ErrorBreakdown, FidelityModel};
pub use gate_time::GateImpl;
pub use heating::HeatingModel;
pub use model::{ModelJsonError, PhysicalModel};
pub use shuttle::ShuttleTimes;
