//! Backend compiler for QCCD-based trapped-ion systems.
//!
//! Implements §V-A/§VI of the paper: "Current QC compilers do not support
//! QCCD-based TI systems, so we built a backend compiler which maps and
//! optimizes applications for QCCD systems."
//!
//! The compiler is a pass [`Pipeline`] with four policy seams (see
//! [`policy`]). Each seam is a closed set of heuristics picked by its
//! selector enum in [`CompilerConfig`] — written inline in a spec's
//! `configs` axis — and the enum itself runs the heuristic it names:
//!
//! 1. **Mapping** ([`MappingKind::place`]): program qubits are placed
//!    into traps — first-use round-robin packing
//!    ([`MappingKind::RoundRobin`], the paper's §VI heuristic) or
//!    interaction-aware co-location ([`MappingKind::UsageWeighted`]).
//! 2. **Scheduling** ([`compile()`]): the *earliest ready gate first*
//!    heuristic, which on a circuit's qubit dependencies is program
//!    order.
//! 3. **Lowering** ([`lowering`]): source gates (CX/CZ/SWAP) become native
//!    Mølmer–Sørensen gates plus single-qubit wrappers.
//! 4. **Routing** ([`RoutingKind::next_route`]): cross-trap gates shuttle
//!    one ion along the device's shortest route
//!    ([`RoutingKind::GreedyShortest`]) or a congestion-aware detour
//!    ([`RoutingKind::LookaheadCongestion`]); chain reordering
//!    ([`ReorderMethod::bring_to_end`]: gate-based
//!    [`ReorderMethod::GateSwap`] or physical
//!    [`ReorderMethod::IonSwap`], §IV-C) brings the departing ion to
//!    the chain end; full destinations are cleared by the eviction
//!    policy ([`EvictionKind::pick`]:
//!    [`EvictionKind::FurthestNextUse`] or [`EvictionKind::ChainEnd`]).
//!
//! The default configuration is exactly the paper's compiler. The output
//! is an [`Executable`] of primitive QCCD instructions ([`Inst`]), the
//! route legs its moves index ([`LegTable`]) and the initial ion
//! placement — exactly what the `qccd-sim` crate
//! consumes.
//!
//! # Example
//!
//! ```
//! use qccd_circuit::{Circuit, Qubit};
//! use qccd_compiler::{compile, CompilerConfig};
//! use qccd_device::presets;
//!
//! # fn main() -> Result<(), qccd_compiler::CompileError> {
//! let mut circuit = Circuit::new("bell", 2);
//! circuit.h(Qubit(0));
//! circuit.cx(Qubit(0), Qubit(1));
//! circuit.measure_all();
//!
//! let device = presets::l6(20);
//! let exe = compile(&circuit, &device, &CompilerConfig::default())?;
//! assert_eq!(exe.counts().two_qubit_gates, 1);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod compile;
pub mod config;
pub mod digest;
pub mod error;
pub mod executable;
pub mod lowering;
pub mod mapping;
pub mod memo;
pub mod passes;
pub mod policy;
pub mod state;

pub use compile::compile;
pub use config::{
    CompilerConfig, EvictionKind, MappingKind, ParsePolicyError, ReorderMethod, RoutingKind,
};
pub use digest::{content_digest, fnv1a};
pub use error::CompileError;
pub use executable::{Executable, Inst, LegId, LegTable, LegView, OpCounts};
pub use mapping::{initial_map, Placement};
pub use memo::{CompileMemo, CompileMemoRef, StageCounters, StagePersist};
pub use passes::{Pipeline, UsesTable};
pub use state::MachineState;
