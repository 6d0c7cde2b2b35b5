//! The compile-then-simulate pipeline of Fig. 3.

use qccd_circuit::Circuit;
use qccd_compiler::{compile, CompileError, CompilerConfig, Executable};
use qccd_device::Device;
use qccd_physics::PhysicalModel;
use qccd_sim::{simulate, SimError, SimReport};
use std::fmt;

/// Errors from a toolflow run.
#[derive(Debug, Clone, PartialEq)]
pub enum ToolflowError {
    /// Compilation failed.
    Compile(CompileError),
    /// Simulation failed (malformed executable/device mismatch).
    Simulate(SimError),
}

impl fmt::Display for ToolflowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ToolflowError::Compile(e) => write!(f, "compile: {e}"),
            ToolflowError::Simulate(e) => write!(f, "simulate: {e}"),
        }
    }
}

impl std::error::Error for ToolflowError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ToolflowError::Compile(e) => Some(e),
            ToolflowError::Simulate(e) => Some(e),
        }
    }
}

impl From<CompileError> for ToolflowError {
    fn from(e: CompileError) -> Self {
        ToolflowError::Compile(e)
    }
}

impl From<SimError> for ToolflowError {
    fn from(e: SimError) -> Self {
        ToolflowError::Simulate(e)
    }
}

/// A candidate architecture plus models: runs circuits end to end.
///
/// # Example
///
/// ```
/// use qccd::Toolflow;
/// use qccd_circuit::generators;
/// use qccd_compiler::{CompilerConfig, ReorderMethod};
/// use qccd_device::presets;
/// use qccd_physics::{GateImpl, PhysicalModel};
///
/// # fn main() -> Result<(), qccd::ToolflowError> {
/// // The Fig. 8 "AM2-IS" microarchitecture on the linear device.
/// let toolflow = Toolflow::with_config(
///     presets::l6(20),
///     PhysicalModel::with_gate(GateImpl::Am2),
///     CompilerConfig::with_reorder(ReorderMethod::IonSwap),
/// );
/// let report = toolflow.run(&generators::qaoa(20, 1, 7))?;
/// assert!(report.total_time_us > 0.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Toolflow {
    device: Device,
    model: PhysicalModel,
    config: CompilerConfig,
}

impl Toolflow {
    /// Toolflow with the default compiler configuration (GS reordering,
    /// 2 buffer slots).
    pub fn new(device: Device, model: PhysicalModel) -> Self {
        Toolflow {
            device,
            model,
            config: CompilerConfig::default(),
        }
    }

    /// Toolflow with an explicit compiler configuration.
    pub fn with_config(device: Device, model: PhysicalModel, config: CompilerConfig) -> Self {
        Toolflow {
            device,
            model,
            config,
        }
    }

    /// The candidate device.
    pub fn device(&self) -> &Device {
        &self.device
    }

    /// The physical model.
    pub fn model(&self) -> &PhysicalModel {
        &self.model
    }

    /// The compiler configuration.
    pub fn config(&self) -> &CompilerConfig {
        &self.config
    }

    /// Compiles `circuit` for this architecture.
    ///
    /// # Errors
    ///
    /// Returns [`ToolflowError::Compile`] on mapping/routing failure.
    pub fn compile(&self, circuit: &Circuit) -> Result<Executable, ToolflowError> {
        Ok(compile(circuit, &self.device, &self.config)?)
    }

    /// Simulates a previously compiled executable.
    ///
    /// # Errors
    ///
    /// Returns [`ToolflowError::Simulate`] if the executable does not fit
    /// this device.
    pub fn simulate(&self, exe: &Executable) -> Result<SimReport, ToolflowError> {
        Ok(simulate(exe, &self.device, &self.model)?)
    }

    /// Compiles and simulates `circuit`.
    ///
    /// # Errors
    ///
    /// Propagates compile and simulate errors.
    pub fn run(&self, circuit: &Circuit) -> Result<SimReport, ToolflowError> {
        let exe = self.compile(circuit)?;
        self.simulate(&exe)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qccd_circuit::generators;
    use qccd_device::presets;
    use qccd_physics::GateImpl;

    #[test]
    fn runs_a_benchmark_end_to_end() {
        let tf = Toolflow::new(presets::l6(20), PhysicalModel::default());
        let report = tf.run(&generators::bv(&[true; 20])).unwrap();
        assert!(report.fidelity() > 0.5);
        assert!(report.total_time_us > 0.0);
        assert_eq!(report.counts.two_qubit_gates, 20);
    }

    #[test]
    fn compile_and_simulate_compose_like_run() {
        let tf = Toolflow::new(presets::g2x3(16), PhysicalModel::with_gate(GateImpl::Am2));
        let c = generators::qaoa(24, 1, 3);
        let exe = tf.compile(&c).unwrap();
        let direct = tf.simulate(&exe).unwrap();
        let combined = tf.run(&c).unwrap();
        assert_eq!(direct, combined);
    }

    #[test]
    fn capacity_error_propagates() {
        let tf = Toolflow::new(presets::l6(8), PhysicalModel::default());
        let err = tf.run(&generators::qft(64)).unwrap_err();
        assert!(matches!(err, ToolflowError::Compile(_)));
        assert!(err.to_string().contains("compile"));
    }
}
