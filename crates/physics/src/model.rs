//! The aggregate physical model handed to the compiler and simulator.

use crate::fidelity::FidelityModel;
use crate::gate_time::GateImpl;
use crate::heating::HeatingModel;
use crate::shuttle::ShuttleTimes;
use serde::{Deserialize, Serialize};

/// Everything the toolflow needs to know about the hardware's physics:
/// Fig. 3's "TI performance and noise models" box.
///
/// The microarchitectural *gate implementation* choice (§IV-C) lives here;
/// the *chain reordering* choice is a compiler policy and lives in
/// `qccd-compiler`.
///
/// # Example
///
/// ```
/// use qccd_physics::{GateImpl, PhysicalModel};
///
/// let model = PhysicalModel::with_gate(GateImpl::Am2);
/// // Adjacent ions in a 20-ion chain: AM2 is fast at short range.
/// assert_eq!(model.two_qubit_time(1, 20), 48.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PhysicalModel {
    /// Which MS gate implementation the device uses.
    pub gate_impl: GateImpl,
    /// Shuttling operation durations (Table I).
    pub shuttle: ShuttleTimes,
    /// Motional heating parameters.
    pub heating: HeatingModel,
    /// Fidelity parameters (eq. 1).
    pub fidelity: FidelityModel,
    /// Single-qubit gate duration in µs (not printed in the paper; typical
    /// hyperfine-qubit Raman gates are a few µs).
    pub one_qubit_time: f64,
    /// Measurement duration in µs (state-dependent fluorescence readout).
    pub measure_time: f64,
}

/// Error from [`PhysicalModel::from_json`].
#[derive(Debug, Clone, PartialEq)]
pub enum ModelJsonError {
    /// The text is not valid JSON or not shaped like a physical model.
    Parse(String),
    /// Well-formed model JSON with physically implausible constants
    /// (negative times, non-finite rates, out-of-range probabilities).
    Invalid(String),
}

impl std::fmt::Display for ModelJsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ModelJsonError::Parse(m) => write!(f, "physical model JSON parse error: {m}"),
            ModelJsonError::Invalid(m) => write!(f, "invalid physical model: {m}"),
        }
    }
}

impl std::error::Error for ModelJsonError {}

impl PhysicalModel {
    /// The paper's configuration with the given gate implementation.
    pub fn with_gate(gate_impl: GateImpl) -> Self {
        PhysicalModel {
            gate_impl,
            ..PhysicalModel::default()
        }
    }

    /// Loads a model from its JSON serialization (the format written by
    /// `serde_json::to_string_pretty(&model)`), validating every
    /// constant before returning it.
    ///
    /// # Errors
    ///
    /// Returns [`ModelJsonError::Parse`] for malformed JSON or wrong
    /// shape and [`ModelJsonError::Invalid`] for implausible constants
    /// — never panics on untrusted input.
    ///
    /// # Example
    ///
    /// ```
    /// use qccd_physics::{GateImpl, PhysicalModel};
    ///
    /// let json = serde_json::to_string_pretty(&PhysicalModel::with_gate(GateImpl::Pm)).unwrap();
    /// let loaded = PhysicalModel::from_json(&json).unwrap();
    /// assert_eq!(loaded.gate_impl, GateImpl::Pm);
    /// ```
    pub fn from_json(text: &str) -> Result<PhysicalModel, ModelJsonError> {
        let model: PhysicalModel =
            serde_json::from_str(text).map_err(|e| ModelJsonError::Parse(e.to_string()))?;
        model.validate().map_err(ModelJsonError::Invalid)?;
        Ok(model)
    }

    /// Checks physical plausibility of every constant, delegating to the
    /// submodels' `validate` methods.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        self.shuttle.validate()?;
        self.heating.validate()?;
        self.fidelity.validate()?;
        if !self.one_qubit_time.is_finite() || self.one_qubit_time <= 0.0 {
            return Err(format!(
                "`one_qubit_time` must be finite and > 0, got {}",
                self.one_qubit_time
            ));
        }
        if !self.measure_time.is_finite() || self.measure_time < 0.0 {
            return Err(format!(
                "`measure_time` must be finite and >= 0, got {}",
                self.measure_time
            ));
        }
        Ok(())
    }

    /// Duration (µs) of a native MS gate at `distance` ion separation in a
    /// chain of `chain_len` ions.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`GateImpl::two_qubit_time`].
    pub fn two_qubit_time(&self, distance: u32, chain_len: u32) -> f64 {
        self.gate_impl.two_qubit_time(distance, chain_len)
    }

    /// Error probability of a native MS gate (eq. 1).
    pub fn two_qubit_error(&self, distance: u32, chain_len: u32, nbar: f64) -> f64 {
        self.fidelity
            .two_qubit_error(
                self.two_qubit_time(distance, chain_len),
                self.fidelity.beam_instability(chain_len),
                nbar,
            )
            .total()
    }
}

impl Default for PhysicalModel {
    /// FM gates with Table I shuttle times and the paper's heating and
    /// (calibrated) fidelity constants — the configuration of Figs. 6–7.
    fn default() -> Self {
        PhysicalModel {
            gate_impl: GateImpl::Fm,
            shuttle: ShuttleTimes::TABLE_I,
            heating: HeatingModel::PAPER,
            fidelity: FidelityModel::PAPER,
            one_qubit_time: 5.0,
            measure_time: 100.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_the_fig6_configuration() {
        let m = PhysicalModel::default();
        assert_eq!(m.gate_impl, GateImpl::Fm);
        assert_eq!(m.shuttle, ShuttleTimes::TABLE_I);
        assert_eq!(m.heating, HeatingModel::PAPER);
    }

    #[test]
    fn with_gate_overrides_only_the_gate() {
        let m = PhysicalModel::with_gate(GateImpl::Pm);
        assert_eq!(m.gate_impl, GateImpl::Pm);
        assert_eq!(m.shuttle, ShuttleTimes::TABLE_I);
    }

    #[test]
    fn error_increases_with_heat() {
        let m = PhysicalModel::default();
        assert!(m.two_qubit_error(1, 20, 50.0) > m.two_qubit_error(1, 20, 0.0));
    }

    #[test]
    fn serde_round_trip() {
        for gate in GateImpl::ALL {
            let m = PhysicalModel::with_gate(gate);
            let json = serde_json::to_string_pretty(&m).unwrap();
            assert_eq!(PhysicalModel::from_json(&json).unwrap(), m);
        }
    }

    #[test]
    fn from_json_rejects_implausible_constants() {
        let good = serde_json::to_string(&PhysicalModel::default()).unwrap();
        for (needle, replacement, expect) in [
            (
                "\"one_qubit_time\":5.0",
                "\"one_qubit_time\":0.0",
                "one_qubit_time",
            ),
            ("\"split\":80.0", "\"split\":-1.0", "split"),
            ("\"k1\":0.1", "\"k1\":-0.1", "k1"),
            ("\"chain_ref\":10.0", "\"chain_ref\":0.0", "chain_ref"),
            (
                "\"one_qubit_error\":0.0001",
                "\"one_qubit_error\":2.0",
                "one_qubit_error",
            ),
        ] {
            let bad = good.replacen(needle, replacement, 1);
            assert_ne!(bad, good, "tamper pattern `{needle}` did not apply");
            match PhysicalModel::from_json(&bad) {
                Err(ModelJsonError::Invalid(m)) => {
                    assert!(m.contains(expect), "message `{m}` missing `{expect}`")
                }
                other => panic!("tamper `{needle}`: expected Invalid, got {other:?}"),
            }
        }
        assert!(matches!(
            PhysicalModel::from_json("[]"),
            Err(ModelJsonError::Parse(_))
        ));
    }
}
