//! Simulation results: the application- and device-level metrics of
//! Fig. 3's output box.

use qccd_compiler::OpCounts;
use serde::{Deserialize, Serialize};
use std::fmt;

/// The canonical text form of an `f64`: exactly what `serde_json`
/// emits for the value (shortest round-trippable decimal, always a
/// decimal point, `null` for non-finite).
///
/// Every CSV-ish `Display` path that feeds golden snapshots goes
/// through this helper, so the text views and the `--json` dumps of an
/// artifact can never disagree on a float. Defined via the standard
/// `serde_json::to_string` API only, so it survives swapping the
/// vendored stub for the real crate.
pub fn canonical_float(f: f64) -> String {
    // qccd-lint: allow(engine-panic) — serializing plain data structs cannot fail
    serde_json::to_string(&f).expect("f64 always serializes")
}

/// Summed error probabilities by operation class.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct ErrorTotals {
    /// Single-qubit gate errors (including lowering wrappers).
    pub one_qubit: f64,
    /// Program MS gate errors.
    pub two_qubit: f64,
    /// Gate-based reorder swap errors (3 MS + wrappers each).
    pub swap: f64,
    /// Measurement errors.
    pub measure: f64,
}

impl ErrorTotals {
    /// Sum over all classes.
    pub fn total(&self) -> f64 {
        self.one_qubit + self.two_qubit + self.swap + self.measure
    }
}

/// Wall-clock decomposition of the makespan (the Fig. 6b analysis).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct TimeBreakdown {
    /// Time during which at least one gate (or measurement) was executing.
    pub compute_us: f64,
    /// Time during which at least one shuttling operation was active and
    /// no gate was executing.
    pub communication_us: f64,
    /// Total time shuttles spent queueing for segments or junctions (the
    /// paper's congestion "wait operations").
    pub shuttle_wait_us: f64,
}

/// Full result of simulating one executable on one device and model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimReport {
    /// Source circuit name.
    pub name: String,
    /// Makespan in µs.
    pub total_time_us: f64,
    /// Natural log of the application fidelity (Σ ln(1 − e_op); `-inf` if
    /// any operation failed outright).
    pub log_fidelity: f64,
    /// Instruction counts of the executable.
    pub counts: OpCounts,
    /// Peak per-mode motional occupation n̄ over every chain and every
    /// instant (quanta) — the Fig. 6f metric. A chain of N ions spreads
    /// its accumulated energy over its N motional modes, so n̄ = E/N.
    pub peak_motional_energy: f64,
    /// Number of MS gate executions including reorder swaps (each swap
    /// contributes 3).
    pub ms_executions: usize,
    /// Σ background error (Γτ) over MS executions — Fig. 6g.
    pub ms_background_error_sum: f64,
    /// Σ motional error (A(2n̄+1)) over MS executions — Fig. 6g.
    pub ms_motional_error_sum: f64,
    /// Error totals by class.
    pub errors: ErrorTotals,
    /// Makespan decomposition.
    pub time: TimeBreakdown,
}

impl SimReport {
    /// Application fidelity: the product of all operation fidelities
    /// (paper §V-B), recovered from log space.
    pub fn fidelity(&self) -> f64 {
        self.log_fidelity.exp()
    }

    /// Makespan in seconds (the unit of the paper's runtime figures).
    pub fn total_time_s(&self) -> f64 {
        self.total_time_us * 1.0e-6
    }

    /// Mean background error per MS execution (0 if none ran).
    pub fn mean_ms_background_error(&self) -> f64 {
        if self.ms_executions == 0 {
            0.0
        } else {
            self.ms_background_error_sum / self.ms_executions as f64
        }
    }

    /// Mean motional error per MS execution (0 if none ran).
    pub fn mean_ms_motional_error(&self) -> f64 {
        if self.ms_executions == 0 {
            0.0
        } else {
            self.ms_motional_error_sum / self.ms_executions as f64
        }
    }
}

impl fmt::Display for SimReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "report for {}", self.name)?;
        writeln!(f, "  time: {:.6} s", self.total_time_s())?;
        // Canonical float text shared with the JSON dumps, so the
        // human-readable report and the `--json` artifact never show
        // different fidelities.
        writeln!(f, "  fidelity: {}", canonical_float(self.fidelity()))?;
        writeln!(
            f,
            "  compute/communication: {:.6}/{:.6} s",
            self.time.compute_us * 1e-6,
            self.time.communication_us * 1e-6
        )?;
        writeln!(
            f,
            "  peak motional energy: {:.3} quanta",
            self.peak_motional_energy
        )?;
        write!(
            f,
            "  ops: {} 1q, {} ms, {} swaps, {} ionswaps, {} splits, {} moves, {} merges",
            self.counts.one_qubit_gates,
            self.counts.two_qubit_gates,
            self.counts.swap_gates,
            self.counts.ion_swaps,
            self.counts.splits,
            self.counts.moves,
            self.counts.merges
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy() -> SimReport {
        SimReport {
            name: "t".into(),
            total_time_us: 1_000_000.0,
            log_fidelity: -0.5,
            counts: OpCounts::default(),
            peak_motional_energy: 3.5,
            ms_executions: 10,
            ms_background_error_sum: 0.001,
            ms_motional_error_sum: 0.01,
            errors: ErrorTotals::default(),
            time: TimeBreakdown::default(),
        }
    }

    #[test]
    fn fidelity_recovers_from_log_space() {
        let r = dummy();
        assert!((r.fidelity() - (-0.5f64).exp()).abs() < 1e-12);
    }

    #[test]
    fn failed_run_has_zero_fidelity() {
        let mut r = dummy();
        r.log_fidelity = f64::NEG_INFINITY;
        assert_eq!(r.fidelity(), 0.0);
    }

    #[test]
    fn seconds_conversion() {
        assert!((dummy().total_time_s() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn mean_ms_errors_divide_by_executions() {
        let r = dummy();
        assert!((r.mean_ms_background_error() - 1e-4).abs() < 1e-15);
        assert!((r.mean_ms_motional_error() - 1e-3).abs() < 1e-15);
        let mut empty = dummy();
        empty.ms_executions = 0;
        assert_eq!(empty.mean_ms_background_error(), 0.0);
    }

    #[test]
    fn error_totals_sum() {
        let e = ErrorTotals {
            one_qubit: 0.1,
            two_qubit: 0.2,
            swap: 0.3,
            measure: 0.4,
        };
        assert!((e.total() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn display_mentions_key_metrics() {
        let text = dummy().to_string();
        assert!(text.contains("fidelity"));
        assert!(text.contains("peak motional energy"));
    }

    #[test]
    fn canonical_float_agrees_with_the_json_emitter_and_round_trips() {
        for v in [0.0, -0.0, 2.0, 0.1, 0.30504420999999804, 1e-300, -1e300] {
            let text = canonical_float(v);
            assert_eq!(text, serde_json::to_string(&v).unwrap());
            let back: f64 = serde_json::from_str(&text).unwrap();
            assert_eq!(back.to_bits(), v.to_bits(), "drift for {v:?}");
        }
        assert_eq!(canonical_float(f64::NAN), "null");
        assert_eq!(canonical_float(f64::INFINITY), "null");
    }
}
