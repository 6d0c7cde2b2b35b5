//! Table II — the benchmark suite used in the study.
//!
//! Regenerates the qubit count, two-qubit gate count and communication
//! pattern columns from the actual circuits our generators produce (so
//! any decomposition difference from the paper is visible, not hidden).

use super::Table;
use qccd_circuit::{Circuit, CircuitStats};

/// Renders a Table II-style summary for any circuit collection (the
/// paper's six benchmarks under
/// [`ExperimentSpec::table2`](crate::engine::ExperimentSpec::table2)).
pub fn generate_for(suite: &[Circuit]) -> Table {
    let display_name = |name: &str| -> String {
        let base = name.split('_').next().unwrap_or(name);
        match base {
            "supremacy" => "Supremacy".into(),
            "qaoa" => "QAOA".into(),
            "squareroot" => "SquareRoot".into(),
            "qft" => "QFT".into(),
            "adder" => "Adder".into(),
            "bv" => "BV".into(),
            other => other.into(),
        }
    };
    let rows = suite
        .iter()
        .map(|c| {
            let stats = CircuitStats::of(c);
            vec![
                display_name(c.name()),
                stats.qubits.to_string(),
                stats.two_qubit_gates.to_string(),
                stats.pattern.to_string(),
            ]
        })
        .collect();
    Table {
        id: "II".into(),
        caption: "Applications used in our study".into(),
        headers: vec![
            "Application".into(),
            "Qubits".into(),
            "Two-qubit Gates".into(),
            "Communication Pattern".into(),
        ],
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{run_spec, Engine, ExperimentSpec};
    use qccd_circuit::generators;

    fn paper_table2() -> Table {
        run_spec(&ExperimentSpec::table2(), &Engine::new())
            .unwrap()
            .artifact
            .into_table()
    }

    #[test]
    fn six_rows_with_paper_qubit_counts() {
        let t = paper_table2();
        assert_eq!(t.rows.len(), 6);
        let qubits: Vec<&str> = t.rows.iter().map(|r| r[1].as_str()).collect();
        assert_eq!(qubits, vec!["64", "64", "78", "64", "64", "64"]);
    }

    #[test]
    fn qft_row_matches_paper_exactly() {
        let t = paper_table2();
        let qft = t.rows.iter().find(|r| r[0] == "QFT").unwrap();
        assert_eq!(qft[2], "4032");
        assert_eq!(qft[3], "all distances");
    }

    #[test]
    fn custom_suite_renders() {
        let t = generate_for(&[generators::bv(&[true; 4])]);
        assert_eq!(t.rows.len(), 1);
        assert_eq!(t.rows[0][1], "5");
    }
}
