//! Table I — shuttling operation times.
//!
//! These are model *inputs* (from real characterization experiments,
//! summarized in Gutiérrez et al. PRA 2019); the projection renders
//! whatever [`ShuttleTimes`] the spec's model axis supplies so
//! ablations show up too.

use super::Table;
use qccd_physics::ShuttleTimes;

/// Renders Table I for the given shuttle-time model.
pub fn generate(times: &ShuttleTimes) -> Table {
    let row = |op: &str, t: f64| vec![op.to_owned(), format!("{t}µs")];
    Table {
        id: "I".into(),
        caption: "Operation times for each shuttling operation".into(),
        headers: vec!["Operation".into(), "Time".into()],
        rows: vec![
            row("Move ion through one segment", times.move_per_segment),
            row("Splitting operation on a chain", times.split),
            row("Merging an ion with a chain", times.merge),
            row("Crossing Y-junction", times.junction_y),
            row("Crossing X-junction", times.junction_x),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{run_spec, Engine, ExperimentSpec};

    #[test]
    fn paper_values_render() {
        let t = run_spec(&ExperimentSpec::table1(), &Engine::new())
            .unwrap()
            .artifact
            .into_table();
        let text = t.to_string();
        assert!(text.contains("Move ion through one segment | 5µs"));
        assert!(text.contains("Splitting operation on a chain | 80µs"));
        assert!(text.contains("Crossing X-junction | 120µs"));
        assert_eq!(t.rows.len(), 5);
    }

    #[test]
    fn custom_times_render() {
        let custom = ShuttleTimes {
            split: 40.0,
            ..ShuttleTimes::TABLE_I
        };
        let t = generate(&custom);
        assert!(t
            .to_string()
            .contains("Splitting operation on a chain | 40µs"));
    }
}
