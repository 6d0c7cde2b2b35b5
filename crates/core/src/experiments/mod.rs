//! Projections that regenerate every table and figure of the paper's
//! evaluation (§VIII–§X) from experiment-engine results.
//!
//! Each study is an [`ExperimentSpec`](crate::engine::ExperimentSpec)
//! file under `examples/experiments/`;
//! [`run_spec`](crate::engine::run_spec) executes its grid and
//! dispatches to the matching projection here, which returns a
//! serializable [`Figure`] (panels of labelled series over trap
//! capacity) or [`Table`]. Their `Display` implementations print the
//! same rows/series the paper reports, and the `qccd-bench` `run`
//! binary emits them as text and JSON.
//!
//! | Spec file | Module | Paper artifact |
//! |-----------|--------|----------------|
//! | `table1.json` | [`table1`] | Table I — shuttling operation times |
//! | `table2.json` | [`table2`] | Table II — benchmark suite characteristics |
//! | `fig6.json`   | [`fig6`]   | Fig. 6 — trap-sizing study (L6, FM, GS) |
//! | `fig7.json`   | [`fig7`]   | Fig. 7 — topology study (L6 vs G2x3) |
//! | `fig8.json`   | [`fig8`]   | Fig. 8 — microarchitecture study (4 gates × 2 reorders) |
//! | `ablation_*.json` | [`ablations`] | beyond-the-paper sensitivity studies (buffer, heating model, junction cost, device size, compiler policy pipeline) |

pub mod ablations;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod table1;
pub mod table2;

use qccd_device::Device;
use serde::{Deserialize, Serialize};
use std::fmt;

/// The three capacities of `tests/goldens/fig8_quick.json`, the full
/// Fig. 8 golden restricted to these columns.
///
/// Public only for perfbench: its `fig8-cold` set-up runs Fig. 8 at
/// these capacities and diffs the dump against that file. ROADMAP item
/// 1b points that check at the full `fig8.json` golden and retires both
/// the constant and the quick golden.
pub const QUICK_CAPACITIES: [u32; 3] = [14, 22, 30];

/// One labelled data series over trap capacity.
///
/// `None` marks infeasible design points (e.g. a 78-qubit program on a
/// device that cannot hold it).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Series {
    /// Legend label (application or configuration name).
    pub label: String,
    /// Y values, aligned with the panel's capacity axis.
    pub y: Vec<Option<f64>>,
}

/// One panel (sub-figure) of a figure.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Panel {
    /// Panel id, e.g. `"6a"`.
    pub id: String,
    /// Panel title as in the paper's caption.
    pub title: String,
    /// Y-axis label (with unit).
    pub y_label: String,
    /// X-axis values (trap capacities).
    pub x: Vec<u32>,
    /// The series plotted in this panel.
    pub series: Vec<Series>,
}

impl fmt::Display for Panel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "# Fig {} — {} [{}]", self.id, self.title, self.y_label)?;
        write!(f, "capacity")?;
        for s in &self.series {
            write!(f, ",{}", s.label)?;
        }
        writeln!(f)?;
        for (i, x) in self.x.iter().enumerate() {
            write!(f, "{x}")?;
            for s in &self.series {
                match s.y.get(i).copied().flatten() {
                    // Same canonical float text as the `--json` dumps,
                    // so the CSV and JSON views of one artifact never
                    // disagree and goldens stay stable across paths.
                    Some(v) => write!(f, ",{}", qccd_sim::canonical_float(v))?,
                    None => write!(f, ",")?,
                }
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// A full figure: several panels sharing a study configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Figure {
    /// Figure id, e.g. `"6"`.
    pub id: String,
    /// What the figure shows, echoing the paper's caption.
    pub caption: String,
    /// The panels.
    pub panels: Vec<Panel>,
}

impl Figure {
    /// Finds a panel by id (e.g. `"6f"`).
    pub fn panel(&self, id: &str) -> Option<&Panel> {
        self.panels.iter().find(|p| p.id == id)
    }
}

impl fmt::Display for Figure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "== Figure {}: {} ==", self.id, self.caption)?;
        for p in &self.panels {
            writeln!(f)?;
            p.fmt(f)?;
        }
        Ok(())
    }
}

/// A simple textual table (Tables I and II).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table {
    /// Table id, e.g. `"I"`.
    pub id: String,
    /// Caption.
    pub caption: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Rows of cells.
    pub rows: Vec<Vec<String>>,
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "== Table {}: {} ==", self.id, self.caption)?;
        writeln!(f, "{}", self.headers.join(" | "))?;
        writeln!(f, "{}", vec!["---"; self.headers.len()].join(" | "))?;
        for row in &self.rows {
            writeln!(f, "{}", row.join(" | "))?;
        }
        Ok(())
    }
}

/// Runs resolved axes through a silent engine and projects the results:
/// the unit tests' path for mini circuits, which spec presets (paper-size
/// benchmarks or QASM files) cannot name.
#[cfg(test)]
pub(crate) fn run_axes<A>(
    circuits: Vec<qccd_circuit::Circuit>,
    devices: Vec<qccd_device::Device>,
    configs: Vec<qccd_compiler::CompilerConfig>,
    models: Vec<qccd_physics::PhysicalModel>,
    project: impl FnOnce(&crate::engine::JobGrid, &crate::engine::GridResults) -> A,
) -> A {
    let grid = crate::engine::JobGrid::from_axes(circuits, devices, configs, models);
    let run = crate::engine::Engine::new().run(&grid);
    project(&grid, &run.results)
}

/// The capacity axis of a device sweep: each device's largest trap
/// capacity, so every point is labelled by the device it ran on.
pub(crate) fn capacity_axis(devices: &[Device]) -> Vec<u32> {
    devices.iter().map(Device::max_trap_capacity).collect()
}

/// Extracts a y-series from per-capacity outcomes with an accessor.
pub(crate) fn series_of<T, F>(label: &str, outcomes: &[Option<T>], get: F) -> Series
where
    F: Fn(&T) -> f64,
{
    Series {
        label: label.to_owned(),
        y: outcomes.iter().map(|o| o.as_ref().map(&get)).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn panel_display_is_csv_like() {
        let p = Panel {
            id: "6a".into(),
            title: "Performance".into(),
            y_label: "time (s)".into(),
            x: vec![14, 16],
            series: vec![Series {
                label: "adder".into(),
                y: vec![Some(0.5), None],
            }],
        };
        let text = p.to_string();
        assert!(text.contains("capacity,adder"));
        assert!(text.contains("14,0.5"));
        assert!(text.contains("16,\n"));
    }

    #[test]
    fn panel_display_floats_match_the_json_dump() {
        // The satellite invariant: one canonical float emission across
        // the CSV-ish Display path and the serde_json path.
        let v = 0.30504420999999804_f64;
        let p = Panel {
            id: "6a".into(),
            title: "t".into(),
            y_label: "y".into(),
            x: vec![14],
            series: vec![Series {
                label: "s".into(),
                y: vec![Some(v)],
            }],
        };
        let csv = p.to_string();
        let json = serde_json::to_string(&p).unwrap();
        let canonical = qccd_sim::canonical_float(v);
        assert!(csv.contains(&canonical), "csv: {csv}");
        assert!(json.contains(&canonical), "json: {json}");
        // And the canonical text parses back to the exact value.
        let back: f64 = serde_json::from_str(&canonical).unwrap();
        assert_eq!(back.to_bits(), v.to_bits());
    }

    #[test]
    fn figure_panel_lookup() {
        let fig = Figure {
            id: "6".into(),
            caption: "test".into(),
            panels: vec![Panel {
                id: "6f".into(),
                title: "t".into(),
                y_label: "y".into(),
                x: vec![],
                series: vec![],
            }],
        };
        assert!(fig.panel("6f").is_some());
        assert!(fig.panel("6z").is_none());
    }

    #[test]
    fn table_display_has_headers_and_rows() {
        let t = Table {
            id: "I".into(),
            caption: "ops".into(),
            headers: vec!["Operation".into(), "Time".into()],
            rows: vec![vec!["split".into(), "80 µs".into()]],
        };
        let text = t.to_string();
        assert!(text.contains("Operation | Time"));
        assert!(text.contains("split | 80 µs"));
    }

    #[test]
    fn series_of_maps_missing_points() {
        let outcomes = vec![Some(2.0f64), None, Some(4.0)];
        let s = series_of("x", &outcomes, |v| v * 10.0);
        assert_eq!(s.y, vec![Some(20.0), None, Some(40.0)]);
    }
}
