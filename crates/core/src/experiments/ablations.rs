//! Ablation studies for this reproduction's modelling and compiler choices.
//!
//! These go beyond the paper's figures and probe the sensitivity of its
//! conclusions to our modeling/compiler choices. Each study is a
//! committed spec, `examples/experiments/ablation_*.json`; this module
//! holds the projections that shape its engine results into a figure:
//!
//! * `project_buffer` (A1) — the mapping buffer ("leave room for 2
//!   incoming ions per trap", §VI): how do 0–4 reserved slots change
//!   shuttling volume and reliability?
//! * `project_heating` (A2) — the chain-size-scaled k₁ hot-spot
//!   refinement (calibrated in the `qccd_physics::heating` module docs)
//!   versus the strict constant-k₁ reading of §VII-B.
//! * `project_junction` (A3) — sensitivity of the Fig. 7 topology
//!   verdict to the junction crossing cost (Table I prices X junctions
//!   at 120 µs).
//! * `project_device_size` (A4) — the §VIII-B device range ("we
//!   evaluate architectures with 50–200 qubits"): linear devices with
//!   3–10 traps at fixed capacity.
//! * `project_policy` (A5) — the compiler-pipeline policy matrix:
//!   every (mapping × routing × reorder × eviction) combination compared
//!   at fixed capacities.
//!
//! Each study's compiler policies are the `configs` axis of its
//! committed spec under `examples/experiments/`, so a policy variant
//! is an edit to that axis.

use super::{series_of, Figure, Panel, Series};
use crate::engine::{GridResults, JobGrid};
use qccd_physics::ShuttleTimes;
use qccd_sim::SimReport;

/// Shapes a (circuit × L6 × buffer-configs) grid into the A1 figure.
/// The x axis is each config's `buffer_slots`.
pub(crate) fn project_buffer(grid: &JobGrid, results: &GridResults) -> Figure {
    let circuit_name = grid
        .circuits()
        .first()
        .map(|c| c.name().to_owned())
        .unwrap_or_default();
    let capacity = grid
        .devices()
        .first()
        .map(|d| d.max_trap_capacity())
        .unwrap_or(0);
    let outcomes: Vec<Option<SimReport>> = (0..grid.configs().len())
        .map(|cfgi| results.report(grid, 0, 0, cfgi, 0).cloned())
        .collect();
    Figure {
        id: "A1".into(),
        caption: format!("Mapping buffer ablation: {circuit_name} on L6({capacity})"),
        panels: vec![Panel {
            id: "A1".into(),
            title: "reserved slots per trap".into(),
            y_label: "fidelity / splits / time (s)".into(),
            x: grid.configs().iter().map(|c| c.buffer_slots).collect(),
            series: vec![
                series_of("fidelity", &outcomes, |r: &SimReport| r.fidelity()),
                series_of("splits", &outcomes, |r: &SimReport| r.counts.splits as f64),
                series_of("time_s", &outcomes, |r: &SimReport| r.total_time_s()),
            ],
        }],
    }
}

/// Shapes a (circuit × capacities × 2-heating-models) grid into the A2
/// figure. The model axis must hold the scaled-k₁ model first.
pub(crate) fn project_heating(grid: &JobGrid, results: &GridResults, capacities: &[u32]) -> Figure {
    let circuit_name = grid
        .circuits()
        .first()
        .map(|c| c.name().to_owned())
        .unwrap_or_default();
    let x: Vec<u32> = if capacities.len() == grid.devices().len() {
        capacities.to_vec()
    } else {
        grid.devices()
            .iter()
            .map(|d| d.max_trap_capacity())
            .collect()
    };
    let row = |mi: usize| -> Vec<Option<SimReport>> {
        (0..grid.devices().len())
            .map(|k| results.report(grid, 0, k, 0, mi).cloned())
            .collect()
    };
    let scaled = row(0);
    let constant = row(1);
    Figure {
        id: "A2".into(),
        caption: format!("Heating-model ablation (scaled k1 vs constant k1): {circuit_name}"),
        panels: vec![
            Panel {
                id: "A2-fidelity".into(),
                title: "application fidelity".into(),
                y_label: "fidelity".into(),
                x: x.clone(),
                series: vec![
                    series_of("scaled-k1", &scaled, |r: &SimReport| r.fidelity()),
                    series_of("constant-k1", &constant, |r: &SimReport| r.fidelity()),
                ],
            },
            Panel {
                id: "A2-energy".into(),
                title: "peak motional occupation".into(),
                y_label: "quanta".into(),
                x,
                series: vec![
                    series_of("scaled-k1", &scaled, |r: &SimReport| r.peak_motional_energy),
                    series_of("constant-k1", &constant, |r: &SimReport| {
                        r.peak_motional_energy
                    }),
                ],
            },
        ],
    }
}

/// Shapes a (circuit × {linear, grid} × junction-factor-models) grid
/// into the A3 figure. The x axis (the junction-time multiplier) is
/// recovered from each model's X-junction time relative to Table I.
pub(crate) fn project_junction(grid: &JobGrid, results: &GridResults) -> Figure {
    let circuit_name = grid
        .circuits()
        .first()
        .map(|c| c.name().to_owned())
        .unwrap_or_default();
    let capacity = grid
        .devices()
        .first()
        .map(|d| d.max_trap_capacity())
        .unwrap_or(0);
    let factors: Vec<u32> = grid
        .models()
        .iter()
        .map(|m| (m.shuttle.junction_x / ShuttleTimes::TABLE_I.junction_x).round() as u32)
        .collect();
    let row = |di: usize| -> Vec<Option<SimReport>> {
        (0..grid.models().len())
            .map(|mi| results.report(grid, 0, di, 0, mi).cloned())
            .collect()
    };
    Figure {
        id: "A3".into(),
        caption: format!("Junction-cost sensitivity: {circuit_name} at capacity {capacity}"),
        panels: vec![Panel {
            id: "A3".into(),
            title: "junction time multiplier".into(),
            y_label: "time (s)".into(),
            x: factors,
            series: vec![
                series_of("linear", &row(0), |r: &SimReport| r.total_time_s()),
                series_of("grid", &row(1), |r: &SimReport| r.total_time_s()),
            ],
        }],
    }
}

/// Shapes a (circuit × linear-devices) grid into the A4 figure. The
/// x axis is each device's trap count.
pub(crate) fn project_device_size(grid: &JobGrid, results: &GridResults) -> Figure {
    let circuit_name = grid
        .circuits()
        .first()
        .map(|c| c.name().to_owned())
        .unwrap_or_default();
    let capacity = grid
        .devices()
        .first()
        .map(|d| d.max_trap_capacity())
        .unwrap_or(0);
    let outcomes: Vec<Option<SimReport>> = (0..grid.devices().len())
        .map(|di| results.report(grid, 0, di, 0, 0).cloned())
        .collect();
    Figure {
        id: "A4".into(),
        caption: format!(
            "Device-size sweep: {circuit_name} on linear devices of capacity {capacity}"
        ),
        panels: vec![Panel {
            id: "A4".into(),
            title: "trap count".into(),
            y_label: "fidelity / time (s)".into(),
            x: grid
                .devices()
                .iter()
                .map(|d| d.trap_count() as u32)
                .collect(),
            series: vec![
                series_of("fidelity", &outcomes, |r: &SimReport| r.fidelity()),
                series_of("time_s", &outcomes, |r: &SimReport| r.total_time_s()),
                series_of("splits", &outcomes, |r: &SimReport| r.counts.splits as f64),
            ],
        }],
    }
}

/// Shapes a (circuit × capacities × 16-policy-configs) grid into the A5
/// figure.
pub(crate) fn project_policy(grid: &JobGrid, results: &GridResults, capacities: &[u32]) -> Figure {
    let circuit_name = grid
        .circuits()
        .first()
        .map(|c| c.name().to_owned())
        .unwrap_or_default();
    let x: Vec<u32> = if capacities.len() == grid.devices().len() {
        capacities.to_vec()
    } else {
        grid.devices()
            .iter()
            .map(|d| d.max_trap_capacity())
            .collect()
    };
    let per_combo: Vec<Vec<Option<SimReport>>> = (0..grid.configs().len())
        .map(|cfgi| {
            (0..grid.devices().len())
                .map(|k| results.report(grid, 0, k, cfgi, 0).cloned())
                .collect()
        })
        .collect();
    let combo_series = |get: &dyn Fn(&SimReport) -> f64| -> Vec<Series> {
        grid.configs()
            .iter()
            .zip(per_combo.iter())
            .map(|(config, row)| series_of(&config.policy_label(), row, get))
            .collect()
    };
    Figure {
        id: "A5".into(),
        caption: format!(
            "Compiler policy-pipeline ablation: {circuit_name} on L6 \
             (mapping RR/UW × routing SP/LC × reorder GS/IS × eviction FNU/CE)"
        ),
        panels: vec![
            Panel {
                id: "A5-time".into(),
                title: "runtime per pipeline".into(),
                y_label: "time (s)".into(),
                x: x.clone(),
                series: combo_series(&|r| r.total_time_s()),
            },
            Panel {
                id: "A5-fidelity".into(),
                title: "fidelity per pipeline".into(),
                y_label: "fidelity".into(),
                x: x.clone(),
                series: combo_series(&|r| r.fidelity()),
            },
            Panel {
                id: "A5-comm".into(),
                title: "shuttling volume per pipeline".into(),
                y_label: "communication ops".into(),
                x,
                series: combo_series(&|r| r.counts.communication_ops() as f64),
            },
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::run_axes;
    use crate::toolflow::Toolflow;
    use qccd_circuit::{generators, Circuit};
    use qccd_compiler::{CompilerConfig, MappingKind, ReorderMethod};
    use qccd_device::presets;
    use qccd_physics::{HeatingModel, PhysicalModel};

    fn mini() -> Circuit {
        generators::qaoa(20, 1, 5)
    }

    /// A1 over `circuit` on L6 at capacity 8, one config per buffer size.
    fn buffer_fig(circuit: Circuit, buffers: &[u32], base: CompilerConfig) -> Figure {
        run_axes(
            vec![circuit],
            vec![presets::l6(8)],
            buffers
                .iter()
                .map(|&buffer_slots| CompilerConfig {
                    buffer_slots,
                    ..base
                })
                .collect(),
            vec![PhysicalModel::default()],
            project_buffer,
        )
    }

    /// A5 over `circuit` on L6 at each capacity, all 16 pipelines.
    fn policy_fig(circuit: Circuit, caps: &[u32]) -> Figure {
        run_axes(
            vec![circuit],
            caps.iter().map(|&c| presets::l6(c)).collect(),
            CompilerConfig::policy_grid(2),
            vec![PhysicalModel::default()],
            |grid, results| project_policy(grid, results, caps),
        )
    }

    #[test]
    fn buffer_sweep_covers_requested_points() {
        let fig = buffer_fig(mini(), &[0, 2, 4], CompilerConfig::default());
        let p = &fig.panels[0];
        assert_eq!(p.x, vec![0, 2, 4]);
        assert!(p.series.iter().all(|s| s.y.len() == 3));
        // Larger buffers cannot make the program unmappable here.
        assert!(p.series[0].y.iter().all(|y| y.is_some()));
    }

    #[test]
    fn buffer_sweep_honors_the_base_policies() {
        // QAOA on L6 never reorders, so GS and IS bases coincide; a
        // reorder-sensitive circuit must not (the base config reaches
        // the compiler).
        let c = generators::random_circuit(20, 120, 0.6, 4);
        let gs = buffer_fig(c.clone(), &[2], CompilerConfig::default());
        let is = buffer_fig(
            c,
            &[2],
            CompilerConfig::with_reorder(ReorderMethod::IonSwap),
        );
        let time = |f: &Figure| f.panels[0].series[2].y[0].unwrap();
        assert_ne!(time(&gs), time(&is), "base config ignored");
    }

    #[test]
    fn heating_ablation_constant_k1_never_hotter() {
        let caps = [8, 12];
        let fig = run_axes(
            vec![mini()],
            caps.iter().map(|&c| presets::l6(c)).collect(),
            vec![CompilerConfig::default()],
            vec![
                PhysicalModel::default(),
                PhysicalModel {
                    heating: HeatingModel::CONSTANT_K1,
                    ..PhysicalModel::default()
                },
            ],
            |grid, results| project_heating(grid, results, &caps),
        );
        let energy = fig.panel("A2-energy").unwrap();
        for i in 0..2 {
            let scaled = energy.series[0].y[i].unwrap();
            let constant = energy.series[1].y[i].unwrap();
            assert!(constant <= scaled + 1e-12, "constant k1 hotter at {i}");
        }
    }

    #[test]
    fn junction_cost_hurts_grid_only() {
        let fig = run_axes(
            vec![mini()],
            vec![presets::l6(8), presets::g2x3(8)],
            vec![CompilerConfig::default()],
            [1.0, 4.0]
                .iter()
                .map(|&factor| PhysicalModel {
                    shuttle: ShuttleTimes {
                        junction_x: ShuttleTimes::TABLE_I.junction_x * factor,
                        junction_y: ShuttleTimes::TABLE_I.junction_y * factor,
                        ..ShuttleTimes::TABLE_I
                    },
                    ..PhysicalModel::default()
                })
                .collect(),
            project_junction,
        );
        let p = &fig.panels[0];
        assert_eq!(p.x, vec![1, 4], "factors recovered from the model axis");
        let linear_cheap = p.series[0].y[0].unwrap();
        let linear_dear = p.series[0].y[1].unwrap();
        let grid_cheap = p.series[1].y[0].unwrap();
        let grid_dear = p.series[1].y[1].unwrap();
        assert!(
            (linear_cheap - linear_dear).abs() < 1e-9,
            "linear has no junctions"
        );
        assert!(grid_dear >= grid_cheap, "grid pays junction costs");
    }

    #[test]
    fn device_size_sweep_marks_infeasible_small_devices() {
        let fig = run_axes(
            vec![generators::qaoa(40, 1, 5)],
            [2, 6, 8]
                .iter()
                .map(|&n| presets::linear(n, 8, presets::DEFAULT_LINEAR_SPACING))
                .collect(),
            vec![CompilerConfig::default()],
            vec![PhysicalModel::default()],
            project_device_size,
        );
        let p = &fig.panels[0];
        assert_eq!(p.x, vec![2, 6, 8], "trap counts recovered from devices");
        // 2 traps × 8 = 16 slots < 40 qubits; 6 and 8 traps fit.
        assert!(p.series[0].y[0].is_none());
        assert!(p.series[0].y[1].is_some());
        assert!(p.series[0].y[2].is_some());
    }

    #[test]
    fn policy_ablation_covers_the_full_grid() {
        let fig = policy_fig(mini(), &[8, 10]);
        for id in ["A5-time", "A5-fidelity", "A5-comm"] {
            let p = fig.panel(id).unwrap();
            assert_eq!(p.x, vec![8, 10]);
            assert_eq!(p.series.len(), 16, "one series per pipeline");
            for s in &p.series {
                assert!(s.y.iter().all(Option::is_some), "{} infeasible", s.label);
            }
        }
        let labels: Vec<&str> = fig.panels[0]
            .series
            .iter()
            .map(|s| s.label.as_str())
            .collect();
        assert!(labels.contains(&"RR+SP+GS+FNU"));
        assert!(labels.contains(&"UW+LC+IS+CE"));
    }

    #[test]
    fn policy_ablation_mapping_axis_has_an_effect() {
        // A pair-heavy circuit: usage-weighted placement must change the
        // shuttling volume relative to round-robin somewhere on the grid.
        let mut c = Circuit::new("pairs", 24);
        for i in 0..24u32 {
            c.h(qccd_circuit::Qubit(i)); // pin first-use order to index order
        }
        for i in 0..12u32 {
            c.cx(qccd_circuit::Qubit(i), qccd_circuit::Qubit(23 - i));
        }
        let fig = policy_fig(c.clone(), &[8]);
        let comm = fig.panel("A5-comm").unwrap();
        let of = |label: &str| -> f64 {
            comm.series.iter().find(|s| s.label == label).unwrap().y[0].unwrap()
        };
        assert_ne!(of("RR+SP+GS+FNU"), of("UW+SP+GS+FNU"));
        // And the grid agrees with a direct single-config run.
        let direct = Toolflow::with_config(
            presets::l6(8),
            PhysicalModel::default(),
            CompilerConfig::with_mapping(MappingKind::UsageWeighted),
        )
        .run(&c)
        .unwrap();
        assert_eq!(of("UW+SP+GS+FNU"), direct.counts.communication_ops() as f64);
    }
}
