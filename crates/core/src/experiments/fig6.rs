//! Figure 6 — trap sizing choices (§IX-A).
//!
//! "Experiments use L6 device, with FM two-qubit gates and GS chain
//! reordering. Capacity denotes the maximum number of ions in an
//! individual trap." The study sweeps capacities 14–34 and reports, per
//! application: runtime (6a), QFT compute/communication decomposition
//! (6b), fidelity (6c–6e), peak motional energy (6f) and the Supremacy
//! MS-gate error breakdown (6g).
//!
//! This module is the *projection* of that study: the (app × capacity)
//! grid is described by `examples/experiments/fig6.json`, executed by
//! [`crate::engine::Engine`], and shaped into the figure by `project`.

use super::{capacity_axis, series_of, Figure, Panel, Series};
use crate::engine::{GridResults, JobGrid};
use qccd_sim::SimReport;

/// Shapes evaluated (app × capacity) grid results into the Fig. 6
/// panels. The grid's device axis is the capacity sweep, and each
/// point's x label is its device's trap capacity.
pub(crate) fn project(grid: &JobGrid, results: &GridResults) -> Figure {
    let suite = grid.circuits();
    let x = capacity_axis(grid.devices());
    let device_name = grid
        .devices()
        .first()
        .map(|d| d.name().to_owned())
        .unwrap_or_else(|| "??".to_owned());
    let config = grid.configs().first().copied().unwrap_or_default();

    // Per-app rows over the capacity axis.
    let per_app: Vec<Vec<Option<SimReport>>> = (0..suite.len())
        .map(|a| {
            (0..grid.devices().len())
                .map(|k| results.report(grid, a, k, 0, 0).cloned())
                .collect()
        })
        .collect();

    let app_series = |get: &dyn Fn(&SimReport) -> f64| -> Vec<Series> {
        suite
            .iter()
            .zip(per_app.iter())
            .map(|(c, row)| series_of(c.name(), row, get))
            .collect()
    };

    let mut panels = Vec::new();
    panels.push(Panel {
        id: "6a".into(),
        title: "Performance".into(),
        y_label: "time (s)".into(),
        x: x.clone(),
        series: app_series(&|r| r.total_time_s()),
    });

    // 6b: QFT computation vs communication (the suite's QFT-like entry is
    // matched by name prefix so scaled suites work too).
    if let Some(qft_idx) = suite.iter().position(|c| c.name().starts_with("qft")) {
        panels.push(Panel {
            id: "6b".into(),
            title: "QFT performance analysis".into(),
            y_label: "time (s)".into(),
            x: x.clone(),
            series: vec![
                series_of("computation", &per_app[qft_idx], |r| {
                    r.time.compute_us * 1e-6
                }),
                series_of("communication", &per_app[qft_idx], |r| {
                    r.time.communication_us * 1e-6
                }),
            ],
        });
    }

    for (id, title, names) in [
        ("6c", "Adder/BV fidelities", vec!["adder", "bv"]),
        ("6d", "Supremacy/QAOA fidelities", vec!["supremacy", "qaoa"]),
        ("6e", "SquareRoot/QFT fidelities", vec!["squareroot", "qft"]),
    ] {
        let series: Vec<Series> = suite
            .iter()
            .zip(per_app.iter())
            .filter(|(c, _)| names.iter().any(|n| c.name().starts_with(n)))
            .map(|(c, row)| series_of(c.name(), row, |r: &SimReport| r.fidelity()))
            .collect();
        if !series.is_empty() {
            panels.push(Panel {
                id: id.into(),
                title: title.into(),
                y_label: "fidelity".into(),
                x: x.clone(),
                series,
            });
        }
    }

    panels.push(Panel {
        id: "6f".into(),
        title: "Motional mode trends".into(),
        y_label: "max motional energy (quanta)".into(),
        x: x.clone(),
        series: app_series(&|r| r.peak_motional_energy),
    });

    if let Some(sup_idx) = suite.iter().position(|c| c.name().starts_with("supremacy")) {
        panels.push(Panel {
            id: "6g".into(),
            title: "Supremacy fidelity analysis".into(),
            y_label: "MS gate error contribution".into(),
            x: x.clone(),
            series: vec![
                series_of("motional", &per_app[sup_idx], |r| {
                    r.mean_ms_motional_error()
                }),
                series_of("background", &per_app[sup_idx], |r| {
                    r.mean_ms_background_error()
                }),
            ],
        });
    }

    Figure {
        id: "6".into(),
        caption: format!(
            "Trap sizing choices ({device_name} device, FM two-qubit gates, {} chain reordering)",
            config.reorder.short()
        ),
        panels,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::spec::committed;
    use crate::engine::{run_spec, DeviceSpec, Engine};
    use crate::experiments::run_axes;
    use qccd_circuit::{generators, Circuit};
    use qccd_compiler::CompilerConfig;
    use qccd_device::{presets, Device};
    use qccd_physics::{GateImpl, PhysicalModel};

    fn mini_suite() -> Vec<Circuit> {
        vec![
            generators::qft(10),
            generators::bv(&[true; 11]),
            generators::supremacy(3, 4, 4, 1),
        ]
    }

    /// The Fig. 6 grid (FM gates, default compiler) of `suite` on one
    /// device per swept capacity.
    fn fig6_on(suite: Vec<Circuit>, caps: &[u32], device_at: impl Fn(u32) -> Device) -> Figure {
        run_axes(
            suite,
            caps.iter().map(|&c| device_at(c)).collect(),
            vec![CompilerConfig::default()],
            vec![PhysicalModel::with_gate(GateImpl::Fm)],
            project,
        )
    }

    fn mini_fig6(caps: &[u32]) -> Figure {
        fig6_on(mini_suite(), caps, presets::l6)
    }

    #[test]
    fn mini_fig6_has_expected_panels() {
        let fig = mini_fig6(&[6, 10]);
        assert!(fig.panel("6a").is_some());
        assert!(fig.panel("6b").is_some());
        assert!(fig.panel("6e").is_some());
        assert!(fig.panel("6f").is_some());
        assert!(fig.panel("6g").is_some());
        let p6a = fig.panel("6a").unwrap();
        assert_eq!(p6a.x, vec![6, 10]);
        assert_eq!(p6a.series.len(), 3);
    }

    #[test]
    fn feasible_points_have_values() {
        let fig = mini_fig6(&[8]);
        for s in &fig.panel("6a").unwrap().series {
            assert!(s.y[0].is_some(), "{} missing", s.label);
            assert!(s.y[0].unwrap() > 0.0);
        }
    }

    #[test]
    fn custom_topology_study_matches_preset_for_the_same_family() {
        // A JSON-round-tripped L6 template rescaled per capacity (what a
        // `{"file": …}` device entry does) must reproduce the preset
        // study bit-for-bit.
        let caps = [6, 10];
        let template =
            Device::from_json(&serde_json::to_string(&presets::l6(99)).unwrap()).unwrap();
        let preset = mini_fig6(&caps);
        let custom = fig6_on(mini_suite(), &caps, |cap| {
            template.with_uniform_capacity(cap)
        });
        assert_eq!(preset, custom);
    }

    #[test]
    fn error_breakdown_panel_has_both_contributions() {
        // Motional dominance over background is a paper-scale effect
        // (hot 60-80 qubit runs; asserted in the integration tests); at
        // mini scale both contributions must simply be present and
        // positive.
        let fig = mini_fig6(&[8]);
        let p = fig.panel("6g").unwrap();
        let motional = p.series[0].y[0].unwrap();
        let background = p.series[1].y[0].unwrap();
        assert!(motional > 0.0);
        assert!(background > 0.0);
    }

    #[test]
    fn fixed_capacity_device_is_labelled_by_its_own_capacity() {
        // A fixed-capacity entry ignores the `capacities` axis, so the
        // x label must come from the device, not from that axis.
        let mut spec = committed("fig6");
        spec.devices = vec![DeviceSpec::Preset {
            family: "l6".into(),
            capacity: Some(20),
        }];
        spec.capacities = vec![14];
        spec.circuits.truncate(1);
        let fig = run_spec(&spec, &Engine::new())
            .unwrap()
            .artifact
            .into_figure();
        for panel in &fig.panels {
            assert_eq!(panel.x, vec![20], "panel {}", panel.id);
        }
    }

    #[test]
    fn spec_preset_and_closure_paths_agree() {
        // The ExperimentSpec → engine path and a grid built from
        // resolved axes must produce identical figures. Pruned to two
        // benchmarks to keep the unit test fast; the golden snapshots
        // pin the full suite.
        let caps = [14];
        let mut spec = committed("fig6");
        spec.capacities = caps.to_vec();
        spec.circuits.truncate(2); // supremacy + qaoa
        let via_spec = run_spec(&spec, &Engine::new())
            .unwrap()
            .artifact
            .into_figure();
        let via_axes = fig6_on(
            vec![generators::supremacy_paper(), generators::qaoa_paper()],
            &caps,
            presets::l6,
        );
        assert_eq!(via_spec, via_axes);
    }
}
