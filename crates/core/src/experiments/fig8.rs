//! Figure 8 — microarchitecture choices (§X).
//!
//! "Comparison of 8 combinations with 4 gate choices: AM1, AM2, PM, and
//! FM, and two chain reordering methods: GS and IS", on the L6 topology.
//! Panels 8a–8f plot fidelity per application, 8g–8l runtime.
//!
//! The compiler's output depends on the reorder method but not on the
//! gate implementation, so the engine compiles each (app, capacity,
//! reorder) group once and simulates it under all four gate-time
//! models (the jobs differ only in physical model — see
//! [`crate::engine::Engine`]). This module is the projection shaping
//! those results into the paper's panels.

use super::{capacity_axis, Figure, Panel, Series};
use crate::engine::{GridResults, JobGrid};
use qccd_sim::SimReport;

/// Shapes evaluated (app × capacity × reorder × gate) grid results into
/// the Fig. 8 panels. The config axis carries the reorder methods, the
/// model axis the gate implementations (the
/// `examples/experiments/fig8.json` layout). Each point's x label is
/// its device's trap capacity.
pub(crate) fn project(grid: &JobGrid, results: &GridResults) -> Figure {
    let suite = grid.circuits();
    let x = capacity_axis(grid.devices());
    let device_name = grid
        .devices()
        .first()
        .map(|d| d.name().to_owned())
        .unwrap_or_else(|| "??".to_owned());

    // series[(gate, reorder)] per app for fidelity and time.
    let combo_series = |a: usize, get: &dyn Fn(&SimReport) -> f64| -> Vec<Series> {
        let mut out = Vec::new();
        for (mi, model) in grid.models().iter().enumerate() {
            for (cfgi, config) in grid.configs().iter().enumerate() {
                let y: Vec<Option<f64>> = (0..grid.devices().len())
                    .map(|k| results.report(grid, a, k, cfgi, mi).map(get))
                    .collect();
                out.push(Series {
                    label: format!("{}-{}", model.gate_impl.name(), config.reorder.short()),
                    y,
                });
            }
        }
        out
    };

    let fid_ids = ["8a", "8b", "8c", "8d", "8e", "8f"];
    let time_ids = ["8g", "8h", "8i", "8j", "8k", "8l"];
    let mut panels = Vec::new();
    for (a, circuit) in suite.iter().enumerate() {
        panels.push(Panel {
            id: fid_ids.get(a).copied().unwrap_or("8x").into(),
            title: format!("{} fidelity", circuit.name()),
            y_label: "fidelity".into(),
            x: x.clone(),
            series: combo_series(a, &|r| r.fidelity()),
        });
    }
    for (a, circuit) in suite.iter().enumerate() {
        panels.push(Panel {
            id: time_ids.get(a).copied().unwrap_or("8y").into(),
            title: format!("{} time", circuit.name()),
            y_label: "time (s)".into(),
            x: x.clone(),
            series: combo_series(a, &|r| r.total_time_s()),
        });
    }

    Figure {
        id: "8".into(),
        caption: format!(
            "Microarchitecture choices: 4 two-qubit gate implementations × 2 chain reordering \
             methods ({device_name} topology)"
        ),
        panels,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use crate::experiments::run_axes;
    use qccd_circuit::{generators, Circuit};
    use qccd_compiler::{CompilerConfig, ReorderMethod};
    use qccd_device::presets;
    use qccd_physics::{GateImpl, PhysicalModel};

    fn mini_suite() -> Vec<Circuit> {
        vec![generators::qaoa(14, 1, 2), generators::bv(&[true; 13])]
    }

    fn reorder_configs() -> Vec<CompilerConfig> {
        ReorderMethod::ALL
            .iter()
            .map(|&r| CompilerConfig::with_reorder(r))
            .collect()
    }

    fn gate_models() -> Vec<PhysicalModel> {
        GateImpl::ALL
            .iter()
            .map(|&g| PhysicalModel::with_gate(g))
            .collect()
    }

    /// The Fig. 8 grid (2 reorders × 4 gates on L6) over the mini suite.
    fn mini_fig8(caps: &[u32]) -> Figure {
        run_axes(
            mini_suite(),
            caps.iter().map(|&c| presets::l6(c)).collect(),
            reorder_configs(),
            gate_models(),
            project,
        )
    }

    #[test]
    fn eight_series_per_panel() {
        let fig = mini_fig8(&[8]);
        let p = fig.panel("8a").unwrap();
        assert_eq!(p.series.len(), 8);
        let labels: Vec<&str> = p.series.iter().map(|s| s.label.as_str()).collect();
        assert!(labels.contains(&"AM1-GS"));
        assert!(labels.contains(&"FM-IS"));
    }

    #[test]
    fn qaoa_gs_equals_is() {
        // Fig. 8's QAOA curves coincide: no reordering is ever needed.
        let fig = mini_fig8(&[8]);
        let p = fig.panel("8a").unwrap();
        for g in ["AM1", "AM2", "PM", "FM"] {
            let gs = p
                .series
                .iter()
                .find(|s| s.label == format!("{g}-GS"))
                .unwrap();
            let is = p
                .series
                .iter()
                .find(|s| s.label == format!("{g}-IS"))
                .unwrap();
            assert_eq!(gs.y, is.y, "{g} GS and IS differ for QAOA");
        }
    }

    #[test]
    fn time_panels_exist_per_app() {
        let fig = mini_fig8(&[8]);
        assert!(fig.panel("8g").is_some());
        assert!(fig.panel("8h").is_some());
        assert_eq!(fig.panels.len(), 4);
    }

    #[test]
    fn engine_shares_compilations_across_gate_models() {
        // 2 apps × 1 cap × 2 reorders = 4 compilations serve
        // 4 × 4-gate-model jobs: the Fig. 8 compile-once optimization,
        // now provided by the engine's model-sharing groups.
        let grid = JobGrid::from_axes(
            mini_suite(),
            vec![presets::l6(8)],
            reorder_configs(),
            gate_models(),
        );
        let run = Engine::new().run(&grid);
        assert_eq!(run.stats.jobs, 16);
        assert_eq!(run.stats.compiles, 4);
    }
}
