//! Figure 7 — communication topology choices (§IX-B).
//!
//! "Figure compares two topologies: L6 and G2x3. Experiments used FM
//! two-qubit gates with GS reordering." Per application the paper plots
//! runtime and fidelity for both topologies (7a–7f) and, for SquareRoot,
//! the motional-heating comparison (7g).
//!
//! This module is the projection of that study over engine results:
//! the device axis carries the linear family followed by the grid
//! family (one device per swept capacity each), as in
//! `examples/experiments/fig7.json`.

use super::{series_of, Figure, Panel};
use crate::engine::{GridResults, JobGrid};
use qccd_sim::SimReport;

/// Shapes evaluated topology-grid results into the Fig. 7 panels. The
/// device axis must hold the linear family in its first half and the
/// grid family in its second, at the same capacities (the
/// `examples/experiments/fig7.json` layout, which `run_spec` checks
/// before projecting).
pub(crate) fn project(grid: &JobGrid, results: &GridResults, capacities: &[u32]) -> Figure {
    let suite = grid.circuits();
    let half = grid.devices().len() / 2;
    let x: Vec<u32> = if capacities.len() == half {
        capacities.to_vec()
    } else {
        grid.devices()[..half]
            .iter()
            .map(qccd_device::Device::max_trap_capacity)
            .collect()
    };
    let config = grid.configs().first().copied().unwrap_or_default();

    // topology 0 = linear (first device half), 1 = grid (second half).
    let row = |a: usize, topo: usize| -> Vec<Option<SimReport>> {
        (0..half)
            .map(|k| results.report(grid, a, topo * half + k, 0, 0).cloned())
            .collect()
    };

    let panel_ids = ["7a", "7b", "7c", "7d", "7e", "7f"];
    let mut panels = Vec::new();
    for (a, circuit) in suite.iter().enumerate() {
        let linear = row(a, 0);
        let grid_row = row(a, 1);
        let id = panel_ids.get(a).copied().unwrap_or("7x");
        panels.push(Panel {
            id: id.into(),
            title: circuit.name().into(),
            y_label: "time (s) / fidelity".into(),
            x: x.clone(),
            series: vec![
                series_of("time-linear", &linear, |r: &SimReport| r.total_time_s()),
                series_of("time-grid", &grid_row, |r: &SimReport| r.total_time_s()),
                series_of("fidelity-linear", &linear, |r: &SimReport| r.fidelity()),
                series_of("fidelity-grid", &grid_row, |r: &SimReport| r.fidelity()),
            ],
        });
    }

    if let Some(sq) = suite
        .iter()
        .position(|c| c.name().starts_with("squareroot"))
    {
        panels.push(Panel {
            id: "7g".into(),
            title: "SquareRoot: motional heating".into(),
            y_label: "motional heating (quanta)".into(),
            x: x.clone(),
            series: vec![
                series_of("linear", &row(sq, 0), |r: &SimReport| {
                    r.peak_motional_energy
                }),
                series_of("grid", &row(sq, 1), |r: &SimReport| r.peak_motional_energy),
            ],
        });
    }

    Figure {
        id: "7".into(),
        caption: format!(
            "Communication topology choices (L6 vs G2x3, FM gates, {} reordering)",
            config.reorder.short()
        ),
        panels,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::run_axes;
    use qccd_circuit::generators;
    use qccd_compiler::CompilerConfig;
    use qccd_device::presets;
    use qccd_physics::{GateImpl, PhysicalModel};

    /// The Fig. 7 grid (L6 then G2x3 per capacity, FM gates) over a
    /// mini SquareRoot + QAOA suite.
    fn mini_fig7(caps: &[u32]) -> Figure {
        let mut devices: Vec<_> = caps.iter().map(|&c| presets::l6(c)).collect();
        devices.extend(caps.iter().map(|&c| presets::g2x3(c)));
        run_axes(
            vec![generators::square_root(8, 1, 2), generators::qaoa(14, 1, 2)],
            devices,
            vec![CompilerConfig::default()],
            vec![PhysicalModel::with_gate(GateImpl::Fm)],
            |grid, results| project(grid, results, caps),
        )
    }

    #[test]
    fn per_app_panels_have_four_series() {
        let fig = mini_fig7(&[8]);
        let p = fig.panel("7a").unwrap();
        assert_eq!(p.series.len(), 4);
        assert!(p.series.iter().all(|s| s.y[0].is_some()));
    }

    #[test]
    fn heating_panel_compares_topologies() {
        let fig = mini_fig7(&[8]);
        let p = fig.panel("7g").unwrap();
        assert_eq!(p.series.len(), 2);
        assert_eq!(p.series[0].label, "linear");
    }

    #[test]
    fn irregular_app_heats_less_on_grid() {
        // The headline §IX-B effect, at mini scale: SquareRoot-like
        // irregular communication accrues less motional energy on the
        // grid (no intermediate-trap merges).
        let fig = mini_fig7(&[6]);
        let p = fig.panel("7g").unwrap();
        let linear = p.series[0].y[0].unwrap();
        let grid = p.series[1].y[0].unwrap();
        assert!(
            grid <= linear,
            "grid heating {grid} should not exceed linear {linear}"
        );
    }
}
