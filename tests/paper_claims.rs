//! Paper-scale shape checks: the qualitative findings of §IX–§X that this
//! reproduction commits to (the artifacts themselves are regenerated as
//! in the README's *Regenerating the paper's tables and figures*).
//!
//! These run the real 60–80 qubit benchmarks, restricted to a few design
//! points each to stay test-suite friendly.

use qccd::Toolflow;
use qccd_circuit::generators;
use qccd_compiler::{CompilerConfig, ReorderMethod};
use qccd_device::presets;
use qccd_physics::{GateImpl, PhysicalModel};
use qccd_sim::SimReport;

fn run_l6(
    circuit: &qccd_circuit::Circuit,
    capacity: u32,
    gate: GateImpl,
    reorder: ReorderMethod,
) -> SimReport {
    Toolflow::with_config(
        presets::l6(capacity),
        PhysicalModel::with_gate(gate),
        CompilerConfig::with_reorder(reorder),
    )
    .run(circuit)
    .expect("paper-scale run succeeds")
}

/// §IX-A: communication (shuttling volume) drops as traps grow.
#[test]
fn communication_decreases_with_trap_capacity() {
    let circuit = generators::supremacy_paper();
    let small = run_l6(&circuit, 14, GateImpl::Fm, ReorderMethod::GateSwap);
    let large = run_l6(&circuit, 30, GateImpl::Fm, ReorderMethod::GateSwap);
    assert!(
        small.counts.splits > 2 * large.counts.splits,
        "splits: {} vs {}",
        small.counts.splits,
        large.counts.splits
    );
}

/// §IX-A / Fig. 6g: on heated paper-scale runs the motional term dominates
/// the background term, and the per-gate motional error grows with trap
/// capacity (beam instability + hot spots).
#[test]
fn motional_error_dominates_and_grows_with_capacity() {
    let circuit = generators::supremacy_paper();
    let mid = run_l6(&circuit, 20, GateImpl::Fm, ReorderMethod::GateSwap);
    assert!(
        mid.mean_ms_motional_error() > 2.0 * mid.mean_ms_background_error(),
        "motional {} vs background {}",
        mid.mean_ms_motional_error(),
        mid.mean_ms_background_error()
    );
    let large = run_l6(&circuit, 34, GateImpl::Fm, ReorderMethod::GateSwap);
    assert!(
        large.mean_ms_motional_error() > mid.mean_ms_motional_error(),
        "motional error should grow with capacity: {} vs {}",
        large.mean_ms_motional_error(),
        mid.mean_ms_motional_error()
    );
}

/// §IX-A: low-communication applications (BV, QAOA) keep high fidelity
/// even at very low trap capacity.
#[test]
fn low_communication_apps_stay_reliable_at_small_capacity() {
    let bv = run_l6(
        &generators::bv_paper(),
        14,
        GateImpl::Fm,
        ReorderMethod::GateSwap,
    );
    assert!(bv.fidelity() > 0.3, "bv fidelity {}", bv.fidelity());
    let qaoa = run_l6(
        &generators::qaoa_paper(),
        14,
        GateImpl::Fm,
        ReorderMethod::GateSwap,
    );
    assert!(qaoa.fidelity() > 0.2, "qaoa fidelity {}", qaoa.fidelity());
    // ...while the communication-heavy QFT collapses at the same point.
    let qft = run_l6(
        &generators::qft_paper(),
        14,
        GateImpl::Fm,
        ReorderMethod::GateSwap,
    );
    assert!(qft.fidelity() < 1e-6, "qft fidelity {}", qft.fidelity());
}

/// §IX-B / Fig. 7: the grid topology dramatically improves the irregular
/// SquareRoot workload — higher fidelity and less motional heating,
/// because shuttles cross junctions instead of merging through
/// intermediate traps.
#[test]
fn squareroot_prefers_grid_topology() {
    let circuit = generators::square_root_paper();
    let linear = Toolflow::new(presets::l6(20), PhysicalModel::default())
        .run(&circuit)
        .expect("linear");
    let grid = Toolflow::new(presets::g2x3(20), PhysicalModel::default())
        .run(&circuit)
        .expect("grid");
    assert!(
        grid.fidelity() > 2.0 * linear.fidelity(),
        "grid {} vs linear {}",
        grid.fidelity(),
        linear.fidelity()
    );
    assert!(
        grid.peak_motional_energy < linear.peak_motional_energy,
        "grid heat {} vs linear {}",
        grid.peak_motional_energy,
        linear.peak_motional_energy
    );
}

/// §IX-B: nearest-neighbour QAOA runs (slightly) faster on the simpler
/// linear topology — grids pay junction-crossing time.
#[test]
fn qaoa_linear_topology_is_faster() {
    let circuit = generators::qaoa_paper();
    let linear = Toolflow::new(presets::l6(20), PhysicalModel::default())
        .run(&circuit)
        .expect("linear");
    let grid = Toolflow::new(presets::g2x3(20), PhysicalModel::default())
        .run(&circuit)
        .expect("grid");
    assert!(
        linear.total_time_us <= grid.total_time_us * 1.05,
        "linear {} vs grid {}",
        linear.total_time_us,
        grid.total_time_us
    );
}

/// §X-B / Fig. 8: gate-based swapping is at least as reliable as physical
/// ion swapping, and strictly better when reordering is needed.
#[test]
fn gs_reordering_beats_is() {
    let circuit = generators::square_root_paper();
    let gs = run_l6(&circuit, 18, GateImpl::Fm, ReorderMethod::GateSwap);
    let is = run_l6(&circuit, 18, GateImpl::Fm, ReorderMethod::IonSwap);
    assert!(
        gs.fidelity() > is.fidelity(),
        "GS {} vs IS {}",
        gs.fidelity(),
        is.fidelity()
    );
}

/// §X / Fig. 8: QAOA needs no chain reordering, so its GS and IS results
/// coincide exactly.
#[test]
fn qaoa_gs_equals_is_at_paper_scale() {
    let circuit = generators::qaoa_paper();
    let gs = run_l6(&circuit, 20, GateImpl::Fm, ReorderMethod::GateSwap);
    let is = run_l6(&circuit, 20, GateImpl::Fm, ReorderMethod::IonSwap);
    assert_eq!(gs.counts.swap_gates, 0);
    assert_eq!(is.counts.ion_swaps, 0);
    assert_eq!(gs.total_time_us, is.total_time_us);
    assert_eq!(gs.log_fidelity, is.log_fidelity);
}

/// §X-A: AM2's fast short-range gates make QAOA faster than the
/// distance-robust PM implementation, while AM1 is the slow outlier for
/// long-range workloads.
#[test]
fn gate_implementation_performance_tradeoffs() {
    let qaoa = generators::qaoa_paper();
    let am2 = run_l6(&qaoa, 20, GateImpl::Am2, ReorderMethod::GateSwap);
    let pm = run_l6(&qaoa, 20, GateImpl::Pm, ReorderMethod::GateSwap);
    assert!(
        am2.total_time_us < pm.total_time_us,
        "AM2 {} vs PM {}",
        am2.total_time_us,
        pm.total_time_us
    );

    let sq = generators::square_root_paper();
    let am1 = run_l6(&sq, 20, GateImpl::Am1, ReorderMethod::GateSwap);
    let fm = run_l6(&sq, 20, GateImpl::Fm, ReorderMethod::GateSwap);
    assert!(
        fm.fidelity() > am1.fidelity(),
        "FM {} vs AM1 {}",
        fm.fidelity(),
        am1.fidelity()
    );
}

/// Design-space spread: across the studied space, application reliability
/// varies by many orders of magnitude (the paper quotes up to five).
#[test]
fn design_space_spans_orders_of_magnitude() {
    let qft = generators::qft_paper();
    let best = Toolflow::new(presets::g2x3(22), PhysicalModel::default())
        .run(&qft)
        .expect("grid");
    let worst = run_l6(&qft, 14, GateImpl::Am1, ReorderMethod::IonSwap);
    assert!(
        best.log_fidelity - worst.log_fidelity > 5.0 * std::f64::consts::LN_10,
        "spread too small: best {} worst {}",
        best.fidelity(),
        worst.fidelity()
    );
}
