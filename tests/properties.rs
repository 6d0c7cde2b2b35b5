//! Property-based tests over the whole toolflow: any random circuit that
//! fits a device must compile and simulate with its invariants intact.

use proptest::prelude::*;
use qccd::Toolflow;
use qccd_circuit::{generators, qasm};
use qccd_compiler::{compile, CompilerConfig};
use qccd_device::presets;
use qccd_physics::PhysicalModel;

/// The satellite grid property: for every (preset device × generator
/// circuit × policy combination) cell, `compile()` output passes
/// `simulate()` without a `SimError` and the split/merge/move
/// bookkeeping balances.
#[test]
fn every_policy_combination_simulates_cleanly_on_every_preset() {
    let devices = [presets::l6(8), presets::g2x3(8)];
    let circuits = [
        generators::qaoa(18, 1, 3),
        generators::bv(&[true; 15]),
        generators::qft(14),
        generators::random_circuit(20, 120, 0.5, 17),
    ];
    let model = PhysicalModel::default();
    for device in &devices {
        for circuit in &circuits {
            for config in CompilerConfig::policy_grid(2) {
                let cell = format!(
                    "{} × {} × {}",
                    device.name(),
                    circuit.name(),
                    config.policy_label()
                );
                let exe = compile(circuit, device, &config)
                    .unwrap_or_else(|e| panic!("{cell}: compile failed: {e}"));
                let counts = exe.counts();
                assert_eq!(counts.splits, counts.merges, "{cell}");
                assert_eq!(counts.splits, counts.moves, "{cell}");
                assert_eq!(
                    counts.two_qubit_gates,
                    circuit.two_qubit_gate_count(),
                    "{cell}"
                );
                let report = qccd_sim::simulate(&exe, device, &model)
                    .unwrap_or_else(|e| panic!("{cell}: simulate failed: {e}"));
                assert!(
                    report.fidelity() >= 0.0 && report.fidelity() <= 1.0,
                    "{cell}"
                );
                assert!(report.total_time_us.is_finite(), "{cell}");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random circuits compile and simulate on the linear topology with
    /// conserved shuttle bookkeeping and sane metrics, under a randomly
    /// drawn policy pipeline.
    #[test]
    fn random_circuits_run_on_linear(
        n in 2u32..24,
        ops in 1usize..150,
        frac in 0.0f64..0.8,
        seed in 0u64..1000,
        combo in 0usize..16,
    ) {
        let circuit = generators::random_circuit(n, ops, frac, seed);
        let tf = Toolflow::with_config(
            presets::l6(8),
            PhysicalModel::default(),
            CompilerConfig::policy_grid(2)[combo],
        );
        let r = tf.run(&circuit).expect("fits and runs");
        prop_assert_eq!(r.counts.splits, r.counts.merges);
        prop_assert_eq!(r.counts.splits, r.counts.moves);
        prop_assert_eq!(r.counts.two_qubit_gates, circuit.two_qubit_gate_count());
        prop_assert!(r.fidelity() >= 0.0 && r.fidelity() <= 1.0);
        prop_assert!(r.total_time_us.is_finite() && r.total_time_us >= 0.0);
        prop_assert!(r.peak_motional_energy >= 0.0);
        prop_assert!(r.time.compute_us + r.time.communication_us <= r.total_time_us + 1e-6);
    }

    /// The same circuits run on the grid; linear devices never cross
    /// junctions, grids never pass through intermediate traps.
    #[test]
    fn random_circuits_run_on_grid(
        n in 2u32..24,
        ops in 1usize..120,
        seed in 0u64..1000,
    ) {
        let circuit = generators::random_circuit(n, ops, 0.5, seed);
        let tf = Toolflow::new(presets::g2x3(8), PhysicalModel::default());
        let r = tf.run(&circuit).expect("fits and runs");
        // On the grid every shuttle is exactly one leg, so split count is
        // bounded by the number of moves and reorders only happen at the
        // source trap.
        prop_assert_eq!(r.counts.splits, r.counts.moves);
        prop_assert!(r.fidelity() <= 1.0);
    }

    /// The final ion-to-qubit assignment is always a permutation: no
    /// quantum state is lost or duplicated by reordering swaps.
    #[test]
    fn final_mapping_is_a_permutation(
        n in 2u32..20,
        ops in 1usize..120,
        seed in 0u64..1000,
    ) {
        let circuit = generators::random_circuit(n, ops, 0.6, seed);
        let exe = compile(&circuit, &presets::l6(8), &CompilerConfig::default())
            .expect("compiles");
        let mut seen = vec![false; n as usize];
        for &q in exe.final_qubit_of_ion() {
            prop_assert!(q < n, "qubit {} out of range", q);
            prop_assert!(!seen[q as usize], "qubit {} duplicated", q);
            seen[q as usize] = true;
        }
        prop_assert!(seen.into_iter().all(|b| b));
    }

    /// OpenQASM round-trips preserve circuit structure for arbitrary
    /// generated circuits.
    #[test]
    fn qasm_round_trip_preserves_structure(
        n in 1u32..20,
        ops in 0usize..120,
        seed in 0u64..1000,
    ) {
        let frac = if n >= 2 { 0.4 } else { 0.0 };
        let circuit = generators::random_circuit(n, ops, frac, seed);
        let text = qasm::write(&circuit);
        let back = qasm::parse(&text).expect("reparses");
        prop_assert_eq!(back.num_qubits(), circuit.num_qubits());
        prop_assert_eq!(back.len(), circuit.len());
        prop_assert_eq!(back.two_qubit_gate_count(), circuit.two_qubit_gate_count());
        prop_assert_eq!(back.measure_count(), circuit.measure_count());
    }

    /// Reliability is monotone in the error model: doubling the beam
    /// instability never improves fidelity.
    #[test]
    fn fidelity_monotone_in_beam_instability(
        n in 4u32..20,
        ops in 10usize..100,
        seed in 0u64..1000,
    ) {
        let circuit = generators::random_circuit(n, ops, 0.5, seed);
        let exe = compile(&circuit, &presets::l6(8), &CompilerConfig::default())
            .expect("compiles");
        let base_model = PhysicalModel::default();
        let mut noisy_model = base_model;
        noisy_model.fidelity.a0 *= 2.0;
        let device = presets::l6(8);
        let base = qccd_sim::simulate(&exe, &device, &base_model).expect("simulates");
        let noisy = qccd_sim::simulate(&exe, &device, &noisy_model).expect("simulates");
        prop_assert!(noisy.log_fidelity <= base.log_fidelity + 1e-12);
        // Timing is unaffected by the error model.
        prop_assert_eq!(base.total_time_us, noisy.total_time_us);
    }
}
