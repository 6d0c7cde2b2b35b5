//! Criterion benchmarks of the end-to-end toolflow (compile + simulate),
//! sized so `cargo bench` completes quickly while exercising the same
//! code paths as the paper-scale studies, plus the `sim` group timing
//! the simulator alone on precompiled executables.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use qccd::sim::simulate;
use qccd::Toolflow;
use qccd_circuit::generators;
use qccd_compiler::{compile, CompilerConfig, Executable, ReorderMethod};
use qccd_device::{presets, Device};
use qccd_physics::{GateImpl, PhysicalModel};

fn bench_end_to_end(c: &mut Criterion) {
    let mut group = c.benchmark_group("toolflow");
    group.sample_size(20);

    let cases = [
        ("bv32", generators::bv(&[true; 31])),
        ("qaoa32", generators::qaoa(32, 2, 7)),
        ("adder16", generators::adder(15, 3, 9)),
    ];
    for (name, circuit) in &cases {
        group.bench_with_input(BenchmarkId::new("l6", name), circuit, |b, circuit| {
            let tf = Toolflow::new(presets::l6(12), PhysicalModel::default());
            b.iter(|| tf.run(circuit).expect("runs"));
        });
        group.bench_with_input(BenchmarkId::new("g2x3", name), circuit, |b, circuit| {
            let tf = Toolflow::new(presets::g2x3(12), PhysicalModel::default());
            b.iter(|| tf.run(circuit).expect("runs"));
        });
    }
    group.finish();
}

fn bench_gate_impls(c: &mut Criterion) {
    let mut group = c.benchmark_group("gate_impls");
    group.sample_size(20);
    let circuit = generators::qaoa(32, 2, 7);
    for gate in GateImpl::ALL {
        group.bench_function(gate.name(), |b| {
            let tf = Toolflow::new(presets::l6(12), PhysicalModel::with_gate(gate));
            b.iter(|| tf.run(&circuit).expect("runs"));
        });
    }
    group.finish();
}

fn bench_reorder_methods(c: &mut Criterion) {
    let mut group = c.benchmark_group("reorder");
    group.sample_size(20);
    let circuit = generators::bv(&[true; 31]);
    for method in ReorderMethod::ALL {
        group.bench_function(method.short(), |b| {
            let tf = Toolflow::with_config(
                presets::l6(12),
                PhysicalModel::default(),
                CompilerConfig::with_reorder(method),
            );
            b.iter(|| tf.run(&circuit).expect("runs"));
        });
    }
    group.finish();
}

/// Gate-heavy workload: deep QAOA on a roomy device, with almost no
/// shuttling.
fn gate_heavy() -> (Executable, Device) {
    let device = presets::l6(20);
    let circuit = generators::qaoa(40, 4, 11);
    let exe = compile(&circuit, &device, &CompilerConfig::default()).expect("compiles");
    (exe, device)
}

/// Shuttle-heavy workload: a congested random circuit on small traps,
/// with long split/move/merge chains queueing on shared segments.
fn shuttle_heavy() -> (Executable, Device) {
    let device = presets::g2x3(8);
    let circuit = generators::random_circuit(40, 400, 0.7, 13);
    let exe = compile(&circuit, &device, &CompilerConfig::default()).expect("compiles");
    (exe, device)
}

/// Ion-swap-heavy workload: ion-swap reordering on chains longer than
/// the heating model's reference length, where split/merge heating
/// scales with the chain length.
fn ionswap_heavy() -> (Executable, Device) {
    let device = presets::l6(20);
    let circuit = generators::random_circuit(100, 600, 0.6, 17);
    let config = CompilerConfig::with_reorder(ReorderMethod::IonSwap);
    let exe = compile(&circuit, &device, &config).expect("compiles");
    (exe, device)
}

fn bench_simulate(c: &mut Criterion) {
    let model = PhysicalModel::default();
    let mut group = c.benchmark_group("sim");
    for (label, (exe, device)) in [
        ("gate_heavy", gate_heavy()),
        ("shuttle_heavy", shuttle_heavy()),
        ("ionswap_heavy", ionswap_heavy()),
    ] {
        group.bench_function(format!("simulate_{label}"), |b| {
            b.iter(|| simulate(black_box(&exe), &device, &model).expect("simulates"));
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_end_to_end,
    bench_gate_impls,
    bench_reorder_methods,
    bench_simulate
);
criterion_main!(benches);
