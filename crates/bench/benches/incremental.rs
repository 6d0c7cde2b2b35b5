//! Criterion benchmarks of the engine's result cache: a warm-started
//! 16-policy sweep must be at least 2× cheaper than a cold one (the
//! acceptance ratio recorded in `BENCH_sim.json`).

use criterion::{criterion_group, criterion_main, Criterion};
use qccd::engine::{Engine, EngineOptions, JobGrid};
use qccd::sweep::policy_grid;
use qccd_circuit::generators;
use qccd_device::presets;
use qccd_physics::PhysicalModel;

fn grid(model: PhysicalModel) -> JobGrid {
    JobGrid::from_axes(
        vec![generators::bv(&[true; 16])],
        vec![presets::l6(10)],
        policy_grid(2),
        vec![model],
    )
}

/// Cold 16-policy sweep: no result cache, every job compiled and
/// simulated.
fn bench_policy16_cold(c: &mut Criterion) {
    c.bench_function("incremental/policy16_cold", |b| {
        b.iter(|| {
            let run = Engine::new().run(&grid(PhysicalModel::default()));
            assert_eq!(run.stats.executed, 16);
            run
        });
    });
}

/// Warm re-invocation of the same sweep: every job served from the
/// result cache — the ratio against `policy16_cold` is the pinned
/// warm-vs-cold acceptance.
fn bench_policy16_warm(c: &mut Criterion) {
    let dir = std::env::temp_dir().join(format!("qccd-bench-incr-warm-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let engine = Engine::with_options(EngineOptions {
        cache_dir: Some(dir.clone()),
        ..EngineOptions::default()
    });
    engine.run(&grid(PhysicalModel::default())); // prime the results
    c.bench_function("incremental/policy16_warm", |b| {
        b.iter(|| {
            let run = engine.run(&grid(PhysicalModel::default()));
            assert_eq!(run.stats.executed, 0);
            run
        });
    });
    let _ = std::fs::remove_dir_all(&dir);
}

criterion_group!(benches, bench_policy16_cold, bench_policy16_warm);
criterion_main!(benches);
