//! Criterion benchmarks of the experiment engine against the direct
//! `parallel_map` sweep it is built on: the engine's grid bookkeeping,
//! job hashing and grouping must stay a small constant overhead, its
//! model-sharing groups must beat naive per-job compilation, and a warm
//! result cache must beat both: `engine_warm_cache` must stay at least
//! 2× cheaper than `engine_uncached` (the acceptance recorded in
//! `BENCH_sim.json`).

use criterion::{criterion_group, criterion_main, Criterion};
use qccd::engine::{Engine, EngineOptions, ExperimentSpec, JobGrid};
use qccd::sweep::parallel_map;
use qccd::Toolflow;
use qccd_circuit::{generators, Circuit};
use qccd_compiler::CompilerConfig;
use qccd_device::presets;
use qccd_physics::{GateImpl, PhysicalModel};

const CAPS: [u32; 3] = [8, 10, 12];

fn suite() -> Vec<Circuit> {
    vec![generators::bv(&[true; 19]), generators::qaoa(20, 1, 4)]
}

fn grid() -> JobGrid {
    JobGrid::from_axes(
        suite(),
        CAPS.iter().map(|&c| presets::l6(c)).collect(),
        vec![CompilerConfig::default()],
        vec![PhysicalModel::default()],
    )
}

/// The baseline: the same (circuit × capacity) cells through a bare
/// `parallel_map` over `Toolflow::run`, the pre-engine sweep shape.
fn bench_direct_parallel_map(c: &mut Criterion) {
    let suite = suite();
    let cells: Vec<(usize, u32)> = (0..suite.len())
        .flat_map(|a| CAPS.iter().map(move |&cap| (a, cap)))
        .collect();
    c.bench_function("engine/direct_parallel_map", |b| {
        b.iter(|| {
            parallel_map(&cells, |&(a, cap)| {
                Toolflow::new(presets::l6(cap), PhysicalModel::default())
                    .run(&suite[a])
                    .ok()
            })
        });
    });
}

/// The same cells through the engine (grid construction + hashing +
/// compile grouping included) — the overhead-vs-`parallel_map` comparison the
/// engine must keep small.
fn bench_engine_uncached(c: &mut Criterion) {
    c.bench_function("engine/engine_uncached", |b| {
        b.iter(|| Engine::new().run(&grid()));
    });
}

/// Jobs differing only in gate model: the engine compiles once per
/// group where the direct sweep compiles per cell.
fn bench_engine_model_sharing(c: &mut Criterion) {
    let suite = suite();
    let models: Vec<PhysicalModel> = GateImpl::ALL
        .iter()
        .map(|&g| PhysicalModel::with_gate(g))
        .collect();
    let cells: Vec<(usize, u32, usize)> = (0..suite.len())
        .flat_map(|a| {
            CAPS.iter()
                .flat_map(move |&cap| (0..GateImpl::ALL.len()).map(move |m| (a, cap, m)))
        })
        .collect();
    c.bench_function("engine/gate_axis_direct", |b| {
        b.iter(|| {
            parallel_map(&cells, |&(a, cap, m)| {
                Toolflow::new(presets::l6(cap), models[m])
                    .run(&suite[a])
                    .ok()
            })
        });
    });
    c.bench_function("engine/gate_axis_engine_shared_compile", |b| {
        b.iter(|| {
            let grid = JobGrid::from_axes(
                suite.clone(),
                CAPS.iter().map(|&c| presets::l6(c)).collect(),
                vec![CompilerConfig::default()],
                models.clone(),
            );
            Engine::new().run(&grid)
        });
    });
}

/// A fully warm result cache: every job served from disk. The ratio
/// against `engine_uncached` is the pinned warm-vs-cold acceptance.
fn bench_engine_cached(c: &mut Criterion) {
    let dir = std::env::temp_dir().join(format!("qccd-bench-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let engine = Engine::with_options(EngineOptions {
        cache_dir: Some(dir.clone()),
        ..EngineOptions::default()
    });
    engine.run(&grid()); // warm
    c.bench_function("engine/engine_warm_cache", |b| {
        b.iter(|| {
            let run = engine.run(&grid());
            assert_eq!(run.stats.executed, 0);
            run
        });
    });
    let _ = std::fs::remove_dir_all(&dir);
}

/// The eight committed sweep specs (every figure and ablation).
const SWEEP_SPECS: [&str; 8] = [
    "fig6",
    "fig7",
    "fig8",
    "ablation_buffer",
    "ablation_heating",
    "ablation_junction",
    "ablation_device_size",
    "ablation_policy",
];

/// Grid construction over the committed sweep specs' resolved axes: it
/// content-hashes every circuit (23 axis entries, 3.9 MB of JSON),
/// device, config and model, then dedups the cells into jobs. The axes
/// are resolved once up front; each iteration clones them into
/// `from_axes`.
fn bench_from_axes_committed_specs(c: &mut Criterion) {
    let grids: Vec<JobGrid> = SWEEP_SPECS
        .iter()
        .map(|name| {
            let path = format!(
                "{}/../../examples/experiments/{name}.json",
                env!("CARGO_MANIFEST_DIR")
            );
            let spec = ExperimentSpec::from_file(&path).unwrap_or_else(|e| panic!("{e}"));
            spec.expand().unwrap_or_else(|e| panic!("{name}: {e}"))
        })
        .collect();
    c.bench_function("engine/from_axes_committed_specs", |b| {
        b.iter(|| {
            grids
                .iter()
                .map(|g| {
                    JobGrid::from_axes(
                        g.circuits().to_vec(),
                        g.devices().to_vec(),
                        g.configs().to_vec(),
                        g.models().to_vec(),
                    )
                    .job_count()
                })
                .sum::<usize>()
        });
    });
}

criterion_group!(
    benches,
    bench_direct_parallel_map,
    bench_engine_uncached,
    bench_engine_model_sharing,
    bench_engine_cached,
    bench_from_axes_committed_specs
);
criterion_main!(benches);
