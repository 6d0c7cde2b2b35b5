//! Toolflow equivalence and cache behavior of the declarative
//! experiment engine.
//!
//! The engine's correctness contract: an expanded job grid must
//! reproduce a serial `Toolflow::run` of every cell, a repeated run
//! against the same cache must execute zero jobs while producing
//! byte-identical artifacts, and the committed
//! `examples/experiments/*.json` presets must drive the engine to the
//! same artifacts the goldens pin.

use proptest::prelude::*;
use qccd::engine::{
    merge_spec, run_spec, run_spec_jobs, Engine, EngineOptions, ExperimentSpec, JobGrid,
    JobOutcome, Projection, ResultCache, Shard, SpecError,
};
use qccd::sweep::policy_grid;
use qccd::Toolflow;
use qccd_circuit::generators;
use qccd_compiler::CompilerConfig;
use qccd_device::presets;
use qccd_physics::PhysicalModel;
use std::path::PathBuf;

fn repo_path(rel: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(rel)
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("qccd-engine-suite-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Every committed experiment spec parses, round-trips, and expands.
#[test]
fn committed_experiment_specs_load_and_expand() {
    let quick = qccd::experiments::QUICK_CAPACITIES;
    for (rel, expected_jobs) in [
        ("examples/experiments/table1.json", 0),
        ("examples/experiments/table2.json", 0),
        // The files pin the full 11-capacity paper sweeps.
        ("examples/experiments/fig6.json", 6 * 11),
        ("examples/experiments/fig7.json", 6 * 22),
        ("examples/experiments/fig8.json", 6 * 11 * 2 * 4),
        ("examples/experiments/ablation_buffer.json", 5),
        ("examples/experiments/ablation_heating.json", 11 * 2),
        ("examples/experiments/ablation_junction.json", 2 * 4),
        ("examples/experiments/ablation_device_size.json", 6),
        ("examples/experiments/ablation_policy.json", 2 * 16),
    ] {
        let spec =
            ExperimentSpec::from_file(repo_path(rel)).unwrap_or_else(|e| panic!("{rel}: {e}"));
        let grid = spec.expand().unwrap_or_else(|e| panic!("{rel}: {e}"));
        assert_eq!(grid.job_count(), expected_jobs, "{rel} job grid size");
        // Round trip: serialization is the canonical pinned form.
        let json = serde_json::to_string_pretty(&spec).unwrap();
        assert_eq!(ExperimentSpec::from_json(&json).unwrap(), spec, "{rel}");
    }
    let _ = quick;
}

/// The committed fig6 spec, capped to the quick capacities, reproduces
/// the committed golden bytes through the generic `run --spec` path.
#[test]
fn quick_capped_fig6_spec_reproduces_the_golden_bytes() {
    let mut spec = ExperimentSpec::from_file(repo_path("examples/experiments/fig6.json")).unwrap();
    spec.capacities = qccd::experiments::QUICK_CAPACITIES.to_vec();
    let run = run_spec(&spec, &Engine::new()).unwrap();
    let produced = serde_json::to_string_pretty(&run.artifact).unwrap();
    let golden = std::fs::read_to_string(repo_path("tests/goldens/fig6_quick.json")).unwrap();
    assert_eq!(produced, golden, "spec-driven fig6 drifted from the golden");
}

/// Cache acceptance: the second run of a spec executes zero jobs and
/// emits byte-identical artifact JSON.
#[test]
fn second_spec_run_is_all_cache_hits_with_identical_bytes() {
    let dir = temp_dir("cache-hit");
    let engine = Engine::with_options(EngineOptions {
        cache_dir: Some(dir.clone()),
        ..EngineOptions::default()
    });
    let mut spec = ExperimentSpec::fig8(&[8]);
    spec.circuits.truncate(2);
    spec.name = "fig8-mini".into();

    let first = run_spec(&spec, &engine).unwrap();
    assert_eq!(first.stats.executed, first.stats.jobs);
    assert_eq!(first.stats.jobs, 2 * 2 * 4);

    let second = run_spec(&spec, &engine).unwrap();
    assert_eq!(second.stats.executed, 0, "second run must execute nothing");
    assert_eq!(second.stats.cached, second.stats.jobs);
    assert_eq!(
        serde_json::to_string_pretty(&first.artifact).unwrap(),
        serde_json::to_string_pretty(&second.artifact).unwrap(),
        "cached artifact bytes drifted"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A projection change alone (same axes) is pure post-processing: the
/// cache carries over across different projections of one grid.
#[test]
fn cache_is_shared_across_projections_of_the_same_grid() {
    let dir = temp_dir("cross-projection");
    let engine = Engine::with_options(EngineOptions {
        cache_dir: Some(dir.clone()),
        ..EngineOptions::default()
    });
    let mut spec = ExperimentSpec::fig6(&[8]);
    spec.circuits.truncate(1);
    let first = run_spec(&spec, &engine).unwrap();
    assert_eq!(first.stats.executed, 1);

    spec.projection = Projection::Cells;
    let second = run_spec(&spec, &engine).unwrap();
    assert_eq!(second.stats.executed, 0);
    assert!(second.artifact.as_table().is_some());
    let _ = std::fs::remove_dir_all(&dir);
}

/// Atomic cache I/O under contention: writer threads repeatedly
/// overwrite the same entry while reader threads poll it. With the
/// temp-file + rename protocol, once the entry has been stored once, a
/// load can never miss (the old in-place `fs::write` exposed truncated
/// files that read as misses) and every load is one of the complete
/// outcomes that was actually stored.
#[test]
fn concurrent_cache_writers_never_yield_corrupt_or_missing_loads() {
    use std::sync::atomic::{AtomicBool, Ordering};

    let dir = temp_dir("stress");
    let cache = ResultCache::open(&dir).unwrap();
    let grid = JobGrid::from_axes(
        vec![generators::bv(&[true; 6])],
        vec![presets::l6(6)],
        vec![CompilerConfig::default()],
        vec![PhysicalModel::default()],
    );
    let id = grid.jobs()[0].id.clone();
    let report = qccd::Toolflow::new(presets::l6(6), PhysicalModel::default())
        .run(&generators::bv(&[true; 6]))
        .expect("fits");
    let ok: JobOutcome = Ok(report);
    let err: JobOutcome = Err("synthetic failure".into());

    const WRITERS: usize = 4;
    const READERS: usize = 4;
    const STORES: usize = 150;
    const LOADS: usize = 150;
    let written = AtomicBool::new(false);
    std::thread::scope(|scope| {
        for w in 0..WRITERS {
            let (cache, id, ok, err, written) = (&cache, &id, &ok, &err, &written);
            scope.spawn(move || {
                for i in 0..STORES {
                    cache.store(id, if (i + w) % 2 == 0 { ok } else { err });
                    written.store(true, Ordering::Release);
                }
            });
        }
        for _ in 0..READERS {
            let (cache, id, ok, err, written) = (&cache, &id, &ok, &err, &written);
            scope.spawn(move || {
                let mut loads = 0;
                while loads < LOADS {
                    if !written.load(Ordering::Acquire) {
                        std::thread::yield_now();
                        continue;
                    }
                    let loaded = cache.load(id);
                    assert!(
                        loaded.as_ref() == Some(ok) || loaded.as_ref() == Some(err),
                        "corrupt or missing load under concurrent writes: {loaded:?}"
                    );
                    loads += 1;
                }
            });
        }
    });

    // The storm settles into exactly one entry file — no temp litter.
    assert_eq!(cache.len(), 1);
    assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 1);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Sharded execution + merge against one shared cache reproduces the
/// unsharded artifact byte for byte, and a premature merge names the
/// missing jobs.
#[test]
fn sharded_spec_runs_plus_merge_match_the_unsharded_artifact() {
    let dir = temp_dir("shard-merge");
    let mut spec = ExperimentSpec::fig6(&[8, 10]);
    spec.circuits.truncate(3);
    spec.name = "fig6-shard-mini".into();
    let unsharded = run_spec(&spec, &Engine::new()).unwrap();
    assert_eq!(unsharded.stats.jobs, 6);

    let cached_engine = Engine::with_options(EngineOptions {
        cache_dir: Some(dir.clone()),
        ..EngineOptions::default()
    });
    // Merging before any shard ran fails, naming every missing job.
    match merge_spec(&spec, &cached_engine).unwrap_err() {
        SpecError::IncompleteCache { missing } => assert_eq!(missing.len(), 6),
        other => panic!("expected IncompleteCache, got {other:?}"),
    }

    let mut executed = 0;
    let mut skipped = 0;
    for k in 0..3 {
        let engine = Engine::with_options(EngineOptions {
            cache_dir: Some(dir.clone()),
            shard: Some(Shard::new(k, 3).unwrap()),
            ..EngineOptions::default()
        });
        let run = run_spec_jobs(&spec, &engine).unwrap();
        assert_eq!(run.stats.cached, 0, "shards own disjoint job sets");
        executed += run.stats.executed;
        skipped += run.stats.skipped;
    }
    assert_eq!(executed, 6, "every job executed exactly once across shards");
    assert_eq!(skipped, 2 * 6, "each shard skipped the other two slices");

    let merged = merge_spec(&spec, &cached_engine).unwrap();
    assert_eq!(merged.stats.executed, 0, "merge only reads the cache");
    assert_eq!(
        serde_json::to_string_pretty(&merged.artifact).unwrap(),
        serde_json::to_string_pretty(&unsharded.artifact).unwrap(),
        "merged artifact drifted from the single-process run"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Shard partitioning: for random grids and M ∈ {2, 3, 5}, the M
    /// shards are pairwise disjoint, their union is exactly `jobs()`,
    /// and the assignment is stable across grid constructions and
    /// unchanged for surviving jobs when the grid is edited.
    #[test]
    fn shard_partition_is_disjoint_exhaustive_and_stable(
        n_circuits in 1usize..4,
        n_devices in 1usize..3,
        n_configs in 1usize..3,
        seed in 0u64..1000,
    ) {
        let circuits: Vec<_> = (0..n_circuits)
            .map(|i| generators::random_circuit(5 + i as u32, 20, 0.5, seed + i as u64))
            .collect();
        let devices: Vec<_> = (0..n_devices).map(|i| presets::l6(6 + 2 * i as u32)).collect();
        let configs: Vec<_> = policy_grid(2).into_iter().take(n_configs).collect();
        let models = vec![PhysicalModel::default()];
        let grid = JobGrid::from_axes(
            circuits.clone(), devices.clone(), configs.clone(), models.clone());

        for m in [2usize, 3, 5] {
            let shards: Vec<Shard> = (0..m).map(|k| Shard::new(k, m).unwrap()).collect();
            for job in grid.jobs() {
                let owners = shards.iter().filter(|s| s.owns(&job.id)).count();
                prop_assert_eq!(owners, 1, "job {} must have exactly one owner", job.id);
                prop_assert!(job.id.shard_of(m) < m);
            }
            // Stable across constructions: the same axes give the same
            // ids, hence the same owners.
            let rebuilt = JobGrid::from_axes(
                circuits.clone(), devices.clone(), configs.clone(), models.clone());
            for (a, b) in grid.jobs().iter().zip(rebuilt.jobs()) {
                prop_assert_eq!(&a.id, &b.id);
                prop_assert_eq!(a.id.shard_of(m), b.id.shard_of(m));
            }
            // Stable under grid edits: the assignment hashes the job id,
            // not its position, so adding an axis entry never moves an
            // existing job to a different shard.
            let mut extended = circuits.clone();
            extended.push(generators::qft(5));
            let edited = JobGrid::from_axes(
                extended, devices.clone(), configs.clone(), models.clone());
            for job in grid.jobs() {
                let owner_before = job.id.shard_of(m);
                let survived = edited
                    .jobs()
                    .iter()
                    .find(|j| j.id == job.id)
                    .expect("original job survives the edit");
                prop_assert_eq!(owner_before, survived.id.shard_of(m));
            }
        }
    }

    /// A spec-shaped grid over (circuit × capacities) reproduces a
    /// serial toolflow run per capacity cell for cell: same successful
    /// reports, same error text for infeasible points.
    #[test]
    fn grid_reproduces_capacity_sweep_cell_for_cell(
        n in 4u32..30,
        ops in 1usize..120,
        seed in 0u64..1000,
        cap_lo in 3u32..9,
        cap_n in 1usize..5,
    ) {
        // A small ascending capacity axis (the vendored proptest has no
        // collection strategies; derive the vector from two scalars).
        let caps: Vec<u32> = (0..cap_n as u32).map(|i| cap_lo + 2 * i).collect();
        let circuit = generators::random_circuit(n, ops, 0.5, seed);
        let config = CompilerConfig::default();
        let model = PhysicalModel::default();

        let grid = JobGrid::from_axes(
            vec![circuit.clone()],
            caps.iter().map(|&c| presets::l6(c)).collect(),
            vec![config],
            vec![model],
        );
        let run = Engine::new().run(&grid);

        for (k, &cap) in caps.iter().enumerate() {
            let serial = Toolflow::with_config(presets::l6(cap), model, config).run(&circuit);
            let engine_outcome = run.results.outcome(&grid, 0, k, 0, 0);
            match (&serial, engine_outcome) {
                (Ok(expected), Ok(got)) => prop_assert_eq!(expected, got),
                (Err(expected), Err(got)) => {
                    prop_assert_eq!(&expected.to_string(), got)
                }
                (expected, got) => prop_assert!(
                    false,
                    "capacity {}: toolflow {:?} vs engine {:?}",
                    cap, expected, got
                ),
            }
        }
    }

    /// A spec-shaped grid over the 16-combination policy axis
    /// reproduces a serial toolflow run per config cell for cell.
    #[test]
    fn grid_reproduces_policy_sweep_cell_for_cell(
        n in 4u32..22,
        ops in 1usize..100,
        seed in 0u64..1000,
    ) {
        let circuit = generators::random_circuit(n, ops, 0.5, seed);
        let device = presets::g2x3(8);
        let model = PhysicalModel::default();
        let configs = policy_grid(2);

        let grid = JobGrid::from_axes(
            vec![circuit.clone()],
            vec![device.clone()],
            configs.clone(),
            vec![model],
        );
        let run = Engine::new().run(&grid);

        for (g, &config) in configs.iter().enumerate() {
            let serial = Toolflow::with_config(device.clone(), model, config).run(&circuit);
            let engine_outcome = run.results.outcome(&grid, 0, 0, g, 0);
            match (&serial, engine_outcome) {
                (Ok(expected), Ok(got)) => prop_assert_eq!(expected, got),
                (Err(expected), Err(got)) => {
                    prop_assert_eq!(&expected.to_string(), got)
                }
                (expected, got) => prop_assert!(
                    false,
                    "combo {}: toolflow {:?} vs engine {:?}",
                    config.policy_label(), expected, got
                ),
            }
        }
    }
}
