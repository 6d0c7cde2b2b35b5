//! Differential suite for the compile-stage memo: memoized warm
//! compiles must be byte-identical to cold compiles across the full
//! device × circuit × 16-policy matrix, in memory and via the on-disk
//! stage cache. The engine compiles without a memo; this contract is
//! what lets a memoized replay of an engine run report the same
//! outcomes.

use qccd::engine::StageCache;
use qccd_circuit::{generators, Circuit};
use qccd_compiler::{CompileMemo, CompileMemoRef, CompilerConfig, Pipeline, StagePersist};
use qccd_device::{presets, Device};
use std::sync::Arc;

fn devices() -> Vec<Device> {
    vec![presets::l6(8), presets::g2x3(8)]
}

fn circuits() -> Vec<Circuit> {
    vec![generators::bv(&[true; 8]), generators::qaoa(10, 1, 2)]
}

/// The tentpole contract: for every (device, circuit, policy) cell of
/// the 16-policy matrix, a cold compile, a first memoized compile
/// (filling the stages), and a second memoized compile (serving them)
/// produce byte-identical executables.
#[test]
fn memoized_compiles_are_byte_identical_across_the_policy_matrix() {
    for device in &devices() {
        let memo = CompileMemo::new(device);
        for circuit in &circuits() {
            let memo_ref = CompileMemoRef::for_circuit(&memo, circuit);
            for config in CompilerConfig::policy_grid(2) {
                let pipeline = Pipeline::from_config(&config);
                let cold = pipeline.compile(circuit, device).unwrap();
                let filling = pipeline
                    .compile_with(circuit, device, Some(memo_ref))
                    .unwrap();
                let warm = pipeline
                    .compile_with(circuit, device, Some(memo_ref))
                    .unwrap();
                let cold_bytes = serde_json::to_string(&cold).unwrap();
                for (label, exe) in [("stage-filling", &filling), ("warm", &warm)] {
                    assert_eq!(
                        cold_bytes,
                        serde_json::to_string(exe).unwrap(),
                        "{label} compile diverged for {} on {} with {}",
                        circuit.name(),
                        device.name(),
                        config.policy_label(),
                    );
                }
            }
        }
        let counters = memo.counters();
        assert!(
            counters.placement_hits > 0,
            "the matrix must actually exercise the memo: {counters:?}"
        );
        // With no persistence the route counters count only the route
        // rows warmed at construction: one cold row per trap.
        assert_eq!(
            counters.route_misses,
            device.trap_count() as u64,
            "{counters:?}"
        );
        assert_eq!(counters.route_hits, 0, "{counters:?}");
    }
}

/// Cross-process warm start: compiles through a fresh memo backed by
/// the stage files a previous memo persisted are byte-identical to
/// cold compiles, and serve every placement and route row from disk.
#[test]
fn disk_warmed_compiles_are_byte_identical() {
    let dir = std::env::temp_dir().join(format!("qccd-incr-disk-warm-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let device = presets::l6(8);
    let circuit = generators::bv(&[true; 8]);
    let open_stages = || -> Arc<dyn StagePersist> { Arc::new(StageCache::open(&dir).unwrap()) };
    // A first process fills the stage directory over the policy grid.
    {
        let memo = CompileMemo::with_persist(&device, Some(open_stages()));
        let memo_ref = CompileMemoRef::for_circuit(&memo, &circuit);
        for config in CompilerConfig::policy_grid(2) {
            Pipeline::from_config(&config)
                .compile_with(&circuit, &device, Some(memo_ref))
                .unwrap();
        }
    }

    // A second process: fresh memo, same stage directory.
    let memo = CompileMemo::with_persist(&device, Some(open_stages()));
    let memo_ref = CompileMemoRef::for_circuit(&memo, &circuit);
    assert_eq!(
        memo.counters().route_misses,
        0,
        "every route row preloads from disk"
    );
    for config in CompilerConfig::policy_grid(2) {
        let pipeline = Pipeline::from_config(&config);
        let cold = pipeline.compile(&circuit, &device).unwrap();
        let warm = pipeline
            .compile_with(&circuit, &device, Some(memo_ref))
            .unwrap();
        assert_eq!(
            serde_json::to_string(&cold).unwrap(),
            serde_json::to_string(&warm).unwrap(),
            "disk-warmed compile diverged with {}",
            config.policy_label(),
        );
    }
    assert_eq!(
        memo.counters().placement_misses,
        0,
        "every placement stage loads from the previous run: {:?}",
        memo.counters()
    );
    let _ = std::fs::remove_dir_all(&dir);
}
