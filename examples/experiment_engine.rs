//! The declarative experiment engine, end to end: author a spec in
//! code (the JSON form is identical — see `examples/experiments/`),
//! run it twice against a result cache, and read the projected
//! artifact.
//!
//! ```text
//! cargo run --release --example experiment_engine
//! ```

use qccd::engine::{
    run_spec, CircuitSpec, ConfigSpec, DeviceSpec, Engine, EngineOptions, ExperimentSpec,
    ModelSpec, Projection,
};
use qccd_circuit::generators::Benchmark;

fn main() {
    // A custom study no preset covers: how do the 16 compiler-policy
    // pipelines fare for BV on both topology families at one capacity?
    let spec = ExperimentSpec {
        name: "bv-policy-matrix".into(),
        projection: Projection::Cells,
        circuits: vec![CircuitSpec::Benchmark(Benchmark::Bv)],
        capacities: vec![],
        devices: vec![
            DeviceSpec::Preset {
                family: "l6".into(),
                capacity: Some(17),
            },
            DeviceSpec::Preset {
                family: "g2x3".into(),
                capacity: Some(17),
            },
        ],
        configs: vec![ConfigSpec::PolicyGrid { buffer_slots: 2 }],
        models: vec![ModelSpec::Default],
    };
    // The JSON form is exactly what `run --spec` consumes:
    println!(
        "spec:\n{}\n",
        serde_json::to_string_pretty(&spec).expect("specs serialize")
    );

    let cache = std::env::temp_dir().join("qccd-example-engine-cache");
    let engine = Engine::with_options(EngineOptions {
        cache_dir: Some(cache.clone()),
        verbose: true,
    });

    let first = run_spec(&spec, &engine).expect("spec expands");
    println!(
        "first run:  {} (32 policy-combo cells)",
        first.stats.summary()
    );
    let second = run_spec(&spec, &engine).expect("spec expands");
    println!("second run: {} — all cache hits", second.stats.summary());
    assert_eq!(second.stats.executed, 0);

    // The Cells projection is a plain table: one row per grid cell.
    let table = second.artifact.into_table();
    println!("\n{table}");

    let _ = std::fs::remove_dir_all(&cache);
}
