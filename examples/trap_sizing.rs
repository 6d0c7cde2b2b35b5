//! Trap-sizing study (the Fig. 6 question, §IX-A): how does per-trap
//! capacity affect runtime and reliability?
//!
//! ```text
//! cargo run --release --example trap_sizing [app]
//! ```
//!
//! Sweeps capacities 14–34 on the linear L6 device for one benchmark
//! (default: supremacy) and prints the capacity/runtime/fidelity/heating
//! series the paper plots.

use qccd::engine::{
    run_spec, CircuitSpec, ConfigSpec, DeviceSpec, Engine, ExperimentSpec, ModelSpec, Projection,
};
use qccd_circuit::generators::Benchmark;
use qccd_compiler::CompilerConfig;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let bench: Benchmark = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "supremacy".into())
        .parse()?;
    // One benchmark on L6 at every even capacity 14–34, default
    // compiler and physical model: the Fig. 6 grid for a single app.
    let spec = ExperimentSpec {
        name: "trap-sizing".into(),
        projection: Projection::Cells,
        circuits: vec![CircuitSpec::Benchmark(bench)],
        capacities: (14..=34).step_by(2).collect(),
        devices: vec![DeviceSpec::Preset {
            family: "l6".into(),
            capacity: None,
        }],
        configs: vec![ConfigSpec::Config(CompilerConfig::default())],
        models: vec![ModelSpec::Default],
    };
    let run = run_spec(&spec, &Engine::new())?;
    let circuit = &run.grid.circuits()[0];
    println!(
        "trap sizing study: {} ({} qubits) on L6, FM gates, GS reordering\n",
        circuit.name(),
        circuit.num_qubits()
    );

    println!(
        "{:>9} {:>11} {:>13} {:>13} {:>9}",
        "capacity", "time (s)", "fidelity", "peak n̄", "shuttles"
    );
    for (k, capacity) in spec.capacities.iter().enumerate() {
        match run.results.outcome(&run.grid, 0, k, 0, 0) {
            Ok(r) => println!(
                "{:>9} {:>11.4} {:>13.4e} {:>13.3} {:>9}",
                capacity,
                r.total_time_s(),
                r.fidelity(),
                r.peak_motional_energy,
                r.counts.splits
            ),
            Err(e) => println!("{capacity:>9}  infeasible: {e}"),
        }
    }
    println!(
        "\npaper takeaway: a 15–25 ion sweet spot balances communication \
         (dominates small traps) against heating hot spots and laser-beam \
         instability (dominate large traps)."
    );
    Ok(())
}
