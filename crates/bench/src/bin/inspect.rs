//! Diagnostic tool: per-benchmark, per-capacity breakdown of operation
//! counts, motional energy and error contributions on the L6/FM/GS
//! configuration. Useful for calibrating and debugging the models.
//!
//! ```text
//! cargo run --release -p qccd-bench --bin inspect -- 14 22
//! ```
//!
//! The arguments are trap capacities (default 14–34 in steps of 4).

use qccd::engine::{
    run_spec, CircuitSpec, ConfigSpec, DeviceSpec, Engine, ExperimentSpec, ModelSpec, Projection,
};
use qccd_circuit::generators::Benchmark;
use qccd_compiler::CompilerConfig;

fn usage(message: &str) -> ! {
    eprintln!("error: {message}");
    eprintln!("usage: inspect [capacity ...]   (e.g. `inspect 14 22`)");
    std::process::exit(2);
}

fn main() {
    let caps: Vec<u32> = std::env::args()
        .skip(1)
        .map(|a| {
            a.parse()
                .unwrap_or_else(|_| usage(&format!("capacity `{a}` is not an integer")))
        })
        .collect();
    let caps = if caps.is_empty() {
        vec![14, 18, 22, 26, 30, 34]
    } else {
        caps
    };
    let spec = ExperimentSpec {
        name: "inspect".into(),
        projection: Projection::Cells,
        circuits: Benchmark::ALL
            .iter()
            .map(|&b| CircuitSpec::Benchmark(b))
            .collect(),
        capacities: caps.clone(),
        devices: vec![DeviceSpec::Preset {
            family: "l6".into(),
            capacity: None,
        }],
        configs: vec![ConfigSpec::Config(CompilerConfig::default())],
        models: vec![ModelSpec::Default],
    };
    let run = run_spec(&spec, &Engine::new()).unwrap_or_else(|e| usage(&e.to_string()));

    println!(
        "{:<12}{:>5}{:>9}{:>8}{:>8}{:>8}{:>9}{:>10}{:>10}{:>11}{:>11}{:>10}",
        "app",
        "cap",
        "ms",
        "swaps",
        "splits",
        "moves",
        "peakE",
        "meanMot",
        "meanBg",
        "fidelity",
        "time_s",
        "wait_s"
    );
    for (ci, b) in Benchmark::ALL.iter().enumerate() {
        for (k, &cap) in caps.iter().enumerate() {
            match run.results.outcome(&run.grid, ci, k, 0, 0) {
                Err(e) => println!("{:<12}{:>5}  {e}", b.name(), cap),
                Ok(r) => println!(
                    "{:<12}{:>5}{:>9}{:>8}{:>8}{:>8}{:>9.2}{:>10.2e}{:>10.2e}{:>11.3e}{:>11.4}{:>10.4}",
                    b.name(),
                    cap,
                    r.ms_executions,
                    r.counts.swap_gates,
                    r.counts.splits,
                    r.counts.moves,
                    r.peak_motional_energy,
                    r.mean_ms_motional_error(),
                    r.mean_ms_background_error(),
                    r.fidelity(),
                    r.total_time_s(),
                    r.time.shuttle_wait_us * 1e-6,
                ),
            }
        }
    }
}
