//! Microarchitecture study (the Fig. 8 question, §X): which two-qubit
//! gate implementation (AM1/AM2/PM/FM) and chain-reordering method
//! (GS/IS) suit which application?
//!
//! ```text
//! cargo run --release --example microarch_study [app] [capacity]
//! ```

use qccd::Toolflow;
use qccd_circuit::generators::Benchmark;
use qccd_compiler::{CompilerConfig, ReorderMethod};
use qccd_device::presets;
use qccd_physics::{GateImpl, PhysicalModel};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let bench: Benchmark = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "qft".into())
        .parse()?;
    let capacity: u32 = std::env::args()
        .nth(2)
        .map(|s| s.parse())
        .transpose()?
        .unwrap_or(20);
    let circuit = bench.build();
    println!(
        "microarchitecture study: {} on L6({capacity})\n",
        circuit.name()
    );

    println!(
        "{:<10} {:>11} {:>13} {:>9} {:>9}",
        "config", "time (s)", "fidelity", "swaps", "ionswaps"
    );
    for reorder in ReorderMethod::ALL {
        // The executable depends on the reorder method, not the gate
        // implementation: compile once per method, simulate per gate.
        let config = CompilerConfig::with_reorder(reorder);
        let exe = Toolflow::with_config(presets::l6(capacity), PhysicalModel::default(), config)
            .compile(&circuit)?;
        for gate in GateImpl::ALL {
            let tf = Toolflow::with_config(
                presets::l6(capacity),
                PhysicalModel::with_gate(gate),
                config,
            );
            let r = tf.simulate(&exe)?;
            println!(
                "{:<10} {:>11.4} {:>13.3e} {:>9} {:>9}",
                format!("{}-{}", gate.name(), reorder.short()),
                r.total_time_s(),
                r.fidelity(),
                r.counts.swap_gates,
                r.counts.ion_swaps
            );
        }
    }
    println!(
        "\npaper takeaway: the best gate implementation is application- \
         dependent (AM2 for short-range workloads, FM/PM for long-range), \
         and gate-based swapping beats physical ion swapping — so QCCD \
         microarchitecture should be reconfigurable per application."
    );
    Ok(())
}
