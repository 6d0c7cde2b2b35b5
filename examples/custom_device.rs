//! Building a custom QCCD topology with [`qccd_device::DeviceBuilder`]:
//! a T-shaped three-trap device with one Y junction, checked against its
//! JSON description in `examples/devices/`, plus a comparison against a
//! linear preset of the same total capacity.
//!
//! ```text
//! cargo run --release --example custom_device
//! ```

use qccd::Toolflow;
use qccd_circuit::generators;
use qccd_device::{Device, DeviceBuilder, Side};
use qccd_physics::PhysicalModel;
use std::path::Path;

fn t_device(capacity: u32) -> Result<Device, qccd_device::BuildError> {
    // Three traps around one Y junction:
    //
    //   T0 ──┐
    //        J0 ── T2
    //   T1 ──┘
    let mut b = DeviceBuilder::new("T3");
    let t0 = b.add_trap(capacity);
    let t1 = b.add_trap(capacity);
    let t2 = b.add_trap(capacity);
    let j = b.add_junction();
    b.connect((t0, Side::Right), j, 2)?;
    b.connect((t1, Side::Right), j, 2)?;
    b.connect((t2, Side::Left), j, 2)?;
    b.build()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let device = t_device(16)?;
    println!("custom device: {device}");

    // Devices are plain data: this exact device is checked in as
    // examples/devices/t3_y_junction.json, in the JSON shape
    // `Device::from_json` loads, and an experiment spec can run it
    // through a `{"file": ...}` device entry.
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/devices/t3_y_junction.json");
    let loaded = Device::from_json(&std::fs::read_to_string(&path)?)?;
    assert_eq!(loaded, device);
    println!("examples/devices/t3_y_junction.json loads to the same device");
    for a in device.trap_ids() {
        for b in device.trap_ids() {
            if a < b {
                let route = device.route(a, b)?;
                println!(
                    "  route {a} -> {b}: {} segment units, {} junction crossing(s)",
                    route.total_length_units(),
                    route.junction_count()
                );
            }
        }
    }

    // Run a 40-qubit QAOA instance and compare against a 3-trap linear
    // device with the same capacities.
    let circuit = generators::qaoa(40, 4, 11);
    let linear = qccd_device::presets::linear(3, 16, 4);

    let custom_report = Toolflow::new(device, PhysicalModel::default()).run(&circuit)?;
    let linear_report = Toolflow::new(linear, PhysicalModel::default()).run(&circuit)?;

    println!("\n{:<10} {:>11} {:>13}", "device", "time (s)", "fidelity");
    println!(
        "{:<10} {:>11.4} {:>13.3e}",
        "T3",
        custom_report.total_time_s(),
        custom_report.fidelity()
    );
    println!(
        "{:<10} {:>11.4} {:>13.3e}",
        "L3",
        linear_report.total_time_s(),
        linear_report.fidelity()
    );
    Ok(())
}
