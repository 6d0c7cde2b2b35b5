//! Golden snapshots of the paper artifacts' `--json` dumps.
//!
//! The studies behind Tables I–II, Figs. 6–8 and the five ablations
//! are the committed `examples/experiments/` specs, regenerated on
//! every run; these tests pin their JSON serializations to committed
//! files so a silent drift in the heating/fidelity/timing models (or in
//! the compiler) breaks the build instead of the paper claims. Figs.
//! 6–8 are pinned at the quick capacity set `QUICK_CAPACITIES` (the
//! same three design points CI runs as `--caps 14,22,30`); the full
//! sweeps go through identical code paths. The tables and ablations are
//! pinned exactly as their specs describe them.
//!
//! To regenerate after an *intentional* model change:
//!
//! ```text
//! UPDATE_GOLDENS=1 cargo test --test golden_snapshots
//! ```
//!
//! then commit the diff under `tests/goldens/` together with the change
//! that caused it.
//!
//! The snapshots also round-trip through `serde_json::from_str`, so the
//! deserialization path is exercised against every committed artifact.
//!
//! Note: a few model formulas use `powf`/`ln`/`exp`, whose last-bit
//! behavior follows the platform libm; the goldens pin the toolchain's
//! glibc results. If a libm update ever shifts a digit, the failure
//! message names the first drifted line — regenerate and review.

use qccd::engine::{run_spec, Artifact, Engine, ExperimentSpec};
use qccd::experiments::QUICK_CAPACITIES;
use qccd_circuit::generators;
use qccd_device::{presets, Device, DeviceBuilder, Side};
use qccd_physics::PhysicalModel;
use serde::Serialize;
use std::path::{Path, PathBuf};

fn repo_path(rel: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(rel)
}

/// Compares `actual` against the committed golden at `rel`, or rewrites
/// the golden when `UPDATE_GOLDENS` is set.
fn check_golden(rel: &str, actual: &str) {
    let path = repo_path(rel);
    if std::env::var_os("UPDATE_GOLDENS").is_some() {
        std::fs::create_dir_all(path.parent().expect("goldens live in a directory"))
            .expect("golden directory is creatable");
        std::fs::write(&path, actual).expect("golden is writable");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden `{rel}` ({e}); regenerate with \
             `UPDATE_GOLDENS=1 cargo test --test golden_snapshots`"
        )
    });
    if expected != actual {
        let line = expected
            .lines()
            .zip(actual.lines())
            .position(|(e, a)| e != a)
            .map(|i| i + 1)
            .unwrap_or_else(|| expected.lines().count().min(actual.lines().count()) + 1);
        let show = |s: &str| s.lines().nth(line - 1).unwrap_or("<missing>").to_owned();
        panic!(
            "golden `{rel}` is stale (first drift at line {line}):\n  \
             golden: {}\n  actual: {}\n\
             If the change is intentional, regenerate with \
             `UPDATE_GOLDENS=1 cargo test --test golden_snapshots` and commit the diff.",
            show(&expected),
            show(actual),
        );
    }
}

/// Serializes an artifact the exact way `run --json` does, checks it against its golden, and round-trips it through the
/// parser.
fn pin<T>(rel: &str, artifact: &T)
where
    T: Serialize + serde::Deserialize + PartialEq + std::fmt::Debug,
{
    let json = serde_json::to_string_pretty(artifact).expect("artifacts serialize");
    check_golden(rel, &json);
    let reparsed: T = serde_json::from_str(&json)
        .unwrap_or_else(|e| panic!("golden `{rel}` does not round-trip: {e}"));
    assert_eq!(
        &reparsed, artifact,
        "round trip of `{rel}` changed the artifact"
    );
}

/// Loads the committed spec `examples/experiments/<name>.json`.
fn committed(name: &str) -> ExperimentSpec {
    let rel = format!("examples/experiments/{name}.json");
    ExperimentSpec::from_file(repo_path(&rel)).unwrap_or_else(|e| panic!("{rel}: {e}"))
}

/// Runs a spec through a fresh engine and returns its artifact.
fn artifact_of(spec: &ExperimentSpec) -> Artifact {
    run_spec(spec, &Engine::new())
        .unwrap_or_else(|e| panic!("{}: {e}", spec.name))
        .artifact
}

/// The committed figure spec `name` at the quick capacities.
fn quick(name: &str) -> ExperimentSpec {
    let mut spec = committed(name);
    spec.capacities = QUICK_CAPACITIES.to_vec();
    spec
}

#[test]
fn table1_matches_golden() {
    pin(
        "tests/goldens/table1.json",
        &artifact_of(&committed("table1")).into_table(),
    );
}

#[test]
fn table2_matches_golden() {
    pin(
        "tests/goldens/table2.json",
        &artifact_of(&committed("table2")).into_table(),
    );
}

#[test]
fn fig6_quick_matches_golden() {
    pin(
        "tests/goldens/fig6_quick.json",
        &artifact_of(&quick("fig6")).into_figure(),
    );
}

#[test]
fn fig7_quick_matches_golden() {
    pin(
        "tests/goldens/fig7_quick.json",
        &artifact_of(&quick("fig7")).into_figure(),
    );
}

#[test]
fn fig8_quick_matches_golden() {
    pin(
        "tests/goldens/fig8_quick.json",
        &artifact_of(&quick("fig8")).into_figure(),
    );
}

/// Runs the committed spec `examples/experiments/<name>.json` through
/// the engine and pins its figure to `tests/goldens/<name>.json` — the
/// same bytes `run --spec examples/experiments/<name>.json --json` dumps.
fn pin_committed_spec(name: &str) {
    pin(
        &format!("tests/goldens/{name}.json"),
        &artifact_of(&committed(name)).into_figure(),
    );
}

#[test]
fn ablation_buffer_matches_golden() {
    pin_committed_spec("ablation_buffer");
}

#[test]
fn ablation_heating_matches_golden() {
    pin_committed_spec("ablation_heating");
}

#[test]
fn ablation_junction_matches_golden() {
    pin_committed_spec("ablation_junction");
}

#[test]
fn ablation_device_size_matches_golden() {
    pin_committed_spec("ablation_device_size");
}

#[test]
fn ablation_policy_matches_golden() {
    pin_committed_spec("ablation_policy");
}

/// The checked-in example device file describes the paper's L6 device
/// at capacity 20: loading it must reproduce the preset exactly, and
/// the toolflow must behave identically on both.
#[test]
fn example_device_file_loads_and_matches_the_preset() {
    let text = std::fs::read_to_string(repo_path("examples/devices/l6_cap20.json"))
        .expect("example device file exists");
    let loaded = Device::from_json(&text).expect("example device file loads");
    let preset = presets::l6(20);
    assert_eq!(loaded, preset);

    // Same end-to-end behavior: compile + simulate a benchmark on the
    // JSON-loaded device and on the preset-built equivalent.
    let circuit = generators::qaoa(24, 1, 5);
    let from_file = qccd::Toolflow::new(loaded, PhysicalModel::default())
        .run(&circuit)
        .expect("fits");
    let from_preset = qccd::Toolflow::new(preset, PhysicalModel::default())
        .run(&circuit)
        .expect("fits");
    assert_eq!(from_file, from_preset);
}

/// Every example device file is hand-written in the compact
/// `{name, traps, capacity, edges}` shape, the one JSON device input,
/// and the L6 file in that shape loads to the preset.
#[test]
fn example_compact_device_file_matches_the_preset() {
    let dir = repo_path("examples/devices");
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .expect("example device directory exists")
        .map(|entry| entry.expect("readable entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "json"))
        .collect();
    files.sort();
    assert!(
        !files.is_empty(),
        "no example device files in {}",
        dir.display()
    );
    for path in &files {
        let text = std::fs::read_to_string(path).expect("example device file reads");
        let value: serde_json::Value = serde_json::from_str(&text).expect("example is JSON");
        let serde_json::Value::Object(entries) = &value else {
            panic!("{}: not a JSON object", path.display());
        };
        let keys: Vec<&str> = entries.iter().map(|(key, _)| key.as_str()).collect();
        assert!(keys.contains(&"edges"), "{}: no `edges`", path.display());
        for key in &keys {
            assert!(
                ["name", "traps", "capacity", "edges"].contains(key),
                "{}: `{key}` is not a compact device field",
                path.display()
            );
        }
    }
    let text = std::fs::read_to_string(dir.join("l6_cap20.json")).expect("L6 example exists");
    assert_eq!(
        Device::from_json(&text).expect("L6 example loads"),
        presets::l6(20)
    );
}

/// The committed experiment-spec files are the paper's study presets —
/// the declarative form of every paper artifact — and the device-file
/// example. Each file's text is
/// pinned golden-style to the pretty serialization of its own parse
/// (regenerate with `UPDATE_GOLDENS=1`), so a hand edit cannot hide a
/// field the parser drops or defaults, and that form round-trips.
#[test]
fn example_experiment_specs_match_the_presets() {
    for name in [
        "table1",
        "table2",
        "fig6",
        "fig7",
        "fig8",
        "ablation_buffer",
        "ablation_heating",
        "ablation_junction",
        "ablation_device_size",
        "ablation_policy",
        "device_files",
    ] {
        let spec = committed(name);
        let json = serde_json::to_string_pretty(&spec).expect("specs serialize");
        check_golden(&format!("examples/experiments/{name}.json"), &json);
        let reparsed = ExperimentSpec::from_json(&json).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(reparsed, spec, "{name} does not round-trip");
    }
}

/// A topology the presets cannot express (three traps around a Y
/// junction): the second example file loads to the builder's device and
/// runs end to end.
#[test]
fn example_t3_device_file_loads_and_runs() {
    let mut b = DeviceBuilder::new("T3");
    let t0 = b.add_trap(16);
    let t1 = b.add_trap(16);
    let t2 = b.add_trap(16);
    let j = b.add_junction();
    b.connect((t0, Side::Right), j, 2).expect("fresh port");
    b.connect((t1, Side::Right), j, 2).expect("fresh port");
    b.connect((t2, Side::Left), j, 2).expect("fresh port");
    let built = b.build().expect("valid topology");

    let text = std::fs::read_to_string(repo_path("examples/devices/t3_y_junction.json"))
        .expect("example device file exists");
    let loaded = Device::from_json(&text).expect("example device file loads");
    assert_eq!(loaded, built);
    assert_eq!(loaded.junction_count(), 1);

    let report = qccd::Toolflow::new(loaded, PhysicalModel::default())
        .run(&generators::qaoa(24, 1, 3))
        .expect("fits on 48 slots");
    assert!(report.fidelity() > 0.0);
}

/// The figure goldens must themselves be loadable as `Figure`s from
/// disk — the consumer-side contract for anyone plotting the dumps.
#[test]
fn committed_goldens_parse_from_disk() {
    if std::env::var_os("UPDATE_GOLDENS").is_some() {
        return; // files may be mid-rewrite in this mode
    }
    for rel in [
        "tests/goldens/fig6_quick.json",
        "tests/goldens/fig7_quick.json",
        "tests/goldens/fig8_quick.json",
    ] {
        let text = std::fs::read_to_string(repo_path(rel)).expect("golden exists");
        let fig: qccd::experiments::Figure =
            serde_json::from_str(&text).unwrap_or_else(|e| panic!("{rel}: {e}"));
        assert!(!fig.panels.is_empty(), "{rel} has no panels");
        for panel in &fig.panels {
            assert_eq!(
                panel.x.len(),
                QUICK_CAPACITIES.len(),
                "{rel} panel {}",
                panel.id
            );
        }
    }
    for rel in ["tests/goldens/table1.json", "tests/goldens/table2.json"] {
        let text = std::fs::read_to_string(repo_path(rel)).expect("golden exists");
        let table: qccd::experiments::Table =
            serde_json::from_str(&text).unwrap_or_else(|e| panic!("{rel}: {e}"));
        assert!(!table.rows.is_empty(), "{rel} has no rows");
    }
}
