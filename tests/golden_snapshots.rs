//! Golden snapshots of the paper artifacts' `--json` dumps.
//!
//! The studies behind Tables I–II, Figs. 6–8 and the five ablations
//! are regenerated on every run; these tests pin their JSON
//! serializations to committed files so a silent drift in the
//! heating/fidelity/timing models (or in the compiler) breaks the build
//! instead of the paper claims. Figs. 6–8 are pinned at the `--quick`
//! capacity set (the same three design points the CI smoke run uses);
//! the full sweeps go through identical code paths. The ablations are
//! pinned exactly as their committed `examples/experiments/` specs
//! describe them.
//!
//! To regenerate after an *intentional* model change:
//!
//! ```text
//! UPDATE_GOLDENS=1 cargo test --test golden_snapshots
//! ```
//!
//! then commit the diff under `tests/goldens/` (and
//! `examples/devices/`) together with the change that caused it.
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

/// Serializes an artifact the exact way the harness bins' `--json` flag
/// does, checks it against its golden, and round-trips it through the
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

/// Runs a spec through a fresh engine and returns its artifact.
fn artifact_of(spec: &ExperimentSpec) -> Artifact {
    run_spec(spec, &Engine::new())
        .unwrap_or_else(|e| panic!("{}: {e}", spec.name))
        .artifact
}

#[test]
fn table1_matches_golden() {
    pin(
        "tests/goldens/table1.json",
        &artifact_of(&ExperimentSpec::table1()).into_table(),
    );
}

#[test]
fn table2_matches_golden() {
    pin(
        "tests/goldens/table2.json",
        &artifact_of(&ExperimentSpec::table2()).into_table(),
    );
}

#[test]
fn fig6_quick_matches_golden() {
    pin(
        "tests/goldens/fig6_quick.json",
        &artifact_of(&ExperimentSpec::fig6(&QUICK_CAPACITIES)).into_figure(),
    );
}

#[test]
fn fig7_quick_matches_golden() {
    pin(
        "tests/goldens/fig7_quick.json",
        &artifact_of(&ExperimentSpec::fig7(&QUICK_CAPACITIES)).into_figure(),
    );
}

#[test]
fn fig8_quick_matches_golden() {
    pin(
        "tests/goldens/fig8_quick.json",
        &artifact_of(&ExperimentSpec::fig8(&QUICK_CAPACITIES)).into_figure(),
    );
}

/// Runs the committed spec `examples/experiments/<name>.json` through
/// the engine and pins its figure to `tests/goldens/<name>.json` — the
/// same bytes `run --spec examples/experiments/<name>.json --json` dumps.
fn pin_committed_spec(name: &str) {
    let rel = format!("examples/experiments/{name}.json");
    let spec = ExperimentSpec::from_file(repo_path(&rel)).unwrap_or_else(|e| panic!("{rel}: {e}"));
    pin(
        &format!("tests/goldens/{name}.json"),
        &artifact_of(&spec).into_figure(),
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

/// The checked-in example device file is the serialization of the
/// paper's L6 device at capacity 20; loading it must reproduce the
/// preset exactly, and the toolflow must behave identically on both.
#[test]
fn example_device_file_loads_and_matches_the_preset() {
    let rel = "examples/devices/l6_cap20.json";
    let preset = presets::l6(20);
    check_golden(
        rel,
        &serde_json::to_string_pretty(&preset).expect("serializes"),
    );

    let text = std::fs::read_to_string(repo_path(rel)).expect("example device file exists");
    let loaded: Device = serde_json::from_str(&text).expect("example device file parses");
    assert_eq!(loaded, preset);
    let validated = Device::from_json(&text).expect("example device file validates");
    assert_eq!(validated, preset);

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

/// A topology the presets cannot express (three traps around a Y
/// junction): pinned as a second example file and loadable end to end.
#[test]
fn example_t3_device_file_loads_and_runs() {
    let rel = "examples/devices/t3_y_junction.json";
    let mut b = DeviceBuilder::new("T3");
    let t0 = b.add_trap(16);
    let t1 = b.add_trap(16);
    let t2 = b.add_trap(16);
    let j = b.add_junction();
    b.connect((t0, Side::Right), j, 2).expect("fresh port");
    b.connect((t1, Side::Right), j, 2).expect("fresh port");
    b.connect((t2, Side::Left), j, 2).expect("fresh port");
    let built = b.build().expect("valid topology");
    check_golden(
        rel,
        &serde_json::to_string_pretty(&built).expect("serializes"),
    );

    let text = std::fs::read_to_string(repo_path(rel)).expect("example device file exists");
    let loaded = Device::from_json(&text).expect("example device file validates");
    assert_eq!(loaded, built);
    assert_eq!(loaded.junction_count(), 1);

    let report = qccd::Toolflow::new(loaded, PhysicalModel::default())
        .run(&generators::qaoa(24, 1, 3))
        .expect("fits on 48 slots");
    assert!(report.fidelity() > 0.0);
}

/// The committed experiment-spec files are the serializations of the
/// preset `ExperimentSpec` constructors — the declarative form of every
/// paper artifact. Pinned golden-style (regenerate with
/// `UPDATE_GOLDENS=1`), and each must round-trip through the parser to
/// the exact preset.
#[test]
fn example_experiment_specs_match_the_presets() {
    use qccd::experiments::PAPER_CAPACITIES;
    let base = qccd_compiler::CompilerConfig::default();
    for (rel, spec) in [
        ("examples/experiments/table1.json", ExperimentSpec::table1()),
        ("examples/experiments/table2.json", ExperimentSpec::table2()),
        (
            "examples/experiments/fig6.json",
            ExperimentSpec::fig6(&PAPER_CAPACITIES),
        ),
        (
            "examples/experiments/fig7.json",
            ExperimentSpec::fig7(&PAPER_CAPACITIES),
        ),
        (
            "examples/experiments/fig8.json",
            ExperimentSpec::fig8(&PAPER_CAPACITIES),
        ),
        (
            "examples/experiments/ablation_buffer.json",
            ExperimentSpec::ablation_buffer(&base),
        ),
        (
            "examples/experiments/ablation_heating.json",
            ExperimentSpec::ablation_heating(&PAPER_CAPACITIES, &base),
        ),
        (
            "examples/experiments/ablation_junction.json",
            ExperimentSpec::ablation_junction(&base),
        ),
        (
            "examples/experiments/ablation_device_size.json",
            ExperimentSpec::ablation_device_size(&base),
        ),
        (
            "examples/experiments/ablation_policy.json",
            ExperimentSpec::ablation_policy(base.buffer_slots),
        ),
    ] {
        check_golden(
            rel,
            &serde_json::to_string_pretty(&spec).expect("specs serialize"),
        );
        let text = std::fs::read_to_string(repo_path(rel)).expect("spec file exists");
        let loaded = ExperimentSpec::from_json(&text).unwrap_or_else(|e| panic!("{rel}: {e}"));
        assert_eq!(loaded, spec, "{rel} does not round-trip to its preset");
    }
}

/// The hand-written compact device example loads to the same device as
/// the full-shape example (and the preset both serialize).
#[test]
fn example_compact_device_file_matches_the_preset() {
    let text = std::fs::read_to_string(repo_path("examples/devices/l6_cap20_compact.json"))
        .expect("compact example exists");
    let loaded = Device::from_json(&text).expect("compact example loads");
    assert_eq!(loaded, presets::l6(20));
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
