//! Golden snapshots of the paper artifacts' `--json` dumps.
//!
//! The studies behind Tables I–II, Figs. 6–8 and the five ablations
//! are the committed `examples/experiments/` specs, regenerated on
//! every run; these tests pin each one's artifact to
//! `tests/goldens/<spec>.json`, byte for byte as
//! `run --spec examples/experiments/<spec>.json --json` writes it, so a
//! silent drift in the heating/fidelity/timing models (or in the
//! compiler) breaks the build. Figs. 6–8 are pinned over all 11 of the
//! paper's trap capacities, and `tests/paper_claims.rs` checks the
//! paper's findings against those committed figures.
//! `fig8_quick.json` is the full Fig. 8 restricted to
//! `QUICK_CAPACITIES`, derived from the same run; it stays only because
//! the `fig8-cold` benchmark checks its set-up against it.
//!
//! To regenerate after an *intentional* model change:
//!
//! ```text
//! UPDATE_GOLDENS=1 cargo test --test golden_snapshots
//! ```
//!
//! then commit the diff under `tests/goldens/` together with the change
//! that caused it, and add a row with a bumped job-id version to
//! `committed_goldens_move_with_the_job_id_version` in
//! `crates/core/src/engine/grid.rs`, so no result cache serves outcomes
//! from before the move.
//!
//! The snapshots also round-trip through `serde_json::from_str`, so the
//! deserialization path is exercised against every committed artifact.
//!
//! Note: a few model formulas use `powf`/`ln`/`exp`, whose last-bit
//! behavior follows the platform libm; the goldens pin the toolchain's
//! glibc results. If a libm update ever shifts a digit, the failure
//! message names the first drifted line — regenerate and review.

use qccd::engine::{run_spec, Artifact, Engine, ExperimentSpec};
use qccd::experiments::{Figure, Table, QUICK_CAPACITIES};
use qccd_circuit::generators;
use qccd_device::{presets, Device, DeviceBuilder, Side};
use qccd_physics::PhysicalModel;
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

/// Serializes an artifact exactly as `run --json` writes it, checks it
/// against its golden, and parses it back to the same table or figure.
fn pin(rel: &str, artifact: &Artifact) {
    let json = serde_json::to_string_pretty(artifact).expect("artifacts serialize");
    check_golden(rel, &json);
    let round_trips = match artifact {
        Artifact::Table(t) => serde_json::from_str(&json).map(|r: Table| r == *t),
        Artifact::Figure(f) => serde_json::from_str(&json).map(|r: Figure| r == *f),
    };
    assert!(
        round_trips.unwrap_or_else(|e| panic!("golden `{rel}` does not round-trip: {e}")),
        "round trip of `{rel}` changed the artifact"
    );
}

/// Loads the committed spec `examples/experiments/<name>.json`.
fn committed(name: &str) -> ExperimentSpec {
    let rel = format!("examples/experiments/{name}.json");
    ExperimentSpec::from_file(repo_path(&rel)).unwrap_or_else(|e| panic!("{rel}: {e}"))
}

/// Runs the committed spec `examples/experiments/<name>.json` through
/// a fresh engine and pins its artifact to `tests/goldens/<name>.json`.
fn pin_committed_spec(name: &str) -> Artifact {
    let artifact = run_spec(&committed(name), &Engine::new())
        .unwrap_or_else(|e| panic!("{name}: {e}"))
        .artifact;
    pin(&format!("tests/goldens/{name}.json"), &artifact);
    artifact
}

/// Drops every column of `figure` whose capacity is not in `capacities`.
fn restrict(figure: &mut Figure, capacities: &[u32]) {
    for panel in &mut figure.panels {
        let keep: Vec<bool> = panel.x.iter().map(|x| capacities.contains(x)).collect();
        let mut kept = keep.iter();
        panel
            .x
            .retain(|_| *kept.next().expect("one flag per column"));
        for series in &mut panel.series {
            let mut kept = keep.iter();
            series
                .y
                .retain(|_| *kept.next().expect("one flag per column"));
        }
    }
}

#[test]
fn table1_matches_golden() {
    pin_committed_spec("table1");
}

#[test]
fn table2_matches_golden() {
    pin_committed_spec("table2");
}

#[test]
fn fig6_matches_golden() {
    pin_committed_spec("fig6");
}

#[test]
fn fig7_matches_golden() {
    pin_committed_spec("fig7");
}

/// Pins the full Fig. 8 and, from the same run, its quick-capacity
/// columns as `fig8_quick.json`.
#[test]
fn fig8_matches_golden() {
    let mut quick = pin_committed_spec("fig8").into_figure();
    restrict(&mut quick, &QUICK_CAPACITIES);
    pin("tests/goldens/fig8_quick.json", &Artifact::Figure(quick));
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
/// disk — the consumer-side contract for anyone plotting the dumps —
/// with every panel over its committed spec's capacities.
#[test]
fn committed_goldens_parse_from_disk() {
    if std::env::var_os("UPDATE_GOLDENS").is_some() {
        return; // files may be mid-rewrite in this mode
    }
    for (golden, capacities) in [
        ("fig6", committed("fig6").capacities),
        ("fig7", committed("fig7").capacities),
        ("fig8", committed("fig8").capacities),
        ("fig8_quick", QUICK_CAPACITIES.to_vec()),
    ] {
        let rel = format!("tests/goldens/{golden}.json");
        let text = std::fs::read_to_string(repo_path(&rel)).expect("golden exists");
        let fig: Figure = serde_json::from_str(&text).unwrap_or_else(|e| panic!("{rel}: {e}"));
        assert!(!fig.panels.is_empty(), "{rel} has no panels");
        for panel in &fig.panels {
            assert_eq!(panel.x, capacities, "{rel} panel {}", panel.id);
        }
    }
    for rel in ["tests/goldens/table1.json", "tests/goldens/table2.json"] {
        let text = std::fs::read_to_string(repo_path(rel)).expect("golden exists");
        let table: Table = serde_json::from_str(&text).unwrap_or_else(|e| panic!("{rel}: {e}"));
        assert!(!table.rows.is_empty(), "{rel} has no rows");
    }
}
