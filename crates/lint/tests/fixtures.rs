//! Fixture-driven rule tests: every rule is caught red-handed by a
//! committed violating fixture (diagnostic text pinned exactly), and a
//! clean twin pins zero diagnostics.
//!
//! Fixtures live under `tests/fixtures/` — a directory name the
//! workspace walker skips, so the deliberate violations never leak
//! into the live lint pass. Each fixture is linted under a *virtual*
//! workspace path to land in the scope its rule guards.

use std::fs;
use std::path::Path;

use qccd_lint::{crate_name_of, lint_file, lint_sources, SourceFile, RULES};

fn fixture_source(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    fs::read_to_string(&path).expect("fixture readable")
}

fn lint_fixture(name: &str, virtual_path: &str) -> Vec<String> {
    lint_file(virtual_path, &fixture_source(name))
        .into_iter()
        .map(|d| d.render())
        .collect()
}

/// Lints several fixtures as one multi-crate workspace — how the
/// cross-file taint rules (engine-panic across a crate boundary) are
/// exercised.
fn lint_fixtures(pairs: &[(&str, &str)]) -> Vec<String> {
    let files: Vec<SourceFile> = pairs
        .iter()
        .map(|(name, virtual_path)| SourceFile {
            path: (*virtual_path).to_owned(),
            source: fixture_source(name),
            crate_name: crate_name_of(virtual_path),
        })
        .collect();
    lint_sources(&files, &[])
        .diagnostics
        .into_iter()
        .map(|d| d.render())
        .collect()
}

const HASH_MSG: &str = "device/compiler/sim keep dense flat layouts (Vec, FixedBitSet) so \
                        iteration order can never reach an output path";

#[test]
fn hash_iteration_fixture_reintroducing_hashmap_in_sim_fails() {
    // This is the CI-grep-subsumption proof: a HashMap reappearing in
    // crates/sim is a diagnostic.
    assert_eq!(
        lint_fixture("hash_iteration_bad.rs", "crates/sim/src/fixture.rs"),
        vec![
            format!(
                "crates/sim/src/fixture.rs:1:23 [hash-iteration] `HashMap` in a hot-path crate: {HASH_MSG}"
            ),
            format!(
                "crates/sim/src/fixture.rs:3:29 [hash-iteration] `HashMap` in a hot-path crate: {HASH_MSG}"
            ),
            format!(
                "crates/sim/src/fixture.rs:4:22 [hash-iteration] `HashMap` in a hot-path crate: {HASH_MSG}"
            ),
        ]
    );
    // The same file outside the hot crates is not in scope.
    assert_eq!(
        lint_fixture("hash_iteration_bad.rs", "crates/core/src/fixture.rs"),
        Vec::<String>::new()
    );
}

#[test]
fn hash_iteration_clean_fixture_is_quiet() {
    assert_eq!(
        lint_fixture("hash_iteration_clean.rs", "crates/sim/src/fixture.rs"),
        Vec::<String>::new()
    );
}

const AMBIENT_TAIL: &str = "can leak wall-clock/environment state into an output path; thread \
                            inputs through explicitly (allowlisted site: \
                            crates/core/src/engine/cache.rs)";

#[test]
fn ambient_fixture_flags_system_time_and_env() {
    assert_eq!(
        lint_fixture("ambient_bad.rs", "crates/sim/src/fixture.rs"),
        vec![
            format!(
                "crates/sim/src/fixture.rs:2:16 [ambient-nondeterminism] ambient nondeterminism: `SystemTime::now` {AMBIENT_TAIL}"
            ),
            format!(
                "crates/sim/src/fixture.rs:9:5 [ambient-nondeterminism] ambient nondeterminism: `std::env` {AMBIENT_TAIL}"
            ),
        ]
    );
    // The engine-cache allowlist entry and non-library targets are exempt.
    assert_eq!(
        lint_fixture("ambient_bad.rs", "crates/core/src/engine/cache.rs"),
        Vec::<String>::new()
    );
    assert_eq!(
        lint_fixture("ambient_bad.rs", "crates/bench/src/bin/fixture.rs"),
        Vec::<String>::new()
    );
}

#[test]
fn ambient_clean_fixture_is_quiet() {
    assert_eq!(
        lint_fixture("ambient_clean.rs", "crates/sim/src/fixture.rs"),
        Vec::<String>::new()
    );
}

#[test]
fn atomic_write_fixture_flags_raw_fs_write() {
    assert_eq!(
        lint_fixture("atomic_write_bad.rs", "crates/core/src/engine/fixture.rs"),
        vec![
            "crates/core/src/engine/fixture.rs:6:5 [atomic-write] raw `fs::write` in the \
             engine: a concurrent reader can observe a truncated entry — route writes \
             through the temp-file + rename helpers in engine/cache.rs"
                .to_owned(),
        ]
    );
    // The same write outside the engine directory is not in scope.
    assert_eq!(
        lint_fixture("atomic_write_bad.rs", "crates/core/src/fixture.rs"),
        Vec::<String>::new()
    );
}

#[test]
fn atomic_write_clean_fixture_shows_the_allowed_helper_shape() {
    assert_eq!(
        lint_fixture("atomic_write_clean.rs", "crates/core/src/engine/fixture.rs"),
        Vec::<String>::new()
    );
}

#[test]
fn bad_suppression_fixture_flags_bare_and_unknown_allows() {
    // Malformed suppressions do NOT suppress: both HashMaps still fire.
    assert_eq!(
        lint_fixture("bad_suppression_bad.rs", "crates/sim/src/fixture.rs"),
        vec![
            "crates/sim/src/fixture.rs:1:1 [bad-suppression] suppression is missing its \
             mandatory reason: `// qccd-lint: allow(<rule>) — <reason>`"
                .to_owned(),
            format!(
                "crates/sim/src/fixture.rs:2:23 [hash-iteration] `HashMap` in a hot-path crate: {HASH_MSG}"
            ),
            "crates/sim/src/fixture.rs:4:1 [bad-suppression] suppression names unknown \
             rule `no-such-rule`"
                .to_owned(),
            format!(
                "crates/sim/src/fixture.rs:5:25 [hash-iteration] `HashMap` in a hot-path crate: {HASH_MSG}"
            ),
        ]
    );
}

#[test]
fn bad_suppression_clean_fixture_shows_both_allow_placements() {
    // Standalone comment governs the next code line; trailing comment
    // governs its own line. Both allows carry reasons and are used.
    assert_eq!(
        lint_fixture("bad_suppression_clean.rs", "crates/sim/src/fixture.rs"),
        Vec::<String>::new()
    );
}

#[test]
fn unused_suppression_fixture_flags_stale_allow() {
    assert_eq!(
        lint_fixture("unused_suppression_bad.rs", "crates/sim/src/fixture.rs"),
        vec![
            "crates/sim/src/fixture.rs:1:1 [unused-suppression] suppression for \
             `hash-iteration` matched no diagnostic on line 2; remove it"
                .to_owned(),
        ]
    );
}

#[test]
fn unused_suppression_clean_fixture_is_quiet_when_allow_is_used() {
    assert_eq!(
        lint_fixture("unused_suppression_clean.rs", "crates/sim/src/fixture.rs"),
        Vec::<String>::new()
    );
}

#[test]
fn golden_path_purity_fixture_pins_the_taint_trace() {
    assert_eq!(
        lint_fixture(
            "golden_path_purity_bad.rs",
            "crates/core/src/engine/fixture.rs"
        ),
        vec![
            "crates/core/src/engine/fixture.rs:12:5 [golden-path-purity] `println!` on \
             the golden path: artifact sink reaches it via \
             qccd::engine::fixture::CsvSink::emit → qccd::engine::fixture::render_row; \
             emit paths must stay pure — no prints or ambient state may interleave with \
             artifact bytes"
                .to_owned(),
        ]
    );
}

#[test]
fn golden_path_purity_clean_fixture_permits_prints_off_the_sink_path() {
    assert_eq!(
        lint_fixture(
            "golden_path_purity_clean.rs",
            "crates/core/src/engine/fixture.rs"
        ),
        Vec::<String>::new()
    );
}

#[test]
fn sort_stability_fixture_pins_the_dataflow_trace() {
    assert_eq!(
        lint_fixture("sort_stability_bad.rs", "crates/sim/src/fixture.rs"),
        vec![
            "crates/sim/src/fixture.rs:9:12 [sort-stability] `.sort_unstable_by()` feeds \
             an artifact sink via qccd_sim::fixture::rows → \
             qccd_sim::fixture::canonical_float; ties are platform-dependent exactly \
             where ordering becomes output bytes — use a stable sort with a total key"
                .to_owned(),
        ]
    );
}

#[test]
fn sort_stability_clean_fixture_accepts_stable_total_key_sorts() {
    assert_eq!(
        lint_fixture("sort_stability_clean.rs", "crates/sim/src/fixture.rs"),
        Vec::<String>::new()
    );
}

#[test]
fn engine_panic_fixture_escalates_across_the_crate_boundary() {
    // The diagnostic carries the cross-crate taint trace from the
    // engine entry point to the panicking helper.
    assert_eq!(
        lint_fixtures(&[
            ("engine_panic_entry.rs", "crates/core/src/engine/fixture.rs"),
            ("engine_panic_bad.rs", "crates/compiler/src/fixture.rs"),
        ]),
        vec![
            "crates/compiler/src/fixture.rs:4:10 [engine-panic] `.expect()` is reachable \
             from the engine via qccd::engine::fixture::run_jobs → \
             qccd_compiler::fixture::collect_slot; a panic on an engine thread aborts \
             the whole sweep — propagate the error"
                .to_owned(),
        ]
    );
    // Off the engine's reach the same helper is not in scope.
    assert_eq!(
        lint_fixture("engine_panic_bad.rs", "crates/compiler/src/fixture.rs"),
        Vec::<String>::new()
    );
}

#[test]
fn engine_panic_clean_fixture_propagates_and_is_quiet() {
    assert_eq!(
        lint_fixtures(&[
            ("engine_panic_entry.rs", "crates/core/src/engine/fixture.rs"),
            ("engine_panic_clean.rs", "crates/compiler/src/fixture.rs"),
        ]),
        Vec::<String>::new()
    );
}

#[test]
fn rule_registry_is_complete_and_unique() {
    let ids: Vec<&str> = RULES.iter().map(|r| r.id).collect();
    assert_eq!(
        ids,
        [
            "hash-iteration",
            "ambient-nondeterminism",
            "atomic-write",
            "bad-suppression",
            "unused-suppression",
            "golden-path-purity",
            "sort-stability",
            "engine-panic",
        ]
    );
    for r in RULES {
        assert!(!r.summary.is_empty(), "rule {} has no summary", r.id);
    }
}
