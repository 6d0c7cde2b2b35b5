//! The spec-driven engine entry point: every paper artifact and custom
//! study runs through it.
//!
//! ```text
//! # Execute any experiment spec (the paper's studies live in examples/experiments/):
//! cargo run --release -p qccd-bench --bin run -- --spec examples/experiments/fig6.json
//! cargo run --release -p qccd-bench --bin run -- --spec my_study.json \
//!     --cache /tmp/qccd-cache --json out.json
//!
//! # The Table II suite on the example L6 device file and the L6 preset,
//! # emitted as the per-cell `cells` table:
//! cargo run --release -p qccd-bench --bin run -- \
//!     --spec examples/experiments/device_files.json
//! ```
//!
//! `--spec` is required and is the whole study: to sweep other
//! capacities, edit its `capacities` axis. With `--cache dir`,
//! repeated runs load finished jobs from the cache instead of executing
//! them (the engine reports `executed 0 of N jobs` on a full cache hit).

fn main() {
    qccd_bench::run_main()
}
