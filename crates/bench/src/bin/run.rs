//! The spec-driven engine entry point: every paper artifact and custom
//! study runs through it.
//!
//! ```text
//! # Execute any experiment spec (the paper's studies live in examples/experiments/):
//! cargo run --release -p qccd-bench --bin run -- --spec examples/experiments/fig6.json
//! cargo run --release -p qccd-bench --bin run -- --spec my_study.json \
//!     --quick --cache /tmp/qccd-cache --json out.json
//!
//! # Without --spec: the Table II suite end to end on a JSON-loaded
//! # device, emitted as the per-cell `cells` table:
//! cargo run --release -p qccd-bench --bin run -- \
//!     --device examples/devices/l6_cap20.json \
//!     [--config cfg.json] [--model model.json] [--json cells.json] \
//!     [--mapping round-robin|usage-weighted] \
//!     [--routing greedy-shortest|lookahead-congestion] \
//!     [--reorder gs|is] [--eviction furthest-next-use|chain-end]
//! ```
//!
//! `--quick`/`--caps` override a spec's capacities axis, `--device`/
//! `--config`/`--model` its axes, and the policy flags its explicit
//! configs. With `--cache dir`, repeated runs load finished jobs from
//! the cache instead of executing them (the engine reports
//! `executed 0 of N jobs` on a full cache hit).

fn main() {
    qccd_bench::run_main()
}
