//! Runs the beyond-the-paper ablation studies (`qccd::experiments::ablations`): mapping
//! buffer, heating-model variant, junction-cost sensitivity, device
//! size and the compiler policy-pipeline matrix. Accepts the usual
//! `--caps`/`--json`/`--cache` flags where applicable, plus
//! `--mapping`/`--routing`/`--reorder`/`--eviction` to select the
//! compiler policies the A1–A4 studies run under (A5 always sweeps the
//! full policy grid). A two-line wrapper over the spec-driven engine
//! (the `ExperimentSpec::ablation_*` presets).

fn main() {
    qccd_bench::artifact_main("ablations")
}
