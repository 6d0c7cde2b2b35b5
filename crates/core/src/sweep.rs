//! Parallel design-space exploration helpers.
//!
//! The paper's studies sweep trap capacity (Fig. 6), topology (Fig. 7) and
//! microarchitecture (Fig. 8), and `CompilerConfig::policy_grid` extends
//! the microarchitecture axis to every combination of the compiler's
//! policies (mapping × routing × reorder × eviction). Sweep points are
//! independent, so the experiment engine runs them on all available cores
//! through [`parallel_map`]: scoped threads with a work-stealing index — no
//! external dependency needed.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Applies `f` to every item, in parallel, preserving input order.
///
/// The closure may fail; errors are returned per item.
///
/// Work distribution is dynamic (an atomic work index, so expensive
/// sweep points don't stall a statically partitioned worker), but each
/// worker accumulates `(index, result)` pairs in its own buffer; the
/// buffers are stitched back into input order after the scope joins.
/// No lock is ever taken on the result path. Empty input spawns no
/// thread, so a run with nothing to execute (a fully cached grid) pays
/// no spawn.
pub fn parallel_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let next = AtomicUsize::new(0);
    let workers = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
        .min(n);

    let mut results: Vec<Option<R>> = (0..n).map(|_| None).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut own: Vec<(usize, R)> = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            return own;
                        }
                        own.push((i, f(&items[i])));
                    }
                })
            })
            .collect();
        for handle in handles {
            // Re-raise a worker panic with its original payload (a bare
            // `expect` would discard it), so the failing sweep point's
            // message reaches the user instead of a generic one.
            let own = match handle.join() {
                Ok(own) => own,
                Err(payload) => std::panic::resume_unwind(payload),
            };
            for (i, r) in own {
                results[i] = Some(r);
            }
        }
    });

    results
        .into_iter()
        // qccd-lint: allow(engine-panic) — the worker loop visits every index exactly once
        .map(|r| r.expect("every index visited"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::toolflow::{Toolflow, ToolflowError};
    use qccd_circuit::{generators, Circuit};
    use qccd_compiler::CompilerConfig;
    use qccd_device::presets;
    use qccd_physics::PhysicalModel;
    use qccd_sim::SimReport;

    /// A capacity sweep of `circuit` on L6: one design point per
    /// capacity, evaluated in parallel.
    fn sweep_l6_capacities(
        circuit: &Circuit,
        caps: &[u32],
    ) -> Vec<Result<SimReport, ToolflowError>> {
        parallel_map(caps, |&cap| {
            Toolflow::new(presets::l6(cap), PhysicalModel::default()).run(circuit)
        })
    }

    #[test]
    fn parallel_map_preserves_order() {
        let items: Vec<u64> = (0..64).collect();
        let out = parallel_map(&items, |&x| x * 2);
        assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_map_preserves_order_under_skewed_durations() {
        // Early items take much longer than late ones, so workers finish
        // out of submission order; the stitched output must still be in
        // input order with every index present exactly once.
        let items: Vec<u64> = (0..128).collect();
        let out = parallel_map(&items, |&x| {
            if x < 4 {
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            x * 3
        });
        assert_eq!(out, items.iter().map(|x| x * 3).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_map_passes_errors_through_per_item() {
        let items: Vec<u32> = (0..50).collect();
        let out = parallel_map(&items, |&x| {
            if x % 7 == 0 {
                Err(format!("bad {x}"))
            } else {
                Ok(x + 1)
            }
        });
        for (i, r) in out.iter().enumerate() {
            if i % 7 == 0 {
                assert_eq!(r.as_ref().unwrap_err(), &format!("bad {i}"));
            } else {
                assert_eq!(r.as_ref().unwrap(), &(i as u32 + 1));
            }
        }
    }

    #[test]
    fn parallel_map_on_empty_input() {
        let items: Vec<u32> = vec![];
        assert!(parallel_map(&items, |&x| x).is_empty());
    }

    #[test]
    fn worker_panics_propagate_with_their_original_payload() {
        let items: Vec<u32> = (0..16).collect();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            parallel_map(&items, |&x| {
                if x == 3 {
                    panic!("sweep point {x} exploded");
                }
                x
            })
        }));
        let payload = result.expect_err("the panic must propagate");
        let message = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_owned()))
            .unwrap_or_default();
        assert!(
            message.contains("sweep point 3 exploded"),
            "original payload lost, got: {message:?}"
        );
    }

    #[test]
    fn capacity_sweep_reports_per_point() {
        let c = generators::bv(&[true; 20]);
        let points = sweep_l6_capacities(&c, &[6, 10, 14]);
        assert_eq!(points.len(), 3);
        // 21 qubits on L6(6)=36 slots fits; all should succeed.
        for (cap, p) in [6, 10, 14].iter().zip(&points) {
            assert!(p.is_ok(), "capacity {cap} failed");
        }
    }

    #[test]
    fn capacity_sweep_flags_infeasible_points() {
        let c = generators::bv(&[true; 40]); // 41 qubits
        let points = sweep_l6_capacities(&c, &[4, 8]);
        assert!(points[0].is_err()); // 24 slots < 41
        assert!(points[1].is_ok()); // 48 slots
    }

    #[test]
    fn policy_sweep_evaluates_each_config() {
        let c = generators::qaoa(16, 1, 3);
        let grid = CompilerConfig::policy_grid(2);
        let points = parallel_map(&grid, |&config| {
            Toolflow::with_config(presets::g2x3(8), PhysicalModel::default(), config).run(&c)
        });
        assert_eq!(points.len(), 16);
        for (config, p) in grid.iter().zip(&points) {
            let r = p.as_ref().unwrap_or_else(|e| {
                panic!("{} failed: {e}", config.policy_label());
            });
            assert_eq!(r.counts.two_qubit_gates, c.two_qubit_gate_count());
        }
    }

    #[test]
    fn sweep_is_deterministic_despite_parallelism() {
        let c = generators::qaoa(20, 1, 5);
        let run = || {
            sweep_l6_capacities(&c, &[8, 10, 12])
                .into_iter()
                .map(|p| p.map(|r| (r.total_time_us, r.log_fidelity)))
                .collect::<Vec<_>>()
        };
        let a = run();
        let b = run();
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.as_ref().ok(), y.as_ref().ok());
        }
    }
}
