//! The pass pipeline: scheduling glue around the four policy seams.
//!
//! A [`Pipeline`] runs the fixed pass structure of §VI around the four
//! policies its [`CompilerConfig`] names (mapping → routing → reorder →
//! eviction, see [`crate::policy`]):
//!
//! 1. **Map** — the mapping policy places every program qubit's ion;
//! 2. **Schedule** — the *earliest ready gate first* walk over the
//!    circuit's dependency DAG;
//! 3. **Route** — for each cross-trap gate the routing policy picks a
//!    route, committed one leg at a time (reorder → split → move →
//!    merge, the Fig. 4 sequence), asking again after every hop so
//!    congestion-aware policies see fresh traffic;
//! 4. **Evict** — when a route's final destination has no free slot
//!    ([`MachineState::free_slots`], read from the chain lengths), the
//!    eviction policy picks a victim and target, and the victim is
//!    shuttled out first.
//!
//! The default configuration reproduces the pre-pipeline monolithic
//! compiler instruction for instruction — the golden snapshots pin
//! this.

use crate::config::{CompilerConfig, EvictionKind, MappingKind, ReorderMethod, RoutingKind};
use crate::error::CompileError;
use crate::executable::{Executable, Inst};
use crate::lowering::lower_two_qubit;
use crate::memo::CompileMemoRef;
use crate::policy::Congestion;
use crate::state::MachineState;
use qccd_circuit::{Circuit, DependencyDag, Operation};
use qccd_device::{Device, RouteCache, TrapId};

/// Per-qubit sorted lists of the operation indices that use it, for
/// next-use lookups ("full knowledge of the program instructions", §VI).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UsesTable {
    per_qubit: Vec<Vec<usize>>,
}

impl UsesTable {
    /// Indexes `circuit`'s operations by qubit.
    pub fn new(circuit: &Circuit) -> Self {
        let mut per_qubit = vec![Vec::new(); circuit.num_qubits() as usize];
        for (i, op) in circuit.iter().enumerate() {
            for q in op.qubits() {
                per_qubit[q.index()].push(i);
            }
        }
        UsesTable { per_qubit }
    }

    /// Index of the next operation after `op` that uses `q`, or
    /// `usize::MAX` if it is never used again.
    pub fn next_use_after(&self, q: u32, op: usize) -> usize {
        let uses = &self.per_qubit[q as usize];
        let pos = uses.partition_point(|&i| i <= op);
        uses.get(pos).copied().unwrap_or(usize::MAX)
    }
}

/// A fully-assembled compiler: one policy per seam plus the mapping
/// buffer, as named by a [`CompilerConfig`].
///
/// # Example
///
/// ```
/// use qccd_circuit::{Circuit, Qubit};
/// use qccd_compiler::{CompilerConfig, Pipeline, RoutingKind};
/// use qccd_device::presets;
///
/// let mut circuit = Circuit::new("bell", 2);
/// circuit.h(Qubit(0));
/// circuit.cx(Qubit(0), Qubit(1));
///
/// let pipeline = Pipeline::from_config(
///     &CompilerConfig::with_routing(RoutingKind::LookaheadCongestion),
/// );
/// let exe = pipeline.compile(&circuit, &presets::l6(20)).unwrap();
/// assert_eq!(exe.counts().two_qubit_gates, 1);
/// ```
pub struct Pipeline {
    config: CompilerConfig,
}

impl Pipeline {
    /// The pipeline of the policies named by `config`.
    pub fn from_config(config: &CompilerConfig) -> Self {
        Pipeline { config: *config }
    }

    /// The placement policy (seam 1).
    pub fn mapping(&self) -> MappingKind {
        self.config.mapping
    }

    /// Compiles `circuit` for `device` through every pass.
    ///
    /// # Errors
    ///
    /// Returns a [`CompileError`] if the circuit is invalid, the device
    /// lacks capacity for the program, or routing is impossible.
    pub fn compile(&self, circuit: &Circuit, device: &Device) -> Result<Executable, CompileError> {
        self.compile_with(circuit, device, None)
    }

    /// Compiles `circuit` for `device`, reusing (and feeding) the
    /// incremental stage memo when one is given: the initial placement
    /// is served from the memo's content-keyed store and the static
    /// route cache is the memo's pre-warmed one. With `memo == None`
    /// this is exactly [`Pipeline::compile`]; with a memo the output is
    /// bit-identical (pinned by the `incremental_memo` differential
    /// suite).
    ///
    /// # Errors
    ///
    /// Returns a [`CompileError`] if the circuit is invalid, the device
    /// lacks capacity for the program, or routing is impossible.
    ///
    /// # Panics
    ///
    /// Debug-asserts that the memo was built for `device`.
    pub fn compile_with<'d>(
        &self,
        circuit: &Circuit,
        device: &'d Device,
        memo: Option<CompileMemoRef<'d>>,
    ) -> Result<Executable, CompileError> {
        circuit.validate()?;
        if let Some(m) = memo {
            debug_assert!(
                std::ptr::eq(m.memo().device(), device),
                "stage memo was built for a different device"
            );
        }
        let CompilerConfig {
            mapping,
            routing,
            reorder,
            eviction,
            buffer_slots,
        } = self.config;
        let placement = match memo {
            Some(m) => m
                .memo()
                .placement(circuit, m.circuit_digest(), mapping, buffer_slots)?,
            None => mapping.place(circuit, device, buffer_slots)?,
        };
        let st = MachineState::new(&placement);
        let owned_routes;
        let routes: &RouteCache<'_> = match memo {
            Some(m) => m.memo().routes(),
            None => {
                owned_routes = RouteCache::new(device);
                &owned_routes
            }
        };
        let mut ctx = Ctx {
            routes,
            congestion: Congestion::new(device),
            routing,
            reorder,
            eviction,
            st,
            out: Vec::new(),
            uses: UsesTable::new(circuit),
            current_op: 0,
        };

        let dag = DependencyDag::new(circuit);
        let mut tracker = dag.ready_tracker();
        while let Some(i) = tracker.pop_earliest() {
            ctx.current_op = i;
            match &circuit.operations()[i] {
                Operation::OneQubit { gate, q } => {
                    let ion = ctx.st.ion_of_qubit(q.0);
                    ctx.out.push(Inst::OneQubit { gate: *gate, ion });
                }
                Operation::Measure { q } => {
                    let ion = ctx.st.ion_of_qubit(q.0);
                    ctx.out.push(Inst::Measure { ion });
                }
                Operation::Barrier { .. } => {
                    // Pure scheduling fence: the executable is already
                    // totally ordered, so nothing is emitted.
                }
                Operation::TwoQubit { gate, a, b } => {
                    ctx.two_qubit_gate(*gate, a.0, b.0)?;
                }
            }
            tracker.complete(i);
        }

        let final_map = ctx.st.qubit_assignment();
        // The stream grew by doubling; the executable keeps only what it
        // holds, not up to twice its instruction bytes, while it is
        // simulated.
        ctx.out.shrink_to_fit();
        Ok(Executable::new(
            circuit.name().to_owned(),
            circuit.num_qubits(),
            placement.chains().to_vec(),
            ctx.out,
            final_map,
        ))
    }
}

/// In-flight compilation state threaded through the scheduling pass.
struct Ctx<'a> {
    routes: &'a RouteCache<'a>,
    congestion: Congestion,
    routing: RoutingKind,
    reorder: ReorderMethod,
    eviction: EvictionKind,
    st: MachineState,
    out: Vec<Inst>,
    uses: UsesTable,
    current_op: usize,
}

impl Ctx<'_> {
    fn two_qubit_gate(
        &mut self,
        gate: qccd_circuit::TwoQubitGate,
        qa: u32,
        qb: u32,
    ) -> Result<(), CompileError> {
        let ta = self
            .st
            .trap_of(self.st.ion_of_qubit(qa))
            // qccd-lint: allow(engine-panic) — the expect message documents a structural invariant; a violation is a bug, not an input error
            .expect("scheduled ions are never in flight");
        let tb = self
            .st
            .trap_of(self.st.ion_of_qubit(qb))
            // qccd-lint: allow(engine-panic) — the expect message documents a structural invariant; a violation is a bug, not an input error
            .expect("scheduled ions are never in flight");
        if ta != tb {
            // Co-locate at the second operand's trap (the paper's compiler
            // shuttles the gate's ion to its partner), evicting a resident
            // when the destination is full.
            self.shuttle_qubit(qa, tb, &[qa, qb])?;
        }
        let ia = self.st.ion_of_qubit(qa);
        let ib = self.st.ion_of_qubit(qb);
        lower_two_qubit(gate, ia, ib, &mut self.out);
        Ok(())
    }

    /// Shuttles the ion carrying qubit `q` to trap `dest`, leg by leg.
    /// `protected` qubits may not be evicted to make room.
    fn shuttle_qubit(
        &mut self,
        q: u32,
        dest: TrapId,
        protected: &[u32],
    ) -> Result<(), CompileError> {
        loop {
            let ion = self.st.ion_of_qubit(q);
            let src = self
                .st
                .trap_of(ion)
                // qccd-lint: allow(engine-panic) — the expect message documents a structural invariant; a violation is a bug, not an input error
                .expect("shuttled ions are between ops, not in flight");
            if src == dest {
                return Ok(());
            }
            let route = self
                .routing
                .next_route(self.routes, &self.congestion, src, dest)?;
            let leg = route.legs()[0].clone();
            if leg.to == dest && self.st.free_slots(self.routes.device(), dest) == 0 {
                let pick = self
                    .eviction
                    .pick(self.routes, &self.st, dest, protected, |q| {
                        self.uses.next_use_after(q, self.current_op)
                    })?;
                self.shuttle_qubit(pick.victim_qubit, pick.target, protected)?;
            }
            // Re-read the carrier: the eviction's own transit reorders may
            // have gate-swapped q onto a different ion in `src`.
            let ion = self.st.ion_of_qubit(q);
            // Reorder so the qubit's ion sits at the departure end.
            self.reorder
                .bring_to_end(&mut self.st, &mut self.out, ion, src, leg.exit_side);
            let ion = self.st.ion_of_qubit(q); // GS may have relabelled
            self.out.push(Inst::Split {
                ion,
                trap: src,
                side: leg.exit_side,
            });
            self.st.remove_end(ion, src, leg.exit_side);
            self.st.insert_end(ion, leg.to, leg.entry_side);
            self.congestion.commit(&leg);
            // The leg moves into its instruction instead of being cloned.
            let (to, side) = (leg.to, leg.entry_side);
            self.out.push(Inst::Move { ion, leg });
            self.out.push(Inst::Merge {
                ion,
                trap: to,
                side,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile;
    use qccd_circuit::{generators, Qubit};
    use qccd_device::presets;

    #[test]
    fn uses_table_matches_linear_scan() {
        let c = generators::random_circuit(12, 80, 0.5, 3);
        let uses = UsesTable::new(&c);
        for q in 0..12u32 {
            for op in 0..c.len() {
                let expected = c
                    .iter()
                    .enumerate()
                    .skip(op + 1)
                    .find(|(_, o)| o.qubits().iter().any(|x| x.0 == q))
                    .map_or(usize::MAX, |(i, _)| i);
                assert_eq!(uses.next_use_after(q, op), expected, "q{q} after op{op}");
            }
        }
    }

    /// The full-destination rule at its boundary on `linear(2, 4, 4)`
    /// with no mapping buffer: T0 holds q0..q3 (full) and T1 holds
    /// q4..q6 (one free slot). The gate's first operand shuttles to its
    /// partner's trap.
    #[test]
    fn destination_is_full_exactly_at_capacity() {
        let d = presets::linear(2, 4, 4);
        let config = CompilerConfig {
            buffer_slots: 0,
            ..CompilerConfig::default()
        };
        // (split traps, merge traps) of compiling one CX after an H on
        // every qubit, which fixes first-use order to index order.
        let shuttles = |a: u32, b: u32| {
            let mut c = Circuit::new("boundary", 7);
            for q in 0..7 {
                c.h(Qubit(q));
            }
            c.cx(Qubit(a), Qubit(b));
            let exe = compile(&c, &d, &config).unwrap();
            assert_eq!(exe.initial_chains()[0].len(), 4);
            assert_eq!(exe.initial_chains()[1].len(), 3);
            let traps = |split: bool| -> Vec<TrapId> {
                exe.instructions()
                    .iter()
                    .filter_map(|inst| match *inst {
                        Inst::Split { trap, .. } if split => Some(trap),
                        Inst::Merge { trap, .. } if !split => Some(trap),
                        _ => None,
                    })
                    .collect()
            };
            let counts = exe.counts();
            assert_eq!(counts.moves, counts.splits);
            (traps(true), traps(false))
        };
        // One free slot: q0 arrives with one split/move/merge, no eviction.
        assert_eq!(
            shuttles(0, 4),
            (vec![TrapId(0)], vec![TrapId(1)]),
            "a trap with one free slot is not full"
        );
        // At capacity: one resident of T0 is evicted to T1 first, then
        // q4 takes its slot.
        assert_eq!(
            shuttles(4, 0),
            (vec![TrapId(0), TrapId(1)], vec![TrapId(1), TrapId(0)]),
            "a trap at capacity evicts exactly once"
        );
    }

    #[test]
    fn pipeline_compile_equals_compile_fn() {
        let c = generators::random_circuit(24, 200, 0.4, 5);
        let d = presets::l6(8);
        let config = CompilerConfig::default();
        let via_fn = compile(&c, &d, &config).unwrap();
        let via_pipeline = Pipeline::from_config(&config).compile(&c, &d).unwrap();
        assert_eq!(via_fn, via_pipeline);
    }

    #[test]
    fn compile_with_memo_matches_cold_compile() {
        use crate::memo::CompileMemo;
        let c = generators::random_circuit(24, 200, 0.4, 5);
        let d = presets::l6(8);
        let memo = CompileMemo::new(&d);
        for config in [
            CompilerConfig::default(),
            CompilerConfig::with_routing(RoutingKind::LookaheadCongestion),
        ] {
            let p = Pipeline::from_config(&config);
            let cold = p.compile(&c, &d).unwrap();
            let memo_ref = CompileMemoRef::for_circuit(&memo, &c);
            // Cold memo pass, then a warm pass that hits every stage.
            assert_eq!(p.compile_with(&c, &d, Some(memo_ref)).unwrap(), cold);
            assert_eq!(p.compile_with(&c, &d, Some(memo_ref)).unwrap(), cold);
        }
        let counters = memo.counters();
        assert_eq!(
            counters.placement_misses, 1,
            "both configs share RR placement"
        );
        assert_eq!(counters.placement_hits, 3);
    }
}
