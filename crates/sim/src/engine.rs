//! The resource-timeline simulation engine.

use crate::error::SimError;
use crate::report::{ErrorTotals, SimReport, TimeBreakdown};
use crate::spans::Timeline;
use qccd_compiler::{
    Executable, Inst, LegId, LegTable, LegView, MachineState, OpCounts, Placement,
};
use qccd_device::{Device, IonId, JunctionKind, TrapId};
use qccd_physics::{HeatingModel, PhysicalModel};

/// Simulates `exe` on `device` under `model`, producing timing, fidelity
/// and device-level metrics.
///
/// # Errors
///
/// Returns a [`SimError`] when one of these checks fails. The chain
/// table is checked before the first instruction; every other check runs
/// as its instruction is stepped, so the first failing instruction in
/// stream order decides the error, whatever later instructions hold.
/// Within one instruction the checks apply in this order:
///
/// * the initial chain table has one chain per device trap, names each
///   ion below `num_ions` exactly once and no other ion, and holds no
///   chain longer than its trap's capacity;
/// * the instruction names only known ions, a two-ion instruction names
///   two distinct ions, a split or merge names a known trap, and a move
///   names a leg of the executable's leg table that crosses only known
///   segments and junctions;
/// * gates, ion swaps and measurements act on trapped ions, two-ion
///   operations on ions of one trap, ion swaps on chain neighbours;
/// * a split removes the end ion of the named trap on the named side,
///   and moves and merges act on ions in flight;
/// * an ion in flight is where its split or its last move left it: a
///   move's leg starts at that trap, and a merge puts it into that trap.
///
/// Not yet checked: trap capacity at a merge (whether an ion may pass
/// through a full trap is an open modelling question), and whether a
/// leg's segments and junctions form a real device path between its
/// end traps.
/// Each [`SimError`] variant has a negative-path unit test pinning the
/// condition that raises it.
///
/// # Cost
///
/// One scan over the instruction stream, with per-instruction work only:
/// the checks above, then the timing. Everything that depends on just
/// the model and a chain length is tabulated once per run, for every
/// length up to the ion count: split/merge heating
/// [`HeatingModel::k1_for`](qccd_physics::HeatingModel::k1_for), the beam
/// instability [`FidelityModel::beam_instability`](qccd_physics::FidelityModel::beam_instability),
/// and the log-fidelity terms of one-qubit gates and measurements. The
/// loop also tallies the report's operation counts, and records every
/// interval boundary on one timeline kept in time order, so the closing
/// compute/communication split is a single walk with no sort. Each
/// instruction starts at the latest ready time of its ion and its
/// resources, and each ready time is held with its place on the
/// timeline, so placing an end walks forward only past the boundaries
/// already recorded inside its interval. Consecutive gates on a trap
/// extend one open gate run, whose end is placed only when the trap's
/// next split, ion swap or merge, or the end of the stream, needs it.
/// Communication intervals are never merged.
pub fn simulate(
    exe: &Executable,
    device: &Device,
    model: &PhysicalModel,
) -> Result<SimReport, SimError> {
    let mut engine = Engine::new(exe, device, model)?;
    for inst in exe.instructions() {
        engine.step(inst)?;
    }
    Ok(engine.finish(exe))
}

/// A ready time and its node on the timeline.
#[derive(Debug, Clone, Copy)]
struct Ready {
    t: f64,
    node: u32,
}

impl Ready {
    /// Time zero, when every resource is first ready.
    const ZERO: Ready = Ready {
        t: 0.0,
        node: Timeline::ZERO,
    };

    /// The later of `self` and `other`: the value [`f64::max`] picks,
    /// with its node.
    fn max(self, other: Ready) -> Ready {
        if other.t > self.t {
            other
        } else {
            self
        }
    }
}

/// When a trap is next free.
///
/// Every ion in a trap is ready no later than its trap: a merge and
/// every trap operation set both, a split takes the ion out, and a
/// trap's ready time never falls (no model duration is negative). So
/// trap-local instructions (gates, ion swaps, splits and measurements)
/// start exactly when their trap is ready, and only ions in flight keep
/// a ready time of their own.
#[derive(Debug, Clone, Copy)]
struct TrapClock {
    /// When the trap's last instruction ends.
    ready: f64,
    /// The timeline node of `ready`, or of the open gate run's start.
    node: u32,
    /// Whether the trap's last instructions were gates whose run has no
    /// end node yet.
    gate_run: bool,
}

/// An ion between its split and its merge.
#[derive(Debug, Clone, Copy)]
struct Flight {
    ready: Ready,
    /// Motional energy carried since the split.
    energy: f64,
    /// The trap the ion was split from or last moved to.
    at: TrapId,
}

struct Engine<'a> {
    device: &'a Device,
    model: &'a PhysicalModel,
    /// The executable's legs, which its moves index.
    legs: &'a LegTable,
    st: MachineState,
    /// Per ion; read only while the ion is in flight.
    flights: Vec<Flight>,
    traps: Vec<TrapClock>,
    seg_ready: Vec<Ready>,
    junc_ready: Vec<Ready>,
    timeline: Timeline,
    trap_energy: Vec<f64>,
    /// Peak per-mode occupation n̄ over every chain so far.
    peak_nbar: f64,
    /// `k1_for(n)` per chain length `n`.
    k1_by_len: Vec<f64>,
    /// `beam_instability(n)` per chain length `n` (NaN below 2 ions,
    /// where no MS gate can run).
    beam_by_len: Vec<f64>,
    /// [`log_term`] of the fixed one-qubit gate and measurement errors.
    one_qubit_log: f64,
    measure_log: f64,
    counts: OpCounts,
    log_fidelity: f64,
    errors: ErrorTotals,
    ms_executions: usize,
    ms_background_sum: f64,
    ms_motional_sum: f64,
    shuttle_wait: f64,
    makespan: f64,
}

impl<'a> Engine<'a> {
    /// An engine holding `exe`'s initial placement at time zero, once
    /// its chain table fits `device`: one chain per trap, placing every
    /// ion exactly once, none longer than its trap's capacity.
    fn new(
        exe: &'a Executable,
        device: &'a Device,
        model: &'a PhysicalModel,
    ) -> Result<Self, SimError> {
        let chains = exe.initial_chains();
        if chains.len() != device.trap_count() {
            return Err(SimError::ChainTableMismatch {
                chains: chains.len(),
                traps: device.trap_count(),
            });
        }
        let n = exe.num_ions();
        let mut seen = vec![false; n as usize];
        for &ion in chains.iter().flatten() {
            if ion.0 >= n || seen[ion.index()] {
                return Err(SimError::UnknownIon(ion));
            }
            seen[ion.index()] = true;
        }
        if let Some(ion) = seen.iter().position(|&placed| !placed) {
            return Err(SimError::UnplacedIon(IonId(ion as u32)));
        }
        for (t, chain) in chains.iter().enumerate() {
            let trap = TrapId(t as u32);
            let capacity = device.trap(trap).capacity();
            if chain.len() > capacity as usize {
                return Err(SimError::OverCapacity {
                    trap,
                    ions: chain.len(),
                    capacity,
                });
            }
        }
        let placement = Placement::from_chains(chains.to_vec());
        // Chains hold distinct ions, so none is longer than the ion count.
        let lengths = 0..=n;
        let idle = TrapClock {
            ready: 0.0,
            node: Timeline::ZERO,
            gate_run: false,
        };
        let grounded = Flight {
            ready: Ready::ZERO,
            energy: 0.0,
            at: TrapId(0),
        };
        Ok(Engine {
            device,
            model,
            legs: exe.legs(),
            st: MachineState::new(&placement),
            flights: vec![grounded; n as usize],
            traps: vec![idle; device.trap_count()],
            seg_ready: vec![Ready::ZERO; device.segment_count()],
            junc_ready: vec![Ready::ZERO; device.junction_count()],
            // At most one node per instruction: a trap operation's or a
            // move's end, or a gate run's end.
            timeline: Timeline::new(exe.instructions().len()),
            trap_energy: vec![0.0; device.trap_count()],
            peak_nbar: 0.0,
            k1_by_len: lengths.clone().map(|n| model.heating.k1_for(n)).collect(),
            beam_by_len: lengths
                .map(|n| {
                    if n >= 2 {
                        model.fidelity.beam_instability(n)
                    } else {
                        f64::NAN
                    }
                })
                .collect(),
            one_qubit_log: log_term(model.fidelity.one_qubit_error),
            measure_log: log_term(model.fidelity.measure_error),
            counts: OpCounts::default(),
            log_fidelity: 0.0,
            errors: ErrorTotals::default(),
            ms_executions: 0,
            ms_background_sum: 0.0,
            ms_motional_sum: 0.0,
            shuttle_wait: 0.0,
            makespan: 0.0,
        })
    }

    /// The report for `exe` once every instruction has been stepped.
    fn finish(mut self, exe: &Executable) -> SimReport {
        for trap in 0..self.traps.len() {
            self.trap_ready(trap);
        }
        let (compute_us, communication_us) = self.timeline.time_split();
        SimReport {
            name: exe.name().to_owned(),
            total_time_us: self.makespan,
            log_fidelity: self.log_fidelity,
            counts: self.counts,
            peak_motional_energy: self.peak_nbar,
            ms_executions: self.ms_executions,
            ms_background_error_sum: self.ms_background_sum,
            ms_motional_error_sum: self.ms_motional_sum,
            errors: self.errors,
            time: TimeBreakdown {
                compute_us,
                communication_us,
                shuttle_wait_us: self.shuttle_wait,
            },
        }
    }

    fn bump_trap_energy(&mut self, trap: TrapId, energy: f64) {
        self.trap_energy[trap.index()] = energy;
        let nbar = energy / self.st.chain_len(trap).max(1) as f64;
        if nbar > self.peak_nbar {
            self.peak_nbar = nbar;
        }
    }

    fn located_trap(&self, ion: IonId) -> Result<TrapId, SimError> {
        self.st.trap_of(ion).ok_or(SimError::IonInFlight(ion))
    }

    /// Per-mode motional occupation n̄ of the chain in `trap`: the
    /// accumulated energy spread over the chain's motional modes (one per
    /// ion), n̄ = E/N. This is the n̄ entering eq. (1) and the Fig. 6f
    /// metric.
    fn nbar(&self, trap: TrapId) -> f64 {
        let n = self.st.chain_len(trap).max(1) as f64;
        self.trap_energy[trap.index()] / n
    }

    /// Executes one MS interaction (shared by program gates and reorder
    /// swaps); returns its duration and total error.
    fn ms_interaction(&mut self, a: IonId, b: IonId, trap: TrapId) -> (f64, f64) {
        let distance = self.st.distance(a, b).max(1);
        let chain_len = self.st.chain_len(trap);
        let tau = self.model.two_qubit_time(distance, chain_len as u32);
        let breakdown =
            self.model
                .fidelity
                .two_qubit_error(tau, self.beam_by_len[chain_len], self.nbar(trap));
        self.ms_executions += 1;
        self.ms_background_sum += breakdown.background;
        self.ms_motional_sum += breakdown.motional;
        self.log_fidelity += log_term(breakdown.total());
        (tau, breakdown.total())
    }

    /// The id checks of one instruction, run before anything indexes by
    /// its ids: known ions, two distinct ions for a two-ion instruction,
    /// and known traps. A move's leg is checked by [`Engine::leg`].
    fn check_ids(&self, inst: &Inst) -> Result<(), SimError> {
        for ion in inst.ions() {
            if ion.index() >= self.flights.len() {
                return Err(SimError::UnknownIon(ion));
            }
        }
        match inst {
            Inst::Ms { a, b } | Inst::SwapGate { a, b } | Inst::IonSwap { a, b } if a == b => {
                return Err(SimError::SameIon(*a));
            }
            Inst::Split { trap, .. } | Inst::Merge { trap, .. }
                if trap.index() >= self.device.trap_count() =>
            {
                return Err(SimError::UnknownTrap(*trap));
            }
            _ => {}
        }
        Ok(())
    }

    /// Leg `id` of the executable's table, once it is known and crosses
    /// only segments and junctions the device has.
    fn leg(&self, id: LegId) -> Result<LegView<'a>, SimError> {
        let leg = self.legs.get(id).ok_or(SimError::UnknownLeg(id))?;
        for s in leg.segments {
            if s.index() >= self.device.segment_count() {
                return Err(SimError::UnknownSegment(*s));
            }
        }
        for j in leg.junctions {
            if j.index() >= self.device.junction_count() {
                return Err(SimError::UnknownJunction(*j));
            }
        }
        Ok(leg)
    }

    /// The in-flight record of `ion`, once it is in flight.
    fn flight(&self, ion: IonId) -> Result<Flight, SimError> {
        match self.st.trap_of(ion) {
            Some(_) => Err(SimError::IonNotInFlight(ion)),
            None => Ok(self.flights[ion.index()]),
        }
    }

    /// When trap `trap` is ready, with its node: the end of its open gate
    /// run, if it has one, is placed first.
    fn trap_ready(&mut self, trap: usize) -> Ready {
        let clock = &mut self.traps[trap];
        if clock.gate_run {
            clock.node = self.timeline.close_gate(clock.node, clock.ready);
            clock.gate_run = false;
        }
        Ready {
            t: clock.ready,
            node: clock.node,
        }
    }

    /// Runs a gate of duration `tau` on `trap` once the trap is ready,
    /// extending the trap's open gate run or opening one.
    fn gate(&mut self, trap: TrapId, tau: f64) {
        let clock = &mut self.traps[trap.index()];
        if !clock.gate_run {
            self.timeline.open_gate(clock.node);
            clock.gate_run = true;
        }
        clock.ready += tau;
        self.makespan = self.makespan.max(clock.ready);
    }

    /// Records a communication interval of duration `tau` from `start`
    /// on `trap`, which is then ready at its end, and returns the end
    /// with its node.
    fn trap_comm(&mut self, trap: TrapId, start: Ready, tau: f64) -> Ready {
        let end = start.t + tau;
        let node = self.timeline.comm(start.node, end);
        self.traps[trap.index()] = TrapClock {
            ready: end,
            node,
            gate_run: false,
        };
        self.makespan = self.makespan.max(end);
        Ready { t: end, node }
    }

    fn step(&mut self, inst: &Inst) -> Result<(), SimError> {
        self.check_ids(inst)?;
        match inst {
            Inst::OneQubit { ion, .. } => {
                let trap = self.located_trap(*ion)?;
                self.log_fidelity += self.one_qubit_log;
                self.errors.one_qubit += self.model.fidelity.one_qubit_error;
                self.counts.one_qubit_gates += 1;
                self.gate(trap, self.model.one_qubit_time);
            }
            Inst::Ms { a, b } => {
                let trap = self.located_trap(*a)?;
                if self.st.trap_of(*b) != Some(trap) {
                    return Err(SimError::NotColocated(*a, *b));
                }
                let (tau, err) = self.ms_interaction(*a, *b, trap);
                self.errors.two_qubit += err;
                self.counts.two_qubit_gates += 1;
                self.gate(trap, tau);
            }
            Inst::SwapGate { a, b } => {
                let trap = self.located_trap(*a)?;
                if self.st.trap_of(*b) != Some(trap) {
                    return Err(SimError::NotColocated(*a, *b));
                }
                // 3 MS gates plus the 4 single-qubit corrections (§IV-C).
                let mut tau = 0.0;
                let mut swap_err = 0.0;
                for _ in 0..3 {
                    let (t, e) = self.ms_interaction(*a, *b, trap);
                    tau += t;
                    swap_err += e;
                }
                for _ in 0..qccd_compiler::lowering::WRAPPERS_PER_CX {
                    tau += self.model.one_qubit_time;
                    self.log_fidelity += self.one_qubit_log;
                    swap_err += self.model.fidelity.one_qubit_error;
                }
                self.errors.swap += swap_err;
                self.counts.swap_gates += 1;
                self.st.swap_states(*a, *b);
                self.gate(trap, tau);
            }
            Inst::IonSwap { a, b } => {
                let trap = self.located_trap(*a)?;
                if self.st.trap_of(*b) != Some(trap) {
                    return Err(SimError::NotColocated(*a, *b));
                }
                if self.st.distance(*a, *b) != 1 {
                    return Err(SimError::NotAdjacent(*a, *b));
                }
                let n = self.st.chain_len(trap);
                let heating = &self.model.heating;
                let (tau, new_energy) = if n > 2 {
                    // Split the pair off, rotate it, merge it back.
                    let k1_n = self.k1_by_len[n];
                    let (pair, rest) =
                        HeatingModel::split(self.trap_energy[trap.index()], 2, n as u32 - 2, k1_n);
                    let pair = pair + heating.k1; // rotation agitation
                    (
                        self.model.shuttle.ion_swap_time(),
                        HeatingModel::merge(pair, rest, k1_n),
                    )
                } else {
                    (
                        self.model.shuttle.ion_rotation,
                        self.trap_energy[trap.index()] + heating.k1,
                    )
                };
                let start = self.trap_ready(trap.index());
                self.trap_comm(trap, start, tau);
                self.bump_trap_energy(trap, new_energy);
                self.st.swap_positions(*a, *b);
                self.counts.ion_swaps += 1;
            }
            Inst::Split { ion, trap, side } => {
                if self.st.trap_of(*ion) != Some(*trap) {
                    return Err(SimError::SplitNotAtEnd(*ion, *trap));
                }
                if self.st.end_ion(*trap, *side) != Some(*ion) {
                    return Err(SimError::SplitNotAtEnd(*ion, *trap));
                }
                let n = self.st.chain_len(*trap);
                let heating = &self.model.heating;
                let (e_ion, e_rest) = if n > 1 {
                    let k1_n = self.k1_by_len[n];
                    HeatingModel::split(self.trap_energy[trap.index()], 1, n as u32 - 1, k1_n)
                } else {
                    // Splitting the last ion empties the trap.
                    (self.trap_energy[trap.index()] + heating.k1, 0.0)
                };
                self.st.remove_end(*ion, *trap, *side);
                self.bump_trap_energy(*trap, e_rest);
                let start = self.trap_ready(trap.index());
                let end = self.trap_comm(*trap, start, self.model.shuttle.split);
                self.flights[ion.index()] = Flight {
                    ready: end,
                    energy: e_ion,
                    at: *trap,
                };
                self.counts.splits += 1;
            }
            Inst::Move { ion, leg } => {
                let leg = self.leg(*leg)?;
                let flight = self.flight(*ion)?;
                if leg.from != flight.at {
                    return Err(SimError::MoveFromElsewhere {
                        ion: *ion,
                        from: leg.from,
                        at: flight.at,
                    });
                }
                let tau = self.leg_time(&leg);
                let path = self.path_ready(&leg);
                let start = flight.ready.max(path);
                self.shuttle_wait += (path.t - flight.ready.t).max(0.0);
                let t = start.t + tau;
                let end = Ready {
                    t,
                    node: self.timeline.comm(start.node, t),
                };
                self.set_path_ready(&leg, end);
                self.flights[ion.index()] = Flight {
                    ready: end,
                    energy: flight.energy
                        + self
                            .model
                            .heating
                            .move_energy(leg.length_units, leg.junctions.len() as u32),
                    at: leg.to,
                };
                self.counts.moves += 1;
                self.counts.junction_crossings += leg.junctions.len();
                self.makespan = self.makespan.max(t);
            }
            Inst::Merge { ion, trap, side } => {
                let flight = self.flight(*ion)?;
                if flight.at != *trap {
                    return Err(SimError::MergeElsewhere {
                        ion: *ion,
                        trap: *trap,
                        at: flight.at,
                    });
                }
                let start = flight.ready.max(self.trap_ready(trap.index()));
                let n_result = self.st.chain_len(*trap) + 1;
                let merged = HeatingModel::merge(
                    self.trap_energy[trap.index()],
                    flight.energy,
                    self.k1_by_len[n_result],
                );
                self.st.insert_end(*ion, *trap, *side);
                self.bump_trap_energy(*trap, merged);
                self.trap_comm(*trap, start, self.model.shuttle.merge);
                self.counts.merges += 1;
            }
            Inst::Measure { ion } => {
                let trap = self.located_trap(*ion)?;
                self.log_fidelity += self.measure_log;
                self.errors.measure += self.model.fidelity.measure_error;
                self.counts.measurements += 1;
                self.gate(trap, self.model.measure_time);
            }
        }
        Ok(())
    }

    /// Transit time of one shuttle leg: its segments plus a Y- or
    /// X-junction crossing for every junction on it.
    fn leg_time(&self, leg: &LegView<'_>) -> f64 {
        let (mut y, mut x) = (0u32, 0u32);
        for j in leg.junctions {
            match self.device.junction(*j).kind() {
                JunctionKind::Y => y += 1,
                JunctionKind::X => x += 1,
            }
        }
        self.model.shuttle.move_time(leg.length_units, y, x)
    }

    /// When every segment and junction on `leg` is free, with its node.
    fn path_ready(&self, leg: &LegView<'_>) -> Ready {
        let mut r = Ready::ZERO;
        for s in leg.segments {
            r = r.max(self.seg_ready[s.index()]);
        }
        for j in leg.junctions {
            r = r.max(self.junc_ready[j.index()]);
        }
        r
    }

    fn set_path_ready(&mut self, leg: &LegView<'_>, end: Ready) {
        for s in leg.segments {
            self.seg_ready[s.index()] = end;
        }
        for j in leg.junctions {
            self.junc_ready[j.index()] = end;
        }
    }
}

/// The log-fidelity term `ln(1 - err)` of one operation's error
/// probability: clamped to `[0, 1]`, `-inf` on certain failure, and the
/// `ln_1p` form, accurate for small errors, otherwise. The error takes a
/// round trip through `1 - err` first; the goldens pin its rounding.
fn log_term(err: f64) -> f64 {
    let err = err.clamp(0.0, 1.0);
    if err >= 1.0 {
        f64::NEG_INFINITY
    } else {
        (-(1.0 - (1.0 - err))).ln_1p()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spans::reference;
    use proptest::prelude::*;
    use qccd_circuit::{generators, Circuit, Qubit};
    use qccd_compiler::{compile, CompilerConfig, ReorderMethod};
    use qccd_device::presets;
    use qccd_device::{JunctionId, Leg, SegmentId, Side};
    use qccd_physics::{GateImpl, ShuttleTimes};

    fn run(
        circuit: &Circuit,
        device: &Device,
        model: &PhysicalModel,
        config: &CompilerConfig,
    ) -> SimReport {
        let exe = compile(circuit, device, config).expect("compiles");
        simulate(&exe, device, model).expect("simulates")
    }

    #[test]
    fn bell_pair_timing_is_exact() {
        // h(5) + ry(5) + ms(100, FM floor) + rx/rx/ry(15) + 2 serial
        // measures (200) = 325 µs.
        let mut c = Circuit::new("bell", 2);
        c.h(Qubit(0));
        c.cx(Qubit(0), Qubit(1));
        c.measure_all();
        let r = run(
            &c,
            &presets::l6(20),
            &PhysicalModel::default(),
            &CompilerConfig::default(),
        );
        assert!(
            (r.total_time_us - 325.0).abs() < 1e-9,
            "got {}",
            r.total_time_us
        );
        assert!(r.fidelity() > 0.99);
        assert_eq!(r.peak_motional_energy, 0.0);
    }

    #[test]
    fn parallel_traps_overlap_in_time() {
        // Two independent gate pairs in different traps: makespan should be
        // far below the serial sum.
        let mut c = Circuit::new("par", 40);
        for i in 0..40 {
            c.h(Qubit(i));
        }
        let r = run(
            &c,
            &presets::l6(12),
            &PhysicalModel::default(),
            &CompilerConfig::default(),
        );
        // 40 H gates of 5 µs over 4 occupied traps: ≥ 10 gates serial per
        // trap → exactly 50 µs if evenly spread.
        assert!(r.total_time_us < 40.0 * 5.0);
        assert!(r.total_time_us >= 50.0 - 1e-9);
    }

    #[test]
    fn cross_trap_gate_heats_chains() {
        let mut c = Circuit::new("x", 40);
        for i in 0..40 {
            c.h(Qubit(i));
        }
        c.cx(Qubit(0), Qubit(39));
        let r = run(
            &c,
            &presets::l6(12),
            &PhysicalModel::default(),
            &CompilerConfig::default(),
        );
        assert!(r.peak_motional_energy > 0.0);
        assert!(r.counts.splits > 0);
        assert!(r.time.communication_us > 0.0);
    }

    #[test]
    fn is_reordering_heats_more_than_gs() {
        let mut c = Circuit::new("x", 40);
        for i in 0..40 {
            c.h(Qubit(i));
        }
        c.cx(Qubit(39), Qubit(0));
        let d = presets::l6(12);
        let m = PhysicalModel::default();
        let gs = run(
            &c,
            &d,
            &m,
            &CompilerConfig::with_reorder(ReorderMethod::GateSwap),
        );
        let is = run(
            &c,
            &d,
            &m,
            &CompilerConfig::with_reorder(ReorderMethod::IonSwap),
        );
        assert!(
            is.peak_motional_energy > gs.peak_motional_energy,
            "IS {} vs GS {}",
            is.peak_motional_energy,
            gs.peak_motional_energy
        );
    }

    #[test]
    fn congestion_produces_wait_time() {
        // Many long-range gates force shuttles through the same linear
        // segments; some must queue.
        let c = generators::random_circuit(40, 120, 0.8, 9);
        let r = run(
            &c,
            &presets::l6(12),
            &PhysicalModel::default(),
            &CompilerConfig::default(),
        );
        assert!(r.time.shuttle_wait_us >= 0.0);
        // With 96 two-qubit gates on 4+ traps there is essentially always
        // contention; allow zero but record the metric exists.
        assert!(r.counts.moves > 0);
    }

    #[test]
    fn faster_gate_impl_reduces_makespan_for_short_range() {
        let c = generators::qaoa(30, 2, 3);
        let d = presets::l6(10);
        let cfg = CompilerConfig::default();
        let am2 = run(&c, &d, &PhysicalModel::with_gate(GateImpl::Am2), &cfg);
        let pm = run(&c, &d, &PhysicalModel::with_gate(GateImpl::Pm), &cfg);
        assert!(am2.total_time_us < pm.total_time_us);
    }

    #[test]
    fn fidelity_decomposition_matches_log_fidelity() {
        let c = generators::random_circuit(20, 100, 0.3, 4);
        let r = run(
            &c,
            &presets::l6(10),
            &PhysicalModel::default(),
            &CompilerConfig::default(),
        );
        // Σ per-class errors should approximate −log fidelity for small
        // errors.
        let total_err = r.errors.total();
        assert!(
            (total_err + r.log_fidelity).abs() < 0.05 * total_err.max(1e-9) + 1e-6,
            "errors {total_err} vs -logF {}",
            -r.log_fidelity
        );
    }

    #[test]
    fn compute_plus_comm_bounded_by_makespan() {
        let c = generators::random_circuit(30, 200, 0.5, 5);
        let r = run(
            &c,
            &presets::g2x3(10),
            &PhysicalModel::default(),
            &CompilerConfig::default(),
        );
        assert!(r.time.compute_us + r.time.communication_us <= r.total_time_us + 1e-6);
        assert!(r.time.compute_us > 0.0);
    }

    #[test]
    fn simulation_is_deterministic() {
        let c = generators::random_circuit(24, 150, 0.4, 6);
        let d = presets::g2x3(10);
        let exe = compile(&c, &d, &CompilerConfig::default()).unwrap();
        let a = simulate(&exe, &d, &PhysicalModel::default()).unwrap();
        let b = simulate(&exe, &d, &PhysicalModel::default()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn malformed_split_is_rejected() {
        // Hand-build an executable splitting a mid-chain ion.
        let exe = Executable::new(
            "bad".into(),
            3,
            vec![
                vec![IonId(0), IonId(1), IonId(2)],
                vec![],
                vec![],
                vec![],
                vec![],
                vec![],
            ],
            vec![Inst::Split {
                ion: IonId(1),
                trap: TrapId(0),
                side: Side::Right,
            }],
            LegTable::new(),
            vec![0, 1, 2],
        );
        let d = presets::l6(10);
        let err = simulate(&exe, &d, &PhysicalModel::default()).unwrap_err();
        assert!(matches!(err, SimError::SplitNotAtEnd(..)));
    }

    #[test]
    fn gate_on_separated_ions_is_rejected() {
        let exe = Executable::new(
            "bad".into(),
            2,
            vec![
                vec![IonId(0)],
                vec![IonId(1)],
                vec![],
                vec![],
                vec![],
                vec![],
            ],
            vec![Inst::Ms {
                a: IonId(0),
                b: IonId(1),
            }],
            LegTable::new(),
            vec![0, 1],
        );
        let d = presets::l6(10);
        let err = simulate(&exe, &d, &PhysicalModel::default()).unwrap_err();
        assert_eq!(err, SimError::NotColocated(IonId(0), IonId(1)));
    }

    #[test]
    fn mismatched_device_is_rejected() {
        let mut c = Circuit::new("t", 4);
        c.cx(Qubit(0), Qubit(3));
        let d6 = presets::l6(10);
        let exe = compile(&c, &d6, &CompilerConfig::default()).unwrap();
        let d2 = presets::linear(2, 10, 4);
        assert!(simulate(&exe, &d2, &PhysicalModel::default()).is_err());
    }

    // ------------------------------------------------------------------
    // Negative paths: every SimError variant has a pinned raising
    // condition.
    // ------------------------------------------------------------------

    /// A hand-built (usually malformed) executable on `num_ions` ions.
    fn exe_on(num_ions: u32, chains: Vec<Vec<IonId>>, insts: Vec<Inst>) -> Executable {
        exe_with_legs(num_ions, chains, insts, LegTable::new())
    }

    /// [`exe_on`] with moves that index `legs`.
    fn exe_with_legs(
        num_ions: u32,
        chains: Vec<Vec<IonId>>,
        insts: Vec<Inst>,
        legs: LegTable,
    ) -> Executable {
        let final_map = (0..num_ions).collect();
        Executable::new("bad".into(), num_ions, chains, insts, legs, final_map)
    }

    /// The first leg of L6's route from `from` to `to`.
    fn l6_leg(from: u32, to: u32) -> Leg {
        presets::l6(10)
            .route(TrapId(from), TrapId(to))
            .unwrap()
            .legs()[0]
            .clone()
    }

    /// An owned copy of a table leg.
    fn owned(leg: LegView<'_>) -> Leg {
        Leg {
            from: leg.from,
            exit_side: leg.exit_side,
            to: leg.to,
            entry_side: leg.entry_side,
            segments: leg.segments.to_vec(),
            junctions: leg.junctions.to_vec(),
            length_units: leg.length_units,
        }
    }

    /// All ions in trap 0 of a 6-trap device.
    fn chains_in_trap0(num_ions: u32) -> Vec<Vec<IonId>> {
        let mut chains = vec![vec![]; 6];
        chains[0] = (0..num_ions).map(IonId).collect();
        chains
    }

    /// The simulator must reject `exe` on L6 with exactly `want`.
    fn assert_rejects(exe: &Executable, want: SimError) {
        let d = presets::l6(10);
        assert_eq!(
            simulate(exe, &d, &PhysicalModel::default()).unwrap_err(),
            want
        );
    }

    #[test]
    fn unknown_trap_when_chain_table_mismatches_device() {
        // 4 chains, then none, against the 6-trap L6 device.
        let exe = exe_on(1, vec![vec![IonId(0)], vec![], vec![], vec![]], vec![]);
        assert_rejects(
            &exe,
            SimError::ChainTableMismatch {
                chains: 4,
                traps: 6,
            },
        );
        let exe = exe_on(0, vec![], vec![]);
        assert_rejects(
            &exe,
            SimError::ChainTableMismatch {
                chains: 0,
                traps: 6,
            },
        );
    }

    #[test]
    fn unknown_trap_when_split_names_a_missing_trap() {
        let exe = exe_on(
            1,
            chains_in_trap0(1),
            vec![Inst::Split {
                ion: IonId(0),
                trap: TrapId(99),
                side: Side::Right,
            }],
        );
        assert_rejects(&exe, SimError::UnknownTrap(TrapId(99)));
    }

    /// Ion 0 split off trap 0, then moved along `leg`.
    fn move_along(leg: Leg) -> Executable {
        let mut legs = LegTable::new();
        let leg = legs.push(&leg);
        exe_with_legs(
            1,
            chains_in_trap0(1),
            vec![
                Inst::Split {
                    ion: IonId(0),
                    trap: TrapId(0),
                    side: Side::Right,
                },
                Inst::Move { ion: IonId(0), leg },
            ],
            legs,
        )
    }

    #[test]
    fn unknown_segment_when_a_leg_crosses_a_missing_segment() {
        // The leg still ends at a real trap, which the error must not
        // name instead of the segment.
        let mut leg = l6_leg(0, 1);
        leg.segments.push(SegmentId(99));
        assert_rejects(&move_along(leg), SimError::UnknownSegment(SegmentId(99)));
    }

    #[test]
    fn unknown_junction_when_a_leg_crosses_a_missing_junction() {
        // L6 has no junctions at all.
        let mut leg = l6_leg(0, 1);
        leg.junctions.push(JunctionId(0));
        assert_rejects(&move_along(leg), SimError::UnknownJunction(JunctionId(0)));
    }

    #[test]
    fn unknown_leg_when_a_move_names_a_leg_past_the_table() {
        // The table holds leg 0 only; the move names leg 1.
        let exe = move_along(l6_leg(0, 1));
        let mut insts = exe.instructions().to_vec();
        insts[1] = Inst::Move {
            ion: IonId(0),
            leg: LegId(1),
        };
        let exe = exe_with_legs(1, chains_in_trap0(1), insts, exe.legs().clone());
        assert_rejects(&exe, SimError::UnknownLeg(LegId(1)));
        // A trapped ion on a missing leg: the id check comes first.
        let exe = exe_on(
            1,
            chains_in_trap0(1),
            vec![Inst::Move {
                ion: IonId(0),
                leg: LegId(0),
            }],
        );
        assert_rejects(&exe, SimError::UnknownLeg(LegId(0)));
    }

    #[test]
    fn unknown_ion_when_chain_exceeds_ion_count() {
        let mut chains = chains_in_trap0(2);
        chains[1] = vec![IonId(7)]; // only ions 0..2 exist
        let exe = exe_on(2, chains, vec![]);
        assert_rejects(&exe, SimError::UnknownIon(IonId(7)));
    }

    #[test]
    fn unknown_ion_when_chains_repeat_an_ion() {
        let mut chains = chains_in_trap0(2);
        chains[1] = vec![IonId(1)]; // ion 1 already placed in trap 0
        let exe = exe_on(2, chains, vec![]);
        assert_rejects(&exe, SimError::UnknownIon(IonId(1)));
    }

    #[test]
    fn unknown_ion_when_instruction_names_a_missing_ion() {
        let exe = exe_on(1, chains_in_trap0(1), vec![Inst::Measure { ion: IonId(3) }]);
        assert_rejects(&exe, SimError::UnknownIon(IonId(3)));
    }

    #[test]
    fn ion_in_flight_when_gating_a_split_ion() {
        // Split ion 1 off, then gate it without merging it first.
        let exe = exe_on(
            2,
            chains_in_trap0(2),
            vec![
                Inst::Split {
                    ion: IonId(1),
                    trap: TrapId(0),
                    side: Side::Right,
                },
                Inst::OneQubit {
                    gate: qccd_circuit::OneQubitGate::H,
                    ion: IonId(1),
                },
            ],
        );
        assert_rejects(&exe, SimError::IonInFlight(IonId(1)));
    }

    #[test]
    fn not_colocated_when_ms_spans_traps() {
        let mut chains = chains_in_trap0(1);
        chains[1] = vec![IonId(1)];
        let exe = exe_on(
            2,
            chains,
            vec![Inst::Ms {
                a: IonId(0),
                b: IonId(1),
            }],
        );
        assert_rejects(&exe, SimError::NotColocated(IonId(0), IonId(1)));
    }

    #[test]
    fn not_adjacent_when_ion_swap_skips_a_neighbour() {
        // Chain [0, 1, 2]: swapping 0 and 2 crosses ion 1.
        let exe = exe_on(
            3,
            chains_in_trap0(3),
            vec![Inst::IonSwap {
                a: IonId(0),
                b: IonId(2),
            }],
        );
        assert_rejects(&exe, SimError::NotAdjacent(IonId(0), IonId(2)));
    }

    #[test]
    fn split_not_at_end_for_a_mid_chain_ion() {
        let exe = exe_on(
            3,
            chains_in_trap0(3),
            vec![Inst::Split {
                ion: IonId(1),
                trap: TrapId(0),
                side: Side::Right,
            }],
        );
        assert_rejects(&exe, SimError::SplitNotAtEnd(IonId(1), TrapId(0)));
    }

    #[test]
    fn split_not_at_end_when_trap_disagrees_with_placement() {
        // Ion 0 ends trap 0's chain, but the split names trap 1.
        let exe = exe_on(
            1,
            chains_in_trap0(1),
            vec![Inst::Split {
                ion: IonId(0),
                trap: TrapId(1),
                side: Side::Right,
            }],
        );
        assert_rejects(&exe, SimError::SplitNotAtEnd(IonId(0), TrapId(1)));
    }

    #[test]
    fn ion_not_in_flight_when_merging_a_trapped_ion() {
        let exe = exe_on(
            2,
            chains_in_trap0(2),
            vec![Inst::Merge {
                ion: IonId(0),
                trap: TrapId(1),
                side: Side::Left,
            }],
        );
        assert_rejects(&exe, SimError::IonNotInFlight(IonId(0)));
    }

    #[test]
    fn ion_not_in_flight_when_moving_a_trapped_ion() {
        let mut legs = LegTable::new();
        let leg = legs.push(&l6_leg(0, 1));
        let exe = exe_with_legs(
            1,
            chains_in_trap0(1),
            vec![Inst::Move { ion: IonId(0), leg }],
            legs,
        );
        assert_rejects(&exe, SimError::IonNotInFlight(IonId(0)));
    }

    #[test]
    fn unplaced_ion_when_chains_leave_an_ion_out() {
        // Ion 2 is below the ion count but in no chain.
        let mut chains = chains_in_trap0(2);
        chains[1] = vec![];
        assert_rejects(&exe_on(3, chains, vec![]), SimError::UnplacedIon(IonId(2)));
        // Ions 0 and 1 are missing; only the first is named.
        let mut chains = chains_in_trap0(0);
        chains[3] = vec![IonId(2)];
        assert_rejects(&exe_on(3, chains, vec![]), SimError::UnplacedIon(IonId(0)));
    }

    #[test]
    fn over_capacity_when_an_initial_chain_overfills_its_trap() {
        // L6 at capacity 10: trap 0 holds 10 ions, trap 1 holds 11.
        let mut chains = chains_in_trap0(10);
        chains[1] = (10..21).map(IonId).collect();
        assert_rejects(
            &exe_on(21, chains, vec![]),
            SimError::OverCapacity {
                trap: TrapId(1),
                ions: 11,
                capacity: 10,
            },
        );
    }

    #[test]
    fn over_capacity_when_simulated_on_a_smaller_trap_than_compiled_for() {
        let exe = compile(
            &generators::qft(64),
            &presets::l6(20),
            &CompilerConfig::default(),
        )
        .expect("compiles");
        let small = presets::l6(14);
        let (t, chain) = exe
            .initial_chains()
            .iter()
            .enumerate()
            .find(|(_, chain)| chain.len() > 14)
            .expect("64 ions overfill some trap of six at capacity 14");
        assert_eq!(
            simulate(&exe, &small, &PhysicalModel::default()).unwrap_err(),
            SimError::OverCapacity {
                trap: TrapId(t as u32),
                ions: chain.len(),
                capacity: 14,
            }
        );
        assert!(simulate(&exe, &presets::l6(20), &PhysicalModel::default()).is_ok());
    }

    #[test]
    fn move_from_elsewhere_when_a_leg_starts_at_another_trap() {
        // Ion 0 leaves trap 0 on a leg from trap 1 to trap 2.
        assert_rejects(
            &move_along(l6_leg(1, 2)),
            SimError::MoveFromElsewhere {
                ion: IonId(0),
                from: TrapId(1),
                at: TrapId(0),
            },
        );
    }

    #[test]
    fn merge_elsewhere_when_an_ion_merges_away_from_its_leg_end() {
        // Ion 0 moves from trap 0 to trap 1, then merges into trap 2.
        let exe = move_along(l6_leg(0, 1));
        let mut insts = exe.instructions().to_vec();
        let merge = |trap| Inst::Merge {
            ion: IonId(0),
            trap: TrapId(trap),
            side: Side::Left,
        };
        insts.push(merge(2));
        let moved = exe_with_legs(1, chains_in_trap0(1), insts, exe.legs().clone());
        assert_rejects(
            &moved,
            SimError::MergeElsewhere {
                ion: IonId(0),
                trap: TrapId(2),
                at: TrapId(1),
            },
        );
        // With no move, the ion is still where it was split.
        let split = exe.instructions()[0];
        let unmoved = exe_on(1, chains_in_trap0(1), vec![split, merge(1)]);
        assert_rejects(
            &unmoved,
            SimError::MergeElsewhere {
                ion: IonId(0),
                trap: TrapId(1),
                at: TrapId(0),
            },
        );
    }

    #[test]
    fn a_compiled_stream_with_a_move_deleted_is_rejected() {
        // Without its first move, the ion is still at the leg's start
        // when its next move or merge comes.
        let device = presets::l6(20);
        let exe =
            compile(&generators::qft(64), &device, &CompilerConfig::default()).expect("compiles");
        let mut insts = exe.instructions().to_vec();
        let i = insts
            .iter()
            .position(|inst| matches!(inst, Inst::Move { .. }))
            .expect("qft_n64 on l6(20) shuttles");
        let Inst::Move { ion, leg } = insts.remove(i) else {
            unreachable!("picked a move");
        };
        let at = exe.legs().get(leg).expect("compiled legs are known").from;
        let want = match insts[i..]
            .iter()
            .find(|inst| inst.ions().any(|x| x == ion))
            .expect("a moved ion merges")
        {
            Inst::Move { leg, .. } => SimError::MoveFromElsewhere {
                ion,
                from: exe.legs().get(*leg).expect("compiled legs are known").from,
                at,
            },
            Inst::Merge { trap, .. } => SimError::MergeElsewhere {
                ion,
                trap: *trap,
                at,
            },
            other => panic!("{ion} in flight is next named by {other:?}"),
        };
        let exe = exe_with(&exe, insts, exe.legs().clone());
        assert_eq!(
            simulate(&exe, &device, &PhysicalModel::default()).unwrap_err(),
            want
        );
    }

    #[test]
    fn same_ion_when_a_two_ion_instruction_pairs_an_ion_with_itself() {
        // Unchecked, a self-paired MS gate panics in the gate-time model
        // on a one-ion chain and runs as a 100 µs gate on a two-ion
        // chain, and a self-paired gate swap panics in the machine state.
        for ions in [1, 2] {
            for inst in [
                Inst::Ms {
                    a: IonId(0),
                    b: IonId(0),
                },
                Inst::SwapGate {
                    a: IonId(0),
                    b: IonId(0),
                },
                Inst::IonSwap {
                    a: IonId(0),
                    b: IonId(0),
                },
            ] {
                let exe = exe_on(ions, chains_in_trap0(ions), vec![inst]);
                assert_rejects(&exe, SimError::SameIon(IonId(0)));
            }
        }
    }

    #[test]
    fn first_failing_instruction_in_stream_order_decides_the_error() {
        // Instruction 1 gates the in-flight ion 0; instruction 2 moves it
        // across a segment L6 does not have. The scan stops at the gate.
        let mut leg = l6_leg(0, 1);
        leg.segments.push(SegmentId(99));
        let mut legs = LegTable::new();
        let leg = legs.push(&leg);
        let split = Inst::Split {
            ion: IonId(0),
            trap: TrapId(0),
            side: Side::Right,
        };
        let gate = Inst::OneQubit {
            gate: qccd_circuit::OneQubitGate::H,
            ion: IonId(0),
        };
        let bad_move = Inst::Move { ion: IonId(0), leg };
        let exe = exe_with_legs(
            1,
            chains_in_trap0(1),
            vec![split, gate, bad_move],
            legs.clone(),
        );
        assert_rejects(&exe, SimError::IonInFlight(IonId(0)));
        // Without the gate, the move's segment decides.
        let exe = exe_with_legs(1, chains_in_trap0(1), vec![split, bad_move], legs);
        assert_rejects(&exe, SimError::UnknownSegment(SegmentId(99)));
    }

    /// Compiles a seeded random circuit on L6 or G2x3, corrupts one
    /// instruction at a random index, and returns the executable, the
    /// device and the error the corruption must raise. The uncorrupted
    /// prefix is legal, so the corrupted instruction is the first to
    /// fail.
    fn corrupted_case(rng: &mut impl rand::Rng) -> (Executable, Device, SimError) {
        let device = if rng.gen() {
            presets::g2x3(8)
        } else {
            presets::l6(8)
        };
        let circuit = generators::random_circuit(
            rng.gen_range(2..24),
            rng.gen_range(1..150),
            rng.gen_range(0.0..0.8),
            rng.gen_range(0..1000),
        );
        let exe = compile(&circuit, &device, &CompilerConfig::default()).expect("compiles");
        let mut insts = exe.instructions().to_vec();
        let mut legs = exe.legs().clone();
        let n = exe.num_ions();
        // Draw a corruption kind until the stream has an instruction it
        // applies to.
        loop {
            match rng.gen_range(0..5u32) {
                0 => {
                    let i = rng.gen_range(0..insts.len());
                    let bad = IonId(n + rng.gen_range(0..4u32));
                    match &mut insts[i] {
                        Inst::OneQubit { ion, .. }
                        | Inst::Split { ion, .. }
                        | Inst::Move { ion, .. }
                        | Inst::Merge { ion, .. }
                        | Inst::Measure { ion } => *ion = bad,
                        Inst::Ms { b, .. } | Inst::SwapGate { b, .. } | Inst::IonSwap { b, .. } => {
                            *b = bad
                        }
                    }
                    return (
                        exe_with(&exe, insts, legs),
                        device,
                        SimError::UnknownIon(bad),
                    );
                }
                1 => {
                    let split_or_merge =
                        |inst: &Inst| matches!(inst, Inst::Split { .. } | Inst::Merge { .. });
                    let Some(i) = pick(&insts, rng, split_or_merge) else {
                        continue;
                    };
                    let bad = TrapId(device.trap_count() as u32 + rng.gen_range(0..4u32));
                    if let Inst::Split { trap, .. } | Inst::Merge { trap, .. } = &mut insts[i] {
                        *trap = bad;
                    }
                    return (
                        exe_with(&exe, insts, legs),
                        device,
                        SimError::UnknownTrap(bad),
                    );
                }
                2 => {
                    let Some(i) = pick(&insts, rng, |inst| matches!(inst, Inst::Move { .. }))
                    else {
                        continue;
                    };
                    let Inst::Move { leg: id, .. } = &mut insts[i] else {
                        unreachable!("picked a move");
                    };
                    // The move's leg with an unknown segment or junction,
                    // appended to the table.
                    let mut leg = owned(legs.get(*id).expect("compiled legs are known"));
                    let want = if rng.gen() {
                        let bad = SegmentId(device.segment_count() as u32 + rng.gen_range(0..4u32));
                        let at = rng.gen_range(0..=leg.segments.len());
                        leg.segments.insert(at, bad);
                        SimError::UnknownSegment(bad)
                    } else {
                        let bad =
                            JunctionId(device.junction_count() as u32 + rng.gen_range(0..4u32));
                        let at = rng.gen_range(0..=leg.junctions.len());
                        leg.junctions.insert(at, bad);
                        SimError::UnknownJunction(bad)
                    };
                    *id = legs.push(&leg);
                    return (exe_with(&exe, insts, legs), device, want);
                }
                3 => {
                    let Some(i) = pick(&insts, rng, |inst| matches!(inst, Inst::Move { .. }))
                    else {
                        continue;
                    };
                    let Inst::Move { leg, .. } = &mut insts[i] else {
                        unreachable!("picked a move");
                    };
                    let bad = LegId(legs.len() as u32 + rng.gen_range(0..4u32));
                    *leg = bad;
                    return (
                        exe_with(&exe, insts, legs),
                        device,
                        SimError::UnknownLeg(bad),
                    );
                }
                _ => {
                    let two_ion = |inst: &Inst| inst.ions().nth(1).is_some();
                    let Some(i) = pick(&insts, rng, two_ion) else {
                        continue;
                    };
                    let (Inst::Ms { a, b } | Inst::SwapGate { a, b } | Inst::IonSwap { a, b }) =
                        &mut insts[i]
                    else {
                        unreachable!("picked a two-ion instruction");
                    };
                    *b = *a;
                    let want = SimError::SameIon(*a);
                    return (exe_with(&exe, insts, legs), device, want);
                }
            }
        }
    }

    /// The index of a random instruction that `applies` to, if any.
    fn pick(insts: &[Inst], rng: &mut impl rand::Rng, applies: fn(&Inst) -> bool) -> Option<usize> {
        let hits: Vec<usize> = (0..insts.len()).filter(|&i| applies(&insts[i])).collect();
        (!hits.is_empty()).then(|| hits[rng.gen_range(0..hits.len())])
    }

    /// `exe` with its instruction stream and leg table replaced.
    fn exe_with(exe: &Executable, insts: Vec<Inst>, legs: LegTable) -> Executable {
        Executable::new(
            exe.name().to_owned(),
            exe.num_ions(),
            exe.initial_chains().to_vec(),
            insts,
            legs,
            exe.final_qubit_of_ion().to_vec(),
        )
    }

    /// No id escapes the checks at the top of the step loop: one
    /// corrupted instruction in a compiled stream raises its own
    /// [`SimError`], never a panic or another error.
    #[test]
    fn one_corrupted_instruction_raises_its_error() {
        for case in 0..96 {
            let rng =
                &mut proptest::rng_for_case("one_corrupted_instruction_raises_its_error", case);
            let (exe, device, want) = corrupted_case(rng);
            let got =
                std::panic::catch_unwind(|| simulate(&exe, &device, &PhysicalModel::default()))
                    .unwrap_or_else(|_| panic!("case {case} panicked; want {want}"));
            assert_eq!(got, Err(want), "case {case}");
        }
    }

    #[test]
    fn empty_executable_yields_zero_report() {
        let exe = exe_on(1, chains_in_trap0(1), vec![]);
        let r = simulate(&exe, &presets::l6(10), &PhysicalModel::default()).expect("runs");
        assert_eq!(r.total_time_us, 0.0);
        assert_eq!(r.log_fidelity, 0.0);
        assert_eq!(r.time, TimeBreakdown::default());
    }

    // ------------------------------------------------------------------
    // One ion per segment or junction (§V-B): no shuttle leg may start
    // before the previous leg through any of its path elements ends.
    // ------------------------------------------------------------------

    /// Steps the engine through `exe` on `device` and checks every
    /// `Move` against the releases of the segments and junctions on its
    /// leg.
    fn assert_no_double_booking(exe: &Executable, device: &Device) {
        let model = PhysicalModel::default();
        let mut engine = Engine::new(exe, device, &model).expect("chain table fits");
        for (i, inst) in exe.instructions().iter().enumerate() {
            let Inst::Move { ion, leg } = inst else {
                engine.step(inst).expect("simulates");
                continue;
            };
            let leg = exe.legs().get(*leg).expect("compiled legs are known");
            let released: Vec<f64> = leg
                .segments
                .iter()
                .map(|s| engine.seg_ready[s.index()].t)
                .chain(leg.junctions.iter().map(|j| engine.junc_ready[j.index()].t))
                .collect();
            engine.step(inst).expect("simulates");
            let end = engine.flights[ion.index()].ready.t;
            let tau = engine.leg_time(&leg);
            // Rounding is monotone, so `start >= release` implies
            // `start + tau >= release + tau` in floating point too.
            for release in released {
                assert!(
                    end >= release + tau,
                    "move {i} starts at {} before a path element frees at {release}",
                    end - tau
                );
            }
            // The leg holds every element it crosses until it ends.
            for s in leg.segments {
                assert_eq!(engine.seg_ready[s.index()].t, end, "move {i}: segment {s}");
            }
            for j in leg.junctions {
                assert_eq!(
                    engine.junc_ready[j.index()].t,
                    end,
                    "move {i}: junction {j}"
                );
            }
        }
    }

    #[test]
    fn opposing_moves_queue_on_the_shared_segment() {
        // Ions in traps 0 and 1 swap traps: both split at once, then
        // the second move waits for the first to clear the segment.
        let d = presets::l6(10);
        let mut legs = LegTable::new();
        let there = legs.push(&l6_leg(0, 1));
        let back = legs.push(&l6_leg(1, 0));
        let mut chains = chains_in_trap0(1);
        chains[1] = vec![IonId(1)];
        let split = |ion, trap, side| Inst::Split { ion, trap, side };
        let merge = |ion, trap, side| Inst::Merge { ion, trap, side };
        let exe = exe_with_legs(
            2,
            chains,
            vec![
                split(IonId(0), TrapId(0), Side::Right),
                split(IonId(1), TrapId(1), Side::Left),
                Inst::Move {
                    ion: IonId(0),
                    leg: there,
                },
                Inst::Move {
                    ion: IonId(1),
                    leg: back,
                },
                merge(IonId(0), TrapId(1), Side::Left),
                merge(IonId(1), TrapId(0), Side::Right),
            ],
            legs,
        );
        let r = simulate(&exe, &d, &PhysicalModel::default()).expect("simulates");
        assert!(r.time.shuttle_wait_us > 0.0, "{:?}", r.time);
        assert_no_double_booking(&exe, &d);
    }

    /// Steps the engine through `exe` on `device` and checks its
    /// bookkeeping against independent recomputations: the counts
    /// tallied in the step loop against [`Executable::counts`], and the
    /// compute/communication split, bit for bit, against the reference
    /// sweep over every instruction's raw interval. Those intervals come
    /// from this function's own per-ion ready times and the engine's
    /// resource ready times, by the max rule (an instruction starts once
    /// its ions and its resource are ready), never from the timeline. It
    /// also asserts that every trap-local instruction starts when its
    /// trap is ready, the invariant that lets the engine keep ready times
    /// only for ions in flight.
    fn assert_matches_references(exe: &Executable, device: &Device, model: &PhysicalModel) {
        let mut engine = Engine::new(exe, device, model).expect("chain table fits");
        let mut ion_ready = vec![0.0f64; exe.num_ions() as usize];
        let (mut gates, mut comm) = (Vec::new(), Vec::new());
        for (i, inst) in exe.instructions().iter().enumerate() {
            let first = inst.ions().next().expect("every instruction names an ion");
            let trap = match inst {
                Inst::Move { .. } => None,
                Inst::Split { trap, .. } | Inst::Merge { trap, .. } => Some(*trap),
                _ => Some(engine.located_trap(first).expect("trapped")),
            };
            let resource = match (inst, trap) {
                (Inst::Move { leg, .. }, _) => {
                    engine
                        .path_ready(&exe.legs().get(*leg).expect("compiled legs are known"))
                        .t
                }
                (_, Some(trap)) => engine.traps[trap.index()].ready,
                (_, None) => unreachable!("only moves run off a trap"),
            };
            let start = inst
                .ions()
                .map(|ion| ion_ready[ion.index()])
                .fold(resource, f64::max);
            if !matches!(inst, Inst::Move { .. } | Inst::Merge { .. }) {
                assert_eq!(
                    start.to_bits(),
                    resource.to_bits(),
                    "instruction {i} ({inst:?}) starts after its trap is ready"
                );
            }
            engine.step(inst).expect("simulates");
            let end = match (inst, trap) {
                (Inst::Move { .. }, _) => engine.flights[first.index()].ready.t,
                (_, Some(trap)) => engine.traps[trap.index()].ready,
                (_, None) => unreachable!("only moves run off a trap"),
            };
            for ion in inst.ions() {
                ion_ready[ion.index()] = end;
            }
            if end > start {
                let communication = matches!(
                    inst,
                    Inst::Split { .. }
                        | Inst::Move { .. }
                        | Inst::Merge { .. }
                        | Inst::IonSwap { .. }
                );
                let set = if communication { &mut comm } else { &mut gates };
                set.push((start, end));
            }
        }
        let want = (
            reference::union_length(&gates),
            reference::union_length_excluding(&comm, &gates),
        );
        let r = engine.finish(exe);
        assert_eq!(r.counts, exe.counts());
        assert_eq!(
            (
                r.time.compute_us.to_bits(),
                r.time.communication_us.to_bits()
            ),
            (want.0.to_bits(), want.1.to_bits()),
            "got {:?}, want {want:?}",
            r.time
        );
    }

    #[test]
    fn touching_comm_intervals_are_summed_piecewise() {
        // In trap 0's lane a 0.1 µs ion swap ends where an 80 µs split
        // starts, after a 0.1 µs gate. Their piecewise sum is 80.1; the
        // length of the merged interval is one ulp longer.
        let defaults = PhysicalModel::default();
        let model = PhysicalModel {
            one_qubit_time: 0.1,
            shuttle: ShuttleTimes {
                ion_rotation: 0.1,
                split: 80.0,
                ..defaults.shuttle
            },
            ..defaults
        };
        let (swap_end, split_end) = (0.1 + 0.1, 0.1 + 0.1 + 80.0);
        assert_ne!((swap_end - 0.1) + (split_end - swap_end), split_end - 0.1);
        let exe = exe_on(
            2,
            chains_in_trap0(2),
            vec![
                Inst::OneQubit {
                    gate: qccd_circuit::OneQubitGate::H,
                    ion: IonId(0),
                },
                Inst::IonSwap {
                    a: IonId(0),
                    b: IonId(1),
                },
                // The swap left ion 0 at the right end.
                Inst::Split {
                    ion: IonId(0),
                    trap: TrapId(0),
                    side: Side::Right,
                },
            ],
        );
        assert_matches_references(&exe, &presets::l6(10), &model);
    }

    /// The timeline's boundaries once every instruction of `exe` has
    /// been stepped on L6, before the closing walk places the end of any
    /// open gate run. `exe` must also match the references.
    fn boundaries_after(exe: &Executable) -> Vec<(f64, i64, i32)> {
        let (d, model) = (presets::l6(10), PhysicalModel::default());
        assert_matches_references(exe, &d, &model);
        let mut engine = Engine::new(exe, &d, &model).expect("chain table fits");
        for inst in exe.instructions() {
            engine.step(inst).expect("simulates");
        }
        engine.timeline.boundaries()
    }

    /// A one-qubit gate on `ion`.
    fn h(ion: u32) -> Inst {
        Inst::OneQubit {
            gate: qccd_circuit::OneQubitGate::H,
            ion: IonId(ion),
        }
    }

    #[test]
    fn a_gate_run_closes_where_a_split_starts() {
        // Two gates on trap 0 make one run [0, 2g); the split starts there.
        let m = PhysicalModel::default();
        let split = Inst::Split {
            ion: IonId(1),
            trap: TrapId(0),
            side: Side::Right,
        };
        let exe = exe_on(2, chains_in_trap0(2), vec![h(0), h(1), split]);
        let g2 = m.one_qubit_time + m.one_qubit_time;
        assert_eq!(
            boundaries_after(&exe),
            vec![(0.0, 0, 1), (g2, 1, -1), (g2 + m.shuttle.split, -1, 0)]
        );
    }

    #[test]
    fn a_gate_run_closes_where_an_ion_swap_starts() {
        let m = PhysicalModel::default();
        let swap = Inst::IonSwap {
            a: IonId(1),
            b: IonId(2),
        };
        // Chains of three swap by split, rotate and merge.
        let exe = exe_on(3, chains_in_trap0(3), vec![h(0), swap, h(0)]);
        let g = m.one_qubit_time;
        let swapped = g + m.shuttle.ion_swap_time();
        assert_eq!(
            boundaries_after(&exe),
            vec![(0.0, 0, 1), (g, 1, -1), (swapped, -1, 1)]
        );
    }

    #[test]
    fn a_gate_run_closes_at_its_own_end_when_a_later_merge_follows() {
        // Trap 1 gates [0, 2g) while ion 0 is split off trap 0 and moved
        // there; the merge starts after the move, not where the run ends.
        let m = PhysicalModel::default();
        let mut legs = LegTable::new();
        let leg = legs.push(&l6_leg(0, 1));
        let mut chains = chains_in_trap0(1);
        chains[1] = vec![IonId(1)];
        let exe = exe_with_legs(
            2,
            chains,
            vec![
                Inst::Split {
                    ion: IonId(0),
                    trap: TrapId(0),
                    side: Side::Right,
                },
                h(1),
                h(1),
                Inst::Move { ion: IonId(0), leg },
                Inst::Merge {
                    ion: IonId(0),
                    trap: TrapId(1),
                    side: Side::Left,
                },
            ],
            legs,
        );
        let g2 = m.one_qubit_time + m.one_qubit_time;
        let split = m.shuttle.split;
        let moved = split + m.shuttle.move_time(l6_leg(0, 1).length_units, 0, 0);
        assert_eq!(
            boundaries_after(&exe),
            vec![
                (0.0, 1, 1),
                (g2, 0, -1),
                (split, 0, 0),
                (moved, 0, 0),
                (moved + m.shuttle.merge, -1, 0),
            ]
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Random circuits through all 16 policy pipelines on the linear
        /// and the grid topology, under every gate model (the AM and PM
        /// gate times put instructions at non-integer times).
        #[test]
        fn random_circuits_match_the_references(
            n in 2u32..24,
            ops in 1usize..150,
            frac in 0.0f64..0.8,
            seed in 0u64..1000,
            combo in 0usize..16,
            grid in proptest::bool::ANY,
            gate in 0usize..4,
        ) {
            let circuit = generators::random_circuit(n, ops, frac, seed);
            let device = if grid { presets::g2x3(8) } else { presets::l6(8) };
            let exe = compile(&circuit, &device, &CompilerConfig::policy_grid(2)[combo]).expect("compiles");
            assert_matches_references(&exe, &device, &PhysicalModel::with_gate(GateImpl::ALL[gate]));
        }

        /// Random circuits on the linear topology, across all 16
        /// policy pipelines.
        #[test]
        fn random_linear_circuits_never_double_book(
            n in 2u32..24,
            ops in 1usize..150,
            frac in 0.0f64..0.8,
            seed in 0u64..1000,
            combo in 0usize..16,
        ) {
            let circuit = generators::random_circuit(n, ops, frac, seed);
            let device = presets::l6(8);
            let exe = compile(&circuit, &device, &CompilerConfig::policy_grid(2)[combo]).expect("compiles");
            assert_no_double_booking(&exe, &device);
        }

        /// The same property on the grid topology, whose legs cross
        /// junctions.
        #[test]
        fn random_grid_circuits_never_double_book(
            n in 2u32..24,
            ops in 1usize..120,
            seed in 0u64..1000,
        ) {
            let circuit = generators::random_circuit(n, ops, 0.5, seed);
            let device = presets::g2x3(8);
            let exe = compile(&circuit, &device, &CompilerConfig::default()).expect("compiles");
            assert_no_double_booking(&exe, &device);
        }
    }
}
