//! The event-kernel loop: bind, schedule, commit, finalize.
//!
//! The kernel runs in four strictly separated stages, arranged so every
//! floating-point accumulation happens in the *same order* as the
//! legacy engine's sequential scan — the differential harness pins the
//! two kernels field-for-field identical, and float addition is not
//! associative, so ordering is part of the contract:
//!
//! 1. **Bind** (program order): replay a [`MachineState`] over the
//!    instruction stream exactly as the legacy engine does, performing
//!    its validity checks in the same order (so the first failing
//!    instruction yields the identical [`SimError`]) and computing
//!    every *timing-independent* quantity — durations, error charges,
//!    heating updates, MS statistics — with the same arithmetic. This
//!    is sound because the resource discipline below serializes all
//!    instructions that touch the same trap, ion or chain in program
//!    order, so state- and energy-dependent values cannot observe any
//!    other order at run time.
//! 2. **Schedule**: enqueue each instruction on the claim queue of
//!    every resource it uses ([`ResourceTimelines`]); an instruction is
//!    granted — and its start event scheduled at the max of its
//!    resources' free times — exactly when it reaches the head of all
//!    its queues.
//! 3. **Commit**: pop events in `(time, seq)` order from the
//!    [`EventQueue`]. Start events reserve resources (panicking on any
//!    double-booking) and schedule the matching finish; finish events
//!    release resources and grant successors. Every committed event is
//!    offered to the caller's [`EventHook`](super::EventHook).
//! 4. **Finalize** (program order again): fold the per-instruction
//!    `[start, end)` windows into the span sets, busy/wait totals and
//!    makespan in instruction order, then assemble the [`SimReport`]
//!    field-by-field the way the legacy engine does.

use super::event::EventKind;
use super::queue::EventQueue;
use super::timeline::ResourceTimelines;
use super::EventHook;
use crate::engine::{charge, validate};
use crate::error::SimError;
use crate::report::{ErrorTotals, SimReport, TimeBreakdown};
use crate::spans::SpanSet;
use qccd_compiler::{Executable, Inst, MachineState, Placement};
use qccd_device::{Device, IonId, JunctionId, JunctionKind, SegmentId, TrapId};
use qccd_physics::PhysicalModel;

/// Runs the event kernel over `exe`. Entry point for
/// [`simulate_des_with_hook`](super::simulate_des_with_hook).
pub(super) fn run(
    exe: &Executable,
    device: &Device,
    model: &PhysicalModel,
    hook: &mut dyn EventHook,
) -> Result<SimReport, SimError> {
    validate(exe, device)?;
    let map = ResourceMap::new(exe, device);
    let placement = Placement::from_chains(exe.initial_chains().to_vec());
    let mut binder = Binder {
        device,
        model,
        st: MachineState::new(&placement),
        trap_energy: vec![0.0; device.trap_count()],
        trap_peak: vec![0.0; device.trap_count()],
        flight_energy: vec![0.0; exe.num_ions() as usize],
        log_fidelity: 0.0,
        errors: ErrorTotals::default(),
        ms_executions: 0,
        ms_background_sum: 0.0,
        ms_motional_sum: 0.0,
    };
    let mut prog = BoundProgram::with_capacity(exe.len());
    for inst in exe.instructions() {
        binder.bind(inst, &map, &mut prog)?;
    }

    let timings = if hook.observes_events() {
        commit(&prog, &map, hook)
    } else {
        relax(&prog, &map)
    };
    Ok(finalize(exe, binder, &prog, &timings))
}

/// Flat index space over all schedulable resources: ions, then traps,
/// then segments, then junctions.
struct ResourceMap {
    ions: usize,
    traps: usize,
    segments: usize,
    junctions: usize,
}

impl ResourceMap {
    fn new(exe: &Executable, device: &Device) -> Self {
        ResourceMap {
            ions: exe.num_ions() as usize,
            traps: device.trap_count(),
            segments: device.segment_count(),
            junctions: device.junction_count(),
        }
    }

    fn total(&self) -> usize {
        self.ions + self.traps + self.segments + self.junctions
    }

    fn ion(&self, i: IonId) -> usize {
        i.index()
    }

    fn trap(&self, t: TrapId) -> usize {
        self.ions + t.index()
    }

    fn seg(&self, s: SegmentId) -> usize {
        self.ions + self.traps + s.index()
    }

    fn junc(&self, j: JunctionId) -> usize {
        self.ions + self.traps + self.segments + j.index()
    }
}

/// Instruction class, selecting event kinds and span accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OpClass {
    /// Gate or measurement: gate spans, gate busy time.
    Gate,
    /// A move along one route leg: comm spans, shuttle busy + wait time.
    Leg,
    /// Split / merge / ion rotation: comm spans, shuttle busy time.
    Split,
    /// See [`OpClass::Split`].
    Merge,
    /// See [`OpClass::Split`].
    IonSwap,
}

/// One instruction after the bind pass: its exclusive resource set (in
/// the legacy engine's max-fold order, deduplicated), its duration, and
/// everything needed to emit its events. Resources and junctions are
/// `(start, len)` ranges into the owning [`BoundProgram`]'s flat arenas
/// — no per-instruction allocations.
#[derive(Clone, Copy)]
struct BoundInst {
    res_start: u32,
    res_len: u32,
    junc_start: u32,
    junc_len: u32,
    duration: f64,
    op: OpClass,
}

/// The whole bound instruction stream plus the two flat arenas its
/// instructions' resource and junction ranges point into.
struct BoundProgram {
    insts: Vec<BoundInst>,
    /// Every instruction's resource ids, concatenated.
    resources: Vec<u32>,
    /// Every move's crossed junctions, concatenated.
    junctions: Vec<JunctionId>,
}

impl BoundProgram {
    fn with_capacity(insts: usize) -> Self {
        BoundProgram {
            insts: Vec::with_capacity(insts),
            // Most instructions claim 2–3 resources (gates: ion(s) +
            // trap); legs add their path elements on top.
            resources: Vec::with_capacity(insts * 3),
            junctions: Vec::new(),
        }
    }

    fn resources_of(&self, i: usize) -> &[u32] {
        let b = &self.insts[i];
        &self.resources[b.res_start as usize..(b.res_start + b.res_len) as usize]
    }

    fn junctions_of(&self, i: usize) -> &[JunctionId] {
        let b = &self.insts[i];
        &self.junctions[b.junc_start as usize..(b.junc_start + b.junc_len) as usize]
    }

    /// Seals one instruction: deduplicates the resource ids pushed since
    /// `res_start` (keeping first occurrences — duplicates arise only in
    /// hand-authored streams, e.g. `ms ion0, ion0`, but would wedge the
    /// head-of-queue grant rule) and records the arena ranges.
    fn finish_inst(&mut self, res_start: usize, junc_start: usize, duration: f64, op: OpClass) {
        let mut len = res_start;
        for i in res_start..self.resources.len() {
            let r = self.resources[i];
            if !self.resources[res_start..len].contains(&r) {
                self.resources[len] = r;
                len += 1;
            }
        }
        self.resources.truncate(len);
        self.insts.push(BoundInst {
            res_start: res_start as u32,
            res_len: (len - res_start) as u32,
            junc_start: junc_start as u32,
            junc_len: (self.junctions.len() - junc_start) as u32,
            duration,
            op,
        });
    }
}

impl BoundInst {
    fn start_kind(&self, inst: usize) -> EventKind {
        match self.op {
            OpClass::Gate => EventKind::GateStart { inst },
            OpClass::Leg => EventKind::ShuttleLegStart { inst },
            OpClass::Split => EventKind::SplitStart { inst },
            OpClass::Merge => EventKind::MergeStart { inst },
            OpClass::IonSwap => EventKind::IonSwapStart { inst },
        }
    }

    fn finish_kind(&self, inst: usize) -> EventKind {
        match self.op {
            OpClass::Gate => EventKind::GateFinish { inst },
            OpClass::Leg => EventKind::ShuttleLegFinish { inst },
            OpClass::Split => EventKind::SplitFinish { inst },
            OpClass::Merge => EventKind::MergeFinish { inst },
            OpClass::IonSwap => EventKind::IonSwapFinish { inst },
        }
    }
}

/// The program-order bind pass: legacy-identical validity checks and
/// timing-independent effect computation. Field names and update order
/// deliberately mirror the legacy `Engine`.
struct Binder<'a> {
    device: &'a Device,
    model: &'a PhysicalModel,
    st: MachineState,
    trap_energy: Vec<f64>,
    trap_peak: Vec<f64>,
    flight_energy: Vec<f64>,
    log_fidelity: f64,
    errors: ErrorTotals,
    ms_executions: usize,
    ms_background_sum: f64,
    ms_motional_sum: f64,
}

impl Binder<'_> {
    fn charge_error(&mut self, err: f64) {
        charge(&mut self.log_fidelity, err);
    }

    fn bump_trap_energy(&mut self, trap: TrapId, energy: f64) {
        self.trap_energy[trap.index()] = energy;
        let nbar = energy / self.st.chain_len(trap).max(1) as f64;
        if nbar > self.trap_peak[trap.index()] {
            self.trap_peak[trap.index()] = nbar;
        }
    }

    fn located_trap(&self, ion: IonId) -> Result<TrapId, SimError> {
        self.st.trap_of(ion).ok_or(SimError::IonInFlight(ion))
    }

    fn nbar(&self, trap: TrapId) -> f64 {
        let n = self.st.chain_len(trap).max(1) as f64;
        self.trap_energy[trap.index()] / n
    }

    fn ms_interaction(&mut self, a: IonId, b: IonId, trap: TrapId) -> (f64, f64) {
        let distance = self.st.distance(a, b).max(1);
        let chain_len = self.st.chain_len(trap) as u32;
        let tau = self.model.two_qubit_time(distance, chain_len);
        let breakdown = self
            .model
            .fidelity
            .two_qubit_error(tau, chain_len, self.nbar(trap));
        self.ms_executions += 1;
        self.ms_background_sum += breakdown.background;
        self.ms_motional_sum += breakdown.motional;
        self.charge_error(breakdown.total());
        (tau, breakdown.total())
    }

    /// Binds one instruction, appending its resources/junctions to
    /// `prog`'s arenas and its [`BoundInst`] to the stream.
    fn bind(
        &mut self,
        inst: &Inst,
        map: &ResourceMap,
        prog: &mut BoundProgram,
    ) -> Result<(), SimError> {
        let rs = prog.resources.len();
        let js = prog.junctions.len();
        match inst {
            Inst::OneQubit { ion, .. } => {
                let trap = self.located_trap(*ion)?;
                self.charge_error(self.model.fidelity.one_qubit_error);
                self.errors.one_qubit += self.model.fidelity.one_qubit_error;
                prog.resources
                    .extend([map.ion(*ion) as u32, map.trap(trap) as u32]);
                prog.finish_inst(rs, js, self.model.one_qubit_time, OpClass::Gate);
            }
            Inst::Ms { a, b } => {
                let trap = self.located_trap(*a)?;
                if self.st.trap_of(*b) != Some(trap) {
                    return Err(SimError::NotColocated(*a, *b));
                }
                let (tau, err) = self.ms_interaction(*a, *b, trap);
                self.errors.two_qubit += err;
                prog.resources.extend([
                    map.ion(*a) as u32,
                    map.ion(*b) as u32,
                    map.trap(trap) as u32,
                ]);
                prog.finish_inst(rs, js, tau, OpClass::Gate);
            }
            Inst::SwapGate { a, b } => {
                let trap = self.located_trap(*a)?;
                if self.st.trap_of(*b) != Some(trap) {
                    return Err(SimError::NotColocated(*a, *b));
                }
                // 3 MS gates plus the single-qubit corrections, charged in
                // the same sequence as the legacy engine.
                let mut tau = 0.0;
                let mut swap_err = 0.0;
                for _ in 0..3 {
                    let (t, e) = self.ms_interaction(*a, *b, trap);
                    tau += t;
                    swap_err += e;
                }
                for _ in 0..qccd_compiler::lowering::WRAPPERS_PER_CX {
                    tau += self.model.one_qubit_time;
                    self.charge_error(self.model.fidelity.one_qubit_error);
                    swap_err += self.model.fidelity.one_qubit_error;
                }
                self.errors.swap += swap_err;
                self.st.swap_states(*a, *b);
                prog.resources.extend([
                    map.ion(*a) as u32,
                    map.ion(*b) as u32,
                    map.trap(trap) as u32,
                ]);
                prog.finish_inst(rs, js, tau, OpClass::Gate);
            }
            Inst::IonSwap { a, b } => {
                let trap = self.located_trap(*a)?;
                if self.st.trap_of(*b) != Some(trap) {
                    return Err(SimError::NotColocated(*a, *b));
                }
                if self.st.distance(*a, *b) != 1 {
                    return Err(SimError::NotAdjacent(*a, *b));
                }
                let n = self.st.chain_len(trap) as u32;
                let heating = &self.model.heating;
                let (tau, new_energy) = if n > 2 {
                    let (pair, rest) = heating.split(self.trap_energy[trap.index()], 2, n - 2);
                    let pair = pair + heating.k1;
                    (
                        self.model.shuttle.ion_swap_time(),
                        heating.merge(pair, rest, n),
                    )
                } else {
                    (
                        self.model.shuttle.ion_rotation,
                        self.trap_energy[trap.index()] + heating.k1,
                    )
                };
                self.bump_trap_energy(trap, new_energy);
                self.st.swap_positions(*a, *b);
                prog.resources.extend([
                    map.ion(*a) as u32,
                    map.ion(*b) as u32,
                    map.trap(trap) as u32,
                ]);
                prog.finish_inst(rs, js, tau, OpClass::IonSwap);
            }
            Inst::Split { ion, trap, side } => {
                if self.st.trap_of(*ion) != Some(*trap) {
                    return Err(SimError::SplitNotAtEnd(*ion, *trap));
                }
                if self.st.end_ion(*trap, *side) != Some(*ion) {
                    return Err(SimError::SplitNotAtEnd(*ion, *trap));
                }
                let n = self.st.chain_len(*trap) as u32;
                let heating = &self.model.heating;
                let (e_ion, e_rest) = if n > 1 {
                    heating.split(self.trap_energy[trap.index()], 1, n - 1)
                } else {
                    (self.trap_energy[trap.index()] + heating.k1, 0.0)
                };
                self.flight_energy[ion.index()] = e_ion;
                self.st.remove_end(*ion, *trap, *side);
                self.bump_trap_energy(*trap, e_rest);
                prog.resources
                    .extend([map.ion(*ion) as u32, map.trap(*trap) as u32]);
                prog.finish_inst(rs, js, self.model.shuttle.split, OpClass::Split);
            }
            Inst::Move { ion, leg } => {
                if self.st.trap_of(*ion).is_some() {
                    return Err(SimError::IonNotInFlight(*ion));
                }
                let (mut y, mut x) = (0u32, 0u32);
                for j in &leg.junctions {
                    match self.device.junction(*j).kind() {
                        JunctionKind::Y => y += 1,
                        JunctionKind::X => x += 1,
                    }
                }
                let tau = self.model.shuttle.move_time(leg.length_units, y, x);
                self.flight_energy[ion.index()] += self
                    .model
                    .heating
                    .move_energy(leg.length_units, leg.junctions.len() as u32);
                // The ion is resource 0; path elements follow. The grant
                // logic relies on this layout to reproduce the legacy
                // engine's wait accounting.
                prog.resources.push(map.ion(*ion) as u32);
                for s in &leg.segments {
                    prog.resources.push(map.seg(*s) as u32);
                }
                for j in &leg.junctions {
                    prog.resources.push(map.junc(*j) as u32);
                }
                prog.junctions.extend_from_slice(&leg.junctions);
                prog.finish_inst(rs, js, tau, OpClass::Leg);
            }
            Inst::Merge { ion, trap, side } => {
                if self.st.trap_of(*ion).is_some() {
                    return Err(SimError::IonNotInFlight(*ion));
                }
                let n_result = self.st.chain_len(*trap) as u32 + 1;
                let merged = self.model.heating.merge(
                    self.trap_energy[trap.index()],
                    self.flight_energy[ion.index()],
                    n_result,
                );
                self.flight_energy[ion.index()] = 0.0;
                self.st.insert_end(*ion, *trap, *side);
                self.bump_trap_energy(*trap, merged);
                prog.resources
                    .extend([map.ion(*ion) as u32, map.trap(*trap) as u32]);
                prog.finish_inst(rs, js, self.model.shuttle.merge, OpClass::Merge);
            }
            Inst::Measure { ion } => {
                let trap = self.located_trap(*ion)?;
                self.charge_error(self.model.fidelity.measure_error);
                self.errors.measure += self.model.fidelity.measure_error;
                prog.resources
                    .extend([map.ion(*ion) as u32, map.trap(trap) as u32]);
                prog.finish_inst(rs, js, self.model.measure_time, OpClass::Gate);
            }
        }
        Ok(())
    }
}

/// Per-instruction timing resolved by the event loop.
#[derive(Debug, Clone, Copy, Default)]
struct Timing {
    start: f64,
    end: f64,
    /// Queueing delay behind busy path elements (moves only).
    wait: f64,
}

/// Builds and seals the claim queues: every instruction enqueued on
/// every resource it uses, in program order.
fn build_timelines(prog: &BoundProgram, map: &ResourceMap) -> ResourceTimelines {
    let mut tl = ResourceTimelines::new(map.total());
    for i in 0..prog.insts.len() {
        for &r in prog.resources_of(i) {
            tl.enqueue(r as usize, i);
        }
    }
    tl.seal();
    tl
}

/// Stage 2 + 3, unobserved: when no hook wants the event stream the
/// start/end/wait times are resolved by a direct worklist relaxation
/// over the claim queues — same grant rule, same max-folds, the same
/// float operations in the same order, no event heap and no events.
///
/// This is bitwise-identical to [`commit`] (pinned by a differential
/// test) because an instruction's timing is a pure function of its
/// resources' `free_at` values, which are final exactly when it reaches
/// the head of all its queues: every resource a granted instruction
/// waits on was last released by its immediate queue predecessor, and
/// only the instruction itself can touch those resources afterwards.
/// Time-ordered event popping therefore only sequences the *observable*
/// stream; with nobody observing, any grant-cascade order yields the
/// same timings.
fn relax(prog: &BoundProgram, map: &ResourceMap) -> Vec<Timing> {
    let bound = &prog.insts;
    let mut tl = build_timelines(prog, map);
    let mut granted = vec![0usize; bound.len()];
    let mut timings = vec![Timing::default(); bound.len()];
    let mut ready: Vec<usize> = Vec::new();
    for (i, b) in bound.iter().enumerate() {
        granted[i] = prog
            .resources_of(i)
            .iter()
            .filter(|&&r| tl.head(r as usize) == Some(i))
            .count();
        if granted[i] == b.res_len as usize {
            ready.push(i);
        }
    }

    let mut finished = 0usize;
    while let Some(i) = ready.pop() {
        resolve_timing(i, prog, &tl, &mut timings);
        let end = timings[i].end;
        for &r in prog.resources_of(i) {
            if let Some(h) = tl.pass_through(r as usize, i, end) {
                granted[h] += 1;
                if granted[h] == bound[h].res_len as usize {
                    ready.push(h);
                }
            }
        }
        finished += 1;
    }

    assert_eq!(
        finished,
        bound.len(),
        "relaxation stalled with instructions pending — the program-order \
         claim queues should make this impossible"
    );
    timings
}

/// Stage 2 + 3: build the claim queues, then drain the event heap.
fn commit(prog: &BoundProgram, map: &ResourceMap, hook: &mut dyn EventHook) -> Vec<Timing> {
    let bound = &prog.insts;
    let mut tl = build_timelines(prog, map);
    let mut granted = vec![0usize; bound.len()];
    let mut timings = vec![Timing::default(); bound.len()];
    let mut queue = EventQueue::with_capacity(bound.len());
    let mut finished = 0usize;

    // Initial grants: instructions already at the head of all their
    // queues start as soon as their resources are free (t = 0).
    for (i, b) in bound.iter().enumerate() {
        granted[i] = prog
            .resources_of(i)
            .iter()
            .filter(|&&r| tl.head(r as usize) == Some(i))
            .count();
        if granted[i] == b.res_len as usize {
            schedule_start(i, prog, &tl, &mut timings, &mut queue);
        }
    }

    while let Some(ev) = queue.pop() {
        hook.on_event(&ev);
        let i = ev.kind.inst();
        if ev.kind.is_finish() {
            for &r in prog.resources_of(i) {
                if let Some(h) = tl.release(r as usize, i, ev.time) {
                    granted[h] += 1;
                    if granted[h] == bound[h].res_len as usize {
                        schedule_start(h, prog, &tl, &mut timings, &mut queue);
                    }
                }
            }
            finished += 1;
        } else if !matches!(ev.kind, EventKind::JunctionTransit { .. }) {
            // A start event: take exclusive ownership (double-booking
            // panics inside `reserve`), emit any junction transits, and
            // schedule the finish.
            let b = &bound[i];
            for &r in prog.resources_of(i) {
                tl.reserve(r as usize, i);
            }
            let Timing { start, end, .. } = timings[i];
            let junctions = prog.junctions_of(i);
            let crossings = junctions.len();
            for (c, &j) in junctions.iter().enumerate() {
                let frac = (c + 1) as f64 / (crossings + 1) as f64;
                let at = start + b.duration * frac;
                queue.push(
                    at,
                    EventKind::JunctionTransit {
                        inst: i,
                        junction: j,
                    },
                );
            }
            queue.push(end, b.finish_kind(i));
        }
    }

    assert_eq!(
        finished,
        bound.len(),
        "event kernel stalled with instructions pending — the program-order \
         claim queues should make this impossible"
    );
    timings
}

/// Resolves instruction `i`'s start/end/wait from its resources' free
/// times. Called exactly once per instruction, at the moment it holds
/// the head of all its queues — at which point every `free_at` it reads
/// is final.
fn resolve_timing(i: usize, prog: &BoundProgram, tl: &ResourceTimelines, timings: &mut [Timing]) {
    let b = &prog.insts[i];
    let resources = prog.resources_of(i);
    let (start, wait) = if b.op == OpClass::Leg {
        // Mirrors the legacy engine's move step: the queueing delay is
        // how long the ion sat waiting for path elements, never the
        // reverse.
        let ion_free = tl.free_at(resources[0] as usize);
        let path_free = resources[1..]
            .iter()
            .fold(0.0f64, |t, &r| t.max(tl.free_at(r as usize)));
        (ion_free.max(path_free), (path_free - ion_free).max(0.0))
    } else {
        let start = resources
            .iter()
            .fold(0.0f64, |t, &r| t.max(tl.free_at(r as usize)));
        (start, 0.0)
    };
    timings[i] = Timing {
        start,
        end: start + b.duration,
        wait,
    };
}

/// [`resolve_timing`] plus the start event, for the observed event loop.
fn schedule_start(
    i: usize,
    prog: &BoundProgram,
    tl: &ResourceTimelines,
    timings: &mut [Timing],
    queue: &mut EventQueue,
) {
    resolve_timing(i, prog, tl, timings);
    queue.push(timings[i].start, prog.insts[i].start_kind(i));
}

/// Stage 4: fold per-instruction timings into the report in program
/// order, exactly as the legacy engine accumulates them step-by-step.
fn finalize(
    exe: &Executable,
    binder: Binder<'_>,
    prog: &BoundProgram,
    timings: &[Timing],
) -> SimReport {
    let mut gate_spans = SpanSet::new();
    let mut comm_spans = SpanSet::new();
    let mut gate_busy = 0.0;
    let mut shuttle_busy = 0.0;
    let mut shuttle_wait = 0.0;
    let mut makespan = 0.0f64;
    for (b, t) in prog.insts.iter().zip(timings) {
        match b.op {
            OpClass::Gate => {
                gate_spans.add(t.start, t.end);
                gate_busy += t.end - t.start;
            }
            OpClass::Leg => {
                shuttle_wait += t.wait;
                comm_spans.add(t.start, t.end);
                shuttle_busy += t.end - t.start;
            }
            OpClass::Split | OpClass::Merge | OpClass::IonSwap => {
                comm_spans.add(t.start, t.end);
                shuttle_busy += t.end - t.start;
            }
        }
        makespan = makespan.max(t.end);
    }

    let (compute_us, communication_us) = SpanSet::time_split(gate_spans, comm_spans);
    SimReport {
        name: exe.name().to_owned(),
        total_time_us: makespan,
        log_fidelity: binder.log_fidelity,
        counts: exe.counts(),
        peak_motional_energy: binder.trap_peak.iter().copied().fold(0.0, f64::max),
        trap_peak_energy: binder.trap_peak,
        trap_final_energy: binder.trap_energy,
        ms_executions: binder.ms_executions,
        ms_background_error_sum: binder.ms_background_sum,
        ms_motional_error_sum: binder.ms_motional_sum,
        errors: binder.errors,
        time: TimeBreakdown {
            compute_us,
            communication_us,
            gate_busy_us: gate_busy,
            shuttle_busy_us: shuttle_busy,
            shuttle_wait_us: shuttle_wait,
        },
    }
}
