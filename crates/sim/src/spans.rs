//! The boundary timeline behind the compute/communication time split
//! (the Fig. 6b analysis).

/// Integer key whose signed order is [`f64::total_cmp`] order.
fn key(x: f64) -> i64 {
    let b = x.to_bits() as i64;
    b ^ (((b >> 63) as u64) >> 1) as i64
}

/// Inverse of [`key`] (the transform is an involution on the bits).
fn unkey(k: i64) -> f64 {
    f64::from_bits(key(f64::from_bits(k as u64)) as u64)
}

/// The `next` of the last node.
const END: u32 = u32::MAX;

/// One distinct boundary time of a [`Timeline`].
///
/// The two counts are net: intervals that start here minus those that
/// end here. At most one gate run per trap is open at a time, so the
/// gate count stays within the trap count, which `MAX_DEVICE_NODES`
/// (4096) bounds, and `i32` holds it. The communication count has no
/// such bound: a hand-built leg may cross no segment and hold no
/// resource, so every in-flight ion can be moving at once. It is an
/// `i64`, which keeps the node at 24 bytes.
#[derive(Debug, Clone, Copy)]
struct Node {
    /// [`key`] of the boundary time.
    key: i64,
    /// Net communication intervals starting here.
    comm: i64,
    /// The next later boundary, or [`END`].
    next: u32,
    /// Net gate runs starting here.
    gate: i32,
}

/// Every interval boundary the simulator records, kept in time order as
/// it is recorded, so that [`Timeline::time_split`] is one walk with no
/// sort.
///
/// The nodes form a linked list in an arena: node [`Timeline::ZERO`] is
/// time zero, and each later node is one distinct time (by
/// [`f64::total_cmp`]), linked to the next later one. Every interval is
/// recorded from the node of its start, which the caller already holds:
/// each start is the ready time of some resource, and each ready time is
/// time zero or an end placed earlier. Placing the end walks forward
/// from the start past the boundaries already recorded inside the
/// interval, then reuses the end's node or inserts it. Times must not
/// run backwards: an end is never before its start, which holds for any
/// model that passes `PhysicalModel::validate`.
///
/// Node ids are `u32`; an instruction stream places at most one node per
/// instruction, and no stream of `u32::MAX` instructions fits in memory.
#[derive(Debug, Clone)]
pub(crate) struct Timeline {
    nodes: Vec<Node>,
}

impl Timeline {
    /// The node of time zero, where every resource starts ready.
    pub(crate) const ZERO: u32 = 0;

    /// A timeline holding only time zero, with room for `boundaries`
    /// more before it reallocates.
    pub(crate) fn new(boundaries: usize) -> Self {
        let mut nodes = Vec::with_capacity(boundaries + 1);
        nodes.push(Node {
            key: key(0.0),
            comm: 0,
            next: END,
            gate: 0,
        });
        Timeline { nodes }
    }

    /// The node of time `t`, found by walking forward from node `from`,
    /// whose time is at or before `t`, and inserted if `t` is new.
    fn at(&mut self, from: u32, t: f64) -> u32 {
        let k = key(t);
        let mut cur = from as usize;
        if self.nodes[cur].key == k {
            return from;
        }
        loop {
            let next = self.nodes[cur].next;
            if next == END || self.nodes[next as usize].key > k {
                break;
            }
            if self.nodes[next as usize].key == k {
                return next;
            }
            cur = next as usize;
        }
        let id = self.nodes.len() as u32;
        self.nodes.push(Node {
            key: k,
            comm: 0,
            next: self.nodes[cur].next,
            gate: 0,
        });
        self.nodes[cur].next = id;
        id
    }

    /// Records the communication interval from node `start`'s time to
    /// `end` and returns the node of `end`. An interval that does not end
    /// after it starts records nothing and returns `start`.
    pub(crate) fn comm(&mut self, start: u32, end: f64) -> u32 {
        if key(end) <= self.nodes[start as usize].key {
            return start;
        }
        let e = self.at(start, end);
        self.nodes[start as usize].comm += 1;
        self.nodes[e as usize].comm -= 1;
        e
    }

    /// Opens a gate run at node `start`.
    pub(crate) fn open_gate(&mut self, start: u32) {
        self.nodes[start as usize].gate += 1;
    }

    /// Closes the gate run opened at node `start` at time `end`, and
    /// returns the node of `end`. A run that ends where it starts nets
    /// to nothing.
    pub(crate) fn close_gate(&mut self, start: u32, end: f64) -> u32 {
        let e = self.at(start, end);
        self.nodes[e as usize].gate -= 1;
        e
    }

    /// Measures `(compute_us, communication_us)`: the length of the
    /// union of the gate runs, and the time covered by some
    /// communication interval but by no gate run.
    ///
    /// One walk in time order. Compute sums the merged gate runs (runs
    /// that touch or overlap merge), in start order. Communication sums
    /// one term `t_k - t_{k-1}` per pair of consecutive boundaries
    /// between which some communication interval and no gate run is
    /// active. Every communication endpoint is a boundary: communication
    /// intervals are never coalesced, so a split → move → merge chain is
    /// summed piecewise. The list also holds boundaries where a gate run
    /// is active or nothing is (a run's end inside another trap's run,
    /// time zero); those add no term. For finite times the result is
    /// bit-identical to measuring each elementary gap of the full
    /// boundary sweep.
    pub(crate) fn time_split(&self) -> (f64, f64) {
        let (mut compute, mut communication) = (0.0, 0.0);
        let (mut comm, mut gate) = (0i64, 0i32);
        let (mut last, mut run_start) = (0.0, 0.0);
        let mut i = Timeline::ZERO;
        while i != END {
            let node = self.nodes[i as usize];
            let t = unkey(node.key);
            if comm > 0 && gate == 0 {
                communication += t - last;
            }
            let was_gated = gate > 0;
            gate += node.gate;
            comm += node.comm;
            match (was_gated, gate > 0) {
                (false, true) => run_start = t,
                (true, false) => compute += t - run_start,
                _ => {}
            }
            last = t;
            i = node.next;
        }
        (compute, communication)
    }
}

#[cfg(test)]
impl Timeline {
    /// Every node in list order, as `(time, net comm, net gate)`.
    pub(crate) fn boundaries(&self) -> Vec<(f64, i64, i32)> {
        let mut out = Vec::new();
        let mut i = Timeline::ZERO;
        while i != END {
            let n = self.nodes[i as usize];
            out.push((unkey(n.key), n.comm, n.gate));
            i = n.next;
        }
        out
    }

    /// The time of node `i`.
    fn time(&self, i: u32) -> f64 {
        unkey(self.nodes[i as usize].key)
    }
}

/// The original two-pass measurement, kept as the reference that
/// [`Timeline::time_split`] must match bit for bit.
#[cfg(test)]
pub(crate) mod reference {
    /// Length of the union of `intervals`.
    pub(crate) fn union_length(intervals: &[(f64, f64)]) -> f64 {
        let mut iv = intervals.to_vec();
        iv.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut total = 0.0;
        let mut cur: Option<(f64, f64)> = None;
        for (s, e) in iv {
            match cur {
                None => cur = Some((s, e)),
                Some((cs, ce)) => {
                    if s <= ce {
                        cur = Some((cs, ce.max(e)));
                    } else {
                        total += ce - cs;
                        cur = Some((s, e));
                    }
                }
            }
        }
        if let Some((cs, ce)) = cur {
            total += ce - cs;
        }
        total
    }

    /// Time covered by `mine` but not by `other`.
    pub(crate) fn union_length_excluding(mine: &[(f64, f64)], other: &[(f64, f64)]) -> f64 {
        let mut events: Vec<(f64, i32, i32)> = Vec::new();
        for &(s, e) in mine {
            events.push((s, 1, 0));
            events.push((e, -1, 0));
        }
        for &(s, e) in other {
            events.push((s, 0, 1));
            events.push((e, 0, -1));
        }
        events.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut m = 0;
        let mut o = 0;
        let mut last = f64::NEG_INFINITY;
        let mut total = 0.0;
        for (t, dm, dt) in events {
            if m > 0 && o == 0 && last.is_finite() {
                total += t - last;
            }
            m += dm;
            o += dt;
            last = t;
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A timeline of `gates` and `comm`, each interval recorded from time
    /// zero's node. Intervals that do not end after they start are
    /// dropped first, so they place no start node either.
    fn record(gates: &[(f64, f64)], comm: &[(f64, f64)]) -> Timeline {
        let mut tl = Timeline::new(2 * (gates.len() + comm.len()));
        for &(s, e) in gates.iter().filter(|(s, e)| e > s) {
            let start = tl.at(Timeline::ZERO, s);
            tl.open_gate(start);
            tl.close_gate(start, e);
        }
        for &(s, e) in comm.iter().filter(|(s, e)| e > s) {
            let start = tl.at(Timeline::ZERO, s);
            tl.comm(start, e);
        }
        tl
    }

    /// The split of `(gates, comm)` must equal the reference bit for bit.
    fn assert_matches_reference(gates: &[(f64, f64)], comm: &[(f64, f64)]) {
        let kept = |iv: &[(f64, f64)]| -> Vec<(f64, f64)> {
            iv.iter().copied().filter(|(s, e)| e > s).collect()
        };
        let (g, c) = (kept(gates), kept(comm));
        let want = (
            reference::union_length(&g),
            reference::union_length_excluding(&c, &g),
        );
        let got = record(gates, comm).time_split();
        assert_eq!(
            (got.0.to_bits(), got.1.to_bits()),
            (want.0.to_bits(), want.1.to_bits()),
            "got {got:?}, want {want:?}\ngates {gates:?}\ncomm {comm:?}"
        );
    }

    #[test]
    fn union_merges_overlaps() {
        let tl = record(&[(0.0, 10.0), (5.0, 15.0), (20.0, 25.0)], &[]);
        let (compute, comm) = tl.time_split();
        assert!((compute - 20.0).abs() < 1e-12);
        assert_eq!(comm, 0.0);
    }

    #[test]
    fn empty_and_degenerate_intervals() {
        assert_eq!(record(&[], &[]).time_split(), (0.0, 0.0));
        let degenerate = [(5.0, 5.0), (7.0, 3.0)];
        assert_eq!(record(&degenerate, &degenerate).time_split(), (0.0, 0.0));
    }

    #[test]
    fn exclusion_subtracts_overlap() {
        // Communication-only time: [0,4) and [6,10) = 8.
        let (compute, communication) = record(&[(4.0, 6.0)], &[(0.0, 10.0)]).time_split();
        assert!((compute - 2.0).abs() < 1e-12);
        assert!((communication - 8.0).abs() < 1e-12);
    }

    #[test]
    fn exclusion_with_no_overlap_is_full_union() {
        let (_, communication) = record(&[], &[(0.0, 3.0), (10.0, 12.0)]).time_split();
        assert!((communication - 5.0).abs() < 1e-12);
    }

    #[test]
    fn adjacent_intervals_do_not_double_count() {
        let (compute, _) = record(&[(0.0, 5.0), (5.0, 10.0)], &[]).time_split();
        assert!((compute - 10.0).abs() < 1e-12);
    }

    #[test]
    fn touching_comm_is_summed_piecewise() {
        // A 0.1 µs ion swap from 0.1 touches an 80 µs split: the two
        // terms sum to 80.1, one ulp short of the merged interval's
        // length, so a chain must be measured piece by piece, exactly as
        // the full sweep does.
        let (a, b) = (0.1, 0.1 + 0.1);
        let c = b + 80.0;
        assert_ne!((b - a) + (c - b), c - a);
        assert_matches_reference(&[], &[(a, b), (b, c)]);
    }

    #[test]
    fn an_earlier_end_recorded_later_is_walked_into_place() {
        let mut tl = Timeline::new(4);
        let five = tl.comm(Timeline::ZERO, 5.0);
        let three = tl.comm(Timeline::ZERO, 3.0);
        let four = tl.comm(three, 4.0);
        assert_eq!(
            (tl.time(five), tl.time(three), tl.time(four)),
            (5.0, 3.0, 4.0)
        );
        assert_eq!(
            tl.boundaries(),
            vec![(0.0, 2, 0), (3.0, 0, 0), (4.0, -1, 0), (5.0, -1, 0)]
        );
    }

    #[test]
    fn equal_ends_share_a_node() {
        let mut tl = Timeline::new(4);
        let one = tl.comm(Timeline::ZERO, 1.0);
        let a = tl.comm(Timeline::ZERO, 5.0);
        let b = tl.comm(one, 5.0);
        tl.open_gate(one);
        let c = tl.close_gate(one, 5.0);
        assert!(a == b && b == c);
        assert_eq!(
            tl.boundaries(),
            vec![(0.0, 2, 0), (1.0, 0, 1), (5.0, -2, -1)]
        );
    }

    #[test]
    fn a_zero_length_interval_adds_no_node() {
        let mut tl = Timeline::new(2);
        let two = tl.comm(Timeline::ZERO, 2.0);
        assert_eq!(tl.comm(two, 2.0), two);
        tl.open_gate(two);
        assert_eq!(tl.close_gate(two, 2.0), two);
        assert_eq!(tl.boundaries(), vec![(0.0, 1, 0), (2.0, -1, 0)]);
        assert_eq!(tl.time_split(), (0.0, 2.0));
    }

    /// Deterministic xorshift64 driving the interval generator.
    fn xorshift(state: &mut u64) -> u64 {
        let mut x = *state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *state = x;
        x
    }

    /// A multiple of 0.1 below `0.1 * n`.
    fn tenths(state: &mut u64, n: u64) -> f64 {
        (xorshift(state) % n) as f64 * 0.1
    }

    /// Random intervals on a small grid of non-dyadic times (`0.1·k`), in
    /// no particular order, so starts and ends tie, touch and nest often.
    /// At least one in four is zero-length or inverted, which the
    /// timeline drops.
    fn random_intervals(state: &mut u64, max_len: u64, grid: u64) -> Vec<(f64, f64)> {
        let len = xorshift(state) % (max_len + 1);
        (0..len)
            .map(|_| {
                let a = tenths(state, grid);
                let b = match xorshift(state) % 8 {
                    0 => a,
                    1 => a - 0.1 - tenths(state, 3),
                    _ => tenths(state, grid) + 0.1 + tenths(state, 4),
                };
                (a, b)
            })
            .collect()
    }

    /// `(gates, comm)` intervals on four resources, each resource's in
    /// time order, with times built by repeated addition as the
    /// simulator builds them (start + duration), so ties come from equal
    /// sums. A resource's clock sometimes stays at the last start, so
    /// later intervals nest.
    fn sums_of_tenths(state: &mut u64, n: u64) -> [Vec<(f64, f64)>; 2] {
        let mut sets = [Vec::new(), Vec::new()];
        let mut clocks = [0.0f64; 4];
        for _ in 0..n {
            let clock = (xorshift(state) % 4) as usize;
            let start = clocks[clock];
            let end = start + 0.1 + tenths(state, 5);
            sets[(xorshift(state) % 2) as usize].push((start, end));
            clocks[clock] = if xorshift(state).is_multiple_of(3) {
                start
            } else {
                end
            };
        }
        sets
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn time_split_matches_reference(
            seed in 1u64..u64::MAX,
            gate_len in 0u64..24,
            comm_len in 0u64..24,
            grid in 1u64..40,
        ) {
            let mut state = seed;
            let gates = random_intervals(&mut state, gate_len, grid);
            let comm = random_intervals(&mut state, comm_len, grid);
            assert_matches_reference(&gates, &comm);
        }

        #[test]
        fn time_split_matches_reference_on_sums_of_tenths(
            seed in 1u64..u64::MAX,
            n in 1u64..48,
        ) {
            let mut state = seed;
            let [gates, comm] = sums_of_tenths(&mut state, n);
            assert_matches_reference(&gates, &comm);
        }
    }
}
