//! Interval bookkeeping for the compute/communication time decomposition
//! (the Fig. 6b analysis).

/// Accumulates time intervals for the compute/communication split, one
/// lane per resource.
///
/// The simulator records one set of gate intervals and one set of
/// communication intervals, then measures both at once with
/// [`SpanSet::time_split`]. Each interval goes in the lane of the
/// resource whose ready time it advances: its trap for a gate, split,
/// merge or ion swap, the first segment of its leg for a move. A
/// resource's ready time only grows, so each lane is recorded in time
/// order, and [`SpanSet::time_split`] sorts what is in effect a handful of
/// ordered runs. The result does not depend on the lane rule: lanes that
/// are out of order only make the sort slower.
///
/// Gate intervals go in with [`SpanSet::add_merged`], which folds a
/// touching or overlapping interval into its lane's last one, so the sort
/// sees about one entry per busy stretch of a trap rather than one per
/// gate. Only a lane recorded in time order merges this way; an interval
/// that starts before its lane's last one is kept as it is. Communication
/// intervals go in with [`SpanSet::add`] and are never merged.
#[derive(Debug, Clone, Default)]
pub struct SpanSet {
    /// `(key(start), key(end))` per interval, lane by lane.
    lanes: Vec<Vec<(i64, i64)>>,
}

/// Integer key whose signed order is [`f64::total_cmp`] order.
fn key(x: f64) -> i64 {
    let b = x.to_bits() as i64;
    b ^ (((b >> 63) as u64) >> 1) as i64
}

/// Inverse of [`key`] (the transform is an involution on the bits).
fn unkey(k: i64) -> f64 {
    f64::from_bits(key(f64::from_bits(k as u64)) as u64)
}

impl SpanSet {
    /// Creates an empty span set.
    pub fn new() -> Self {
        SpanSet::default()
    }

    /// Records the interval `[start, end)` in `lane`. Zero- or
    /// negative-length intervals are ignored.
    pub fn add(&mut self, lane: usize, start: f64, end: f64) {
        if end > start {
            self.lane(lane).push((key(start), key(end)));
        }
    }

    /// Records the interval `[start, end)` in `lane`, merged into the
    /// lane's last interval when it starts inside or at the end of that
    /// one (`last.start <= start <= last.end`): the last interval then
    /// ends at the larger of the two ends. Zero- or negative-length
    /// intervals are ignored.
    ///
    /// Merging keeps the union, its components, their endpoints and their
    /// order, so [`SpanSet::time_split`] measures a merged gate set bit for
    /// bit as it measures the unmerged one. It must not be used for the
    /// communication set, which is summed piecewise.
    pub fn add_merged(&mut self, lane: usize, start: f64, end: f64) {
        if end > start {
            let (start, end) = (key(start), key(end));
            let lane = self.lane(lane);
            match lane.last_mut() {
                Some(last) if last.0 <= start && start <= last.1 => last.1 = last.1.max(end),
                _ => lane.push((start, end)),
            }
        }
    }

    /// The intervals of `lane`, creating it (and every lane below it) if
    /// needed.
    fn lane(&mut self, lane: usize) -> &mut Vec<(i64, i64)> {
        if lane >= self.lanes.len() {
            self.lanes.resize_with(lane + 1, Vec::new);
        }
        &mut self.lanes[lane]
    }

    /// Every interval, concatenated lane by lane into the largest lane's
    /// allocation.
    fn into_concat(mut self) -> Vec<(i64, i64)> {
        let Some(largest) = (0..self.lanes.len()).max_by_key(|&l| self.lanes[l].len()) else {
            return Vec::new();
        };
        let total: usize = self.lanes.iter().map(Vec::len).sum();
        let mut all = std::mem::take(&mut self.lanes[largest]);
        all.reserve_exact(total - all.len());
        for lane in &self.lanes {
            all.extend_from_slice(lane);
        }
        all
    }

    /// Measures `(compute_us, communication_us)`: the length of the union
    /// of `gates`, and the time covered by `comm` but by no gate.
    ///
    /// Both sums are taken in increasing time order. Compute sums the
    /// merged gate runs (touching runs merge). Communication sums one
    /// term `t_k - t_{k-1}` per pair of consecutive distinct boundary
    /// times between which some comm interval and no gate is active.
    /// Every comm endpoint is a boundary: comm intervals are never
    /// coalesced, so a split → move → merge chain is summed piecewise.
    /// For finite times the result is bit-identical to measuring each
    /// elementary gap of the full boundary sweep.
    ///
    /// The lanes are concatenated and put in order with the stable
    /// [`slice::sort`], which finds the ordered runs and merges them:
    /// O(n log k) for k ordered lanes, O(n log n) at worst. Equal keys are
    /// equal values, so any correct sort gives the same sums. Gate lanes
    /// recorded with [`SpanSet::add_merged`] arrive with their touching
    /// intervals already merged, so the gate sort has fewer to order.
    pub fn time_split(gates: SpanSet, comm: SpanSet) -> (f64, f64) {
        // Merged gate runs, in start order, as key pairs in place.
        let mut runs = gates.into_concat();
        runs.sort();
        let mut merged = 0;
        for i in 0..runs.len() {
            if merged > 0 {
                let ce = unkey(runs[merged - 1].1);
                if unkey(runs[i].0) <= ce {
                    runs[merged - 1].1 = key(ce.max(unkey(runs[i].1)));
                    continue;
                }
            }
            runs[merged] = runs[i];
            merged += 1;
        }
        runs.truncate(merged);
        let compute = runs
            .iter()
            .fold(0.0, |total, &(s, e)| total + (unkey(e) - unkey(s)));

        // Sweep comm starts, comm ends and merged gate boundaries.
        // Gate boundaries strictly increase, so an even count consumed
        // means "outside every gate run". Within a lane both starts and
        // ends increase, so both halves are ordered runs too.
        let n: usize = comm.lanes.iter().map(Vec::len).sum();
        let mut keys: Vec<i64> = Vec::with_capacity(2 * n);
        for lane in &comm.lanes {
            keys.extend(lane.iter().map(|&(s, _)| s));
        }
        for lane in &comm.lanes {
            keys.extend(lane.iter().map(|&(_, e)| e));
        }
        // Free the lanes before the sorts allocate their scratch.
        drop(comm);
        let (starts, ends) = keys.split_at_mut(n);
        starts.sort();
        ends.sort();
        let bounds = 2 * runs.len();
        let bound = |g: usize| {
            let (s, e) = runs[g / 2];
            if g.is_multiple_of(2) {
                s
            } else {
                e
            }
        };
        let (mut i, mut j, mut g) = (0, 0, 0);
        let mut last = f64::NEG_INFINITY;
        let mut communication = 0.0;
        while j < n {
            let mut t = ends[j];
            if i < n {
                t = t.min(starts[i]);
            }
            if g < bounds {
                t = t.min(bound(g));
            }
            let tf = unkey(t);
            if i > j && g.is_multiple_of(2) && last.is_finite() {
                communication += tf - last;
            }
            while i < n && starts[i] == t {
                i += 1;
            }
            while j < n && ends[j] == t {
                j += 1;
            }
            if g < bounds && bound(g) == t {
                g += 1;
            }
            last = tf;
        }
        (compute, communication)
    }
}

#[cfg(test)]
impl SpanSet {
    /// Every recorded interval as `(start, end)`, lane by lane.
    pub(crate) fn intervals(&self) -> Vec<(f64, f64)> {
        self.lanes
            .iter()
            .flatten()
            .map(|&(s, e)| (unkey(s), unkey(e)))
            .collect()
    }

    /// Whether every lane is in time order: each interval starts at or
    /// after the previous one in its lane ends.
    pub(crate) fn lanes_are_ordered(&self) -> bool {
        self.lanes
            .iter()
            .all(|lane| lane.windows(2).all(|w| w[0].1 <= w[1].0))
    }
}

/// The original two-pass measurement, kept as the reference that
/// [`SpanSet::time_split`] must match bit for bit.
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

    fn set(intervals: &[(f64, f64)]) -> SpanSet {
        let mut s = SpanSet::new();
        for &(a, b) in intervals {
            s.add(0, a, b);
        }
        s
    }

    /// `time_split` of `(gates, comm)` must equal the reference bit for bit.
    fn assert_matches_reference(gates: &SpanSet, comm: &SpanSet) {
        let want = (
            reference::union_length(&gates.intervals()),
            reference::union_length_excluding(&comm.intervals(), &gates.intervals()),
        );
        let got = SpanSet::time_split(gates.clone(), comm.clone());
        assert_eq!(
            (got.0.to_bits(), got.1.to_bits()),
            (want.0.to_bits(), want.1.to_bits()),
            "got {got:?}, want {want:?}\ngates {gates:?}\ncomm {comm:?}"
        );
    }

    #[test]
    fn union_merges_overlaps() {
        let gates = set(&[(0.0, 10.0), (5.0, 15.0), (20.0, 25.0)]);
        let (compute, comm) = SpanSet::time_split(gates, SpanSet::new());
        assert!((compute - 20.0).abs() < 1e-12);
        assert_eq!(comm, 0.0);
    }

    #[test]
    fn empty_and_degenerate_intervals() {
        assert_eq!(
            SpanSet::time_split(SpanSet::new(), SpanSet::new()),
            (0.0, 0.0)
        );
        let degenerate = set(&[(5.0, 5.0), (7.0, 3.0)]);
        assert_eq!(
            SpanSet::time_split(degenerate.clone(), degenerate),
            (0.0, 0.0)
        );
    }

    #[test]
    fn exclusion_subtracts_overlap() {
        let comm = set(&[(0.0, 10.0)]);
        let gates = set(&[(4.0, 6.0)]);
        // Communication-only time: [0,4) and [6,10) = 8.
        let (compute, communication) = SpanSet::time_split(gates, comm);
        assert!((compute - 2.0).abs() < 1e-12);
        assert!((communication - 8.0).abs() < 1e-12);
    }

    #[test]
    fn exclusion_with_no_overlap_is_full_union() {
        let comm = set(&[(0.0, 3.0), (10.0, 12.0)]);
        let (_, communication) = SpanSet::time_split(SpanSet::new(), comm);
        assert!((communication - 5.0).abs() < 1e-12);
    }

    #[test]
    fn adjacent_intervals_do_not_double_count() {
        let gates = set(&[(0.0, 5.0), (5.0, 10.0)]);
        let (compute, _) = SpanSet::time_split(gates, SpanSet::new());
        assert!((compute - 10.0).abs() < 1e-12);
    }

    #[test]
    fn touching_comm_is_summed_piecewise() {
        // 0.1 + 0.2 != 0.3 in binary: a split → move chain must be
        // measured as two terms, exactly as the full sweep does.
        let comm = set(&[(0.0, 0.1), (0.1, 0.30000000000000004)]);
        assert_matches_reference(&SpanSet::new(), &comm);
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

    /// Random intervals on a small grid of non-dyadic times (`0.1·k`),
    /// all in lane 0 and in no particular order, so starts and ends tie,
    /// touch and nest often. At least one in four is zero-length or
    /// inverted, which `add` drops.
    fn random_intervals(state: &mut u64, max_len: u64, grid: u64) -> Vec<(usize, f64, f64)> {
        let len = xorshift(state) % (max_len + 1);
        (0..len)
            .map(|_| {
                let a = tenths(state, grid);
                let b = match xorshift(state) % 8 {
                    0 => a,
                    1 => a - 0.1 - tenths(state, 3),
                    _ => tenths(state, grid) + 0.1 + tenths(state, 4),
                };
                (0, a, b)
            })
            .collect()
    }

    /// `(gates, comm)` intervals on four lanes, each lane in time order,
    /// with times built by repeated addition as the simulator builds them
    /// (start + duration), so ties come from equal sums. A lane's clock
    /// sometimes stays at the last start, so later intervals nest.
    fn sums_of_tenths(state: &mut u64, n: u64) -> [Vec<(usize, f64, f64)>; 2] {
        let mut sets = [Vec::new(), Vec::new()];
        let mut clocks = [0.0f64; 4];
        for _ in 0..n {
            let lane = (xorshift(state) % 4) as usize;
            let start = clocks[lane];
            let end = start + 0.1 + tenths(state, 5);
            sets[(xorshift(state) % 2) as usize].push((lane, start, end));
            clocks[lane] = if xorshift(state).is_multiple_of(3) {
                start
            } else {
                end
            };
        }
        sets
    }

    /// A span set of `intervals`, recorded with `add_merged` or `add`.
    fn build(intervals: &[(usize, f64, f64)], merged: bool) -> SpanSet {
        let mut s = SpanSet::new();
        for &(lane, a, b) in intervals {
            if merged {
                s.add_merged(lane, a, b);
            } else {
                s.add(lane, a, b);
            }
        }
        s
    }

    #[test]
    fn add_merged_extends_only_from_the_lane_end() {
        let mut s = SpanSet::new();
        s.add_merged(0, 0.0, 1.0);
        s.add_merged(0, 1.0, 2.0); // touches: extended
        s.add_merged(0, 0.5, 1.5); // nested: absorbed
        s.add_merged(0, 3.0, 4.0); // gap: new interval
        s.add_merged(0, 2.5, 3.5); // starts before the last one: kept apart
        s.add_merged(1, 0.0, 1.0); // another lane
        assert_eq!(
            s.intervals(),
            vec![(0.0, 2.0), (3.0, 4.0), (2.5, 3.5), (0.0, 1.0)]
        );
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
            let gates = build(&random_intervals(&mut state, gate_len, grid), false);
            let comm = build(&random_intervals(&mut state, comm_len, grid), false);
            assert_matches_reference(&gates, &comm);
        }

        #[test]
        fn time_split_matches_reference_on_sums_of_tenths(
            seed in 1u64..u64::MAX,
            n in 1u64..48,
        ) {
            let mut state = seed;
            let [gates, comm] = sums_of_tenths(&mut state, n);
            assert_matches_reference(&build(&gates, false), &build(&comm, false));
        }

        #[test]
        fn merged_gate_lanes_split_like_unmerged_ones(
            seed in 1u64..u64::MAX,
            n in 1u64..48,
            len in 0u64..24,
            grid in 1u64..40,
        ) {
            // The lane-ordered gates merge touching sums. The random ones
            // arrive out of order, where merging an interval that starts
            // before the lane's last one would lose the time between.
            let mut state = seed;
            let [ordered, comm] = sums_of_tenths(&mut state, n);
            let shuffled = random_intervals(&mut state, len, grid);
            let comm = build(&comm, false);
            for gates in [ordered, shuffled] {
                let want = SpanSet::time_split(build(&gates, false), comm.clone());
                let got = SpanSet::time_split(build(&gates, true), comm.clone());
                assert_eq!(
                    (got.0.to_bits(), got.1.to_bits()),
                    (want.0.to_bits(), want.1.to_bits()),
                    "merged {got:?}, unmerged {want:?}\ngates {gates:?}\ncomm {comm:?}"
                );
            }
        }
    }
}
