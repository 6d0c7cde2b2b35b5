//! Static circuit analysis: the statistics behind Table II.
//!
//! For each benchmark the paper reports qubit count, two-qubit gate count
//! and a qualitative *communication pattern*. [`CircuitStats`] computes
//! these (plus depth and interaction-distance percentiles) from any
//! [`Circuit`], and [`CommunicationPattern`] reproduces the qualitative
//! classification.

use crate::circuit::{Circuit, Operation};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Qualitative communication pattern of a circuit, as in Table II.
///
/// The classification looks at the distribution of |i−j| over two-qubit
/// gates *in program-qubit index space*, which is the natural layout for
/// the line-mapped NISQ benchmarks the paper studies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CommunicationPattern {
    /// Almost all interactions are between adjacent (or near-adjacent)
    /// program qubits — e.g. QAOA's hardware-efficient ansatz, Supremacy.
    NearestNeighbor,
    /// Interactions within a small neighbourhood — e.g. the ripple-carry
    /// Adder.
    ShortRange,
    /// A mix of short- and long-range interactions — e.g. SquareRoot, BV.
    ShortAndLongRange,
    /// Every distance occurs — e.g. QFT's all-to-all sequence.
    AllDistances,
}

impl fmt::Display for CommunicationPattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CommunicationPattern::NearestNeighbor => "nearest neighbor gates",
            CommunicationPattern::ShortRange => "short range gates",
            CommunicationPattern::ShortAndLongRange => "short and long-range gates",
            CommunicationPattern::AllDistances => "all distances",
        };
        f.write_str(s)
    }
}

/// Summary statistics of a circuit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CircuitStats {
    /// Circuit name.
    pub name: String,
    /// Number of program qubits.
    pub qubits: u32,
    /// Number of two-qubit gates.
    pub two_qubit_gates: usize,
    /// Number of single-qubit gates.
    pub one_qubit_gates: usize,
    /// Number of measurements.
    pub measurements: usize,
    /// Logical depth (longest dependency chain).
    pub depth: usize,
    /// Histogram of |i−j| over two-qubit gates; index 0 is distance 1.
    pub distance_histogram: Vec<usize>,
    /// Median two-qubit interaction distance (0 if no 2q gates).
    pub median_distance: usize,
    /// 95th-percentile interaction distance (0 if no 2q gates).
    pub p95_distance: usize,
    /// Maximum interaction distance (0 if no 2q gates).
    pub max_distance: usize,
    /// Qualitative communication pattern.
    pub pattern: CommunicationPattern,
}

impl CircuitStats {
    /// Analyzes `circuit`.
    pub fn of(circuit: &Circuit) -> Self {
        let mut distances: Vec<usize> = Vec::new();
        for op in circuit.iter() {
            if let Operation::TwoQubit { a, b, .. } = op {
                distances.push(a.index().abs_diff(b.index()));
            }
        }
        distances.sort_unstable();
        let max_distance = distances.last().copied().unwrap_or(0);
        let mut histogram = vec![0usize; max_distance.max(1)];
        for &d in &distances {
            if d >= 1 {
                histogram[d - 1] += 1;
            }
        }
        let percentile = |p: f64| -> usize {
            if distances.is_empty() {
                0
            } else {
                let idx = ((distances.len() as f64 - 1.0) * p).round() as usize;
                distances[idx]
            }
        };
        let median_distance = percentile(0.5);
        let p95_distance = percentile(0.95);
        let pattern = classify(
            circuit.num_qubits(),
            median_distance,
            p95_distance,
            max_distance,
            &distances,
        );
        CircuitStats {
            name: circuit.name().to_owned(),
            qubits: circuit.num_qubits(),
            two_qubit_gates: distances.len(),
            one_qubit_gates: circuit.one_qubit_gate_count(),
            measurements: circuit.measure_count(),
            depth: logical_depth(circuit),
            distance_histogram: histogram,
            median_distance,
            p95_distance,
            max_distance,
            pattern,
        }
    }
}

/// Logical depth: the length, in operations, of the longest dependency
/// chain, where an operation depends on the last earlier operation on
/// each of its qubits (QC IR has only data dependencies, §VI). Zero for
/// an empty circuit.
///
/// One pass in program order over per-qubit levels: an operation's level
/// is one more than the highest level any of its qubits has reached, and
/// it lifts each of its qubits to that level. Its predecessors are
/// exactly the operations that last set those levels, so the highest
/// level is the dependency DAG's longest path.
fn logical_depth(circuit: &Circuit) -> usize {
    let mut level = vec![0usize; circuit.num_qubits() as usize];
    let mut depth = 0;
    for op in circuit.iter() {
        let l = 1 + op.qubits().map(|q| level[q.index()]).max().unwrap_or(0);
        for q in op.qubits() {
            level[q.index()] = l;
        }
        depth = depth.max(l);
    }
    depth
}

/// Classifies the communication pattern from distance percentiles.
///
/// Thresholds (fractions of the qubit count n):
/// * nearest-neighbour: p95 ≤ max(2, n/8) **and** at most two distinct
///   distances occur — regular lattice couplings (a line, or the two axes
///   of a row-major 2-D grid) produce exactly this signature;
/// * short-range: p95 ≤ n/4;
/// * all-distances: distances cover ≥ half of all possible values *and*
///   the circuit interacts a dense fraction (≥ ¼) of all qubit pairs —
///   this separates QFT's everybody-with-everybody pattern from
///   star-shaped circuits like BV that merely touch every distance once;
/// * otherwise: short-and-long-range.
fn classify(
    n: u32,
    _median: usize,
    p95: usize,
    max: usize,
    distances: &[usize],
) -> CommunicationPattern {
    let n = n as usize;
    if distances.is_empty() {
        return CommunicationPattern::NearestNeighbor;
    }
    let mut covered = vec![false; max + 1];
    for &d in distances {
        covered[d] = true;
    }
    let distinct = covered.iter().filter(|&&b| b).count();
    if p95 <= (n / 8).max(2) && distinct <= 2 {
        return CommunicationPattern::NearestNeighbor;
    }
    if p95 <= n / 4 {
        return CommunicationPattern::ShortRange;
    }
    if n > 1 && distinct * 2 >= n - 1 && distances.len() * 4 >= n * (n - 1) / 2 {
        CommunicationPattern::AllDistances
    } else {
        CommunicationPattern::ShortAndLongRange
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::Qubit;

    #[test]
    fn nearest_neighbor_line_is_classified_nn() {
        let mut c = Circuit::new("line", 32);
        for layer in 0..4 {
            let _ = layer;
            for i in 0..31 {
                c.cx(Qubit(i), Qubit(i + 1));
            }
        }
        let stats = CircuitStats::of(&c);
        assert_eq!(stats.pattern, CommunicationPattern::NearestNeighbor);
        assert_eq!(stats.median_distance, 1);
        assert_eq!(stats.max_distance, 1);
    }

    #[test]
    fn all_to_all_is_classified_all_distances() {
        let mut c = Circuit::new("a2a", 16);
        for i in 0..16u32 {
            for j in (i + 1)..16 {
                c.cz(Qubit(i), Qubit(j));
            }
        }
        let stats = CircuitStats::of(&c);
        assert_eq!(stats.pattern, CommunicationPattern::AllDistances);
        assert_eq!(stats.max_distance, 15);
    }

    #[test]
    fn short_range_window_is_classified_short() {
        // Several distinct short distances: local but not lattice-regular.
        let mut c = Circuit::new("win", 64);
        for i in 0..56u32 {
            c.cx(Qubit(i), Qubit(i + 3 + i % 3));
        }
        let stats = CircuitStats::of(&c);
        assert_eq!(stats.pattern, CommunicationPattern::ShortRange);
    }

    #[test]
    fn grid_signature_is_nearest_neighbor() {
        // Row-major 8×8 grid couplings: distances 1 and 8 only.
        let mut c = Circuit::new("grid", 64);
        for r in 0..8u32 {
            for col in 0..7u32 {
                c.cz(Qubit(r * 8 + col), Qubit(r * 8 + col + 1));
            }
        }
        for r in 0..7u32 {
            for col in 0..8u32 {
                c.cz(Qubit(r * 8 + col), Qubit((r + 1) * 8 + col));
            }
        }
        let stats = CircuitStats::of(&c);
        assert_eq!(stats.pattern, CommunicationPattern::NearestNeighbor);
    }

    #[test]
    fn star_touching_every_distance_is_not_all_distances() {
        // BV-like: every distance occurs once, but only n-1 pairs interact.
        let mut c = Circuit::new("star", 64);
        for i in 0..63u32 {
            c.cx(Qubit(i), Qubit(63));
        }
        assert_eq!(
            CircuitStats::of(&c).pattern,
            CommunicationPattern::ShortAndLongRange
        );
    }

    #[test]
    fn mixed_star_is_short_and_long() {
        // Bernstein–Vazirani-like: everything targets one ancilla.
        let mut c = Circuit::new("star", 64);
        for i in 0..63u32 {
            c.cx(Qubit(i), Qubit(63));
        }
        let stats = CircuitStats::of(&c);
        assert_eq!(stats.two_qubit_gates, 63);
        assert!(matches!(
            stats.pattern,
            CommunicationPattern::ShortAndLongRange | CommunicationPattern::AllDistances
        ));
    }

    #[test]
    fn histogram_counts_every_gate() {
        let mut c = Circuit::new("h", 8);
        c.cx(Qubit(0), Qubit(1));
        c.cx(Qubit(0), Qubit(1));
        c.cx(Qubit(0), Qubit(4));
        let stats = CircuitStats::of(&c);
        assert_eq!(stats.distance_histogram[0], 2);
        assert_eq!(stats.distance_histogram[3], 1);
        assert_eq!(stats.distance_histogram.iter().sum::<usize>(), 3);
    }

    #[test]
    fn empty_circuit_has_zeroed_stats() {
        let stats = CircuitStats::of(&Circuit::new("e", 5));
        assert_eq!(stats.two_qubit_gates, 0);
        assert_eq!(stats.depth, 0);
        assert_eq!(stats.max_distance, 0);
        assert_eq!(stats.pattern, CommunicationPattern::NearestNeighbor);
    }

    #[test]
    fn empty_circuit_has_depth_zero() {
        let c = Circuit::new("e", 4);
        assert_eq!(c.iter().count(), 0);
        assert_eq!(logical_depth(&c), 0);
        assert_eq!(logical_depth(&Circuit::new("e", 0)), 0);
    }

    #[test]
    fn depth_of_diamond_is_three() {
        let mut c = Circuit::new("d", 2);
        c.h(Qubit(0)); // 0
        c.h(Qubit(1)); // 1
        c.cx(Qubit(0), Qubit(1)); // 2 depends on 0,1
        c.measure(Qubit(0)); // 3 depends on 2
        c.measure(Qubit(1)); // 4 depends on 2
        assert_eq!(CircuitStats::of(&c).depth, 3);
    }

    #[test]
    fn depth_follows_last_use() {
        // Ops 0 and 1 touch distinct qubits, so they share level 1; op 2
        // waits for both; op 3 only for op 1, the last use of q1.
        let mut c = Circuit::new("t", 3);
        c.h(Qubit(0)); // 0
        c.h(Qubit(1)); // 1
        c.cx(Qubit(0), Qubit(2)); // 2
        c.h(Qubit(1)); // 3
        assert_eq!(CircuitStats::of(&c).depth, 2);
        c.cx(Qubit(2), Qubit(1)); // 4: after 2 (level 2) and 3 (level 2)
        assert_eq!(CircuitStats::of(&c).depth, 3);
    }

    #[test]
    fn shared_predecessor_counts_once() {
        // Op 1 depends on op 0 through both qubits: one level, not two.
        let mut c = Circuit::new("t", 2);
        c.cx(Qubit(0), Qubit(1));
        c.cx(Qubit(0), Qubit(1));
        assert_eq!(CircuitStats::of(&c).depth, 2);
    }

    #[test]
    fn barrier_orders_across_qubits() {
        let mut c = Circuit::new("t", 2);
        c.h(Qubit(0));
        c.h(Qubit(1));
        assert_eq!(CircuitStats::of(&c).depth, 1);
        let mut fenced = Circuit::new("t", 2);
        fenced.h(Qubit(0)); // 0
        fenced.barrier_all(); // 1
        fenced.h(Qubit(1)); // 2 must follow the barrier
        assert_eq!(CircuitStats::of(&fenced).depth, 3);
        // An empty barrier fences nothing and is one level of its own.
        let mut empty = Circuit::new("t", 2);
        empty.h(Qubit(0));
        empty.push(Operation::Barrier { qs: Vec::new() });
        assert_eq!(CircuitStats::of(&empty).depth, 1);
    }

    /// The longest chain of operations in which each shares a qubit with
    /// the next, by the quadratic longest-path recurrence over every
    /// earlier operation (not just the last one per qubit).
    fn reference_depth(c: &Circuit) -> usize {
        let ops = c.operations();
        let mut level = vec![0usize; ops.len()];
        for j in 0..ops.len() {
            let deps = (0..j).filter(|&i| ops[i].qubits().any(|q| ops[j].qubits().any(|r| r == q)));
            level[j] = 1 + deps.map(|i| level[i]).max().unwrap_or(0);
        }
        level.into_iter().max().unwrap_or(0)
    }

    /// A seeded random circuit over `n` qubits mixing one- and two-qubit
    /// gates, measurements and empty, partial and full barriers.
    fn random_with_barriers(rng: &mut impl rand::Rng, n: u32) -> Circuit {
        let mut c = Circuit::new("r", n);
        for _ in 0..rng.gen_range(0..60usize) {
            let q = Qubit(rng.gen_range(0..n));
            match rng.gen_range(0..6u32) {
                0 => c.h(q),
                1 => c.measure(q),
                2 if n > 1 => {
                    let mut r = Qubit(rng.gen_range(0..n));
                    if r == q {
                        r = Qubit((q.0 + 1) % n);
                    }
                    c.cx(q, r);
                }
                3 => c.push(Operation::Barrier { qs: Vec::new() }),
                4 => {
                    let qs = (0..n).filter(|_| rng.gen()).map(Qubit).collect();
                    c.push(Operation::Barrier { qs });
                }
                _ => c.barrier_all(),
            }
        }
        c
    }

    #[test]
    fn depth_equals_the_longest_dependency_path() {
        use rand::{Rng, SeedableRng};
        for case in 0..256u64 {
            let rng = &mut rand_chacha::ChaCha8Rng::seed_from_u64(case);
            let n = rng.gen_range(1..8u32);
            let c = random_with_barriers(rng, n);
            assert_eq!(
                CircuitStats::of(&c).depth,
                reference_depth(&c),
                "case {case}"
            );
        }
    }

    #[test]
    fn pattern_display_matches_paper_wording() {
        assert_eq!(
            CommunicationPattern::NearestNeighbor.to_string(),
            "nearest neighbor gates"
        );
        assert_eq!(
            CommunicationPattern::ShortAndLongRange.to_string(),
            "short and long-range gates"
        );
    }
}
