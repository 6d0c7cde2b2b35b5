//! Qubit-dependency DAG over a circuit's operations.
//!
//! QC IR has only data dependencies (§VI): operation *j* depends on the most
//! recent earlier operation touching each of *j*'s qubits. The DAG drives
//! the compiler's *earliest ready gate first* scheduling heuristic and the
//! logical-depth statistic of Table II's benchmarks.

use crate::circuit::Circuit;
use fixedbitset::FixedBitSet;

/// Dependency DAG of a [`Circuit`]: nodes are operation indices, edges point
/// from an operation to the operations that must wait for it.
///
/// # Example
///
/// ```
/// use qccd_circuit::{Circuit, DependencyDag, Qubit};
///
/// let mut c = Circuit::new("t", 3);
/// c.h(Qubit(0));          // 0
/// c.h(Qubit(1));          // 1: independent of 0
/// c.cx(Qubit(0), Qubit(1)); // 2: depends on 0 and 1
/// let dag = DependencyDag::new(&c);
/// assert_eq!(dag.predecessors(2), &[0, 1]);
/// assert_eq!(dag.depth(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DependencyDag {
    preds: Vec<Vec<usize>>,
    succs: Vec<Vec<usize>>,
}

impl DependencyDag {
    /// Builds the DAG by tracking the last operation per qubit.
    pub fn new(circuit: &Circuit) -> Self {
        let n = circuit.len();
        let mut preds: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut succs: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut last_on_qubit: Vec<Option<usize>> = vec![None; circuit.num_qubits() as usize];

        for (i, op) in circuit.iter().enumerate() {
            for q in op.qubits() {
                if let Some(p) = last_on_qubit[q.index()] {
                    // A two-qubit gate may share both operands with the same
                    // predecessor; record the edge once.
                    if preds[i].last() != Some(&p) && !preds[i].contains(&p) {
                        preds[i].push(p);
                        succs[p].push(i);
                    }
                }
                last_on_qubit[q.index()] = Some(i);
            }
        }
        DependencyDag { preds, succs }
    }

    /// Number of nodes (operations).
    pub fn len(&self) -> usize {
        self.preds.len()
    }

    /// `true` if the underlying circuit had no operations.
    pub fn is_empty(&self) -> bool {
        self.preds.is_empty()
    }

    /// Direct predecessors of operation `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn predecessors(&self, i: usize) -> &[usize] {
        &self.preds[i]
    }

    /// Direct successors of operation `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn successors(&self, i: usize) -> &[usize] {
        &self.succs[i]
    }

    /// Logical depth: length of the longest dependency chain (in
    /// operations). Zero for an empty circuit.
    pub fn depth(&self) -> usize {
        let mut level = vec![0usize; self.len()];
        let mut max = 0;
        // Operation indices are already a topological order (edges only go
        // forward in program order).
        for i in 0..self.len() {
            let l = self.preds[i].iter().map(|&p| level[p]).max().unwrap_or(0) + 1;
            level[i] = l;
            max = max.max(l);
        }
        max
    }

    /// Creates a ready-set tracker for list scheduling.
    pub fn ready_tracker(&self) -> ReadyTracker<'_> {
        let remaining: Vec<usize> = (0..self.len()).map(|i| self.preds[i].len()).collect();
        let mut ready = FixedBitSet::with_capacity(self.len());
        let mut ready_count = 0;
        for i in 0..self.len() {
            if self.preds[i].is_empty() {
                ready.insert(i);
                ready_count += 1;
            }
        }
        ReadyTracker {
            dag: self,
            remaining,
            ready,
            ready_count,
            scan_from: 0,
        }
    }
}

/// Incremental ready-set maintenance over a [`DependencyDag`].
///
/// The compiler repeatedly takes the earliest ready operation (smallest
/// program index among ready nodes — the paper's *earliest ready gate first*
/// heuristic) and marks it complete, releasing its successors.
///
/// The ready set is a bitset over operation indices plus a forward-only
/// scan cursor. The cursor is sound because the popped minimum is
/// monotone non-decreasing under the pop/complete protocol: completing
/// operation `i` can only release successors, and every successor has a
/// larger program index than `i`, so nothing below the last popped index
/// ever becomes ready again.
#[derive(Debug, Clone)]
pub struct ReadyTracker<'a> {
    dag: &'a DependencyDag,
    remaining: Vec<usize>,
    ready: FixedBitSet,
    ready_count: usize,
    /// Lower bound for the next minimum-bit scan.
    scan_from: usize,
}

impl<'a> ReadyTracker<'a> {
    /// Pops the earliest (smallest-index) ready operation, if any.
    pub fn pop_earliest(&mut self) -> Option<usize> {
        if self.ready_count == 0 {
            return None;
        }
        let i = self
            .ready
            .min_one_from(self.scan_from)
            // qccd-lint: allow(engine-panic) — the expect message documents a structural invariant; a violation is a bug, not an input error
            .expect("ready_count tracks set bits at or above the cursor");
        self.ready.remove(i);
        self.ready_count -= 1;
        self.scan_from = i;
        Some(i)
    }

    /// Marks operation `i` complete, releasing successors whose
    /// dependencies are all satisfied.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if `i` still has unsatisfied dependencies; the
    /// caller must only complete operations previously obtained from the
    /// ready set.
    pub fn complete(&mut self, i: usize) {
        debug_assert_eq!(self.remaining[i], 0, "completing a non-ready operation");
        for &s in self.dag.successors(i) {
            self.remaining[s] -= 1;
            if self.remaining[s] == 0 {
                self.ready.insert(s);
                self.ready_count += 1;
                // Successors always sit above `i` in program order, so the
                // cursor stays valid; lower it defensively in case a caller
                // completes out of pop order (public API).
                self.scan_from = self.scan_from.min(s);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::Qubit;

    fn diamond() -> Circuit {
        let mut c = Circuit::new("d", 2);
        c.h(Qubit(0)); // 0
        c.h(Qubit(1)); // 1
        c.cx(Qubit(0), Qubit(1)); // 2 depends on 0,1
        c.measure(Qubit(0)); // 3 depends on 2
        c.measure(Qubit(1)); // 4 depends on 2
        c
    }

    #[test]
    fn edges_follow_last_use() {
        let dag = DependencyDag::new(&diamond());
        assert_eq!(dag.predecessors(0), &[] as &[usize]);
        assert_eq!(dag.predecessors(2), &[0, 1]);
        assert_eq!(dag.predecessors(3), &[2]);
        assert_eq!(dag.successors(2), &[3, 4]);
    }

    #[test]
    fn depth_of_diamond_is_three() {
        let dag = DependencyDag::new(&diamond());
        assert_eq!(dag.depth(), 3);
    }

    #[test]
    fn shared_predecessor_recorded_once() {
        let mut c = Circuit::new("t", 2);
        c.cx(Qubit(0), Qubit(1)); // 0
        c.cx(Qubit(0), Qubit(1)); // 1 depends on 0 via both qubits
        let dag = DependencyDag::new(&c);
        assert_eq!(dag.predecessors(1), &[0]);
        assert_eq!(dag.successors(0), &[1]);
    }

    #[test]
    fn ready_tracker_walks_whole_dag_in_program_order_for_chain() {
        let mut c = Circuit::new("t", 1);
        for _ in 0..5 {
            c.h(Qubit(0));
        }
        let dag = DependencyDag::new(&c);
        let mut tracker = dag.ready_tracker();
        let mut order = Vec::new();
        while let Some(i) = tracker.pop_earliest() {
            order.push(i);
            tracker.complete(i);
        }
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn ready_tracker_prefers_earliest_among_parallel_roots() {
        let mut c = Circuit::new("t", 3);
        c.h(Qubit(2)); // 0
        c.h(Qubit(0)); // 1
        c.h(Qubit(1)); // 2
        let dag = DependencyDag::new(&c);
        let mut tracker = dag.ready_tracker();
        assert_eq!(tracker.pop_earliest(), Some(0));
        tracker.complete(0);
        assert_eq!(tracker.pop_earliest(), Some(1));
    }

    #[test]
    fn empty_circuit_yields_empty_dag() {
        let dag = DependencyDag::new(&Circuit::new("e", 4));
        assert!(dag.is_empty());
        assert_eq!(dag.depth(), 0);
        assert!(dag.ready_tracker().pop_earliest().is_none());
    }

    #[test]
    fn barrier_orders_across_qubits() {
        let mut c = Circuit::new("t", 2);
        c.h(Qubit(0)); // 0
        c.barrier_all(); // 1
        c.h(Qubit(1)); // 2 must follow the barrier
        let dag = DependencyDag::new(&c);
        assert_eq!(dag.predecessors(2), &[1]);
    }
}
