//! Initial-placement policies (pipeline seam 1).

use crate::config::MappingKind;
use crate::error::CompileError;
use crate::mapping::{check_capacity, fill_traps, initial_map, Placement};
use qccd_circuit::{Circuit, Operation};
use qccd_device::{Device, IonId, TrapId};

impl MappingKind {
    /// Places `circuit`'s qubits into `device`'s traps, leaving
    /// `buffer_slots` free per trap where the program fits (paper §VI).
    ///
    /// # Errors
    ///
    /// Returns [`CompileError::InsufficientCapacity`] if the device
    /// cannot hold the program even with the buffer fully relaxed.
    pub fn place(
        &self,
        circuit: &Circuit,
        device: &Device,
        buffer_slots: u32,
    ) -> Result<Placement, CompileError> {
        match self {
            // The paper's §VI mapper: first-use order, trap-id packing.
            MappingKind::RoundRobin => initial_map(circuit, device, buffer_slots),
            MappingKind::UsageWeighted => usage_weighted(circuit, device, buffer_slots),
        }
    }
}

/// Interaction-aware placement: co-locates frequently-interacting
/// qubits.
///
/// Each trap is seeded with the earliest unplaced qubit in first-use
/// order (so the schedule's head still finds its operands early), then
/// filled greedily with the unplaced qubit whose total two-qubit-gate
/// count with the trap's current residents is highest, breaking ties
/// toward earlier first use. Buffer slots are relaxed progressively
/// exactly as in [`initial_map`] (both fill traps through one packing
/// loop) when the program would not otherwise fit.
///
/// Heavily-communicating clusters start in one chain, trading a denser
/// initial chain for fewer cross-trap shuttles — the placement axis of
/// the shuttling-overhead studies (cf. Schoenberger et al. 2024, TITAN).
fn usage_weighted(
    circuit: &Circuit,
    device: &Device,
    buffer_slots: u32,
) -> Result<Placement, CompileError> {
    check_capacity(circuit, device)?;
    let n = circuit.num_qubits() as usize;

    // Pairwise interaction weights: how many two-qubit gates touch
    // each qubit pair.
    let mut weight = vec![0u32; n * n];
    for op in circuit.iter() {
        if let Operation::TwoQubit { a, b, .. } = op {
            weight[a.index() * n + b.index()] += 1;
            weight[b.index() * n + a.index()] += 1;
        }
    }

    // First-use rank: seed order and tie-breaker.
    let order = circuit.qubits_by_first_use();
    let mut rank = vec![0usize; n];
    for (r, q) in order.iter().enumerate() {
        rank[q.index()] = r;
    }

    // `affinity[q]`: total weight between `q` and the residents of
    // `filling`, the trap the last slot went to. Kept in step with that
    // chain as it grows, and rebuilt when placement moves to another trap
    // (or back to one after a buffer relaxation).
    let mut affinity = vec![0u64; n];
    let mut filling: Option<TrapId> = None;
    let mut placed = vec![false; n];
    Ok(fill_traps(
        circuit,
        device,
        buffer_slots,
        |_, trap, chain| {
            if filling != Some(trap) {
                filling = Some(trap);
                affinity.fill(0);
                for ion in chain {
                    add_row(&mut affinity, &weight[ion.index() * n..][..n]);
                }
            }
            let next = if chain.is_empty() {
                // Seed: earliest unplaced qubit in first-use order.
                order
                    .iter()
                    .map(|q| q.index())
                    .find(|&q| !placed[q])
                    // qccd-lint: allow(engine-panic) — the expect message documents a structural invariant; a violation is a bug, not an input error
                    .expect("an unplaced qubit remains while placing")
            } else {
                // Fill: highest affinity to the trap's residents, ties
                // toward earlier first use.
                (0..n)
                    .filter(|&q| !placed[q])
                    .max_by_key(|&q| (affinity[q], std::cmp::Reverse(rank[q])))
                    // qccd-lint: allow(engine-panic) — the expect message documents a structural invariant; a violation is a bug, not an input error
                    .expect("an unplaced qubit remains while placing")
            };
            placed[next] = true;
            add_row(&mut affinity, &weight[next * n..][..n]);
            IonId(next as u32)
        },
    ))
}

/// Adds one qubit's row of pairwise weights into an affinity row.
fn add_row(affinity: &mut [u64], weights: &[u32]) {
    for (a, &w) in affinity.iter_mut().zip(weights) {
        *a += u64::from(w);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qccd_circuit::Qubit;
    use qccd_device::presets;

    #[test]
    fn round_robin_is_exactly_initial_map() {
        let mut c = Circuit::new("t", 40);
        for i in (0..40).rev() {
            c.h(Qubit(i));
        }
        let d = presets::l6(12);
        assert_eq!(
            MappingKind::RoundRobin.place(&c, &d, 2).unwrap(),
            initial_map(&c, &d, 2).unwrap()
        );
    }

    #[test]
    fn usage_weighted_co_locates_interacting_pairs() {
        // Qubits 0 and 9 interact heavily; round-robin spreads them into
        // different traps (first-use order 0..10 over capacity-3 traps),
        // usage-weighted must put them into the same chain.
        let mut c = Circuit::new("t", 10);
        for i in 0..10 {
            c.h(Qubit(i)); // first-use order = index order
        }
        for _ in 0..5 {
            c.cx(Qubit(0), Qubit(9));
        }
        let d = presets::linear(4, 3, 4);
        let trap_of = |p: &Placement, q: u32| -> usize {
            p.chains()
                .iter()
                .position(|chain| chain.contains(&IonId(q)))
                .unwrap()
        };
        let rr = MappingKind::RoundRobin.place(&c, &d, 0).unwrap();
        assert_ne!(trap_of(&rr, 0), trap_of(&rr, 9), "RR spreads the pair");
        let uw = MappingKind::UsageWeighted.place(&c, &d, 0).unwrap();
        assert_eq!(trap_of(&uw, 0), trap_of(&uw, 9), "UW co-locates the pair");
    }

    #[test]
    fn usage_weighted_places_every_qubit_once() {
        let c = qccd_circuit::generators::qft(30);
        let p = MappingKind::UsageWeighted
            .place(&c, &presets::l6(8), 2)
            .unwrap();
        assert_eq!(p.num_ions(), 30);
        let mut seen = vec![false; 30];
        for chain in p.chains() {
            for ion in chain {
                assert!(!seen[ion.index()], "{ion} placed twice");
                seen[ion.index()] = true;
            }
        }
        assert!(seen.into_iter().all(|b| b));
    }

    #[test]
    fn usage_weighted_relaxes_buffer_when_tight() {
        // 78 qubits on 6×14 = 84 slots forces relaxation to 1 free slot,
        // mirroring the round-robin mapper's behavior.
        let mut c = Circuit::new("line", 78);
        for i in 0..77 {
            c.cx(Qubit(i), Qubit(i + 1));
        }
        let p = MappingKind::UsageWeighted
            .place(&c, &presets::l6(14), 2)
            .unwrap();
        assert_eq!(p.num_ions(), 78);
        assert_eq!(p.chains().iter().map(Vec::len).max(), Some(13));
    }

    #[test]
    fn usage_weighted_fails_when_physically_impossible() {
        let c = qccd_circuit::generators::qft(100);
        let err = MappingKind::UsageWeighted
            .place(&c, &presets::l6(14), 2)
            .unwrap_err();
        assert!(matches!(err, CompileError::InsufficientCapacity { .. }));
    }

    /// Usage-weighted placement as first written: every candidate's
    /// affinity re-summed against the whole chain for every slot.
    fn per_candidate_sum_placement(circuit: &Circuit, device: &Device, buffer: u32) -> Placement {
        let n = circuit.num_qubits() as usize;
        let mut weight = vec![0u32; n * n];
        for op in circuit.iter() {
            if let Operation::TwoQubit { a, b, .. } = op {
                weight[a.index() * n + b.index()] += 1;
                weight[b.index() * n + a.index()] += 1;
            }
        }
        let order = circuit.qubits_by_first_use();
        let mut rank = vec![0usize; n];
        for (r, q) in order.iter().enumerate() {
            rank[q.index()] = r;
        }
        let mut placed = vec![false; n];
        fill_traps(circuit, device, buffer, |_, _, chain| {
            let next = if chain.is_empty() {
                order
                    .iter()
                    .map(|q| q.index())
                    .find(|&q| !placed[q])
                    .unwrap()
            } else {
                let affinity = |q: usize| -> u64 {
                    chain
                        .iter()
                        .map(|ion| u64::from(weight[q * n + ion.index()]))
                        .sum()
                };
                (0..n)
                    .filter(|&q| !placed[q])
                    .max_by_key(|&q| (affinity(q), std::cmp::Reverse(rank[q])))
                    .unwrap()
            };
            placed[next] = true;
            IonId(next as u32)
        })
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// The incremental affinity row picks exactly what the
        /// per-candidate sum picks, including when the program fills the
        /// device far enough to relax the buffer and revisit traps.
        #[test]
        fn incremental_affinity_matches_per_candidate_sum(
            traps in 1u32..7,
            capacity in 2u32..9,
            buffer in 0u32..4,
            fill in 0.0f64..1.0,
            ops in 0usize..300,
            seed in 0u64..u64::MAX,
        ) {
            let d = if traps == 6 {
                presets::g2x3(capacity)
            } else {
                presets::linear(traps, capacity, 4)
            };
            let slots = d.total_capacity();
            let n = (2 + (f64::from(slots - 2) * fill) as u32).min(slots);
            let c = qccd_circuit::generators::random_circuit(n, ops, 0.6, seed);
            proptest::prop_assert_eq!(
                MappingKind::UsageWeighted.place(&c, &d, buffer).unwrap(),
                per_candidate_sum_placement(&c, &d, buffer)
            );
        }
    }

    #[test]
    fn usage_weighted_is_deterministic() {
        let c = qccd_circuit::generators::random_circuit(24, 200, 0.5, 9);
        let d = presets::g2x3(10);
        assert_eq!(
            MappingKind::UsageWeighted.place(&c, &d, 2).unwrap(),
            MappingKind::UsageWeighted.place(&c, &d, 2).unwrap()
        );
    }
}
