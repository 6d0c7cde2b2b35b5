//! Initial-placement policies (pipeline seam 1).

use crate::config::MappingKind;
use crate::error::CompileError;
use crate::mapping::{check_capacity, fill_traps, initial_map, Placement};
use qccd_circuit::{Circuit, Operation};
use qccd_device::{Device, IonId};

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

    let mut placed = vec![false; n];
    Ok(fill_traps(circuit, device, buffer_slots, |_, chain| {
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
            let affinity = |q: usize| -> u64 {
                chain
                    .iter()
                    .map(|ion| u64::from(weight[q * n + ion.index()]))
                    .sum()
            };
            (0..n)
                .filter(|&q| !placed[q])
                .max_by_key(|&q| (affinity(q), std::cmp::Reverse(rank[q])))
                // qccd-lint: allow(engine-panic) — the expect message documents a structural invariant; a violation is a bug, not an input error
                .expect("an unplaced qubit remains while placing")
        };
        placed[next] = true;
        IonId(next as u32)
    }))
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
