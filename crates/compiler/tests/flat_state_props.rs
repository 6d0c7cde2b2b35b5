//! Randomized property pin for the flat-data-layout scheduler state.
//!
//! [`MachineState`]'s position index (the inverse of its chains) rides
//! the scheduling hot path and must stay consistent with the chains it
//! summarizes under arbitrary interleavings of `swap_positions` /
//! `remove_end` / `insert_end`. Trap fullness needs no pin of its own:
//! the scheduler reads it straight from the chain lengths.
//!
//! Each proptest case draws a seed for a deterministic xorshift walk,
//! so failures replay.

use proptest::prelude::*;
use qccd_compiler::{MachineState, Placement};
use qccd_device::{IonId, Side, TrapId};

/// Deterministic xorshift64 — cheap op-sequence driver.
fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

fn pick(state: &mut u64, n: usize) -> usize {
    (xorshift(&mut *state) % n as u64) as usize
}

fn side(state: &mut u64) -> Side {
    if pick(state, 2) == 0 {
        Side::Left
    } else {
        Side::Right
    }
}

/// Naive mirror of the chain layout: the ground truth the index
/// summarizes.
struct Mirror {
    chains: Vec<Vec<IonId>>,
}

impl Mirror {
    fn check(&self, st: &MachineState) {
        let mut seen = 0;
        for (t, chain) in self.chains.iter().enumerate() {
            let trap = TrapId(t as u32);
            assert_eq!(st.chain(trap), chain.as_slice(), "chain of {trap}");
            assert_eq!(st.chain_len(trap), chain.len());
            for (p, &ion) in chain.iter().enumerate() {
                assert_eq!(st.trap_of(ion), Some(trap), "trap of {ion}");
                assert_eq!(st.position(ion), p, "position of {ion}");
                seen += 1;
            }
        }
        for i in 0..st.num_ions() {
            if st.trap_of(IonId(i)).is_none() {
                seen += 1;
            }
        }
        assert_eq!(seen, st.num_ions(), "every ion is in a chain or in flight");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The O(1) position index stays the exact inverse of the chains
    /// under any interleaving of the three mutating chain operations.
    #[test]
    fn position_index_stays_consistent_with_chains(seed in 0u64..u64::MAX) {
        // 4 traps, 12 ions, uneven initial chains.
        let chains = vec![
            vec![IonId(0), IonId(1), IonId(2), IonId(3), IonId(4)],
            vec![IonId(5), IonId(6)],
            vec![IonId(7), IonId(8), IonId(9), IonId(10)],
            vec![IonId(11)],
        ];
        let mut st = MachineState::new(&Placement::from_chains(chains.clone()));
        let mut mirror = Mirror { chains };
        let mut in_flight: Vec<IonId> = Vec::new();
        let mut rng = seed | 1; // xorshift state must be nonzero

        for _step in 0..400 {
            match pick(&mut rng, 3) {
                // Swap an adjacent pair somewhere.
                0 => {
                    let candidates: Vec<usize> = (0..mirror.chains.len())
                        .filter(|&t| mirror.chains[t].len() >= 2)
                        .collect();
                    if candidates.is_empty() {
                        continue;
                    }
                    let t = candidates[pick(&mut rng, candidates.len())];
                    let p = pick(&mut rng, mirror.chains[t].len() - 1);
                    let (a, b) = (mirror.chains[t][p], mirror.chains[t][p + 1]);
                    st.swap_positions(a, b);
                    mirror.chains[t].swap(p, p + 1);
                }
                // Split an end ion off a non-empty chain.
                1 => {
                    let candidates: Vec<usize> = (0..mirror.chains.len())
                        .filter(|&t| !mirror.chains[t].is_empty())
                        .collect();
                    if candidates.is_empty() {
                        continue;
                    }
                    let t = candidates[pick(&mut rng, candidates.len())];
                    let s = side(&mut rng);
                    let ion = match s {
                        Side::Left => mirror.chains[t].remove(0),
                        Side::Right => mirror.chains[t].pop().unwrap(),
                    };
                    st.remove_end(ion, TrapId(t as u32), s);
                    in_flight.push(ion);
                }
                // Merge an in-flight ion into any chain.
                _ => {
                    if in_flight.is_empty() {
                        continue;
                    }
                    let ion = in_flight.swap_remove(pick(&mut rng, in_flight.len()));
                    let t = pick(&mut rng, mirror.chains.len());
                    let s = side(&mut rng);
                    st.insert_end(ion, TrapId(t as u32), s);
                    match s {
                        Side::Left => mirror.chains[t].insert(0, ion),
                        Side::Right => mirror.chains[t].push(ion),
                    }
                }
            }
            mirror.check(&st);
        }
    }
}
