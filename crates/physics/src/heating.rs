//! Motional-mode heating model (§VII-B).
//!
//! Each chain is a quantum oscillator whose energy is tracked in units of
//! motional quanta. Chains start in the zero-energy state and gain energy
//! from shuttling operations (no re-cooling is modelled — as in the paper,
//! energy only accumulates):
//!
//! * **Split**: the chain's energy divides proportionally to the sizes of
//!   the two sub-chains (conservation of energy), then each sub-chain
//!   gains `k1(n)` quanta.
//! * **Merge**: the merged chain has the sum of the two energies plus
//!   `k1(n)` quanta (for stopping the chains and preventing collisions).
//! * **Move**: the shuttled ion picks up `k2` quanta per segment, plus
//!   `k_junction` per junction crossed (junction turns accelerate the ion
//!   harder than straight transport; default 2·k2).
//!
//! The paper takes `k1 = 0.1`, `k2 = 0.01` — an order of magnitude better
//! than Honeywell's measured <2 quanta/s, anticipating the improvement
//! needed for 50–100 qubit systems.
//!
//! **Chain-size scaling.** Those constants were demonstrated on few-ion
//! chains. Reconfiguring a long chain requires deforming the confining
//! potential across many more ions, and the paper's own analysis (§IX-A)
//! attributes the reliability collapse beyond ~30 ions per trap partly to
//! "large motional energy hot spots" in long chains. We model this by
//! scaling the split/merge cost for chains longer than
//! [`HeatingModel::chain_ref`] ions:
//!
//! ```text
//! k1(n) = k1 · max(1, n / chain_ref)^chain_exp
//! ```
//!
//! With the defaults (`chain_ref = 10`, `chain_exp = 2`) the published
//! `k1 = 0.1` is reproduced exactly for demonstration-scale chains while
//! long chains heat super-linearly — the hot-spot mechanism of Fig. 6.
//! Setting `chain_exp = 0` recovers the strict constant-`k1` reading of
//! the paper's text; the A2 heating ablation in `qccd`
//! (`examples/experiments/ablation_heating.json`) compares the two
//! readings.

use serde::{Deserialize, Serialize};

/// Heating-rate parameters, in motional quanta.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HeatingModel {
    /// Base quanta gained by each sub-chain on split, and by the merged
    /// chain on merge, for chains up to `chain_ref` ions.
    pub k1: f64,
    /// Quanta gained by a shuttled ion per unit segment.
    pub k2: f64,
    /// Quanta gained by a shuttled ion per junction crossing.
    pub k_junction: f64,
    /// Chain length (ions) up to which `k1` applies unscaled.
    pub chain_ref: f64,
    /// Exponent of the chain-size scaling of `k1` (0 disables scaling).
    pub chain_exp: f64,
}

impl HeatingModel {
    /// The paper's values (k₁ = 0.1, k₂ = 0.01) with the default hot-spot
    /// scaling (`chain_ref = 10`, `chain_exp = 2`).
    pub const PAPER: HeatingModel = HeatingModel {
        k1: 0.1,
        k2: 0.01,
        k_junction: 0.02,
        chain_ref: 10.0,
        chain_exp: 2.0,
    };

    /// The strict constant-k₁ reading of §VII-B (no chain-size scaling).
    pub const CONSTANT_K1: HeatingModel = HeatingModel {
        k1: 0.1,
        k2: 0.01,
        k_junction: 0.02,
        chain_ref: 10.0,
        chain_exp: 0.0,
    };

    /// Split/merge heating for a reconfiguration involving `n` ions.
    pub fn k1_for(&self, n: u32) -> f64 {
        self.k1
            * (f64::from(n) / self.chain_ref)
                .max(1.0)
                .powf(self.chain_exp)
    }

    /// Splits a chain of `n_a + n_b` ions with energy `energy` into
    /// sub-chains of `n_a` and `n_b` ions, returning their energies.
    ///
    /// # Panics
    ///
    /// Panics if either sub-chain is empty.
    pub fn split(&self, energy: f64, n_a: u32, n_b: u32) -> (f64, f64) {
        assert!(n_a > 0 && n_b > 0, "split sub-chains must be non-empty");
        let total = f64::from(n_a + n_b);
        let k1 = self.k1_for(n_a + n_b);
        let e_a = energy * f64::from(n_a) / total + k1;
        let e_b = energy * f64::from(n_b) / total + k1;
        (e_a, e_b)
    }

    /// Merges two chains with energies `e_a` and `e_b` into a chain of
    /// `n_result` ions.
    pub fn merge(&self, e_a: f64, e_b: f64, n_result: u32) -> f64 {
        e_a + e_b + self.k1_for(n_result)
    }

    /// Energy gained by a shuttled ion moving over `segments` unit
    /// segments and `junctions` junction crossings.
    pub fn move_energy(&self, segments: u32, junctions: u32) -> f64 {
        self.k2 * f64::from(segments) + self.k_junction * f64::from(junctions)
    }

    /// Checks physical plausibility (non-negative finite rates, a
    /// positive reference chain length), for the JSON loading path.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        for (name, v) in [
            ("k1", self.k1),
            ("k2", self.k2),
            ("k_junction", self.k_junction),
            ("chain_exp", self.chain_exp),
        ] {
            if !v.is_finite() || v < 0.0 {
                return Err(format!("heating `{name}` must be finite and >= 0, got {v}"));
            }
        }
        if !self.chain_ref.is_finite() || self.chain_ref <= 0.0 {
            return Err(format!(
                "heating `chain_ref` must be finite and > 0, got {}",
                self.chain_ref
            ));
        }
        Ok(())
    }
}

impl Default for HeatingModel {
    fn default() -> Self {
        Self::PAPER
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_constants() {
        let h = HeatingModel::default();
        assert_eq!(h.k1, 0.1);
        assert_eq!(h.k2, 0.01);
    }

    #[test]
    fn k1_is_unscaled_for_demonstration_size_chains() {
        let h = HeatingModel::default();
        for n in 1..=10 {
            assert_eq!(h.k1_for(n), 0.1, "chain of {n}");
        }
        assert!(h.k1_for(20) > h.k1_for(10));
        assert!(h.k1_for(33) > h.k1_for(20));
    }

    #[test]
    fn constant_k1_variant_never_scales() {
        let h = HeatingModel::CONSTANT_K1;
        assert_eq!(h.k1_for(4), 0.1);
        assert_eq!(h.k1_for(33), 0.1);
    }

    #[test]
    fn split_conserves_energy_up_to_k1_additions() {
        let h = HeatingModel::default();
        let (a, b) = h.split(1.0, 3, 7);
        assert!((a - (0.3 + 0.1)).abs() < 1e-12);
        assert!((b - (0.7 + 0.1)).abs() < 1e-12);
        assert!((a + b - (1.0 + 2.0 * h.k1_for(10))).abs() < 1e-12);
    }

    #[test]
    fn split_of_cold_chain_still_heats() {
        let h = HeatingModel::default();
        let (a, b) = h.split(0.0, 1, 9);
        assert_eq!(a, 0.1);
        assert_eq!(b, 0.1);
    }

    #[test]
    fn long_chain_split_heats_more() {
        let h = HeatingModel::default();
        let (small, _) = h.split(0.0, 1, 9);
        let (large, _) = h.split(0.0, 1, 32);
        assert!(large > 2.0 * small, "large {large} vs small {small}");
    }

    #[test]
    fn merge_sums_plus_k1() {
        let h = HeatingModel::default();
        assert!((h.merge(0.4, 0.7, 8) - 1.2).abs() < 1e-12);
        assert!(h.merge(0.4, 0.7, 30) > 1.2);
    }

    #[test]
    fn move_energy_scales_with_path() {
        let h = HeatingModel::default();
        assert!((h.move_energy(4, 0) - 0.04).abs() < 1e-12);
        assert!((h.move_energy(4, 2) - 0.08).abs() < 1e-12);
        assert_eq!(h.move_energy(0, 0), 0.0);
    }

    #[test]
    fn split_then_merge_nets_three_k1_for_small_chains() {
        // The full Fig. 2d sequence on an adjacent-trap shuttle: split off
        // one ion, move it, merge it into another cold 9-ion chain.
        let h = HeatingModel::default();
        let (ion, rest) = h.split(0.0, 1, 9);
        let merged = h.merge(ion + h.move_energy(4, 0), 0.0, 10);
        assert!((merged - (2.0 * h.k1 + 0.04)).abs() < 1e-12);
        assert_eq!(rest, h.k1);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_subchain_panics() {
        let _ = HeatingModel::default().split(1.0, 0, 5);
    }

    #[test]
    fn k1_clamps_to_published_value_below_chain_ref() {
        // Below the reference length the scaling factor is max(1, ·)^e
        // = 1, so the published k₁ = 0.1 must be reproduced *exactly*
        // (bit-for-bit), including at the n = chain_ref boundary.
        let h = HeatingModel::PAPER;
        for n in 1..=10u32 {
            assert_eq!(h.k1_for(n).to_bits(), 0.1f64.to_bits(), "chain of {n}");
        }
        // Just above the boundary the scaling engages: (11/10)².
        assert!((h.k1_for(11) - 0.1 * 1.1f64.powi(2)).abs() < 1e-15);
    }

    #[test]
    fn chain_exp_zero_recovers_constant_k1_everywhere() {
        let flat = HeatingModel {
            chain_exp: 0.0,
            ..HeatingModel::PAPER
        };
        for n in [1u32, 5, 10, 11, 33, 100, 10_000] {
            assert_eq!(flat.k1_for(n), HeatingModel::CONSTANT_K1.k1_for(n));
            assert_eq!(flat.k1_for(n), flat.k1, "chain of {n}");
        }
        // And whole split/merge cycles agree between the two spellings.
        assert_eq!(
            flat.split(2.0, 13, 21),
            HeatingModel::CONSTANT_K1.split(2.0, 13, 21)
        );
        assert_eq!(
            flat.merge(0.3, 0.9, 34),
            HeatingModel::CONSTANT_K1.merge(0.3, 0.9, 34)
        );
    }

    #[test]
    fn split_and_merge_conserve_energy_under_json_loaded_models() {
        // The conservation laws must survive the JSON round trip: a
        // split adds exactly 2·k1(n) on top of the proportional division
        // and a merge exactly k1(n) on top of the sum, for the paper
        // model, the constant-k₁ variant, and a custom file.
        let custom: HeatingModel = serde_json::from_str(
            r#"{"k1": 0.25, "k2": 0.02, "k_junction": 0.05,
                "chain_ref": 6, "chain_exp": 1.5}"#,
        )
        .unwrap();
        assert!(custom.validate().is_ok());
        for model in [HeatingModel::PAPER, HeatingModel::CONSTANT_K1, custom] {
            let loaded: HeatingModel =
                serde_json::from_str(&serde_json::to_string(&model).unwrap()).unwrap();
            assert_eq!(loaded, model);
            for (energy, n_a, n_b) in [(0.0, 1, 9), (1.7, 3, 7), (4.2, 20, 15)] {
                let (e_a, e_b) = loaded.split(energy, n_a, n_b);
                let expected = energy + 2.0 * loaded.k1_for(n_a + n_b);
                assert!(
                    (e_a + e_b - expected).abs() < 1e-12,
                    "split({energy}, {n_a}, {n_b}) leaked energy"
                );
                let merged = loaded.merge(e_a, e_b, n_a + n_b);
                assert!(
                    (merged - (e_a + e_b + loaded.k1_for(n_a + n_b))).abs() < 1e-12,
                    "merge({n_a}+{n_b}) leaked energy"
                );
            }
        }
    }
}
