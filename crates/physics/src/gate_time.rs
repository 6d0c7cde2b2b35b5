//! Two-qubit gate duration models (§VII-A).
//!
//! The paper considers four implementations of the Mølmer–Sørensen gate,
//! differing in which laser parameter is modulated for robustness across
//! motional modes:
//!
//! | Impl | Source                  | Duration (µs)              | Depends on |
//! |------|-------------------------|----------------------------|------------|
//! | AM1  | Wu, Wang, Duan 2018     | `100·d − 22`               | separation |
//! | AM2  | Trout et al. 2018       | `38·d + 10`                | separation |
//! | PM   | Milne et al. 2018       | `5·d + 160`                | separation |
//! | FM   | Leung et al. 2018       | `max(13.33·N − 54, 100)`   | chain size |
//!
//! `d ≥ 1` is the distance in chain positions between the two ions, `N` the
//! number of ions in the chain. AM/PM durations grow with separation
//! because the ion–ion coupling strength falls off with distance; FM
//! durations grow with chain size because the modulation must track the
//! denser motional-mode spectrum (§III-A).

use serde::{Deserialize, Serialize};
use std::fmt;
use std::str::FromStr;

/// A Mølmer–Sørensen two-qubit gate implementation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum GateImpl {
    /// Amplitude modulation, robust variant (slower).
    Am1,
    /// Amplitude modulation, fast variant.
    Am2,
    /// Phase modulation: weak distance dependence.
    Pm,
    /// Frequency modulation: distance-independent, chain-size dependent.
    Fm,
}

impl GateImpl {
    /// All four implementations, in the paper's order.
    pub const ALL: [GateImpl; 4] = [GateImpl::Am1, GateImpl::Am2, GateImpl::Pm, GateImpl::Fm];

    /// Duration in µs of an MS gate between two ions separated by
    /// `distance` chain positions inside a chain of `chain_len` ions.
    ///
    /// # Panics
    ///
    /// Panics if `distance == 0` (the two ions coincide) or
    /// `chain_len < 2`.
    pub fn two_qubit_time(&self, distance: u32, chain_len: u32) -> f64 {
        assert!(distance >= 1, "ion separation must be at least 1");
        assert!(
            chain_len >= 2,
            "a two-qubit gate needs a chain of at least 2 ions"
        );
        debug_assert!(
            distance < chain_len,
            "separation {distance} impossible in chain of {chain_len}"
        );
        let d = f64::from(distance);
        let n = f64::from(chain_len);
        match self {
            GateImpl::Am1 => 100.0 * d - 22.0,
            GateImpl::Am2 => 38.0 * d + 10.0,
            GateImpl::Pm => 5.0 * d + 160.0,
            GateImpl::Fm => (13.33 * n - 54.0).max(100.0),
        }
    }

    /// Canonical upper-case name as used in the paper's figures.
    pub fn name(&self) -> &'static str {
        match self {
            GateImpl::Am1 => "AM1",
            GateImpl::Am2 => "AM2",
            GateImpl::Pm => "PM",
            GateImpl::Fm => "FM",
        }
    }
}

impl fmt::Display for GateImpl {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Error returned when parsing an unknown gate-implementation name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseGateImplError {
    name: String,
}

impl fmt::Display for ParseGateImplError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown gate implementation `{}` (expected AM1, AM2, PM or FM)",
            self.name
        )
    }
}

impl std::error::Error for ParseGateImplError {}

impl FromStr for GateImpl {
    type Err = ParseGateImplError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_uppercase().as_str() {
            "AM1" => Ok(GateImpl::Am1),
            "AM2" => Ok(GateImpl::Am2),
            "PM" => Ok(GateImpl::Pm),
            "FM" => Ok(GateImpl::Fm),
            other => Err(ParseGateImplError {
                name: other.to_owned(),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn am1_matches_published_form() {
        assert_eq!(GateImpl::Am1.two_qubit_time(1, 2), 78.0);
        assert_eq!(GateImpl::Am1.two_qubit_time(10, 20), 978.0);
    }

    #[test]
    fn am2_matches_published_form() {
        assert_eq!(GateImpl::Am2.two_qubit_time(1, 2), 48.0);
        assert_eq!(GateImpl::Am2.two_qubit_time(5, 10), 200.0);
    }

    #[test]
    fn pm_matches_published_form() {
        assert_eq!(GateImpl::Pm.two_qubit_time(1, 2), 165.0);
        assert_eq!(GateImpl::Pm.two_qubit_time(20, 30), 260.0);
    }

    #[test]
    fn fm_floor_and_linear_regime() {
        // Below 12 ions the paper pins FM at 100 µs.
        for n in 2..=11u32 {
            assert_eq!(GateImpl::Fm.two_qubit_time(1, n), 100.0);
        }
        let t20 = GateImpl::Fm.two_qubit_time(1, 20);
        assert!((t20 - (13.33 * 20.0 - 54.0)).abs() < 1e-9);
    }

    #[test]
    fn fm_is_distance_independent_am_is_not() {
        assert_eq!(
            GateImpl::Fm.two_qubit_time(1, 25),
            GateImpl::Fm.two_qubit_time(24, 25)
        );
        assert!(GateImpl::Am1.two_qubit_time(2, 25) > GateImpl::Am1.two_qubit_time(1, 25));
    }

    #[test]
    fn am_gates_faster_nearby_pm_fm_faster_far_away() {
        // Paper §X-A: AM2 wins at short range, FM/PM at long range.
        let n = 30;
        assert!(GateImpl::Am2.two_qubit_time(1, n) < GateImpl::Pm.two_qubit_time(1, n));
        assert!(GateImpl::Am2.two_qubit_time(1, n) < GateImpl::Fm.two_qubit_time(1, n));
        assert!(GateImpl::Am1.two_qubit_time(25, n) > GateImpl::Pm.two_qubit_time(25, n));
        assert!(GateImpl::Am2.two_qubit_time(25, n) > GateImpl::Fm.two_qubit_time(25, n));
    }

    #[test]
    fn names_round_trip() {
        for g in GateImpl::ALL {
            assert_eq!(g.name().parse::<GateImpl>().unwrap(), g);
        }
        assert!("am3".parse::<GateImpl>().is_err());
        assert_eq!("fm".parse::<GateImpl>().unwrap(), GateImpl::Fm);
    }

    #[test]
    #[should_panic(expected = "separation")]
    fn zero_distance_panics() {
        let _ = GateImpl::Am1.two_qubit_time(0, 5);
    }

    #[test]
    #[should_panic(expected = "chain")]
    fn single_ion_chain_panics() {
        let _ = GateImpl::Fm.two_qubit_time(1, 1);
    }
}
