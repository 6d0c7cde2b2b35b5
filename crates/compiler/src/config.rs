//! Compiler configuration: the policy selection for every pipeline seam
//! (mapping · routing · reordering · eviction) plus mapping parameters.
//!
//! Each seam is selected by a small `Copy` enum — [`MappingKind`],
//! [`RoutingKind`], [`ReorderMethod`], [`EvictionKind`] — that is also
//! the policy: its `place` / `next_route` / `bring_to_end` / `pick`
//! method (in [`crate::policy`]) runs the named heuristic. All four
//! parse from the same name registry (kebab-case spelling, the Rust
//! variant name, or a short alias, case-insensitively), so JSON configs,
//! experiment specs and error messages can never drift apart.

use serde::de;
use serde::{DeError, Deserialize, Serialize, Value, Writer};
use std::fmt;
use std::io;
use std::str::FromStr;

/// Error returned when parsing an unknown policy name for any seam.
///
/// The message always lists the accepted spellings, e.g.
/// `unknown routing policy `fastest` (accepted: greedy-shortest (SP),
/// lookahead-congestion (LC))`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsePolicyError {
    seam: &'static str,
    name: String,
    accepted: String,
}

impl ParsePolicyError {
    fn new(seam: &'static str, name: &str, accepted: String) -> Self {
        ParsePolicyError {
            seam,
            name: name.to_owned(),
            accepted,
        }
    }
}

impl fmt::Display for ParsePolicyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown {} policy `{}` (accepted: {})",
            self.seam, self.name, self.accepted
        )
    }
}

impl std::error::Error for ParsePolicyError {}

/// Canonical spelling-insensitive form: lowercase with `-`/`_` removed,
/// so `round-robin`, `RoundRobin`, `ROUND_ROBIN` and `roundrobin` all
/// name the same policy.
fn normalize(s: &str) -> String {
    s.chars()
        .filter(|c| *c != '-' && *c != '_')
        .map(|c| c.to_ascii_lowercase())
        .collect()
}

/// Declares a policy-selector enum wired into the shared name registry:
/// `ALL`, `name()` (kebab-case spelling), `variant_name()` (JSON /
/// derive spelling), `short()` (figure-label abbreviation), `Display`
/// (= `name()`), registry-backed `FromStr`, and `Serialize`/
/// `Deserialize` that mirror the derive encoding for unit enums (a bare
/// string) while accepting any registered spelling on input.
macro_rules! policy_kind {
    (
        $(#[$meta:meta])*
        $ty:ident ($seam:literal) {
            $(
                $(#[$vmeta:meta])*
                $variant:ident => ($name:literal, $short:literal)
            ),+ $(,)?
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        pub enum $ty {
            $( $(#[$vmeta])* $variant, )+
        }

        impl $ty {
            /// Every implementation of this seam, default first.
            pub const ALL: [$ty; 0 $(+ { let _ = $ty::$variant; 1 })+] = [$($ty::$variant),+];

            /// Kebab-case canonical name — the config and docs spelling.
            pub fn name(&self) -> &'static str {
                match self { $($ty::$variant => $name),+ }
            }

            /// The Rust variant name — the JSON spelling emitted by
            /// serialization.
            pub fn variant_name(&self) -> &'static str {
                match self { $($ty::$variant => stringify!($variant)),+ }
            }

            /// Short label for figure legends and sweep tables.
            pub fn short(&self) -> &'static str {
                match self { $($ty::$variant => $short),+ }
            }

            /// The accepted spellings, for error messages.
            fn accepted() -> String {
                let mut out = String::new();
                $(
                    if !out.is_empty() { out.push_str(", "); }
                    out.push_str($name);
                    out.push_str(" (");
                    out.push_str($short);
                    out.push(')');
                )+
                out
            }
        }

        impl fmt::Display for $ty {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str(self.name())
            }
        }

        impl FromStr for $ty {
            type Err = ParsePolicyError;

            fn from_str(s: &str) -> Result<Self, Self::Err> {
                let key = normalize(s);
                $(
                    if key == normalize($name)
                        || key == normalize(stringify!($variant))
                        || key == normalize($short)
                    {
                        return Ok($ty::$variant);
                    }
                )+
                Err(ParsePolicyError::new($seam, s, $ty::accepted()))
            }
        }

        impl Serialize for $ty {
            fn serialize<W: io::Write>(&self, w: &mut Writer<W>) -> io::Result<()> {
                w.str(self.variant_name())
            }
        }

        impl Deserialize for $ty {
            fn from_value(value: &Value) -> Result<Self, DeError> {
                match value {
                    Value::Str(s) => s
                        .parse::<$ty>()
                        .map_err(|e| DeError::custom(e.to_string())),
                    other => Err(DeError::type_mismatch(
                        concat!("a ", $seam, " policy name"),
                        other,
                    )),
                }
            }
        }
    };
}

policy_kind! {
    /// Initial ion-placement policy (pipeline seam 1).
    MappingKind("mapping") {
        /// The paper's §VI heuristic: qubits in first-use order, packed
        /// into traps in trap-id order, leaving buffer slots free.
        RoundRobin => ("round-robin", "RR"),
        /// Interaction-aware packing: each trap is seeded in first-use
        /// order, then filled with the unplaced qubit that interacts
        /// most with the qubits already resident, co-locating
        /// frequently-communicating pairs to cut shuttling volume.
        UsageWeighted => ("usage-weighted", "UW"),
    }
}

policy_kind! {
    /// Shuttling-route selection policy (pipeline seam 2).
    RoutingKind("routing") {
        /// The paper's §VI choice: the device's cheapest static route
        /// (memoized all-pairs shortest paths).
        GreedyShortest => ("greedy-shortest", "SP"),
        /// Congestion-aware lookahead: segments and junctions used by
        /// recently-committed in-flight routes are penalized, steering
        /// shuttles around contended resources where the topology
        /// offers a detour.
        LookaheadCongestion => ("lookahead-congestion", "LC"),
    }
}

policy_kind! {
    /// How a chain is reconfigured to bring an ion to the end it must
    /// depart from (paper §IV-C, Fig. 5). Pipeline seam 3.
    ReorderMethod("reorder") {
        /// Gate-based swapping (GS): one SWAP gate (3 MS gates) exchanges
        /// the *quantum states* of an arbitrary ion pair; the ion already
        /// at the chain end then departs carrying the right state.
        GateSwap => ("gate-swap", "GS"),
        /// Physical ion swapping (IS): the ion is moved to the end hop by
        /// hop; each hop is a split, a 180° rotation of the adjacent
        /// pair, and a merge (Kaufmann et al. 2017).
        IonSwap => ("ion-swap", "IS"),
    }
}

policy_kind! {
    /// Destination-full eviction policy (pipeline seam 4).
    EvictionKind("eviction") {
        /// The paper's §VI choice: evict the resident whose next use is
        /// farthest in the future ("leveraging full knowledge of the
        /// program instructions") to the nearest trap with room.
        FurthestNextUse => ("furthest-next-use", "FNU"),
        /// Evict from the chain ends only (whichever end ion's next use
        /// is farther), trading future shuttles for a guaranteed-cheap
        /// reorder at eviction time.
        ChainEnd => ("chain-end", "CE"),
    }
}

impl Default for MappingKind {
    /// Round-robin first-use packing — the paper's mapper.
    fn default() -> Self {
        MappingKind::RoundRobin
    }
}

impl Default for RoutingKind {
    /// Greedy shortest-path — the paper's router.
    fn default() -> Self {
        RoutingKind::GreedyShortest
    }
}

impl Default for EvictionKind {
    /// Furthest-next-use — the paper's eviction rule.
    fn default() -> Self {
        EvictionKind::FurthestNextUse
    }
}

/// Compiler knobs: one policy per pipeline seam plus the mapping buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct CompilerConfig {
    /// Initial ion-placement policy.
    pub mapping: MappingKind,
    /// Shuttling-route selection policy.
    pub routing: RoutingKind,
    /// Chain-reordering method.
    pub reorder: ReorderMethod,
    /// Destination-full eviction policy.
    pub eviction: EvictionKind,
    /// Buffer slots the initial mapping leaves free per trap for incoming
    /// shuttles (the paper leaves room for 2). Relaxed automatically when
    /// the program would not otherwise fit.
    pub buffer_slots: u32,
}

impl Default for CompilerConfig {
    /// The paper's pipeline: round-robin mapping, greedy shortest-path
    /// routing, GS reordering, furthest-next-use eviction, 2 buffer
    /// slots.
    fn default() -> Self {
        CompilerConfig {
            mapping: MappingKind::default(),
            routing: RoutingKind::default(),
            reorder: ReorderMethod::GateSwap,
            eviction: EvictionKind::default(),
            buffer_slots: 2,
        }
    }
}

impl CompilerConfig {
    /// Config with the given reorder method and paper defaults elsewhere.
    pub fn with_reorder(reorder: ReorderMethod) -> Self {
        CompilerConfig {
            reorder,
            ..CompilerConfig::default()
        }
    }

    /// Config with the given mapping policy and paper defaults elsewhere.
    pub fn with_mapping(mapping: MappingKind) -> Self {
        CompilerConfig {
            mapping,
            ..CompilerConfig::default()
        }
    }

    /// Config with the given routing policy and paper defaults elsewhere.
    pub fn with_routing(routing: RoutingKind) -> Self {
        CompilerConfig {
            routing,
            ..CompilerConfig::default()
        }
    }

    /// Config with the given eviction policy and paper defaults
    /// elsewhere.
    pub fn with_eviction(eviction: EvictionKind) -> Self {
        CompilerConfig {
            eviction,
            ..CompilerConfig::default()
        }
    }

    /// Compact pipeline label for sweep tables and figure legends, e.g.
    /// `RR+SP+GS+FNU` for the paper's default pipeline.
    pub fn policy_label(&self) -> String {
        format!(
            "{}+{}+{}+{}",
            self.mapping.short(),
            self.routing.short(),
            self.reorder.short(),
            self.eviction.short()
        )
    }

    /// Every combination of the four seams' policies (2 per seam → 16
    /// configs) with the given buffer slots, the paper's default pipeline
    /// first.
    pub fn policy_grid(buffer_slots: u32) -> Vec<CompilerConfig> {
        let mut out = Vec::new();
        for mapping in MappingKind::ALL {
            for routing in RoutingKind::ALL {
                for reorder in ReorderMethod::ALL {
                    for eviction in EvictionKind::ALL {
                        out.push(CompilerConfig {
                            mapping,
                            routing,
                            reorder,
                            eviction,
                            buffer_slots,
                        });
                    }
                }
            }
        }
        out
    }
}

impl Deserialize for CompilerConfig {
    /// A partial config, e.g. `{"routing": "lookahead-congestion"}`:
    /// every field is optional and the paper's pipeline fills the rest.
    /// Policy names accept any registered spelling; unknown fields and
    /// unknown names are errors that list the accepted ones.
    fn from_value(value: &Value) -> Result<Self, DeError> {
        const FIELDS: [&str; 5] = ["mapping", "routing", "reorder", "eviction", "buffer_slots"];
        let entries = de::object(value, "CompilerConfig")?;
        for (key, _) in entries {
            if !FIELDS.contains(&key.as_str()) {
                return Err(DeError::custom(format!(
                    "unknown field `{key}` of `CompilerConfig` (fields: {})",
                    FIELDS.join(", ")
                )));
            }
        }
        let has = |name: &str| entries.iter().any(|(k, _)| k == name);
        let mut config = CompilerConfig::default();
        if has("mapping") {
            config.mapping = de::field(entries, "mapping", "CompilerConfig")?;
        }
        if has("routing") {
            config.routing = de::field(entries, "routing", "CompilerConfig")?;
        }
        if has("reorder") {
            config.reorder = de::field(entries, "reorder", "CompilerConfig")?;
        }
        if has("eviction") {
            config.eviction = de::field(entries, "eviction", "CompilerConfig")?;
        }
        if has("buffer_slots") {
            config.buffer_slots = de::field(entries, "buffer_slots", "CompilerConfig")?;
        }
        Ok(config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = CompilerConfig::default();
        assert_eq!(c.mapping, MappingKind::RoundRobin);
        assert_eq!(c.routing, RoutingKind::GreedyShortest);
        assert_eq!(c.reorder, ReorderMethod::GateSwap);
        assert_eq!(c.eviction, EvictionKind::FurthestNextUse);
        assert_eq!(c.buffer_slots, 2);
    }

    #[test]
    fn reorder_names_round_trip() {
        for m in ReorderMethod::ALL {
            assert_eq!(m.name().parse::<ReorderMethod>().unwrap(), m);
            assert_eq!(m.short().parse::<ReorderMethod>().unwrap(), m);
        }
        assert_eq!(
            "is".parse::<ReorderMethod>().unwrap(),
            ReorderMethod::IonSwap
        );
        assert_eq!(
            "GATE_SWAP".parse::<ReorderMethod>().unwrap(),
            ReorderMethod::GateSwap
        );
        assert!("xy".parse::<ReorderMethod>().is_err());
    }

    #[test]
    fn every_kind_parses_all_registered_spellings() {
        for kind in MappingKind::ALL {
            for s in [kind.name(), kind.variant_name(), kind.short()] {
                assert_eq!(s.parse::<MappingKind>().unwrap(), kind, "{s}");
                assert_eq!(s.to_ascii_uppercase().parse::<MappingKind>().unwrap(), kind);
            }
        }
        for kind in RoutingKind::ALL {
            for s in [kind.name(), kind.variant_name(), kind.short()] {
                assert_eq!(s.parse::<RoutingKind>().unwrap(), kind, "{s}");
            }
        }
        for kind in ReorderMethod::ALL {
            for s in [kind.name(), kind.variant_name(), kind.short()] {
                assert_eq!(s.parse::<ReorderMethod>().unwrap(), kind, "{s}");
            }
        }
        for kind in EvictionKind::ALL {
            for s in [kind.name(), kind.variant_name(), kind.short()] {
                assert_eq!(s.parse::<EvictionKind>().unwrap(), kind, "{s}");
            }
        }
    }

    #[test]
    fn parse_errors_list_accepted_names() {
        let err = "warp".parse::<RoutingKind>().unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("warp"), "{msg}");
        assert!(msg.contains("greedy-shortest"), "{msg}");
        assert!(msg.contains("lookahead-congestion"), "{msg}");

        let err = "xy".parse::<ReorderMethod>().unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("gate-swap"), "{msg}");
        assert!(msg.contains("ion-swap"), "{msg}");

        let err = "lifo".parse::<EvictionKind>().unwrap_err();
        assert!(err.to_string().contains("furthest-next-use"));

        let err = "hash".parse::<MappingKind>().unwrap_err();
        assert!(err.to_string().contains("usage-weighted"));
    }

    #[test]
    fn with_constructors_keep_other_defaults() {
        let c = CompilerConfig::with_reorder(ReorderMethod::IonSwap);
        assert_eq!(c.reorder, ReorderMethod::IonSwap);
        assert_eq!(c.buffer_slots, 2);
        let c = CompilerConfig::with_mapping(MappingKind::UsageWeighted);
        assert_eq!(c.mapping, MappingKind::UsageWeighted);
        assert_eq!(c.routing, RoutingKind::GreedyShortest);
        let c = CompilerConfig::with_routing(RoutingKind::LookaheadCongestion);
        assert_eq!(c.routing, RoutingKind::LookaheadCongestion);
        assert_eq!(c.eviction, EvictionKind::FurthestNextUse);
        let c = CompilerConfig::with_eviction(EvictionKind::ChainEnd);
        assert_eq!(c.eviction, EvictionKind::ChainEnd);
        assert_eq!(c.mapping, MappingKind::RoundRobin);
    }

    #[test]
    fn policy_label_is_compact() {
        assert_eq!(CompilerConfig::default().policy_label(), "RR+SP+GS+FNU");
        let c = CompilerConfig {
            mapping: MappingKind::UsageWeighted,
            routing: RoutingKind::LookaheadCongestion,
            reorder: ReorderMethod::IonSwap,
            eviction: EvictionKind::ChainEnd,
            buffer_slots: 2,
        };
        assert_eq!(c.policy_label(), "UW+LC+IS+CE");
    }

    #[test]
    fn json_round_trips() {
        for config in [
            CompilerConfig::default(),
            CompilerConfig {
                mapping: MappingKind::UsageWeighted,
                routing: RoutingKind::LookaheadCongestion,
                reorder: ReorderMethod::IonSwap,
                eviction: EvictionKind::ChainEnd,
                buffer_slots: 0,
            },
        ] {
            let json = serde_json::to_string(&config).unwrap();
            assert_eq!(
                serde_json::from_str::<CompilerConfig>(&json).unwrap(),
                config
            );
        }
    }

    #[test]
    fn pre_policy_configs_still_load() {
        // Early config files name only reorder + buffer_slots; the
        // policy seams must default to the paper's pipeline.
        let c: CompilerConfig =
            serde_json::from_str(r#"{"reorder": "IonSwap", "buffer_slots": 1}"#).unwrap();
        assert_eq!(c.reorder, ReorderMethod::IonSwap);
        assert_eq!(c.buffer_slots, 1);
        assert_eq!(c.mapping, MappingKind::RoundRobin);
        assert_eq!(c.routing, RoutingKind::GreedyShortest);
        assert_eq!(c.eviction, EvictionKind::FurthestNextUse);
        // Every field is optional.
        let c: CompilerConfig = serde_json::from_str(r#"{"routing": "LC"}"#).unwrap();
        assert_eq!(
            c,
            CompilerConfig::with_routing(RoutingKind::LookaheadCongestion)
        );
        assert_eq!(
            serde_json::from_str::<CompilerConfig>("{}").unwrap(),
            CompilerConfig::default()
        );
    }

    #[test]
    fn json_accepts_cli_spellings() {
        let c: CompilerConfig = serde_json::from_str(
            r#"{"reorder": "is", "buffer_slots": 2,
                "mapping": "usage-weighted",
                "routing": "LC",
                "eviction": "ChainEnd"}"#,
        )
        .unwrap();
        assert_eq!(c.reorder, ReorderMethod::IonSwap);
        assert_eq!(c.mapping, MappingKind::UsageWeighted);
        assert_eq!(c.routing, RoutingKind::LookaheadCongestion);
        assert_eq!(c.eviction, EvictionKind::ChainEnd);
    }

    #[test]
    fn json_errors_are_descriptive() {
        let parse = |text: &str| serde_json::from_str::<CompilerConfig>(text).unwrap_err();
        let err = parse("not json");
        assert!(err.to_string().contains("line 1"), "{err}");
        let err = parse("{\"reorder\": \"Bogus\", \"buffer_slots\": 2}");
        assert!(err.to_string().contains("Bogus"), "{err}");
        assert!(err.to_string().contains("gate-swap (GS)"), "{err}");
        let err = parse("{\"reorder\": \"GS\", \"buffer_slots\": 2, \"routing\": \"warp\"}");
        assert!(err.to_string().contains("greedy-shortest"), "{err}");
        let err = parse("{\"reorder\": \"GS\", \"buffer_slots\": 2, \"euiction\": \"chain-end\"}");
        assert!(
            err.to_string().contains("unknown field `euiction`"),
            "{err}"
        );
        assert!(err.to_string().contains("eviction"), "{err}");
    }

    #[test]
    fn policy_grid_covers_every_combination_once() {
        let grid = CompilerConfig::policy_grid(2);
        assert_eq!(grid.len(), 16);
        assert_eq!(grid[0], CompilerConfig::default(), "default pipeline first");
        let mut labels: Vec<String> = grid.iter().map(|c| c.policy_label()).collect();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), 16, "all combinations distinct");
        assert!(grid.iter().all(|c| c.buffer_slots == 2));
    }

    #[test]
    fn serialization_uses_variant_names() {
        let json = serde_json::to_string(&CompilerConfig::default()).unwrap();
        assert!(json.contains("\"RoundRobin\""), "{json}");
        assert!(json.contains("\"GreedyShortest\""), "{json}");
        assert!(json.contains("\"GateSwap\""), "{json}");
        assert!(json.contains("\"FurthestNextUse\""), "{json}");
    }
}
