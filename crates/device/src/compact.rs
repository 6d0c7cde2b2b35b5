//! The JSON device schema, the one input shape of [`Device::from_json`].
//!
//! A device is described by its trap count and the edges between its
//! nodes:
//!
//! ```json
//! {
//!   "name": "T3",
//!   "traps": 3,
//!   "capacity": 16,
//!   "edges": [["t0", "j0", 2], ["t1", "j0", 2], ["t2:left", "j0", 2]]
//! }
//! ```
//!
//! * `traps` — either a count (uniform `capacity` required) or an array
//!   of per-trap capacities (in which case `capacity` must be absent);
//! * `edges` — one entry per segment: `[a, b]` or `[a, b, length]`
//!   (length defaults to 1 unit). Endpoints are `"t<N>"` for traps —
//!   optionally `"t<N>:left"`/`"t<N>:right"` to pin the port — and
//!   `"j<N>"` for junctions. Junctions are implied by their highest
//!   referenced index. When a trap endpoint omits the side, the first
//!   free port is chosen: right-then-left for the first endpoint of an
//!   edge, left-then-right for the second, so a left-to-right edge list
//!   like `[["t0","t1"],["t1","t2"]]` wires exactly like
//!   [`crate::presets::linear`].
//!
//! Counts, capacities and lengths are checked against the device limits
//! ([`crate::MAX_DEVICE_NODES`], [`crate::MAX_TRAP_CAPACITY`],
//! [`crate::MAX_SEGMENT_LENGTH`]). Loading then goes through
//! [`crate::DeviceBuilder`], so every builder invariant (port budgets,
//! junction degrees, connectivity) applies, and the result is
//! indistinguishable from a programmatically built device — the tests
//! below pin loaded presets against the builders bit for bit.
//!
//! `Device` serializes to a fuller shape (ports and segments
//! cross-referenced both ways) for hashing job ids; that shape is
//! output only.

use crate::builder::{DeviceBuilder, Endpoint};
use crate::ids::{JunctionId, Side, TrapId};
use crate::topology::{
    check_capacity, check_node_count, check_segment_length, Device, DeviceJsonError,
};
use serde::Value;
// qccd-lint: allow(hash-iteration) — one-shot JSON schema validation at load time,
// never iterated on an output path; see `used` below.
use std::collections::HashSet;

fn parse_err(message: impl Into<String>) -> DeviceJsonError {
    DeviceJsonError::Parse(message.into())
}

fn as_u32(value: &Value, what: &str) -> Result<u32, DeviceJsonError> {
    match value {
        Value::UInt(u) => u32::try_from(*u).map_err(|_| parse_err(format!("{what} out of range"))),
        Value::Int(i) => u32::try_from(*i).map_err(|_| parse_err(format!("{what} out of range"))),
        other => Err(parse_err(format!(
            "{what} must be an integer, found {}",
            other.kind()
        ))),
    }
}

/// A parsed endpoint reference: node plus optional pinned side.
enum EndpointRef {
    Trap(TrapId, Option<Side>),
    Junction(JunctionId),
}

fn parse_endpoint(text: &str) -> Result<EndpointRef, DeviceJsonError> {
    let (node, side) = match text.split_once(':') {
        Some((node, side)) => {
            let side = match side.to_ascii_lowercase().as_str() {
                "left" | "l" => Side::Left,
                "right" | "r" => Side::Right,
                other => {
                    return Err(parse_err(format!(
                        "unknown side `{other}` in endpoint `{text}` (expected left or right)"
                    )))
                }
            };
            (node, Some(side))
        }
        None => (text, None),
    };
    let bad = || parse_err(format!("endpoint `{text}` is not t<N>, t<N>:side or j<N>"));
    // Char-wise split: `node` comes from untrusted JSON, so it may be
    // empty or start with a multi-byte character.
    let mut chars = node.chars();
    let kind = chars.next().ok_or_else(bad)?;
    let index: u32 = chars.as_str().parse().map_err(|_| bad())?;
    match kind.to_ascii_lowercase() {
        't' => Ok(EndpointRef::Trap(TrapId(index), side)),
        'j' if side.is_none() => Ok(EndpointRef::Junction(JunctionId(index))),
        'j' => Err(parse_err(format!(
            "junction endpoint `{text}` cannot pin a side"
        ))),
        _ => Err(bad()),
    }
}

/// Loads a device from the `{name, traps, capacity, edges}` shape.
pub(crate) fn from_compact_value(value: &Value) -> Result<Device, DeviceJsonError> {
    let entries = match value {
        Value::Object(entries) => entries,
        other => {
            return Err(parse_err(format!(
                "expected an object, found {}",
                other.kind()
            )))
        }
    };
    for (key, _) in entries {
        if !["name", "traps", "capacity", "edges"].contains(&key.as_str()) {
            return Err(parse_err(format!(
                "unknown field `{key}` of a device (fields: name, traps, capacity, edges)"
            )));
        }
    }
    let field = |name: &str| entries.iter().find(|(k, _)| k == name).map(|(_, v)| v);

    let name = match field("name") {
        Some(Value::Str(s)) => s.clone(),
        Some(other) => {
            return Err(parse_err(format!(
                "`name` must be a string, found {}",
                other.kind()
            )))
        }
        None => return Err(parse_err("missing field `name` of a device")),
    };

    // Per-trap capacities: a count with uniform `capacity`, or an array.
    let capacities: Vec<u32> = match (field("traps"), field("capacity")) {
        (Some(Value::Array(items)), None) => {
            check_node_count(items.len() as u64, "traps").map_err(DeviceJsonError::Invalid)?;
            items
                .iter()
                .map(|v| as_u32(v, "a trap capacity"))
                .collect::<Result<_, _>>()?
        }
        (Some(Value::Array(_)), Some(_)) => {
            return Err(parse_err(
                "`capacity` must be absent when `traps` lists per-trap capacities",
            ))
        }
        (Some(count), Some(capacity)) => {
            let count = as_u32(count, "`traps`")?;
            check_node_count(u64::from(count), "traps").map_err(DeviceJsonError::Invalid)?;
            let capacity = as_u32(capacity, "`capacity`")?;
            vec![capacity; count as usize]
        }
        (Some(_), None) => {
            return Err(parse_err(
                "a trap count in `traps` needs a uniform `capacity`",
            ))
        }
        (None, _) => return Err(parse_err("missing field `traps` of a device")),
    };
    for &capacity in &capacities {
        check_capacity(capacity).map_err(DeviceJsonError::Invalid)?;
    }

    let edges = match field("edges") {
        Some(Value::Array(items)) => items,
        Some(other) => {
            return Err(parse_err(format!(
                "`edges` must be an array, found {}",
                other.kind()
            )))
        }
        None => return Err(parse_err("missing field `edges` of a device")),
    };

    let mut builder = DeviceBuilder::new(name);
    let traps: Vec<TrapId> = capacities.iter().map(|&c| builder.add_trap(c)).collect();

    // Junction count is implied by the highest referenced index.
    let mut parsed_edges = Vec::with_capacity(edges.len());
    let mut max_junction: Option<u32> = None;
    for (i, edge) in edges.iter().enumerate() {
        let items = match edge {
            Value::Array(items) if items.len() == 2 || items.len() == 3 => items,
            _ => {
                return Err(parse_err(format!(
                    "edge {i} must be [a, b] or [a, b, length]"
                )))
            }
        };
        let endpoint_of = |v: &Value| -> Result<EndpointRef, DeviceJsonError> {
            match v {
                Value::Str(s) => parse_endpoint(s),
                other => Err(parse_err(format!(
                    "edge {i} endpoint must be a string, found {}",
                    other.kind()
                ))),
            }
        };
        let a = endpoint_of(&items[0])?;
        let b = endpoint_of(&items[1])?;
        let length = match items.get(2) {
            Some(v) => as_u32(v, "an edge length")?,
            None => 1,
        };
        check_segment_length(length).map_err(DeviceJsonError::Invalid)?;
        for e in [&a, &b] {
            if let EndpointRef::Junction(j) = e {
                max_junction = Some(max_junction.unwrap_or(0).max(j.0));
            }
        }
        parsed_edges.push((a, b, length));
    }
    let junctions: Vec<JunctionId> = match max_junction {
        Some(max) => {
            check_node_count(u64::from(max) + 1, "junctions").map_err(DeviceJsonError::Invalid)?;
            (0..=max).map(|_| builder.add_junction()).collect()
        }
        None => Vec::new(),
    };

    // Auto-assign free trap sides where the author did not pin one:
    // right-then-left for the first endpoint, left-then-right for the
    // second (so a left-to-right edge list wires like `presets::linear`).
    // qccd-lint: allow(hash-iteration) — membership-only duplicate check while
    // parsing a device file (cold path); nothing iterates it.
    let mut used: HashSet<(u32, Side)> = HashSet::new();
    let mut resolve =
        |e: EndpointRef, preference: [Side; 2]| -> Result<Endpoint, DeviceJsonError> {
            match e {
                EndpointRef::Junction(j) => {
                    if j.index() >= junctions.len() {
                        return Err(parse_err(format!("unknown junction j{}", j.0)));
                    }
                    Ok(Endpoint::Junction(j))
                }
                EndpointRef::Trap(t, side) => {
                    if t.index() >= traps.len() {
                        return Err(parse_err(format!("unknown trap t{}", t.0)));
                    }
                    let side = match side {
                        Some(side) => side,
                        None => preference
                            .into_iter()
                            .find(|&s| !used.contains(&(t.0, s)))
                            .ok_or_else(|| {
                                DeviceJsonError::Invalid(format!(
                                    "both ports of t{} already carry segments",
                                    t.0
                                ))
                            })?,
                    };
                    used.insert((t.0, side));
                    Ok(Endpoint::Trap(t, side))
                }
            }
        };

    for (a, b, length) in parsed_edges {
        let a = resolve(a, [Side::Right, Side::Left])?;
        let b = resolve(b, [Side::Left, Side::Right])?;
        builder
            .connect(a, b, length)
            .map_err(|e| DeviceJsonError::Invalid(e.to_string()))?;
    }
    builder
        .build()
        .map_err(|e| DeviceJsonError::Invalid(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;

    fn load(text: &str) -> Result<Device, DeviceJsonError> {
        Device::from_json(text)
    }

    #[test]
    fn compact_linear_matches_the_preset_bit_for_bit() {
        let compact = r#"{
            "name": "L6",
            "traps": 6,
            "capacity": 20,
            "edges": [["t0","t1",4],["t1","t2",4],["t2","t3",4],
                      ["t3","t4",4],["t4","t5",4]]
        }"#;
        let loaded = load(compact).unwrap();
        assert_eq!(loaded, presets::l6(20));
    }

    #[test]
    fn per_trap_capacities_and_default_length() {
        // The capacity limit is inclusive.
        let loaded =
            load(r#"{"name": "duo", "traps": [5, 1048575], "edges": [["t0","t1"]]}"#).unwrap();
        assert_eq!(loaded.trap(TrapId(0)).capacity(), 5);
        assert_eq!(loaded.trap(TrapId(1)).capacity(), crate::MAX_TRAP_CAPACITY);
        assert_eq!(loaded.segment(crate::SegmentId(0)).length(), 1);
    }

    #[test]
    fn pinned_sides_are_respected() {
        // Connect through the *left* port of t0 explicitly, with a
        // segment exactly as long as the (inclusive) length limit.
        let loaded = load(
            r#"{"name": "pin", "traps": 2, "capacity": 4,
                "edges": [["t0:left","t1:right",524287]]}"#,
        )
        .unwrap();
        let s = crate::SegmentId(0);
        assert_eq!(loaded.segment(s).length(), crate::MAX_SEGMENT_LENGTH);
        assert!(loaded.trap(TrapId(0)).port(Side::Left).is_some());
        assert!(loaded.trap(TrapId(0)).port(Side::Right).is_none());
        assert!(loaded.trap(TrapId(1)).port(Side::Right).is_some());
    }

    #[test]
    fn compact_errors_are_descriptive() {
        for (text, needle) in [
            (r#"{"traps": 2, "capacity": 4, "edges": []}"#, "name"),
            (r#"{"name": "x", "capacity": 4, "edges": []}"#, "traps"),
            (
                r#"{"name": "x", "traps": 2, "edges": []}"#,
                "uniform `capacity`",
            ),
            (
                r#"{"name": "x", "traps": [2, 2], "capacity": 4, "edges": []}"#,
                "absent",
            ),
            (
                r#"{"name": "x", "traps": 2, "capacity": 4, "edges": [["t0","t9"]]}"#,
                "unknown trap t9",
            ),
            (
                r#"{"name": "x", "traps": 2, "capacity": 4, "edges": [["t0","x1"]]}"#,
                "t<N>",
            ),
            (
                r#"{"name": "x", "traps": 2, "capacity": 4, "edges": [["","t1"]]}"#,
                "t<N>",
            ),
            (
                r#"{"name": "x", "traps": 2, "capacity": 4, "edges": [["🦀0","t1"]]}"#,
                "t<N>",
            ),
            (
                r#"{"name": "x", "traps": 2, "capacity": 4, "edges": [["t","t1"]]}"#,
                "t<N>",
            ),
            (
                r#"{"name": "x", "traps": 2, "capacity": 4, "edges": [["t0:up","t1"]]}"#,
                "unknown side `up`",
            ),
            (
                r#"{"name": "x", "traps": 2, "capacity": 4, "edges": [["t0","t1"]], "junk": 1}"#,
                "unknown field `junk`",
            ),
            (
                r#"{"name": "x", "traps": 2, "capacity": 4294967295, "edges": [["t0","t1"]]}"#,
                "trap capacity 4294967295 exceeds the limit of 1048575 (MAX_TRAP_CAPACITY)",
            ),
            (
                r#"{"name": "x", "traps": [4, 1048576], "edges": [["t0","t1"]]}"#,
                "(MAX_TRAP_CAPACITY)",
            ),
            (
                r#"{"name": "x", "traps": 2, "capacity": 4,
                    "edges": [["t0","j0",4294967295],["t1","j0",4294967295]]}"#,
                "segment length 4294967295 exceeds the limit of 524287 (MAX_SEGMENT_LENGTH)",
            ),
        ] {
            let err = load(text).unwrap_err();
            assert!(
                err.to_string().contains(needle),
                "`{text}` gave `{err}`, expected `{needle}`"
            );
        }
    }

    #[test]
    fn compact_devices_still_validate_topology() {
        // A third edge onto a 2-port trap is a builder-level error.
        let err = load(
            r#"{"name": "x", "traps": 3, "capacity": 4,
                "edges": [["t0","t1"],["t1","t2"],["t1","t0"]]}"#,
        )
        .unwrap_err();
        assert!(matches!(err, DeviceJsonError::Invalid(_)), "{err}");
        // Disconnected compact devices are rejected like built ones.
        let err = load(r#"{"name": "x", "traps": 3, "capacity": 4, "edges": [["t0","t1"]]}"#)
            .unwrap_err();
        assert!(err.to_string().contains("disconnected"), "{err}");
    }

    #[test]
    fn compact_grid_with_junction_ring() {
        // The G2x3 fabric expressed compactly: 6 traps, 4 junctions.
        let loaded = load(
            r#"{"name": "G2x3", "traps": 6, "capacity": 20, "edges": [
                ["t0:right","j0",1],["t1:left","j0",1],
                ["t1:right","j1",1],["t2:left","j1",1],
                ["t3:right","j2",1],["t4:left","j2",1],
                ["t4:right","j3",1],["t5:left","j3",1],
                ["j0","j1",2],["j1","j3",2],["j3","j2",2],["j2","j0",2]
            ]}"#,
        )
        .unwrap();
        assert_eq!(loaded, presets::g2x3(20));
    }
}
