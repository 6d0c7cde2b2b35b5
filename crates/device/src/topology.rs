//! The device topology graph.

use crate::ids::{JunctionId, SegmentId, Side, TrapId};
use serde::Serialize;
use std::fmt;

/// A node of the topology graph: either a trap or a junction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum NodeRef {
    /// A trapping zone.
    Trap(TrapId),
    /// A junction.
    Junction(JunctionId),
}

impl fmt::Display for NodeRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NodeRef::Trap(t) => t.fmt(f),
            NodeRef::Junction(j) => j.fmt(f),
        }
    }
}

/// A trapping zone holding one linear ion chain.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct Trap {
    capacity: u32,
    ports: [Option<SegmentId>; 2],
}

impl Trap {
    pub(crate) fn new(capacity: u32) -> Self {
        Trap {
            capacity,
            ports: [None, None],
        }
    }

    pub(crate) fn set_port(&mut self, side: Side, segment: SegmentId) {
        self.ports[side.index()] = Some(segment);
    }

    /// Maximum number of ions the trap can hold (paper §IV-A's "trap
    /// capacity").
    pub fn capacity(&self) -> u32 {
        self.capacity
    }

    /// The segment attached at `side`, if any.
    pub fn port(&self, side: Side) -> Option<SegmentId> {
        self.ports[side.index()]
    }

    /// The side whose port is `segment`, if attached.
    pub fn side_of_port(&self, segment: SegmentId) -> Option<Side> {
        Side::BOTH
            .into_iter()
            .find(|s| self.ports[s.index()] == Some(segment))
    }
}

/// Junction geometry, named by its degree as in Table I.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum JunctionKind {
    /// 3-way junction (crossing time 100 µs in Table I).
    Y,
    /// 4-way junction (crossing time 120 µs in Table I).
    X,
}

impl fmt::Display for JunctionKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            JunctionKind::Y => "Y",
            JunctionKind::X => "X",
        })
    }
}

/// A junction where up to four shuttling segments meet.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct Junction {
    segments: Vec<SegmentId>,
}

impl Junction {
    pub(crate) fn new() -> Self {
        Junction {
            segments: Vec::new(),
        }
    }

    pub(crate) fn attach(&mut self, segment: SegmentId) {
        self.segments.push(segment);
    }

    /// Segments meeting at this junction.
    pub fn segments(&self) -> &[SegmentId] {
        &self.segments
    }

    /// Number of attached segments.
    pub fn degree(&self) -> usize {
        self.segments.len()
    }

    /// Geometry class: degree ≤ 3 is a Y junction, 4 an X junction.
    pub fn kind(&self) -> JunctionKind {
        if self.degree() >= 4 {
            JunctionKind::X
        } else {
            JunctionKind::Y
        }
    }
}

/// A straight run of electrode segments between two nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct Segment {
    a: NodeRef,
    b: NodeRef,
    length: u32,
}

impl Segment {
    pub(crate) fn new(a: NodeRef, b: NodeRef, length: u32) -> Self {
        Segment { a, b, length }
    }

    /// One endpoint.
    pub fn a(&self) -> NodeRef {
        self.a
    }

    /// The other endpoint.
    pub fn b(&self) -> NodeRef {
        self.b
    }

    /// Length in unit electrode segments (each priced at 5 µs by Table I).
    pub fn length(&self) -> u32 {
        self.length
    }

    /// The endpoint opposite `node`, or `None` if `node` is not an
    /// endpoint.
    pub fn other_end(&self, node: NodeRef) -> Option<NodeRef> {
        if self.a == node {
            Some(self.b)
        } else if self.b == node {
            Some(self.a)
        } else {
            None
        }
    }
}

/// Error from [`Device::from_json`].
#[derive(Debug, Clone, PartialEq)]
pub enum DeviceJsonError {
    /// The text is not valid JSON, or is JSON that is not shaped like a
    /// device description (the parser's line/column or the offending
    /// field is in the message).
    Parse(String),
    /// A well-formed description of a device that
    /// [`crate::DeviceBuilder`] rejects (taken ports, full junctions,
    /// zero capacities or lengths, disconnected traps, …) or that
    /// exceeds a device limit ([`MAX_DEVICE_NODES`],
    /// [`MAX_TRAP_CAPACITY`], [`MAX_SEGMENT_LENGTH`]).
    Invalid(String),
}

impl fmt::Display for DeviceJsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeviceJsonError::Parse(m) => write!(f, "device JSON parse error: {m}"),
            DeviceJsonError::Invalid(m) => write!(f, "invalid device: {m}"),
        }
    }
}

impl std::error::Error for DeviceJsonError {}

/// The most traps, and separately the most junctions, one [`Device`]
/// may have. Every loader checks counts that come from external input
/// against it before allocating, so an oversized description is an
/// error instead of an out-of-memory abort. The paper's devices have 6
/// traps and the design-space studies stay far below this.
pub const MAX_DEVICE_NODES: u32 = 4096;

/// The largest capacity one trap may have: even [`MAX_DEVICE_NODES`]
/// traps this large have a total capacity that fits a `u32`.
pub const MAX_TRAP_CAPACITY: u32 = u32::MAX / MAX_DEVICE_NODES;

/// The longest segment, in unit segments. A route visits each of at
/// most 2 × [`MAX_DEVICE_NODES`] traps and junctions once, so its
/// length fits a `u32`.
pub const MAX_SEGMENT_LENGTH: u32 = u32::MAX / (2 * MAX_DEVICE_NODES);

/// Checks a trap or junction count against [`MAX_DEVICE_NODES`];
/// `what` names the counted nodes (`"traps"`, `"junctions"`).
///
/// # Errors
///
/// Returns a message naming the count and the limit.
pub fn check_node_count(count: u64, what: &str) -> Result<(), String> {
    if count > u64::from(MAX_DEVICE_NODES) {
        return Err(format!(
            "{count} {what} exceed the device size limit of {MAX_DEVICE_NODES} \
             (MAX_DEVICE_NODES)"
        ));
    }
    Ok(())
}

/// Checks a trap capacity against [`MAX_TRAP_CAPACITY`].
///
/// # Errors
///
/// Returns a message naming the capacity and the limit.
pub fn check_capacity(capacity: u32) -> Result<(), String> {
    if capacity > MAX_TRAP_CAPACITY {
        return Err(format!(
            "trap capacity {capacity} exceeds the limit of {MAX_TRAP_CAPACITY} \
             (MAX_TRAP_CAPACITY)"
        ));
    }
    Ok(())
}

/// Checks a segment length against [`MAX_SEGMENT_LENGTH`].
///
/// # Errors
///
/// Returns a message naming the length and the limit.
pub fn check_segment_length(length: u32) -> Result<(), String> {
    if length > MAX_SEGMENT_LENGTH {
        return Err(format!(
            "segment length {length} exceeds the limit of {MAX_SEGMENT_LENGTH} \
             (MAX_SEGMENT_LENGTH)"
        ));
    }
    Ok(())
}

/// A complete QCCD device: the input "candidate architecture" of the
/// paper's toolflow (Fig. 3).
///
/// Construct devices with [`crate::DeviceBuilder`], the
/// [`crate::presets`] functions, or load one from a JSON file with
/// [`Device::from_json`].
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Device {
    name: String,
    traps: Vec<Trap>,
    segments: Vec<Segment>,
    junctions: Vec<Junction>,
}

impl Device {
    pub(crate) fn from_parts(
        name: String,
        traps: Vec<Trap>,
        segments: Vec<Segment>,
        junctions: Vec<Junction>,
    ) -> Self {
        Device {
            name,
            traps,
            segments,
            junctions,
        }
    }

    /// Loads a device from its JSON description, the
    /// `{name, traps, capacity, edges}` shape of [`crate::compact`].
    /// The description is built through [`crate::DeviceBuilder`], so the
    /// loaded device is valid by construction.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceJsonError::Parse`] for malformed JSON or wrong
    /// shape, and [`DeviceJsonError::Invalid`] for a well-formed
    /// description of a device the builder rejects or one past a device
    /// limit — never panics on untrusted input.
    ///
    /// # Example
    ///
    /// ```
    /// use qccd_device::{presets, Device};
    ///
    /// // The same two-trap line as `presets::linear(2, 8, 3)`.
    /// let l2 = r#"{"name": "L2", "traps": 2, "capacity": 8, "edges": [["t0", "t1", 3]]}"#;
    /// assert_eq!(Device::from_json(l2).unwrap(), presets::linear(2, 8, 3));
    /// assert!(Device::from_json("{\"name\": 3}").is_err());
    /// ```
    pub fn from_json(text: &str) -> Result<Device, DeviceJsonError> {
        let value: serde::Value =
            serde_json::from_str(text).map_err(|e| DeviceJsonError::Parse(e.to_string()))?;
        crate::compact::from_compact_value(&value)
    }

    /// A copy of this topology with every trap capacity set to
    /// `capacity` — the transformation behind running the paper's
    /// trap-sizing sweeps (Figs. 6, 8) on a custom JSON-loaded device.
    pub fn with_uniform_capacity(&self, capacity: u32) -> Device {
        let mut device = self.clone();
        for trap in &mut device.traps {
            trap.capacity = capacity;
        }
        device
    }

    /// Device name (used in reports).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of traps.
    pub fn trap_count(&self) -> usize {
        self.traps.len()
    }

    /// Number of segments.
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// Number of junctions.
    pub fn junction_count(&self) -> usize {
        self.junctions.len()
    }

    /// The trap with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn trap(&self, id: TrapId) -> &Trap {
        &self.traps[id.index()]
    }

    /// The segment with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn segment(&self, id: SegmentId) -> &Segment {
        &self.segments[id.index()]
    }

    /// The junction with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn junction(&self, id: JunctionId) -> &Junction {
        &self.junctions[id.index()]
    }

    /// Iterates over trap ids.
    pub fn trap_ids(&self) -> impl Iterator<Item = TrapId> + '_ {
        (0..self.traps.len() as u32).map(TrapId)
    }

    /// Total ion capacity over all traps.
    pub fn total_capacity(&self) -> u32 {
        self.traps.iter().map(Trap::capacity).sum()
    }

    /// Largest single-trap capacity.
    pub fn max_trap_capacity(&self) -> u32 {
        self.traps.iter().map(Trap::capacity).max().unwrap_or(0)
    }

    /// Segments attached to `node`, borrowed without allocating: a
    /// trap's ports in [`Side::BOTH`] order, or a junction's segment
    /// list in its stored order. Route search relaxes edges in this
    /// order, so it fixes how equal-cost paths tie-break.
    pub fn segments_at(&self, node: NodeRef) -> impl Iterator<Item = SegmentId> + '_ {
        let (ports, listed): ([Option<SegmentId>; 2], &[SegmentId]) = match node {
            NodeRef::Trap(t) => (Side::BOTH.map(|s| self.trap(t).port(s)), &[]),
            NodeRef::Junction(j) => ([None; 2], self.junction(j).segments()),
        };
        ports.into_iter().flatten().chain(listed.iter().copied())
    }
}

impl fmt::Display for Device {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({} traps, {} segments, {} junctions, capacity {})",
            self.name,
            self.trap_count(),
            self.segment_count(),
            self.junction_count(),
            self.total_capacity()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;

    #[test]
    fn l6_shape() {
        let d = presets::l6(17);
        assert_eq!(d.trap_count(), 6);
        assert_eq!(d.segment_count(), 5);
        assert_eq!(d.junction_count(), 0);
        assert_eq!(d.total_capacity(), 6 * 17);
        assert_eq!(d.max_trap_capacity(), 17);
    }

    #[test]
    fn g2x3_shape() {
        let d = presets::g2x3(20);
        assert_eq!(d.trap_count(), 6);
        // 8 stubs + 2 verticals + 2 horizontal backbone edges.
        assert_eq!(d.segment_count(), 12);
        assert_eq!(d.junction_count(), 4);
        for j in 0..4 {
            assert_eq!(d.junction(JunctionId(j)).kind(), JunctionKind::X);
        }
    }

    #[test]
    fn linear_ports_follow_the_line() {
        let d = presets::linear(3, 10, 4);
        // Middle trap has both ports, end traps one each.
        let ports = |t| d.segments_at(NodeRef::Trap(TrapId(t))).count();
        assert_eq!((ports(0), ports(1), ports(2)), (1, 2, 1));
        assert!(d.trap(TrapId(0)).port(Side::Right).is_some());
        assert!(d.trap(TrapId(0)).port(Side::Left).is_none());
    }

    #[test]
    fn segment_other_end() {
        let d = presets::linear(2, 10, 4);
        let s = d.segment(SegmentId(0));
        assert_eq!(
            s.other_end(NodeRef::Trap(TrapId(0))),
            Some(NodeRef::Trap(TrapId(1)))
        );
        assert_eq!(s.other_end(NodeRef::Trap(TrapId(5))), None);
    }

    #[test]
    fn display_summarises_shape() {
        let text = presets::l6(20).to_string();
        assert!(text.contains("6 traps"));
        assert!(text.contains("capacity 120"));
    }

    #[test]
    fn from_json_reports_parse_errors_with_position() {
        let err = Device::from_json("{\n  \"name\": \"x\",\n  oops\n}").unwrap_err();
        match err {
            DeviceJsonError::Parse(m) => assert!(m.contains("line 3"), "message: {m}"),
            other => panic!("expected parse error, got {other:?}"),
        }
        // Wrong shape (valid JSON) is still a parse-class error.
        assert!(matches!(
            Device::from_json("{\"name\": 3}"),
            Err(DeviceJsonError::Parse(_))
        ));
    }

    #[test]
    fn from_json_rejects_inconsistent_topologies() {
        // Tamper with a valid device in ways the schema cannot catch:
        // each must be an Invalid error, not a panic.
        let good = r#"{"name":"L3","traps":3,"capacity":10,
            "edges":[["t0:right","t1:left",4],["t1:right","t2:left",4]]}"#;
        assert_eq!(Device::from_json(good).unwrap(), presets::linear(3, 10, 4));
        for (needle, replacement, expect) in [
            // A second segment on a port that already carries one.
            ("\"t1:right\"", "\"t0:right\"", "already carries a segment"),
            // Capacity zero.
            ("\"capacity\":10", "\"capacity\":0", "zero capacity"),
            // Segment length zero.
            ("\"t2:left\",4]", "\"t2:left\",0]", "at least one unit"),
        ] {
            let bad = good.replacen(needle, replacement, 1);
            assert_ne!(bad, good, "tamper pattern `{needle}` did not apply");
            match Device::from_json(&bad) {
                Err(DeviceJsonError::Invalid(m)) => {
                    assert!(m.contains(expect), "message `{m}` missing `{expect}`")
                }
                other => panic!("tamper `{needle}`: expected Invalid, got {other:?}"),
            }
        }
    }

    #[test]
    fn uniform_capacity_rescales_only_capacities() {
        let d = presets::g2x3(17).with_uniform_capacity(23);
        assert_eq!(d.max_trap_capacity(), 23);
        assert_eq!(d.total_capacity(), 6 * 23);
        assert_eq!(d.segment_count(), presets::g2x3(17).segment_count());
    }
}
