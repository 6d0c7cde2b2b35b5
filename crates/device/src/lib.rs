//! QCCD trapped-ion device model.
//!
//! A Quantum Charge Coupled Device (Kielpinski–Monroe–Wineland, Nature
//! 2002) is a set of small linear ion traps interconnected by shuttling
//! paths: straight *segments* met at *junctions* (paper §III-B). This crate
//! models that hardware:
//!
//! * [`Device`] — the topology graph: traps (with capacities and at most
//!   two chain-end ports), segments (with lengths in segment units) and
//!   junctions (3-way "Y" or 4-way "X");
//! * [`DeviceBuilder`] — programmatic construction of arbitrary topologies
//!   with validation;
//! * [`presets`] — the paper's evaluated devices: `l6` (Honeywell-style
//!   linear, Fig. 4) and `g2x3` (2×3 grid, §VIII-B), plus parametric
//!   `linear` and `grid` families;
//! * [`Route`]/[`Leg`] — shortest-path shuttling routes. A route is cut
//!   into *legs* at intermediate traps, because passing through a trap
//!   requires a merge, a chain reorder and a split (Fig. 4), whereas
//!   junctions are crossed in flight.
//!
//! # Example
//!
//! ```
//! use qccd_device::{presets, TrapId};
//!
//! let device = presets::l6(20);
//! assert_eq!(device.trap_count(), 6);
//! let route = device.route(TrapId(0), TrapId(2)).expect("connected");
//! // Linear topologies pass through intermediate traps...
//! assert_eq!(route.intermediate_traps(), vec![TrapId(1)]);
//!
//! let grid = presets::g2x3(20);
//! let route = grid.route(TrapId(0), TrapId(2)).expect("connected");
//! // ...grids do not (paper §IV-B).
//! assert!(route.intermediate_traps().is_empty());
//! ```

#![warn(missing_docs)]

pub mod builder;
pub mod compact;
pub mod ids;
pub mod path;
pub mod presets;
pub mod topology;

pub use builder::{BuildError, DeviceBuilder};
pub use ids::{IonId, JunctionId, SegmentId, Side, TrapId};
pub use path::{Leg, Route, RouteCache, RouteError, RouteScratch};
pub use topology::{
    check_capacity, check_node_count, check_segment_length, Device, DeviceJsonError, Junction,
    JunctionKind, NodeRef, Segment, Trap, MAX_DEVICE_NODES, MAX_SEGMENT_LENGTH, MAX_TRAP_CAPACITY,
};
