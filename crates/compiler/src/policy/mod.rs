//! The four policy seams of the compiler pipeline.
//!
//! The paper's design-space study varies *which heuristic* fills each
//! compilation role — initial placement, shuttling-route choice, chain
//! reordering, and destination-full eviction — while the pass structure
//! around them stays fixed. Each seam is a closed set of heuristics, so
//! its selector enum in [`crate::config`] is the policy: one inherent
//! method per seam matches on the variant and runs its heuristic. Each
//! method takes the scheduler's state as plain arguments — the route
//! cache (whose `device()` is the device), the congestion window, the
//! [`crate::MachineState`].
//!
//! | Seam | Selector · method | Heuristics |
//! |------|-------------------|------------|
//! | 1. placement | [`MappingKind::place`]`(circuit, device, buffer_slots)` | `RoundRobin`, `UsageWeighted` |
//! | 2. routing | [`RoutingKind::next_route`]`(routes, congestion, from, to)` | `GreedyShortest`, `LookaheadCongestion` |
//! | 3. reordering | [`ReorderMethod::bring_to_end`]`(state, out, ion, trap, side)` | `GateSwap`, `IonSwap` |
//! | 4. eviction | [`EvictionKind::pick`]`(routes, state, trap, protected, next_use)` | `FurthestNextUse`, `ChainEnd` |
//!
//! A [`crate::CompilerConfig`] names one heuristic per seam, and a
//! [`crate::Pipeline`] runs them.
//!
//! [`MappingKind::place`]: crate::MappingKind::place
//! [`RoutingKind::next_route`]: crate::RoutingKind::next_route
//! [`ReorderMethod::bring_to_end`]: crate::ReorderMethod::bring_to_end
//! [`EvictionKind::pick`]: crate::EvictionKind::pick

pub mod eviction;
pub mod mapping;
pub mod reorder;
pub mod routing;

pub use eviction::Eviction;
pub use routing::Congestion;
