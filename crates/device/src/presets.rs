//! The device families evaluated in the paper.
//!
//! §VIII-B: "we use two device topologies: **L6**, a device similar to
//! Figure 4 with 6 traps connected in a linear fashion (this is the
//! topology of Honeywell's QCCD system), and **G2x3**, a grid device
//! similar to Figure 2b with 6 traps arranged in two rows and three
//! columns." Both families are parametric here (trap count / grid shape,
//! capacity, segment lengths) to support the ablation studies.

use crate::builder::DeviceBuilder;
use crate::ids::Side;
use crate::topology::Device;

/// Default number of unit segments between adjacent traps in a linear
/// device.
pub const DEFAULT_LINEAR_SPACING: u32 = 4;
/// Default number of unit segments between a trap and its junction in a
/// grid device.
pub const DEFAULT_GRID_STUB: u32 = 1;
/// Default number of unit segments between adjacent junctions in a grid
/// device.
pub const DEFAULT_GRID_LINK: u32 = 2;

/// Builds a linear device: `n` traps of the given `capacity` joined end to
/// end by segments of `spacing` units, with no junctions.
///
/// # Panics
///
/// Panics if `n == 0`, `capacity == 0` or `spacing == 0`.
pub fn linear(n: u32, capacity: u32, spacing: u32) -> Device {
    assert!(n > 0, "linear device needs at least one trap");
    assert!(capacity > 0, "capacity must be positive");
    assert!(spacing > 0, "spacing must be positive");
    let mut b = DeviceBuilder::new(format!("L{n}"));
    let traps: Vec<_> = (0..n).map(|_| b.add_trap(capacity)).collect();
    for w in traps.windows(2) {
        b.connect((w[0], Side::Right), (w[1], Side::Left), spacing)
            // qccd-lint: allow(engine-panic) — preset geometry is statically well-formed
            .expect("fresh ports cannot collide");
    }
    // qccd-lint: allow(engine-panic) — preset geometry is statically well-formed
    b.build().expect("linear construction is always valid")
}

/// The paper's L6 device: 6 traps in a line (Honeywell-style topology).
pub fn l6(capacity: u32) -> Device {
    linear(6, capacity, DEFAULT_LINEAR_SPACING)
}

/// Builds a grid device: `rows`×`cols` traps with an X/Y-junction fabric.
///
/// Between horizontally adjacent traps sits a junction; each junction
/// carries the stubs of its two flanking traps plus up to two fabric links.
/// The fabric links join the `rows`×`cols−1` junction grid in a serpentine
/// ring (boustrophedon plus a closing edge when port budget allows), so
/// **every trap-to-trap shuttle crosses only junctions — never an
/// intermediate trap** (§IV-B's grid advantage) while every junction stays
/// within the physical 4-way (X) limit. For the paper's 2×3 instance this
/// is exactly the ladder of four X junctions. `stub` is the
/// trap-to-junction segment length, `link` the junction-to-junction length.
///
/// # Panics
///
/// Panics if `rows == 0`, `cols < 2`, `capacity == 0`, or either length is
/// zero.
pub fn grid(rows: u32, cols: u32, capacity: u32, stub: u32, link: u32) -> Device {
    assert!(rows > 0, "grid needs at least one row");
    assert!(cols >= 2, "grid needs at least two columns of traps");
    assert!(capacity > 0, "capacity must be positive");
    assert!(stub > 0 && link > 0, "segment lengths must be positive");
    let mut b = DeviceBuilder::new(format!("G{rows}x{cols}"));
    let trap = |r: u32, c: u32| r * cols + c;
    let junction = |r: u32, jc: u32| r * (cols - 1) + jc;

    let traps: Vec<_> = (0..rows * cols).map(|_| b.add_trap(capacity)).collect();
    let junctions: Vec<_> = (0..rows * (cols - 1)).map(|_| b.add_junction()).collect();

    // Trap stubs into the junction fabric.
    for r in 0..rows {
        for c in 0..cols {
            let t = traps[trap(r, c) as usize];
            if c > 0 {
                b.connect(
                    (t, Side::Left),
                    junctions[junction(r, c - 1) as usize],
                    stub,
                )
                // qccd-lint: allow(engine-panic) — preset geometry is statically well-formed
                .expect("grid stub");
            }
            if c < cols - 1 {
                b.connect((t, Side::Right), junctions[junction(r, c) as usize], stub)
                    // qccd-lint: allow(engine-panic) — preset geometry is statically well-formed
                    .expect("grid stub");
            }
        }
    }
    // Serpentine fabric over the junction grid: row 0 left-to-right, row 1
    // right-to-left, and so on. Each junction gets at most two fabric links
    // so its total degree never exceeds four.
    let mut order: Vec<u32> = Vec::with_capacity((rows * (cols - 1)) as usize);
    for r in 0..rows {
        let row: Vec<u32> = (0..cols - 1).map(|jc| junction(r, jc)).collect();
        if r % 2 == 0 {
            order.extend(row);
        } else {
            order.extend(row.into_iter().rev());
        }
    }
    for w in order.windows(2) {
        b.connect(junctions[w[0] as usize], junctions[w[1] as usize], link)
            // qccd-lint: allow(engine-panic) — preset geometry is statically well-formed
            .expect("grid fabric");
    }
    // Close the ring when it adds a genuinely new edge.
    if order.len() > 2 {
        // qccd-lint: allow(engine-panic) — preset geometry is statically well-formed
        let first = junctions[*order.first().expect("non-empty fabric") as usize];
        // qccd-lint: allow(engine-panic) — preset geometry is statically well-formed
        let last = junctions[*order.last().expect("non-empty fabric") as usize];
        // qccd-lint: allow(engine-panic) — preset geometry is statically well-formed
        b.connect(last, first, link).expect("grid ring closure");
    }
    // qccd-lint: allow(engine-panic) — preset geometry is statically well-formed
    b.build().expect("grid construction is always valid")
}

/// The paper's G2x3 device: 2 rows × 3 columns of traps.
pub fn g2x3(capacity: u32) -> Device {
    grid(2, 3, capacity, DEFAULT_GRID_STUB, DEFAULT_GRID_LINK)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::TrapId;

    #[test]
    fn l6_is_linear_6() {
        let d = l6(20);
        assert_eq!(d.name(), "L6");
        assert_eq!(d.trap_count(), 6);
        assert_eq!(d.junction_count(), 0);
    }

    #[test]
    fn g2x3_names_and_shape() {
        let d = g2x3(20);
        assert_eq!(d.name(), "G2x3");
        assert_eq!(d.trap_count(), 6);
        assert_eq!(d.junction_count(), 4);
    }

    #[test]
    fn grid_rows_and_cols_scale() {
        let d = grid(3, 4, 10, 1, 2);
        assert_eq!(d.trap_count(), 12);
        assert_eq!(d.junction_count(), 9);
        // Every trap pair reachable without intermediate traps.
        for a in d.trap_ids() {
            for b in d.trap_ids() {
                if a != b {
                    assert!(d.route(a, b).unwrap().intermediate_traps().is_empty());
                }
            }
        }
    }

    #[test]
    fn single_row_grid_works() {
        let d = grid(1, 3, 10, 1, 2);
        assert_eq!(d.trap_count(), 3);
        assert_eq!(d.junction_count(), 2);
        let r = d.route(TrapId(0), TrapId(2)).unwrap();
        assert!(r.intermediate_traps().is_empty());
        assert_eq!(r.junction_count(), 2);
    }

    #[test]
    fn linear_spacing_is_respected() {
        let d = linear(4, 10, 7);
        let r = d.route(TrapId(0), TrapId(3)).unwrap();
        assert_eq!(r.total_length_units(), 21);
    }

    #[test]
    #[should_panic(expected = "two columns")]
    fn one_column_grid_panics() {
        let _ = grid(2, 1, 10, 1, 2);
    }

    #[test]
    #[should_panic(expected = "at least one trap")]
    fn zero_trap_linear_panics() {
        let _ = linear(0, 10, 4);
    }
}
