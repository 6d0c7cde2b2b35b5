//! No device description panics the loader or the device it loads.
//!
//! Each case draws one device text from a seeded stream
//! (`proptest::rng_for_case`, so every run tests the same inputs):
//! random trap and junction counts, capacities, lengths and edge lists
//! over the full `u32` range. `Device::from_json` must return `Ok` or
//! `Err`, never panic, and on every loaded device `total_capacity` and
//! `route` between all trap pairs must run too.

use proptest::rng_for_case;
use qccd_device::Device;
use rand::Rng;
use std::panic::catch_unwind;

const CASES: u32 = 512;

/// Mostly a small valid value; otherwise zero, `u32::MAX`, or a random
/// value of random magnitude.
fn value(rng: &mut impl Rng) -> u32 {
    match rng.gen_range(0..32u32) {
        0 => 0,
        1 => u32::MAX,
        2 => rng.gen::<u32>() >> rng.gen_range(0..32u32),
        _ => rng.gen_range(1..=40),
    }
}

/// The endpoint of node `n` (traps `0..traps`, then junctions):
/// sometimes with a pinned side, rarely with a random index.
fn endpoint(rng: &mut impl Rng, traps: u32, n: u32) -> String {
    let (kind, index) = if n < traps {
        ("t", n)
    } else {
        ("j", n - traps)
    };
    let index = if rng.gen_range(0..64u32) == 0 {
        value(rng)
    } else {
        index
    };
    let side = match rng.gen_range(0..16u32) {
        0 => ":left",
        1 => ":right",
        _ => "",
    };
    format!("\"{kind}{index}{side}\"")
}

/// One random device description.
fn device_text(rng: &mut impl Rng) -> String {
    let traps = if rng.gen_range(0..8u32) == 0 {
        value(rng)
    } else {
        rng.gen_range(1..=6u32)
    };
    let traps_field = if traps <= 6 && rng.gen() {
        let capacities: Vec<String> = (0..traps).map(|_| value(rng).to_string()).collect();
        format!("[{}]", capacities.join(", "))
    } else {
        format!("{traps}, \"capacity\": {}", value(rng))
    };
    // The edges walk the nodes in a random order, so ports and junctions
    // are rarely overfull and a good share of the texts load; a random
    // extra edge may follow.
    let wired = traps.min(6);
    let nodes = wired + rng.gen_range(0..=3u32);
    let mut order: Vec<u32> = (0..nodes).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.gen_range(0..=i));
    }
    let mut pairs: Vec<(u32, u32)> = order.windows(2).map(|w| (w[0], w[1])).collect();
    if nodes > 0 && rng.gen() {
        pairs.push((rng.gen_range(0..nodes), rng.gen_range(0..nodes)));
    }
    let edges: Vec<String> = pairs
        .into_iter()
        .map(|(a, b)| {
            let (a, b) = (endpoint(rng, wired, a), endpoint(rng, wired, b));
            match rng.gen_range(0..4u32) {
                0 => format!("[{a}, {b}]"),
                _ => format!("[{a}, {b}, {}]", value(rng)),
            }
        })
        .collect();
    format!(
        "{{\"name\": \"random\", \"traps\": {traps_field}, \"edges\": [{}]}}",
        edges.join(", ")
    )
}

/// Loads `text` and, if it loads, queries the device. Returns whether
/// it loaded.
fn exercise(text: &str) -> bool {
    let Ok(device) = Device::from_json(text) else {
        return false;
    };
    let _ = device.total_capacity();
    for a in device.trap_ids() {
        for b in device.trap_ids() {
            if let Ok(route) = device.route(a, b) {
                let _ = route.total_length_units();
            }
        }
    }
    true
}

#[test]
fn device_json_never_panics() {
    let mut loaded = 0;
    for case in 0..CASES {
        let text = device_text(&mut rng_for_case("device_json_never_panics", case));
        match catch_unwind(|| exercise(&text)) {
            Ok(ok) => loaded += u32::from(ok),
            Err(_) => panic!("case {case} panicked on {text}"),
        }
    }
    // Both outcomes must be common, or the property tests little.
    assert!(
        (CASES / 8..CASES - CASES / 8).contains(&loaded),
        "{loaded} of {CASES} cases loaded"
    );
}
