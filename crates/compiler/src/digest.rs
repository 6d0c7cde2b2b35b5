//! Content hashes: FNV-1a 64 over bytes, and over a value's canonical
//! JSON streamed straight into the hash.
//!
//! The stage memo keys its stages on these, and the sweep engine's job
//! ids (the result cache's keys) are built from them, so both must stay
//! stable across processes and machines.

use serde::Serialize;
use std::io;

/// FNV-1a 64-bit state: a small, dependency-free, platform-stable
/// content hash (unlike `DefaultHasher`, whose keys are randomized per
/// process). As an [`io::Write`] it hashes bytes as they are written.
struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

impl io::Write for Fnv1a {
    fn write(&mut self, bytes: &[u8]) -> io::Result<usize> {
        self.update(bytes);
        Ok(bytes.len())
    }

    // Skips the default retry loop: serializing into the hash makes a
    // dozen small writes per value.
    fn write_all(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.update(bytes);
        Ok(())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// FNV-1a 64 over a byte string.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = Fnv1a::new();
    hash.update(bytes);
    hash.0
}

/// Content hash of any serializable value: FNV-1a 64 over the bytes of
/// `serde_json::to_string(value)`, written into the hash by
/// `serde_json::to_writer` with no string or tree built.
pub fn content_digest<T: Serialize + ?Sized>(value: &T) -> u64 {
    let mut hash = Fnv1a::new();
    // Writing into the hash cannot fail, so neither can serializing.
    let _ = serde_json::to_writer(&mut hash, value);
    hash.0
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The canonical JSON of a circuit holding every operation and gate
    /// variant, the edge angles of the float rule and a name with every
    /// escape class, as the `Value`-tree serializer wrote it. Circuit
    /// digests, and so the sweep engine's job ids, hash exactly these
    /// bytes.
    #[test]
    fn circuit_json_bytes_are_pinned() {
        use qccd_circuit::{Circuit, OneQubitGate::*, Operation, Qubit, TwoQubitGate::*};
        let mut c = Circuit::new("q\"b\\s\nl\u{1}c é量", 3);
        for gate in [H, X, Y, Z, S, Sdg, T, Tdg, SqrtX, SqrtY, SqrtW] {
            c.one_qubit(gate, Qubit(0));
        }
        let angles = [
            -0.0,
            1.0,
            1e300,
            5e-324,
            f64::NAN,
            f64::INFINITY,
            -f64::INFINITY,
        ];
        let parametric: [fn(f64) -> _; 4] = [Rx, Ry, Rz, Phase];
        for (i, t) in angles.into_iter().enumerate() {
            c.one_qubit(parametric[i % 4](t), Qubit(1));
        }
        for gate in [Cx, Cz, Ms, Swap] {
            c.two_qubit(gate, Qubit(0), Qubit(2));
        }
        c.measure(Qubit(2));
        c.push(Operation::Barrier { qs: vec![] });
        c.push(Operation::Barrier {
            qs: vec![Qubit(0), Qubit(2)],
        });
        const JSON: &str = concat!(
            r#"{"name":"q\"b\\s\nl\u0001c é量","num_qubits":3,"ops":["#,
            r#"{"OneQubit":{"gate":"H","q":0}},"#,
            r#"{"OneQubit":{"gate":"X","q":0}},"#,
            r#"{"OneQubit":{"gate":"Y","q":0}},"#,
            r#"{"OneQubit":{"gate":"Z","q":0}},"#,
            r#"{"OneQubit":{"gate":"S","q":0}},"#,
            r#"{"OneQubit":{"gate":"Sdg","q":0}},"#,
            r#"{"OneQubit":{"gate":"T","q":0}},"#,
            r#"{"OneQubit":{"gate":"Tdg","q":0}},"#,
            r#"{"OneQubit":{"gate":"SqrtX","q":0}},"#,
            r#"{"OneQubit":{"gate":"SqrtY","q":0}},"#,
            r#"{"OneQubit":{"gate":"SqrtW","q":0}},"#,
            r#"{"OneQubit":{"gate":{"Rx":-0.0},"q":1}},"#,
            r#"{"OneQubit":{"gate":{"Ry":1.0},"q":1}},"#,
            r#"{"OneQubit":{"gate":{"Rz":1000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000.0},"q":1}},"#,
            r#"{"OneQubit":{"gate":{"Phase":0.000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000005},"q":1}},"#,
            r#"{"OneQubit":{"gate":{"Rx":null},"q":1}},"#,
            r#"{"OneQubit":{"gate":{"Ry":null},"q":1}},"#,
            r#"{"OneQubit":{"gate":{"Rz":null},"q":1}},"#,
            r#"{"TwoQubit":{"gate":"Cx","a":0,"b":2}},"#,
            r#"{"TwoQubit":{"gate":"Cz","a":0,"b":2}},"#,
            r#"{"TwoQubit":{"gate":"Ms","a":0,"b":2}},"#,
            r#"{"TwoQubit":{"gate":"Swap","a":0,"b":2}},"#,
            r#"{"Measure":{"q":2}},"#,
            r#"{"Barrier":{"qs":[]}},"#,
            r#"{"Barrier":{"qs":[0,2]}}"#,
            r#"]}"#,
        );
        assert_eq!(serde_json::to_string(&c).unwrap(), JSON);
        assert_eq!(content_digest(&c), fnv1a(JSON.as_bytes()));
    }
}
