// qccd-lint: allow(hash-iteration) — stale: the HashMap this excused is gone.
pub fn id(x: u32) -> u32 {
    x
}
