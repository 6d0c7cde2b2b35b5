pub fn tally() -> usize {
    // qccd-lint: allow(hash-iteration) — exercising a used allow deliberately.
    std::collections::HashMap::<u32, u32>::new().len()
}
