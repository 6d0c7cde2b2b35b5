// Violation: an `.expect()` in a helper the engine reaches —
// the engine-panic rule flags it with the call chain from the engine.
pub fn collect_slot(slot: Option<u32>) -> u32 {
    slot.expect("slot filled")
}
