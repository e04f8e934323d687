//! Seeded: R2 — a lossy `as` cast in a binary-format module.

fn encode_count(n: usize) -> u32 {
    n as u32
}
