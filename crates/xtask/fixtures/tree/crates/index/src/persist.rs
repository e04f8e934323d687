//! Seeded: R2 — a lossy `as` cast where trees become image bytes.

fn encode_count(n: u64) -> u32 {
    n as u32
}
