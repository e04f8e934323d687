//! Seeded: R3 — both crate-root attributes missing.

mod codec;
