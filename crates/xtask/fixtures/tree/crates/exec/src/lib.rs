#![forbid(unsafe_code)]
#![deny(missing_docs)]
//! Seeded: R8 — a detached thread.

fn start() {
    std::thread::spawn(move || pump());
}
