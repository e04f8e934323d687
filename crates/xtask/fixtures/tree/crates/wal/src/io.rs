//! Seeded R13 violation: a segment writer whose handle drops unsynced.
use std::fs::File;
use std::io::Write;

pub fn append_segment(path: &std::path::Path, payload: &[u8]) -> std::io::Result<()> {
    let mut f = File::create(path)?;
    f.write_all(payload)?;
    Ok(())
}

/// Seeded R11: the WAL crate holds atomics too, and no hand-kept list
/// names this file — the concurrency scope finds it by what it uses.
pub fn count_fsync(counters: &Counters) {
    counters.fsyncs.fetch_add(1, Ordering::Relaxed);
}
