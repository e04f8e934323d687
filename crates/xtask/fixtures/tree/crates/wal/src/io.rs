//! Seeded R13 violation: a segment writer whose handle drops unsynced.
use std::fs::File;
use std::io::Write;

pub fn append_segment(path: &std::path::Path, payload: &[u8]) -> std::io::Result<()> {
    let mut f = File::create(path)?;
    f.write_all(payload)?;
    Ok(())
}

/// Seeded R11: a relaxed counter that does not say why it may be relaxed.
pub fn count_fsync(counters: &Counters) {
    counters.fsyncs.fetch_add(1, Ordering::Relaxed);
}
