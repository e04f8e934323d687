//! Clean counterpart: the handle is fsynced before it can drop.
use std::fs::File;
use std::io::Write;

pub fn append_segment(path: &std::path::Path, payload: &[u8]) -> std::io::Result<()> {
    let mut f = File::create(path)?;
    f.write_all(payload)?;
    f.sync_all()
}

pub fn count_fsync(counters: &Counters) {
    // ordering: monotonic statistic; readers tolerate stale values.
    counters.fsyncs.fetch_add(1, Ordering::Relaxed);
}
