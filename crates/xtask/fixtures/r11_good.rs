//! R11 known-good: justified `Relaxed` in every accepted placement.

impl Stats {
    fn bump(&self) {
        // ordering: monotonic counter; readers tolerate stale values.
        self.hits.fetch_add(1, Ordering::Relaxed);
    }

    fn snapshot(&self) -> u64 {
        self.hits.load(Ordering::Relaxed) // ordering: stats-only read
    }

    fn mark(&self, now: u64) {
        // ordering: the spawner joins this thread before reading; the
        // join supplies the happens-before edge.
        self.started_us
            .fetch_min(now, Ordering::Relaxed);
    }
}
