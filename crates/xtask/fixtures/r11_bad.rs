//! R11 seeded-bad: `Ordering::Relaxed` without a rationale.

fn bump(hits: &AtomicU64) -> u64 {
    hits.fetch_add(1, Ordering::Relaxed);
    hits.load(Ordering::Relaxed)
}
