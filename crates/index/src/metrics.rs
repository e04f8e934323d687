//! Observability hooks of the index layer.
//!
//! The paper's whole evaluation (Section 5) is about *pruning power* and
//! *execution cost*: node accesses, buffer behaviour, and how many
//! candidates each bound kills. This module defines the event sink those
//! measurements flow through. The design constraint is "always-on,
//! zero-cost-when-disabled": every hook is a default-empty method on a
//! trait, callers are generic over the sink, and the [`NoopSink`]
//! instantiation monomorphizes every hook into nothing — the traced and
//! untraced code paths are the *same* code, so tracing can never change a
//! query result.
//!
//! Timing deliberately does not appear here: wall-clock measurement lives
//! in `crates/bench` (xtask rule R5 keeps `std::time` out of library
//! crates), while this layer counts *work* — events that are meaningful on
//! any machine.

/// Receiver of low-level index events during a query.
///
/// All methods have empty default bodies: a sink implements only the events
/// it cares about, and the [`NoopSink`] implements none. Methods take
/// `&mut self` so a plain counter struct needs no interior mutability.
pub trait MetricsSink {
    /// A node was fetched and decoded. `level` is 0 for leaves and grows
    /// towards the root, so a sink can histogram accesses per tree level.
    fn node_access(&mut self, level: u8) {
        let _ = level;
    }

    /// A page request was served from the buffer pool.
    fn buffer_hit(&mut self) {}

    /// A page request faulted through to the page store.
    fn buffer_miss(&mut self) {}

    /// `n` bytes of page payload were handed to the node decoder.
    fn bytes_decoded(&mut self, n: u64) {
        let _ = n;
    }

    /// An element entered a best-first priority queue.
    fn heap_push(&mut self) {}

    /// An element left a best-first priority queue.
    fn heap_pop(&mut self) {}

    /// A physical page read failed with a retryable fault and the buffer
    /// manager is about to retry it.
    fn io_retry(&mut self) {}

    /// A fetched page failed checksum verification.
    fn io_checksum_failure(&mut self) {}

    /// A page exhausted its retry budget and was quarantined.
    fn io_quarantine(&mut self) {}
}

/// The sink that records nothing. Generic query code instantiated with
/// `NoopSink` compiles to exactly the unobserved query — the compiler
/// erases every hook call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoopSink;

impl MetricsSink for NoopSink {}

impl<S: MetricsSink + ?Sized> MetricsSink for &mut S {
    fn node_access(&mut self, level: u8) {
        (**self).node_access(level);
    }
    fn buffer_hit(&mut self) {
        (**self).buffer_hit();
    }
    fn buffer_miss(&mut self) {
        (**self).buffer_miss();
    }
    fn bytes_decoded(&mut self, n: u64) {
        (**self).bytes_decoded(n);
    }
    fn heap_push(&mut self) {
        (**self).heap_push();
    }
    fn heap_pop(&mut self) {
        (**self).heap_pop();
    }
    fn io_retry(&mut self) {
        (**self).io_retry();
    }
    fn io_checksum_failure(&mut self) {
        (**self).io_checksum_failure();
    }
    fn io_quarantine(&mut self) {
        (**self).io_quarantine();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Default)]
    struct Tally {
        nodes: Vec<u8>,
        hits: u64,
        misses: u64,
        bytes: u64,
        pushes: u64,
        pops: u64,
        retries: u64,
        checksum_failures: u64,
        quarantines: u64,
    }

    impl MetricsSink for Tally {
        fn node_access(&mut self, level: u8) {
            self.nodes.push(level);
        }
        fn buffer_hit(&mut self) {
            self.hits += 1;
        }
        fn buffer_miss(&mut self) {
            self.misses += 1;
        }
        fn bytes_decoded(&mut self, n: u64) {
            self.bytes += n;
        }
        fn heap_push(&mut self) {
            self.pushes += 1;
        }
        fn heap_pop(&mut self) {
            self.pops += 1;
        }
        fn io_retry(&mut self) {
            self.retries += 1;
        }
        fn io_checksum_failure(&mut self) {
            self.checksum_failures += 1;
        }
        fn io_quarantine(&mut self) {
            self.quarantines += 1;
        }
    }

    fn drive<S: MetricsSink>(sink: &mut S) {
        sink.node_access(0);
        sink.node_access(2);
        sink.buffer_hit();
        sink.buffer_miss();
        sink.bytes_decoded(4096);
        sink.heap_push();
        sink.heap_push();
        sink.heap_pop();
        sink.io_retry();
        sink.io_retry();
        sink.io_checksum_failure();
        sink.io_quarantine();
    }

    #[test]
    fn tally_sink_records_every_event() {
        let mut t = Tally::default();
        drive(&mut t);
        assert_eq!(t.nodes, vec![0, 2]);
        assert_eq!((t.hits, t.misses, t.bytes), (1, 1, 4096));
        assert_eq!((t.pushes, t.pops), (2, 1));
        assert_eq!((t.retries, t.checksum_failures, t.quarantines), (2, 1, 1));
    }

    #[test]
    fn mut_reference_forwards_to_the_underlying_sink() {
        let mut t = Tally::default();
        drive(&mut &mut t);
        assert_eq!(t.nodes, vec![0, 2]);
        assert_eq!(t.bytes, 4096);
    }

    #[test]
    fn noop_sink_accepts_every_event() {
        drive(&mut NoopSink);
    }
}
