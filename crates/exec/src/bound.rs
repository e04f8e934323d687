//! Per-query execution control: the deadline a search polls.
//!
//! A sharded query is one search over every shard's tree under one
//! pruning threshold (`mst_search::KmstSubstrate::kmst_forest`), run by
//! one job on one worker, so nothing about the bound needs to cross
//! threads. What the executor still injects is cancellation: the search
//! polls [`QueryControl`] through [`mst_search::BoundShare::poll_stop`]
//! once per popped node.

use std::cell::Cell;

use mst_search::BoundShare;

use crate::clock::Stopwatch;

/// One query's deadline and whether it fired.
///
/// This is the executor's implementation of [`BoundShare`]; a reference to
/// it is threaded into the query's search
/// ([`mst_search::KmstSubstrate::kmst_forest`] /
/// [`mst_search::nearest_trajectories`]).
#[derive(Debug)]
pub struct QueryControl {
    clock: Stopwatch,
    /// Absolute deadline as a microsecond offset on `clock`; `u64::MAX`
    /// means no deadline.
    deadline_us: u64,
    degraded: Cell<bool>,
}

impl QueryControl {
    /// Creates the control for one query. `deadline_us` is the per-query
    /// budget in microseconds, measured from `clock`'s origin (batch
    /// submission or admission) — queue wait counts against it, matching
    /// an SLA-from-submission service model.
    pub fn new(clock: Stopwatch, deadline_us: Option<u64>) -> Self {
        QueryControl {
            clock,
            deadline_us: deadline_us.unwrap_or(u64::MAX),
            degraded: Cell::new(false),
        }
    }

    /// True when the deadline cut the query short: its results are
    /// best-so-far, not certified complete.
    pub fn is_degraded(&self) -> bool {
        self.degraded.get()
    }
}

impl BoundShare for QueryControl {
    fn poll_stop(&self) -> bool {
        if self.deadline_us == u64::MAX {
            return false;
        }
        // `>=` so a zero budget is expired from the first poll.
        let expired = self.clock.elapsed_us() >= self.deadline_us;
        if expired {
            self.degraded.set(true);
        }
        expired
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn control_without_deadline_never_stops() {
        let ctl = QueryControl::new(Stopwatch::start(), None);
        assert!(!ctl.poll_stop());
        assert!(!ctl.is_degraded());
    }

    #[test]
    fn expired_deadline_stops_and_degrades() {
        let ctl = QueryControl::new(Stopwatch::start(), Some(0));
        // A zero budget is over by the first poll.
        assert!(ctl.poll_stop());
        assert!(ctl.is_degraded());
    }
}
