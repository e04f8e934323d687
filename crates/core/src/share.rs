//! Cancellation hook for the best-first searches.
//!
//! [`BoundShare`] is the seam through which an executor stops a search
//! (a per-query deadline, a cancelled batch) without the core crate
//! knowing anything about threads or clocks: the searches poll
//! [`BoundShare::poll_stop`] once per popped node. A sharded query is one
//! search over every shard's tree under one pruning threshold, so nothing
//! else needs to cross the seam.
//!
//! [`NoShare`] is the no-op instantiation used by all entry points without
//! an executor; like the metrics sinks, the hook compiles away entirely.

/// Cancellation of a best-first search.
pub trait BoundShare {
    /// True when the search should abandon traversal (deadline exceeded,
    /// batch cancelled) and return best-so-far. Polled once per popped
    /// node, so responsiveness is one node fetch.
    fn poll_stop(&self) -> bool {
        false
    }
}

/// The no-op share: never stops. Searches without an executor instantiate
/// the loops with this, compiling the hook away.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoShare;

impl BoundShare for NoShare {}

impl<B: BoundShare + ?Sized> BoundShare for &B {
    fn poll_stop(&self) -> bool {
        (**self).poll_stop()
    }
}

/// Compile-time `Send`/`Sync` audit of the query state a concurrent
/// executor moves across threads. A new non-`Send` field in any of these
/// types breaks this module, not the executor at a distance.
#[allow(dead_code)]
fn assert_query_state_is_thread_safe() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<crate::MstConfig>();
    assert_send_sync::<crate::MstMatch>();
    assert_send_sync::<crate::NnMatch>();
    assert_send_sync::<crate::QueryProfile>();
    assert_send_sync::<crate::BatchQuery>();
    assert_send_sync::<crate::QueryAnswer>();
    assert_send_sync::<crate::TrajectoryStore>();
    assert_send_sync::<crate::SearchError>();
    assert_send_sync::<mst_trajectory::Trajectory>();
    assert_send_sync::<mst_trajectory::TimeInterval>();
    assert_send_sync::<NoShare>();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_share_is_inert() {
        assert!(!NoShare.poll_stop());
    }

    #[test]
    fn references_forward_to_the_share() {
        struct Stop;
        impl BoundShare for Stop {
            fn poll_stop(&self) -> bool {
                true
            }
        }
        fn stops<B: BoundShare>(share: B) -> bool {
            share.poll_stop()
        }
        assert!(stops(&Stop));
        assert!(!stops(&NoShare));
    }
}
