//! Cooperative pruning hooks for partitioned search.
//!
//! When a k-MST or kNN query is split across shards, each shard runs the
//! ordinary best-first search over its own index — but the pruning
//! threshold need not stay shard-local. The kth smallest *upper key* any
//! shard has seen upper-bounds that shard's kth best DISSIM, and the global
//! kth best is at most the best shard's kth best; so the minimum of the
//! shard-local kth upper keys is a sound upper bound on the **global** kth
//! DISSIM, and any candidate whose lower bound exceeds it can be discarded
//! on *every* shard. [`BoundShare`] is the seam through which the searches
//! exchange that bound (and through which an executor injects a deadline),
//! without the core crate knowing anything about threads. Only the
//! searches' one pruning threshold (`Threshold` in the crate's `topk`
//! module) calls [`BoundShare::kth_hint`] and [`BoundShare::publish_kth`]:
//! it folds the hint into every threshold read and publishes each
//! tightening of its own kth. The searches poll [`BoundShare::poll_stop`]
//! once per popped node.
//!
//! [`NoShare`] is the no-op instantiation used by all single-shard entry
//! points; like the metrics sinks, the hooks compile away entirely, so the
//! shared and unshared code paths are the same code.
//!
//! Soundness is direction-sensitive: hints only ever *shrink* the
//! threshold, and a published value is only ever an upper bound certified
//! by [`crate::UpperKeys`]. A stale or missing hint costs pruning power,
//! never correctness — which is why relaxed atomics are enough on the
//! executor side.

/// External bound exchange and cancellation for a best-first search.
///
/// Methods take `&self`: one share handle is read concurrently by every
/// shard working the same query, so implementations use atomics (or are
/// stateless, like [`NoShare`]).
pub trait BoundShare {
    /// The tightest known upper bound on the global kth dissimilarity, or
    /// `f64::INFINITY` when nothing is known yet. Must never return a value
    /// below an actually achievable kth dissimilarity — the search prunes
    /// strictly above it.
    fn kth_hint(&self) -> f64 {
        f64::INFINITY
    }

    /// Reports that this search's local kth upper key tightened to `kth`.
    /// Implementations fold it into the shared bound monotonically (only
    /// ever downward).
    fn publish_kth(&self, kth: f64) {
        let _ = kth;
    }

    /// True when the search should abandon traversal (deadline exceeded,
    /// batch cancelled) and return best-so-far. Polled once per popped
    /// node, so responsiveness is one node fetch.
    fn poll_stop(&self) -> bool {
        false
    }
}

/// The no-op share: infinite hint, discarded publications, never stops.
/// Single-shard searches instantiate the loops with this, compiling every
/// hook away.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoShare;

impl BoundShare for NoShare {}

impl<B: BoundShare + ?Sized> BoundShare for &B {
    fn kth_hint(&self) -> f64 {
        (**self).kth_hint()
    }
    fn publish_kth(&self, kth: f64) {
        (**self).publish_kth(kth);
    }
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
    assert_send_sync::<crate::SearchReport>();
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
        let share = NoShare;
        assert_eq!(share.kth_hint(), f64::INFINITY);
        share.publish_kth(1.0);
        assert_eq!(share.kth_hint(), f64::INFINITY);
        assert!(!share.poll_stop());
    }

    #[test]
    fn references_forward_to_the_share() {
        struct Fixed(f64);
        impl BoundShare for Fixed {
            fn kth_hint(&self) -> f64 {
                self.0
            }
            fn poll_stop(&self) -> bool {
                true
            }
        }
        let share = Fixed(2.5);
        let by_ref: &Fixed = &share;
        assert_eq!(by_ref.kth_hint(), 2.5);
        assert!(by_ref.poll_stop());
    }
}
