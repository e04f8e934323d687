//! The bounded answer cache: canonicalised query → encoded response
//! payload.
//!
//! # Key discipline
//!
//! A cache key is the wire encoding ([`Request::encode`]) of the query
//! after canonicalisation ([`cache_key`]): the deadline and the
//! read-your-writes token are cleared and every `-0.0` is folded to
//! `+0.0`. The wire codec is injective, so two requests share an entry
//! exactly when they are the same query: same flavour, `k`, period,
//! substrate and geometry bits. The deadline is left out
//! because a certified (non-degraded) answer is valid under any deadline;
//! `min_lsn` because it gates *admission*, not the answer — an admitted
//! query is answered from current state, and every applied write
//! invalidates the cache. Degraded answers are **never** cached.
//!
//! # Invalidation
//!
//! [`AnswerCache::invalidate`] clears the map and bumps a generation
//! counter. Insertions carry the generation observed when their query
//! was admitted; an insert whose generation is stale (an invalidation
//! happened while the query executed) is dropped, so an answer computed
//! against pre-transition state can never resurface after the
//! transition. The server invalidates on the shutdown transition, on
//! every write batch that changed state, and on every batch a replica
//! applies.
//!
//! Eviction is FIFO: the oldest entry leaves when a new key arrives at
//! capacity. Hit/miss accounting lives in the server's counters, not
//! here — the cache itself is a dumb bounded map.

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex};

use mst_search::QueryOptions;
use mst_trajectory::{Mbb, Point, TimeInterval};

use crate::protocol::Request;

/// The state under the cache's lock.
struct CacheInner {
    map: HashMap<Vec<u8>, Arc<Vec<u8>>>,
    /// Insertion order, for FIFO eviction.
    order: VecDeque<Vec<u8>>,
    /// Bumped by every invalidation; stale inserts are dropped.
    generation: u64,
}

/// A bounded FIFO cache of encoded response payloads, keyed on
/// canonicalised queries. Capacity 0 disables it entirely.
pub(crate) struct AnswerCache {
    inner: Mutex<CacheInner>,
    capacity: usize,
}

impl AnswerCache {
    pub(crate) fn new(capacity: usize) -> Self {
        AnswerCache {
            inner: Mutex::new(CacheInner {
                map: HashMap::new(),
                order: VecDeque::new(),
                generation: 0,
            }),
            capacity,
        }
    }

    pub(crate) fn enabled(&self) -> bool {
        self.capacity > 0
    }

    /// The current generation, to be captured at query admission and
    /// passed back to [`AnswerCache::insert_if`].
    pub(crate) fn generation(&self) -> u64 {
        match self.inner.lock() {
            Ok(inner) => inner.generation,
            // A poisoned cache behaves as permanently invalidated.
            Err(_) => u64::MAX,
        }
    }

    pub(crate) fn lookup(&self, key: &[u8]) -> Option<Arc<Vec<u8>>> {
        if !self.enabled() {
            return None;
        }
        let Ok(inner) = self.inner.lock() else {
            return None;
        };
        inner.map.get(key).cloned()
    }

    /// Inserts unless the cache is disabled, the generation is stale, or
    /// the key is already present (first answer wins; all answers for
    /// one key are bit-identical by construction). Returns whether the
    /// entry went in.
    pub(crate) fn insert_if(&self, key: Vec<u8>, payload: Arc<Vec<u8>>, generation: u64) -> bool {
        if !self.enabled() {
            return false;
        }
        let Ok(mut inner) = self.inner.lock() else {
            return false;
        };
        if inner.generation != generation || inner.map.contains_key(&key) {
            return false;
        }
        while inner.map.len() >= self.capacity {
            match inner.order.pop_front() {
                Some(oldest) => {
                    inner.map.remove(&oldest);
                }
                // Order/map desync cannot happen by construction, but a
                // defensive break beats an infinite loop.
                None => break,
            }
        }
        inner.order.push_back(key.clone());
        inner.map.insert(key, payload);
        true
    }

    /// Clears every entry and bumps the generation so in-flight inserts
    /// against the old state are dropped.
    pub(crate) fn invalidate(&self) {
        if let Ok(mut inner) = self.inner.lock() {
            inner.map.clear();
            inner.order.clear();
            inner.generation = inner.generation.wrapping_add(1);
        }
    }

    #[cfg(test)]
    fn len(&self) -> usize {
        self.inner.lock().map(|i| i.map.len()).unwrap_or(0)
    }
}

/// The cache key of a query request: the wire encoding of the request
/// with its deadline and `min_lsn` cleared and every `-0.0` folded to
/// `+0.0` (see the module docs). `None` for control requests, which are
/// never cached.
pub(crate) fn cache_key(request: &Request) -> Option<Vec<u8>> {
    let mut canonical = request.clone();
    match &mut canonical {
        Request::Kmst { points, options } | Request::Knn { points, options } => {
            for p in points.iter_mut() {
                (p.t, p.x, p.y) = (fold(p.t), fold(p.x), fold(p.y));
            }
            canonicalise(options);
        }
        Request::KnnSegments { location, options } => {
            *location = Point::new(fold(location.x), fold(location.y));
            canonicalise(options);
        }
        Request::Range { window, options } => {
            let w = *window;
            *window = Mbb::new(
                fold(w.x_min),
                fold(w.y_min),
                fold(w.t_min),
                fold(w.x_max),
                fold(w.y_max),
                fold(w.t_max),
            );
            canonicalise(options);
        }
        Request::Stats
        | Request::Shutdown
        | Request::Hello { .. }
        | Request::Insert { .. }
        | Request::Delete { .. }
        | Request::Subscribe { .. }
        | Request::ReplicaAck { .. } => return None,
    }
    Some(canonical.encode())
}

/// Clears what shapes admission and run time but not the answer, and
/// folds the period's signed zeros.
fn canonicalise(options: &mut QueryOptions) {
    options.deadline_us = None;
    options.min_lsn = None;
    if let Some(period) = options.period {
        // Folding changes no value, so the interval stays valid.
        if let Ok(folded) = TimeInterval::new(fold(period.start()), fold(period.end())) {
            options.period = Some(folded);
        }
    }
}

/// `-0.0` becomes `+0.0`; every other value keeps its bits.
fn fold(v: f64) -> f64 {
    if v.to_bits() == (-0.0f64).to_bits() {
        0.0
    } else {
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mst_search::Substrate;
    use mst_trajectory::SamplePoint;

    fn payload(byte: u8) -> Arc<Vec<u8>> {
        Arc::new(vec![byte; 4])
    }

    #[test]
    fn fifo_eviction_at_capacity() {
        let cache = AnswerCache::new(2);
        let generation = cache.generation();
        assert!(cache.insert_if(vec![1], payload(1), generation));
        assert!(cache.insert_if(vec![2], payload(2), generation));
        assert!(cache.insert_if(vec![3], payload(3), generation));
        assert_eq!(cache.len(), 2);
        // The oldest key left; the two newest remain.
        assert!(cache.lookup(&[1]).is_none());
        assert_eq!(cache.lookup(&[2]).map(|p| p[0]), Some(2));
        assert_eq!(cache.lookup(&[3]).map(|p| p[0]), Some(3));
        // First answer wins for a duplicate key.
        assert!(!cache.insert_if(vec![2], payload(9), generation));
        assert_eq!(cache.lookup(&[2]).map(|p| p[0]), Some(2));
    }

    #[test]
    fn stale_generation_inserts_are_dropped() {
        let cache = AnswerCache::new(4);
        let before = cache.generation();
        assert!(cache.insert_if(vec![1], payload(1), before));
        cache.invalidate();
        assert!(cache.lookup(&[1]).is_none());
        // An answer computed before the invalidation must not resurface.
        assert!(!cache.insert_if(vec![2], payload(2), before));
        assert!(cache.lookup(&[2]).is_none());
        // A fresh generation inserts fine.
        assert!(cache.insert_if(vec![2], payload(2), cache.generation()));
        assert_eq!(cache.lookup(&[2]).map(|p| p[0]), Some(2));
    }

    #[test]
    fn capacity_zero_disables_everything() {
        let cache = AnswerCache::new(0);
        assert!(!cache.enabled());
        let generation = cache.generation();
        assert!(!cache.insert_if(vec![1], payload(1), generation));
        assert!(cache.lookup(&[1]).is_none());
    }

    #[test]
    fn keys_separate_flavours_and_ignore_deadlines() {
        let points = vec![
            SamplePoint::new(0.0, 1.0, 2.0),
            SamplePoint::new(1.0, 3.0, 4.0),
        ];
        let kmst = cache_key(&Request::Kmst {
            points: points.clone(),
            options: QueryOptions::new().k(3),
        })
        .expect("query key");
        let knn = cache_key(&Request::Knn {
            points: points.clone(),
            options: QueryOptions::new().k(3),
        })
        .expect("query key");
        assert_ne!(kmst, knn, "kind byte separates flavours");
        let with_deadline = cache_key(&Request::Kmst {
            points: points.clone(),
            options: QueryOptions::new().k(3).deadline_us(500),
        })
        .expect("query key");
        assert_eq!(kmst, with_deadline, "deadline must not split entries");
        let other_k = cache_key(&Request::Kmst {
            points,
            options: QueryOptions::new().k(4),
        })
        .expect("query key");
        assert_ne!(kmst, other_k);
        let with_min_lsn = cache_key(&Request::Kmst {
            points: vec![
                SamplePoint::new(0.0, 1.0, 2.0),
                SamplePoint::new(1.0, 3.0, 4.0),
            ],
            options: QueryOptions::new().k(3).min_lsn(120),
        })
        .expect("query key");
        assert_eq!(
            kmst, with_min_lsn,
            "the read-your-writes token gates admission, not the answer"
        );
        assert!(cache_key(&Request::Stats).is_none());
        assert!(cache_key(&Request::Shutdown).is_none());
        assert!(cache_key(&Request::Subscribe { from_lsn: 1 }).is_none());
        assert!(cache_key(&Request::ReplicaAck { lsn: 0 }).is_none());
    }

    #[test]
    fn negative_zero_geometry_folds_to_one_key() {
        let a = cache_key(&Request::KnnSegments {
            location: Point::new(-0.0, 5.0),
            options: QueryOptions::new().k(2),
        })
        .expect("query key");
        let b = cache_key(&Request::KnnSegments {
            location: Point::new(0.0, 5.0),
            options: QueryOptions::new().k(2),
        })
        .expect("query key");
        assert_eq!(a, b, "-0.0 and 0.0 describe the same location");
    }

    fn kmst_key(options: QueryOptions) -> Vec<u8> {
        cache_key(&Request::Kmst {
            points: vec![
                SamplePoint::new(1.0, 1.0, 2.0),
                SamplePoint::new(9.0, 3.0, 4.0),
            ],
            options,
        })
        .expect("query key")
    }

    #[test]
    fn equal_options_share_one_key() {
        let w = TimeInterval::new(2.0, 8.0).unwrap();
        let a = QueryOptions::new().k(5).during(&w);
        assert_eq!(kmst_key(a), kmst_key(QueryOptions::new().k(5).during(&w)));
        // k and the substrate (answers must not cross) each split the
        // entry.
        assert_ne!(kmst_key(a), kmst_key(a.k(6)));
        assert_ne!(kmst_key(a), kmst_key(a.substrate(Substrate::Metric)));
    }

    #[test]
    fn deadline_changes_do_not_split_cache_entries() {
        let w = TimeInterval::new(1.0, 9.0).unwrap();
        let base = QueryOptions::new().k(3).during(&w);
        let key = kmst_key(base);
        assert_eq!(key, kmst_key(base.deadline_us(1_500)));
        assert_eq!(
            key,
            kmst_key(base.deadline(std::time::Duration::from_secs(2)))
        );
    }

    #[test]
    fn min_lsn_changes_do_not_split_cache_entries() {
        // The read-your-writes token gates admission, not the answer —
        // see the module docs for why leaving it out is sound.
        let base = QueryOptions::new().k(3);
        let key = kmst_key(base);
        assert_eq!(key, kmst_key(base.min_lsn(42)));
        assert_eq!(key, kmst_key(base.min_lsn(7)));
    }

    #[test]
    fn negative_zero_period_folds_to_one_key() {
        // A window starting at -0.0 is the window starting at +0.0.
        let neg = TimeInterval::new(-0.0, 5.0).unwrap();
        let pos = TimeInterval::new(0.0, 5.0).unwrap();
        let a = kmst_key(QueryOptions::new().k(2).during(&neg));
        assert_eq!(a, kmst_key(QueryOptions::new().k(2).during(&pos)));
        // Folding touches signed zeros only.
        assert_eq!(fold(-0.0).to_bits(), 0.0f64.to_bits());
        assert_eq!(fold(-2.5).to_bits(), (-2.5f64).to_bits());
    }

    #[test]
    fn keys_are_injective_over_option_fields() {
        let w = TimeInterval::new(1.0, 4.0).unwrap();
        let keys = [
            kmst_key(QueryOptions::new()),
            kmst_key(QueryOptions::new().k(2)),
            kmst_key(QueryOptions::new().during(&w)),
            kmst_key(QueryOptions::new().substrate(Substrate::Metric)),
            kmst_key(QueryOptions::new().substrate(Substrate::Rtree)),
        ];
        for i in 0..keys.len() {
            for j in (i + 1)..keys.len() {
                assert_ne!(keys[i], keys[j], "keys {i} and {j} collide");
            }
        }
    }
}
