//! The pruning threshold of the best-first searches.
//!
//! BFMST prunes against the dissimilarity of the current k-th most similar
//! candidate, where a candidate's key is its exact/approximate DISSIM when
//! completed or its PESDISSIM while partial (Section 4.3). Both are *upper
//! bounds* on the candidate's true dissimilarity, so the k-th smallest key
//! over all seen candidates upper-bounds the k-th smallest true DISSIM over
//! the whole dataset — the soundness fact both heuristics rest on.
//!
//! Keys only ever improve (PESDISSIM shrinks as pieces arrive; a completed
//! DISSIM replaces it), so the threshold is monotonically non-increasing —
//! and so is every one of the k smallest keys. [`UpperKeys`] therefore
//! keeps those k `(key, id)` pairs in a sorted array beside the map of all
//! keys: a candidate outside the array can enter it only by undercutting
//! its last slot, which makes [`UpperKeys::update`] O(k) when it moves the
//! array and a hash probe when it does not, and [`UpperKeys::kth`] — read
//! once per leaf entry by the search — a load of the last slot.
//!
//! [`Threshold`] is what BFMST, the metric ball search and trajectory kNN
//! all prune against: the keys and the range-MST ceiling.

use std::collections::HashMap;

use mst_trajectory::TrajectoryId;

/// Tracks the best-known upper key of every candidate and serves the k-th
/// smallest key as the pruning threshold.
#[derive(Debug)]
pub struct UpperKeys {
    k: usize,
    keys: HashMap<TrajectoryId, f64>,
    /// The `min(k, len)` smallest keys with their candidates, ascending by
    /// [`f64::total_cmp`]. Among equal keys at the k-th position which
    /// candidate holds the slot is arbitrary; the key in it is not.
    top: Vec<(f64, TrajectoryId)>,
}

impl UpperKeys {
    /// Creates a tracker for a k-MST query (`k >= 1`).
    pub fn new(k: usize) -> Self {
        UpperKeys {
            k: k.max(1),
            keys: HashMap::new(),
            top: Vec::new(),
        }
    }

    /// Records `key` as candidate `id`'s current upper bound. Ignores
    /// non-finite keys and keys worse than the already-recorded one (keys
    /// must only improve). Returns `true` when the key improved — i.e. the
    /// update may have tightened the pruning threshold.
    pub fn update(&mut self, id: TrajectoryId, key: f64) -> bool {
        if !key.is_finite() {
            return false;
        }
        let entry = self.keys.entry(id).or_insert(f64::INFINITY);
        if key >= *entry {
            return false;
        }
        *entry = key;
        // A candidate inside the array had a key at or under the last
        // slot's, and the new key is smaller still: a key that does not
        // undercut the last slot of a full array belongs to an outsider
        // that stays outside.
        let full = self.top.len() == self.k;
        if full && key.total_cmp(&self.top[self.k - 1].0).is_ge() {
            return true;
        }
        match self.top.iter().position(|&(_, held)| held == id) {
            Some(slot) => {
                self.top.remove(slot);
            }
            None if full => {
                self.top.pop();
            }
            None => {}
        }
        let slot = self
            .top
            .partition_point(|&(held, _)| held.total_cmp(&key).is_le());
        self.top.insert(slot, (key, id));
        true
    }

    /// The current pruning threshold: the k-th smallest recorded key, or
    /// `+inf` while fewer than `k` candidates have keys.
    #[inline]
    pub fn kth(&self) -> f64 {
        match self.top.get(self.k - 1) {
            Some(&(key, _)) => key,
            None => f64::INFINITY,
        }
    }
}

/// `value` widened by the rounding of a float sum of DISSIM pieces. An
/// upper key is such a sum, and where a bound is tight (a trajectory tied
/// at the threshold, parallel motion at constant distance) the bound can
/// land in the last bits above a key of the same real value that was
/// summed in another order — in another shard's tree, say. Pruning or
/// refining against the widened value keeps ties for the exact tie-break.
pub(crate) fn rounded_up(value: f64) -> f64 {
    value * (1.0 + 1e-9)
}

/// The pruning threshold of one search: the k-th smallest upper key,
/// capped by the range-MST ceiling. A sharded query is one search, so its
/// one threshold already covers every shard.
#[derive(Debug)]
pub(crate) struct Threshold {
    keys: UpperKeys,
    ceiling: f64,
}

impl Threshold {
    /// An empty threshold for a top-`k` search under `ceiling` (or `+inf`).
    pub(crate) fn new(k: usize, ceiling: f64) -> Self {
        Threshold {
            keys: UpperKeys::new(k),
            ceiling,
        }
    }

    /// Records `key` as `id`'s upper key; true when it improved.
    pub(crate) fn record(&mut self, id: TrajectoryId, key: f64) -> bool {
        self.keys.update(id, key)
    }

    /// The value to prune strictly above: the k-th key under the ceiling,
    /// widened by [`rounded_up`].
    pub(crate) fn value(&self) -> f64 {
        rounded_up(self.keys.kth().min(self.ceiling))
    }

    /// True when a finite range-MST ceiling bounds the threshold.
    pub(crate) fn capped(&self) -> bool {
        self.ceiling.is_finite()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(n: u64) -> TrajectoryId {
        TrajectoryId(n)
    }

    #[test]
    fn threshold_is_infinite_below_k_candidates() {
        let mut u = UpperKeys::new(3);
        u.update(id(1), 5.0);
        u.update(id(2), 7.0);
        assert_eq!(u.kth(), f64::INFINITY);
        u.update(id(3), 6.0);
        assert_eq!(u.kth(), 7.0);
    }

    #[test]
    fn threshold_tracks_kth_smallest() {
        let mut u = UpperKeys::new(2);
        u.update(id(1), 10.0);
        u.update(id(2), 20.0);
        u.update(id(3), 30.0);
        assert_eq!(u.kth(), 20.0);
        // A new candidate undercutting the threshold moves it.
        u.update(id(4), 5.0);
        assert_eq!(u.kth(), 10.0);
        // Improving an existing candidate's key.
        u.update(id(2), 1.0);
        assert_eq!(u.kth(), 5.0);
    }

    #[test]
    fn worse_keys_are_ignored() {
        let mut u = UpperKeys::new(1);
        assert!(u.update(id(1), 3.0));
        assert!(!u.update(id(1), 8.0)); // regression attempt
        assert_eq!(u.kth(), 3.0);
        assert_eq!(u.keys.get(&id(1)), Some(&3.0));
    }

    #[test]
    fn non_finite_keys_are_ignored() {
        let mut u = UpperKeys::new(1);
        assert!(!u.update(id(1), f64::INFINITY));
        assert!(!u.update(id(2), f64::NAN));
        assert!(u.keys.is_empty());
        assert_eq!(u.kth(), f64::INFINITY);
    }

    #[test]
    fn k1_threshold_is_minimum() {
        let mut u = UpperKeys::new(1);
        for (i, v) in [9.0, 4.0, 6.0, 2.0, 8.0].iter().enumerate() {
            u.update(id(i as u64), *v);
        }
        assert_eq!(u.kth(), 2.0);
        assert_eq!(u.keys.len(), 5);
    }

    #[test]
    fn kth_is_a_shared_reference_read() {
        // The satellite fix this test pins down: reading the threshold no
        // longer demands `&mut`, so holders of a shared borrow can prune.
        let mut u = UpperKeys::new(2);
        u.update(id(1), 4.0);
        u.update(id(2), 9.0);
        let shared: &UpperKeys = &u;
        assert_eq!(shared.kth(), 9.0);
        assert_eq!(shared.kth(), 9.0);
    }

    #[test]
    fn update_reports_threshold_relevant_improvements() {
        let mut u = UpperKeys::new(1);
        assert!(u.update(id(1), 5.0));
        assert!(u.update(id(1), 2.0));
        assert!(!u.update(id(1), 2.0)); // equal key: no improvement
        assert!(u.update(id(2), 1.0));
    }

    /// What [`UpperKeys`] was before it kept the k smallest keys sorted:
    /// every key in a map, the threshold by selection over all of them.
    /// The reference the incremental tracker is driven against.
    struct SelectingKeys {
        k: usize,
        keys: HashMap<TrajectoryId, f64>,
    }

    impl SelectingKeys {
        fn update(&mut self, id: TrajectoryId, key: f64) -> bool {
            if !key.is_finite() {
                return false;
            }
            let entry = self.keys.entry(id).or_insert(f64::INFINITY);
            if key < *entry {
                *entry = key;
                true
            } else {
                false
            }
        }

        fn kth(&self) -> f64 {
            if self.keys.len() < self.k {
                return f64::INFINITY;
            }
            let mut vals: Vec<f64> = self.keys.values().copied().collect();
            let (_, kth, _) = vals.select_nth_unstable_by(self.k - 1, f64::total_cmp);
            *kth
        }
    }

    #[test]
    fn candidate_path_upper_keys_agree_with_selection_over_all_keys_after_every_update() {
        let mut rng = mst_prng::Rng::seed_from(0x7570_7065_726b);
        // Full count in release (`ci.sh` runs it there), a tenth in debug.
        let streams = if cfg!(debug_assertions) { 40 } else { 400 };
        for stream in 0..streams {
            // 24 candidates: k = 64 never fills, the others fill early.
            let k = [1usize, 4, 16, 64][stream % 4];
            let candidates = 24;
            let mut got = UpperKeys::new(k);
            let mut want = SelectingKeys {
                k,
                keys: HashMap::new(),
            };
            for step in 0..600 {
                let who = id(rng.u64_below(candidates));
                let unit = rng.f64();
                let held = want.keys.get(&who).copied();
                let key = match (rng.u64_below(16), held) {
                    (0, _) => f64::NAN,
                    (1, _) => f64::INFINITY,
                    (2, _) => f64::NEG_INFINITY,
                    (3, _) => 0.0,
                    (4, _) => -0.0,
                    // A few round values: equal keys across candidates.
                    (5..=7, _) => (unit * 8.0).floor(),
                    // The held key again, a worse one, a slightly better one
                    // (often still outside the top k), a much better one.
                    (8, Some(held)) => held,
                    (9, Some(held)) => held + 1.0 + unit,
                    (10..=12, Some(held)) => held - unit * 0.01,
                    (13, Some(held)) => held * unit - 1.0,
                    _ => 100.0 * unit,
                };
                assert_eq!(
                    got.update(who, key),
                    want.update(who, key),
                    "stream {stream} step {step}: update({who:?}, {key})"
                );
                assert_eq!(
                    got.kth().to_bits(),
                    want.kth().to_bits(),
                    "stream {stream} step {step}: kth {} vs {}",
                    got.kth(),
                    want.kth()
                );
                assert_eq!(got.keys.len(), want.keys.len());
                assert_eq!(
                    got.top.len(),
                    k.min(got.keys.len()),
                    "the array holds min(k, len)"
                );
                for c in 0..candidates {
                    assert_eq!(
                        got.keys.get(&id(c)).map(|k| k.to_bits()),
                        want.keys.get(&id(c)).map(|k| k.to_bits())
                    );
                }
            }
        }
    }
}
