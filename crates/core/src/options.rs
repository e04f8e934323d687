//! Shared query options — the knobs every query flavour has in common.
//!
//! [`QueryOptions`] is the single carrier for the parameters that used to
//! be threaded as three parallel ad-hoc argument sets: the builder setters
//! on [`Query`](crate::Query), the batch executor's submission path, and
//! the serving layer's wire codec all speak this one struct. A frozen spec
//! ([`KmstSpec`](crate::KmstSpec), [`KnnSpec`](crate::KnnSpec), ...)
//! embeds its options, so an executor or a server can read the deadline
//! and sharing policy without knowing which query flavour it is running.

use core::time::Duration;

use mst_trajectory::TimeInterval;

/// Which index substrate a query should run against.
///
/// Carried on [`QueryOptions`] so the *query*, not server startup, selects
/// the substrate: a database hosting a metric tree refuses an explicitly
/// MBB-addressed query with a typed error instead of silently answering
/// from the wrong structure, and answer caches / cross-connection dedup
/// key on the selector so answers never leak across substrates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Substrate {
    /// Run on whatever substrate the database hosts (the default — the
    /// pre-selector behaviour).
    #[default]
    Auto,
    /// The 3D R-tree MBB substrate.
    Rtree,
    /// The TB-tree (trajectory-bundle) MBB substrate.
    TbTree,
    /// The bulk-loaded STR-packed MBB substrate.
    StrTree,
    /// The ball-partitioning metric tree over whole trajectories.
    Metric,
}

impl Substrate {
    /// The selector's wire/cache tag byte — stable across releases.
    pub fn tag(self) -> u8 {
        match self {
            Substrate::Auto => 0,
            Substrate::Rtree => 1,
            Substrate::TbTree => 2,
            Substrate::StrTree => 3,
            Substrate::Metric => 4,
        }
    }

    /// Decodes a wire/cache tag byte back into a selector.
    pub fn from_tag(tag: u8) -> Option<Self> {
        match tag {
            0 => Some(Substrate::Auto),
            1 => Some(Substrate::Rtree),
            2 => Some(Substrate::TbTree),
            3 => Some(Substrate::StrTree),
            4 => Some(Substrate::Metric),
            _ => None,
        }
    }

    /// A human-readable name for errors and logs.
    pub fn name(self) -> &'static str {
        match self {
            Substrate::Auto => "auto",
            Substrate::Rtree => "rtree",
            Substrate::TbTree => "tbtree",
            Substrate::StrTree => "strtree",
            Substrate::Metric => "metric",
        }
    }
}

/// Options shared by every query flavour: result count, time window,
/// per-query deadline, and cross-shard bound sharing.
///
/// ```
/// use core::time::Duration;
/// use mst_search::QueryOptions;
///
/// let opts = QueryOptions::new().k(5).deadline(Duration::from_millis(20));
/// assert_eq!(opts.k, 5);
/// assert_eq!(opts.deadline_us, Some(20_000));
/// assert!(opts.share_bound);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueryOptions {
    /// Number of results to return (default 1). Range queries ignore it —
    /// a range query returns everything in the window.
    pub k: usize,
    /// The time window the query is evaluated over. `None` means "default
    /// to the query trajectory's own validity interval" for trajectory
    /// queries; point-kNN queries require an explicit window.
    pub period: Option<TimeInterval>,
    /// Soft per-query deadline in microseconds, measured from submission.
    /// When it expires the executor stops the search gracefully and marks
    /// the outcome degraded instead of aborting. `None` (the default)
    /// means no deadline; a batch executor may substitute its own default.
    pub deadline_us: Option<u64>,
    /// Whether a sharded execution may fold other shards' kth-best values
    /// into this query's pruning threshold (default `true`). Turning it
    /// off isolates the query — useful for ablations and for callers that
    /// want per-shard answers unaffected by sibling progress.
    pub share_bound: bool,
    /// Read-your-writes token: the query must be answered from state that
    /// reflects every write at or below this LSN. A serving layer admits
    /// the query only once its visibility watermark has caught up (and
    /// refuses with a typed error when it lags — a replica behind the
    /// client's last acked write, say). `None` (the default) means any
    /// current state is acceptable.
    pub min_lsn: Option<u64>,
    /// Which index substrate the query must run against.
    /// [`Substrate::Auto`] (the default) accepts whatever the database
    /// hosts; an explicit selector makes a mismatched database refuse the
    /// query with a typed error instead of answering from the wrong
    /// structure.
    pub substrate: Substrate,
}

impl Default for QueryOptions {
    fn default() -> Self {
        QueryOptions {
            k: 1,
            period: None,
            deadline_us: None,
            share_bound: true,
            min_lsn: None,
            substrate: Substrate::Auto,
        }
    }
}

impl QueryOptions {
    /// The default options: `k = 1`, no window, no deadline, sharing on.
    pub fn new() -> Self {
        QueryOptions::default()
    }

    /// Sets the number of results to return.
    pub fn k(mut self, k: usize) -> Self {
        self.k = k;
        self
    }

    /// Sets the time window the query is evaluated over.
    pub fn during(mut self, period: &TimeInterval) -> Self {
        self.period = Some(*period);
        self
    }

    /// Sets a soft deadline measured from submission. Durations beyond
    /// `u64::MAX` microseconds (≈ 584 thousand years) saturate.
    pub fn deadline(mut self, deadline: Duration) -> Self {
        self.deadline_us = Some(u64::try_from(deadline.as_micros()).unwrap_or(u64::MAX));
        self
    }

    /// Sets a soft deadline in raw microseconds (the wire-codec form).
    pub fn deadline_us(mut self, micros: u64) -> Self {
        self.deadline_us = Some(micros);
        self
    }

    /// Removes any deadline.
    pub fn no_deadline(mut self) -> Self {
        self.deadline_us = None;
        self
    }

    /// Enables or disables cross-shard bound sharing.
    pub fn share_bound(mut self, share: bool) -> Self {
        self.share_bound = share;
        self
    }

    /// Requires the answer to reflect every write at or below `lsn` —
    /// the read-your-writes token (thread the LSN an `Ingested` ack
    /// carried into the next read).
    pub fn min_lsn(mut self, lsn: u64) -> Self {
        self.min_lsn = Some(lsn);
        self
    }

    /// Selects the index substrate the query must run against.
    pub fn substrate(mut self, substrate: Substrate) -> Self {
        self.substrate = substrate;
        self
    }

    /// Refuses a query pinned to a substrate other than `actual`, the one
    /// the database runs on. [`Substrate::Auto`] always passes. Each of
    /// [`MovingObjectDatabase`](crate::MovingObjectDatabase)'s four runners
    /// calls this once before it touches the index — so the single-database
    /// terminals and every shard are checked by the same line.
    pub fn check_substrate(&self, actual: Substrate) -> crate::Result<()> {
        if self.substrate != Substrate::Auto && self.substrate != actual {
            return Err(crate::SearchError::SubstrateMismatch {
                requested: self.substrate,
                actual,
            });
        }
        Ok(())
    }

    /// The canonical identity of these options for caching and
    /// cross-connection deduplication: two option sets with the same key
    /// describe the same *answer*, so an answer computed for one may be
    /// served for the other.
    ///
    /// Canonicalisation rules:
    ///
    /// * the **deadline is excluded** — it shapes how long a query may
    ///   run, not what its certified answer is, so deadline changes must
    ///   not split cache entries;
    /// * the **read-your-writes token (`min_lsn`) is excluded** — it
    ///   gates *admission* (the server refuses or delays the query until
    ///   its watermark catches up), not the answer: once admitted, the
    ///   query is answered from the same current state regardless of the
    ///   token, and caches are invalidated on every applied write, so a
    ///   cached answer an admitted query may see is always current;
    /// * period endpoints are compared by canonical bit pattern
    ///   ([`canonical_f64_bits`]): `-0.0` folds into `+0.0` and every NaN
    ///   payload folds into one canonical NaN, so semantically equal
    ///   windows hash equal;
    /// * `share_bound` is included — it changes execution, and an
    ///   execution-coalescing dedup must not merge a sharing query with
    ///   an isolation ablation;
    /// * the **substrate selector is included** — different substrates may
    ///   legitimately produce differently-profiled (and, for `Auto` vs an
    ///   explicit selector, differently-admitted) executions, so a cached
    ///   answer must never cross a substrate boundary.
    pub fn canonical_key(&self) -> OptionsKey {
        OptionsKey {
            k: u64::try_from(self.k).unwrap_or(u64::MAX),
            period_bits: self
                .period
                .map(|p| (canonical_f64_bits(p.start()), canonical_f64_bits(p.end()))),
            share_bound: self.share_bound,
            substrate: self.substrate,
        }
    }
}

/// The canonical bit pattern of a double for hashing: `-0.0` maps to
/// `+0.0` and every NaN maps to the one canonical quiet NaN, so values
/// that compare semantically equal (or are semantically interchangeable)
/// produce identical bits. All other values map to their own bits.
pub fn canonical_f64_bits(v: f64) -> u64 {
    if v.is_nan() {
        return f64::NAN.to_bits();
    }
    let bits = v.to_bits();
    if bits == (-0.0f64).to_bits() {
        return 0.0f64.to_bits();
    }
    bits
}

/// The canonical cache/dedup identity of a [`QueryOptions`] — see
/// [`QueryOptions::canonical_key`]. Hash and equality are total (floats
/// travel as canonicalised bit patterns), so the key works directly in
/// hash maps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OptionsKey {
    /// Result count.
    pub k: u64,
    /// Canonical bit patterns of the period endpoints, when a period is
    /// set.
    pub period_bits: Option<(u64, u64)>,
    /// Whether cross-shard bound sharing is on.
    pub share_bound: bool,
    /// The substrate selector the query carried.
    pub substrate: Substrate,
}

impl OptionsKey {
    /// Appends the key's canonical byte encoding to `out` — the building
    /// block for composite cache keys that also cover query geometry.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.k.to_le_bytes());
        match self.period_bits {
            Some((start, end)) => {
                out.push(1);
                out.extend_from_slice(&start.to_le_bytes());
                out.extend_from_slice(&end.to_le_bytes());
            }
            None => out.push(0),
        }
        out.push(u8::from(self.share_bound));
        out.push(self.substrate.tag());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_the_single_query_defaults() {
        let o = QueryOptions::new();
        assert_eq!(o.k, 1);
        assert_eq!(o.period, None);
        assert_eq!(o.deadline_us, None);
        assert!(o.share_bound);
    }

    #[test]
    fn deadline_converts_to_microseconds_and_saturates() {
        let o = QueryOptions::new().deadline(Duration::from_millis(3));
        assert_eq!(o.deadline_us, Some(3_000));
        let o = QueryOptions::new().deadline(Duration::MAX);
        assert_eq!(o.deadline_us, Some(u64::MAX));
        assert_eq!(o.no_deadline().deadline_us, None);
    }

    fn hash_of(key: &OptionsKey) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut h);
        h.finish()
    }

    #[test]
    fn equal_options_hash_equal() {
        let w = TimeInterval::new(2.0, 8.0).unwrap();
        let a = QueryOptions::new().k(5).during(&w);
        let b = QueryOptions::new().k(5).during(&w);
        assert_eq!(a.canonical_key(), b.canonical_key());
        assert_eq!(hash_of(&a.canonical_key()), hash_of(&b.canonical_key()));
        // Different k, different key.
        let c = QueryOptions::new().k(6).during(&w);
        assert_ne!(a.canonical_key(), c.canonical_key());
        // Different sharing policy, different key (different execution).
        let d = QueryOptions::new().k(5).during(&w).share_bound(false);
        assert_ne!(a.canonical_key(), d.canonical_key());
        // Different substrate, different key (answers must not cross).
        let e = QueryOptions::new()
            .k(5)
            .during(&w)
            .substrate(Substrate::Metric);
        assert_ne!(a.canonical_key(), e.canonical_key());
    }

    #[test]
    fn substrate_tags_round_trip_and_stay_stable() {
        let all = [
            Substrate::Auto,
            Substrate::Rtree,
            Substrate::TbTree,
            Substrate::StrTree,
            Substrate::Metric,
        ];
        for (i, s) in all.iter().enumerate() {
            assert_eq!(s.tag() as usize, i);
            assert_eq!(Substrate::from_tag(s.tag()), Some(*s));
        }
        assert_eq!(Substrate::from_tag(5), None);
        assert_eq!(Substrate::default(), Substrate::Auto);
    }

    #[test]
    fn deadline_changes_do_not_split_cache_entries() {
        let w = TimeInterval::new(1.0, 9.0).unwrap();
        let base = QueryOptions::new().k(3).during(&w);
        let with_deadline = base.deadline_us(1_500);
        let with_other_deadline = base.deadline(Duration::from_secs(2));
        let key = base.canonical_key();
        assert_eq!(key, with_deadline.canonical_key());
        assert_eq!(key, with_other_deadline.canonical_key());
        assert_eq!(hash_of(&key), hash_of(&with_deadline.canonical_key()));
    }

    #[test]
    fn min_lsn_changes_do_not_split_cache_entries() {
        // The read-your-writes token gates admission, not the answer —
        // see the canonical_key docs for why exclusion is sound.
        let base = QueryOptions::new().k(3);
        let key = base.canonical_key();
        assert_eq!(key, base.min_lsn(42).canonical_key());
        assert_eq!(key, base.min_lsn(7).canonical_key());
        assert_eq!(hash_of(&key), hash_of(&base.min_lsn(42).canonical_key()));
    }

    #[test]
    fn negative_zero_and_nan_bits_canonicalise() {
        assert_eq!(canonical_f64_bits(-0.0), canonical_f64_bits(0.0));
        assert_eq!(canonical_f64_bits(0.0), 0.0f64.to_bits());
        // Every NaN payload folds into the canonical NaN.
        let weird_nan = f64::from_bits(0x7ff8_0000_dead_beef);
        assert!(weird_nan.is_nan());
        assert_eq!(canonical_f64_bits(weird_nan), canonical_f64_bits(f64::NAN));
        // Ordinary values keep their own bits.
        assert_eq!(canonical_f64_bits(2.5), 2.5f64.to_bits());
        assert_ne!(canonical_f64_bits(2.5), canonical_f64_bits(-2.5));

        // A window starting at -0.0 keys identically to one starting at
        // +0.0: the intervals are semantically the same.
        let neg = TimeInterval::new(-0.0, 5.0).unwrap();
        let pos = TimeInterval::new(0.0, 5.0).unwrap();
        let a = QueryOptions::new().k(2).during(&neg);
        let b = QueryOptions::new().k(2).during(&pos);
        assert_eq!(a.canonical_key(), b.canonical_key());
    }

    #[test]
    fn options_key_encoding_is_injective_over_fields() {
        let w = TimeInterval::new(1.0, 4.0).unwrap();
        let keys = [
            QueryOptions::new().canonical_key(),
            QueryOptions::new().k(2).canonical_key(),
            QueryOptions::new().during(&w).canonical_key(),
            QueryOptions::new().share_bound(false).canonical_key(),
            QueryOptions::new()
                .substrate(Substrate::Metric)
                .canonical_key(),
            QueryOptions::new()
                .substrate(Substrate::Rtree)
                .canonical_key(),
        ];
        let mut encodings: Vec<Vec<u8>> = Vec::new();
        for key in &keys {
            let mut out = Vec::new();
            key.encode_into(&mut out);
            encodings.push(out);
        }
        for i in 0..encodings.len() {
            for j in (i + 1)..encodings.len() {
                assert_ne!(encodings[i], encodings[j], "keys {i} and {j} collide");
            }
        }
    }

    #[test]
    fn setters_compose() {
        let w = TimeInterval::new(1.0, 4.0).unwrap();
        let o = QueryOptions::new()
            .k(7)
            .during(&w)
            .deadline_us(500)
            .share_bound(false);
        assert_eq!(o.k, 7);
        assert_eq!(o.period, Some(w));
        assert_eq!(o.deadline_us, Some(500));
        assert!(!o.share_bound);
    }
}
