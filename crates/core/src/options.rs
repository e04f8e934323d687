//! Shared query options — the knobs every query flavour has in common.
//!
//! [`QueryOptions`] is the single carrier for the parameters that used to
//! be threaded as three parallel ad-hoc argument sets: the builder setters
//! on [`Query`](crate::Query), the batch executor's submission path, and
//! the serving layer's wire codec all speak this one struct. A frozen spec
//! ([`KmstSpec`](crate::KmstSpec), [`KnnSpec`](crate::KnnSpec), ...)
//! embeds its options, so an executor or a server can read the deadline
//! without knowing which query flavour it is running.

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
/// per-query deadline, read-your-writes token and substrate pin.
///
/// ```
/// use core::time::Duration;
/// use mst_search::QueryOptions;
///
/// let opts = QueryOptions::new().k(5).deadline(Duration::from_millis(20));
/// assert_eq!(opts.k, 5);
/// assert_eq!(opts.deadline_us, Some(20_000));
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
            min_lsn: None,
            substrate: Substrate::Auto,
        }
    }
}

impl QueryOptions {
    /// The default options: `k = 1`, no window, no deadline, any state,
    /// any substrate.
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
    /// the database runs on. [`Substrate::Auto`] always passes.
    /// [`run`](crate::run) calls this for every shard before it touches an
    /// index — so the single-database terminals and every shard are checked
    /// by the same line.
    pub fn check_substrate(&self, actual: Substrate) -> crate::Result<()> {
        if self.substrate != Substrate::Auto && self.substrate != actual {
            return Err(crate::SearchError::SubstrateMismatch {
                requested: self.substrate,
                actual,
            });
        }
        Ok(())
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
        assert_eq!(o.min_lsn, None);
        assert_eq!(o.substrate, Substrate::Auto);
    }

    #[test]
    fn deadline_converts_to_microseconds_and_saturates() {
        let o = QueryOptions::new().deadline(Duration::from_millis(3));
        assert_eq!(o.deadline_us, Some(3_000));
        let o = QueryOptions::new().deadline(Duration::MAX);
        assert_eq!(o.deadline_us, Some(u64::MAX));
        assert_eq!(o.no_deadline().deadline_us, None);
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
    fn setters_compose() {
        let w = TimeInterval::new(1.0, 4.0).unwrap();
        let o = QueryOptions::new()
            .k(7)
            .during(&w)
            .deadline_us(500)
            .min_lsn(9)
            .substrate(Substrate::TbTree);
        assert_eq!(o.k, 7);
        assert_eq!(o.period, Some(w));
        assert_eq!(o.deadline_us, Some(500));
        assert_eq!(o.min_lsn, Some(9));
        assert_eq!(o.substrate, Substrate::TbTree);
    }
}
