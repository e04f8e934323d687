//! Per-query observability: the quantities the paper's Section 5 evaluation
//! reports (pruning power, execution cost) as first-class query outputs.
//!
//! The search algorithms are generic over a [`QueryMetrics`] sink — an
//! extension of the index layer's [`MetricsSink`] with search-level events
//! (DISSIM piece evaluations, candidate lifecycle, per-bound pruning). The
//! [`QueryProfile`] implements both and is the standard collector: run any
//! query through [`crate::Query`] with `.profile()` and every counter below
//! is populated. Running with the [`NoopSink`] instead monomorphizes all
//! hooks away, so the observed and unobserved paths are the same code and
//! tracing can never change an answer.
//!
//! No timing lives here (xtask rule R5 keeps the wall clock out of library
//! crates): the profile counts *work* — machine-independent events — and
//! `crates/bench` pairs it with wall time.

pub use mst_index::{MetricsSink, NoopSink};

use crate::dissim::Integration;

/// The pruning bound an event refers to, one per bound family of the paper
/// (Definitions 2–6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PruningBound {
    /// LDD, the per-gap lower bound of Definition 2 (the integrand of the
    /// speed-dependent envelopes).
    Ldd,
    /// OPTDISSIM, the candidate-level lower bound of heuristic 1.
    OptDissim,
    /// PESDISSIM, the candidate-level upper bound feeding the threshold.
    PesDissim,
    /// OPTDISSIMINC, the incremental speed-independent lower bound.
    OptDissimInc,
    /// MINDISSIMINC, the node-level bound of heuristic 2.
    MinDissimInc,
    /// The metric substrate's triangle-inequality lower bound:
    /// `max(0, DISSIM(Q, pivot) - radius)` for a covering-radius ball, or
    /// `max(0, DISSIM(Q, pivot) - d(pivot, T))` for a stored member
    /// distance. Sound for any query window by window-restriction
    /// monotonicity of the DISSIM integrand.
    TriangleIneq,
}

/// Candidate lifecycle accounting. The ledger balances by construction:
/// every candidate the search discovers ends up pruned, refined, or still
/// pending, so `seen == pruned + refined + pending` on any profile.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CandidateCounters {
    /// Distinct candidate trajectories discovered.
    pub seen: u64,
    /// Candidates refined to a complete DISSIM over the period.
    pub refined: u64,
    /// Candidates rejected by a pruning bound before completion.
    pub pruned: u64,
    /// Candidates still partial when the search ended.
    pub pending: u64,
}

/// Per-bound evaluation and pruning counters — the "pruning power"
/// ingredients of the paper's Figures 8–11.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PruningCounters {
    /// Per-gap LDD envelope integrals evaluated (each OPTDISSIM/PESDISSIM
    /// computation evaluates one per uncovered gap).
    pub ldd_evals: u64,
    /// OPTDISSIM lower bounds computed (heuristic 1 tests).
    pub opt_dissim_evals: u64,
    /// Candidates rejected because OPTDISSIM cleared the threshold.
    pub opt_dissim_prunes: u64,
    /// PESDISSIM upper bounds computed.
    pub pes_dissim_evals: u64,
    /// PESDISSIM computations that tightened the pruning threshold's key
    /// for their candidate (PESDISSIM prunes indirectly, through the
    /// threshold it feeds).
    pub pes_dissim_tightenings: u64,
    /// Per-candidate OPTDISSIMINC bounds computed by heuristic 2.
    pub opt_dissim_inc_evals: u64,
    /// Pending candidates discarded when OPTDISSIMINC terminated the
    /// search (each provably outside the answer).
    pub opt_dissim_inc_prunes: u64,
    /// Node-level MINDISSIMINC blanket tests (`MINDIST × period`).
    pub min_dissim_inc_evals: u64,
    /// Queued nodes discarded unvisited when heuristic 2 fired.
    pub min_dissim_inc_prunes: u64,
    /// Evaluations of a k-th bound shared between per-shard searches:
    /// always 0, as a sharded query is one search over every shard's tree
    /// under one threshold and no search shares a bound. Kept with
    /// `shared_kth_prunes` only because the benchmark's
    /// `exec.shared_kth_prunes_per_query` (`benchmark/src/layers.rs`)
    /// reads it until ROADMAP item 1(f) retires that metric.
    pub shared_kth_evals: u64,
    /// Prunes by a shared k-th bound: always 0, likewise.
    pub shared_kth_prunes: u64,
    /// Triangle-inequality lower bounds computed by the metric substrate
    /// (one per member distance test; ball descent bounds are folded in).
    pub triangle_ineq_evals: u64,
    /// Candidates or queued balls rejected because the triangle-inequality
    /// bound cleared the threshold.
    pub triangle_ineq_prunes: u64,
}

/// One query's complete observability record.
///
/// Collects every [`MetricsSink`] and [`QueryMetrics`] event. A profile may
/// be reused across queries: counters accumulate monotonically, so per-query
/// figures come from deltas (or a fresh profile per query).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QueryProfile {
    /// Elements pushed onto best-first priority queues.
    pub heap_pushes: u64,
    /// Elements popped off best-first priority queues.
    pub heap_pops: u64,
    /// Node accesses per tree level (index 0 = leaves; grows as needed).
    pub node_accesses: Vec<u64>,
    /// Page requests served from the buffer pool.
    pub buffer_hits: u64,
    /// Page requests that faulted through to the page store.
    pub buffer_misses: u64,
    /// Bytes of page payload handed to the node decoder.
    pub bytes_decoded: u64,
    /// Closed-form DISSIM piece integrals evaluated.
    pub exact_piece_evals: u64,
    /// Trapezoid DISSIM piece integrals evaluated.
    pub trapezoid_piece_evals: u64,
    /// Exact integrals recomputed by the Section 4.4 post-processing.
    pub exact_recomputations: u64,
    /// Candidate lifecycle ledger.
    pub candidates: CandidateCounters,
    /// Per-bound evaluation and pruning counters.
    pub pruning: PruningCounters,
    /// Heuristic-2 terminations recorded (one per query it cut short).
    pub early_terminations: u64,
    /// Queries answered from a serving layer's answer cache instead of
    /// executing (the cache merges a one-hit profile per hit; index and
    /// search counters stay untouched because no search ran).
    pub answer_cache_hits: u64,
    /// Cache-eligible queries that missed the answer cache and executed.
    pub answer_cache_misses: u64,
    /// Physical page reads retried after a retryable fault (transient I/O
    /// error or checksum mismatch).
    pub io_retries: u64,
    /// Page fetches that failed checksum verification.
    pub checksum_failures: u64,
    /// Pages quarantined after exhausting their retry budget.
    pub pages_quarantined: u64,
}

impl QueryProfile {
    /// A fresh all-zero profile.
    pub fn new() -> Self {
        QueryProfile::default()
    }

    /// Total node accesses across all levels.
    pub fn nodes_accessed(&self) -> u64 {
        self.node_accesses.iter().sum()
    }

    /// Leaf-level node accesses.
    pub fn leaf_accesses(&self) -> u64 {
        self.node_accesses.first().copied().unwrap_or(0)
    }

    /// Total DISSIM piece integrals evaluated (both schemes).
    pub fn piece_evals(&self) -> u64 {
        self.exact_piece_evals + self.trapezoid_piece_evals
    }

    /// Adds every counter of `other` into `self` — aggregation over a
    /// workload of per-query profiles.
    pub fn merge(&mut self, other: &QueryProfile) {
        self.heap_pushes += other.heap_pushes;
        self.heap_pops += other.heap_pops;
        if self.node_accesses.len() < other.node_accesses.len() {
            self.node_accesses.resize(other.node_accesses.len(), 0);
        }
        for (level, n) in other.node_accesses.iter().enumerate() {
            self.node_accesses[level] += n;
        }
        self.buffer_hits += other.buffer_hits;
        self.buffer_misses += other.buffer_misses;
        self.bytes_decoded += other.bytes_decoded;
        self.exact_piece_evals += other.exact_piece_evals;
        self.trapezoid_piece_evals += other.trapezoid_piece_evals;
        self.exact_recomputations += other.exact_recomputations;
        self.candidates.seen += other.candidates.seen;
        self.candidates.refined += other.candidates.refined;
        self.candidates.pruned += other.candidates.pruned;
        self.candidates.pending += other.candidates.pending;
        self.pruning.ldd_evals += other.pruning.ldd_evals;
        self.pruning.opt_dissim_evals += other.pruning.opt_dissim_evals;
        self.pruning.opt_dissim_prunes += other.pruning.opt_dissim_prunes;
        self.pruning.pes_dissim_evals += other.pruning.pes_dissim_evals;
        self.pruning.pes_dissim_tightenings += other.pruning.pes_dissim_tightenings;
        self.pruning.opt_dissim_inc_evals += other.pruning.opt_dissim_inc_evals;
        self.pruning.opt_dissim_inc_prunes += other.pruning.opt_dissim_inc_prunes;
        self.pruning.min_dissim_inc_evals += other.pruning.min_dissim_inc_evals;
        self.pruning.min_dissim_inc_prunes += other.pruning.min_dissim_inc_prunes;
        self.pruning.shared_kth_evals += other.pruning.shared_kth_evals;
        self.pruning.shared_kth_prunes += other.pruning.shared_kth_prunes;
        self.pruning.triangle_ineq_evals += other.pruning.triangle_ineq_evals;
        self.pruning.triangle_ineq_prunes += other.pruning.triangle_ineq_prunes;
        self.early_terminations += other.early_terminations;
        self.answer_cache_hits += other.answer_cache_hits;
        self.answer_cache_misses += other.answer_cache_misses;
        self.io_retries += other.io_retries;
        self.checksum_failures += other.checksum_failures;
        self.pages_quarantined += other.pages_quarantined;
    }

    /// True when the candidate ledger balances:
    /// `seen == pruned + refined + pending`. Holds by construction for any
    /// profile populated by the search algorithms (also across accumulated
    /// queries).
    pub fn is_consistent(&self) -> bool {
        self.candidates.seen
            == self.candidates.pruned + self.candidates.refined + self.candidates.pending
    }
}

impl MetricsSink for QueryProfile {
    fn node_access(&mut self, level: u8) {
        let i = usize::from(level);
        if self.node_accesses.len() <= i {
            self.node_accesses.resize(i + 1, 0);
        }
        self.node_accesses[i] += 1;
    }

    fn buffer_hit(&mut self) {
        self.buffer_hits += 1;
    }

    fn buffer_miss(&mut self) {
        self.buffer_misses += 1;
    }

    fn bytes_decoded(&mut self, n: u64) {
        self.bytes_decoded += n;
    }

    fn heap_push(&mut self) {
        self.heap_pushes += 1;
    }

    fn heap_pop(&mut self) {
        self.heap_pops += 1;
    }

    fn io_retry(&mut self) {
        self.io_retries += 1;
    }

    fn io_checksum_failure(&mut self) {
        self.checksum_failures += 1;
    }

    fn io_quarantine(&mut self) {
        self.pages_quarantined += 1;
    }
}

/// Search-level events, extending the index layer's [`MetricsSink`]. Like
/// the base trait, every method defaults to a no-op so sinks implement only
/// what they record.
pub trait QueryMetrics: MetricsSink {
    /// One DISSIM piece integral was evaluated with `integration`.
    fn piece_eval(&mut self, integration: Integration) {
        let _ = integration;
    }

    /// A new candidate trajectory was discovered.
    fn candidate_seen(&mut self) {}

    /// A candidate was refined to a complete DISSIM over the period.
    fn candidate_refined(&mut self) {}

    /// A candidate was rejected by a pruning bound before completion.
    fn candidate_pruned(&mut self) {}

    /// `n` candidates were still partial when the search ended.
    fn candidates_pending(&mut self, n: u64) {
        let _ = n;
    }

    /// `n` evaluations of `bound` were performed.
    fn bound_evals(&mut self, bound: PruningBound, n: u64) {
        let _ = (bound, n);
    }

    /// `bound` pruned `n` units of work (candidates for the candidate-level
    /// bounds, queued nodes for MINDISSIMINC, threshold tightenings for
    /// PESDISSIM).
    fn pruned_by(&mut self, bound: PruningBound, n: u64) {
        let _ = (bound, n);
    }

    /// Heuristic 2 terminated the search before the queue drained.
    fn early_termination(&mut self) {}

    /// The Section 4.4 post-processing recomputed one exact DISSIM.
    fn exact_recomputation(&mut self) {}
}

impl QueryMetrics for NoopSink {}

impl<S: QueryMetrics + ?Sized> QueryMetrics for &mut S {
    fn piece_eval(&mut self, integration: Integration) {
        (**self).piece_eval(integration);
    }
    fn candidate_seen(&mut self) {
        (**self).candidate_seen();
    }
    fn candidate_refined(&mut self) {
        (**self).candidate_refined();
    }
    fn candidate_pruned(&mut self) {
        (**self).candidate_pruned();
    }
    fn candidates_pending(&mut self, n: u64) {
        (**self).candidates_pending(n);
    }
    fn bound_evals(&mut self, bound: PruningBound, n: u64) {
        (**self).bound_evals(bound, n);
    }
    fn pruned_by(&mut self, bound: PruningBound, n: u64) {
        (**self).pruned_by(bound, n);
    }
    fn early_termination(&mut self) {
        (**self).early_termination();
    }
    fn exact_recomputation(&mut self) {
        (**self).exact_recomputation();
    }
}

impl QueryMetrics for QueryProfile {
    fn piece_eval(&mut self, integration: Integration) {
        match integration {
            Integration::Exact => self.exact_piece_evals += 1,
            Integration::Trapezoid => self.trapezoid_piece_evals += 1,
        }
    }

    fn candidate_seen(&mut self) {
        self.candidates.seen += 1;
    }

    fn candidate_refined(&mut self) {
        self.candidates.refined += 1;
    }

    fn candidate_pruned(&mut self) {
        self.candidates.pruned += 1;
    }

    fn candidates_pending(&mut self, n: u64) {
        self.candidates.pending += n;
    }

    fn bound_evals(&mut self, bound: PruningBound, n: u64) {
        match bound {
            PruningBound::Ldd => self.pruning.ldd_evals += n,
            PruningBound::OptDissim => self.pruning.opt_dissim_evals += n,
            PruningBound::PesDissim => self.pruning.pes_dissim_evals += n,
            PruningBound::OptDissimInc => self.pruning.opt_dissim_inc_evals += n,
            PruningBound::MinDissimInc => self.pruning.min_dissim_inc_evals += n,
            PruningBound::TriangleIneq => self.pruning.triangle_ineq_evals += n,
        }
    }

    fn pruned_by(&mut self, bound: PruningBound, n: u64) {
        match bound {
            PruningBound::Ldd => {}
            PruningBound::OptDissim => self.pruning.opt_dissim_prunes += n,
            PruningBound::PesDissim => self.pruning.pes_dissim_tightenings += n,
            PruningBound::OptDissimInc => self.pruning.opt_dissim_inc_prunes += n,
            PruningBound::MinDissimInc => self.pruning.min_dissim_inc_prunes += n,
            PruningBound::TriangleIneq => self.pruning.triangle_ineq_prunes += n,
        }
    }

    fn early_termination(&mut self) {
        self.early_terminations += 1;
    }

    fn exact_recomputation(&mut self) {
        self.exact_recomputations += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_collects_index_events() {
        let mut p = QueryProfile::new();
        p.node_access(0);
        p.node_access(0);
        p.node_access(3);
        p.buffer_hit();
        p.buffer_miss();
        p.bytes_decoded(4096);
        p.heap_push();
        p.heap_pop();
        assert_eq!(p.node_accesses, vec![2, 0, 0, 1]);
        assert_eq!(p.nodes_accessed(), 3);
        assert_eq!(p.leaf_accesses(), 2);
        assert_eq!((p.buffer_hits, p.buffer_misses), (1, 1));
        assert_eq!(p.bytes_decoded, 4096);
        assert_eq!((p.heap_pushes, p.heap_pops), (1, 1));
    }

    #[test]
    fn profile_collects_search_events() {
        let mut p = QueryProfile::new();
        p.piece_eval(Integration::Exact);
        p.piece_eval(Integration::Trapezoid);
        p.piece_eval(Integration::Trapezoid);
        p.candidate_seen();
        p.candidate_seen();
        p.candidate_pruned();
        p.candidates_pending(1);
        p.bound_evals(PruningBound::OptDissim, 4);
        p.pruned_by(PruningBound::OptDissim, 1);
        p.bound_evals(PruningBound::MinDissimInc, 2);
        p.pruned_by(PruningBound::MinDissimInc, 7);
        p.early_termination();
        p.exact_recomputation();
        assert_eq!(p.exact_piece_evals, 1);
        assert_eq!(p.trapezoid_piece_evals, 2);
        assert_eq!(p.piece_evals(), 3);
        assert_eq!(p.candidates.seen, 2);
        assert_eq!(p.pruning.opt_dissim_evals, 4);
        assert_eq!(p.pruning.opt_dissim_prunes, 1);
        assert_eq!(p.pruning.min_dissim_inc_evals, 2);
        assert_eq!(p.pruning.min_dissim_inc_prunes, 7);
        assert_eq!(p.early_terminations, 1);
        assert_eq!(p.exact_recomputations, 1);
        assert!(p.is_consistent());
    }

    #[test]
    fn merge_adds_every_counter() {
        let mut a = QueryProfile::new();
        a.node_access(0);
        a.heap_push();
        a.candidate_seen();
        a.candidates_pending(1);
        let mut b = QueryProfile::new();
        b.node_access(2);
        b.buffer_hit();
        b.bound_evals(PruningBound::Ldd, 3);
        b.pruning.shared_kth_evals = 2;
        b.pruning.shared_kth_prunes = 1;
        b.bound_evals(PruningBound::TriangleIneq, 5);
        b.pruned_by(PruningBound::TriangleIneq, 2);
        b.candidate_seen();
        b.candidate_pruned();
        b.io_retry();
        b.io_retry();
        b.io_checksum_failure();
        b.io_quarantine();
        b.answer_cache_hits += 3;
        b.answer_cache_misses += 4;
        a.merge(&b);
        assert_eq!(a.node_accesses, vec![1, 0, 1]);
        assert_eq!(a.heap_pushes, 1);
        assert_eq!(a.buffer_hits, 1);
        assert_eq!(a.pruning.ldd_evals, 3);
        assert_eq!(a.pruning.shared_kth_evals, 2);
        assert_eq!(a.pruning.shared_kth_prunes, 1);
        assert_eq!(a.pruning.triangle_ineq_evals, 5);
        assert_eq!(a.pruning.triangle_ineq_prunes, 2);
        assert_eq!(a.candidates.seen, 2);
        assert_eq!(a.io_retries, 2);
        assert_eq!(a.answer_cache_hits, 3);
        assert_eq!(a.answer_cache_misses, 4);
        assert_eq!(a.checksum_failures, 1);
        assert_eq!(a.pages_quarantined, 1);
        assert!(a.is_consistent());
    }

    #[test]
    fn consistency_detects_an_unbalanced_ledger() {
        let mut p = QueryProfile::new();
        p.candidate_seen();
        assert!(!p.is_consistent());
        p.candidates_pending(1);
        assert!(p.is_consistent());
    }
}
