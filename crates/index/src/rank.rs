//! The lock order — shard gate, then ball directory, then pager — checked
//! at run time in debug builds (DESIGN.md § Static analysis, "Lock order").

use std::ops::{Deref, DerefMut};
use std::sync::{LockResult, PoisonError};

/// A nested lock's place in the order, outermost first.
#[derive(Debug, Clone, Copy)]
pub enum Rank {
    /// A shard's reader–writer gate (`mst_exec::Shard`); every shard's at
    /// once only as one [`Ranked::hold`], taken in shard order.
    ShardGate,
    /// The metric tree's ball directory ([`crate::MetricTree::directory`]).
    BallDirectory,
    /// A tree's pager mutex.
    Pager,
}

/// A guard taken through [`Ranked::lock`]; derefs to the guarded value. In
/// release builds it is a plain newtype over the guard.
pub struct Ranked<G> {
    guard: G,
    #[cfg(debug_assertions)]
    rank: Rank,
}

#[cfg(debug_assertions)]
thread_local! {
    /// Bit `r` is set while this thread holds a lock of rank `r`.
    static HELD: std::cell::Cell<u8> = const { std::cell::Cell::new(0) };
}

impl<G> Ranked<G> {
    /// Takes a lock of `rank` through `take`; in debug builds, fails a
    /// `debug_assert!` if this thread holds a lock of equal or higher rank.
    /// A poisoned lock is still held: its guard comes back ranked.
    pub fn lock(rank: Rank, take: impl FnOnce() -> LockResult<G>) -> LockResult<Self> {
        enter(rank);
        let wrap = |guard| Ranked {
            guard,
            #[cfg(debug_assertions)]
            rank,
        };
        take()
            .map(wrap)
            .map_err(|poisoned| PoisonError::new(wrap(poisoned.into_inner())))
    }

    /// Takes several locks of one `rank` as a single hold: `take` acquires
    /// them all (in one fixed order) and returns their guards together.
    /// The order check is [`Ranked::lock`]'s, made once for the group.
    pub fn hold(rank: Rank, take: impl FnOnce() -> G) -> Self {
        enter(rank);
        Ranked {
            guard: take(),
            #[cfg(debug_assertions)]
            rank,
        }
    }
}

/// Marks `rank` held by this thread; in debug builds, fails a
/// `debug_assert!` if a lock of equal or higher rank is already held.
#[cfg_attr(not(debug_assertions), allow(unused_variables))]
fn enter(rank: Rank) {
    #[cfg(debug_assertions)]
    HELD.with(|held| {
        let bit = 1u8 << rank as u8;
        debug_assert!(held.get() < bit, "lock rank: {rank:?} taken out of order");
        held.set(held.get() | bit);
    });
}

#[cfg(debug_assertions)]
impl<G> Drop for Ranked<G> {
    fn drop(&mut self) {
        HELD.with(|held| held.set(held.get() & !(1u8 << self.rank as u8)));
    }
}

impl<G: Deref> Deref for Ranked<G> {
    type Target = G::Target;
    fn deref(&self) -> &G::Target {
        &self.guard
    }
}

impl<G: DerefMut> DerefMut for Ranked<G> {
    fn deref_mut(&mut self) -> &mut G::Target {
        &mut self.guard
    }
}
