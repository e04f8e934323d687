//! A bounded multi-producer multi-consumer job queue built from a mutex
//! and two condition variables — the simplest structure that gives the
//! executor backpressure (producers block when the batch outruns the
//! workers) and clean shutdown (closing wakes every blocked worker with
//! "no more jobs").
//!
//! Poisoning policy (xtask rule R7): a panicking thread must never cascade
//! into `unwrap` panics on the lock. A poisoned queue behaves as closed —
//! [`JobQueue::pop`] returns `None`, [`JobQueue::push`] returns the
//! rejected job — so the batch drains and reports instead of crashing.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

/// The state under the queue's lock.
struct Inner<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// Why a non-blocking [`JobQueue::try_push`] refused a job, carrying the
/// job back to the caller.
#[derive(Debug, PartialEq, Eq)]
pub enum TryPushError<T> {
    /// The queue is at capacity. Admission control turns this into an
    /// explicit overload rejection instead of unbounded waiting.
    Full(T),
    /// The queue is closed (or its lock poisoned): shutdown in progress.
    Closed(T),
}

/// A bounded blocking MPMC queue. All methods take `&self`; share it by
/// reference across scoped threads.
pub struct JobQueue<T> {
    inner: Mutex<Inner<T>>,
    /// Signalled when an item arrives or the queue closes.
    not_empty: Condvar,
    /// Signalled when an item leaves or the queue closes.
    not_full: Condvar,
    capacity: usize,
}

impl<T> JobQueue<T> {
    /// A queue holding at most `capacity` pending jobs (minimum 1).
    pub fn new(capacity: usize) -> Self {
        JobQueue {
            inner: Mutex::new(Inner {
                items: VecDeque::new(),
                closed: false,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Enqueues a job, blocking while the queue is full. Returns the job
    /// back as `Err` when the queue is closed (or poisoned) — the caller
    /// decides whether that is a shutdown or a bug.
    pub fn push(&self, item: T) -> Result<(), T> {
        let Ok(mut guard) = self.inner.lock() else {
            return Err(item);
        };
        while guard.items.len() >= self.capacity && !guard.closed {
            match self.not_full.wait(guard) {
                Ok(g) => guard = g,
                Err(_) => return Err(item),
            }
        }
        if guard.closed {
            return Err(item);
        }
        guard.items.push_back(item);
        drop(guard);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Enqueues a job without blocking. A full queue is an explicit
    /// [`TryPushError::Full`] — the admission-control primitive: callers
    /// reject the work loudly instead of queueing unboundedly or waiting.
    pub fn try_push(&self, item: T) -> Result<(), TryPushError<T>> {
        let Ok(mut guard) = self.inner.lock() else {
            return Err(TryPushError::Closed(item));
        };
        if guard.closed {
            return Err(TryPushError::Closed(item));
        }
        if guard.items.len() >= self.capacity {
            return Err(TryPushError::Full(item));
        }
        guard.items.push_back(item);
        drop(guard);
        self.not_empty.notify_one();
        Ok(())
    }

    /// The queue's capacity bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Dequeues a job, blocking while the queue is empty and open. Returns
    /// `None` once the queue is closed and drained (or poisoned) — the
    /// worker's signal to exit.
    pub fn pop(&self) -> Option<T> {
        let Ok(mut guard) = self.inner.lock() else {
            return None;
        };
        loop {
            if let Some(item) = guard.items.pop_front() {
                drop(guard);
                self.not_full.notify_one();
                return Some(item);
            }
            if guard.closed {
                return None;
            }
            match self.not_empty.wait(guard) {
                Ok(g) => guard = g,
                Err(_) => return None,
            }
        }
    }

    /// Closes the queue: pending jobs still drain, new pushes fail, and
    /// every blocked thread wakes.
    pub fn close(&self) {
        if let Ok(mut guard) = self.inner.lock() {
            guard.closed = true;
        }
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// Number of jobs currently queued (0 if the lock is poisoned).
    pub fn len(&self) -> usize {
        self.inner.lock().map(|g| g.items.len()).unwrap_or(0)
    }

    /// True when no jobs are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_within_a_single_thread() {
        let q = JobQueue::new(8);
        for i in 0..5 {
            q.push(i).unwrap();
        }
        assert_eq!(q.len(), 5);
        for i in 0..5 {
            assert_eq!(q.pop(), Some(i));
        }
        assert!(q.is_empty());
    }

    #[test]
    fn close_drains_then_stops() {
        let q = JobQueue::new(8);
        q.push(1).unwrap();
        q.push(2).unwrap();
        q.close();
        assert_eq!(q.push(3), Err(3));
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn bounded_capacity_applies_backpressure() {
        let q = JobQueue::new(2);
        std::thread::scope(|s| {
            let producer = s.spawn(|| {
                // 6 pushes through a capacity-2 queue: blocks until the
                // consumer drains.
                for i in 0..6 {
                    q.push(i).unwrap();
                }
                q.close();
            });
            let mut got = Vec::new();
            while let Some(i) = q.pop() {
                got.push(i);
            }
            producer.join().unwrap();
            assert_eq!(got, vec![0, 1, 2, 3, 4, 5]);
        });
    }

    #[test]
    fn many_producers_many_consumers_lose_nothing() {
        let q = JobQueue::new(4);
        let total: u64 = std::thread::scope(|s| {
            let producers: Vec<_> = (0..3u64)
                .map(|p| {
                    let q = &q;
                    s.spawn(move || {
                        for i in 0..100u64 {
                            q.push(p * 1000 + i).unwrap();
                        }
                    })
                })
                .collect();
            let consumers: Vec<_> = (0..3)
                .map(|_| {
                    let q = &q;
                    s.spawn(move || {
                        let mut count = 0u64;
                        while q.pop().is_some() {
                            count += 1;
                        }
                        count
                    })
                })
                .collect();
            for p in producers {
                p.join().unwrap();
            }
            q.close();
            consumers.into_iter().map(|c| c.join().unwrap()).sum()
        });
        assert_eq!(total, 300);
    }

    #[test]
    fn closed_empty_queue_pops_none_immediately() {
        let q: JobQueue<u32> = JobQueue::new(1);
        q.close();
        assert_eq!(q.pop(), None);
        assert_eq!(q.push(9), Err(9));
    }

    #[test]
    fn try_push_rejects_full_and_closed_without_blocking() {
        let q = JobQueue::new(2);
        assert_eq!(q.capacity(), 2);
        assert_eq!(q.try_push(1), Ok(()));
        assert_eq!(q.try_push(2), Ok(()));
        assert_eq!(q.try_push(3), Err(TryPushError::Full(3)));
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.try_push(4), Ok(()));
        q.close();
        assert_eq!(q.try_push(5), Err(TryPushError::Closed(5)));
        // Pending jobs still drain after close.
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), Some(4));
        assert_eq!(q.pop(), None);
    }
}
