//! A BSP communication fabric for the in-process cluster.
//!
//! Workers are OS threads; collectives are superstep-style (every rank must
//! call the same collectives in the same order, like MPI). Every byte that
//! crosses a rank boundary is counted, because the communication volume is
//! the quantity the paper's parallel-computation models need.

use std::any::Any;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;

use parking_lot::Mutex;

/// Accumulated traffic counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CommStats {
    /// Payload bytes that crossed rank boundaries.
    pub bytes: u64,
    /// Number of point-to-point messages (collectives decompose into
    /// their constituent messages).
    pub messages: u64,
}

impl std::ops::Sub for CommStats {
    type Output = CommStats;
    fn sub(self, rhs: CommStats) -> CommStats {
        CommStats {
            bytes: self.bytes - rhs.bytes,
            messages: self.messages - rhs.messages,
        }
    }
}

type Slot = Mutex<Option<Box<dyn Any + Send>>>;

/// The cluster fabric: W² mailboxes plus a reusable barrier.
pub struct Fabric {
    workers: usize,
    slots: Vec<Slot>,
    barrier: Barrier,
    bytes: AtomicU64,
    messages: AtomicU64,
}

impl Fabric {
    /// Creates a fabric for `workers` ranks.
    ///
    /// # Panics
    ///
    /// Panics if `workers == 0`.
    pub fn new(workers: usize) -> Self {
        assert!(workers > 0, "need at least one worker");
        let slots = (0..workers * workers).map(|_| Mutex::new(None)).collect();
        Self {
            workers,
            slots,
            barrier: Barrier::new(workers),
            bytes: AtomicU64::new(0),
            messages: AtomicU64::new(0),
        }
    }

    /// Number of ranks.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Traffic counted so far.
    pub fn stats(&self) -> CommStats {
        CommStats {
            bytes: self.bytes.load(Ordering::Relaxed),
            messages: self.messages.load(Ordering::Relaxed),
        }
    }

    #[expect(
        clippy::indexing_slicing,
        reason = "src and dst are rank ids handed out by run_cluster, always < workers; the grid is allocated as workers^2 in new()"
    )]
    fn slot(&self, src: usize, dst: usize) -> &Slot {
        &self.slots[src * self.workers + dst]
    }

    /// Removes and downcasts the payload deposited in mailbox
    /// `(src, dst)`. The two panics below are BSP protocol violations —
    /// a rank skipped a collective, or two ranks called different
    /// collectives — which are programming errors on par with a failed
    /// `assert!`, not runtime conditions a caller could handle.
    fn take_deposit<T: Send + 'static>(&self, src: usize, dst: usize) -> T {
        #[expect(
            clippy::expect_used,
            reason = "BSP invariant: every deposit happens before the barrier that precedes this take; absence means a rank skipped the collective"
        )]
        let boxed = self
            .slot(src, dst)
            .lock()
            .take()
            .expect("BSP protocol: deposit must precede the barrier");
        #[expect(
            clippy::expect_used,
            reason = "BSP invariant: all ranks call the same collectives in the same order, so the deposited type always matches"
        )]
        let value = boxed
            .downcast::<T>()
            .expect("BSP protocol: collective type mismatch across ranks");
        *value
    }

    fn count(&self, bytes: u64) {
        self.bytes.fetch_add(bytes, Ordering::Relaxed);
        self.messages.fetch_add(1, Ordering::Relaxed);
    }

    /// Superstep barrier.
    pub fn barrier(&self) {
        self.barrier.wait();
    }

    /// All-to-all personalized exchange: rank `rank` sends `outgoing[d]` to
    /// rank `d` and receives one `Vec<T>` from every rank (indexed by
    /// source). The local `outgoing[rank]` is delivered without being
    /// counted as traffic.
    ///
    /// # Panics
    ///
    /// Panics if `outgoing.len() != workers`.
    pub fn all_to_all<T: Send + 'static>(&self, rank: usize, outgoing: Vec<Vec<T>>) -> Vec<Vec<T>> {
        assert_eq!(outgoing.len(), self.workers, "one outbox per rank required");
        for (dst, payload) in outgoing.into_iter().enumerate() {
            if dst != rank {
                self.count((payload.len() * std::mem::size_of::<T>()) as u64);
            }
            *self.slot(rank, dst).lock() = Some(Box::new(payload));
        }
        self.barrier();
        let received: Vec<Vec<T>> = (0..self.workers)
            .map(|src| self.take_deposit::<Vec<T>>(src, rank))
            .collect();
        self.barrier();
        received
    }

    /// All-reduce (element-wise sum) of equal-length vectors, returning the
    /// identical reduced vector on every rank. Reduction happens on rank 0
    /// in ascending rank order, so the result is deterministic.
    pub fn all_reduce_sum<T>(&self, rank: usize, local: Vec<T>) -> Vec<T>
    where
        T: std::ops::AddAssign + Copy + Send + 'static,
    {
        let len = local.len();
        // Gather phase.
        if rank != 0 {
            self.count((len * std::mem::size_of::<T>()) as u64);
        }
        *self.slot(rank, rank).lock() = Some(Box::new(local));
        self.barrier();
        // Rank 0 reduces and deposits the result for everyone.
        if rank == 0 {
            // `new()` asserts workers > 0, so rank 0's own deposit exists.
            let mut result: Vec<T> = self.take_deposit(0, 0);
            for src in 1..self.workers {
                let part: Vec<T> = self.take_deposit(src, src);
                assert_eq!(result.len(), part.len(), "all-reduce length mismatch");
                for (x, y) in result.iter_mut().zip(part.iter()) {
                    *x += *y;
                }
            }
            for dst in 0..self.workers {
                if dst != 0 {
                    self.count((len * std::mem::size_of::<T>()) as u64);
                }
                *self.slot(0, dst).lock() = Some(Box::new(result.clone()));
            }
        }
        self.barrier();
        let out: Vec<T> = self.take_deposit(0, rank);
        self.barrier();
        out
    }

    /// Broadcast from `root`: the root passes `Some(value)`, everyone else
    /// `None`; all ranks return the value.
    ///
    /// # Panics
    ///
    /// Panics if the root passes `None` or a non-root passes `Some`.
    pub fn broadcast<T: Clone + Send + 'static>(
        &self,
        rank: usize,
        root: usize,
        value: Option<T>,
    ) -> T {
        assert_eq!(
            rank == root,
            value.is_some(),
            "exactly the root supplies the value"
        );
        if let Some(v) = value {
            for dst in 0..self.workers {
                if dst != root {
                    self.count(std::mem::size_of::<T>() as u64);
                }
                *self.slot(root, dst).lock() = Some(Box::new(v.clone()));
            }
        }
        self.barrier();
        let out: T = self.take_deposit(root, rank);
        self.barrier();
        out
    }
}

/// Runs `body(rank, fabric)` on `workers` scoped threads and returns the
/// per-rank results in rank order.
pub fn run_cluster<R: Send>(
    workers: usize,
    fabric: &Fabric,
    body: impl Fn(usize) -> R + Sync,
) -> Vec<R> {
    assert_eq!(fabric.workers(), workers);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|rank| {
                scope.spawn({
                    let body = &body;
                    move || body(rank)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(result) => result,
                // Re-raise a worker panic on the coordinating thread;
                // swallowing it would hand back partial results as real.
                Err(payload) => std::panic::resume_unwind(payload),
            })
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_to_all_routes_payloads() {
        let w = 4;
        let fabric = Fabric::new(w);
        let results = run_cluster(w, &fabric, |rank| {
            // Rank r sends the value 10*r + d to destination d.
            let outgoing: Vec<Vec<u64>> = (0..w).map(|d| vec![(10 * rank + d) as u64]).collect();
            fabric.all_to_all(rank, outgoing)
        });
        for (rank, received) in results.iter().enumerate() {
            for (src, payload) in received.iter().enumerate() {
                assert_eq!(payload, &vec![(10 * src + rank) as u64]);
            }
        }
    }

    #[test]
    fn all_to_all_counts_offrank_bytes_only() {
        let w = 3;
        let fabric = Fabric::new(w);
        run_cluster(w, &fabric, |rank| {
            let outgoing: Vec<Vec<u64>> = (0..w).map(|_| vec![0u64; 10]).collect();
            fabric.all_to_all(rank, outgoing)
        });
        // Each rank sends 10 u64 to 2 remote ranks: 3 * 2 * 80 bytes.
        assert_eq!(fabric.stats().bytes, 3 * 2 * 80);
    }

    #[test]
    fn all_reduce_sums_across_ranks() {
        let w = 5;
        let fabric = Fabric::new(w);
        let results = run_cluster(w, &fabric, |rank| {
            fabric.all_reduce_sum(rank, vec![rank as u64, 1u64])
        });
        for r in &results {
            assert_eq!(r, &vec![1 + 2 + 3 + 4, 5]);
        }
    }

    #[test]
    fn all_reduce_f64_is_deterministic() {
        let w = 4;
        let run = || {
            let fabric = Fabric::new(w);
            run_cluster(w, &fabric, |rank| {
                fabric.all_reduce_sum(rank, vec![0.1 * (rank as f64 + 1.0); 8])
            })
        };
        let a = run();
        let b = run();
        for (x, y) in a.iter().flatten().zip(b.iter().flatten()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn broadcast_delivers_to_all() {
        let w = 4;
        let fabric = Fabric::new(w);
        let results = run_cluster(w, &fabric, |rank| {
            let value = if rank == 2 {
                Some(vec![7u8, 8, 9])
            } else {
                None
            };
            fabric.broadcast(rank, 2, value)
        });
        assert!(results.iter().all(|r| r == &vec![7, 8, 9]));
    }

    #[test]
    fn collectives_compose_in_sequence() {
        let w = 3;
        let fabric = Fabric::new(w);
        let results = run_cluster(w, &fabric, |rank| {
            let sums = fabric.all_reduce_sum(rank, vec![rank as u64]);
            let shuffled =
                fabric.all_to_all(rank, (0..w).map(|d| vec![sums[0] + d as u64]).collect());

            fabric.broadcast(rank, 0, (rank == 0).then_some(shuffled.len()))
        });
        assert!(results.iter().all(|&r| r == w));
    }

    #[test]
    fn single_worker_cluster_is_free() {
        let fabric = Fabric::new(1);
        let results = run_cluster(1, &fabric, |rank| {
            let r = fabric.all_reduce_sum(rank, vec![42.0]);
            let a = fabric.all_to_all(rank, vec![vec![1u8]]);
            (r[0], a[0][0])
        });
        assert_eq!(results[0], (42.0, 1));
        assert_eq!(
            fabric.stats().bytes,
            0,
            "no off-rank traffic with one worker"
        );
    }
}
