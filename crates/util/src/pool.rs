//! An ordered worker pool: runs independent jobs on scoped threads and
//! merges their results into index-keyed slots.
//!
//! Every harness that fans work over threads — the campaign grid, the
//! fault-space exploration, the tenant mix — has the same shape: a fixed
//! set of jobs, each a pure function of its index, whose merged result
//! must not depend on worker count or completion order. [`Pool`] is that
//! shape, once:
//!
//! - jobs are claimed in the caller's dispatch order from an atomic
//!   cursor, so a shuffled order changes only *when* a job runs;
//! - each result lands in the slot of its own index, never by arrival
//!   position, so the merged slots are identical for any worker count;
//! - a caller callback sees every result in arrival order (progress
//!   streams, periodic snapshots) and can stop dispatch by returning
//!   `Err`;
//! - `limit` truncates the dispatch order before any job starts, so a
//!   limit-stopped run executes exactly `limit` jobs for any worker count.
//!
//! The slot vector is private. A result slot is written by exactly one
//! job, once, through [`Pool::prefill`] or [`Pool::run`]; outside code can
//! only read it:
//!
//! ```compile_fail
//! let mut pool = uvm_util::pool::Pool::<u32>::new(2);
//! pool.slots[0] = Some(7);
//! ```

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::thread;

/// Result slots for a fixed set of jobs, filled by [`Pool::prefill`] and
/// [`Pool::run`] and read through `&` accessors.
#[derive(Debug)]
pub struct Pool<R> {
    slots: Vec<Option<R>>,
}

impl<R> Pool<R> {
    /// A pool of `len` empty slots, one per job index.
    pub fn new(len: usize) -> Self {
        Pool {
            slots: std::iter::repeat_with(|| None).take(len).collect(),
        }
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the pool has no slots at all.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The result in slot `index`, if it has one.
    pub fn get(&self, index: usize) -> Option<&R> {
        self.slots.get(index).and_then(Option::as_ref)
    }

    /// Whether slot `index` holds a result.
    pub fn is_done(&self, index: usize) -> bool {
        self.get(index).is_some()
    }

    /// Every result so far, in slot order (pending slots skipped).
    pub fn completed(&self) -> impl Iterator<Item = &R> {
        self.slots.iter().flatten()
    }

    /// Consumes the pool into its results, in slot order (pending slots
    /// skipped).
    pub fn into_completed(self) -> Vec<R> {
        self.slots.into_iter().flatten().collect()
    }

    /// Installs a result carried over from an earlier run (a resume
    /// snapshot); [`Pool::run`] never re-runs or overwrites it. A slot
    /// that already holds a result, or an out-of-range `index`, is left
    /// as it is.
    pub fn prefill(&mut self, index: usize, result: R) {
        if let Some(slot @ None) = self.slots.get_mut(index) {
            *slot = Some(result);
        }
    }
}

impl<R: Send> Pool<R> {
    /// Runs `job(i)` for every index `i` of `order` (distinct slot
    /// indices) whose slot is still empty, on `workers` threads (0 and 1
    /// both mean one), and returns how many jobs ran.
    ///
    /// Jobs are claimed in `order`, and `limit` keeps only the first
    /// `limit` of them. Each result is stored in its own slot, then
    /// `on_result` is called with the index and the pool, in arrival
    /// order, on the calling thread.
    ///
    /// # Errors
    ///
    /// The first `Err` from `on_result` stops dispatch: jobs already
    /// running finish and are stored, no new job starts, and that error
    /// is returned.
    pub fn run<E>(
        &mut self,
        order: &[usize],
        workers: usize,
        limit: Option<usize>,
        job: impl Fn(usize) -> R + Sync,
        mut on_result: impl FnMut(usize, &Self) -> Result<(), E>,
    ) -> Result<usize, E> {
        let pending: Vec<usize> = order
            .iter()
            .copied()
            .filter(|&i| !self.is_done(i))
            .take(limit.unwrap_or(usize::MAX))
            .collect();
        if pending.is_empty() {
            return Ok(0);
        }

        let workers = workers.clamp(1, pending.len());
        let cursor = AtomicUsize::new(0);
        let stop = AtomicBool::new(false);
        let mut executed = 0usize;
        let mut error: Option<E> = None;
        thread::scope(|s| {
            let (tx, rx) = mpsc::channel::<(usize, R)>();
            for _ in 0..workers {
                let tx = tx.clone();
                let (cursor, stop, pending, job) = (&cursor, &stop, &pending, &job);
                s.spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        let Some(&i) = pending.get(cursor.fetch_add(1, Ordering::Relaxed)) else {
                            break;
                        };
                        if tx.send((i, job(i))).is_err() {
                            break;
                        }
                    }
                });
            }
            drop(tx);

            for (i, result) in rx.iter() {
                self.slots[i] = Some(result);
                executed += 1;
                if error.is_none() {
                    if let Err(e) = on_result(i, self) {
                        error = Some(e);
                        stop.store(true, Ordering::Relaxed);
                    }
                }
            }
        });
        match error {
            Some(e) => Err(e),
            None => Ok(executed),
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::RwLock;

    use super::*;
    use crate::Rng;

    /// A job whose cost varies with its index, so completion order
    /// differs from dispatch order on more than one worker.
    fn job(i: usize) -> u64 {
        let mut x = i as u64 + 1;
        for _ in 0..(i % 7) * 2_000 {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
        }
        x
    }

    fn run_all(order: &[usize], workers: usize) -> (Vec<u64>, Vec<usize>) {
        let mut pool = Pool::new(order.len());
        let mut arrivals = Vec::new();
        let executed = pool
            .run::<()>(order, workers, None, job, |i, p| {
                assert_eq!(p.get(i), Some(&job(i)), "callback sees the stored result");
                arrivals.push(i);
                Ok(())
            })
            .unwrap();
        assert_eq!(executed, order.len());
        (pool.into_completed(), arrivals)
    }

    #[test]
    fn merge_is_identical_for_any_worker_count_and_order() {
        let grid: Vec<usize> = (0..40).collect();
        let mut shuffled = grid.clone();
        Rng::seed_from_u64(11).shuffle(&mut shuffled);
        let (reference, _) = run_all(&grid, 1);
        assert_eq!(reference, grid.iter().map(|&i| job(i)).collect::<Vec<_>>());
        for order in [&grid, &shuffled] {
            for workers in [1, 2, 8] {
                let (merged, mut arrivals) = run_all(order, workers);
                assert_eq!(merged, reference, "workers {workers}");
                arrivals.sort_unstable();
                assert_eq!(arrivals, grid, "every job reported once");
            }
        }
    }

    #[test]
    fn limit_caps_executed_jobs_exactly() {
        for workers in [1, 2, 8] {
            let mut pool = Pool::new(10);
            let order: Vec<usize> = (0..10).rev().collect();
            let mut calls = 0;
            let executed = pool
                .run::<()>(&order, workers, Some(4), job, |_, _| {
                    calls += 1;
                    Ok(())
                })
                .unwrap();
            assert_eq!((executed, calls), (4, 4), "workers {workers}");
            // The cap keeps the head of the dispatch order.
            let done: Vec<usize> = (0..10).filter(|&i| pool.is_done(i)).collect();
            assert_eq!(done, vec![6, 7, 8, 9]);
        }
    }

    #[test]
    fn callback_error_stops_dispatch_and_is_returned() {
        for workers in [1, 2, 8] {
            // Jobs from index 3 on wait at a gate the callback opens only
            // when it fails, so the error lands while they are in flight
            // and the first three results are jobs 0..3. Past the gate a
            // job takes 1 ms, so the 197 gated jobs cannot all finish in
            // the moment between the callback returning and the pool
            // raising its stop flag.
            let gate = RwLock::new(());
            let mut closed = Some(gate.write().unwrap());
            let gated = |i: usize| {
                if i >= 3 {
                    drop(gate.read().unwrap());
                    thread::sleep(std::time::Duration::from_millis(1));
                }
                i
            };
            let mut pool = Pool::new(200);
            let order: Vec<usize> = (0..200).collect();
            let mut calls = 0;
            let err = pool
                .run(&order, workers, None, gated, |i, _| {
                    calls += 1;
                    if calls == 3 {
                        drop(closed.take());
                        Err(format!("stop at {i}"))
                    } else {
                        Ok(())
                    }
                })
                .unwrap_err();
            assert!(err.starts_with("stop at"), "{err}");
            assert_eq!(calls, 3, "no callback after the error");
            // In-flight jobs may finish, but dispatch stopped early.
            let done = pool.completed().count();
            assert!((3..order.len()).contains(&done), "{done} ran");
        }
    }

    #[test]
    fn empty_job_list_runs_nothing() {
        let mut pool: Pool<u64> = Pool::new(0);
        assert!(pool.is_empty());
        let executed = pool
            .run::<()>(&[], 8, None, job, |_, _| panic!("no results"))
            .unwrap();
        assert_eq!(executed, 0);
        assert!(pool.into_completed().is_empty());
        // A non-empty pool with an empty (or fully capped) order too.
        let mut pool: Pool<u64> = Pool::new(3);
        assert_eq!(pool.run::<()>(&[], 2, None, job, |_, _| Ok(())), Ok(0));
        assert_eq!(
            pool.run::<()>(&[0, 1], 2, Some(0), job, |_, _| Ok(())),
            Ok(0)
        );
        assert_eq!(pool.completed().count(), 0);
    }

    #[test]
    fn prefill_is_neither_rerun_nor_overwritten() {
        let mut pool = Pool::new(5);
        pool.prefill(1, 1_000);
        pool.prefill(3, 3_000);
        pool.prefill(3, 0); // a filled slot is written once
        let mut ran = Vec::new();
        let executed = pool
            .run::<()>(&[0, 1, 2, 3, 4], 2, None, job, |i, _| {
                ran.push(i);
                Ok(())
            })
            .unwrap();
        assert_eq!(executed, 3);
        ran.sort_unstable();
        assert_eq!(ran, vec![0, 2, 4]);
        assert_eq!(
            pool.into_completed(),
            vec![job(0), 1_000, job(2), 3_000, job(4)]
        );
    }
}
