//! The crate's one worker pool: a batch cursor over a borrowed slice.
//!
//! Every engine here — [`crate::crawl`], [`crate::auth_matrix`] and the
//! churn engine's row evaluation — fans a rank-ordered domain list out
//! to scoped worker threads through [`run`]. There is no feeder thread
//! and no work channel: a worker claims its next batch with one
//! `fetch_add` on a shared cursor and reads the batch straight out of
//! the caller's slice, so no item is cloned to be dispatched. Every
//! engine claims [`crate::DEFAULT_BATCH_SIZE`] items at a time; the
//! batch size stays a parameter here only so the pool's own tests can
//! sweep it.
//!
//! A worker folds what it may keep private (coverage deltas, matrix
//! tallies, compiler counters) into its own accumulator, which comes
//! back through its join handle. What the caller must place by rank
//! (crawl reports, matrix rows) travels as one message per batch over
//! an unbounded `std::sync::mpsc` channel that the calling thread
//! drains while the workers run, so results stream into the caller's
//! slot table instead of piling up per worker.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

/// Scheduling counters of one [`run`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct Dispatch {
    /// Highest claimed-but-unfinished item count observed; at most
    /// `workers × batch_size`, since a worker holds one batch at a time.
    pub peak_queue_depth: usize,
    /// Successful claims: `ceil(items / batch_size)`.
    pub batches: u64,
}

/// Run `work` over `items` on up to `workers` scoped threads, in
/// batches of `batch_size` (both clamped to at least 1).
///
/// Each worker starts from `init()` and calls `work(&mut acc, batch)`
/// once per batch it claims; the batch's result is handed to
/// `on_result(first, result)` on the calling thread, where `first` is
/// the batch's index in `items`. Returns every worker's accumulator (in
/// no particular order) and the run's [`Dispatch`] counters. A panic in
/// a worker resumes on the calling thread.
pub(crate) fn run<T, A, R>(
    items: &[T],
    workers: usize,
    batch_size: usize,
    init: impl Fn() -> A + Sync,
    work: impl Fn(&mut A, &[T]) -> R + Sync,
    mut on_result: impl FnMut(usize, R),
) -> (Vec<A>, Dispatch)
where
    T: Sync,
    A: Send,
    R: Send,
{
    // A batch never needs to exceed the input, and the clamp keeps the
    // cursor's overshoot (one failed claim per worker) far from wrapping.
    let batch_size = batch_size.clamp(1, items.len().max(1));
    let workers = workers.max(1).min(items.len().div_ceil(batch_size));
    // `Relaxed` throughout: the cursor only hands out disjoint ranges of
    // a slice nobody writes, results travel over the channel, and the
    // other three are statistics.
    let cursor = AtomicUsize::new(0);
    let in_flight = AtomicUsize::new(0);
    let peak = AtomicUsize::new(0);
    let batches = AtomicUsize::new(0);

    let accumulators = std::thread::scope(|scope| {
        let (result_tx, result_rx) = mpsc::channel::<(usize, R)>();
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let result_tx = result_tx.clone();
                let (init, work) = (&init, &work);
                let (cursor, in_flight, peak, batches) = (&cursor, &in_flight, &peak, &batches);
                scope.spawn(move || {
                    let mut acc = init();
                    loop {
                        let first = cursor.fetch_add(batch_size, Ordering::Relaxed);
                        if first >= items.len() {
                            break;
                        }
                        let batch = &items[first..items.len().min(first + batch_size)];
                        let depth =
                            in_flight.fetch_add(batch.len(), Ordering::Relaxed) + batch.len();
                        peak.fetch_max(depth, Ordering::Relaxed);
                        batches.fetch_add(1, Ordering::Relaxed);
                        let result = work(&mut acc, batch);
                        in_flight.fetch_sub(batch.len(), Ordering::Relaxed);
                        if result_tx.send((first, result)).is_err() {
                            break;
                        }
                    }
                    acc
                })
            })
            .collect();
        drop(result_tx);
        // The channel closes once every worker has exited.
        for (first, result) in result_rx.iter() {
            on_result(first, result);
        }
        handles
            .into_iter()
            .map(|handle| {
                handle
                    .join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            })
            .collect()
    });
    let dispatch = Dispatch {
        peak_queue_depth: peak.load(Ordering::Relaxed),
        batches: batches.load(Ordering::Relaxed) as u64,
    };
    (accumulators, dispatch)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_item_is_placed_once_by_rank() {
        let items: Vec<usize> = (0..1000).collect();
        for (workers, batch) in [(1, 1), (4, 7), (32, 64), (3, 5000)] {
            let mut seen = vec![None; items.len()];
            let (sums, dispatch) = run(
                &items,
                workers,
                batch,
                || 0usize,
                |sum, batch| {
                    *sum += batch.iter().sum::<usize>();
                    batch.to_vec()
                },
                |first, values| {
                    for (i, value) in values.into_iter().enumerate() {
                        assert!(seen[first + i].replace(value).is_none());
                    }
                },
            );
            let seen: Vec<usize> = seen.into_iter().map(Option::unwrap).collect();
            assert_eq!(seen, items);
            assert_eq!(sums.iter().sum::<usize>(), items.iter().sum::<usize>());
            assert_eq!(dispatch.batches, 1000u64.div_ceil(batch.min(1000) as u64));
            assert!(dispatch.peak_queue_depth <= workers * batch);
        }
    }
}
