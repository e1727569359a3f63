//! The shared ordered work-stealing pool.
//!
//! Every bulk executor in this crate — the sweep engine's grid cells
//! and fleet users, and the record-corpus subsystem (batch recording
//! and parallel corpus verification) — schedules work the same way: a
//! next-index counter hands items to workers as they free up, and each
//! result lands in its preassigned slot, so the output order always
//! matches a sequential run regardless of completion order. That order
//! stability is what the workspace's byte-identity guarantees (sweep
//! results, fleet reports, corpus verify summaries) are built on.

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Resolves a requested worker count: `0` means one worker per
/// available core, and the result never exceeds the item count. Only
/// `0` asks the host for its core count (on Linux that reads cgroup
/// files), so an explicit width costs nothing.
pub(crate) fn resolve_workers(requested: usize, items: usize) -> usize {
    let workers = if requested == 0 {
        std::thread::available_parallelism().map_or(4, NonZeroUsize::get)
    } else {
        requested
    };
    workers.min(items).max(1)
}

/// Runs `f` over every item through a work-stealing worker pool and
/// returns the results in item order (identical to a sequential map).
/// `requested == 0` sizes the pool to the available cores; a resolved
/// width of one runs on the caller's thread with no pool at all.
///
/// # Panics
///
/// A panic in `f` reaches the caller with its original payload, after
/// every worker has stopped.
pub(crate) fn run_ordered<T, R, F>(items: &[T], requested: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let workers = resolve_workers(requested, items.len());
    if workers <= 1 {
        return items.iter().map(&f).collect();
    }
    // Relaxed is enough: the cursor publishes nothing but distinct
    // indices, and results travel back through `join`, which
    // synchronizes.
    let next = AtomicUsize::new(0);
    let worker = || {
        let mut tagged = Vec::new();
        loop {
            let idx = next.fetch_add(1, Ordering::Relaxed);
            let Some(item) = items.get(idx) else {
                return tagged;
            };
            tagged.push((idx, f(item)));
        }
    };
    let mut slots: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers).map(|_| scope.spawn(worker)).collect();
        for handle in handles {
            // Re-raise a worker's panic with its own payload; the scope
            // joins the remaining workers before it propagates.
            let tagged = handle
                .join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
            for (idx, result) in tagged {
                if let Some(slot) = slots.get_mut(idx) {
                    *slot = Some(result);
                }
            }
        }
    });
    slots
        .into_iter()
        // ecas-lint: allow(panic-safety, reason = "the cursor hands out every index below the item count exactly once; an empty slot is a scheduler bug worth crashing on")
        .map(|r| r.expect("every pool job filled its slot"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_keep_item_order_across_widths() {
        let items: Vec<u64> = (0..97).collect();
        let expected: Vec<u64> = items.iter().map(|v| v * 3 + 1).collect();
        for requested in [0, 1, 2, 5, 128] {
            let got = run_ordered(&items, requested, |v| v * 3 + 1);
            assert_eq!(got, expected, "requested={requested}");
        }
        assert!(run_ordered(&[] as &[u64], 4, |v| *v).is_empty());
    }

    #[test]
    fn worker_resolution_is_bounded() {
        assert_eq!(resolve_workers(3, 10), 3);
        assert_eq!(resolve_workers(16, 2), 2);
        assert!(resolve_workers(0, 1000) >= 1);
        assert_eq!(resolve_workers(0, 1), 1);
        assert_eq!(resolve_workers(4, 0), 1);
    }

    #[test]
    #[should_panic(expected = "item 13 is poisoned")]
    fn a_panicking_item_panics_the_caller() {
        let items: Vec<u64> = (0..40).collect();
        let _ = run_ordered(&items, 3, |&v| {
            assert!(v != 13, "item 13 is poisoned");
            v
        });
    }
}
