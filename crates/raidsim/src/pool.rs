//! The one worker pool: independent units, merged in index order.
//!
//! Every parallel run in this crate is a list of simulations that share no
//! mutable state — the points of a parameter sweep, the virtual arrays of a
//! fleet. [`map`] runs such a list on a few scoped worker threads. Each
//! worker claims the lowest unclaimed index from one atomic cursor, so
//! slow units spread across whoever is free instead of idling the others
//! behind a static chunk. Results come back in input order whatever order
//! they finished in, and each unit is a seed-determined simulation, so the
//! output is bit-identical at every thread count.
//!
//! This is the only module in `raidsim` that touches threads or
//! synchronization; simlint's `par-safety` rule holds everything else to
//! plain owned data.

use std::sync::atomic::{AtomicUsize, Ordering};

/// The worker count a `threads` request means: `0` is the machine's
/// available parallelism, anything else is taken as given.
fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism().map_or(4, |n| n.get())
    } else {
        threads
    }
}

/// Compute `f(0), …, f(n - 1)` on up to `threads` workers (`0` = available
/// parallelism) and return the results in index order.
///
/// One worker (or one unit) runs inline on the caller's thread. A panic in
/// `f` is resumed on the caller once every worker has stopped; callers
/// that must survive a failing unit catch it inside `f`.
pub(crate) fn map<T, F>(n: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = resolve_threads(threads).min(n);
    if workers <= 1 {
        return (0..n).map(f).collect();
    }
    let cursor = AtomicUsize::new(0);
    let mut done: Vec<(usize, T)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        // Relaxed: the cursor publishes no data; results
                        // reach the caller through `join`.
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break local;
                        }
                        local.push((i, f(i)));
                    }
                })
            })
            .collect();
        let mut done = Vec::with_capacity(n);
        for h in handles {
            match h.join() {
                Ok(local) => done.extend(local),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        done
    });
    // The cursor hands out every index exactly once, so sorting by index
    // restores input order.
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::Mutex;

    /// Unit 0 cannot finish until unit 1 has, so completion order is the
    /// reverse of input order; the results must still come back by index.
    #[test]
    fn results_come_back_in_input_order_when_later_items_finish_first() {
        let one_done = AtomicBool::new(false);
        let finished = Mutex::new(Vec::new());
        let out = map(2, 2, |i| {
            if i == 0 {
                while !one_done.load(Ordering::Acquire) {
                    std::thread::yield_now();
                }
            }
            finished.lock().unwrap().push(i);
            if i == 1 {
                one_done.store(true, Ordering::Release);
            }
            i * 10
        });
        assert_eq!(*finished.lock().unwrap(), vec![1, 0]);
        assert_eq!(out, vec![0, 10]);
    }

    #[test]
    fn every_thread_count_returns_the_same_ordered_results() {
        let serial: Vec<u64> = (0..37u64).map(|i| i * i).collect();
        for threads in [0, 1, 2, 3, 8, 64] {
            assert_eq!(map(37, threads, |i| (i * i) as u64), serial);
        }
        assert!(map(0, 4, |i| i).is_empty());
    }

    /// A panicking unit re-raises on the caller with its own payload.
    /// `resume_unwind` skips the panic hook, so the test stays quiet.
    #[test]
    fn a_panicking_item_re_raises_on_the_caller() {
        for threads in [1, 3] {
            let caught = std::panic::catch_unwind(|| {
                map(6, threads, |i| {
                    if i == 4 {
                        std::panic::resume_unwind(Box::new("unit 4 failed"));
                    }
                    i
                })
            });
            let payload = caught.expect_err("the unit's panic must reach the caller");
            assert_eq!(payload.downcast_ref::<&str>(), Some(&"unit 4 failed"));
        }
    }
}
