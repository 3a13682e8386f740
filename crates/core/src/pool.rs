//! The host thread pool every parallel simulation in the workspace runs on:
//! the fleet's closed-loop serve, open-loop trace capture, and the
//! experiment sweeps of `shift-bench`. Its size comes from the host alone
//! ([`host_threads`]), never from a modelled width.
//!
//! Jobs are indices `0..n`; a bounded set of scoped workers claims them from
//! one atomic cursor, so a slow job never holds up the others' queue. The
//! results come back in index order whichever worker computed them, which is
//! what keeps every merged number independent of the host worker count.

use std::sync::atomic::{AtomicUsize, Ordering};

/// The host thread count every parallel simulation uses: one per core the
/// host reports, or 1 when it reports none.
pub fn host_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// Evaluates `f(0)`, …, `f(n - 1)` on up to `workers` scoped host threads
/// and returns the results in index order. With `workers.min(n) <= 1` every
/// job runs on the calling thread, in order, and no thread is spawned.
///
/// # Panics
///
/// A panic in `f` reaches the caller with its original payload, after the
/// other workers have finished the jobs they claimed.
pub fn map<T: Send>(n: usize, workers: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let workers = workers.min(n);
    if workers <= 1 {
        return (0..n).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let claimed: Vec<Vec<(usize, T)>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            return done;
                        }
                        done.push((i, f(i)));
                    }
                })
            })
            .collect();
        // Re-raising a worker's panic here still lets the scope join the
        // rest before the payload unwinds out of it.
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|payload| std::panic::resume_unwind(payload)))
            .collect()
    });
    let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
    for (i, result) in claimed.into_iter().flatten() {
        slots[i] = Some(result);
    }
    slots.into_iter().map(|r| r.expect("every index is claimed exactly once")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn keeps_index_order_and_runs_each_index_once() {
        for n in [0usize, 1, 7] {
            for workers in [0usize, 1, 3, 16] {
                let runs: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
                let out = map(n, workers, |i| {
                    runs[i].fetch_add(1, Ordering::Relaxed);
                    i * i
                });
                assert_eq!(out, (0..n).map(|i| i * i).collect::<Vec<_>>(), "n={n} w={workers}");
                for (i, r) in runs.iter().enumerate() {
                    assert_eq!(r.load(Ordering::Relaxed), 1, "index {i} (n={n} w={workers})");
                }
            }
        }
    }

    #[test]
    fn never_runs_on_more_threads_than_asked() {
        for n in [0usize, 1, 5, 16] {
            for workers in [0usize, 1, 2, 3, 8] {
                let threads = std::sync::Mutex::new(std::collections::HashSet::new());
                map(n, workers, |_| {
                    threads.lock().unwrap().insert(std::thread::current().id());
                });
                let threads = threads.into_inner().unwrap();
                let bound = workers.min(n);
                assert!(threads.len() <= bound.max(1), "n={n} w={workers}: {threads:?}");
                if bound <= 1 && n > 0 {
                    assert!(
                        threads.len() == 1 && threads.contains(&std::thread::current().id()),
                        "n={n} w={workers} left the calling thread"
                    );
                }
            }
        }
    }

    #[test]
    fn a_panic_in_a_job_reaches_the_caller() {
        for workers in [1usize, 3] {
            let caught = std::panic::catch_unwind(|| {
                map(7, workers, |i| {
                    if i == 4 {
                        panic!("job 4 failed");
                    }
                    i
                })
            });
            let payload = caught.expect_err("the job's panic must propagate");
            assert_eq!(payload.downcast_ref::<&str>(), Some(&"job 4 failed"), "w={workers}");
        }
    }
}
