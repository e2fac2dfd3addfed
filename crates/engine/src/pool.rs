//! The shared worker-pool primitive: spawn N scoped workers that claim
//! items off a shared counter (work stealing — whichever worker goes
//! idle first takes the next item) and write results into per-item
//! slots, so the output order is the input order no matter how the
//! threads are scheduled.
//!
//! The campaign runner (cell execution) and the optimization server's
//! worker pool (job loops) both run on it. Candidate evaluation does
//! not: an [`EvaluationSession`](crate::EvaluationSession) feeds its own
//! workers one submission at a time.
//!
//! Guarantees:
//!
//! * **Deterministic ordering.** `try_map_indexed(n, count, f)[i]` is
//!   `f(i)` — slot `i` holds item `i`'s result whichever worker ran it.
//! * **Seeded first claims.** Worker `w` processes item `w` first (when
//!   it exists), then steals; with `threads <= 1` items run serially on
//!   the calling thread in index order, and every spawned worker is
//!   guaranteed to execute at least one item when `count >= threads`.
//! * **First-error-wins.** The first `Err` any worker hits is returned;
//!   the remaining workers stop claiming new items (in-flight items
//!   finish).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Runs `work(0..count)` across at most `threads` scoped workers,
/// returning results in index order.
///
/// `threads` is clamped to `[1, count]`; `0` and `1` both mean serial
/// execution on the calling thread.
///
/// # Errors
///
/// Returns the first error any worker produced; remaining workers stop
/// claiming new items.
pub fn try_map_indexed<T, E, F>(threads: usize, count: usize, work: F) -> Result<Vec<T>, E>
where
    T: Send,
    E: Send,
    F: Fn(usize) -> Result<T, E> + Sync,
{
    let workers = threads.clamp(1, count.max(1));
    if workers <= 1 {
        return (0..count).map(work).collect();
    }

    let slots: Vec<Mutex<Option<T>>> = (0..count).map(|_| Mutex::new(None)).collect();
    // Items 0..workers are pre-assigned one per worker; the shared
    // counter hands out the rest.
    let next = AtomicUsize::new(workers);
    let failure: Mutex<Option<E>> = Mutex::new(None);

    std::thread::scope(|scope| {
        for w in 0..workers {
            let slots = &slots;
            let next = &next;
            let failure = &failure;
            let work = &work;
            scope.spawn(move || {
                let mut seeded = Some(w);
                loop {
                    if failure
                        .lock()
                        .expect("pool failure slot poisoned")
                        .is_some()
                    {
                        break;
                    }
                    let i = match seeded.take() {
                        Some(i) => i,
                        None => next.fetch_add(1, Ordering::SeqCst),
                    };
                    if i >= count {
                        break;
                    }
                    match work(i) {
                        Ok(value) => {
                            *slots[i].lock().expect("pool result slot poisoned") = Some(value);
                        }
                        Err(e) => {
                            let mut slot = failure.lock().expect("pool failure slot poisoned");
                            if slot.is_none() {
                                *slot = Some(e);
                            }
                            break;
                        }
                    }
                }
            });
        }
    });

    if let Some(e) = failure.into_inner().expect("pool failure slot poisoned") {
        return Err(e);
    }
    Ok(slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("pool result slot poisoned")
                .expect("every slot filled when no worker failed")
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::convert::Infallible;
    use std::sync::atomic::AtomicU64;

    /// [`try_map_indexed`] over work that cannot fail.
    fn map_indexed<T: Send>(
        threads: usize,
        count: usize,
        work: impl Fn(usize) -> T + Sync,
    ) -> Vec<T> {
        match try_map_indexed(threads, count, |i| Ok::<T, Infallible>(work(i))) {
            Ok(out) => out,
            Err(e) => match e {},
        }
    }

    #[test]
    fn results_are_in_index_order() {
        for threads in [0, 1, 2, 3, 8, 200] {
            let out = map_indexed(threads, 101, |i| 2 * i);
            assert_eq!(out, (0..101).map(|i| 2 * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn empty_and_single_item() {
        assert!(map_indexed(4, 0, |i| i).is_empty());
        assert_eq!(map_indexed(4, 1, |i| i + 7), vec![7]);
    }

    #[test]
    fn every_worker_processes_its_seeded_item() {
        use std::collections::HashSet;
        let ids = Mutex::new(HashSet::new());
        map_indexed(4, 64, |i| {
            ids.lock().unwrap().insert(std::thread::current().id());
            i
        });
        assert!(ids.into_inner().unwrap().len() > 1);
    }

    #[test]
    fn first_error_wins_and_stops_claiming() {
        let calls = AtomicU64::new(0);
        let result: Result<Vec<usize>, String> = try_map_indexed(2, 1000, |i| {
            calls.fetch_add(1, Ordering::SeqCst);
            if i == 3 {
                Err(format!("boom at {i}"))
            } else {
                Ok(i)
            }
        });
        assert_eq!(result.unwrap_err(), "boom at 3");
        // Workers stop claiming after the failure: far fewer than 1000
        // calls happen (each in-flight worker finishes at most its
        // current item).
        assert!(calls.load(Ordering::SeqCst) < 1000);
    }

    #[test]
    fn serial_error_is_immediate() {
        let calls = AtomicU64::new(0);
        let result: Result<Vec<usize>, &str> = try_map_indexed(1, 10, |i| {
            calls.fetch_add(1, Ordering::SeqCst);
            if i == 2 {
                Err("stop")
            } else {
                Ok(i)
            }
        });
        assert_eq!(result.unwrap_err(), "stop");
        assert_eq!(calls.load(Ordering::SeqCst), 3);
    }
}
