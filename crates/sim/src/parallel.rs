//! Minimal data-parallel map for embarrassingly parallel sweeps.
//!
//! Built on [`std::thread::scope`] with an atomic work index (a dependency
//! like `rayon` would be overkill for a handful of coarse simulation runs,
//! and the crate tree stays dependency-free). Each worker repeatedly claims
//! the next unclaimed item, so uneven run times (heavier offered loads take
//! longer) still balance across cores.
//!
//! Results are returned **in input order**, regardless of completion
//! order: parallel and sequential execution of a pure `f` produce the same
//! `Vec`, bit for bit.
//!
//! Workers install the caller's telemetry handle ([`qres_obs::install`]),
//! so a sweep with telemetry on records into the caller's one
//! [`qres_obs::Obs`], exactly as a sequential loop on the caller would.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Applies `f` to every item, spreading the work over up to
/// [`std::thread::available_parallelism`] worker threads, and returns the
/// results in input order.
///
/// `f` must be pure with respect to ordering: it receives only its item, so
/// any claim order yields the same per-item result. A panic in `f` is
/// re-raised on the caller with its original payload after all workers
/// stop.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let n = items.len();
    let workers = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
        .min(n);
    if workers <= 1 {
        return items.iter().map(f).collect();
    }

    let next = AtomicUsize::new(0);
    let obs = qres_obs::current();
    let mut indexed: Vec<(usize, R)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    qres_obs::install(obs.clone());
                    let mut done = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        done.push((i, f(&items[i])));
                    }
                    done
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| match h.join() {
                Ok(done) => done,
                // Re-raise with the original payload so a panic in `f`
                // reads the same whether or not workers were spawned.
                Err(payload) => std::panic::resume_unwind(payload),
            })
            .collect()
    });
    indexed.sort_unstable_by_key(|&(i, _)| i);
    debug_assert_eq!(indexed.len(), n);
    indexed.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let items: Vec<u64> = (0..100).collect();
        let out = par_map(&items, |&x| x * x);
        assert_eq!(out, items.iter().map(|&x| x * x).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_singleton() {
        let none: Vec<u32> = Vec::new();
        assert!(par_map(&none, |&x| x).is_empty());
        assert_eq!(par_map(&[7u32], |&x| x + 1), vec![8]);
    }

    #[test]
    fn matches_sequential_map_exactly() {
        // Float work: same ops per item in both paths → identical bits.
        let items: Vec<f64> = (0..37).map(|i| i as f64 * 0.31).collect();
        let f = |&x: &f64| (x.sin() * 1e6).mul_add(x, x.sqrt());
        let par = par_map(&items, f);
        let seq: Vec<f64> = items.iter().map(f).collect();
        assert_eq!(par, seq);
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn worker_panic_propagates() {
        let items: Vec<u32> = (0..16).collect();
        par_map(&items, |&x| {
            if x == 11 {
                panic!("boom");
            }
            x
        });
    }
}
