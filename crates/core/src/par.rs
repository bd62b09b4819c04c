//! Deterministic fan-out of per-link work across OS threads.
//!
//! The analysis stages downstream of the [`crate::linktable::LinkTable`]
//! are embarrassingly parallel in the link dimension: transition merging,
//! failure reconstruction, failure matching, flap detection, and
//! false-positive classification all treat links independently. This
//! module provides the shared work-distribution primitive. `rayon` is the
//! usual tool for this shape; the workspace stays dependency-light, and a
//! chunked scoped-thread pool suffices because the unit of work (one
//! link's whole history) is large relative to scheduling overhead.
//!
//! **Determinism contract:** [`par_map`] returns results in input order
//! regardless of thread count or scheduling. Every caller groups work by
//! ascending [`crate::linktable::LinkIx`] and merges in that order, so an
//! [`crate::analysis::Analysis`] run with `threads = 1` and `threads = N`
//! produces byte-identical tables. `tests/determinism.rs` asserts this
//! end to end.

use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

fn default_chunk_size() -> usize {
    16
}

/// How per-link analysis work fans out across threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ParallelismConfig {
    /// Worker threads: `0` = one per available core, `1` = strictly
    /// serial (no threads spawned), `N` = exactly `N` workers.
    #[serde(default)]
    pub threads: usize,
    /// Work items (link groups) a worker claims at a time. Larger chunks
    /// amortize queue contention; smaller chunks balance skewed links —
    /// one flapping link can carry most of a scenario's events.
    #[serde(default = "default_chunk_size")]
    pub chunk_size: usize,
}

impl Default for ParallelismConfig {
    fn default() -> Self {
        ParallelismConfig {
            threads: 0,
            chunk_size: default_chunk_size(),
        }
    }
}

impl ParallelismConfig {
    /// Strictly serial execution — the required fallback when
    /// `threads == 1`.
    pub const SERIAL: ParallelismConfig = ParallelismConfig {
        threads: 1,
        chunk_size: 16,
    };

    /// A config with an explicit worker count and the default chunk size.
    pub fn with_threads(threads: usize) -> Self {
        ParallelismConfig {
            threads,
            ..ParallelismConfig::default()
        }
    }

    /// The worker count this config resolves to on this machine.
    pub fn effective_threads(&self) -> usize {
        match self.threads {
            0 => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            n => n,
        }
    }
}

/// Map `f` over `items`, fanning chunks across up to
/// `par.effective_threads()` scoped threads.
///
/// Results come back in input order. With one worker's worth of work —
/// one effective thread, or no more items than one chunk — no thread is
/// spawned and the exact serial loop runs on the calling thread instead,
/// so `ParallelismConfig::SERIAL` is a true serial fallback, not a
/// one-worker pool.
pub fn par_map<T, R, F>(items: &[T], par: &ParallelismConfig, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let n = items.len();
    let chunk = par.chunk_size.max(1);
    let workers = par.effective_threads().min(n.div_ceil(chunk));
    if workers <= 1 {
        return items.iter().map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let gathered: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(n));
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                let mut local: Vec<(usize, R)> = Vec::new();
                loop {
                    let start = next.fetch_add(chunk, Ordering::Relaxed);
                    if start >= n {
                        break;
                    }
                    let end = (start + chunk).min(n);
                    for (off, item) in items[start..end].iter().enumerate() {
                        local.push((start + off, f(item)));
                    }
                }
                if !local.is_empty() {
                    gathered
                        .lock()
                        .expect("a worker panicked while holding the gather lock")
                        .append(&mut local);
                }
            });
        }
    });
    let mut got = gathered
        .into_inner()
        .expect("a worker panicked while holding the gather lock");
    debug_assert_eq!(got.len(), n);
    got.sort_unstable_by_key(|&(i, _)| i);
    got.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn squares(n: usize, par: &ParallelismConfig) -> Vec<usize> {
        let items: Vec<usize> = (0..n).collect();
        par_map(&items, par, |&x| x * x)
    }

    #[test]
    fn parallel_matches_serial_in_order() {
        let serial = squares(1000, &ParallelismConfig::SERIAL);
        for threads in [2, 3, 8] {
            for chunk_size in [1, 7, 64, 4096] {
                let cfg = ParallelismConfig {
                    threads,
                    chunk_size,
                };
                assert_eq!(
                    squares(1000, &cfg),
                    serial,
                    "threads={threads} chunk={chunk_size}"
                );
            }
        }
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let cfg = ParallelismConfig::with_threads(4);
        assert_eq!(par_map(&[] as &[u32], &cfg, |&x| x), Vec::<u32>::new());
        assert_eq!(par_map(&[5u32], &cfg, |&x| x + 1), vec![6]);
    }

    #[test]
    fn one_chunk_of_work_runs_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let cfg = ParallelismConfig {
            threads: 4,
            chunk_size: 16,
        };
        for n in [2, 15, 16] {
            let items: Vec<usize> = (0..n).collect();
            let ran_on = par_map(&items, &cfg, |_| std::thread::current().id());
            assert!(ran_on.iter().all(|&id| id == caller), "n={n}");
        }
        // One item past a chunk is two workers' worth: it fans out.
        let items: Vec<usize> = (0..17).collect();
        let ran_on = par_map(&items, &cfg, |_| std::thread::current().id());
        assert!(ran_on.iter().all(|&id| id != caller));
    }

    #[test]
    fn effective_threads_resolves() {
        assert!(ParallelismConfig::default().effective_threads() >= 1);
        assert_eq!(ParallelismConfig::SERIAL.effective_threads(), 1);
        assert_eq!(ParallelismConfig::with_threads(5).effective_threads(), 5);
    }

    #[test]
    fn zero_chunk_size_is_clamped() {
        let cfg = ParallelismConfig {
            threads: 2,
            chunk_size: 0,
        };
        assert_eq!(squares(10, &cfg), squares(10, &ParallelismConfig::SERIAL));
    }

    #[test]
    fn serde_defaults_fill_missing_fields() {
        let cfg: ParallelismConfig = serde_json::from_str("{}").unwrap();
        assert_eq!(cfg, ParallelismConfig::default());
        let cfg: ParallelismConfig = serde_json::from_str(r#"{"threads":3}"#).unwrap();
        assert_eq!(cfg.threads, 3);
        assert_eq!(cfg.chunk_size, 16);
    }
}
