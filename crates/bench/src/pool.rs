//! Scoped worker pool for fanning out independent benchmark cells.
//!
//! Every figure sweep is a grid of *cells* (one scheme × one cluster
//! size × one trace, say) whose computations share no mutable state:
//! each cell rebuilds its scheme from the same deterministic seed. That
//! makes them embarrassingly parallel — and, crucially, makes the
//! output *independent of execution order*. [`parallel_cells`] exploits
//! this: workers claim cell indices from an atomic counter, results
//! flow back over a channel tagged with their index, and the caller
//! receives them re-assembled in index order. Rendering stays serial
//! and in-order, so sweep output is byte-identical at any thread count.
//!
//! The thread count comes from `D2_THREADS` when set (a value of `1`
//! forces the serial path, handy for A/B timing), otherwise from
//! [`std::thread::available_parallelism`].

use std::sync::atomic::{AtomicUsize, Ordering};

use crossbeam::channel;

/// Worker threads to use: `D2_THREADS` if set and ≥ 1, else the
/// machine's available parallelism, else 1.
#[must_use]
pub fn thread_count() -> usize {
    if let Some(n) = std::env::var("D2_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n >= 1)
    {
        return n;
    }
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Computes `f(0), f(1), …, f(n - 1)` on [`thread_count`] scoped worker
/// threads and returns the results **in index order**.
///
/// `f` must be a pure function of its index (up to shared immutable
/// captures): cells are claimed dynamically, so the execution order is
/// nondeterministic even though the returned `Vec` never is.
///
/// # Panics
///
/// Propagates a panic from any cell (the scope joins all workers).
pub fn parallel_cells<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    parallel_cells_with(thread_count(), n, f)
}

/// [`parallel_cells`] with an explicit thread count (exposed so tests
/// and benchmarks can sweep thread counts without touching the
/// process-global `D2_THREADS`).
pub fn parallel_cells_with<T, F>(threads: usize, n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = threads.max(1).min(n);
    if threads <= 1 {
        return (0..n).map(f).collect();
    }

    let next = AtomicUsize::new(0);
    let (tx, rx) = channel::unbounded::<(usize, T)>();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            let tx = tx.clone();
            let next = &next;
            let f = &f;
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                if tx.send((i, f(i))).is_err() {
                    break;
                }
            });
        }
        // The workers hold the only remaining senders; recv disconnects
        // once they all finish and the queue drains.
        drop(tx);
        let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
        while let Ok((i, value)) = rx.recv() {
            slots[i] = Some(value);
        }
        slots
            .into_iter()
            .map(|slot| slot.expect("worker produced every claimed cell"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn results_come_back_in_index_order_at_any_thread_count() {
        let expected: Vec<usize> = (0..37).map(|i| i * i).collect();
        for threads in [1, 2, 3, 8, 64] {
            let got = parallel_cells_with(threads, 37, |i| i * i);
            assert_eq!(got, expected, "threads = {threads}");
        }
    }

    #[test]
    fn zero_cells_yield_an_empty_vec() {
        let got: Vec<u8> = parallel_cells_with(4, 0, |_| unreachable!());
        assert!(got.is_empty());
    }

    #[test]
    fn every_cell_runs_exactly_once() {
        let runs = AtomicUsize::new(0);
        let got = parallel_cells_with(5, 100, |i| {
            runs.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(runs.load(Ordering::Relaxed), 100);
        assert_eq!(got, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn thread_count_is_at_least_one() {
        assert!(thread_count() >= 1);
    }

    #[test]
    fn traced_cells_drain_identically_at_any_thread_count() {
        use d2tree_telemetry::{
            trace, ArgKey, Sampler, Span, SpanCtx, SpanId, SpanName, TraceId, Tracer,
        };

        let run = |threads: usize| {
            let tracer = Tracer::new(Sampler::always(7));
            let cells = parallel_cells_with(threads, 24, |i| {
                // Ids derive from the cell index, not the tracer's
                // shared counters, so the span set is a pure function
                // of the grid regardless of which worker claims what.
                let id = i as u64 + 1;
                let ctx = SpanCtx {
                    trace: TraceId(id),
                    span: SpanId(id),
                };
                tracer
                    .record(Span::root(ctx, SpanName::Op, id * 10, 3).with_arg(ArgKey::Target, id));
                i
            });
            assert_eq!(cells, (0..24).collect::<Vec<_>>());
            assert_eq!(tracer.sink().recorded(), 24, "threads = {threads}");
            assert_eq!(tracer.sink().len(), 24, "threads = {threads}");
            let mut spans = tracer.drain();
            assert_eq!(tracer.sink().dropped(), 0, "threads = {threads}");
            // Push order across workers is scheduling-dependent; the
            // span *set* must not be.
            spans.sort_by_key(|s| (s.trace.0, s.id.0, s.start_us));
            trace::digest(&spans)
        };

        let reference = run(1);
        for threads in [2, 3, 8] {
            assert_eq!(run(threads), reference, "threads = {threads}");
        }
    }
}
