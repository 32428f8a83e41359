//! Offline drop-in for the subset of `rayon` this workspace uses.
//!
//! The build environment has no access to crates.io, so the workspace
//! vendors the API surface it needs: `par_iter` / `par_iter_mut` /
//! `into_par_iter` / `par_chunks` with the `map`, `filter_map`,
//! `enumerate`, `collect`, `sum`, and `reduce` adaptors, plus
//! `par_sort_unstable_by_key` and [`current_num_threads`].
//!
//! Execution runs on one persistent work-stealing thread pool (see
//! `pool.rs`): the item stream is materialised, split into contiguous
//! chunks, and the chunks become tasks on per-worker deques, with the
//! submitting thread participating in its own job. Adaptors stay
//! eager (each completes before the next starts), which costs some
//! intermediate allocation but keeps the semantics — deterministic
//! order, panic propagation — identical for every call site.
//!
//! Determinism contract: the *result* of every adaptor is a pure
//! function of the input, never of the thread count or of scheduling.
//! Chunk boundaries, reduction-tree shape, and sort-run boundaries
//! depend only on input length; mapped results land in per-chunk
//! index slots; `sum` is a sequential fold over the materialised
//! items (floating-point sums must not re-associate); sorting breaks
//! key ties by original index so the permutation is unique.

mod pool;

pub use pool::{last_threads_used, set_num_threads};

/// Number of worker threads parallel adaptors may use (the live pool
/// size, or the size the pool would be created with). For the number
/// a specific operation actually used, see [`last_threads_used`].
pub fn current_num_threads() -> usize {
    pool::effective_threads()
}

/// Task granularity: chunks per pool thread. More chunks than threads
/// lets idle lanes steal from busy ones when per-item cost is uneven.
const TASKS_PER_THREAD: usize = 4;

/// Below this many items a sort is not worth permutation bookkeeping.
const PAR_SORT_MIN: usize = 4096;

/// Target items per reduction-tree leaf.
const REDUCE_CHUNK: usize = 1024;

/// Split `0..n` into at most `max_chunks` contiguous, non-empty,
/// near-equal spans. Returns exactly `min(n, max_chunks)` spans (none
/// for `n == 0`), so a job can never queue more tasks than asked for
/// — the pool's thread count is fixed, and this bounds task count too.
fn chunk_bounds(n: usize, max_chunks: usize) -> Vec<(usize, usize)> {
    if n == 0 {
        return Vec::new();
    }
    let k = max_chunks.clamp(1, n);
    let base = n / k;
    let rem = n % k;
    let mut bounds = Vec::with_capacity(k);
    let mut start = 0;
    for i in 0..k {
        let len = base + usize::from(i < rem);
        bounds.push((start, start + len));
        start += len;
    }
    bounds
}

/// Per-job context shared with the pool: chunk inputs are handed out
/// through mutexes, outputs come back into index-addressed slots, so
/// result order is independent of which thread runs which chunk.
struct ApplyCtx<T, U, F> {
    f: F,
    starts: Vec<usize>,
    inputs: Vec<std::sync::Mutex<Option<Vec<T>>>>,
    outputs: Vec<std::sync::Mutex<Option<Vec<U>>>>,
}

/// Apply `f(global_index, item)` to every item in parallel on the
/// global pool, preserving order. Panics in `f` propagate to the
/// caller (as with rayon) after the job drains.
fn parallel_apply_indexed<T, U, F>(items: Vec<T>, f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(usize, T) -> U + Sync,
{
    let n = items.len();
    if n <= 1 || pool::effective_threads() <= 1 {
        pool::note_sequential();
        return items.into_iter().enumerate().map(|(i, x)| f(i, x)).collect();
    }
    let bounds = chunk_bounds(n, pool::effective_threads().saturating_mul(TASKS_PER_THREAD));
    let mut starts = Vec::with_capacity(bounds.len());
    let mut inputs = Vec::with_capacity(bounds.len());
    let mut iter = items.into_iter();
    for &(start, end) in &bounds {
        starts.push(start);
        inputs.push(std::sync::Mutex::new(Some(iter.by_ref().take(end - start).collect())));
    }
    let outputs = (0..bounds.len()).map(|_| std::sync::Mutex::new(None)).collect();
    let ctx = ApplyCtx { f, starts, inputs, outputs };

    /// Run one chunk: take its input batch, map it, store the result
    /// in the chunk's output slot.
    ///
    /// # Safety
    /// `raw` must point at the live `ApplyCtx<T, U, F>` of the job
    /// this chunk belongs to, and `chunk` must be in bounds.
    unsafe fn exec<T, U, F: Fn(usize, T) -> U + Sync>(raw: *const (), chunk: usize) {
        let ctx = unsafe { &*(raw as *const ApplyCtx<T, U, F>) };
        let batch = ctx.inputs[chunk].lock().unwrap().take().expect("chunk input taken once");
        let start = ctx.starts[chunk];
        let out: Vec<U> =
            batch.into_iter().enumerate().map(|(i, x)| (ctx.f)(start + i, x)).collect();
        *ctx.outputs[chunk].lock().unwrap() = Some(out);
    }

    pool::execute(
        std::ptr::from_ref(&ctx) as *const (),
        exec::<T, U, F> as unsafe fn(*const (), usize),
        bounds.len(),
    );
    let mut out = Vec::with_capacity(n);
    for slot in ctx.outputs {
        out.extend(slot.into_inner().unwrap().expect("every chunk executed"));
    }
    out
}

/// Apply `f` to every item in parallel, preserving order.
fn parallel_apply<T, U, F>(items: Vec<T>, f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(T) -> U + Sync,
{
    parallel_apply_indexed(items, |_, x| f(x))
}

/// An eagerly evaluated parallel iterator over a materialised item list.
pub struct ParIter<T> {
    items: Vec<T>,
}

impl<T: Send> ParIter<T> {
    /// Parallel map, order-preserving.
    pub fn map<U: Send, F: Fn(T) -> U + Sync>(self, f: F) -> ParIter<U> {
        ParIter { items: parallel_apply(self.items, f) }
    }

    /// Parallel filter-map, order-preserving.
    pub fn filter_map<U: Send, F: Fn(T) -> Option<U> + Sync>(self, f: F) -> ParIter<U> {
        let opts = parallel_apply(self.items, f);
        ParIter { items: opts.into_iter().flatten().collect() }
    }

    /// Pair every item with its index (parallel, order-preserving).
    pub fn enumerate(self) -> ParIter<(usize, T)> {
        ParIter { items: parallel_apply_indexed(self.items, |i, x| (i, x)) }
    }

    /// Collect the (already computed) items.
    pub fn collect<C: FromIterator<T>>(self) -> C {
        self.items.into_iter().collect()
    }

    /// Sum the items. Deliberately a sequential fold in input order:
    /// float sums must not re-associate across thread counts (REDEEM
    /// compares log-likelihoods bit-for-bit across resumed runs).
    pub fn sum<S: std::iter::Sum<T>>(self) -> S {
        pool::note_sequential();
        self.items.into_iter().sum()
    }

    /// Reduce with rayon's (identity, op) signature. `identity()`
    /// seeds every fold, so an empty stream yields `identity()`.
    ///
    /// The reduction tree — leaves of ~`REDUCE_CHUNK` items folded
    /// independently, partials combined left-to-right — is a pure
    /// function of the item count, so the result is identical at
    /// every thread count even for non-associative `op`.
    pub fn reduce<ID, OP>(self, identity: ID, op: OP) -> T
    where
        ID: Fn() -> T + Sync,
        OP: Fn(T, T) -> T + Sync,
    {
        let n = self.items.len();
        let bounds = chunk_bounds(n, n.div_ceil(REDUCE_CHUNK).min(64));
        if bounds.len() <= 1 {
            pool::note_sequential();
            return self.items.into_iter().fold(identity(), &op);
        }
        let mut leaves = Vec::with_capacity(bounds.len());
        let mut iter = self.items.into_iter();
        for &(start, end) in &bounds {
            leaves.push(iter.by_ref().take(end - start).collect::<Vec<T>>());
        }
        let partials = parallel_apply(leaves, |leaf| leaf.into_iter().fold(identity(), &op));
        partials.into_iter().fold(identity(), op)
    }

    /// Run `f` on every item (parallel).
    pub fn for_each<F: Fn(T) + Sync>(self, f: F) {
        parallel_apply(self.items, f);
    }
}

/// `into_par_iter` for owning collections.
pub trait IntoParallelIterator {
    /// Item type of the resulting parallel iterator.
    type Item: Send;
    /// Convert into a parallel iterator.
    fn into_par_iter(self) -> ParIter<Self::Item>;
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;

    fn into_par_iter(self) -> ParIter<T> {
        ParIter { items: self }
    }
}

impl IntoParallelIterator for std::ops::Range<usize> {
    type Item = usize;

    fn into_par_iter(self) -> ParIter<usize> {
        ParIter { items: self.collect() }
    }
}

/// `par_iter` / `par_chunks` over slices.
pub trait ParallelSlice<T: Sync + Send> {
    /// Parallel iterator over shared references.
    fn par_iter(&self) -> ParIter<&T>;
    /// Parallel iterator over contiguous sub-slices of length `size`.
    fn par_chunks(&self, size: usize) -> ParIter<&[T]>;
}

impl<T: Sync + Send> ParallelSlice<T> for [T] {
    fn par_iter(&self) -> ParIter<&T> {
        ParIter { items: self.iter().collect() }
    }

    fn par_chunks(&self, size: usize) -> ParIter<&[T]> {
        ParIter { items: self.chunks(size.max(1)).collect() }
    }
}

/// Mutable parallel access over slices.
pub trait ParallelSliceMut<T: Send> {
    /// Parallel iterator over exclusive references.
    fn par_iter_mut(&mut self) -> ParIter<&mut T>;
    /// In-place unstable sort by key: parallel sorted runs merged in
    /// a fixed tree, then the permutation applied by cycle-following.
    /// Key ties break by original index, so the result is the unique
    /// stable order regardless of thread count (below `PAR_SORT_MIN`
    /// items it delegates to `sort_unstable_by_key`, whose tie order
    /// is likewise thread-count independent because it never runs on
    /// the pool).
    fn par_sort_unstable_by_key<K, F>(&mut self, key: F)
    where
        K: Ord + Send + Sync,
        F: Fn(&T) -> K + Sync;
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn par_iter_mut(&mut self) -> ParIter<&mut T> {
        ParIter { items: self.iter_mut().collect() }
    }

    fn par_sort_unstable_by_key<K, F>(&mut self, key: F)
    where
        K: Ord + Send + Sync,
        F: Fn(&T) -> K + Sync,
    {
        let n = self.len();
        if n < PAR_SORT_MIN {
            pool::note_sequential();
            self.sort_unstable_by_key(key);
            return;
        }
        // Keys are extracted once up front (cheap relative to the
        // comparisons), then only indices move until the final pass.
        let keys: Vec<K> = self.iter().map(&key).collect();
        let keys = &keys;
        // Run boundaries are a pure function of n: the merge tree and
        // hence the final permutation never depend on thread count.
        let bounds = chunk_bounds(n, n.div_ceil(PAR_SORT_MIN).min(64));
        let mut runs: Vec<Vec<usize>> = parallel_apply(bounds, |(start, end)| {
            let mut run: Vec<usize> = (start..end).collect();
            run.sort_unstable_by(|&a, &b| keys[a].cmp(&keys[b]).then(a.cmp(&b)));
            run
        });
        while runs.len() > 1 {
            let mut pairs = Vec::with_capacity(runs.len().div_ceil(2));
            let mut iter = runs.into_iter();
            while let Some(left) = iter.next() {
                pairs.push((left, iter.next()));
            }
            runs = parallel_apply(pairs, |(left, right)| match right {
                None => left,
                Some(right) => merge_runs(left, right, keys),
            });
        }
        let sorted = runs.pop().unwrap_or_default();
        // dest[i] = final position of the element currently at i;
        // cycle-following then sorts in place with n - cycles swaps.
        let mut dest = vec![0usize; n];
        for (position, &source) in sorted.iter().enumerate() {
            dest[source] = position;
        }
        for i in 0..n {
            while dest[i] != i {
                let j = dest[i];
                self.swap(i, j);
                dest.swap(i, j);
            }
        }
    }
}

/// Merge two sorted index runs, ordering by `(key, index)`.
fn merge_runs<K: Ord>(left: Vec<usize>, right: Vec<usize>, keys: &[K]) -> Vec<usize> {
    let mut out = Vec::with_capacity(left.len() + right.len());
    let (mut i, mut j) = (0, 0);
    while i < left.len() && j < right.len() {
        let (a, b) = (left[i], right[j]);
        if (&keys[a], a) <= (&keys[b], b) {
            out.push(a);
            i += 1;
        } else {
            out.push(b);
            j += 1;
        }
    }
    out.extend_from_slice(&left[i..]);
    out.extend_from_slice(&right[j..]);
    out
}

pub mod prelude {
    //! The adaptor traits, mirroring `rayon::prelude`.
    pub use crate::{IntoParallelIterator, ParallelSlice, ParallelSliceMut};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::{chunk_bounds, set_num_threads};

    /// Every test pins the pool at 4 threads before its first
    /// parallel operation, so the suite exercises real pool
    /// concurrency deterministically even on a single-core runner
    /// (the pool size is fixed at first use, tests run in one
    /// process, and all of them request the same size).
    fn pool4() {
        set_num_threads(4);
    }

    #[test]
    fn map_preserves_order() {
        pool4();
        let v: Vec<usize> = (0..10_000).collect();
        let doubled: Vec<usize> = v.par_iter().map(|&x| x * 2).collect();
        assert_eq!(doubled, (0..10_000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn filter_map_and_enumerate() {
        pool4();
        let v = [1u32, 2, 3, 4, 5, 6];
        let evens: Vec<u32> = v.par_iter().filter_map(|&x| (x % 2 == 0).then_some(x)).collect();
        assert_eq!(evens, vec![2, 4, 6]);
        let idx: Vec<(usize, &u32)> = v.par_iter().enumerate().collect();
        assert_eq!(idx[3], (3, &4));
    }

    #[test]
    fn chunks_reduce_matches_sequential() {
        pool4();
        let v: Vec<u64> = (1..=1000).collect();
        let total: u64 = v.par_chunks(97).map(|c| c.iter().sum::<u64>()).reduce(|| 0, |a, b| a + b);
        assert_eq!(total, 500_500);
    }

    #[test]
    fn reduce_tree_matches_sequential_fold() {
        pool4();
        // Large enough for several tree leaves.
        let v: Vec<u64> = (1..=100_000).collect();
        let total: u64 = v.into_par_iter().reduce(|| 0, |a, b| a + b);
        assert_eq!(total, 100_000 * 100_001 / 2);
    }

    #[test]
    fn range_into_par_iter_sums() {
        pool4();
        let s: usize = (0..1000usize).into_par_iter().map(|i| i).sum();
        assert_eq!(s, 499_500);
    }

    #[test]
    fn par_iter_mut_updates_in_place() {
        pool4();
        let mut v = vec![1u32; 64];
        v.par_iter_mut().map(|x| *x += 1).collect::<Vec<()>>();
        assert!(v.iter().all(|&x| x == 2));
    }

    #[test]
    fn par_sort_matches_stable_sort_with_duplicate_keys() {
        pool4();
        // Above PAR_SORT_MIN, lots of duplicate keys: the index
        // tie-break must reproduce the stable order exactly.
        let n = 3 * super::PAR_SORT_MIN + 7;
        let mut v: Vec<(u64, usize)> =
            (0..n).map(|i| ((i as u64).wrapping_mul(2654435761) % 97, i)).collect();
        let mut expect = v.clone();
        expect.sort_by_key(|&(k, _)| k);
        v.par_sort_unstable_by_key(|&(k, _)| k);
        assert_eq!(v, expect);
    }

    #[test]
    fn par_sort_small_input_sequential_path() {
        pool4();
        let mut v = vec![5u32, 3, 9, 1, 4];
        v.par_sort_unstable_by_key(|&x| x);
        assert_eq!(v, vec![1, 3, 4, 5, 9]);
    }

    #[test]
    fn chunk_bounds_never_oversubscribes() {
        // n < threads: one chunk per item, never an empty chunk.
        assert_eq!(chunk_bounds(3, 8), vec![(0, 1), (1, 2), (2, 3)]);
        // n == threads + 1: exactly `threads` chunks, all non-empty.
        let bounds = chunk_bounds(9, 8);
        assert_eq!(bounds.len(), 8);
        assert!(bounds.iter().all(|&(s, e)| e > s));
        // Contiguous full coverage.
        assert_eq!(bounds.first().unwrap().0, 0);
        assert_eq!(bounds.last().unwrap().1, 9);
        for pair in bounds.windows(2) {
            assert_eq!(pair[0].1, pair[1].0);
        }
        // Degenerate cases.
        assert!(chunk_bounds(0, 8).is_empty());
        assert_eq!(chunk_bounds(5, 1), vec![(0, 5)]);
        // Large n: the cap is exact, not approximate.
        assert_eq!(chunk_bounds(1_000_003, 16).len(), 16);
    }

    #[test]
    fn panics_propagate() {
        pool4();
        let v = [0u32, 1, 2];
        let r = std::panic::catch_unwind(|| {
            let _: Vec<u32> = v
                .par_iter()
                .map(|&x| {
                    if x == 2 {
                        panic!("boom");
                    }
                    x
                })
                .collect();
        });
        assert!(r.is_err());
    }

    #[test]
    fn pool_survives_panicked_jobs() {
        pool4();
        // A poisoned job must not wedge the pool: repeat the
        // panic-then-succeed cycle to prove workers stay alive.
        for round in 0..3 {
            let r = std::panic::catch_unwind(|| {
                let _: Vec<usize> = (0..10_000usize)
                    .into_par_iter()
                    .map(|i| if i == 4321 { panic!("round {round}") } else { i })
                    .collect();
            });
            assert!(r.is_err(), "round {round} should panic");
            let ok: Vec<usize> = (0..10_000usize).into_par_iter().map(|i| i * 2).collect();
            assert_eq!(ok, (0..10_000).map(|i| i * 2).collect::<Vec<_>>(), "round {round}");
        }
    }

    #[test]
    fn last_threads_used_is_bounded_and_honest() {
        pool4();
        // A parallel job reports between 1 and pool-size threads.
        let _: Vec<usize> = (0..50_000usize).into_par_iter().map(|i| i + 1).collect();
        let used = super::last_threads_used();
        assert!((1..=4).contains(&used), "used {used}");
        // A sequential adaptor reports exactly 1.
        let _: u64 = vec![1u64, 2, 3].into_par_iter().sum();
        assert_eq!(super::last_threads_used(), 1);
    }
}
