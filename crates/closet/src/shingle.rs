//! Shingle sets: every read's k-mer hashes, and their intersection.
//!
//! Phase I looks at a read only through its shingle set `H_i` — the sorted,
//! deduplicated 64-bit hashes of its k-mers. Sketching (Tasks 1–3) selects
//! residue classes of it, `KmerContainment` validation (Tasks 4–5) intersects
//! whole sets. A [`ShingleArena`] holds all of them in one `Vec<u64>` behind
//! an offset table, hashed once per run on the rayon pool, and both stages
//! read it; [`sorted_intersection_size`] is the one merge either stage runs.

use ngs_core::hash::hash_u64;
use ngs_core::Read;
use rayon::prelude::*;

/// Reads hashed per pool task. Block boundaries depend on the read count
/// alone, so the arena is the same at every thread count.
const BLOCK: usize = 256;

/// k-mer windows of a read of `len` bases: the most hashes it can have.
fn max_shingles(len: usize, k: usize) -> usize {
    (len + 1).saturating_sub(k)
}

/// Write `read`'s shingle set — sorted, deduplicated — to the front of
/// `out`, which has room for [`max_shingles`] of it; returns the size of the
/// set and the number of k-mer windows hashed (duplicates included). The only
/// k-mer hashing loop of the crate.
fn write_shingles(read: &Read, k: usize, out: &mut [u64]) -> (usize, usize) {
    let mut windows = 0;
    ngs_kmer::for_each_kmer(&read.seq, k, |_, v| {
        out[windows] = hash_u64(v);
        windows += 1;
    });
    let raw = &mut out[..windows];
    raw.sort_unstable();
    let mut kept = 0;
    for i in 0..windows {
        if kept == 0 || raw[i] != raw[kept - 1] {
            raw[kept] = raw[i];
            kept += 1;
        }
    }
    (kept, windows)
}

/// All k-mer hashes of a read, sorted and deduplicated (its shingle set
/// `H_i`).
pub fn read_hashes(read: &Read, k: usize) -> Vec<u64> {
    let mut hs = vec![0; max_shingles(read.len(), k)];
    let (kept, _) = write_shingles(read, k, &mut hs);
    hs.truncate(kept);
    hs
}

/// The shingle sets of a read collection, back to back in one array.
pub(crate) struct ShingleArena {
    k: usize,
    hashes: Vec<u64>,
    /// Set `i` is `hashes[offsets[i]..offsets[i + 1]]`.
    offsets: Vec<usize>,
    windows: u64,
}

impl ShingleArena {
    /// Hash every read of `reads` with shingle length `k`.
    ///
    /// The array is allocated once, at one slot per k-mer window; each block
    /// of reads packs its sets into its own stretch of it on the pool, and
    /// the stretches are then closed up in place.
    pub(crate) fn build(reads: &[Read], k: usize) -> ShingleArena {
        let room = |block: &[Read]| block.iter().map(|r| max_shingles(r.len(), k)).sum::<usize>();
        let mut hashes = vec![0u64; room(reads)];
        let mut stretches = Vec::with_capacity(reads.len().div_ceil(BLOCK));
        let mut rest = &mut hashes[..];
        for block in reads.chunks(BLOCK) {
            let (stretch, tail) = rest.split_at_mut(room(block));
            stretches.push((block, stretch));
            rest = tail;
        }
        // Per block: the size of each read's set, and the windows hashed.
        let packed: Vec<(Vec<usize>, usize)> = stretches
            .into_par_iter()
            .map(|(block, stretch)| {
                let (mut sizes, mut used, mut windows) = (Vec::with_capacity(block.len()), 0, 0);
                for read in block {
                    let (kept, hashed) = write_shingles(read, k, &mut stretch[used..]);
                    sizes.push(kept);
                    used += kept;
                    windows += hashed;
                }
                (sizes, windows)
            })
            .collect();

        let mut offsets = Vec::with_capacity(reads.len() + 1);
        offsets.push(0);
        let (mut end, mut stretch_start, mut windows) = (0, 0, 0);
        for (block, (sizes, hashed)) in reads.chunks(BLOCK).zip(packed) {
            let used: usize = sizes.iter().sum();
            hashes.copy_within(stretch_start..stretch_start + used, end);
            for size in sizes {
                end += size;
                offsets.push(end);
            }
            stretch_start += room(block);
            windows += hashed as u64;
        }
        hashes.truncate(end);
        ShingleArena { k, hashes, offsets, windows }
    }

    /// Shingle length the arena was hashed with.
    pub(crate) fn k(&self) -> usize {
        self.k
    }

    /// Number of reads.
    pub(crate) fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// The shingle set of read `i`.
    pub(crate) fn set(&self, i: usize) -> &[u64] {
        &self.hashes[self.offsets[i]..self.offsets[i + 1]]
    }

    /// k-mer windows hashed to build the arena, over all reads.
    pub(crate) fn windows(&self) -> u64 {
        self.windows
    }
}

/// Merge steps between two looks at the skip budget.
const STRIDE: usize = 32;

/// A branch-free merge over two sorted, deduplicated slices: every step adds
/// the outcome of its comparisons to the cursors and the count, so uniformly
/// distributed hashes cost no mispredictions.
struct Lane<'a> {
    a: &'a [u64],
    b: &'a [u64],
    i: usize,
    j: usize,
    common: usize,
}

impl<'a> Lane<'a> {
    fn new(a: &'a [u64], b: &'a [u64]) -> Lane<'a> {
        Lane { a, b, i: 0, j: 0, common: 0 }
    }

    /// Steps that cannot run off either slice: a step moves each cursor by
    /// at most one.
    #[inline(always)]
    fn room(&self) -> usize {
        (self.a.len() - self.i).min(self.b.len() - self.j)
    }

    #[inline(always)]
    fn step(&mut self) {
        let (x, y) = (self.a[self.i], self.b[self.j]);
        self.common += usize::from(x == y);
        self.i += usize::from(x <= y);
        self.j += usize::from(y <= x);
    }
}

/// `|a ∩ b|` of two sorted, deduplicated slices, together with the number of
/// merge steps taken.
///
/// A step's loads wait for the cursors the step before it produced, and that
/// chain, not the work, bounds a single merge. So both slices are cut at
/// `a`'s median and the halves below and above it merge in lock-step as two
/// [`Lane`]s with nothing to wait for from each other.
///
/// The caller states how many common elements it `need`s (at most
/// `min(|a|, |b|)`): once either side has stepped past more unmatched
/// elements than `len − need`, no completion can reach `need`, the merge is
/// abandoned and the size comes back `None`. With `need = 0` the merge always
/// completes. The budget is looked at every [`STRIDE`] steps, so a merge is
/// abandoned a little late, never wrongly.
pub(crate) fn sorted_intersection_size(
    a: &[u64],
    b: &[u64],
    need: usize,
) -> (Option<usize>, usize) {
    debug_assert!(need <= a.len().min(b.len()));
    let (spare_a, spare_b) = (a.len() - need, b.len() - need);
    let mid = a.len() / 2;
    let cut = a.get(mid).map_or(b.len(), |&median| b.partition_point(|&y| y < median));
    let mut low = Lane::new(&a[..mid], &b[..cut]);
    let mut high = Lane::new(&a[mid..], &b[cut..]);
    loop {
        let both = STRIDE.min(low.room()).min(high.room());
        for _ in 0..both {
            low.step();
            high.step();
        }
        if both == 0 {
            // One lane is through; the other runs on alone.
            let rest = if low.room() > 0 { &mut low } else { &mut high };
            let alone = STRIDE.min(rest.room());
            for _ in 0..alone {
                rest.step();
            }
            if alone == 0 {
                break;
            }
        }
        let common = low.common + high.common;
        if low.i + high.i - common > spare_a || low.j + high.j - common > spare_b {
            break;
        }
    }
    // A step moves both cursors exactly when it counts a common element.
    let common = low.common + high.common;
    let steps = low.i + high.i + low.j + high.j - common;
    let complete = low.room() == 0 && high.room() == 0;
    (complete.then_some(common), steps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    #[test]
    fn arena_holds_every_reads_set_and_counts_windows_once() {
        let seqs: [&[u8]; 5] = [b"ACGTACGTACGT", b"ACG", b"NNNNNNNN", b"", b"ACGTNACGTTGCA"];
        // More reads than one block, so the join across blocks is exercised.
        let reads: Vec<Read> =
            (0..2 * BLOCK + 7).map(|i| Read::new(format!("r{i}"), seqs[i % seqs.len()])).collect();
        let arena = ShingleArena::build(&reads, 4);
        assert_eq!(arena.len(), reads.len());
        assert_eq!(arena.k(), 4);
        let mut windows = 0;
        for (i, read) in reads.iter().enumerate() {
            assert_eq!(arena.set(i), &read_hashes(read, 4)[..], "read {i}");
            ngs_kmer::for_each_kmer(&read.seq, 4, |_, _| windows += 1);
        }
        assert_eq!(arena.windows(), windows);
        assert!(ShingleArena::build(&[], 4).len() == 0);
    }

    fn sorted_set(raw: Vec<u64>) -> Vec<u64> {
        raw.into_iter().collect::<BTreeSet<u64>>().into_iter().collect()
    }

    proptest! {
        /// The merge against a `BTreeSet` intersection: equal size whenever it
        /// completes, abandoned only when the size is short of `need`, and
        /// always complete when the size reaches it.
        #[test]
        fn merge_matches_set_intersection(
            a in proptest::collection::vec(0u64..200, 0..150),
            b in proptest::collection::vec(0u64..200, 0..150),
            need_frac in 0.0f64..=1.0,
        ) {
            let (a, b) = (sorted_set(a), sorted_set(b));
            let truth = a.iter().filter(|x| b.contains(x)).count();
            let (full, steps) = sorted_intersection_size(&a, &b, 0);
            prop_assert_eq!(full, Some(truth));
            prop_assert!(steps <= a.len() + b.len());
            let need = (need_frac * a.len().min(b.len()) as f64) as usize;
            let (bounded, bounded_steps) = sorted_intersection_size(&a, &b, need);
            prop_assert!(bounded_steps <= steps);
            match bounded {
                Some(n) => prop_assert_eq!(n, truth),
                None => prop_assert!(truth < need, "abandoned at {truth} >= {need}"),
            }
        }
    }
}
