//! Hamming-graph neighbourhood retrieval.
//!
//! The Hamming graph `G_H` (§2.3) has one vertex per observed k-mer and an
//! edge between k-mers within Hamming distance `d`. Storing it explicitly is
//! memory-prohibitive, so the paper proposes two retrieval schemes, both
//! implemented here:
//!
//! * **Brute-force enumeration** — generate all `C(k,d)·3^d` mutant k-mers of
//!   the query and binary-search each in the spectrum
//!   (`O(C(k,d)·3^d·log|R^k|)` per query);
//! * **Masked replicas** (§2.3 Phase 1) — split the `k` positions into `c`
//!   chunks; for every choice of `d` chunks keep a copy of the spectrum in
//!   which those chunks do not take part in the sort key. Any k-mer within
//!   distance `d` of the query differs in positions covered by at most `d`
//!   chunks, so it agrees with the query on the kept chunks of at least one
//!   replica.
//!
//! A replica stores the k-mers themselves, **bit-permuted** so the kept
//! chunks are the high bits and the masked chunks the low bits, sorted, in
//! one contiguous array. All k-mers that agree with a query on the kept
//! chunks then form one contiguous run, and a bucket directory over the top
//! bits of the permuted key says where it starts: a probe permutes the
//! query, reads two directory entries and streams the run. A bit permutation
//! that moves whole 2-bit bases preserves Hamming distance, so candidates
//! are verified on the permuted keys without touching the spectrum.

use crate::directory::BucketDirectory;
use crate::packed::{hamming_distance, mutate_base, Kmer};
use crate::spectrum::KSpectrum;
use rayon::prelude::*;
use std::borrow::Cow;

/// Strategy used by [`NeighborIndex`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NeighborStrategy {
    /// Enumerate all mutant k-mers and probe the spectrum.
    BruteForce,
    /// §2.3's masked-replica index with `c` chunks.
    MaskedReplicas {
        /// Number of positional chunks (`d < c <= k`).
        chunks: usize,
    },
}

/// The chunk count every masked-replica index in the workspace is built
/// with: `d + 2` (capped at `k`), i.e. 3 replicas at `d = 1` and 6 at
/// `d = 2`. The returned neighbour set does not depend on it; probe cost and
/// memory (`C(c,d) × 12` bytes per k-mer) do, and `d + 2` is the measured
/// optimum of the contiguous layout (DESIGN.md, "Neighbour retrieval").
/// Legal only for `d < k`.
pub fn default_chunks(k: usize, d: usize) -> usize {
    (d + 2).min(k)
}

/// The owned, expensive-to-build part of a neighbour index: the masked
/// replicas. Building copies and reorders the spectrum once per chunk
/// subset, so long-lived correctors build a `NeighborTables` once and take
/// cheap [`NeighborTables::view`]s per query batch instead of rebuilding on
/// every call.
#[derive(Clone)]
pub struct NeighborTables {
    d: usize,
    strategy: NeighborStrategy,
    /// Length and k of the spectrum the tables were built over, so `view`
    /// can reject a mismatched spectrum instead of answering garbage.
    spectrum_len: usize,
    k: usize,
    replicas: Vec<Replica>,
}

/// A run of adjacent bits that moves as one block under a
/// [`BitPermutation`]: `((v & mask) << shl) >> shr`, one shift being zero.
#[derive(Clone, Copy)]
struct Segment {
    /// The block's bits in the unpermuted k-mer.
    mask: u64,
    shl: u32,
    shr: u32,
}

/// The permutation of the `2k` k-mer bits that puts the kept chunks in the
/// high bits and the masked chunks in the low bits, each group in its
/// original order. It moves whole bases, so it preserves Hamming distance.
#[derive(Clone)]
struct BitPermutation {
    segments: Vec<Segment>,
    /// Number of low bits of a permuted key that belong to masked chunks.
    masked_bits: u32,
}

impl BitPermutation {
    /// The permutation masking the chunks `masked` (sorted indices) out of
    /// `chunks` chunks over `k` positions. Adjacent chunks that move by the
    /// same amount share a segment.
    fn new(k: usize, chunks: usize, masked: &[usize]) -> BitPermutation {
        let kept = (0..chunks).filter(|ci| !masked.contains(ci));
        let mut segments: Vec<Segment> = Vec::new();
        let mut dst_top = 2 * k as u32;
        for ci in kept.chain(masked.iter().copied()) {
            let mask = chunk_mask(k, chunks, ci);
            let width = mask.count_ones();
            let src_lo = mask.trailing_zeros();
            let dst_lo = dst_top - width;
            dst_top = dst_lo;
            let (shl, shr) = (dst_lo.saturating_sub(src_lo), src_lo.saturating_sub(dst_lo));
            match segments.last_mut() {
                Some(last) if (last.shl, last.shr) == (shl, shr) => last.mask |= mask,
                _ => segments.push(Segment { mask, shl, shr }),
            }
        }
        let masked_bits = masked.iter().map(|&ci| chunk_mask(k, chunks, ci).count_ones()).sum();
        BitPermutation { segments, masked_bits }
    }

    #[inline]
    fn apply(&self, v: Kmer) -> Kmer {
        self.segments.iter().fold(0, |acc, s| acc | (((v & s.mask) << s.shl) >> s.shr))
    }

    #[inline]
    fn invert(&self, key: Kmer) -> Kmer {
        self.segments.iter().fold(0, |acc, s| acc | (((key << s.shr) >> s.shl) & s.mask))
    }
}

/// One masked copy of the spectrum.
#[derive(Clone)]
struct Replica {
    perm: BitPermutation,
    /// Buckets of `keys`; the directory covers kept bits only, so a kept
    /// prefix is never split over buckets.
    dir: BucketDirectory,
    /// The permuted k-mers, sorted.
    keys: Vec<Kmer>,
    /// Spectrum index of each key.
    order: Vec<u32>,
}

impl Replica {
    /// Build the replica of `kmers` (the sorted spectrum of `k`-mers) that
    /// masks the chunks in `masked` out of `chunks`: one counting sort by
    /// bucket, no comparison sort of the whole spectrum.
    fn build(kmers: &[Kmer], k: usize, chunks: usize, masked: &[usize]) -> Replica {
        let perm = BitPermutation::new(k, chunks, masked);
        let key_bits = 2 * k as u32;
        let kept_bits = key_bits - perm.masked_bits;
        let dir = BucketDirectory::build(key_bits, kept_bits, kmers.iter().map(|&v| perm.apply(v)));

        // Scatter in spectrum order. The spectrum is ascending and the
        // permutation keeps the masked chunks in their original order, so
        // k-mers that share their kept chunks arrive in key order: a bucket
        // that is one kept prefix is born sorted.
        let mut keys = vec![0; kmers.len()];
        let mut order = vec![0u32; kmers.len()];
        dir.scatter(kmers.iter().map(|&v| perm.apply(v)), |slot, i, key| {
            keys[slot] = key;
            order[slot] = i as u32;
        });
        // A bucket that spans several kept prefixes (large k) is sorted here;
        // it holds about four keys.
        if dir.bits() < kept_bits {
            let mut run: Vec<(Kmer, u32)> = Vec::new();
            for w in dir.starts().windows(2) {
                let range = w[0] as usize..w[1] as usize;
                run.clear();
                run.extend(
                    keys[range.clone()].iter().copied().zip(order[range.clone()].iter().copied()),
                );
                run.sort_unstable();
                for (j, &(key, i)) in range.zip(&run) {
                    (keys[j], order[j]) = (key, i);
                }
            }
        }
        debug_assert!(keys.windows(2).all(|w| w[0] < w[1]), "replica keys must be ascending");
        Replica { perm, dir, keys, order }
    }

    /// Call `hit(spectrum index, k-mer)` for every k-mer that agrees with
    /// `query` on the kept chunks, differs from it, and lies within `max_d`.
    #[inline]
    fn scan(&self, query: Kmer, max_d: usize, hit: &mut impl FnMut(usize, Kmer)) {
        let pq = self.perm.apply(query);
        let bucket = self.dir.range(pq);
        let masked_bits = self.perm.masked_bits;
        let prefix = pq >> masked_bits;
        for (&key, &i) in self.keys[bucket.clone()].iter().zip(&self.order[bucket.start..]) {
            let key_prefix = key >> masked_bits;
            if key_prefix < prefix {
                continue;
            }
            if key_prefix > prefix {
                break;
            }
            if key != pq && hamming_distance(key, pq) as usize <= max_d {
                hit(i as usize, self.perm.invert(key));
            }
        }
    }
}

impl NeighborTables {
    /// Build the replica tables for distance-`d` queries over `spectrum`.
    ///
    /// # Panics
    /// Panics if `d == 0`, `d > k`, (for masked replicas) `chunks` is not
    /// in `(d, k]`, or the spectrum holds more than `u32::MAX` k-mers.
    pub fn build(spectrum: &KSpectrum, d: usize, strategy: NeighborStrategy) -> NeighborTables {
        let k = spectrum.k();
        assert!(d >= 1 && d <= k, "d must be in 1..=k");
        let replicas = match strategy {
            NeighborStrategy::BruteForce => Vec::new(),
            NeighborStrategy::MaskedReplicas { chunks } => {
                assert!(chunks > d && chunks <= k, "need d < chunks <= k");
                assert!(u32::try_from(spectrum.len()).is_ok(), "spectrum too large for the index");
                subsets(chunks, d)
                    .into_par_iter()
                    .map(|masked| Replica::build(spectrum.kmers(), k, chunks, &masked))
                    .collect()
            }
        };
        NeighborTables { d, strategy, spectrum_len: spectrum.len(), k, replicas }
    }

    /// The maximum Hamming distance these tables answer.
    pub fn d(&self) -> usize {
        self.d
    }

    /// The strategy the tables were built with.
    pub fn strategy(&self) -> NeighborStrategy {
        self.strategy
    }

    /// Number of replicas held (0 for brute force).
    pub fn replica_count(&self) -> usize {
        self.replicas.len()
    }

    /// A query view pairing these tables with the spectrum they were built
    /// over. O(1): no sorting, no allocation.
    ///
    /// # Panics
    /// Panics when `spectrum` does not match the one the tables were built
    /// from (by length and k — the cheap invariants we can check).
    pub fn view<'s>(&'s self, spectrum: &'s KSpectrum) -> NeighborIndex<'s> {
        assert_eq!(
            (self.spectrum_len, self.k),
            (spectrum.len(), spectrum.k()),
            "NeighborTables::view: spectrum does not match the build-time spectrum"
        );
        NeighborIndex {
            spectrum,
            d: self.d,
            strategy: self.strategy,
            replicas: Cow::Borrowed(&self.replicas),
        }
    }
}

/// An index answering d-neighbourhood queries over a [`KSpectrum`].
///
/// Either owns its replica tables ([`NeighborIndex::build`]) or borrows
/// them from a long-lived [`NeighborTables`] ([`NeighborTables::view`]).
pub struct NeighborIndex<'s> {
    spectrum: &'s KSpectrum,
    d: usize,
    strategy: NeighborStrategy,
    /// One replica per chunk subset. Empty for brute force.
    replicas: Cow<'s, [Replica]>,
}

/// All `C(n, d)` subsets of `{0..n}` of size `d`, as sorted index vectors.
fn subsets(n: usize, d: usize) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    let mut cur = Vec::with_capacity(d);
    fn rec(n: usize, d: usize, start: usize, cur: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        if cur.len() == d {
            out.push(cur.clone());
            return;
        }
        for i in start..n {
            cur.push(i);
            rec(n, d, i + 1, cur, out);
            cur.pop();
        }
    }
    rec(n, d, 0, &mut cur, &mut out);
    out
}

/// 2-bit-position mask covering chunk `ci` of `c` chunks over `k` positions.
fn chunk_mask(k: usize, c: usize, ci: usize) -> u64 {
    // Positions are distributed as evenly as possible: chunk ci covers
    // [ci*k/c, (ci+1)*k/c).
    let lo = ci * k / c;
    let hi = (ci + 1) * k / c;
    let mut m = 0u64;
    for pos in lo..hi {
        m |= 3u64 << (2 * (k - 1 - pos));
    }
    m
}

impl<'s> NeighborIndex<'s> {
    /// Build a self-contained index for distance-`d` queries (tables owned
    /// by the index). For repeated query batches over the same spectrum,
    /// build a [`NeighborTables`] once and call [`NeighborTables::view`]
    /// instead.
    ///
    /// # Panics
    /// As [`NeighborTables::build`].
    pub fn build(
        spectrum: &'s KSpectrum,
        d: usize,
        strategy: NeighborStrategy,
    ) -> NeighborIndex<'s> {
        let tables = NeighborTables::build(spectrum, d, strategy);
        NeighborIndex { spectrum, d, strategy, replicas: Cow::Owned(tables.replicas) }
    }

    /// The maximum Hamming distance this index answers.
    pub fn d(&self) -> usize {
        self.d
    }

    /// The spectrum this index was built over.
    pub fn spectrum(&self) -> &KSpectrum {
        self.spectrum
    }

    /// Number of replicas held (0 for brute force).
    pub fn replica_count(&self) -> usize {
        self.replicas.len()
    }

    /// Return the spectrum indices of all *observed* k-mers within Hamming
    /// distance `max_d` of `query`, **excluding** `query` itself, ascending.
    /// `max_d` must not exceed the index's `d`.
    pub fn neighbors(&self, query: Kmer, max_d: usize) -> Vec<usize> {
        let mut out = Vec::new();
        self.neighbors_into(query, max_d, &mut out);
        out
    }

    /// [`NeighborIndex::neighbors`] into a caller-owned buffer (cleared
    /// first), so a query loop allocates nothing.
    pub fn neighbors_into(&self, query: Kmer, max_d: usize, out: &mut Vec<usize>) {
        self.hits_into(query, max_d, out, |i, _| i);
    }

    /// The neighbours as k-mers instead of indices (same order), into a
    /// caller-owned buffer. The masked replicas hold the k-mers themselves,
    /// so no hit is looked up in the spectrum.
    pub fn neighbor_kmers_into(&self, query: Kmer, max_d: usize, out: &mut Vec<Kmer>) {
        self.hits_into(query, max_d, out, |_, v| v);
    }

    /// The neighbours as `(k-mer, count)` pairs, ascending by k-mer, into a
    /// caller-owned buffer: what a caller needs that decides from a
    /// neighbour's count whether the neighbour is worth a visit.
    pub fn neighbor_counts_into(&self, query: Kmer, max_d: usize, out: &mut Vec<(Kmer, u32)>) {
        let counts = self.spectrum.counts();
        self.hits_into(query, max_d, out, |i, v| (v, counts[i]));
    }

    /// Replace `out` with `pick(spectrum index, k-mer)` of every neighbour,
    /// ascending and deduplicated.
    fn hits_into<T: Ord>(
        &self,
        query: Kmer,
        max_d: usize,
        out: &mut Vec<T>,
        pick: impl Fn(usize, Kmer) -> T,
    ) {
        out.clear();
        self.for_each_hit(query, max_d, |i, v| out.push(pick(i, v)));
        out.sort_unstable();
        out.dedup();
    }

    /// Call `hit(spectrum index, k-mer)` for every observed k-mer within
    /// `max_d` of `query` other than `query`, in no order and possibly more
    /// than once (a neighbour is found in every replica that masks all the
    /// chunks it differs in).
    fn for_each_hit(&self, query: Kmer, max_d: usize, mut hit: impl FnMut(usize, Kmer)) {
        assert!(max_d <= self.d, "query distance {max_d} exceeds index d {}", self.d);
        // A query with bits above 2k is no k-mer and has no neighbours.
        if max_d == 0 || query > u64::MAX >> (64 - 2 * self.spectrum.k()) {
            return;
        }
        match self.strategy {
            NeighborStrategy::BruteForce => {
                brute_force(self.spectrum, query, 0, max_d, &mut hit);
            }
            NeighborStrategy::MaskedReplicas { .. } => {
                for rep in self.replicas.iter() {
                    rep.scan(query, max_d, &mut hit);
                }
            }
        }
    }

    /// The full adjacency by probing every spectrum k-mer: each undirected
    /// edge is found from both ends. The oracle of [`HammingGraph::build`],
    /// which finds each edge once.
    #[cfg(test)]
    fn full_adjacency(&self, max_d: usize) -> Vec<Vec<u32>> {
        self.spectrum
            .kmers()
            .par_iter()
            .map(|&v| {
                let mut out = Vec::new();
                self.hits_into(v, max_d, &mut out, |i, _| i as u32);
                out
            })
            .collect()
    }
}

/// The Hamming graph `G_H` of a spectrum at distance `d`, in compressed
/// sparse rows over spectrum indices: row `l` is `l` itself, then every
/// other k-mer of the spectrum within distance `d` of it, ascending — the
/// neighbourhood `N^d_l` REDEEM's misread matrix is defined over (§3.2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HammingGraph {
    /// Row `l` is `nbr[offsets[l]..offsets[l + 1]]`.
    offsets: Vec<u32>,
    nbr: Vec<u32>,
}

impl HammingGraph {
    /// Find every edge of the graph once, by a self-join over the masked
    /// replicas (§2.3 Phase 1) with `chunks` chunks. Two k-mers within
    /// distance `d` differ in at most `d` chunks, so they share the kept
    /// chunks of every replica that masks those chunks: one run of that
    /// replica's sorted keys holds both. Each replica is sorted once and
    /// every pair within each run compared; a pair is kept only in its
    /// canonical replica — the one masking the chunks it differs in, filled
    /// up with the lowest other chunks — so no edge is found twice. The
    /// rows are then written by a count pass and a fill pass.
    ///
    /// # Panics
    /// Panics unless `1 ≤ d < chunks ≤ k`, and when the spectrum or the
    /// graph's directed edges outnumber `u32::MAX`.
    pub fn build(spectrum: &KSpectrum, d: usize, chunks: usize) -> HammingGraph {
        let k = spectrum.k();
        assert!(d >= 1 && chunks > d && chunks <= k, "need 1 <= d < chunks <= k");
        let n = u32::try_from(spectrum.len()).expect("spectrum too large for the index");
        let pairs: Vec<Vec<(u32, u32)>> = subsets(chunks, d)
            .iter()
            .flat_map(|masked| {
                let replica = Replica::build(spectrum.kmers(), k, chunks, masked);
                replica.canonical_pairs(k, chunks, masked, d)
            })
            .collect();

        // Count pass: a row holds its node and one entry per incident edge.
        let mut cursor = vec![1u32; n as usize];
        for &(i, j) in pairs.iter().flatten() {
            cursor[i as usize] += 1;
            cursor[j as usize] += 1;
        }
        let mut offsets = Vec::with_capacity(n as usize + 1);
        offsets.push(0u32);
        let mut total = 0u32;
        for c in cursor.iter_mut() {
            let start = total;
            total = total.checked_add(*c).expect("too many edges for a u32 CSR");
            offsets.push(total);
            *c = start + 1;
        }
        // Fill pass, then each row's neighbours in ascending order.
        let mut nbr = vec![0u32; total as usize];
        for l in 0..n {
            nbr[offsets[l as usize] as usize] = l;
        }
        for &(i, j) in pairs.iter().flatten() {
            for (from, to) in [(i, j), (j, i)] {
                let slot = &mut cursor[from as usize];
                nbr[*slot as usize] = to;
                *slot += 1;
            }
        }
        drop(pairs);
        for w in offsets.windows(2) {
            nbr[w[0] as usize + 1..w[1] as usize].sort_unstable();
        }
        HammingGraph { offsets, nbr }
    }

    /// The CSR arrays `(offsets, nbr)`.
    pub fn into_parts(self) -> (Vec<u32>, Vec<u32>) {
        (self.offsets, self.nbr)
    }
}

impl Replica {
    /// The pairs `(i, j)`, `i < j` spectrum indices, that lie in one run of
    /// this replica's keys, are within distance `d` and have this replica
    /// (masking the chunks `masked` of `chunks` over `k` positions) as their
    /// canonical replica. Runs are joined in parallel, a few blocks of
    /// buckets per thread; a kept prefix never spans buckets.
    fn canonical_pairs(
        &self,
        k: usize,
        chunks: usize,
        masked: &[usize],
        d: usize,
    ) -> Vec<Vec<(u32, u32)>> {
        let this = masked.iter().fold(0u64, |set, &ci| set | 1 << ci);
        // Where each masked chunk's bases sit in a permuted key.
        let chunk_bits: Vec<(usize, u64)> =
            masked.iter().map(|&ci| (ci, self.perm.apply(chunk_mask(k, chunks, ci)))).collect();
        // The canonical replica of a pair: the chunks it differs in, plus
        // the lowest other chunks up to `d`.
        let is_canonical = |diff: u64| {
            let differ = chunk_bits
                .iter()
                .filter(|&&(_, bits)| diff & bits != 0)
                .fold(0u64, |set, &(ci, _)| set | 1 << ci);
            let fill = (0..chunks)
                .filter(|ci| differ & 1 << ci == 0)
                .take(d - differ.count_ones() as usize);
            fill.fold(differ, |set, ci| set | 1 << ci) == this
        };
        let masked_bits = self.perm.masked_bits;
        let starts = self.dir.starts();
        let buckets = starts.len() - 1;
        let blocks = (rayon::current_num_threads() * 4).min(buckets);
        (0..blocks)
            .into_par_iter()
            .map(|b| {
                let lo = starts[b * buckets / blocks] as usize;
                let hi = starts[(b + 1) * buckets / blocks] as usize;
                let (keys, order) = (&self.keys[lo..hi], &self.order[lo..hi]);
                let mut pairs = Vec::new();
                let mut s = 0;
                while s < keys.len() {
                    let prefix = keys[s] >> masked_bits;
                    let run = keys[s..].iter().take_while(|&&key| key >> masked_bits == prefix);
                    let e = s + run.count();
                    for a in s..e {
                        for b in a + 1..e {
                            let (ka, kb) = (keys[a], keys[b]);
                            if hamming_distance(ka, kb) as usize <= d && is_canonical(ka ^ kb) {
                                let (i, j) = (order[a], order[b]);
                                pairs.push((i.min(j), i.max(j)));
                            }
                        }
                    }
                    s = e;
                }
                pairs
            })
            .collect()
    }
}

/// Enumerate the mutants of `cur` with up to `remaining` substitutions at
/// positions `next_pos..`, probing each in the spectrum.
fn brute_force(
    spectrum: &KSpectrum,
    cur: Kmer,
    next_pos: usize,
    remaining: usize,
    hit: &mut impl FnMut(usize, Kmer),
) {
    if remaining == 0 {
        return;
    }
    let k = spectrum.k();
    for pos in next_pos..k {
        for delta in 1..=3u8 {
            let m = mutate_base(cur, k, pos, delta);
            if let Some(i) = spectrum.index_of(m) {
                hit(i, m);
            }
            brute_force(spectrum, m, pos + 1, remaining - 1, hit);
        }
    }
}

/// Differential oracle: for **every** legal chunk count `d < c <= k`, the
/// masked-replica index over `spectrum` must answer each query exactly as
/// brute-force enumeration does (ascending, deduplicated, query excluded),
/// for every distance `1..=d`. Returns the first disagreement.
pub fn check_against_brute_force(
    spectrum: &KSpectrum,
    d: usize,
    queries: &[Kmer],
) -> Result<(), String> {
    let k = spectrum.k();
    let brute = NeighborIndex::build(spectrum, d, NeighborStrategy::BruteForce);
    let expected: Vec<Vec<Vec<usize>>> =
        queries.iter().map(|&q| (1..=d).map(|dist| brute.neighbors(q, dist)).collect()).collect();
    for chunks in d + 1..=k {
        let masked = NeighborIndex::build(spectrum, d, NeighborStrategy::MaskedReplicas { chunks });
        let (mut kmers, mut counted) = (Vec::new(), Vec::new());
        for (&q, want) in queries.iter().zip(&expected) {
            for (dist, want) in (1..=d).zip(want) {
                let got = masked.neighbors(q, dist);
                if &got != want {
                    return Err(format!(
                        "k={k} d={d} chunks={chunks} query={q:#x} dist={dist}: masked replicas \
                         answer {got:?}, brute force {want:?}"
                    ));
                }
                masked.neighbor_kmers_into(q, dist, &mut kmers);
                if !kmers.iter().copied().eq(want.iter().map(|&i| spectrum.kmers()[i])) {
                    return Err(format!(
                        "k={k} d={d} chunks={chunks} query={q:#x} dist={dist}: neighbour \
                         k-mers {kmers:x?} do not match indices {want:?}"
                    ));
                }
                masked.neighbor_counts_into(q, dist, &mut counted);
                if !counted
                    .iter()
                    .copied()
                    .eq(want.iter().map(|&i| (spectrum.kmers()[i], spectrum.counts()[i])))
                {
                    return Err(format!(
                        "k={k} d={d} chunks={chunks} query={q:#x} dist={dist}: neighbour \
                         counts {counted:x?} do not match indices {want:?}"
                    ));
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packed::encode_kmer;
    use crate::splitmix64 as next;
    use ngs_core::hash::FxHashMap;
    use proptest::prelude::*;

    fn spectrum_of(kmers: &[&[u8]]) -> KSpectrum {
        let mut m: FxHashMap<Kmer, u32> = FxHashMap::default();
        for s in kmers {
            *m.entry(encode_kmer(s).unwrap()).or_insert(0) += 1;
        }
        KSpectrum::from_map(m, kmers[0].len())
    }

    #[test]
    fn subsets_counts() {
        assert_eq!(subsets(5, 1).len(), 5);
        assert_eq!(subsets(5, 2).len(), 10);
        assert_eq!(subsets(4, 4).len(), 1);
    }

    #[test]
    fn default_chunks_is_d_plus_two_capped_at_k() {
        assert_eq!(default_chunks(10, 1), 3);
        assert_eq!(default_chunks(13, 2), 4);
        assert_eq!(default_chunks(3, 2), 3);
        assert_eq!(default_chunks(2, 1), 2);
    }

    #[test]
    fn chunk_masks_partition_all_positions() {
        let k = 13;
        let c = 5;
        let mut acc = 0u64;
        for ci in 0..c {
            let m = chunk_mask(k, c, ci);
            assert_eq!(acc & m, 0, "chunks must not overlap");
            acc |= m;
        }
        assert_eq!(acc, (1u64 << (2 * k)) - 1, "chunks must cover all positions");
    }

    fn kmer_bits(k: usize) -> u64 {
        u64::MAX >> (64 - 2 * k)
    }

    /// Every replica's permutation, for every k, d and legal chunk count, is
    /// a bijection on the 2k k-mer bits that moves whole bases (so Hamming
    /// distance survives), sends the kept chunks to the high bits and the
    /// masked chunks to the low `masked_bits`, and is undone by `invert`.
    #[test]
    fn permutations_are_base_preserving_bijections() {
        let mut rng = 7u64;
        for k in 2..=32usize {
            for d in 1..=2usize.min(k - 1) {
                for chunks in d + 1..=k {
                    for masked in subsets(chunks, d) {
                        let perm = BitPermutation::new(k, chunks, &masked);
                        let ctx = format!("k={k} chunks={chunks} masked={masked:?}");
                        let mut image = 0u64;
                        for base in 0..k {
                            let lo = perm.apply(1 << (2 * base));
                            let hi = perm.apply(2 << (2 * base));
                            assert_eq!(lo.count_ones(), 1, "{ctx}");
                            assert_eq!(lo.trailing_zeros() % 2, 0, "{ctx}: base split");
                            assert_eq!(hi, lo << 1, "{ctx}: base split");
                            assert_eq!(image & (lo | hi), 0, "{ctx}: two bits collide");
                            image |= lo | hi;
                        }
                        assert_eq!(image, kmer_bits(k), "{ctx}: not onto");

                        let masked_out =
                            masked.iter().fold(0, |m, &ci| m | chunk_mask(k, chunks, ci));
                        assert_eq!(perm.masked_bits, masked_out.count_ones(), "{ctx}");
                        assert_eq!(perm.apply(masked_out), (1u64 << perm.masked_bits) - 1, "{ctx}");
                        for _ in 0..8 {
                            let a = next(&mut rng) & kmer_bits(k);
                            let b = next(&mut rng) & kmer_bits(k);
                            assert_eq!(perm.invert(perm.apply(a)), a, "{ctx}");
                            assert_eq!(
                                hamming_distance(perm.apply(a), perm.apply(b)),
                                hamming_distance(a, b),
                                "{ctx}"
                            );
                            // Order within the kept group is kept: equal
                            // kept chunks <=> equal key prefix.
                            let same_kept = (a & !masked_out) | (b & masked_out);
                            assert_eq!(
                                perm.apply(same_kept) >> perm.masked_bits,
                                perm.apply(a) >> perm.masked_bits,
                                "{ctx}"
                            );
                        }
                    }
                }
            }
        }
    }

    /// An empty spectrum still builds a directory, and every probe of it —
    /// also at k = 32, where a key fills the word — answers `[]`.
    #[test]
    fn empty_spectrum_answers_nothing() {
        for k in [2usize, 9, 32] {
            let sp = KSpectrum::from_sorted(k, Vec::new(), Vec::new()).unwrap();
            for d in 1..=2usize.min(k - 1) {
                for chunks in d + 1..=k.min(6) {
                    let idx =
                        NeighborIndex::build(&sp, d, NeighborStrategy::MaskedReplicas { chunks });
                    for q in [0, 1, kmer_bits(k) / 3, kmer_bits(k)] {
                        assert_eq!(idx.neighbors(q, d), Vec::<usize>::new());
                    }
                }
            }
        }
    }

    #[test]
    fn query_with_bits_above_2k_has_no_neighbours() {
        let sp = spectrum_of(&[b"AAAAA", b"AAAAC", b"TTTTT"]);
        let idx = NeighborIndex::build(&sp, 1, NeighborStrategy::MaskedReplicas { chunks: 3 });
        assert_eq!(idx.neighbors(1 << 10, 1), Vec::<usize>::new());
        assert_eq!(idx.neighbors(u64::MAX, 1), Vec::<usize>::new());
    }

    #[test]
    fn brute_force_finds_distance_one() {
        let sp = spectrum_of(&[b"ACGTA", b"ACGTT", b"ACGGA", b"TTTTT"]);
        let idx = NeighborIndex::build(&sp, 1, NeighborStrategy::BruteForce);
        let q = encode_kmer(b"ACGTA").unwrap();
        let ns = idx.neighbors(q, 1);
        let found: Vec<Vec<u8>> =
            ns.iter().map(|&i| crate::packed::decode_kmer(sp.kmers()[i], 5)).collect();
        assert!(found.contains(&b"ACGTT".to_vec()));
        assert!(found.contains(&b"ACGGA".to_vec()));
        assert_eq!(found.len(), 2);
    }

    #[test]
    fn replicas_match_brute_force_on_fixed_set() {
        let sp = spectrum_of(&[
            b"ACGTACGTACGTA",
            b"ACGTACGTACGTT",
            b"ACGAACGTACGTA",
            b"TCGTACGTACGTA",
            b"ACGTACGTACGGG",
            b"TTTTTTTTTTTTT",
        ]);
        for d in 1..=2usize {
            check_against_brute_force(&sp, d, sp.kmers()).unwrap();
        }
    }

    #[test]
    fn query_never_returns_self() {
        let sp = spectrum_of(&[b"AAAAA", b"AAAAC"]);
        let idx = NeighborIndex::build(&sp, 2, NeighborStrategy::MaskedReplicas { chunks: 4 });
        let q = encode_kmer(b"AAAAA").unwrap();
        let ns = idx.neighbors(q, 2);
        assert_eq!(ns.len(), 1);
        assert_eq!(sp.kmers()[ns[0]], encode_kmer(b"AAAAC").unwrap());
    }

    #[test]
    fn unobserved_query_still_answered() {
        let sp = spectrum_of(&[b"AAAAA", b"CCCCC"]);
        let idx = NeighborIndex::build(&sp, 1, NeighborStrategy::MaskedReplicas { chunks: 3 });
        // Query a k-mer not present in the spectrum.
        let q = encode_kmer(b"AAAAC").unwrap();
        let ns = idx.neighbors(q, 1);
        assert_eq!(ns.len(), 1);
        assert_eq!(sp.kmers()[ns[0]], encode_kmer(b"AAAAA").unwrap());
    }

    #[test]
    fn into_variants_reuse_the_buffer() {
        let sp = spectrum_of(&[b"ACGTA", b"ACGTT", b"ACGGA", b"TTTTT"]);
        let idx = NeighborIndex::build(&sp, 1, NeighborStrategy::MaskedReplicas { chunks: 3 });
        let q = encode_kmer(b"ACGTA").unwrap();
        let mut indices = vec![99, 98, 97];
        idx.neighbors_into(q, 1, &mut indices);
        assert_eq!(indices, idx.neighbors(q, 1));
        let mut kmers = vec![0; 5];
        idx.neighbor_kmers_into(q, 1, &mut kmers);
        assert_eq!(kmers, indices.iter().map(|&i| sp.kmers()[i]).collect::<Vec<_>>());
        let mut counted = vec![(7, 7)];
        idx.neighbor_counts_into(q, 1, &mut counted);
        let want: Vec<_> = indices.iter().map(|&i| (sp.kmers()[i], sp.counts()[i])).collect();
        assert_eq!(counted, want);
        idx.neighbors_into(encode_kmer(b"GGGGG").unwrap(), 1, &mut indices);
        assert!(indices.is_empty());
    }

    #[test]
    fn tables_view_matches_owned_index() {
        let sp =
            spectrum_of(&[b"ACGTACGTACGTA", b"ACGTACGTACGTT", b"ACGAACGTACGTA", b"TCGTACGTACGTA"]);
        let tables = NeighborTables::build(&sp, 2, NeighborStrategy::MaskedReplicas { chunks: 4 });
        let owned = NeighborIndex::build(&sp, 2, NeighborStrategy::MaskedReplicas { chunks: 4 });
        // Two independent views over the same tables answer identically.
        let v1 = tables.view(&sp);
        let v2 = tables.view(&sp);
        for &q in sp.kmers() {
            assert_eq!(v1.neighbors(q, 2), owned.neighbors(q, 2));
            assert_eq!(v2.neighbors(q, 2), owned.neighbors(q, 2));
        }
        assert_eq!(tables.replica_count(), v1.replica_count());
        assert_eq!(tables.d(), 2);
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn tables_view_rejects_mismatched_spectrum() {
        let sp = spectrum_of(&[b"AAAAA", b"CCCCC"]);
        let other = spectrum_of(&[b"AAAAA", b"CCCCC", b"GGGGG"]);
        let tables = NeighborTables::build(&sp, 1, NeighborStrategy::MaskedReplicas { chunks: 3 });
        let _ = tables.view(&other);
    }

    #[test]
    fn full_adjacency_is_symmetric() {
        let sp = spectrum_of(&[b"ACGTA", b"ACGTT", b"ACGGA", b"GCGGA"]);
        let idx = NeighborIndex::build(&sp, 1, NeighborStrategy::MaskedReplicas { chunks: 3 });
        let adj = idx.full_adjacency(1);
        for (i, ns) in adj.iter().enumerate() {
            for &j in ns {
                assert!(adj[j as usize].contains(&(i as u32)), "edge {i}-{j} not symmetric");
            }
        }
        let brute = NeighborIndex::build(&sp, 1, NeighborStrategy::BruteForce);
        assert_eq!(adj, brute.full_adjacency(1));
    }

    /// The graph's rows as the probe-every-k-mer adjacency would list them:
    /// node first, then the neighbours, ascending.
    fn rows_of(adjacency: &[Vec<u32>]) -> HammingGraph {
        let (mut offsets, mut nbr) = (vec![0u32], Vec::new());
        for (l, row) in adjacency.iter().enumerate() {
            nbr.push(l as u32);
            nbr.extend_from_slice(row);
            offsets.push(nbr.len() as u32);
        }
        HammingGraph { offsets, nbr }
    }

    #[test]
    fn hamming_graph_on_fixed_set() {
        let sp = spectrum_of(&[b"ACGTA", b"ACGTT", b"ACGGA", b"GCGGA", b"TTTTT"]);
        let graph = HammingGraph::build(&sp, 1, 3);
        let idx = NeighborIndex::build(&sp, 1, NeighborStrategy::MaskedReplicas { chunks: 3 });
        assert_eq!(graph, rows_of(&idx.full_adjacency(1)));
        // TTTTT has no neighbour: its row is itself.
        let lone = sp.index_of(encode_kmer(b"TTTTT").unwrap()).unwrap();
        assert_eq!(graph.offsets[lone + 1] - graph.offsets[lone], 1);
        let empty = KSpectrum::from_sorted(5, Vec::new(), Vec::new()).unwrap();
        assert_eq!(HammingGraph::build(&empty, 2, 4).into_parts(), (vec![0], vec![]));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The self-join finds each edge once and exactly the edges that
        /// probing every k-mer finds, for every legal chunk count, against
        /// both the masked-replica and the brute-force probe.
        #[test]
        fn hamming_graph_equals_full_adjacency(
            k in 2usize..=14,
            d in 1usize..=2,
            n in prop_oneof![Just(0usize), Just(1), Just(2), 3usize..64, 64usize..3000],
            seed in any::<u64>(),
        ) {
            let d = d.min(k - 1);
            let (sp, _) = random_spectrum(k, n, seed);
            let brute = NeighborIndex::build(&sp, d, NeighborStrategy::BruteForce);
            let want = brute.full_adjacency(d);
            for chunks in d + 1..=k.min(6) {
                prop_assert_eq!(HammingGraph::build(&sp, d, chunks), rows_of(&want));
                let masked = NeighborIndex::build(&sp, d, NeighborStrategy::MaskedReplicas { chunks });
                prop_assert_eq!(&masked.full_adjacency(d), &want);
            }
        }
    }

    /// A random spectrum of about `n` k-mers in which neighbours exist also
    /// at large k: half the draws mutate up to three bases of an earlier
    /// k-mer. Returns it with queries inside it, near it and anywhere.
    fn random_spectrum(k: usize, n: usize, seed: u64) -> (KSpectrum, Vec<Kmer>) {
        let mut rng = seed;
        let mutant = |rng: &mut u64, v: Kmer| {
            (0..next(rng) % 4).fold(v, |m, _| {
                mutate_base(m, k, (next(rng) % k as u64) as usize, 1 + (next(rng) % 3) as u8)
            })
        };
        let mut drawn: Vec<Kmer> = Vec::with_capacity(n);
        for i in 0..n {
            let v = if i > 0 && next(&mut rng) & 1 == 0 {
                let parent = drawn[(next(&mut rng) % i as u64) as usize];
                mutant(&mut rng, parent)
            } else {
                next(&mut rng) & kmer_bits(k)
            };
            drawn.push(v);
        }
        let mut queries: Vec<Kmer> = Vec::new();
        for _ in 0..24 {
            if !drawn.is_empty() {
                let inside = drawn[(next(&mut rng) % drawn.len() as u64) as usize];
                queries.push(inside);
                queries.push(mutant(&mut rng, inside));
            }
            queries.push(next(&mut rng) & kmer_bits(k));
        }
        let map: FxHashMap<Kmer, u32> =
            drawn.into_iter().map(|v| (v, 1 + (v % 7) as u32)).collect();
        (KSpectrum::from_map(map, k), queries)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// ROADMAP 4(b): the masked-replica index against the brute-force
        /// oracle for every legal chunk count — k not divisible by the
        /// chunk count, k = d + 1, empty and one-element spectra included —
        /// and brute force itself against an exhaustive scan.
        #[test]
        fn masked_replicas_equal_brute_force_for_every_chunk_count(
            k in 2usize..=16,
            d in 1usize..=2,
            n in prop_oneof![Just(0usize), Just(1), Just(2), 3usize..64, 64usize..5000],
            seed in any::<u64>(),
        ) {
            let d = d.min(k - 1);
            let (sp, queries) = random_spectrum(k, n, seed);
            if let Err(e) = check_against_brute_force(&sp, d, &queries) {
                return Err(TestCaseError::fail(e));
            }
            let brute = NeighborIndex::build(&sp, d, NeighborStrategy::BruteForce);
            for &q in queries.iter().take(12) {
                let truth: Vec<usize> = sp.kmers().iter().enumerate()
                    .filter(|&(_, &v)| v != q && hamming_distance(v, q) as usize <= d)
                    .map(|(i, _)| i)
                    .collect();
                prop_assert_eq!(brute.neighbors(q, d), truth);
            }
        }
    }
}
