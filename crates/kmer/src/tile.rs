//! Tiles — `l`-concatenations of two k-mers (Definitions 2.1–2.2).
//!
//! A tile `t = α₁ ||_l α₂` covers `m = 2k − l` bases. With `k ≤ 16` a tile
//! packs into a `u64` exactly like a k-mer. The tile table records, for every
//! tile observed in the reads (both strands), its multiplicity `O_c` and its
//! high-quality multiplicity `O_g` — the number of instances in which *every*
//! base has quality above `Q_c` (§2.3 "Tile Correction").
//!
//! The table is one array of `(tile, O_c, O_g)` entries ascending by tile
//! behind a [`BucketDirectory`]. The first k-mer is the tile's high bits, so
//! the observed tiles that start with one k-mer are one contiguous run
//! ([`TileTable::first_kmer_run`]) — what Algorithm 1's d-mutant enumeration
//! scans instead of probing every candidate pair.

use crate::directory::{BucketDirectory, Partitioned};
use crate::extract::for_each_kmer;
use crate::packed::{reverse_complement_packed, Kmer};
use ngs_core::{NgsError, Read};
use rayon::prelude::*;
use std::mem::MaybeUninit;

/// A packed tile value (same encoding as a packed k-mer of length `2k − l`).
pub type Tile = u64;

/// Plain and high-quality occurrence counts of a tile.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TileCounts {
    /// Total occurrences `O_c`.
    pub oc: u32,
    /// High-quality occurrences `O_g` (every base quality > `Q_c`).
    pub og: u32,
}

/// One row of the tile table.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TileEntry {
    /// The packed tile.
    pub tile: Tile,
    /// Its occurrence counts.
    pub counts: TileCounts,
}

/// Compose a tile from two packed k-mers overlapping in `l` bases.
///
/// Returns `None` when the suffix of `a1` and the prefix of `a2` disagree on
/// the `l` shared bases (such a pair cannot form a tile).
#[inline]
pub fn compose_tile(a1: Kmer, a2: Kmer, k: usize, l: usize) -> Option<Tile> {
    debug_assert!(l < k);
    if l > 0 {
        let a1_suffix = a1 & ((1u64 << (2 * l)) - 1);
        let a2_prefix = a2 >> (2 * (k - l));
        if a1_suffix != a2_prefix {
            return None;
        }
    }
    let tail_bases = k - l;
    Some((a1 << (2 * tail_bases)) | (a2 & ((1u64 << (2 * tail_bases)) - 1)))
}

/// Split a tile back into its two constituent k-mers.
#[inline]
pub fn split_tile(tile: Tile, k: usize, l: usize) -> (Kmer, Kmer) {
    let m = 2 * k - l;
    let a1 = tile >> (2 * (m - k));
    let a2 = tile & ((1u64 << (2 * k)) - 1);
    (a1, a2)
}

/// The table of tile occurrences for a read set.
#[derive(Debug, Clone)]
pub struct TileTable {
    k: usize,
    l: usize,
    /// Ascending by tile, no tile twice.
    entries: Vec<TileEntry>,
    /// Buckets of `entries` by the tile's top bits.
    dir: BucketDirectory,
}

impl TileTable {
    /// Tile length in bases (`2k − l`).
    pub fn tile_len(&self) -> usize {
        2 * self.k - self.l
    }

    /// The k-mer length.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The k-mer overlap within a tile.
    pub fn overlap(&self) -> usize {
        self.l
    }

    /// Number of distinct tiles observed.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no tile was observed.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Counts for `tile` (zero counts if unobserved): one directory lookup
    /// and a scan of the tile's bucket.
    #[inline]
    pub fn counts(&self, tile: Tile) -> TileCounts {
        self.entries[self.dir.range(tile)]
            .iter()
            .find(|e| e.tile >= tile)
            .filter(|e| e.tile == tile)
            .map_or_else(TileCounts::default, |e| e.counts)
    }

    /// High-quality count `O_g` of `tile`.
    #[inline]
    pub fn og(&self, tile: Tile) -> u32 {
        self.counts(tile).og
    }

    /// Iterate `(tile, counts)` pairs, ascending by tile.
    pub fn iter(&self) -> impl Iterator<Item = (Tile, TileCounts)> + '_ {
        self.entries.iter().map(|e| (e.tile, e.counts))
    }

    /// The observed tiles whose first k-mer is `first`, ascending. The first
    /// k-mer is a tile's high `2k` bits, so they are contiguous; the
    /// directory finds where the run starts, also when it covers more bits
    /// than a first k-mer and the run spans several buckets.
    #[inline]
    pub fn first_kmer_run(&self, first: Kmer) -> &[TileEntry] {
        if first >> (2 * self.k) != 0 {
            return &[];
        }
        // Bits of a tile below its first k-mer; a first k-mer and its tail
        // fill at most the word, so neither shift overflows.
        let tail_bits = 2 * (self.k - self.l);
        let lo = first << tail_bits;
        let hi = lo | ((1u64 << tail_bits) - 1);
        let bucket = self.dir.range(lo);
        // Every later bucket holds larger tiles, so a bucket without a tile
        // >= lo still leaves `start` at the global lower bound.
        let start = bucket.start + self.entries[bucket].iter().take_while(|e| e.tile < lo).count();
        let len = self.entries[start..].iter().take_while(|e| e.tile <= hi).count();
        &self.entries[start..start + len]
    }

    /// Assemble a table from entries that are already ascending by tile —
    /// the inverse of [`TileTable::iter`], used for checkpoint restore.
    ///
    /// # Errors
    /// [`NgsError::InvalidParameter`] unless `1 ≤ k ≤ 16` and `l < k`;
    /// [`NgsError::MalformedRecord`] naming the first entry that is not
    /// larger than its predecessor (unsorted or duplicated) or has bits
    /// above the tile length `2(2k − l)`.
    pub fn from_sorted(k: usize, l: usize, entries: Vec<TileEntry>) -> Result<TileTable, NgsError> {
        if !(1..=16).contains(&k) || l >= k {
            return Err(NgsError::InvalidParameter(format!(
                "TileTable::from_sorted: need 1 <= k <= 16 and l < k, got k={k} l={l}"
            )));
        }
        let tile_bits = 2 * (2 * k - l);
        for (i, e) in entries.iter().enumerate() {
            if tile_bits < 64 && e.tile >> tile_bits != 0 {
                return Err(NgsError::MalformedRecord(format!(
                    "tile table: entry {i} ({:#x}) has bits above {tile_bits}",
                    e.tile
                )));
            }
            if i > 0 && entries[i - 1].tile >= e.tile {
                return Err(NgsError::MalformedRecord(format!(
                    "tile table: tiles not strictly increasing at entry {i} ({:#x} then {:#x})",
                    entries[i - 1].tile,
                    e.tile
                )));
            }
        }
        Ok(Self::from_ascending(k, l, entries))
    }

    /// The table over `entries`, which the caller guarantees are strictly
    /// ascending tiles of `2k − l` bases.
    fn from_ascending(k: usize, l: usize, entries: Vec<TileEntry>) -> TileTable {
        let tile_bits = 2 * (2 * k - l) as u32;
        let dir = BucketDirectory::build(tile_bits, tile_bits, entries.iter().map(|e| e.tile));
        TileTable { k, l, entries, dir }
    }

    /// Build the table from `reads` **and their reverse complements**, using
    /// `q_c` as the high-quality cutoff: an instance contributes to `O_g`
    /// only if every covered base has quality `> q_c`. Reads without quality
    /// strings contribute to `O_g` unconditionally (§2.3: "If a short read
    /// dataset comes with unreliable or missing quality score information, we
    /// set O_g = O_c").
    ///
    /// # Panics
    /// Panics unless `1 ≤ k ≤ 16` and `l < k` (so tiles fit in a `u64`).
    pub fn build(reads: &[Read], k: usize, l: usize, q_c: u8) -> TileTable {
        let chunk = (reads.len() / (rayon::current_num_threads() * 4)).max(256);
        Self::build_chunked(reads, k, l, q_c, chunk)
    }

    /// [`TileTable::build`] over chunks of `chunk` reads. A window and its
    /// reverse complement always come as a pair, so chunks collect one
    /// instance per window, its canonical tile `min(t, rc(t))`, grouped by
    /// the tile's top bits; then every such partition gathers its instances
    /// from all chunks, sorts them and counts each canonical tile.
    /// [`assemble`] adds the reverse complements. The table is the
    /// ascending array of a multiset's counts, so it depends on neither the
    /// chunk size nor the thread count.
    fn build_chunked(reads: &[Read], k: usize, l: usize, q_c: u8, chunk: usize) -> TileTable {
        assert!((1..=16).contains(&k), "tile table requires k in 1..=16");
        assert!(l < k, "overlap l must be < k");
        let m = 2 * k - l;
        let chunks: Vec<[Partitioned; 2]> =
            reads.par_chunks(chunk).map(|chunk| chunk_instances(chunk, m, q_c)).collect();
        let canonical: Vec<Vec<TileEntry>> = (0..Partitioned::count(2 * m as u32))
            .into_par_iter()
            .map(|p| {
                let [high, low] = [HIGH, LOW].map(|quality| {
                    Partitioned::gather_sorted(chunks.iter().map(|c| &c[quality]), p)
                });
                count_tiles(&high, &low, m)
            })
            .collect();
        drop(chunks);
        Self::from_ascending(k, l, assemble(canonical, m))
    }
}

/// Index into a chunk's pair of instance lists: instances whose bases are
/// all above `Q_c`, and the others. They are collected apart, so no instance
/// needs a flag bit beside a tile that may fill the word.
const HIGH: usize = 0;
const LOW: usize = 1;

/// The canonical tile of every window of `reads`, by quality class
/// ([`HIGH`], [`LOW`]).
fn chunk_instances(reads: &[Read], m: usize, q_c: u8) -> [Partitioned; 2] {
    let most: usize = reads.iter().map(|r| (r.len() + 1).saturating_sub(m)).sum();
    let mut instances = [Vec::with_capacity(most), Vec::new()];
    let mut lowq_prefix: Vec<u32> = Vec::new();
    for r in reads {
        // Prefix sums of low-quality positions allow O(1)
        // "window all-high-quality?" checks.
        lowq_prefix.clear();
        lowq_prefix.push(0);
        match &r.qual {
            Some(q) => {
                let mut below = 0;
                for &s in q {
                    below += u32::from(s <= q_c);
                    lowq_prefix.push(below);
                }
            }
            None => lowq_prefix.resize(r.seq.len() + 1, 0),
        }
        for_each_kmer(&r.seq, m, |pos, tile| {
            let quality = if lowq_prefix[pos + m] == lowq_prefix[pos] { HIGH } else { LOW };
            instances[quality].push(tile.min(reverse_complement_packed(tile, m)));
        });
    }
    instances.map(|tiles| Partitioned::group(tiles, 2 * m as u32, |&t| t))
}

/// Count each distinct canonical tile of two ascending instance lists:
/// `O_c` over both, `O_g` over `high`. Every instance stands for a window
/// and its reverse complement, so a palindrome (its own reverse
/// complement, possible when `m` is even) counts twice.
fn count_tiles(mut high: &[Tile], mut low: &[Tile], m: usize) -> Vec<TileEntry> {
    let run_of = |tiles: &[Tile], tile: Tile| tiles.iter().take_while(|&&t| t == tile).count();
    let mut out = Vec::new();
    while let Some(&tile) = [high.first(), low.first()].into_iter().flatten().min() {
        let (og, rest) = (run_of(high, tile), run_of(low, tile));
        let strands = 1 + usize::from(reverse_complement_packed(tile, m) == tile);
        let counts = TileCounts { oc: ((og + rest) * strands) as u32, og: (og * strands) as u32 };
        out.push(TileEntry { tile, counts });
        (high, low) = (&high[og..], &low[rest..]);
    }
    out
}

/// The table from the canonical entries of each partition: a canonical
/// tile that is not a palindrome stands for its reverse complement too,
/// with the same counts. Blocks of partitions, as many as the build has
/// chunks of reads, group their mirrored entries by the partition they land
/// in; then every partition gathers the mirrored entries it receives, sorts
/// them and merges them with its canonical ones straight into its slice of
/// the table, which is allocated once at its final size and written once.
fn assemble(canonical: Vec<Vec<TileEntry>>, m: usize) -> Vec<TileEntry> {
    let block = canonical.len().div_ceil(rayon::current_num_threads() * 4);
    let mirrored: Vec<Partitioned<TileEntry>> = canonical
        .par_chunks(block)
        .map(|partitions| {
            let mut mirrors = Vec::with_capacity(partitions.iter().map(Vec::len).sum());
            for e in partitions.iter().flatten() {
                let tile = reverse_complement_packed(e.tile, m);
                if tile != e.tile {
                    mirrors.push(TileEntry { tile, counts: e.counts });
                }
            }
            Partitioned::group(mirrors, 2 * m as u32, |e| e.tile)
        })
        .collect();
    let received = |p: usize| mirrored.iter().map(move |from| from.partition(p));
    let sizes: Vec<usize> = canonical
        .iter()
        .enumerate()
        .map(|(p, own)| own.len() + received(p).map(<[_]>::len).sum::<usize>())
        .collect();
    let total = sizes.iter().sum();
    let mut table = Vec::with_capacity(total);
    let mut slices = Vec::with_capacity(sizes.len());
    let mut rest = &mut table.spare_capacity_mut()[..total];
    for size in sizes {
        let (slice, tail) = rest.split_at_mut(size);
        slices.push(slice);
        rest = tail;
    }
    let jobs: Vec<_> = canonical.into_iter().zip(slices).enumerate().collect();
    jobs.into_par_iter().for_each(|(p, (own, slice))| {
        let mut mirrors = Vec::with_capacity(slice.len() - own.len());
        for from in received(p) {
            mirrors.extend_from_slice(from);
        }
        mirrors.sort_unstable_by_key(|e| e.tile);
        merge_into(&own, &mirrors, slice);
    });
    // SAFETY: the slices split the first `total` slots of the capacity
    // between them, and `merge_into` has written every slot of each (a
    // panicking job propagates before this line, leaving the length 0).
    unsafe { table.set_len(total) };
    table
}

/// Merge two ascending entry lists that share no tile into `out`, which is
/// exactly as long as both; every slot of `out` is written.
fn merge_into(a: &[TileEntry], b: &[TileEntry], out: &mut [MaybeUninit<TileEntry>]) {
    let (mut i, mut j) = (0, 0);
    for slot in out {
        if j == b.len() || (i < a.len() && a[i].tile < b[j].tile) {
            slot.write(a[i]);
            i += 1;
        } else {
            slot.write(b[j]);
            j += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packed::{decode_kmer, encode_kmer};
    use crate::splitmix64 as next;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    #[test]
    fn compose_zero_overlap() {
        let a1 = encode_kmer(b"ACG").unwrap();
        let a2 = encode_kmer(b"TTG").unwrap();
        let t = compose_tile(a1, a2, 3, 0).unwrap();
        assert_eq!(decode_kmer(t, 6), b"ACGTTG");
    }

    #[test]
    fn compose_with_overlap() {
        let a1 = encode_kmer(b"ACGT").unwrap();
        let a2 = encode_kmer(b"GTCC").unwrap();
        let t = compose_tile(a1, a2, 4, 2).unwrap();
        assert_eq!(decode_kmer(t, 6), b"ACGTCC");
    }

    #[test]
    fn compose_rejects_inconsistent_overlap() {
        let a1 = encode_kmer(b"ACGT").unwrap();
        let a2 = encode_kmer(b"CCCC").unwrap();
        assert_eq!(compose_tile(a1, a2, 4, 2), None);
    }

    #[test]
    fn split_inverts_compose() {
        let a1 = encode_kmer(b"ACGTA").unwrap();
        let a2 = encode_kmer(b"TACCC").unwrap();
        let t = compose_tile(a1, a2, 5, 2).unwrap();
        assert_eq!(split_tile(t, 5, 2), (a1, a2));
    }

    #[test]
    fn table_counts_both_strands() {
        let reads = vec![Read::new("r", b"ACGTTG")];
        let table = TileTable::build(&reads, 3, 0, 0);
        let fwd = encode_kmer(b"ACGTTG").unwrap();
        let rc = encode_kmer(b"CAACGT").unwrap();
        assert_eq!(table.counts(fwd).oc, 1);
        assert_eq!(table.counts(rc).oc, 1);
        assert_eq!(table.len(), 2);
    }

    #[test]
    fn high_quality_counting() {
        // Quality cutoff 20; one base below it poisons windows covering it.
        let mut q = vec![30u8; 8];
        q[4] = 10;
        let reads = vec![Read::with_qual("r", b"ACGTTGCA", q)];
        let table = TileTable::build(&reads, 3, 0, 20);
        // Window [0..6) covers position 4 -> not high quality.
        let t0 = encode_kmer(b"ACGTTG").unwrap();
        assert_eq!(table.counts(t0), TileCounts { oc: 1, og: 0 });
        // Its reverse complement instance inherits the same flag.
        let t0rc = encode_kmer(b"CAACGT").unwrap();
        assert_eq!(table.counts(t0rc), TileCounts { oc: 1, og: 0 });
    }

    #[test]
    fn missing_quals_count_as_high_quality() {
        let reads = vec![Read::new("r", b"ACGTTG")];
        let table = TileTable::build(&reads, 3, 0, 40);
        let t = encode_kmer(b"ACGTTG").unwrap();
        assert_eq!(table.counts(t), TileCounts { oc: 1, og: 1 });
    }

    #[test]
    fn ambiguous_bases_break_tiles() {
        let reads = vec![Read::new("r", b"ACGNTTG")];
        let table = TileTable::build(&reads, 2, 0, 0);
        // Valid length-4 windows avoiding N: none before N (only 3 bases),
        // "TTG" after N is 3 bases -> no length-4 window at all.
        assert!(table.is_empty());
    }

    /// Reads drawn from a short random genome (so tiles repeat), with
    /// substitutions, the odd `N`, and — when `with_quals` — qualities on
    /// both sides of a cutoff of 20.
    fn random_reads(n: usize, read_len: usize, with_quals: bool, seed: u64) -> Vec<Read> {
        let mut rng = seed;
        let genome: Vec<u8> =
            (0..3 * read_len).map(|_| b"ACGT"[(next(&mut rng) % 4) as usize]).collect();
        (0..n)
            .map(|i| {
                let at = (next(&mut rng) % (genome.len() - read_len + 1) as u64) as usize;
                let mut seq = genome[at..at + read_len].to_vec();
                for b in seq.iter_mut() {
                    match next(&mut rng) % 40 {
                        0 => *b = b'N',
                        1..=4 => *b = b"ACGT"[(next(&mut rng) % 4) as usize],
                        _ => {}
                    }
                }
                if with_quals {
                    let qual = (0..read_len).map(|_| 10 + (next(&mut rng) % 30) as u8).collect();
                    Read::with_qual(format!("r{i}"), seq, qual)
                } else {
                    Read::new(format!("r{i}"), seq)
                }
            })
            .collect()
    }

    /// The table as Definition 2.1 reads: every window of `m` unambiguous
    /// bases and its reverse complement, one at a time.
    fn model(reads: &[Read], m: usize, q_c: u8) -> BTreeMap<Tile, TileCounts> {
        let mut map: BTreeMap<Tile, TileCounts> = BTreeMap::new();
        for r in reads {
            for (at, window) in r.seq.windows(m).enumerate() {
                let Some(tile) = encode_kmer(window) else { continue };
                let hq = r.qual.as_ref().is_none_or(|q| q[at..at + m].iter().all(|&s| s > q_c));
                let rc = encode_kmer(&ngs_core::alphabet::reverse_complement(window)).unwrap();
                for t in [tile, rc] {
                    let c = map.entry(t).or_default();
                    c.oc += 1;
                    c.og += u32::from(hq);
                }
            }
        }
        map
    }

    /// Every query of `table` against the model of the same reads.
    fn check_against_model(table: &TileTable, reads: &[Read], q_c: u8, seed: u64) {
        let (k, l, m) = (table.k(), table.overlap(), table.tile_len());
        let want = model(reads, m, q_c);
        assert_eq!(table.len(), want.len());
        assert_eq!(table.is_empty(), want.is_empty());
        assert!(table.iter().eq(want.iter().map(|(&t, &c)| (t, c))), "iter must ascend");

        let tile_mask = u64::MAX >> (64 - 2 * m);
        let mut rng = seed;
        for (&t, &c) in &want {
            assert_eq!(table.counts(t), c);
            assert_eq!(table.og(t), c.og);
            // Near misses and random words, present or not.
            for probe in [t ^ 1, t.wrapping_add(1) & tile_mask, next(&mut rng) & tile_mask] {
                assert_eq!(table.counts(probe), want.get(&probe).copied().unwrap_or_default());
            }
            // The same tile with a bit above the tile length is no tile.
            if 2 * m < 64 {
                assert_eq!(table.counts(t | 1 << (2 * m)), TileCounts::default());
                assert_eq!(table.counts(t | 1 << 63), TileCounts::default());
            }
        }

        let run_of = |first: Kmer| -> Vec<(Tile, TileCounts)> {
            table.first_kmer_run(first).iter().map(|e| (e.tile, e.counts)).collect()
        };
        let kmer_mask = u64::MAX >> (64 - 2 * k);
        let mut by_first: BTreeMap<Kmer, Vec<(Tile, TileCounts)>> = BTreeMap::new();
        for (&t, &c) in &want {
            by_first.entry(split_tile(t, k, l).0).or_default().push((t, c));
        }
        let mut firsts: Vec<Kmer> = by_first.keys().copied().collect();
        firsts.extend([0, kmer_mask]);
        for first in firsts.clone() {
            firsts.extend([first ^ 1, next(&mut rng) & kmer_mask]);
        }
        for first in firsts {
            let expect = by_first.get(&first).cloned().unwrap_or_default();
            assert_eq!(run_of(first), expect, "k={k} l={l} first={first:#x}");
        }
        assert_eq!(run_of(kmer_mask + 1), vec![], "a word above 2k bits starts no tile");
        assert_eq!(run_of(u64::MAX), vec![]);
    }

    #[test]
    fn directory_wider_than_a_first_kmer() {
        // 4^6 possible tiles of which most occur: seven directory bits over
        // six bits of first k-mer, so a run spans two buckets.
        let reads = random_reads(120, 40, true, 11);
        let table = TileTable::build(&reads, 3, 0, 20);
        assert!(table.dir.bits() > 6, "{} tiles, {} bits", table.len(), table.dir.bits());
        check_against_model(&table, &reads, 20, 11);
    }

    #[test]
    fn tile_that_fills_the_word() {
        let reads = random_reads(60, 48, true, 12);
        let table = TileTable::build(&reads, 16, 0, 20);
        assert!(table.iter().any(|(t, _)| t >> 62 == 3), "some tile should start with T");
        check_against_model(&table, &reads, 20, 12);
    }

    #[test]
    fn build_does_not_depend_on_chunking() {
        let reads = random_reads(700, 36, true, 13);
        let whole = TileTable::build_chunked(&reads, 6, 1, 20, reads.len());
        check_against_model(&whole, &reads, 20, 13);
        for chunk in [1, 7, 256, 699] {
            let chunked = TileTable::build_chunked(&reads, 6, 1, 20, chunk);
            assert!(chunked.iter().eq(whole.iter()), "chunk size {chunk}");
            assert_eq!(chunked.dir.starts(), whole.dir.starts());
        }
        assert!(TileTable::build(&reads, 6, 1, 20).iter().eq(whole.iter()));
    }

    /// The windows the canonical build treats apart, against the model:
    /// palindromes (counted twice) at even tile lengths and none at odd
    /// ones, mirrored entries that land in their canonical tile's own
    /// partition and in another, a tile that fills the word, reads of `N`
    /// or shorter than a tile, and one tile seen on both sides of `Q_c`.
    #[test]
    fn canonical_build_matches_model_on_edge_windows() {
        let hq = |seq: &[u8]| Read::with_qual("hq", seq, vec![30; seq.len()]);
        let mut split_qual = vec![30; 12];
        split_qual[9] = 10;
        let reads = vec![
            hq(b"ACGCGT"),
            hq(b"ACGTACGTACGTACGTACGTACGTACGTACGT"),
            hq(b"AACCAGGTT"),
            hq(b"AAAAAAAAC"),
            Read::with_qual("split", b"AAAAACGTTTTT", split_qual),
            Read::new("n", b"NNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNN"),
            Read::new("short", b"ACG"),
        ];
        let tile = |s: &[u8]| encode_kmer(s).unwrap();
        for (k, l) in [(3, 0), (3, 1), (4, 2), (5, 1), (8, 0), (16, 0)] {
            for chunk in [1, reads.len()] {
                let table = TileTable::build_chunked(&reads, k, l, 20, chunk);
                check_against_model(&table, &reads, 20, 15);
                let m = table.tile_len();
                let palindromes =
                    table.iter().filter(|&(t, _)| reverse_complement_packed(t, m) == t).count();
                assert_eq!(palindromes > 0, m.is_multiple_of(2), "k={k} l={l}");
            }
        }
        let table = TileTable::build(&reads, 3, 0, 20);
        assert_eq!(table.counts(tile(b"ACGCGT")), TileCounts { oc: 2, og: 2 });
        // A high-quality window of AAAAAAAAC, then one in each quality
        // class of the split read: a tile and its mirror.
        for t in [b"AAAAAC", b"GTTTTT"] {
            assert_eq!(table.counts(tile(t)), TileCounts { oc: 3, og: 2 });
        }
        let table = TileTable::build(&reads, 16, 0, 20);
        assert_eq!(table.counts(tile(&reads[1].seq)), TileCounts { oc: 2, og: 2 });
        // m = 9 partitions on the top four bases: AACCAGGTT mirrors into its
        // own partition, AAAAAAAAC into GTTTTTTTT's.
        let table = TileTable::build(&reads, 5, 1, 20);
        for t in [&b"AACCAGGTT"[..], b"AACCTGGTT", b"AAAAAAAAC", b"GTTTTTTTT"] {
            assert_eq!(table.counts(tile(t)), TileCounts { oc: 1, og: 1 });
        }
    }

    /// Pins the built table to the bit — the value is what the hash-map
    /// build this one replaced produced, sorted. CI runs this at
    /// `NGS_THREADS=1` and `NGS_THREADS=4`, where `build` cuts 3000 reads
    /// into 4 and 12 chunks.
    #[test]
    fn build_golden_fingerprint() {
        let reads = random_reads(3000, 36, true, 14);
        let table = TileTable::build(&reads, 8, 0, 20);
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for (t, c) in table.iter() {
            for word in [t, u64::from(c.oc), u64::from(c.og)] {
                h = (h ^ word).wrapping_mul(0x1000_0000_01b3);
            }
        }
        assert_eq!((table.len(), h), (37_436, 17_864_949_275_598_188_359));
    }

    fn entry(tile: Tile, oc: u32, og: u32) -> TileEntry {
        TileEntry { tile, counts: TileCounts { oc, og } }
    }

    #[test]
    fn from_sorted_accepts_ascending_entries() {
        let table = TileTable::from_sorted(3, 1, vec![entry(5, 2, 1), entry(9, 1, 0)]).unwrap();
        assert_eq!(table.counts(9), TileCounts { oc: 1, og: 0 });
        assert_eq!(table.counts(6), TileCounts::default());
        assert_eq!(table.iter().count(), 2);
        assert!(TileTable::from_sorted(16, 0, vec![entry(u64::MAX, 1, 1)]).is_ok());
        assert!(TileTable::from_sorted(3, 1, Vec::new()).unwrap().is_empty());
    }

    /// A checkpoint's tile section is outside input: duplicates used to sum
    /// silently and stray bits were accepted.
    #[test]
    fn from_sorted_rejects_corrupt_entries() {
        let malformed =
            |entries: Vec<TileEntry>, what: &str| match TileTable::from_sorted(3, 1, entries) {
                Err(NgsError::MalformedRecord(msg)) => assert!(msg.contains(what), "{msg}"),
                other => panic!("expected a malformed-record error, got {other:?}"),
            };
        malformed(vec![entry(1, 1, 1), entry(4, 1, 1), entry(4, 2, 2)], "at entry 2");
        malformed(vec![entry(1, 1, 1), entry(9, 1, 1), entry(4, 1, 1), entry(2, 1, 1)], "entry 2");
        // k = 3, l = 1: a tile is 5 bases, 10 bits.
        malformed(vec![entry(1, 1, 1), entry(1 << 10, 1, 1)], "entry 1");
        malformed(vec![entry(u64::MAX, 1, 1)], "entry 0");
        for (k, l) in [(0, 0), (17, 0), (4, 4)] {
            assert!(matches!(
                TileTable::from_sorted(k, l, Vec::new()),
                Err(NgsError::InvalidParameter(_))
            ));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The sorted table against a `BTreeMap` filled one instance at a
        /// time: small k (directory wider than a first k-mer), overlaps,
        /// and tiles that fill the word.
        #[test]
        fn table_matches_model(
            kl in prop_oneof![
                (1usize..=3, Just(0usize)),
                (2usize..=8, 1usize..=7),
                (4usize..=12, Just(0usize)),
                (Just(16usize), 0usize..=2),
            ],
            n in prop_oneof![Just(0usize), Just(1), 2usize..40, 40usize..300],
            with_quals in any::<bool>(),
            seed in any::<u64>(),
        ) {
            let (k, l) = (kl.0, kl.1.min(kl.0 - 1));
            let reads = random_reads(n, (2 * k - l).max(8) + 12, with_quals, seed);
            let table = TileTable::build(&reads, k, l, 20);
            check_against_model(&table, &reads, 20, seed);
        }
    }

    proptest! {
        #[test]
        fn compose_split_round_trip(
            s1 in proptest::collection::vec(
                prop_oneof![Just(b'A'), Just(b'C'), Just(b'G'), Just(b'T')], 6..=6),
            s2tail in proptest::collection::vec(
                prop_oneof![Just(b'A'), Just(b'C'), Just(b'G'), Just(b'T')], 4..=4),
            l in 0usize..=2,
        ) {
            // Construct a2 to agree with a1 on the l-overlap.
            let k = 6;
            let mut s2 = s1[(k - l)..].to_vec();
            s2.extend_from_slice(&s2tail);
            s2.truncate(k);
            while s2.len() < k { s2.push(b'A'); }
            let a1 = encode_kmer(&s1).unwrap();
            let a2 = encode_kmer(&s2).unwrap();
            let t = compose_tile(a1, a2, k, l).unwrap();
            prop_assert_eq!(split_tile(t, k, l), (a1, a2));
            // Decoded tile is the l-concatenation of the strings.
            let mut expect = s1.clone();
            expect.extend_from_slice(&s2[l..]);
            prop_assert_eq!(decode_kmer(t, 2 * k - l), expect);
        }
    }
}
