//! Tiles — `l`-concatenations of two k-mers (Definitions 2.1–2.2).
//!
//! A tile `t = α₁ ||_l α₂` covers `m = 2k − l` bases. With `k ≤ 16` a tile
//! packs into a `u64` exactly like a k-mer. The tile table records, for every
//! tile observed in the reads (both strands), its multiplicity `O_c` and its
//! high-quality multiplicity `O_g` — the number of instances in which *every*
//! base has quality above `Q_c` (§2.3 "Tile Correction").

use crate::extract::for_each_kmer;
use crate::packed::{reverse_complement_packed, Kmer};
use ngs_core::hash::FxHashMap;
use ngs_core::Read;
use rayon::prelude::*;

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
    map: FxHashMap<Tile, TileCounts>,
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
        self.map.len()
    }

    /// True when no tile was observed.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Counts for `tile` (zero counts if unobserved).
    #[inline]
    pub fn counts(&self, tile: Tile) -> TileCounts {
        self.map.get(&tile).copied().unwrap_or_default()
    }

    /// High-quality count `O_g` of `tile`.
    #[inline]
    pub fn og(&self, tile: Tile) -> u32 {
        self.counts(tile).og
    }

    /// Iterate `(tile, counts)` pairs (arbitrary order).
    pub fn iter(&self) -> impl Iterator<Item = (Tile, TileCounts)> + '_ {
        self.map.iter().map(|(&t, &c)| (t, c))
    }

    /// Reassemble a table from `(tile, counts)` entries — the inverse of
    /// [`TileTable::iter`], used for checkpoint restore. Duplicate tiles sum
    /// their counts.
    ///
    /// # Panics
    /// Panics unless `1 ≤ k ≤ 16` and `l < k`, like [`TileTable::build`].
    pub fn from_parts(
        k: usize,
        l: usize,
        entries: impl IntoIterator<Item = (Tile, TileCounts)>,
    ) -> TileTable {
        assert!((1..=16).contains(&k), "tile table requires k in 1..=16");
        assert!(l < k, "overlap l must be < k");
        let entries = entries.into_iter();
        let mut map: FxHashMap<Tile, TileCounts> = FxHashMap::default();
        map.reserve(entries.size_hint().0);
        for (t, c) in entries {
            let e = map.entry(t).or_default();
            e.oc += c.oc;
            e.og += c.og;
        }
        TileTable { k, l, map }
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
        assert!((1..=16).contains(&k), "tile table requires k in 1..=16");
        assert!(l < k, "overlap l must be < k");
        let m = 2 * k - l;
        let chunk = (reads.len() / (rayon::current_num_threads() * 4)).max(256);
        let map = reads
            .par_chunks(chunk)
            .map(|chunk| {
                let mut table: FxHashMap<Tile, TileCounts> = FxHashMap::default();
                let mut lowq_prefix: Vec<u32> = Vec::new();
                for r in chunk {
                    // Prefix sums of low-quality positions allow O(1)
                    // "window all-high-quality?" checks.
                    lowq_prefix.clear();
                    lowq_prefix.push(0);
                    match &r.qual {
                        Some(q) => {
                            for &s in q {
                                let last = *lowq_prefix.last().unwrap();
                                lowq_prefix.push(last + u32::from(s <= q_c));
                            }
                        }
                        None => lowq_prefix.resize(r.seq.len() + 1, 0),
                    }
                    for_each_kmer(&r.seq, m, |pos, tile| {
                        let hq = lowq_prefix[pos + m] == lowq_prefix[pos];
                        let e = table.entry(tile).or_default();
                        e.oc += 1;
                        e.og += u32::from(hq);
                        // Reverse-complement instance: same base qualities.
                        let rc = reverse_complement_packed(tile, m);
                        let e = table.entry(rc).or_default();
                        e.oc += 1;
                        e.og += u32::from(hq);
                    });
                }
                table
            })
            .reduce(FxHashMap::default, |a, b| {
                let (mut big, small) = if a.len() >= b.len() { (a, b) } else { (b, a) };
                for (t, c) in small {
                    let e = big.entry(t).or_default();
                    e.oc += c.oc;
                    e.og += c.og;
                }
                big
            });
        TileTable { k, l, map }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packed::{decode_kmer, encode_kmer};
    use proptest::prelude::*;

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
