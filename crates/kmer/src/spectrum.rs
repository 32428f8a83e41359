//! The k-spectrum `R^k` with occurrence counts.
//!
//! Following §2.2, the spectrum of a read set is the union of the k-spectra
//! of all reads **and their reverse complements** (double-strandedness,
//! §2.3). It is stored as a sorted array of `(kmer, count)` behind a
//! [`BucketDirectory`], so membership and count queries scan one short
//! bucket, and the neighbour index (§2.3 Phase 1) can keep masked-sorted
//! permutations of the same array. It is built by sorted passes like the
//! tile table: k-mer instances grouped by top bits, each group sorted and
//! counted — no hash map.

use crate::directory::{prefetch, BucketDirectory, Partitioned};
use crate::extract::for_each_kmer;
use crate::packed::{reverse_complement_packed, Kmer};
#[cfg(test)]
use ngs_core::hash::FxHashMap;
use ngs_core::{NgsError, Read};
use rayon::prelude::*;

/// A sorted k-spectrum: parallel arrays of distinct k-mers and their counts.
#[derive(Debug, Clone)]
pub struct KSpectrum {
    k: usize,
    kmers: Vec<Kmer>,
    counts: Vec<u32>,
    /// Buckets of `kmers` by their top bits.
    dir: BucketDirectory,
}

impl KSpectrum {
    /// Build the spectrum of `reads` (single strand only).
    pub fn from_reads(reads: &[Read], k: usize) -> KSpectrum {
        Self::build(reads, k, false)
    }

    /// Build the spectrum of `reads` plus their reverse complements.
    pub fn from_reads_both_strands(reads: &[Read], k: usize) -> KSpectrum {
        Self::build(reads, k, true)
    }

    fn build(reads: &[Read], k: usize, both_strands: bool) -> KSpectrum {
        let chunk = (reads.len() / (rayon::current_num_threads() * 4)).max(256);
        Self::build_chunked(reads, k, both_strands, chunk)
    }

    /// [`KSpectrum::build`] over chunks of `chunk` reads, in the tile table's
    /// shape: every chunk collects its k-mer instances grouped by the
    /// k-mer's top bits, then every partition gathers its instances from
    /// all chunks, sorts them and counts each k-mer. Partitions ascend, so
    /// the spectrum is their concatenation and depends on neither the chunk
    /// size nor the thread count.
    ///
    /// # Panics
    /// Panics unless `1 ≤ k ≤ 32`.
    fn build_chunked(reads: &[Read], k: usize, both_strands: bool, chunk: usize) -> KSpectrum {
        assert!((1..=32).contains(&k), "a k-spectrum needs k in 1..=32, got {k}");
        let key_bits = 2 * k as u32;
        let strands = 1 + usize::from(both_strands);
        let chunks: Vec<Partitioned> = reads
            .par_chunks(chunk)
            .map(|chunk| {
                let most: usize = chunk.iter().map(|r| (r.len() + 1).saturating_sub(k)).sum();
                let mut instances = Vec::with_capacity(most * strands);
                for r in chunk {
                    for_each_kmer(&r.seq, k, |_, v| {
                        instances.push(v);
                        if both_strands {
                            instances.push(reverse_complement_packed(v, k));
                        }
                    });
                }
                Partitioned::group(instances, key_bits, |&v| v)
            })
            .collect();
        let runs: Vec<(Vec<Kmer>, Vec<u32>)> = (0..Partitioned::count(key_bits))
            .into_par_iter()
            .map(|p| count_runs(&Partitioned::gather_sorted(chunks.iter(), p)))
            .collect();
        drop(chunks);
        let kmers = runs.iter().flat_map(|(kmers, _)| kmers).copied().collect();
        let counts = runs.iter().flat_map(|(_, counts)| counts).copied().collect();
        Self::from_ascending(k, kmers, counts)
    }

    /// Build from an explicit `(kmer -> count)` map.
    ///
    /// # Panics
    /// Panics unless `1 ≤ k ≤ 32` and every key is a k-mer of that length.
    #[cfg(test)]
    pub(crate) fn from_map(map: FxHashMap<Kmer, u32>, k: usize) -> KSpectrum {
        let mut pairs: Vec<(Kmer, u32)> = map.into_iter().collect();
        pairs.sort_unstable_by_key(|&(v, _)| v);
        let (kmers, counts): (Vec<Kmer>, Vec<u32>) = pairs.into_iter().unzip();
        Self::from_sorted(k, kmers, counts).expect("the keys of a k-mer map are distinct k-mers")
    }

    /// Build from pre-sorted, deduplicated parallel arrays.
    ///
    /// The invariant is validated unconditionally — also in release builds —
    /// because every `count`/`index_of` lookup goes through a directory over
    /// the sorted `kmers`: accepting unsorted or duplicated input would not
    /// crash, it would silently return wrong counts for the rest of the run.
    ///
    /// # Errors
    /// [`NgsError::InvalidParameter`] when `k` is outside `1..=32`, the
    /// arrays differ in length, `kmers` is not strictly increasing (i.e.
    /// unsorted or containing duplicates; the message names the first
    /// offending index), or a k-mer has bits above `2k`.
    pub fn from_sorted(
        k: usize,
        kmers: Vec<Kmer>,
        counts: Vec<u32>,
    ) -> Result<KSpectrum, NgsError> {
        if !(1..=32).contains(&k) {
            return Err(NgsError::InvalidParameter(format!(
                "KSpectrum::from_sorted: k must be in 1..=32, got {k}"
            )));
        }
        if kmers.len() != counts.len() {
            return Err(NgsError::InvalidParameter(format!(
                "KSpectrum::from_sorted: {} kmers but {} counts",
                kmers.len(),
                counts.len()
            )));
        }
        if let Some(i) = (1..kmers.len()).find(|&i| kmers[i - 1] >= kmers[i]) {
            return Err(NgsError::InvalidParameter(format!(
                "KSpectrum::from_sorted: kmers not strictly increasing at index {i} \
                 ({:#x} then {:#x})",
                kmers[i - 1],
                kmers[i]
            )));
        }
        // Ascending, so the last k-mer is the largest.
        if let Some(&last) = kmers.last().filter(|&&v| k < 32 && v >> (2 * k) != 0) {
            return Err(NgsError::InvalidParameter(format!(
                "KSpectrum::from_sorted: {last:#x} is not a {k}-mer (bits above {})",
                2 * k
            )));
        }
        Ok(Self::from_ascending(k, kmers, counts))
    }

    /// The spectrum over `kmers`, which the caller guarantees are strictly
    /// ascending `k`-mers with `1 ≤ k ≤ 32`, and their `counts`.
    fn from_ascending(k: usize, kmers: Vec<Kmer>, counts: Vec<u32>) -> KSpectrum {
        let key_bits = 2 * k as u32;
        let dir = BucketDirectory::build(key_bits, key_bits, kmers.iter().copied());
        KSpectrum { k, kmers, counts, dir }
    }

    /// The k this spectrum was built with.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of distinct k-mers.
    pub fn len(&self) -> usize {
        self.kmers.len()
    }

    /// True when no k-mer was observed.
    pub fn is_empty(&self) -> bool {
        self.kmers.is_empty()
    }

    /// The sorted distinct k-mers.
    pub fn kmers(&self) -> &[Kmer] {
        &self.kmers
    }

    /// Counts parallel to [`KSpectrum::kmers`].
    pub fn counts(&self) -> &[u32] {
        &self.counts
    }

    /// Index of `kmer` in the sorted array, if present: one directory
    /// lookup and a scan of the k-mer's bucket.
    #[inline]
    pub fn index_of(&self, kmer: Kmer) -> Option<usize> {
        let bucket = self.dir.range(kmer);
        let at = bucket.start + self.kmers[bucket].iter().position(|&v| v >= kmer)?;
        (self.kmers[at] == kmer).then_some(at)
    }

    /// Start loading the directory entry [`KSpectrum::index_of`] reads
    /// first for `kmer`. For a batch of lookups, call this for every k-mer,
    /// then [`KSpectrum::prefetch_bucket`] for every k-mer, then `index_of`:
    /// the batch's loads then overlap. Any word is accepted.
    #[inline]
    pub fn prefetch_directory(&self, kmer: Kmer) {
        self.dir.prefetch(kmer);
    }

    /// Start loading the first key of `kmer`'s bucket, which
    /// [`KSpectrum::index_of`] scans; reads the directory entry that
    /// [`KSpectrum::prefetch_directory`] loads. Any word is accepted.
    #[inline]
    pub fn prefetch_bucket(&self, kmer: Kmer) {
        if let Some(first) = self.kmers.get(self.dir.range(kmer).start) {
            prefetch(first);
        }
    }

    /// Occurrence count of `kmer` (0 if absent).
    #[inline]
    pub fn count(&self, kmer: Kmer) -> u32 {
        self.index_of(kmer).map_or(0, |i| self.counts[i])
    }

    /// True iff `kmer` was observed.
    #[inline]
    pub fn contains(&self, kmer: Kmer) -> bool {
        self.index_of(kmer).is_some()
    }

    /// Total number of k-mer instances (sum of counts).
    pub fn total_instances(&self) -> u64 {
        self.counts.iter().map(|&c| c as u64).sum()
    }

    /// Iterate `(kmer, count)` pairs in sorted order.
    pub fn iter(&self) -> impl Iterator<Item = (Kmer, u32)> + '_ {
        self.kmers.iter().copied().zip(self.counts.iter().copied())
    }
}

/// The distinct k-mers of an ascending instance list and how often each
/// occurs.
fn count_runs(mut instances: &[Kmer]) -> (Vec<Kmer>, Vec<u32>) {
    let (mut kmers, mut counts) = (Vec::new(), Vec::new());
    while let Some(&kmer) = instances.first() {
        let run = instances.iter().take_while(|&&v| v == kmer).count();
        kmers.push(kmer);
        counts.push(run as u32);
        instances = &instances[run..];
    }
    (kmers, counts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packed::encode_kmer;
    use proptest::prelude::*;

    fn reads(seqs: &[&[u8]]) -> Vec<Read> {
        seqs.iter().enumerate().map(|(i, s)| Read::new(format!("r{i}"), s)).collect()
    }

    #[test]
    fn counts_single_strand() {
        let rs = reads(&[b"ACGTA", b"CGTAC"]);
        let sp = KSpectrum::from_reads(&rs, 3);
        assert_eq!(sp.count(encode_kmer(b"CGT").unwrap()), 2);
        assert_eq!(sp.count(encode_kmer(b"ACG").unwrap()), 1);
        assert_eq!(sp.count(encode_kmer(b"GGG").unwrap()), 0);
        assert_eq!(sp.total_instances(), 6);
    }

    #[test]
    fn both_strands_adds_revcomp() {
        let rs = reads(&[b"ACG"]);
        let sp = KSpectrum::from_reads_both_strands(&rs, 3);
        assert_eq!(sp.count(encode_kmer(b"ACG").unwrap()), 1);
        assert_eq!(sp.count(encode_kmer(b"CGT").unwrap()), 1);
        assert_eq!(sp.len(), 2);
    }

    #[test]
    fn palindromic_kmer_counted_twice_on_both_strands() {
        // ACGT is its own reverse complement.
        let rs = reads(&[b"ACGT"]);
        let sp = KSpectrum::from_reads_both_strands(&rs, 4);
        assert_eq!(sp.count(encode_kmer(b"ACGT").unwrap()), 2);
    }

    #[test]
    fn ambiguous_bases_skipped() {
        let rs = reads(&[b"ACNGT"]);
        let sp = KSpectrum::from_reads(&rs, 3);
        assert!(sp.is_empty());
    }

    #[test]
    fn from_sorted_accepts_valid_input() {
        let sp = KSpectrum::from_sorted(3, vec![1, 5, 9], vec![2, 1, 4]).unwrap();
        assert_eq!(sp.count(5), 1);
        assert_eq!(sp.count(9), 4);
        assert_eq!(sp.count(2), 0);
        assert!(KSpectrum::from_sorted(3, vec![], vec![]).unwrap().is_empty());
    }

    /// Regression (release-mode correctness): `from_sorted` used to only
    /// `debug_assert!` its invariant, so release builds accepted unsorted
    /// or duplicated input and binary-search lookups returned wrong counts.
    #[test]
    fn from_sorted_rejects_corrupt_input() {
        // Unsorted.
        let err = KSpectrum::from_sorted(3, vec![9, 1], vec![1, 1]).unwrap_err();
        assert!(err.to_string().contains("not strictly increasing"), "{err}");
        assert!(err.to_string().contains("index 1"), "{err}");
        // Duplicated.
        assert!(KSpectrum::from_sorted(3, vec![4, 4], vec![1, 1]).is_err());
        // Length mismatch.
        let err = KSpectrum::from_sorted(3, vec![1, 2], vec![1]).unwrap_err();
        assert!(err.to_string().contains("2 kmers but 1 counts"), "{err}");
        // A word with bits above 2k is no k-mer; a k outside 1..=32 has none.
        let err = KSpectrum::from_sorted(3, vec![1, 64], vec![1, 1]).unwrap_err();
        assert!(err.to_string().contains("not a 3-mer"), "{err}");
        assert!(KSpectrum::from_sorted(3, vec![1, 63], vec![1, 1]).is_ok());
        assert!(KSpectrum::from_sorted(32, vec![1, u64::MAX], vec![1, 1]).is_ok());
        for k in [0, 33, usize::MAX] {
            assert!(KSpectrum::from_sorted(k, vec![], vec![]).is_err(), "k={k}");
        }
    }

    #[test]
    fn sorted_invariant() {
        let rs = reads(&[b"TTTTACGTACGTAAAA"]);
        let sp = KSpectrum::from_reads(&rs, 5);
        assert!(sp.kmers().windows(2).all(|w| w[0] < w[1]));
    }

    /// The hash-map build the sorted passes replaced, kept as their oracle:
    /// count every instance (and its reverse complement) into a map, then
    /// sort the map.
    fn hash_map_build(reads: &[Read], k: usize, both_strands: bool) -> KSpectrum {
        let mut m: FxHashMap<Kmer, u32> = FxHashMap::default();
        for r in reads {
            for_each_kmer(&r.seq, k, |_, v| {
                *m.entry(v).or_insert(0) += 1;
                if both_strands {
                    *m.entry(reverse_complement_packed(v, k)).or_insert(0) += 1;
                }
            });
        }
        KSpectrum::from_map(m, k)
    }

    /// Reads over a short random genome (so k-mers repeat), with
    /// substitutions and the odd `N`.
    fn random_reads(n: usize, read_len: usize, seed: u64) -> Vec<Read> {
        let mut rng = seed;
        let mut next = move || crate::splitmix64(&mut rng);
        let genome: Vec<u8> = (0..3 * read_len).map(|_| b"ACGT"[(next() % 4) as usize]).collect();
        (0..n)
            .map(|i| {
                let at = (next() % (genome.len() - read_len + 1) as u64) as usize;
                let mut seq = genome[at..at + read_len].to_vec();
                for b in seq.iter_mut() {
                    match next() % 40 {
                        0 => *b = b'N',
                        1..=4 => *b = b"ACGT"[(next() % 4) as usize],
                        _ => {}
                    }
                }
                Read::new(format!("r{i}"), seq)
            })
            .collect()
    }

    #[test]
    fn build_does_not_depend_on_chunking() {
        let reads = random_reads(700, 36, 5);
        for both_strands in [false, true] {
            let want = hash_map_build(&reads, 7, both_strands);
            for chunk in [1, 7, 256, 700] {
                let got = KSpectrum::build_chunked(&reads, 7, both_strands, chunk);
                assert_eq!(got.kmers(), want.kmers(), "chunk {chunk}");
                assert_eq!(got.counts(), want.counts(), "chunk {chunk}");
            }
        }
    }

    /// Prefetching is a hint: for any word — absent, the largest key, above
    /// the key width — it panics nowhere and leaves every lookup as it was.
    #[test]
    fn prefetch_accepts_any_word_and_changes_nothing() {
        let reads = random_reads(300, 40, 9);
        for k in [1, 3, 11, 32] {
            let sp = KSpectrum::from_reads_both_strands(&reads, k);
            let empty = KSpectrum::from_sorted(k, vec![], vec![]).unwrap();
            let mask = u64::MAX >> (64 - 2 * k);
            let mut words: Vec<Kmer> = sp.kmers().iter().step_by(7).copied().collect();
            words.extend([0, 1, mask, mask.wrapping_add(1), u64::MAX, 1 << 63, mask << 1]);
            for spectrum in [&sp, &empty] {
                let copy = spectrum.clone();
                let before: Vec<Option<usize>> =
                    words.iter().map(|&v| spectrum.index_of(v)).collect();
                for &v in &words {
                    spectrum.prefetch_directory(v);
                    spectrum.prefetch_bucket(v);
                    spectrum.dir.prefetch(v);
                }
                let after: Vec<Option<usize>> =
                    words.iter().map(|&v| spectrum.index_of(v)).collect();
                assert_eq!(before, after, "k={k}");
                assert_eq!(spectrum.kmers(), copy.kmers(), "k={k}");
                assert_eq!(spectrum.counts(), copy.counts(), "k={k}");
                assert_eq!(spectrum.dir.starts(), copy.dir.starts(), "k={k}");
            }
        }
    }

    proptest! {
        /// The sorted-pass build against the hash-map build it replaced, on
        /// both strands and one, with `N`s, at every k — k = 1 (fewer key
        /// bits than partition bits) and k = 32 (a k-mer fills the word)
        /// included.
        #[test]
        fn sorted_build_matches_hash_map_build(
            k in prop_oneof![Just(1usize), Just(2), 3usize..=31, Just(32)],
            n in prop_oneof![Just(0usize), Just(1), 2usize..40, 40usize..400],
            both_strands in any::<bool>(),
            seed in any::<u64>(),
        ) {
            let reads = random_reads(n, k + 12, seed);
            let got = if both_strands {
                KSpectrum::from_reads_both_strands(&reads, k)
            } else {
                KSpectrum::from_reads(&reads, k)
            };
            let want = hash_map_build(&reads, k, both_strands);
            prop_assert_eq!(got.kmers(), want.kmers());
            prop_assert_eq!(got.counts(), want.counts());
        }

        /// The directory lookup against a binary search of the same array,
        /// for present k-mers, near misses, random words and words with
        /// bits above 2k — k = 1 and k = 32 (a k-mer fills the word) too.
        #[test]
        fn index_of_matches_binary_search(
            k in prop_oneof![Just(1usize), Just(2), 3usize..=31, Just(32)],
            n in prop_oneof![Just(0usize), Just(1), 2usize..50, 50usize..3000],
            seed in any::<u64>(),
        ) {
            let mut rng = seed;
            let mut next = move || crate::splitmix64(&mut rng);
            let mask = u64::MAX >> (64 - 2 * k);
            // Half the draws stay near an earlier one, so buckets fill.
            let mut drawn: Vec<Kmer> = Vec::with_capacity(n);
            for i in 0..n {
                let v = if i > 0 && next() & 1 == 0 {
                    drawn[(next() % i as u64) as usize] ^ (next() & 0xff)
                } else {
                    next()
                };
                drawn.push(v & mask);
            }
            let map: FxHashMap<Kmer, u32> =
                drawn.iter().map(|&v| (v, 1 + (v % 7) as u32)).collect();
            let sp = KSpectrum::from_map(map, k);
            let mut queries = drawn.clone();
            for &v in &drawn {
                queries.extend([v ^ 1, v.wrapping_add(1), v.wrapping_sub(1), next() & mask]);
            }
            queries.extend([0, mask, mask.wrapping_add(1), u64::MAX, 1 << 63, next()]);
            for q in queries {
                let want = sp.kmers().binary_search(&q).ok();
                prop_assert_eq!(sp.index_of(q), want);
                prop_assert_eq!(sp.contains(q), want.is_some());
                prop_assert_eq!(sp.count(q), want.map_or(0, |i| sp.counts()[i]));
            }
        }

        #[test]
        fn parallel_build_matches_sequential_count(
            seqs in proptest::collection::vec(
                proptest::collection::vec(
                    prop_oneof![Just(b'A'), Just(b'C'), Just(b'G'), Just(b'T')], 5..40),
                1..20),
        ) {
            let rs: Vec<Read> = seqs.iter().enumerate()
                .map(|(i, s)| Read::new(format!("r{i}"), s)).collect();
            let sp = KSpectrum::from_reads(&rs, 4);
            // Sequential reference count.
            let mut m: FxHashMap<Kmer, u32> = FxHashMap::default();
            for r in &rs {
                for w in r.seq.windows(4) {
                    *m.entry(encode_kmer(w).unwrap()).or_insert(0) += 1;
                }
            }
            prop_assert_eq!(sp.len(), m.len());
            for (kmer, c) in m {
                prop_assert_eq!(sp.count(kmer), c);
            }
        }
    }
}
