//! The bucket directory shared by every table in this crate.
//!
//! A replica of the neighbour index, the tile table and the k-spectrum are
//! all "packed words, ascending, in one contiguous array". A directory over
//! the top bits of the word says where each bucket of about four words
//! starts, so a lookup reads two directory entries and scans one cache line
//! instead of binary-searching the whole array.
//!
//! A caller with many keys to look up at once can [`prefetch`] each key's
//! directory entry, then each bucket's first key, before the lookups: the
//! loads of all keys are then in flight together instead of one after the
//! other.

use std::ops::Range;

/// Where each bucket of a key array starts; the bucket of a key is its top
/// [`BucketDirectory::bits`] bits.
#[derive(Debug, Clone)]
pub struct BucketDirectory {
    /// `key >> shift` is the key's bucket.
    shift: u32,
    /// Bucket `b` is positions `starts[b]..starts[b + 1]` of the key array.
    starts: Vec<u32>,
}

impl BucketDirectory {
    /// Count `keys` (each `key_bits` wide, in any order) into buckets of
    /// about four keys. The directory uses at most `max_bits` of the key, so
    /// a caller whose keys share a prefix of that width never has the prefix
    /// split over buckets, and at least one bit, so the shift stays below 64
    /// when a key fills the word.
    ///
    /// # Panics
    /// As [`BucketDirectory::with_bits`].
    pub fn build(key_bits: u32, max_bits: u32, keys: impl ExactSizeIterator<Item = u64>) -> Self {
        let bits = (keys.len() / 4).max(1).next_power_of_two().trailing_zeros();
        Self::with_bits(key_bits, bits.clamp(1, max_bits), keys)
    }

    /// Count `keys` (each `key_bits` wide, in any order) into the `2^bits`
    /// buckets of their top `bits` bits, `1 ≤ bits ≤ key_bits`.
    ///
    /// # Panics
    /// Panics when there are more than `u32::MAX` keys or a key has bits
    /// above `key_bits`.
    pub fn with_bits(key_bits: u32, bits: u32, keys: impl ExactSizeIterator<Item = u64>) -> Self {
        debug_assert!(key_bits <= 64 && (1..=key_bits).contains(&bits));
        let n = keys.len();
        assert!(u32::try_from(n).is_ok(), "{n} keys are too many for a bucket directory");
        let shift = key_bits - bits;
        let mut starts = vec![0u32; (1usize << bits) + 1];
        for key in keys {
            starts[(key >> shift) as usize + 1] += 1;
        }
        for b in 1..starts.len() {
            starts[b] += starts[b - 1];
        }
        BucketDirectory { shift, starts }
    }

    /// The placement step of a stable counting sort by bucket: for the
    /// `index`-th of `keys` — the keys the directory was counted from, in
    /// any order — call `place(slot, index, key)` with the position the key
    /// takes when keys are grouped by bucket and keep their order within one.
    pub fn scatter(
        &self,
        keys: impl Iterator<Item = u64>,
        mut place: impl FnMut(usize, usize, u64),
    ) {
        let mut next = self.starts.clone();
        for (index, key) in keys.enumerate() {
            let slot = &mut next[self.bucket_of(key)];
            place(*slot as usize, index, key);
            *slot += 1;
        }
    }

    /// Number of key bits that select the bucket.
    pub fn bits(&self) -> u32 {
        (self.starts.len() - 1).trailing_zeros()
    }

    /// The bucket number of `key`; past the last bucket for a word with bits
    /// above the key width.
    #[inline]
    fn bucket_of(&self, key: u64) -> usize {
        (key >> self.shift) as usize
    }

    /// Start of every bucket, then the number of keys: bucket `b` is
    /// `starts()[b]..starts()[b + 1]`.
    pub fn starts(&self) -> &[u32] {
        &self.starts
    }

    /// Start loading the directory entry [`BucketDirectory::range`] reads
    /// for `key`; nothing for a word with bits above the key width.
    #[inline]
    pub(crate) fn prefetch(&self, key: u64) {
        if let Some(start) = self.starts.get(self.bucket_of(key)) {
            prefetch(start);
        }
    }

    /// Positions of the bucket `key` falls into; empty for a word with bits
    /// above the key width.
    #[inline]
    pub fn range(&self, key: u64) -> Range<usize> {
        let b = self.bucket_of(key);
        match (self.starts.get(b), self.starts.get(b.wrapping_add(1))) {
            (Some(&start), Some(&end)) => start as usize..end as usize,
            _ => 0..0,
        }
    }
}

/// Ask the CPU to start loading the cache line that holds `value` into
/// every cache level, so a read of it soon after does not wait for memory.
/// A hint only: nothing a program can observe changes. A no-op on targets
/// other than x86-64.
#[inline]
pub fn prefetch<T>(value: &T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: `_mm_prefetch` requires the `sse` target feature, which is
    // part of the x86-64 baseline, so every x86-64 CPU has it. The
    // instruction reads no memory architecturally and cannot fault, and the
    // pointer comes from a live reference.
    unsafe {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        _mm_prefetch::<_MM_HINT_T0>((value as *const T).cast::<i8>());
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = value;
}

/// A word's top bits that pick its partition of a sorted-pass build (the tile
/// table's and the spectrum's): enough partitions to keep every thread busy,
/// each small enough to sort in cache.
pub(crate) const PARTITION_BITS: u32 = 8;

/// One chunk's words of a sorted-pass build, grouped by partition. A build
/// collects one of these per chunk of reads, then gathers partition `p` of
/// every chunk, sorts and counts it; partitions ascend, so the result is
/// the concatenation of the partitions' results and depends on neither the
/// chunk size nor the thread count. The tile table also groups its mirrored
/// entries this way, keyed by their tile.
pub(crate) struct Partitioned<T = u64> {
    items: Vec<T>,
    partitions: BucketDirectory,
}

impl<T: Copy + Default> Partitioned<T> {
    /// Group `items` by the top [`PARTITION_BITS`] bits of their
    /// `key_bits`-wide `key`, keeping arrival order within a partition.
    pub(crate) fn group(items: Vec<T>, key_bits: u32, key: impl Fn(&T) -> u64) -> Partitioned<T> {
        let partitions = BucketDirectory::with_bits(
            key_bits,
            PARTITION_BITS.min(key_bits),
            items.iter().map(&key),
        );
        let mut grouped = vec![T::default(); items.len()];
        partitions.scatter(items.iter().map(&key), |slot, index, _| grouped[slot] = items[index]);
        Partitioned { items: grouped, partitions }
    }

    /// The items of partition `p`, in arrival order.
    pub(crate) fn partition(&self, p: usize) -> &[T] {
        let starts = self.partitions.starts();
        &self.items[starts[p] as usize..starts[p + 1] as usize]
    }
}

impl Partitioned {
    /// Number of partitions of `key_bits`-wide words.
    pub(crate) fn count(key_bits: u32) -> usize {
        1 << PARTITION_BITS.min(key_bits)
    }

    /// Partition `p` of every chunk in `chunks`, concatenated and sorted.
    pub(crate) fn gather_sorted<'a>(
        chunks: impl Iterator<Item = &'a Partitioned>,
        p: usize,
    ) -> Vec<u64> {
        let parts: Vec<&[u64]> = chunks.map(|c| c.partition(p)).collect();
        let mut words = parts.concat();
        words.sort_unstable();
        words
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_partition_sorted_keys() {
        let keys: Vec<u64> = (0..1000u64).map(|i| i * 37 % 4096).collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        let dir = BucketDirectory::build(12, 12, keys.iter().copied());
        assert_eq!(dir.bits(), 8); // 1000 / 4 = 250 -> 256 buckets
        assert_eq!(*dir.starts().last().unwrap() as usize, keys.len());
        for &key in &sorted {
            let r = dir.range(key);
            assert!(sorted[r.clone()].contains(&key));
            assert!(sorted[r].iter().all(|&v| dir.bucket_of(v) == dir.bucket_of(key)));
        }
    }

    #[test]
    fn scatter_groups_by_bucket_and_keeps_arrival_order() {
        let keys = [9u64, 2, 14, 3, 8, 2, 15, 0];
        let dir = BucketDirectory::with_bits(4, 2, keys.iter().copied());
        assert_eq!(dir.starts(), [0, 4, 4, 6, 8]);
        let mut grouped = [(0, 0); 8];
        dir.scatter(keys.iter().copied(), |slot, index, key| grouped[slot] = (key, index));
        assert_eq!(grouped, [(2, 1), (3, 3), (2, 5), (0, 7), (9, 0), (8, 4), (14, 2), (15, 6)]);
    }

    #[test]
    fn width_is_clamped_and_stray_words_find_nothing() {
        // max_bits caps the directory; one bit is the floor.
        assert_eq!(
            BucketDirectory::build(20, 3, (0..4096u32).map(|i| u64::from(i) << 8)).bits(),
            3
        );
        let empty = BucketDirectory::build(64, 64, std::iter::empty());
        assert_eq!(empty.bits(), 1);
        assert_eq!(empty.range(u64::MAX), 0..0);
        // A word above the key width is in no bucket — also when the shift
        // is zero and the bucket number is the word itself.
        let dir = BucketDirectory::build(2, 2, [0u64, 1, 2, 3, 3, 3, 3, 3].into_iter());
        assert_eq!(dir.bits(), 1);
        let tiny = BucketDirectory::build(1, 1, [0u64, 1].into_iter());
        assert_eq!(tiny.range(1), 1..2);
        assert_eq!(tiny.range(2), 0..0);
        assert_eq!(tiny.range(u64::MAX), 0..0);
    }
}
