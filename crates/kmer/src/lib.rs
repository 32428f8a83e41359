//! `ngs-kmer` — packed k-mers, k-spectra, Hamming-graph neighbourhoods and
//! tiles.
//!
//! This crate implements the data-structure layer of Chapters 2 and 3 of the
//! paper:
//!
//! * [`packed`] — 2-bit packed k-mers in a `u64` (`k ≤ 32`), with O(1)
//!   base access/mutation and O(k) reverse complement;
//! * [`extract`] — rolling k-mer extraction from ASCII reads with correct
//!   handling of ambiguous bases;
//! * [`directory`] — the bucket directory over a sorted key array's top
//!   bits that the spectrum, the neighbour replicas and the tile table all
//!   look keys up through;
//! * [`spectrum`] — the k-spectrum `R^k` with occurrence counts `Y_l`,
//!   built by sorted passes in parallel and stored sorted behind a
//!   directory;
//! * [`neighbor`] — retrieval of the d-neighbourhood `N^d_i` of a k-mer,
//!   either by brute-force mutant enumeration or by the paper's
//!   masked-replica index (§2.3 Phase 1): `C(c,d)` copies of the spectrum,
//!   each stored as bit-permuted keys behind a bucket directory, one
//!   contiguous run streamed per replica — and the whole Hamming graph
//!   ([`HammingGraph`]) by one self-join over the same replicas;
//! * [`tile`] — tiles `t = α₁ ||_l α₂` (Definition 2.1) with plain and
//!   high-quality occurrence counts `O_c` / `O_g`, sorted behind a directory
//!   so the tiles of one first k-mer are one run.

pub mod directory;
pub mod extract;
pub mod neighbor;
pub mod packed;
pub mod spectrum;
pub mod tile;

pub use extract::{for_each_kmer, kmers_of};
pub use neighbor::{HammingGraph, NeighborIndex, NeighborTables};
pub use packed::{
    canonical, decode_kmer, encode_kmer, hamming_distance, mutate_base, packed_base,
    reverse_complement_packed, set_base, Kmer,
};
pub use spectrum::KSpectrum;
pub use tile::{Tile, TileCounts, TileEntry, TileTable};

/// splitmix64 for tests that draw their own values from a seed, so a failing
/// case prints the seed and not thousands of k-mers.
#[cfg(test)]
pub(crate) fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
