//! The DNA alphabet and its 2-bit encoding.
//!
//! Throughout the workspace a DNA sequence is a byte slice over the enriched
//! alphabet `{A, C, G, T, N}` (paper, Chapter 1): `N` marks a base the
//! sequencer could not call. The 2-bit codes are `A=0, C=1, G=2, T=3`, chosen
//! so that `code ^ 3` is the complement — the identity every packed-k-mer
//! operation in `ngs-kmer` relies on.

/// The four unambiguous DNA bases, in code order.
pub const ALPHABET: [u8; 4] = [b'A', b'C', b'G', b'T'];

/// The ambiguous base character.
pub const N_BASE: u8 = b'N';

/// The [`CODE_OF`] entry of a byte that is no unambiguous base.
const AMBIGUOUS: u8 = 4;

/// Code of every byte: `0..=3` for `ACGT` in either case, [`AMBIGUOUS`] for
/// anything else, so encoding a base is one load and no branch per letter.
const CODE_OF: [u8; 256] = {
    let mut table = [AMBIGUOUS; 256];
    let mut code = 0;
    while code < 4 {
        table[ALPHABET[code] as usize] = code as u8;
        table[ALPHABET[code].to_ascii_lowercase() as usize] = code as u8;
        code += 1;
    }
    table
};

/// Encode an ASCII base (case-insensitive) to its 2-bit code.
///
/// Returns `None` for `N` and any other non-ACGT byte.
#[inline]
pub fn encode_base(b: u8) -> Option<u8> {
    let code = CODE_OF[b as usize];
    (code != AMBIGUOUS).then_some(code)
}

/// Decode a 2-bit code back to its uppercase ASCII base.
///
/// Only the low two bits are inspected, so any `u8` is accepted.
#[inline]
pub fn decode_base(code: u8) -> u8 {
    ALPHABET[(code & 3) as usize]
}

/// Complement of a 2-bit code (`A<->T`, `C<->G`): `code ^ 3`.
#[inline]
pub fn complement_code(code: u8) -> u8 {
    code ^ 3
}

/// Complement of an ASCII base. `N` (and anything unrecognised) maps to `N`.
#[inline]
pub fn complement_base(b: u8) -> u8 {
    encode_base(b).map_or(N_BASE, |code| decode_base(complement_code(code)))
}

/// Reverse complement of an ASCII sequence, allocating the result.
pub fn reverse_complement(seq: &[u8]) -> Vec<u8> {
    seq.iter().rev().map(|&b| complement_base(b)).collect()
}

/// Reverse complement an ASCII sequence in place.
pub fn reverse_complement_in_place(seq: &mut [u8]) {
    seq.reverse();
    for b in seq.iter_mut() {
        *b = complement_base(*b);
    }
}

/// True iff every byte of `seq` is an unambiguous ACGT base.
#[inline]
pub fn is_acgt(seq: &[u8]) -> bool {
    seq.iter().all(|&b| encode_base(b).is_some())
}

/// Count the ambiguous (`N` or otherwise non-ACGT) bases in `seq`.
pub fn count_ambiguous(seq: &[u8]) -> usize {
    seq.iter().filter(|&&b| encode_base(b).is_none()).count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The `match` the table replaced.
    fn reference_encode_base(b: u8) -> Option<u8> {
        match b {
            b'A' | b'a' => Some(0),
            b'C' | b'c' => Some(1),
            b'G' | b'g' => Some(2),
            b'T' | b't' => Some(3),
            _ => None,
        }
    }

    #[test]
    fn table_matches_the_match_on_every_byte() {
        for b in 0..=u8::MAX {
            let want = reference_encode_base(b);
            assert_eq!(encode_base(b), want, "byte {b:#x}");
            let complement = want.map_or(N_BASE, |code| ALPHABET[3 - code as usize]);
            assert_eq!(complement_base(b), complement, "byte {b:#x}");
            assert_eq!(is_acgt(&[b]), want.is_some(), "byte {b:#x}");
            assert_eq!(count_ambiguous(&[b, b'A', b]), 2 * usize::from(want.is_none()));
        }
    }

    #[test]
    fn codes_round_trip() {
        for (code, &b) in ALPHABET.iter().enumerate() {
            assert_eq!(encode_base(b), Some(code as u8));
            assert_eq!(decode_base(code as u8), b);
        }
    }

    #[test]
    fn lowercase_accepted() {
        assert_eq!(encode_base(b'a'), Some(0));
        assert_eq!(encode_base(b'g'), Some(2));
    }

    #[test]
    fn n_is_ambiguous() {
        assert_eq!(encode_base(b'N'), None);
        assert_eq!(encode_base(b'n'), None);
        assert_eq!(complement_base(b'N'), b'N');
    }

    #[test]
    fn complement_code_is_xor3() {
        for c in 0..4u8 {
            assert_eq!(decode_base(complement_code(c)), complement_base(decode_base(c)));
        }
    }

    #[test]
    fn revcomp_known() {
        assert_eq!(reverse_complement(b"ACGT"), b"ACGT".to_vec());
        assert_eq!(reverse_complement(b"AACGTT"), b"AACGTT".to_vec());
        assert_eq!(reverse_complement(b"GATTACA"), b"TGTAATC".to_vec());
        assert_eq!(reverse_complement(b"ANT"), b"ANT".to_vec());
    }

    #[test]
    fn count_ambiguous_counts_only_non_acgt() {
        assert_eq!(count_ambiguous(b"ACGT"), 0);
        assert_eq!(count_ambiguous(b"ANGNT"), 2);
        assert_eq!(count_ambiguous(b"NNNN"), 4);
    }

    proptest! {
        #[test]
        fn revcomp_is_involution(seq in proptest::collection::vec(
            prop_oneof![Just(b'A'), Just(b'C'), Just(b'G'), Just(b'T'), Just(b'N')], 0..200)) {
            let rc = reverse_complement(&seq);
            prop_assert_eq!(reverse_complement(&rc), seq);
        }

        #[test]
        fn in_place_matches_allocating(seq in proptest::collection::vec(
            prop_oneof![Just(b'A'), Just(b'C'), Just(b'G'), Just(b'T')], 0..200)) {
            let mut inplace = seq.clone();
            reverse_complement_in_place(&mut inplace);
            prop_assert_eq!(inplace, reverse_complement(&seq));
        }
    }
}
