//! Phred quality scores.
//!
//! A quality score `Q` encodes the probability `p_e` that a base was miscalled.
//! Reptile (§2.3) only needs the standard Phred relation
//! `Q = -10·log10(p_e)` together with the Sanger/Illumina-1.8 ASCII offset of
//! 33; the paper notes the Solexa variant `Q = -10·log10(p_e/(1-p_e))`, which
//! we expose as [`Phred::solexa_from_error_prob`] for completeness.

/// A Phred quality score (0..=93, the printable FASTQ range).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Phred(pub u8);

/// ASCII offset used in FASTQ quality strings (Sanger encoding).
pub const FASTQ_OFFSET: u8 = 33;

impl Phred {
    /// Maximum representable score (ASCII `~` under the Sanger offset).
    pub const MAX: Phred = Phred(93);

    /// Build from an error probability using the standard Phred mapping,
    /// clamped to `[0, 93]`.
    pub fn from_error_prob(p: f64) -> Phred {
        if p <= 0.0 {
            return Phred::MAX;
        }
        let q = -10.0 * p.log10();
        Phred(q.clamp(0.0, 93.0).round() as u8)
    }

    /// Build from an error probability using the Solexa odds mapping
    /// `Q = -10·log10(p/(1-p))` mentioned in §2.3, clamped to `[0, 93]`.
    pub fn solexa_from_error_prob(p: f64) -> Phred {
        if p <= 0.0 {
            return Phred::MAX;
        }
        if p >= 1.0 {
            return Phred(0);
        }
        let q = -10.0 * (p / (1.0 - p)).log10();
        Phred(q.clamp(0.0, 93.0).round() as u8)
    }

    /// Error probability implied by this score.
    pub fn error_prob(self) -> f64 {
        10f64.powf(-(self.0 as f64) / 10.0)
    }

    /// Probability that the base call is correct.
    pub fn correct_prob(self) -> f64 {
        1.0 - self.error_prob()
    }

    /// ASCII character under the Sanger offset.
    pub fn to_ascii(self) -> u8 {
        self.0.saturating_add(FASTQ_OFFSET)
    }

    /// Parse from a Sanger-offset ASCII character, **clamping** out-of-range
    /// input: characters below the offset map to quality 0, characters above
    /// `~` to quality 93. Use [`Phred::try_from_ascii`] when out-of-range
    /// characters should be treated as data corruption instead — a truncated
    /// or garbage quality line otherwise parses as an ultra-low-quality read
    /// and silently skews downstream quality-weighted counts.
    pub fn from_ascii(c: u8) -> Phred {
        Phred(c.saturating_sub(FASTQ_OFFSET).min(93))
    }

    /// Parse from a Sanger-offset ASCII character, rejecting anything
    /// outside the printable FASTQ range `'!'..='~'` (ASCII 33–126).
    pub fn try_from_ascii(c: u8) -> Option<Phred> {
        (FASTQ_OFFSET..=FASTQ_OFFSET + 93).contains(&c).then(|| Phred(c - FASTQ_OFFSET))
    }
}

/// A quality character outside the printable FASTQ range, with its position
/// in the quality string.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InvalidQual {
    /// 0-based offset of the offending character.
    pub pos: usize,
    /// The raw byte found there.
    pub byte: u8,
}

impl std::fmt::Display for InvalidQual {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "invalid quality character 0x{:02x} at offset {} (printable FASTQ range is '!'..='~')",
            self.byte, self.pos
        )
    }
}

/// Decode a FASTQ quality string into raw scores, **clamping** out-of-range
/// characters (see [`Phred::from_ascii`]).
pub fn decode_quals(ascii: &[u8]) -> Vec<u8> {
    ascii.iter().map(|&c| Phred::from_ascii(c).0).collect()
}

/// Decode a FASTQ quality string, rejecting out-of-range characters.
///
/// # Errors
/// [`InvalidQual`] naming the first offending byte and its offset.
pub fn decode_quals_checked(ascii: &[u8]) -> Result<Vec<u8>, InvalidQual> {
    // Validate first, then decode through a sized iterator: one exactly
    // sized allocation, where collecting through `Result` regrows the `Vec`.
    if let Some(pos) = ascii.iter().position(|&c| Phred::try_from_ascii(c).is_none()) {
        return Err(InvalidQual { pos, byte: ascii[pos] });
    }
    Ok(ascii.iter().map(|&c| c - FASTQ_OFFSET).collect())
}

/// Encode raw scores into a FASTQ quality string.
pub fn encode_quals(quals: &[u8]) -> Vec<u8> {
    let mut ascii = Vec::with_capacity(quals.len());
    encode_quals_into(quals, &mut ascii);
    ascii
}

/// Append the FASTQ quality string of raw scores to `out`; scores above 93
/// are written as 93.
pub fn encode_quals_into(quals: &[u8], out: &mut Vec<u8>) {
    out.extend(quals.iter().map(|&q| Phred(q.min(93)).to_ascii()));
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn q10_is_ten_percent() {
        let p = Phred(10).error_prob();
        assert!((p - 0.1).abs() < 1e-12);
    }

    #[test]
    fn q30_is_tenth_percent() {
        let p = Phred(30).error_prob();
        assert!((p - 0.001).abs() < 1e-12);
    }

    #[test]
    fn zero_prob_saturates() {
        assert_eq!(Phred::from_error_prob(0.0), Phred::MAX);
        assert_eq!(Phred::solexa_from_error_prob(0.0), Phred::MAX);
    }

    #[test]
    fn certain_error_is_zero_solexa() {
        assert_eq!(Phred::solexa_from_error_prob(1.0), Phred(0));
    }

    #[test]
    fn ascii_round_trip() {
        for q in 0..=93u8 {
            assert_eq!(Phred::from_ascii(Phred(q).to_ascii()), Phred(q));
        }
    }

    #[test]
    fn qual_string_round_trip() {
        let quals = vec![0u8, 2, 20, 40, 93];
        assert_eq!(decode_quals(&encode_quals(&quals)), quals);
    }

    /// Regression: `from_ascii` silently clamps out-of-range characters, so
    /// the checked variants must exist and reject exactly the bytes outside
    /// `'!'..='~'`.
    #[test]
    fn checked_parse_rejects_out_of_range() {
        for c in 0u8..=32 {
            assert_eq!(Phred::try_from_ascii(c), None, "byte {c} below offset must be rejected");
        }
        for c in 33u8..=126 {
            assert_eq!(Phred::try_from_ascii(c), Some(Phred(c - 33)));
        }
        for c in 127u8..=255 {
            assert_eq!(Phred::try_from_ascii(c), None, "byte {c} above '~' must be rejected");
        }
        // The clamping variant still accepts everything (documented).
        assert_eq!(Phred::from_ascii(b' '), Phred(0));
        assert_eq!(Phred::from_ascii(0xff), Phred(93));
    }

    #[test]
    fn decode_quals_checked_names_offset_and_byte() {
        let quals = decode_quals_checked(b"II!~").unwrap();
        assert_eq!(quals, vec![40, 40, 0, 93]);
        assert_eq!(quals.capacity(), quals.len(), "one exactly sized allocation");
        let err = decode_quals_checked(b"II II").unwrap_err();
        assert_eq!(err, InvalidQual { pos: 2, byte: b' ' });
        assert!(err.to_string().contains("offset 2"), "{err}");
        assert!(err.to_string().contains("0x20"), "{err}");
    }

    proptest! {
        #[test]
        fn from_error_prob_round_trip_within_rounding(q in 1u8..=60) {
            let p = Phred(q).error_prob();
            let back = Phred::from_error_prob(p);
            prop_assert!((back.0 as i16 - q as i16).abs() <= 1);
        }

        #[test]
        fn error_prob_monotone(a in 0u8..=93, b in 0u8..=93) {
            if a < b {
                prop_assert!(Phred(a).error_prob() > Phred(b).error_prob());
            }
        }
    }
}
