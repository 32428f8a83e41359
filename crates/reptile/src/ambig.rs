//! Ambiguous-base preprocessing (§2.4).
//!
//! "Reptile attempts to correct an ambiguous base b of read r, if in any
//! substring r[i : i+w−1] that contains b, there are no more than d
//! ambiguous bases. … all ambiguous bases satisfying the density constraint
//! are changed to one of the bases from the set {A, C, G, T} initially
//! (default "A"), and will be validated or corrected later by the
//! algorithm." The window width `w` defaults to `k`.

use crate::params::ReptileParams;
use ngs_core::alphabet::encode_base;
use ngs_core::Read;

/// True for the ambiguous positions of `seq` that satisfy the density rule:
/// every length-`w` window containing the position holds at most `max_n`
/// ambiguous bases.
pub fn correctable_ambiguous(seq: &[u8], w: usize, max_n: usize) -> Vec<bool> {
    let n = seq.len();
    let is_ambig: Vec<bool> = seq.iter().map(|&b| encode_base(b).is_none()).collect();
    // Prefix sums for O(1) window counts.
    let mut prefix = vec![0u32; n + 1];
    for i in 0..n {
        prefix[i + 1] = prefix[i] + u32::from(is_ambig[i]);
    }
    let mut out = vec![false; n];
    for i in 0..n {
        if !is_ambig[i] {
            continue;
        }
        // Windows [s, s+w) containing i: s in [i.saturating_sub(w-1), i],
        // clipped to valid range.
        let w = w.min(n);
        let s_lo = i.saturating_sub(w - 1);
        let s_hi = i.min(n - w);
        let mut ok = true;
        for s in s_lo..=s_hi {
            if (prefix[s + w] - prefix[s]) as usize > max_n {
                ok = false;
                break;
            }
        }
        out[i] = ok;
    }
    out
}

/// Replace correctable ambiguous bases with the configured default base
/// (validated/corrected downstream); leave dense clusters of ambiguity
/// untouched. Returns the number of reads it changed.
pub fn preprocess_in_place(reads: &mut [Read], params: &ReptileParams) -> usize {
    let mut changed = 0;
    for read in reads.iter_mut().filter(|r| !r.is_acgt()) {
        let ok = correctable_ambiguous(&read.seq, params.k, params.max_n_per_window);
        for (base, _) in read.seq.iter_mut().zip(&ok).filter(|&(_, &flag)| flag) {
            *base = params.default_n_base;
        }
        changed += usize::from(ok.contains(&true));
    }
    changed
}

/// [`preprocess_in_place`] on copies of `reads`.
pub fn preprocess_ambiguous(reads: &[Read], params: &ReptileParams) -> Vec<Read> {
    let mut reads = reads.to_vec();
    preprocess_in_place(&mut reads, params);
    reads
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> ReptileParams {
        let mut p = ReptileParams::defaults(1_000_000);
        p.k = 5;
        p.max_n_per_window = 1;
        p
    }

    #[test]
    fn isolated_n_is_correctable() {
        let flags = correctable_ambiguous(b"ACGTNACGT", 5, 1);
        assert!(flags[4]);
        assert_eq!(flags.iter().filter(|&&f| f).count(), 1);
    }

    #[test]
    fn clustered_ns_are_not() {
        // Two Ns within one 5-window exceed max_n = 1.
        let flags = correctable_ambiguous(b"ACNGNACG", 5, 1);
        assert!(!flags[2]);
        assert!(!flags[4]);
    }

    #[test]
    fn distant_ns_both_correctable() {
        let flags = correctable_ambiguous(b"ACNGTACGTACGNTA", 5, 1);
        assert!(flags[2]);
        assert!(flags[12]);
    }

    #[test]
    fn preprocess_replaces_only_correctable() {
        let reads = vec![Read::new("r", b"ACGTNACGTANNAC")];
        let out = preprocess_ambiguous(&reads, &params());
        // Isolated N at 4 replaced; NN cluster at 10,11 kept.
        assert_eq!(out[0].seq[4], b'A');
        assert_eq!(out[0].seq[10], b'N');
        assert_eq!(out[0].seq[11], b'N');
    }

    #[test]
    fn clean_reads_pass_through() {
        let reads = vec![Read::new("r", b"ACGTACGT")];
        let out = preprocess_ambiguous(&reads, &params());
        assert_eq!(out, reads);
    }

    /// The count is of reads changed: a read whose every `N` sits in a dense
    /// cluster stays as it is and is not counted.
    #[test]
    fn in_place_counts_the_reads_it_changed() {
        let mut reads = vec![
            Read::new("clean", b"ACGTACGT"),
            Read::new("one", b"ACGTNACGTANNAC"),
            Read::new("dense", b"ACNGNACG"),
            Read::new("two", b"ACNGTACGTACGNTA"),
        ];
        let want = preprocess_ambiguous(&reads, &params());
        assert_eq!(preprocess_in_place(&mut reads, &params()), 2);
        assert_eq!(reads, want);
        assert_eq!(reads[2].seq, b"ACNGNACG");
        assert_eq!(preprocess_in_place(&mut reads[..1], &params()), 0);
    }

    #[test]
    fn default_base_respected() {
        let mut p = params();
        p.default_n_base = b'G';
        let reads = vec![Read::new("r", b"ACGTNACGTA")];
        let out = preprocess_ambiguous(&reads, &p);
        assert_eq!(out[0].seq[4], b'G');
    }

    #[test]
    fn short_read_windows_clipped() {
        // Read shorter than the window: single window of full length.
        let flags = correctable_ambiguous(b"ANG", 5, 1);
        assert!(flags[1]);
        let flags = correctable_ambiguous(b"ANN", 5, 1);
        assert!(!flags[1]);
        assert!(!flags[2]);
    }
}
