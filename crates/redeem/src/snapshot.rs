//! Checkpoint serialization for REDEEM: the misread-graph model
//! ([`Redeem`]) and the EM iteration state ([`EmState`]).
//!
//! `redeem-detect --checkpoint-dir` snapshots two stage boundaries: the
//! model after graph construction (`REDEMMD2`: spectrum, CSR rows and one
//! weight per directed edge — the reverse edges are re-derived on load), and
//! the EM state every N iterations (`REDEMEM1`). All floats
//! round-trip through `f64::to_bits`, so a resumed EM continues with
//! bit-identical state (see `EmState`'s resume-equivalence tests).

use crate::em::{EmState, Redeem};
use ngs_core::{NgsError, Result};
use ngs_durable::{ByteReader, ByteWriter};
use ngs_kmer::KSpectrum;

const MODEL_MAGIC: &str = "REDEMMD2";
const STATE_MAGIC: &str = "REDEMEM1";

impl EmState {
    /// Serialize for checkpointing.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::with_capacity(64 + 8 * (self.t.len() + self.loglik_trace.len()));
        w.put_str(STATE_MAGIC);
        w.put_u8(u8::from(self.converged));
        w.put_usize(self.iterations);
        w.put_f64(self.prev_ll);
        w.put_f64_slice(&self.loglik_trace);
        w.put_f64_slice(&self.t);
        w.into_bytes()
    }

    /// Rebuild from [`EmState::to_bytes`] output.
    pub fn from_bytes(bytes: &[u8]) -> Result<EmState> {
        let mut r = ByteReader::new(bytes);
        if r.get_str()? != STATE_MAGIC {
            return Err(NgsError::MalformedRecord("EM state: bad magic or version".into()));
        }
        let converged = match r.get_u8()? {
            0 => false,
            1 => true,
            other => {
                return Err(NgsError::MalformedRecord(format!(
                    "EM state: converged flag {other} is neither 0 nor 1"
                )))
            }
        };
        let iterations = r.get_usize()?;
        let prev_ll = r.get_f64()?;
        let loglik_trace = r.get_f64_vec()?;
        let t = r.get_f64_vec()?;
        r.finish()?;
        if loglik_trace.len() != iterations {
            return Err(NgsError::MalformedRecord(format!(
                "EM state: {} trace entries for {iterations} iterations",
                loglik_trace.len()
            )));
        }
        Ok(EmState { t, prev_ll, loglik_trace, iterations, converged })
    }
}

impl Redeem {
    /// Serialize the full model (spectrum, CSR misread graph, weights) for
    /// checkpointing.
    pub fn snapshot_bytes(&self) -> Vec<u8> {
        let (offsets, nbr, w_out) = self.csr_parts();
        let mut w = ByteWriter::with_capacity(64 + nbr.len() * 12 + self.spectrum().len() * 16);
        w.put_str(MODEL_MAGIC);
        w.put_usize(self.spectrum().k());
        w.put_u64_slice(self.spectrum().kmers());
        w.put_u32_slice(self.spectrum().counts());
        w.put_u32_slice(offsets);
        w.put_u32_slice(nbr);
        w.put_f64_slice(w_out);
        w.into_bytes()
    }

    /// Rebuild a model from [`Redeem::snapshot_bytes`] output, re-validating
    /// the CSR structural invariants so a corrupt snapshot errors instead of
    /// panicking mid-EM.
    pub fn from_snapshot_bytes(bytes: &[u8]) -> Result<Redeem> {
        let mut r = ByteReader::new(bytes);
        if r.get_str()? != MODEL_MAGIC {
            return Err(NgsError::MalformedRecord("redeem snapshot: bad magic or version".into()));
        }
        let k = r.get_usize()?;
        let kmers = r.get_u64_vec()?;
        let counts = r.get_u32_vec()?;
        let spectrum = KSpectrum::from_sorted(k, kmers, counts)
            .map_err(|e| NgsError::MalformedRecord(format!("redeem snapshot: {e}")))?;
        let offsets = r.get_u32_vec()?;
        let nbr = r.get_u32_vec()?;
        let w_out = r.get_f64_vec()?;
        r.finish()?;
        Redeem::from_csr_parts(spectrum, offsets, nbr, w_out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::em::EmConfig;
    use crate::error_model::KmerErrorModel;
    use ngs_core::Read;

    /// Thirty copies of one read, a fifth with a substitution at 5 and a
    /// seventh at 6, so some k-mers have two neighbours.
    fn model() -> Redeem {
        let reads: Vec<Read> = (0..30)
            .map(|i| {
                let mut seq = b"ACGTACGTTGCATGCAACGT".to_vec();
                if i % 7 == 0 {
                    seq[5] = b'A';
                }
                if i % 5 == 1 {
                    seq[6] = b'T';
                }
                Read::new(format!("r{i}"), seq)
            })
            .collect();
        let km = KmerErrorModel::uniform(7, 0.01);
        Redeem::new(&reads, 7, &km, 1)
    }

    #[test]
    fn model_snapshot_round_trips_to_identical_em() {
        let m = model();
        let bytes = m.snapshot_bytes();
        let restored = Redeem::from_snapshot_bytes(&bytes).unwrap();
        assert_eq!(restored.spectrum().kmers(), m.spectrum().kmers());
        assert_eq!(restored.snapshot_bytes(), bytes);
        let cfg = EmConfig { dmax: 1, max_iters: 10, tol: 0.0 };
        let a = m.run(&cfg);
        let b = restored.run(&cfg);
        for (x, y) in a.t.iter().zip(&b.t) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn em_state_round_trips_bit_exactly() {
        let s = EmState {
            t: vec![1.5, -0.0, f64::MIN_POSITIVE, 3.75e300],
            prev_ll: -123.456,
            loglik_trace: vec![-200.0, -150.0, -123.456],
            iterations: 3,
            converged: false,
        };
        let back = EmState::from_bytes(&s.to_bytes()).unwrap();
        assert_eq!(back.iterations, 3);
        assert!(!back.converged);
        assert_eq!(back.prev_ll.to_bits(), s.prev_ll.to_bits());
        for (a, b) in back.t.iter().zip(&s.t) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn corrupt_snapshots_error() {
        let m = model();
        let bytes = m.snapshot_bytes();
        assert!(Redeem::from_snapshot_bytes(&bytes[..bytes.len() - 9]).is_err());
        assert!(Redeem::from_snapshot_bytes(b"nope").is_err());
        let s = EmState::initial(&[1.0, 2.0]);
        let sb = s.to_bytes();
        assert!(EmState::from_bytes(&sb[..sb.len() - 1]).is_err());
        // Trace/iteration mismatch is rejected.
        let bad = EmState {
            t: vec![1.0],
            prev_ll: 0.0,
            loglik_trace: vec![0.0, 1.0],
            iterations: 5,
            converged: false,
        };
        assert!(EmState::from_bytes(&bad.to_bytes()).is_err());
    }

    /// The previous layout carried a second weight array; there is no
    /// reader for it, so a checkpoint written by it is a typed error and
    /// `redeem-detect --resume` rebuilds the model.
    #[test]
    fn redemmd1_image_is_an_error() {
        let m = model();
        let (offsets, nbr, w_out) = m.csr_parts();
        let mut w = ByteWriter::new();
        w.put_str("REDEMMD1");
        w.put_usize(m.spectrum().k());
        w.put_u64_slice(m.spectrum().kmers());
        w.put_u32_slice(m.spectrum().counts());
        w.put_u32_slice(offsets);
        w.put_u32_slice(nbr);
        w.put_f64_slice(w_out);
        w.put_f64_slice(w_out);
        match Redeem::from_snapshot_bytes(&w.into_bytes()) {
            Err(NgsError::MalformedRecord(msg)) => assert!(msg.contains("magic"), "{msg}"),
            Err(e) => panic!("expected a malformed-record error, got {e}"),
            Ok(_) => panic!("an REDEMMD1 image must not load"),
        }
    }

    /// A graph that is not symmetric, or whose rows are not ascending, has
    /// no reverse edges: loading it is an error, not a model that gathers
    /// the wrong weights.
    #[test]
    fn asymmetric_or_unsorted_rows_are_errors() {
        let m = model();
        let (offsets, nbr, w_out) = m.csr_parts();
        let spectrum = || m.spectrum().clone();
        let load = |nbr: Vec<u32>| {
            Redeem::from_csr_parts(spectrum(), offsets.to_vec(), nbr, w_out.to_vec())
        };
        assert!(load(nbr.to_vec()).is_ok());
        let long_row = (0..m.spectrum().len())
            .find(|&l| offsets[l + 1] - offsets[l] >= 3)
            .expect("some k-mer has two neighbours");
        let s = offsets[long_row] as usize;
        let mut swapped = nbr.to_vec();
        swapped.swap(s + 1, s + 2);
        let error = |nbr| load(nbr).err().expect("a corrupt graph must not load").to_string();
        assert!(error(swapped).contains("ascending"));
        // Point one edge elsewhere: its twin no longer answers.
        let mut redirected = nbr.to_vec();
        let l = long_row as u32;
        let free = (0..m.spectrum().len() as u32)
            .find(|v| *v != l && !nbr[s..offsets[long_row + 1] as usize].contains(v))
            .unwrap();
        redirected[s + 1] = free;
        redirected[s + 1..offsets[long_row + 1] as usize].sort_unstable();
        assert!(error(redirected).contains("reverse"));
    }

    /// Every truncation of an EM state is an error, and every flip within a
    /// byte either is an error or loads a state that writes the flipped
    /// bytes back — so a corrupt `converged` flag cannot resume an
    /// unfinished EM as finished.
    #[test]
    fn em_state_truncations_and_byte_flips_are_errors_or_round_trip() {
        let state = EmState {
            t: vec![1.5, 0.25, 7.0],
            prev_ll: -12.5,
            loglik_trace: vec![-20.0, -12.5],
            iterations: 2,
            converged: false,
        };
        let bytes = state.to_bytes();
        for len in 0..bytes.len() {
            assert!(EmState::from_bytes(&bytes[..len]).is_err(), "truncated to {len}");
        }
        for at in 0..bytes.len() {
            for flip in (0..8).map(|bit| 1u8 << bit).chain([0xff]) {
                let mut bad = bytes.clone();
                bad[at] ^= flip;
                if let Ok(s) = EmState::from_bytes(&bad) {
                    assert_eq!(s.to_bytes(), bad, "byte {at} ^ {flip:#x}");
                }
            }
        }
    }

    /// Every truncation and every single-byte flip of a model snapshot
    /// either is a typed error or loads a model whose snapshot is the input
    /// again — never a panic.
    #[test]
    fn truncations_and_byte_flips_are_errors_or_round_trip() {
        let bytes = model().snapshot_bytes();
        for len in 0..bytes.len() {
            assert!(Redeem::from_snapshot_bytes(&bytes[..len]).is_err(), "truncated to {len}");
        }
        for at in 0..bytes.len() {
            for flip in [0x01u8, 0x80, 0xff] {
                let mut bad = bytes.clone();
                bad[at] ^= flip;
                if let Ok(m) = Redeem::from_snapshot_bytes(&bad) {
                    assert_eq!(m.snapshot_bytes(), bad, "byte {at} ^ {flip:#x}");
                }
            }
        }
    }
}
