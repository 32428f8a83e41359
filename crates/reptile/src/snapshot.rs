//! Checkpoint serialization of the Phase-1 index ([`Reptile`]).
//!
//! Phase 1 dominates Reptile's build cost, so it is the stage boundary
//! `reptile-correct --checkpoint-dir` snapshots. A snapshot is the
//! parameters and the tile table, stored ascending — so identical inputs
//! produce identical snapshot bytes, and every numeric restores bit-exactly
//! (see `ngs_durable::codec`).
//!
//! Nothing derived is stored: the anchors are a function of the tile table
//! and `C_m`, the neighbour tables of the anchors and `(k, d)`. Re-deriving
//! them costs less than decoding them would, and a stored copy could only be
//! checked for shape — one that disagreed with the table it came from would
//! load and answer garbage.

use crate::{Reptile, ReptileParams};
use ngs_core::{NgsError, Result};
use ngs_durable::{ByteReader, ByteWriter};
use ngs_kmer::{TileCounts, TileEntry, TileTable};
use ngs_observe::Collector;

/// Format magic + version; bump on any layout change so older snapshots
/// miss cleanly instead of decoding as garbage.
const MAGIC: &str = "RPTSNAP3";

/// Bytes of one stored tile-table row: tile, `O_c`, `O_g`.
const ROW_BYTES: usize = 16;

fn malformed(what: impl std::fmt::Display) -> NgsError {
    NgsError::MalformedRecord(format!("reptile snapshot: {what}"))
}

impl Reptile {
    /// Serialize the Phase-1 state (params, tile table) for checkpointing.
    pub fn snapshot_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::with_capacity(128 + self.tiles.len() * ROW_BYTES);
        w.put_str(MAGIC);

        let p = &self.params;
        w.put_usize(p.k);
        w.put_usize(p.d);
        w.put_usize(p.tile_overlap);
        w.put_u32(p.cg);
        w.put_u32(p.cm);
        w.put_f64(p.cr);
        w.put_u8(p.qc);
        w.put_u8(p.qm);
        w.put_u8(p.default_n_base);
        w.put_usize(p.max_n_per_window);
        w.put_usize(p.max_shift_retries);

        w.put_usize(self.tiles.k());
        w.put_usize(self.tiles.overlap());
        w.put_usize(self.tiles.len());
        for (t, c) in self.tiles.iter() {
            w.put_u64(t);
            w.put_u32(c.oc);
            w.put_u32(c.og);
        }

        w.into_bytes()
    }

    /// Rebuild a corrector from [`Reptile::snapshot_bytes`] output.
    /// Structural invariants (parameter domains, one `k` and `l` throughout,
    /// the tile table strictly ascending words of its tile length) are
    /// re-validated so a stale or corrupt snapshot errors instead of
    /// producing a corrector that answers garbage; anchors and neighbour
    /// tables are derived from the restored table as a build derives them.
    pub fn from_snapshot_bytes(bytes: &[u8]) -> Result<Reptile> {
        let mut r = ByteReader::new(bytes);
        if r.get_str()? != MAGIC {
            return Err(malformed("bad magic or version"));
        }

        let params = ReptileParams {
            k: r.get_usize()?,
            d: r.get_usize()?,
            tile_overlap: r.get_usize()?,
            cg: r.get_u32()?,
            cm: r.get_u32()?,
            cr: r.get_f64()?,
            qc: r.get_u8()?,
            qm: r.get_u8()?,
            default_n_base: r.get_u8()?,
            max_n_per_window: r.get_usize()?,
            max_shift_retries: r.get_usize()?,
        };
        // What `ReptileParams::validate` asserts, as an error: a checkpoint
        // must never panic the resuming process.
        params.check().map_err(|violated| malformed(format_args!("parameters: {violated}")))?;

        let tk = r.get_usize()?;
        let tl = r.get_usize()?;
        if (tk, tl) != (params.k, params.tile_overlap) {
            return Err(malformed("tile table k/l do not match parameters"));
        }
        let n_tiles = r.get_usize()?;
        if n_tiles > r.remaining() / ROW_BYTES {
            return Err(malformed(format_args!(
                "{n_tiles} tiles claimed, {} bytes remain",
                r.remaining()
            )));
        }
        let mut entries = Vec::with_capacity(n_tiles);
        for _ in 0..n_tiles {
            let t = r.get_u64()?;
            let oc = r.get_u32()?;
            let og = r.get_u32()?;
            entries.push(TileEntry { tile: t, counts: TileCounts { oc, og } });
        }
        let tiles = TileTable::from_sorted(tk, tl, entries).map_err(malformed)?;

        r.finish()?;
        Ok(Reptile::from_tiles(params, tiles, &Collector::disabled()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ngs_core::Read;

    fn sample() -> (Vec<Read>, Reptile) {
        let reads: Vec<Read> = (0..40)
            .map(|i| {
                let base = b"ACGTACGTACGTTGCAACGTTGCAACGT";
                let mut seq = base.to_vec();
                seq.rotate_left(i % 4);
                Read::new(format!("r{i}"), seq)
            })
            .collect();
        let mut params = ReptileParams::defaults(1000);
        params.k = 10;
        let reptile = Reptile::build(&reads, params);
        (reads, reptile)
    }

    #[test]
    fn snapshot_round_trips_and_corrects_identically() {
        let (reads, reptile) = sample();
        let bytes = reptile.snapshot_bytes();
        let restored = Reptile::from_snapshot_bytes(&bytes).unwrap();
        assert_eq!(restored.params(), reptile.params());
        assert_eq!(restored.spectrum().kmers(), reptile.spectrum().kmers());
        assert_eq!(restored.spectrum().counts(), reptile.spectrum().counts());
        assert_eq!(restored.tiles().len(), reptile.tiles().len());
        assert_eq!(
            restored.neighbor_tables().replica_count(),
            reptile.neighbor_tables().replica_count()
        );
        let (out_a, stats_a) = reptile.correct(&reads);
        let (out_b, stats_b) = restored.correct(&reads);
        assert_eq!(stats_a, stats_b);
        for (a, b) in out_a.iter().zip(&out_b) {
            assert_eq!(a.seq, b.seq);
        }
        // Determinism: serializing the restored corrector is byte-identical.
        assert_eq!(restored.snapshot_bytes(), bytes);
    }

    #[test]
    fn truncated_snapshot_is_an_error() {
        let (_, reptile) = sample();
        let bytes = reptile.snapshot_bytes();
        assert!(Reptile::from_snapshot_bytes(&bytes[..bytes.len() / 2]).is_err());
        assert!(Reptile::from_snapshot_bytes(b"garbage").is_err());
    }

    #[test]
    fn wrong_magic_is_an_error() {
        // Also the previous formats, which carried replicas or a spectrum:
        // they must miss cleanly so the caller recomputes.
        for magic in ["RPTSNAP9", "RPTSNAP1", "RPTSNAP2"] {
            let mut w = ngs_durable::ByteWriter::new();
            w.put_str(magic);
            assert!(Reptile::from_snapshot_bytes(w.as_bytes()).is_err());
        }
    }

    /// A tile-table row as the snapshot stores it: tile, `O_c`, `O_g`.
    type Row = (u64, u32, u32);

    /// A snapshot from raw parts — so a test can also lay out sections no
    /// `Reptile` would hold. With `spectrum` (k-mers and counts) it is the
    /// `RPTSNAP2` layout as its writer produced it; the current layout is
    /// that less the spectrum section.
    fn layout(
        magic: &str,
        p: &ReptileParams,
        spectrum: Option<(&[u64], &[u32])>,
        entries: &[Row],
    ) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_str(magic);
        w.put_usize(p.k);
        w.put_usize(p.d);
        w.put_usize(p.tile_overlap);
        w.put_u32(p.cg);
        w.put_u32(p.cm);
        w.put_f64(p.cr);
        w.put_u8(p.qc);
        w.put_u8(p.qm);
        w.put_u8(p.default_n_base);
        w.put_usize(p.max_n_per_window);
        w.put_usize(p.max_shift_retries);
        if let Some((kmers, counts)) = spectrum {
            w.put_usize(p.k);
            w.put_u64_slice(kmers);
            w.put_u32_slice(counts);
        }
        w.put_usize(p.k);
        w.put_usize(p.tile_overlap);
        w.put_usize(entries.len());
        for &(t, oc, og) in entries {
            w.put_u64(t);
            w.put_u32(oc);
            w.put_u32(og);
        }
        w.into_bytes()
    }

    /// `sample()` laid out with its parameters and tile section edited.
    fn edited_sample(edit: impl Fn(&mut ReptileParams, &mut Vec<Row>)) -> Vec<u8> {
        let (_, reptile) = sample();
        let mut params = reptile.params().clone();
        let mut entries: Vec<_> = reptile.tiles().iter().map(|(t, c)| (t, c.oc, c.og)).collect();
        edit(&mut params, &mut entries);
        layout(MAGIC, &params, None, &entries)
    }

    fn malformed_with(what: &str, bytes: &[u8]) {
        match Reptile::from_snapshot_bytes(bytes) {
            Err(NgsError::MalformedRecord(msg)) => assert!(msg.contains(what), "{msg}"),
            Err(other) => panic!("expected a malformed-record error, got {other}"),
            Ok(_) => panic!("a snapshot with {what} loaded"),
        }
    }

    /// The layout is `RPTSNAP2`'s parameter block and tile section under
    /// the new magic, its spectrum section gone — pinned by length and
    /// FNV-1a hash on `sample()`, so the writer cannot drift unnoticed.
    #[test]
    fn snapshot_bytes_keep_the_rptsnap2_layout() {
        let (_, reptile) = sample();
        let bytes = reptile.snapshot_bytes();
        assert_eq!(bytes, edited_sample(|_, _| {}));
        let fnv = bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x1000_0000_01b3)
        });
        assert_eq!((bytes.len(), fnv), (371, 17_165_517_625_947_720_023));
    }

    /// Regression: the loader used to accept any `k` for the spectrum and
    /// the tile table as long as each was in range on its own. There is no
    /// stored spectrum left to disagree with: the table's `k` must be the
    /// parameters', and an `RPTSNAP2` image — the reads' both-strand
    /// spectrum between parameters and tiles — is refused by its magic.
    #[test]
    fn inconsistent_spectrum_is_an_error() {
        let (reads, reptile) = sample();
        let mut params = reptile.params().clone();
        params.k += 1;
        let inconsistent = Reptile { params, ..reptile };
        malformed_with("k/l", &inconsistent.snapshot_bytes());

        let (_, reptile) = sample();
        let spectrum = ngs_kmer::KSpectrum::from_reads_both_strands(&reads, reptile.params().k);
        let entries: Vec<_> = reptile.tiles().iter().map(|(t, c)| (t, c.oc, c.og)).collect();
        let old = layout(
            "RPTSNAP2",
            reptile.params(),
            Some((spectrum.kmers(), spectrum.counts())),
            &entries,
        );
        malformed_with("magic or version", &old);
    }

    /// Regression: the tile section went through `TileTable::from_parts`,
    /// which summed duplicate tiles and kept words longer than a tile.
    #[test]
    fn corrupt_tile_section_is_an_error() {
        assert!(Reptile::from_snapshot_bytes(&edited_sample(|_, _| {})).is_ok());
        let rejected = |what: &str, edit: &dyn Fn(&mut Vec<Row>)| {
            malformed_with(what, &edited_sample(|_, entries| edit(entries)))
        };
        rejected("entry 3", &|e| e[3] = e[2]);
        rejected("entry 1", &|e| e.swap(0, 1));
        rejected("entry 5", &|e| e[5].0 |= 1 << 40);
        rejected("entry 0", &|e| e[0].0 = u64::MAX);
    }

    /// What `ReptileParams::validate` would panic on is an error here.
    #[test]
    fn out_of_domain_parameters_are_errors() {
        let rejected = |what: &str, edit: &dyn Fn(&mut ReptileParams)| {
            malformed_with(what, &edited_sample(|params, _| edit(params)))
        };
        rejected("Cr", &|p| p.cr = 0.99);
        rejected("Cr", &|p| p.cr = f64::NAN);
        rejected("d must", &|p| p.d = p.k);
        rejected("d must", &|p| p.d = 0);
        rejected("overlap", &|p| p.tile_overlap = p.k);
        rejected("k must", &|p| p.k = 17);
        rejected("N base", &|p| p.default_n_base = b'N');
    }

    /// ROADMAP 4(f): every truncation and every flip within a byte of a
    /// snapshot is a typed error, or loads as exactly the bytes say — it
    /// writes them back — and corrects without panicking. A length field is
    /// checked against the bytes that remain before anything is allocated
    /// for it, so no flip asks for more memory than the file is long.
    #[test]
    fn truncations_and_byte_flips_are_errors_or_round_trip() {
        let (reads, reptile) = sample();
        let bytes = reptile.snapshot_bytes();
        for cut in 0..bytes.len() {
            assert!(Reptile::from_snapshot_bytes(&bytes[..cut]).is_err(), "cut at {cut}");
        }
        let (mut loaded, mut refused) = (0, 0);
        for at in 0..bytes.len() {
            for flip in (0..8).map(|bit| 1u8 << bit).chain([0xFF]) {
                let mut image = bytes.clone();
                image[at] ^= flip;
                match Reptile::from_snapshot_bytes(&image) {
                    Ok(restored) => {
                        assert_eq!(restored.snapshot_bytes(), image, "byte {at} ^ {flip:#x}");
                        restored.correct(&reads[..4]);
                        loaded += 1;
                    }
                    Err(NgsError::MalformedRecord(_)) => refused += 1,
                    Err(other) => panic!("byte {at} ^ {flip:#x}: untyped error {other}"),
                }
            }
        }
        // Counts and thresholds may be anything; structure may not.
        assert!(loaded > 0 && refused > loaded / 4, "{loaded} loaded, {refused} refused");
    }
}
