//! Checkpoint serialization of the Phase-1 index ([`Reptile`]).
//!
//! Phase 1 (spectrum + tile table + neighbour index) dominates Reptile's
//! build cost, so it is the stage boundary `reptile-correct --checkpoint-dir`
//! snapshots. The encoding is deterministic — spectrum and tile table are
//! both stored ascending — so identical inputs produce identical snapshot
//! bytes, and every numeric restores bit-exactly (see `ngs_durable::codec`).
//!
//! The neighbour tables are **not** stored: they are a pure function of the
//! spectrum and `(k, d)`, re-deriving them costs less than decoding them
//! would, and a stored replica can only be checked for shape — one sorted in
//! the wrong order would load and answer garbage.

use crate::{Reptile, ReptileParams};
use ngs_core::{NgsError, Result};
use ngs_durable::{ByteReader, ByteWriter};
use ngs_kmer::{KSpectrum, TileCounts, TileEntry, TileTable};

/// Format magic + version; bump on any layout change so older snapshots
/// miss cleanly instead of decoding as garbage.
const MAGIC: &str = "RPTSNAP2";

impl Reptile {
    /// Serialize the Phase-1 state (params, spectrum, tile table) for
    /// checkpointing.
    pub fn snapshot_bytes(&self) -> Vec<u8> {
        let mut w =
            ByteWriter::with_capacity(64 + self.spectrum.len() * 12 + self.tiles.len() * 16);
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

        w.put_usize(self.spectrum.k());
        w.put_u64_slice(self.spectrum.kmers());
        w.put_u32_slice(self.spectrum.counts());

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
    /// Structural invariants (parameter domains, one `k` throughout, spectrum
    /// and tile table strictly ascending words of their length) are
    /// re-validated so a stale or corrupt snapshot errors instead of
    /// producing a corrector that answers garbage; the neighbour tables are
    /// rebuilt from the restored spectrum.
    pub fn from_snapshot_bytes(bytes: &[u8]) -> Result<Reptile> {
        let mut r = ByteReader::new(bytes);
        if r.get_str()? != MAGIC {
            return Err(NgsError::MalformedRecord("reptile snapshot: bad magic or version".into()));
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
        // The same domain checks `ReptileParams::validate` asserts, as
        // errors: a checkpoint must never panic the resuming process.
        if !(1..=16).contains(&params.k)
            || params.d == 0
            || params.d >= params.k
            || params.tile_overlap >= params.k
            || params.cr < 1.0
            || !matches!(params.default_n_base, b'A' | b'C' | b'G' | b'T')
        {
            return Err(NgsError::MalformedRecord(
                "reptile snapshot: parameters out of domain".into(),
            ));
        }

        let sk = r.get_usize()?;
        let kmers = r.get_u64_vec()?;
        let counts = r.get_u32_vec()?;
        if sk != params.k {
            return Err(NgsError::MalformedRecord(
                "reptile snapshot: spectrum k does not match parameters".into(),
            ));
        }
        let spectrum = KSpectrum::from_sorted(sk, kmers, counts)
            .map_err(|e| NgsError::MalformedRecord(format!("reptile snapshot: {e}")))?;

        let tk = r.get_usize()?;
        let tl = r.get_usize()?;
        if (tk, tl) != (params.k, params.tile_overlap) {
            return Err(NgsError::MalformedRecord(
                "reptile snapshot: tile table k/l do not match parameters".into(),
            ));
        }
        let n_tiles = r.get_usize()?;
        let mut entries = Vec::with_capacity(n_tiles.min(bytes.len() / 16 + 1));
        for _ in 0..n_tiles {
            let t = r.get_u64()?;
            let oc = r.get_u32()?;
            let og = r.get_u32()?;
            entries.push(TileEntry { tile: t, counts: TileCounts { oc, og } });
        }
        let tiles = TileTable::from_sorted(tk, tl, entries)
            .map_err(|e| NgsError::MalformedRecord(format!("reptile snapshot: {e}")))?;

        r.finish()?;
        let neighbor_tables = crate::build_neighbor_tables(&spectrum, &params);
        Ok(Reptile { params, spectrum, tiles, neighbor_tables })
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
        // Also the previous format, which carried replicas: it must miss
        // cleanly so the caller recomputes.
        for magic in ["RPTSNAP9", "RPTSNAP1"] {
            let mut w = ngs_durable::ByteWriter::new();
            w.put_str(magic);
            assert!(Reptile::from_snapshot_bytes(w.as_bytes()).is_err());
        }
    }

    /// A tile-table row as the snapshot stores it: tile, `O_c`, `O_g`.
    type Row = (u64, u32, u32);

    /// The `RPTSNAP2` layout as the previous writer produced it, from raw
    /// parts — so a test can also lay out sections no `Reptile` would hold.
    fn layout(p: &ReptileParams, kmers: &[u64], counts: &[u32], entries: &[Row]) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_str(MAGIC);
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
        w.put_usize(p.k);
        w.put_u64_slice(kmers);
        w.put_u32_slice(counts);
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

    /// `sample()` laid out with its spectrum and tile sections edited.
    fn edited_sample(edit: impl Fn(&mut Vec<u64>, &mut Vec<Row>)) -> Vec<u8> {
        let (_, reptile) = sample();
        let mut kmers = reptile.spectrum().kmers().to_vec();
        let mut entries: Vec<_> = reptile.tiles().iter().map(|(t, c)| (t, c.oc, c.og)).collect();
        edit(&mut kmers, &mut entries);
        layout(reptile.params(), &kmers, reptile.spectrum().counts(), &entries)
    }

    /// Existing checkpoints must keep loading: the bytes of a given index
    /// are what the previous writer (which collected the hash-map table and
    /// sorted it) wrote — pinned by its length and FNV-1a hash on `sample()`.
    #[test]
    fn snapshot_bytes_keep_the_rptsnap2_layout() {
        let (_, reptile) = sample();
        let bytes = reptile.snapshot_bytes();
        assert_eq!(bytes, edited_sample(|_, _| {}));
        let fnv = bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x1000_0000_01b3)
        });
        assert_eq!((bytes.len(), fnv), (647, 698_441_648_929_992_009));
    }

    /// Regression: the loader used to accept any `k` for the spectrum and
    /// the tile table as long as each was in range on its own.
    #[test]
    fn inconsistent_spectrum_is_an_error() {
        let (_, reptile) = sample();
        let mut params = reptile.params().clone();
        params.k += 1;
        let inconsistent = Reptile { params, ..reptile };
        assert!(Reptile::from_snapshot_bytes(&inconsistent.snapshot_bytes()).is_err());

        // A "k-mer" with bits above 2k would index the rebuilt tables out
        // of range.
        let corrupt = edited_sample(|kmers, _| *kmers.last_mut().unwrap() |= 1 << 63);
        assert!(Reptile::from_snapshot_bytes(&corrupt).is_err());
    }

    /// Regression: the tile section went through `TileTable::from_parts`,
    /// which summed duplicate tiles and kept words longer than a tile.
    #[test]
    fn corrupt_tile_section_is_an_error() {
        assert!(Reptile::from_snapshot_bytes(&edited_sample(|_, _| {})).is_ok());
        let rejected = |what: &str, edit: &dyn Fn(&mut Vec<Row>)| match Reptile::from_snapshot_bytes(
            &edited_sample(|_, entries| edit(entries)),
        ) {
            Err(NgsError::MalformedRecord(msg)) => assert!(msg.contains(what), "{msg}"),
            Err(other) => panic!("expected a malformed-record error, got {other}"),
            Ok(_) => panic!("a snapshot with {what} loaded"),
        };
        rejected("entry 3", &|e| e[3] = e[2]);
        rejected("entry 1", &|e| e.swap(0, 1));
        rejected("entry 5", &|e| e[5].0 |= 1 << 40);
        rejected("entry 0", &|e| e[0].0 = u64::MAX);
    }
}
