//! Checksummed checkpoint manifests with crash-safe save.
//!
//! A [`CheckpointStore`] owns one directory holding stage snapshot files
//! (`<stage>_<tag>.ckpt`) plus a single `MANIFEST` describing them. The
//! invariants that make this safe to kill at any instruction:
//!
//! 1. Every file — stage snapshots *and* the manifest — is written through
//!    [`crate::AtomicFile`], so no reader ever sees a torn file.
//! 2. The manifest is written **last**. A crash after a stage file lands but
//!    before the manifest does leaves the previous manifest in force; the
//!    orphaned stage file is simply overwritten on the next save.
//! 3. The manifest is versioned, carries the input fingerprint it was built
//!    against, and ends in a checksum of its own body. Any mismatch —
//!    version, fingerprint, body checksum, per-stage length or checksum,
//!    stage parameter key — degrades to "recompute that stage", never to
//!    loading stale state.
//! 4. A stage's file name is a function of its stage name. A manifest line
//!    naming any other file (`../x`, an absolute path) invalidates the
//!    manifest, so a load never reads outside the directory.
//!
//! Stages are keyed by `(name, params_key)`: the params key is a checksum of
//! every parameter that influences the stage's output, so re-running with
//! `--k 25` after checkpointing a `--k 21` run misses cleanly.

use crate::atomic::{clean_stale_tmp, write_atomic};
use crate::codec::checksum_bytes;
use ngs_core::{NgsError, Result};
use ngs_observe::Collector;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::UNIX_EPOCH;

const MANIFEST_NAME: &str = "MANIFEST";
const MANIFEST_MAGIC: &str = "NGSCKPT";
const MANIFEST_VERSION: u32 = 1;

/// Identity of an input file: size, mtime, and a content hash. A checkpoint
/// is only valid against the exact input it was computed from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    pub size: u64,
    pub mtime_ns: u64,
    pub content_hash: u64,
}

impl Fingerprint {
    /// Fingerprint a file on disk (streaming; does not load it whole).
    pub fn of_file<P: AsRef<Path>>(path: P) -> Result<Fingerprint> {
        use std::hash::Hasher;
        use std::io::Read as _;
        let path = path.as_ref();
        let meta = std::fs::metadata(path)?;
        let mtime_ns = meta
            .modified()
            .ok()
            .and_then(|t| t.duration_since(UNIX_EPOCH).ok())
            .map_or(0, |d| d.as_nanos().min(u64::MAX as u128) as u64);
        let mut h = ngs_core::hash::FxHasher::default();
        h.write_u64(meta.len());
        let mut f = std::fs::File::open(path)?;
        let mut buf = vec![0u8; 1 << 20];
        loop {
            let n = f.read(&mut buf)?;
            if n == 0 {
                break;
            }
            h.write(&buf[..n]);
        }
        Ok(Fingerprint { size: meta.len(), mtime_ns, content_hash: h.finish() })
    }

    /// Fingerprint in-memory input (used by tests and synthetic pipelines
    /// whose "input" is generated rather than read from disk).
    pub fn of_bytes(bytes: &[u8]) -> Fingerprint {
        Fingerprint { size: bytes.len() as u64, mtime_ns: 0, content_hash: checksum_bytes(bytes) }
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct StageEntry {
    params_key: u64,
    len: u64,
    checksum: u64,
}

/// A directory of checksummed stage snapshots governed by one manifest.
///
/// All observe traffic goes through the collector handed to [`CheckpointStore::open`]:
/// `durable.checkpoint.save` / `durable.checkpoint.load` spans and
/// `durable.checkpoint.{hits,misses,saves}` counters.
#[derive(Debug)]
pub struct CheckpointStore<'c> {
    dir: PathBuf,
    pipeline: String,
    fingerprint: Fingerprint,
    stages: BTreeMap<String, StageEntry>,
    collector: &'c Collector,
}

impl<'c> CheckpointStore<'c> {
    /// Open (creating if needed) the checkpoint directory, garbage-collect
    /// stale tmp files from crashed predecessors, and load the manifest.
    ///
    /// An unreadable, corrupt, differently-versioned, wrong-pipeline or
    /// wrong-fingerprint manifest is not an error: the store opens empty and
    /// every stage misses (the caller recomputes, then overwrites).
    pub fn open<P: AsRef<Path>>(
        dir: P,
        pipeline: &str,
        fingerprint: Fingerprint,
        collector: &'c Collector,
    ) -> Result<CheckpointStore<'c>> {
        if pipeline.is_empty() || pipeline.contains(char::is_whitespace) {
            return Err(NgsError::InvalidParameter(format!(
                "checkpoint pipeline name must be non-empty and whitespace-free, got {pipeline:?}"
            )));
        }
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        let reaped = clean_stale_tmp(&dir)?;
        collector.add("durable.tmp_files_gcd", reaped as u64);
        let mut store = CheckpointStore {
            dir,
            pipeline: pipeline.to_string(),
            fingerprint,
            stages: BTreeMap::new(),
            collector,
        };
        match store.read_manifest() {
            Some(stages) => store.stages = stages,
            None => store.collector.incr("durable.checkpoint.manifest_invalid_or_absent"),
        }
        Ok(store)
    }

    /// The directory this store persists into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Stage names currently valid in the manifest (post fingerprint check).
    pub fn stage_names(&self) -> Vec<String> {
        self.stages.keys().cloned().collect()
    }

    /// Load the snapshot for `stage` if the manifest has an entry whose
    /// params key matches and whose file passes length + checksum
    /// verification. Any mismatch is a miss (`None`), never an error:
    /// resume must degrade to recompute, not abort.
    pub fn load(&self, stage: &str, params_key: u64) -> Option<Vec<u8>> {
        let _span = self.collector.span("durable.checkpoint.load");
        let hit = self.load_inner(stage, params_key);
        if hit.is_some() {
            self.collector.incr("durable.checkpoint.hits");
        } else {
            self.collector.incr("durable.checkpoint.misses");
        }
        hit
    }

    fn load_inner(&self, stage: &str, params_key: u64) -> Option<Vec<u8>> {
        let entry = self.stages.get(stage)?;
        if entry.params_key != params_key {
            return None;
        }
        let bytes = std::fs::read(self.dir.join(stage_file_name(stage))).ok()?;
        if bytes.len() as u64 != entry.len || checksum_bytes(&bytes) != entry.checksum {
            return None;
        }
        Some(bytes)
    }

    /// Persist a stage snapshot: the stage file lands atomically first, the
    /// manifest (naming it) atomically last. Killing this process at any
    /// point leaves either the old manifest or the new one in force — never
    /// a manifest referencing a missing or torn stage file.
    pub fn save(&mut self, stage: &str, params_key: u64, bytes: &[u8]) -> Result<()> {
        if stage.is_empty() || stage.contains(char::is_whitespace) {
            return Err(NgsError::InvalidParameter(format!(
                "checkpoint stage name must be non-empty and whitespace-free, got {stage:?}"
            )));
        }
        let _span = self.collector.span("durable.checkpoint.save");
        write_atomic(self.dir.join(stage_file_name(stage)), bytes).map_err(NgsError::from)?;
        self.stages.insert(
            stage.to_string(),
            StageEntry { params_key, len: bytes.len() as u64, checksum: checksum_bytes(bytes) },
        );
        self.write_manifest()?;
        self.collector.incr("durable.checkpoint.saves");
        self.collector.add("durable.checkpoint.bytes_saved", bytes.len() as u64);
        Ok(())
    }

    fn manifest_body(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(s, "{MANIFEST_MAGIC} v{MANIFEST_VERSION}");
        let _ = writeln!(s, "pipeline {}", self.pipeline);
        let f = &self.fingerprint;
        let _ = writeln!(s, "input {} {} {:016x}", f.size, f.mtime_ns, f.content_hash);
        for (name, e) in &self.stages {
            let _ = writeln!(
                s,
                "stage {name} {:016x} {} {} {:016x}",
                e.params_key,
                stage_file_name(name),
                e.len,
                e.checksum
            );
        }
        s
    }

    fn write_manifest(&self) -> Result<()> {
        let body = self.manifest_body();
        let full = format!("{body}checksum {:016x}\n", checksum_bytes(body.as_bytes()));
        write_atomic(self.dir.join(MANIFEST_NAME), full.as_bytes()).map_err(NgsError::from)
    }

    /// Parse and verify the on-disk manifest; `None` on any problem.
    fn read_manifest(&self) -> Option<BTreeMap<String, StageEntry>> {
        let text = std::fs::read_to_string(self.dir.join(MANIFEST_NAME)).ok()?;
        // The checksum line covers every byte before it.
        let body_end = text.trim_end_matches('\n').rfind('\n')? + 1;
        let (body, tail) = text.split_at(body_end);
        let claimed = tail.trim_end().strip_prefix("checksum ")?;
        if u64::from_str_radix(claimed, 16).ok()? != checksum_bytes(body.as_bytes()) {
            return None;
        }

        let mut lines = body.lines();
        if lines.next()? != format!("{MANIFEST_MAGIC} v{MANIFEST_VERSION}") {
            return None;
        }
        if lines.next()?.strip_prefix("pipeline ")? != self.pipeline {
            return None;
        }
        let mut input = lines.next()?.strip_prefix("input ")?.split(' ');
        let fp = Fingerprint {
            size: input.next()?.parse().ok()?,
            mtime_ns: input.next()?.parse().ok()?,
            content_hash: u64::from_str_radix(input.next()?, 16).ok()?,
        };
        if input.next().is_some() || fp != self.fingerprint {
            return None;
        }

        let mut stages = BTreeMap::new();
        for line in lines {
            let mut parts = line.strip_prefix("stage ")?.split(' ');
            let name = parts.next()?.to_string();
            let params_key = u64::from_str_radix(parts.next()?, 16).ok()?;
            // `save` writes nothing but the stage's own file name.
            if parts.next()? != stage_file_name(&name) {
                return None;
            }
            let entry = StageEntry {
                params_key,
                len: parts.next()?.parse().ok()?,
                checksum: u64::from_str_radix(parts.next()?, 16).ok()?,
            };
            if parts.next().is_some() {
                return None;
            }
            stages.insert(name, entry);
        }
        Some(stages)
    }
}

/// Deterministic, filesystem-safe snapshot file name for a stage. Stage
/// names use dot paths (`reptile.build`); dots map to `_` and a short hash
/// of the original name keeps sanitized collisions apart.
fn stage_file_name(stage: &str) -> String {
    let sanitized: String =
        stage.chars().map(|c| if c.is_ascii_alphanumeric() { c } else { '_' }).collect();
    format!("{sanitized}_{:08x}.ckpt", checksum_bytes(stage.as_bytes()) as u32)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("ngs_ckpt_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn fp() -> Fingerprint {
        Fingerprint::of_bytes(b"the input file")
    }

    #[test]
    fn save_then_load_round_trips_across_reopen() {
        let dir = scratch("roundtrip");
        let c = Collector::new();
        let mut s = CheckpointStore::open(&dir, "reptile", fp(), &c).unwrap();
        s.save("reptile.build", 7, b"spectrum bytes").unwrap();
        s.save("reptile.tiles", 9, b"tile bytes").unwrap();
        drop(s);

        let s2 = CheckpointStore::open(&dir, "reptile", fp(), &c).unwrap();
        assert_eq!(s2.load("reptile.build", 7).unwrap(), b"spectrum bytes");
        assert_eq!(s2.load("reptile.tiles", 9).unwrap(), b"tile bytes");
        assert_eq!(s2.stage_names(), vec!["reptile.build", "reptile.tiles"]);
        let r = c.report("t");
        assert_eq!(r.counters["durable.checkpoint.saves"], 2);
        assert_eq!(r.counters["durable.checkpoint.hits"], 2);
        assert!(r.spans.contains_key("durable.checkpoint.save"));
        assert!(r.spans.contains_key("durable.checkpoint.load"));
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn params_key_change_misses() {
        let dir = scratch("params");
        let c = Collector::new();
        let mut s = CheckpointStore::open(&dir, "p", fp(), &c).unwrap();
        s.save("stage", 1, b"v").unwrap();
        assert!(s.load("stage", 2).is_none());
        assert_eq!(s.load("stage", 1).unwrap(), b"v");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn input_fingerprint_change_invalidates_everything() {
        let dir = scratch("fpr");
        let c = Collector::new();
        let mut s = CheckpointStore::open(&dir, "p", fp(), &c).unwrap();
        s.save("stage", 1, b"v").unwrap();
        drop(s);
        let other = Fingerprint::of_bytes(b"edited input file");
        let s2 = CheckpointStore::open(&dir, "p", other, &c).unwrap();
        assert!(s2.load("stage", 1).is_none());
        assert!(s2.stage_names().is_empty());
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn corrupt_stage_file_misses_not_errors() {
        let dir = scratch("corrupt_stage");
        let c = Collector::new();
        let mut s = CheckpointStore::open(&dir, "p", fp(), &c).unwrap();
        s.save("stage", 1, b"good bytes").unwrap();
        // Flip bytes in the stage file behind the manifest's back.
        let file = dir.join(stage_file_name("stage"));
        std::fs::write(&file, b"bad  bytes").unwrap();
        assert!(s.load("stage", 1).is_none());
        // Truncation is also caught (length check).
        std::fs::write(&file, b"good").unwrap();
        assert!(s.load("stage", 1).is_none());
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn corrupt_manifest_opens_empty() {
        let dir = scratch("corrupt_manifest");
        let c = Collector::new();
        let mut s = CheckpointStore::open(&dir, "p", fp(), &c).unwrap();
        s.save("stage", 1, b"v").unwrap();
        drop(s);
        // Flip one byte of the manifest: body checksum fails, store is empty.
        let mpath = dir.join(MANIFEST_NAME);
        let mut m = std::fs::read(&mpath).unwrap();
        let i = m.len() / 2;
        m[i] ^= 0x01;
        std::fs::write(&mpath, &m).unwrap();
        let s2 = CheckpointStore::open(&dir, "p", fp(), &c).unwrap();
        assert!(s2.load("stage", 1).is_none());
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn manifest_is_written_last_so_partial_save_is_invisible() {
        let dir = scratch("partial_save");
        let c = Collector::new();
        let mut s = CheckpointStore::open(&dir, "p", fp(), &c).unwrap();
        s.save("a", 1, b"committed").unwrap();
        drop(s);
        // Simulate a crash between stage-file write and manifest write of a
        // *second* save: the stage file for "b" lands, the manifest doesn't.
        std::fs::write(dir.join(stage_file_name("b")), b"orphan").unwrap();
        let s2 = CheckpointStore::open(&dir, "p", fp(), &c).unwrap();
        assert_eq!(s2.load("a", 1).unwrap(), b"committed");
        assert!(s2.load("b", 1).is_none(), "unmanifested stage file must not load");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn manifest_naming_a_file_outside_the_directory_opens_empty() {
        let dir = scratch("escape");
        let c = Collector::new();
        let mut s = CheckpointStore::open(&dir, "p", fp(), &c).unwrap();
        s.save("index", 7, b"inside").unwrap();
        drop(s);
        let outside = dir.with_extension("outside.bin");
        std::fs::write(&outside, b"outside bytes").unwrap();
        // A manifest that passes every checksum, naming `file` for the stage.
        let manifest = |file: &str| {
            let body = format!(
                "{MANIFEST_MAGIC} v{MANIFEST_VERSION}\npipeline p\ninput {} {} {:016x}\n\
                 stage index {:016x} {file} 13 {:016x}\n",
                fp().size,
                fp().mtime_ns,
                fp().content_hash,
                7,
                checksum_bytes(b"outside bytes"),
            );
            format!("{body}checksum {:016x}\n", checksum_bytes(body.as_bytes()))
        };
        std::fs::write(dir.join(MANIFEST_NAME), manifest(&stage_file_name("index"))).unwrap();
        let honest = CheckpointStore::open(&dir, "p", fp(), &c).unwrap();
        assert_eq!(honest.stage_names(), vec!["index"], "the template must parse");
        let escapes = [
            format!("../{}", outside.file_name().unwrap().to_str().unwrap()),
            outside.to_str().unwrap().to_string(),
        ];
        for file in escapes {
            std::fs::write(dir.join(MANIFEST_NAME), manifest(&file)).unwrap();
            let s2 = CheckpointStore::open(&dir, "p", fp(), &c).unwrap();
            assert!(s2.load("index", 7).is_none(), "{file} must not be followed");
            assert!(s2.stage_names().is_empty());
        }
        let _ = std::fs::remove_dir_all(dir);
        let _ = std::fs::remove_file(outside);
    }

    #[test]
    fn wrong_pipeline_name_opens_empty() {
        let dir = scratch("pipeline");
        let c = Collector::new();
        let mut s = CheckpointStore::open(&dir, "reptile", fp(), &c).unwrap();
        s.save("stage", 1, b"v").unwrap();
        drop(s);
        let s2 = CheckpointStore::open(&dir, "redeem", fp(), &c).unwrap();
        assert!(s2.load("stage", 1).is_none());
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn open_garbage_collects_stale_tmps() {
        let dir = scratch("gc");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("x.ckpt.tmp.4294967294.0"), b"debris").unwrap();
        let c = Collector::new();
        let _s = CheckpointStore::open(&dir, "p", fp(), &c).unwrap();
        assert!(!dir.join("x.ckpt.tmp.4294967294.0").exists());
        assert_eq!(c.report("t").counters["durable.tmp_files_gcd"], 1);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn whitespace_names_rejected() {
        let dir = scratch("names");
        let c = Collector::new();
        assert!(CheckpointStore::open(&dir, "bad name", fp(), &c).is_err());
        let mut s = CheckpointStore::open(&dir, "p", fp(), &c).unwrap();
        assert!(s.save("bad stage", 1, b"v").is_err());
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn fingerprint_of_file_tracks_content() {
        let dir = scratch("fp_file");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("input.fq");
        std::fs::write(&p, b"@r1\nACGT\n+\nIIII\n").unwrap();
        let a = Fingerprint::of_file(&p).unwrap();
        let b = Fingerprint::of_file(&p).unwrap();
        assert_eq!(a, b);
        std::fs::write(&p, b"@r1\nACGA\n+\nIIII\n").unwrap();
        let c = Fingerprint::of_file(&p).unwrap();
        assert_ne!(a.content_hash, c.content_hash);
        let _ = std::fs::remove_dir_all(dir);
    }
}
