//! Checkpoint serialization for CLOSET's Phase-I boundary ([`EdgePhase`]).
//!
//! Phase I (sketching + validation) dominates CLOSET's runtime on large
//! communities, while Phase II is re-run per threshold series — so the
//! validated edge list is the natural resume point for
//! `closet-cluster --checkpoint-dir`. Edge weights round-trip through
//! `f64::to_bits`, so a resumed Phase II filters edges bit-identically,
//! and the saved stage durations let a resuming CLI replay the
//! `closet.sketch` / `closet.validate` spans it never ran (see
//! [`EdgePhase::replay_observed`]).

use crate::sketch::SketchStats;
use crate::EdgePhase;
use mapreduce_lite::JobStats;
use ngs_core::{NgsError, Result};
use ngs_durable::{ByteReader, ByteWriter};
use std::time::Duration;

/// Format magic + version; bump on any layout change so older snapshots
/// miss cleanly instead of decoding as garbage.
const MAGIC: &str = "CLSEDGE4"; // v4: JobStats lost its spill and map-resume counters

fn duration_ns(d: Duration) -> u64 {
    d.as_nanos().min(u64::MAX as u128) as u64
}

fn put_job_stats(w: &mut ByteWriter, s: &JobStats) {
    w.put_u64(s.map_input_records);
    w.put_u64(s.map_output_records);
    w.put_u64(s.combine_output_records);
    w.put_u64(s.shuffle_bytes);
    w.put_u64(s.reduce_input_groups);
    w.put_u64(s.reduce_output_records);
    w.put_u64(duration_ns(s.map_time));
    w.put_u64(duration_ns(s.shuffle_time));
    w.put_u64(duration_ns(s.reduce_time));
    w.put_u64(s.task_failures);
    w.put_u64(s.retried_tasks);
    w.put_u64(s.corrupt_frames);
    w.put_u64(s.worker_deaths);
    w.put_u64(s.workers_respawned);
    w.put_u64(s.tasks_reassigned);
}

fn get_job_stats(r: &mut ByteReader) -> Result<JobStats> {
    Ok(JobStats {
        map_input_records: r.get_u64()?,
        map_output_records: r.get_u64()?,
        combine_output_records: r.get_u64()?,
        shuffle_bytes: r.get_u64()?,
        reduce_input_groups: r.get_u64()?,
        reduce_output_records: r.get_u64()?,
        map_time: Duration::from_nanos(r.get_u64()?),
        shuffle_time: Duration::from_nanos(r.get_u64()?),
        reduce_time: Duration::from_nanos(r.get_u64()?),
        task_failures: r.get_u64()?,
        retried_tasks: r.get_u64()?,
        corrupt_frames: r.get_u64()?,
        worker_deaths: r.get_u64()?,
        workers_respawned: r.get_u64()?,
        tasks_reassigned: r.get_u64()?,
        // What the pool of the original run cost is not part of the
        // snapshot: a resumed Phase I starts no worker and moves no byte.
        ..JobStats::default()
    })
}

impl EdgePhase {
    /// Serialize for checkpointing. Deterministic: re-serializing the
    /// result of [`EdgePhase::from_bytes`] is byte-identical.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::with_capacity(256 + self.validated.len() * 16);
        w.put_str(MAGIC);
        w.put_usize(self.validated.len());
        for &(a, b, score) in &self.validated {
            w.put_u32(a);
            w.put_u32(b);
            w.put_f64(score);
        }
        w.put_u64(self.sketch_stats.predicted_edges);
        w.put_u64(self.sketch_stats.unique_edges);
        w.put_u64(self.sketch_stats.deferred_hashes);
        w.put_u64(self.sketch_stats.sketch_entries);
        put_job_stats(&mut w, &self.sketch_stats.job_stats);
        w.put_u64(duration_ns(self.sketch_time));
        w.put_u64(duration_ns(self.validate_time));
        w.into_bytes()
    }

    /// Rebuild from [`EdgePhase::to_bytes`] output. `n_reads` is the size
    /// of the read set the edges index into; a snapshot whose endpoints
    /// fall outside it (or whose weights are not finite) is rejected, so a
    /// checkpoint taken against different input errors instead of
    /// clustering garbage.
    pub fn from_bytes(bytes: &[u8], n_reads: usize) -> Result<EdgePhase> {
        let mut r = ByteReader::new(bytes);
        if r.get_str()? != MAGIC {
            return Err(NgsError::MalformedRecord(
                "closet edge snapshot: bad magic or version".into(),
            ));
        }
        let n_edges = r.get_usize()?;
        let mut validated = Vec::with_capacity(n_edges.min(bytes.len() / 16 + 1));
        for _ in 0..n_edges {
            let a = r.get_u32()?;
            let b = r.get_u32()?;
            let score = r.get_f64()?;
            if a >= b || (b as usize) >= n_reads {
                return Err(NgsError::MalformedRecord(format!(
                    "closet edge snapshot: edge ({a}, {b}) out of range for {n_reads} reads"
                )));
            }
            if !score.is_finite() {
                return Err(NgsError::MalformedRecord(format!(
                    "closet edge snapshot: non-finite weight on edge ({a}, {b})"
                )));
            }
            validated.push((a, b, score));
        }
        let sketch_stats = SketchStats {
            predicted_edges: r.get_u64()?,
            unique_edges: r.get_u64()?,
            deferred_hashes: r.get_u64()?,
            sketch_entries: r.get_u64()?,
            job_stats: get_job_stats(&mut r)?,
        };
        let sketch_time = Duration::from_nanos(r.get_u64()?);
        let validate_time = Duration::from_nanos(r.get_u64()?);
        r.finish()?;
        Ok(EdgePhase { validated, sketch_stats, sketch_time, validate_time })
    }

    /// Re-emit the observability a resumed run skipped: the
    /// `closet.sketch` / `closet.validate` spans replayed from the saved
    /// wall times, plus the Phase-I counters, so reports from a resumed
    /// run gate on the same required spans as a cold run.
    pub fn replay_observed(
        &self,
        n_reads: usize,
        workers: usize,
        collector: &ngs_observe::Collector,
    ) {
        let workers = workers.max(1);
        collector.add("closet.reads", n_reads as u64);
        collector.record_span_ns("closet.sketch", duration_ns(self.sketch_time), workers);
        collector.add("closet.candidate_edges", self.sketch_stats.unique_edges);
        collector.add("closet.predicted_edges", self.sketch_stats.predicted_edges);
        collector.add("closet.sketch_entries", self.sketch_stats.sketch_entries);
        collector.add("closet.deferred_hashes", self.sketch_stats.deferred_hashes);
        collector.record_span_ns("closet.validate", duration_ns(self.validate_time), workers);
        collector.add("closet.confirmed_edges", self.validated.len() as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{build_edges_observed, cluster_edges_observed, ClosetParams};
    use ngs_simulate::{simulate_community, CommunityConfig, RankSpec};

    fn sample_phase() -> EdgePhase {
        EdgePhase {
            validated: vec![(0, 1, 0.875), (0, 3, 1.0), (2, 3, 0.6000000000000001)],
            sketch_stats: SketchStats {
                predicted_edges: 17,
                unique_edges: 5,
                deferred_hashes: 2,
                sketch_entries: 91,
                job_stats: JobStats {
                    map_input_records: 12,
                    map_output_records: 40,
                    shuffle_bytes: 1024,
                    map_time: Duration::from_micros(1500),
                    task_failures: 1,
                    retried_tasks: 1,
                    ..Default::default()
                },
            },
            sketch_time: Duration::from_nanos(123_456_789),
            validate_time: Duration::from_nanos(9_876),
        }
    }

    #[test]
    fn round_trips_bit_identically() {
        let phase = sample_phase();
        let bytes = phase.to_bytes();
        let back = EdgePhase::from_bytes(&bytes, 4).unwrap();
        assert_eq!(back.to_bytes(), bytes);
        for ((a1, b1, w1), (a2, b2, w2)) in phase.validated.iter().zip(&back.validated) {
            assert_eq!((a1, b1), (a2, b2));
            assert_eq!(w1.to_bits(), w2.to_bits());
        }
        assert_eq!(back.sketch_stats.job_stats, phase.sketch_stats.job_stats);
        assert_eq!(back.sketch_time, phase.sketch_time);
        assert_eq!(back.validate_time, phase.validate_time);
    }

    #[test]
    fn corrupt_snapshots_error() {
        let bytes = sample_phase().to_bytes();
        assert!(EdgePhase::from_bytes(&bytes[..bytes.len() - 3], 4).is_err());
        assert!(EdgePhase::from_bytes(b"junk", 4).is_err());
        // Endpoints beyond the read set: the checkpoint was taken against
        // different input.
        assert!(EdgePhase::from_bytes(&bytes, 3).is_err());
        // Reversed endpoints are structurally invalid.
        let mut bad = sample_phase();
        bad.validated[0] = (1, 0, 0.5);
        assert!(EdgePhase::from_bytes(&bad.to_bytes(), 4).is_err());
        // Non-finite weights are rejected before they poison filtering.
        let mut nan = sample_phase();
        nan.validated[0].2 = f64::NAN;
        assert!(EdgePhase::from_bytes(&nan.to_bytes(), 4).is_err());
    }

    /// Every truncation of a snapshot is an error, and every flip within a
    /// byte either is an error or loads a phase that writes the flipped
    /// bytes back — never a panic, never a silently different phase.
    #[test]
    fn truncations_and_byte_flips_are_errors_or_round_trip() {
        let bytes = sample_phase().to_bytes();
        for len in 0..bytes.len() {
            assert!(EdgePhase::from_bytes(&bytes[..len], 4).is_err(), "truncated to {len}");
        }
        for at in 0..bytes.len() {
            for flip in (0..8).map(|bit| 1u8 << bit).chain([0xff]) {
                let mut bad = bytes.clone();
                bad[at] ^= flip;
                if let Ok(phase) = EdgePhase::from_bytes(&bad, 4) {
                    assert_eq!(phase.to_bytes(), bad, "byte {at} ^ {flip:#x}");
                }
            }
        }
    }

    #[test]
    fn replay_emits_required_spans_and_counters() {
        let phase = sample_phase();
        let collector = ngs_observe::Collector::new();
        phase.replay_observed(4, 2, &collector);
        let report = collector.report("closet");
        assert!(report.missing_spans(&["closet.sketch", "closet.validate"]).is_empty());
        assert_eq!(report.spans["closet.sketch"].total_ns, 123_456_789);
        assert_eq!(report.counter("closet.reads"), 4);
        assert_eq!(report.counter("closet.confirmed_edges"), 3);
        assert_eq!(report.counter("closet.candidate_edges"), 5);
        assert_eq!(report.counter("closet.sketch_entries"), 91);
        assert_eq!(report.counter("closet.deferred_hashes"), 2);
        // Nothing was hashed or merged in a resumed run.
        assert_eq!(report.counter("closet.shingles_hashed"), 0);
    }

    #[test]
    fn restored_phase_clusters_identically() {
        let cfg = CommunityConfig {
            gene_len: 400,
            ranks: vec![
                RankSpec { name: "phylum", children: 2, divergence: 0.2 },
                RankSpec { name: "species", children: 2, divergence: 0.03 },
            ],
            n_reads: 150,
            read_len_min: 250,
            read_len_max: 300,
            error_rate: 0.005,
            abundance_exponent: 0.6,
            seed: 11,
        };
        let c = simulate_community(&cfg);
        let params = ClosetParams::standard(280, vec![0.8, 0.6], 2);
        let collector = ngs_observe::Collector::disabled();
        let phase = build_edges_observed(&c.reads, &params, &collector).expect("phase I");
        let bytes = phase.to_bytes();
        let restored = EdgePhase::from_bytes(&bytes, c.reads.len()).unwrap();
        assert_eq!(restored.to_bytes(), bytes);

        let cold = cluster_edges_observed(&phase, &params, &collector).expect("phase II");
        let warm = cluster_edges_observed(&restored, &params, &collector).expect("phase II");
        assert_eq!(warm.confirmed_edges, cold.confirmed_edges);
        assert_eq!(warm.clusters_by_threshold.len(), cold.clusters_by_threshold.len());
        for ((t1, c1), (t2, c2)) in
            cold.clusters_by_threshold.iter().zip(&warm.clusters_by_threshold)
        {
            assert_eq!(t1, t2);
            let v1: Vec<&Vec<u32>> = c1.iter().map(|c| &c.vertices).collect();
            let v2: Vec<&Vec<u32>> = c2.iter().map(|c| &c.vertices).collect();
            assert_eq!(v1, v2);
        }
    }
}
