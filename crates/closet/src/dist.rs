//! CLOSET's Phase-I tasks as named, process-portable MapReduce specs.
//!
//! The closures in [`crate::sketch`] cannot cross a process boundary, so
//! the worker pool ([`mapreduce_lite::run_pooled`]) needs Tasks 1 and 2
//! expressed as [`MapReduceSpec`]s: stateless structs with a registry
//! name, resolved on the worker side through the [`JobRegistry`] both the
//! driver and the `ngs-mr-worker` binary build via [`register_specs`].
//! `run_local` over the same specs is byte-identical to the pooled run —
//! the parity the kill-matrix tests pin down.

use mapreduce_lite::{JobConfig, JobError, JobRegistry, JobStats, MapReduceSpec, PoolSession};

/// Task 1 (§4.4.1): group read ids by shared sketch hash. Input records
/// are `(read_id, sketch hashes of this round)`; output is one
/// `(hash, read_ids)` group per sketch value shared by at least two
/// reads. `C_max` deferral happens in the driver, on the grouped output.
#[derive(Debug, Clone, Copy, Default)]
pub struct SketchGroupSpec;

impl MapReduceSpec for SketchGroupSpec {
    type I = (u32, Vec<u64>);
    type K = u64;
    type V = u32;
    type O = (u64, Vec<u32>);

    const NAME: &'static str = "closet.sketch_group";

    fn to_bytes(&self) -> Vec<u8> {
        Vec::new()
    }

    fn from_bytes(bytes: &[u8]) -> Option<SketchGroupSpec> {
        bytes.is_empty().then_some(SketchGroupSpec)
    }

    fn map(&self, record: &Self::I, emit: &mut dyn FnMut(u64, u32)) {
        let (rid, hashes) = record;
        for &h in hashes {
            emit(h, *rid);
        }
    }

    fn reduce(&self, hash: &u64, rids: Vec<u32>, emit: &mut dyn FnMut((u64, Vec<u32>))) {
        if rids.len() > 1 {
            emit((*hash, rids));
        }
    }
}

/// Task 2 (§4.4.1): expand each sketch group into candidate read pairs
/// and count each pair's multiplicity across groups. A combiner folds the
/// per-partition `1`s early, so what crosses the shuffle (and, pooled,
/// the socket) is partial sums rather than raw pair records.
#[derive(Debug, Clone, Copy, Default)]
pub struct PairCountSpec;

impl MapReduceSpec for PairCountSpec {
    type I = (u64, Vec<u32>);
    type K = (u32, u32);
    type V = u32;
    type O = ((u32, u32), u32);

    const NAME: &'static str = "closet.pair_count";

    fn to_bytes(&self) -> Vec<u8> {
        Vec::new()
    }

    fn from_bytes(bytes: &[u8]) -> Option<PairCountSpec> {
        bytes.is_empty().then_some(PairCountSpec)
    }

    fn map(&self, record: &Self::I, emit: &mut dyn FnMut((u32, u32), u32)) {
        let (_hash, rids) = record;
        for (x, &a) in rids.iter().enumerate() {
            for &b in &rids[x + 1..] {
                emit((a.min(b), a.max(b)), 1);
            }
        }
    }

    fn use_combiner(&self) -> bool {
        true
    }

    fn combine(&self, _key: &(u32, u32), vals: &mut Vec<u32>) {
        let sum: u32 = vals.iter().sum();
        vals.clear();
        vals.push(sum);
    }

    fn reduce(&self, key: &(u32, u32), counts: Vec<u32>, emit: &mut dyn FnMut(((u32, u32), u32))) {
        emit((*key, counts.iter().sum()));
    }
}

/// Register every CLOSET spec in `reg`. The worker binary must call this
/// (on top of [`JobRegistry::with_builtins`]) or pooled CLOSET jobs fail
/// worker setup with an unknown-spec error.
pub fn register_specs(reg: &mut JobRegistry) {
    reg.register::<SketchGroupSpec>();
    reg.register::<PairCountSpec>();
}

/// Run `spec` in-process, or on the worker session when one is open —
/// the single dispatch point [`crate::sketch`] routes every Phase-I job
/// through.
pub(crate) fn run_spec<S: MapReduceSpec>(
    spec: &S,
    input: &[S::I],
    job: &JobConfig,
    session: Option<&mut PoolSession>,
) -> Result<(Vec<S::O>, JobStats), JobError> {
    match session {
        Some(session) => session.run(spec, input, job),
        None => mapreduce_lite::run_local(spec, input, job),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_round_trip_registry_bytes() {
        let mut reg = JobRegistry::with_builtins();
        register_specs(&mut reg);
        assert!(reg.contains(SketchGroupSpec::NAME));
        assert!(reg.contains(PairCountSpec::NAME));
        assert!(SketchGroupSpec::from_bytes(&[]).is_some());
        assert!(SketchGroupSpec::from_bytes(&[0]).is_none());
        assert!(PairCountSpec::from_bytes(&[]).is_some());
        assert!(PairCountSpec::from_bytes(&[1, 2]).is_none());
    }

    #[test]
    fn pair_counts_match_with_and_without_pool() {
        let groups: Vec<(u64, Vec<u32>)> =
            vec![(10, vec![0, 1, 2]), (11, vec![1, 2]), (12, vec![0, 2, 3, 4]), (13, vec![3, 4])];
        let mut job = JobConfig::with_workers(2);
        job.reduce_partitions = 3;
        let (local, _) = mapreduce_lite::run_local(&PairCountSpec, &groups, &job).expect("local");
        // Two sessions back to back in one process, two jobs on each; a
        // session that is over leaves nothing in its socket directory.
        let dir = std::env::temp_dir().join(format!("closet_dist_socks_{}", std::process::id()));
        let mut pool = mapreduce_lite::PoolConfig::with_workers(2);
        pool.socket_dir = Some(dir.clone());
        for _ in 0..2 {
            let mut session = PoolSession::start(&pool).expect("session");
            for _ in 0..2 {
                let (pooled, _) =
                    run_spec(&PairCountSpec, &groups, &job, Some(&mut session)).expect("pooled");
                assert_eq!(pooled, local);
            }
            drop(session);
            assert_eq!(std::fs::read_dir(&dir).expect("socket dir").count(), 0);
        }
        std::fs::remove_dir(&dir).expect("remove the empty socket dir");
        // Pairs appearing in two groups count twice.
        assert!(local.contains(&((1, 2), 2)));
        assert!(local.contains(&((3, 4), 2)));
    }
}
