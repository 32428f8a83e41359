//! Deterministic fault injection for exercising the retry machinery.
//!
//! Hadoop's fault tolerance is only trustworthy because real clusters
//! fail constantly; on a single machine nothing fails, so this module
//! manufactures failures on demand. A [`FaultPlan`] decides, purely as a
//! function of `(stage, task, attempt)` (plus an optional seed), whether
//! a task attempt should be sabotaged and how — so any faulty run can be
//! replayed exactly.

/// Which phase of the job a task belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// A map task: map + combine for one input chunk.
    Map,
    /// A shuffle task: sorting one partition's concatenated map output.
    /// Only a distinct task unit under the multi-process executor; the
    /// in-process engine sorts partitions inline without a retry unit.
    Shuffle,
    /// A reduce task: grouping and reducing one shuffle partition.
    Reduce,
}

impl Stage {
    /// Stable wire discriminant (travels in worker-pool frames).
    pub(crate) fn code(self) -> u8 {
        match self {
            Stage::Map => 0,
            Stage::Shuffle => 1,
            Stage::Reduce => 2,
        }
    }

    pub(crate) fn from_code(code: u8) -> Option<Stage> {
        match code {
            0 => Some(Stage::Map),
            1 => Some(Stage::Shuffle),
            2 => Some(Stage::Reduce),
            _ => None,
        }
    }
}

impl std::fmt::Display for Stage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Stage::Map => "map",
            Stage::Shuffle => "shuffle",
            Stage::Reduce => "reduce",
        })
    }
}

/// The kind of failure injected into a task attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The task panics mid-flight (a crashed worker thread).
    Panic,
    /// The attempt fails with a synthetic I/O error before it does any
    /// work (a full or yanked disk). In-process the task returns the error;
    /// on the pooled path the worker answers `Failed` with it. Either way
    /// the attempt counts as a failure and is retried.
    IoError,
    /// The task's output is corrupted after its checksum was computed (bit
    /// rot / torn write). On the pooled path the worker flips a bit in its
    /// first output frame's checksum, the driver's verify pass rejects the
    /// attempt and counts it in [`crate::JobStats::corrupt_frames`]. The
    /// in-process engine has no frame to corrupt: a map task's output stays
    /// in memory, so the fault is a no-op there, and a reduce attempt
    /// fails as for [`FaultKind::IoError`].
    CorruptFrame,
    /// Process-level: the worker process that owns the attempt SIGKILLs
    /// itself mid-result-write, leaving a torn frame on the wire. Under
    /// the in-process executor this degrades to a plain attempt failure
    /// (a thread cannot be SIGKILLed), so plans stay portable.
    KillWorker,
    /// Process-level: the worker stops heartbeating and hangs, so the
    /// driver's liveness deadline must detect it and reassign the lease.
    /// Degrades to a plain attempt failure in-process.
    StallHeartbeat,
}

impl FaultKind {
    pub(crate) fn code(self) -> u8 {
        match self {
            FaultKind::Panic => 0,
            FaultKind::IoError => 1,
            FaultKind::CorruptFrame => 2,
            FaultKind::KillWorker => 3,
            FaultKind::StallHeartbeat => 4,
        }
    }

    pub(crate) fn from_code(code: u8) -> Option<FaultKind> {
        match code {
            0 => Some(FaultKind::Panic),
            1 => Some(FaultKind::IoError),
            2 => Some(FaultKind::CorruptFrame),
            3 => Some(FaultKind::KillWorker),
            4 => Some(FaultKind::StallHeartbeat),
            _ => None,
        }
    }
}

/// One explicitly requested fault at exact coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Injection {
    stage: Stage,
    task: usize,
    attempt: u32,
    kind: FaultKind,
}

/// A reproducible schedule of faults.
///
/// Two layers, both deterministic:
/// * **explicit** coordinates added with [`FaultPlan::with_fault`] —
///   for tests that need one precise failure;
/// * a **seeded** layer from [`FaultPlan::seeded`] that fails each
///   task's *first* attempt with probability `p`, decided by hashing
///   `(seed, stage, task)`. First-attempt-only means a job with
///   `max_attempts ≥ 2` always converges, while still failing a
///   predictable, replayable subset of tasks.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    explicit: Vec<Injection>,
    seeded: Option<(u64, f64)>,
}

impl FaultPlan {
    /// A plan that injects nothing.
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// A plan failing each task's first attempt with probability `p`,
    /// reproducibly for a given `seed`.
    pub fn seeded(seed: u64, p: f64) -> FaultPlan {
        assert!((0.0..=1.0).contains(&p), "fault probability out of range");
        FaultPlan { explicit: Vec::new(), seeded: Some((seed, p)) }
    }

    /// Add one fault at exact `(stage, task, attempt)` coordinates.
    pub fn with_fault(mut self, stage: Stage, task: usize, attempt: u32, kind: FaultKind) -> Self {
        self.explicit.push(Injection { stage, task, attempt, kind });
        self
    }

    /// True when the plan can never fire.
    pub fn is_empty(&self) -> bool {
        self.explicit.is_empty() && self.seeded.is_none()
    }

    /// The fault to inject into this attempt, if any. Pure: the same
    /// coordinates always produce the same answer.
    pub fn fault_for(&self, stage: Stage, task: usize, attempt: u32) -> Option<FaultKind> {
        if let Some(inj) = self
            .explicit
            .iter()
            .find(|i| i.stage == stage && i.task == task && i.attempt == attempt)
        {
            return Some(inj.kind);
        }
        let (seed, p) = self.seeded?;
        if attempt != 0 {
            return None;
        }
        let h = mix(seed ^ mix(task as u64 ^ (stage.code() as u64) << 32));
        let unit = (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        if unit >= p {
            return None;
        }
        // Derive the kind from independent bits of the same hash. The
        // seeded layer only draws the thread-level kinds: process-level
        // faults (KillWorker, StallHeartbeat) are explicit-coordinates
        // only, so a seeded plan stays meaningful under both executors.
        Some(match mix(h) % 3 {
            0 => FaultKind::Panic,
            1 => FaultKind::IoError,
            _ => FaultKind::CorruptFrame,
        })
    }

    /// Serialize the plan for travel to a worker process (the `Setup`
    /// frame of the pool protocol). Fixed-width little-endian layout.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&(self.explicit.len() as u64).to_le_bytes());
        for inj in &self.explicit {
            out.push(inj.stage.code());
            out.push(inj.kind.code());
            out.extend_from_slice(&(inj.task as u64).to_le_bytes());
            out.extend_from_slice(&inj.attempt.to_le_bytes());
        }
        match self.seeded {
            Some((seed, p)) => {
                out.push(1);
                out.extend_from_slice(&seed.to_le_bytes());
                out.extend_from_slice(&p.to_bits().to_le_bytes());
            }
            None => out.push(0),
        }
        out
    }

    /// Decode a plan produced by [`FaultPlan::to_bytes`]. `None` on any
    /// structural mismatch (a worker must fail setup rather than run with
    /// a half-understood schedule).
    pub fn from_bytes(bytes: &[u8]) -> Option<FaultPlan> {
        fn take<'a>(inp: &mut &'a [u8], n: usize) -> Option<&'a [u8]> {
            if inp.len() < n {
                return None;
            }
            let (head, rest) = inp.split_at(n);
            *inp = rest;
            Some(head)
        }
        let mut inp = bytes;
        let n = u64::from_le_bytes(take(&mut inp, 8)?.try_into().ok()?);
        let mut explicit = Vec::new();
        for _ in 0..n {
            let stage = Stage::from_code(take(&mut inp, 1)?[0])?;
            let kind = FaultKind::from_code(take(&mut inp, 1)?[0])?;
            let task = u64::from_le_bytes(take(&mut inp, 8)?.try_into().ok()?) as usize;
            let attempt = u32::from_le_bytes(take(&mut inp, 4)?.try_into().ok()?);
            explicit.push(Injection { stage, task, attempt, kind });
        }
        let seeded = match take(&mut inp, 1)?[0] {
            0 => None,
            1 => {
                let seed = u64::from_le_bytes(take(&mut inp, 8)?.try_into().ok()?);
                let p = f64::from_bits(u64::from_le_bytes(take(&mut inp, 8)?.try_into().ok()?));
                Some((seed, p))
            }
            _ => return None,
        };
        if !inp.is_empty() {
            return None;
        }
        Some(FaultPlan { explicit, seeded })
    }
}

/// SplitMix64 finalizer: a cheap, well-mixed 64-bit hash.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explicit_faults_hit_exact_coordinates() {
        let plan = FaultPlan::none().with_fault(Stage::Map, 2, 0, FaultKind::Panic).with_fault(
            Stage::Reduce,
            1,
            1,
            FaultKind::IoError,
        );
        assert_eq!(plan.fault_for(Stage::Map, 2, 0), Some(FaultKind::Panic));
        assert_eq!(plan.fault_for(Stage::Map, 2, 1), None);
        assert_eq!(plan.fault_for(Stage::Map, 1, 0), None);
        assert_eq!(plan.fault_for(Stage::Reduce, 1, 1), Some(FaultKind::IoError));
    }

    #[test]
    fn seeded_plan_is_deterministic_and_first_attempt_only() {
        let a = FaultPlan::seeded(42, 0.5);
        let b = FaultPlan::seeded(42, 0.5);
        let mut fired = 0;
        for task in 0..64 {
            for &stage in &[Stage::Map, Stage::Reduce] {
                assert_eq!(a.fault_for(stage, task, 0), b.fault_for(stage, task, 0));
                assert_eq!(a.fault_for(stage, task, 1), None);
                if a.fault_for(stage, task, 0).is_some() {
                    fired += 1;
                }
            }
        }
        // 128 trials at p = 0.5: should fire a substantial number of times.
        assert!((32..=96).contains(&fired), "fired {fired} of 128");
    }

    #[test]
    fn zero_probability_never_fires() {
        let plan = FaultPlan::seeded(7, 0.0);
        for task in 0..100 {
            assert_eq!(plan.fault_for(Stage::Map, task, 0), None);
        }
    }

    #[test]
    fn plan_round_trips_through_bytes() {
        let plan = FaultPlan::seeded(17, 0.25)
            .with_fault(Stage::Map, 3, 1, FaultKind::KillWorker)
            .with_fault(Stage::Shuffle, 0, 0, FaultKind::StallHeartbeat)
            .with_fault(Stage::Reduce, 7, 2, FaultKind::CorruptFrame);
        let back = FaultPlan::from_bytes(&plan.to_bytes()).expect("round trip");
        assert_eq!(back.explicit, plan.explicit);
        assert_eq!(back.seeded, plan.seeded);
        // Behavioural equivalence at a few coordinates.
        for task in 0..16 {
            for &stage in &[Stage::Map, Stage::Shuffle, Stage::Reduce] {
                for attempt in 0..3 {
                    assert_eq!(
                        back.fault_for(stage, task, attempt),
                        plan.fault_for(stage, task, attempt)
                    );
                }
            }
        }
        // Truncation at any offset must fail decode, not mis-decode.
        let bytes = plan.to_bytes();
        for cut in 0..bytes.len() {
            assert!(FaultPlan::from_bytes(&bytes[..cut]).is_none(), "cut at {cut}");
        }
    }

    #[test]
    fn map_and_reduce_schedules_differ() {
        let plan = FaultPlan::seeded(9, 0.4);
        let map: Vec<bool> = (0..64).map(|t| plan.fault_for(Stage::Map, t, 0).is_some()).collect();
        let reduce: Vec<bool> =
            (0..64).map(|t| plan.fault_for(Stage::Reduce, t, 0).is_some()).collect();
        assert_ne!(map, reduce);
    }
}
