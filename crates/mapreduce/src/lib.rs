//! `mapreduce-lite` — a single-machine MapReduce runtime (Hadoop substitute).
//!
//! CLOSET (Chapter 4) is "designed as a series of data transformations,
//! where each transformation is a single map-reduce task" (§4.4), deployed
//! on a 32-node Hadoop cluster. This crate supplies the substrate those
//! tasks run on, scaled to one machine:
//!
//! * [`job`] — the execution engine: input splits → parallel map workers →
//!   hash-partitioned buffers (optional combiner) → shuffle (sort + group
//!   by key) → parallel reduce workers. Worker count and reduce-partition
//!   count are configurable, so the stage-time scaling of Table 4.3 can be
//!   reproduced;
//! * [`counters`] — per-phase record/byte counters and wall times, the
//!   numbers the paper reports in Tables 4.2–4.3, plus fault-tolerance
//!   counters (task failures, retries, corrupt frames, worker deaths);
//! * [`codec`] — a small length-prefixed binary codec: the worker pool
//!   ships task input and output as checksummed frames, so corruption is
//!   detectable;
//! * [`fault`] — deterministic fault injection, so the recovery paths
//!   above are continuously exercised by tests;
//! * [`executor`], [`protocol`], [`transport`] — the multi-process worker
//!   pool: the driver re-executes itself as N worker processes and assigns
//!   task attempts over a Unix-socket transport carrying length-prefixed,
//!   checksummed frames. Workers can be SIGKILLed mid-task (or stall their
//!   heartbeat) and the job still completes byte-identically: the driver
//!   detects torn frames and missed heartbeat/lease deadlines, reassigns
//!   the lease, and respawns dead workers within a bounded, jittered
//!   backoff budget. A [`PoolSession`] keeps the workers warm across
//!   jobs ([`run_pooled`] is a session of one); jobs are named
//!   [`MapReduceSpec`]s resolved through a [`JobRegistry`] on the worker
//!   side, because closures cannot cross a process boundary.
//!
//! Fault tolerance follows Hadoop's task-attempt model: every map and
//! reduce task runs under `catch_unwind` and is retried with exponential
//! backoff up to [`JobConfig::max_attempts`] times; a worker's corrupt
//! output is caught by frame checksums and repaired by re-running the
//! task; a task that exhausts its attempts fails the whole job with a
//! [`JobError`] instead of panicking. On a single machine the *failures*
//! must be simulated — that is [`FaultPlan`]'s job — but the recovery
//! machinery itself is the real thing. The runtime owns scheduling,
//! retries, shuffle and spans, and keeps no state on disk: surviving a
//! failure of the *driver* is the pipeline's job, through
//! `ngs_durable::CheckpointStore` at a stage boundary (CLOSET resumes
//! past Phase I that way).

pub mod codec;
pub mod counters;
pub mod executor;
pub mod fault;
pub mod job;
pub mod protocol;
pub mod transport;

pub use codec::Codec;
pub use counters::{record_job_stats, JobStats};
pub use executor::{
    run_local, run_pooled, worker_main, JobRegistry, MapReduceSpec, PoolConfig, PoolSession,
    WordCountSpec,
};
pub use fault::{FaultKind, FaultPlan, Stage};
pub use job::{map_reduce, JobConfig, JobError};
pub use protocol::{Message, ProtocolError};
pub use transport::FrameConn;
