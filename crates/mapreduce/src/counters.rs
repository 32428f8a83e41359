//! Per-phase statistics for a MapReduce job.

use std::time::Duration;

/// Counters and timings collected while running one job — the raw material
/// for the paper's Tables 4.2 (data quantities per stage) and 4.3 (stage
/// run times).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct JobStats {
    /// Input records consumed by mappers.
    pub map_input_records: u64,
    /// Key/value pairs emitted by mappers (before combining).
    pub map_output_records: u64,
    /// Key/value pairs surviving the combiner (equals `map_output_records`
    /// when no combiner is installed).
    pub combine_output_records: u64,
    /// Approximate bytes moved through the shuffle.
    pub shuffle_bytes: u64,
    /// Distinct keys seen by reducers.
    pub reduce_input_groups: u64,
    /// Records emitted by reducers.
    pub reduce_output_records: u64,
    /// Wall time of the map (+combine) phase.
    pub map_time: Duration,
    /// Wall time of the shuffle (partition merge + sort + group) phase.
    pub shuffle_time: Duration,
    /// Wall time of the reduce phase.
    pub reduce_time: Duration,
    /// Task attempts that failed (panic, injected fault, or a corrupt
    /// frame from a worker), across every stage.
    pub task_failures: u64,
    /// Tasks that needed more than one attempt to finish.
    pub retried_tasks: u64,
    /// Worker output frames rejected by checksum verification. Only the
    /// multi-process executor can move this counter.
    pub corrupt_frames: u64,
    /// Worker processes that died (SIGKILL, OOM-kill, crash) or were
    /// declared dead after missing their heartbeat deadline. Only the
    /// multi-process executor can move this counter.
    pub worker_deaths: u64,
    /// Dead workers respawned by the driver (bounded by the pool's respawn
    /// budget; a death past the budget fails the job instead).
    pub workers_respawned: u64,
    /// Task leases reassigned to a healthy worker after their owner died
    /// or stalled. Each reassignment also counts as a `task_failures` +
    /// retry, so existing retry accounting carries over unchanged.
    pub tasks_reassigned: u64,
    /// Worker processes (or thread-mode workers) started for this job:
    /// the pool's first spawns count on the first job of their
    /// [`crate::PoolSession`], a respawn on the job that saw the death.
    pub pool_spawns: u64,
    /// 1 on the first job of a [`crate::PoolSession`], 0 on its later
    /// jobs and on in-process jobs — merged, the sessions a pipeline opened.
    pub pool_sessions: u64,
    /// Bytes of the `Task` frames the driver wrote to its workers, outer
    /// header included.
    pub wire_bytes_sent: u64,
    /// Bytes of the `Done`/`Failed` frames the driver accepted from its
    /// workers (heartbeats and results nobody waited for are not counted,
    /// so the number repeats exactly on a fault-free, untraced run).
    pub wire_bytes_received: u64,
}

impl JobStats {
    /// Total wall time across phases.
    pub fn total_time(&self) -> Duration {
        self.map_time + self.shuffle_time + self.reduce_time
    }

    /// Fold another job's counters into this one (for multi-job pipelines).
    pub fn merge(&mut self, other: &JobStats) {
        self.map_input_records += other.map_input_records;
        self.map_output_records += other.map_output_records;
        self.combine_output_records += other.combine_output_records;
        self.shuffle_bytes += other.shuffle_bytes;
        self.reduce_input_groups += other.reduce_input_groups;
        self.reduce_output_records += other.reduce_output_records;
        self.map_time += other.map_time;
        self.shuffle_time += other.shuffle_time;
        self.reduce_time += other.reduce_time;
        self.task_failures += other.task_failures;
        self.retried_tasks += other.retried_tasks;
        self.corrupt_frames += other.corrupt_frames;
        self.worker_deaths += other.worker_deaths;
        self.workers_respawned += other.workers_respawned;
        self.tasks_reassigned += other.tasks_reassigned;
        self.pool_spawns += other.pool_spawns;
        self.pool_sessions += other.pool_sessions;
        self.wire_bytes_sent += other.wire_bytes_sent;
        self.wire_bytes_received += other.wire_bytes_received;
    }
}

/// Fold a job's counters into an observe collector under `prefix` (e.g.
/// `closet.job`): phase wall times become spans (`<prefix>.map`,
/// `<prefix>.shuffle`, `<prefix>.reduce`), everything else becomes
/// counters with the field name appended. The fault-tolerance counters
/// (`task_failures`, `retried_tasks`, `corrupt_frames`) pass through
/// unchanged, so reports surface recovery activity verbatim. What a worker
/// pool cost goes under fixed names instead — `mapreduce.pool.spawns`,
/// `mapreduce.pool.sessions`, `mapreduce.wire_bytes_sent`,
/// `mapreduce.wire_bytes_received` — so the `<prefix>.*` totals of a pooled
/// run stay comparable with an in-process one.
pub fn record_job_stats(collector: &ngs_observe::Collector, prefix: &str, stats: &JobStats) {
    let span_ns = |d: Duration| d.as_nanos().min(u64::MAX as u128) as u64;
    collector.record_span_ns(&format!("{prefix}.map"), span_ns(stats.map_time), 1);
    collector.record_span_ns(&format!("{prefix}.shuffle"), span_ns(stats.shuffle_time), 1);
    collector.record_span_ns(&format!("{prefix}.reduce"), span_ns(stats.reduce_time), 1);
    let counters: [(&str, u64); 12] = [
        ("map_input_records", stats.map_input_records),
        ("map_output_records", stats.map_output_records),
        ("combine_output_records", stats.combine_output_records),
        ("shuffle_bytes", stats.shuffle_bytes),
        ("reduce_input_groups", stats.reduce_input_groups),
        ("reduce_output_records", stats.reduce_output_records),
        ("task_failures", stats.task_failures),
        ("retried_tasks", stats.retried_tasks),
        ("corrupt_frames", stats.corrupt_frames),
        ("worker_deaths", stats.worker_deaths),
        ("workers_respawned", stats.workers_respawned),
        ("tasks_reassigned", stats.tasks_reassigned),
    ];
    for (field, value) in counters {
        collector.add(&format!("{prefix}.{field}"), value);
    }
    collector.add("mapreduce.pool.spawns", stats.pool_spawns);
    collector.add("mapreduce.pool.sessions", stats.pool_sessions);
    collector.add("mapreduce.wire_bytes_sent", stats.wire_bytes_sent);
    collector.add("mapreduce.wire_bytes_received", stats.wire_bytes_received);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_adds_fields() {
        let mut a = JobStats { map_input_records: 3, ..Default::default() };
        let b = JobStats {
            map_input_records: 4,
            reduce_output_records: 2,
            map_time: Duration::from_millis(5),
            task_failures: 3,
            retried_tasks: 2,
            corrupt_frames: 1,
            worker_deaths: 2,
            workers_respawned: 1,
            tasks_reassigned: 3,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.map_input_records, 7);
        assert_eq!(a.reduce_output_records, 2);
        assert_eq!(a.task_failures, 3);
        assert_eq!(a.retried_tasks, 2);
        assert_eq!(a.corrupt_frames, 1);
        assert_eq!(a.worker_deaths, 2);
        assert_eq!(a.workers_respawned, 1);
        assert_eq!(a.tasks_reassigned, 3);
        assert_eq!(a.map_time, Duration::from_millis(5));
        assert_eq!(a.total_time(), Duration::from_millis(5));
    }

    #[test]
    fn record_job_stats_surfaces_fault_counters() {
        let stats = JobStats {
            map_input_records: 7,
            task_failures: 3,
            retried_tasks: 2,
            corrupt_frames: 1,
            worker_deaths: 2,
            workers_respawned: 1,
            tasks_reassigned: 2,
            map_time: Duration::from_millis(4),
            ..Default::default()
        };
        let collector = ngs_observe::Collector::new();
        record_job_stats(&collector, "job", &stats);
        let report = collector.report("mr");
        assert_eq!(report.counters["job.map_input_records"], 7);
        assert_eq!(report.counters["job.task_failures"], 3);
        assert_eq!(report.counters["job.retried_tasks"], 2);
        assert_eq!(report.counters["job.corrupt_frames"], 1);
        assert_eq!(report.counters["job.worker_deaths"], 2);
        assert_eq!(report.counters["job.workers_respawned"], 1);
        assert_eq!(report.counters["job.tasks_reassigned"], 2);
        assert_eq!(report.spans["job.map"].total_ns, 4_000_000);
    }
}
