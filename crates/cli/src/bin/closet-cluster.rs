//! Cluster metagenomic reads with CLOSET (Chapter 4).

use ngs_cli::{pipelines, run_main, usage_gate, Args};
use ngs_core::Result;

/// Registered at compile time; counts nothing until `--profile-mem` flips
/// it on (see `ngs_observe::alloc`).
#[global_allocator]
static ALLOC: ngs_observe::alloc::TrackingAllocator = ngs_observe::alloc::TrackingAllocator;

const USAGE: &str = "closet-cluster — sketch + quasi-clique read clustering

USAGE:
  closet-cluster --input reads.fasta --output clusters.tsv [options]

OPTIONS:
  --input PATH          input reads (.fasta or .fastq)            [required]
  --output PATH         TSV: threshold, cluster id, read ids      [required]
  --thresholds LIST     strictly decreasing series in [0, 1]      [default: 0.8,0.7,0.6]
  --gamma F             quasi-clique density in (0, 1]            [default: 0.6667]
  --workers N           MapReduce worker threads                  [default: all cores]
  --mr-workers N        run sketch jobs on N crash-survivable worker
                        *processes* instead of threads             [default: 0 = in-process]
  --align               validate edges by alignment (slower)
  --checkpoint-dir DIR  persist the validated edge list here
  --resume              reload a valid checkpoint instead of re-sketching
  --max-bad-records N   skip up to N malformed input records      [default: 0 = fail fast]
  --crash-after STAGE   test hook: exit(42) after STAGE checkpoints (stage: edges)
  --metrics-json PATH   write a BENCH_closet.json metrics report here
  --trace-jsonl PATH    write an event trace here (view with ngs-trace)
  --profile-mem         track allocations (alloc fields in metrics/resources)
  --resource-jsonl PATH write a sampled resource timeline (RSS, CPU, alloc) here
  --threads N           parallel runtime threads (also: NGS_THREADS env) [default: all cores]
  --progress            print throughput/ETA heartbeat lines (auto on a TTY)
  --help                print this message";

fn main() {
    // Hidden worker mode: `closet-cluster --mr-worker <socket> <id>` is
    // what the pool re-execs; it must be handled before flag parsing.
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().is_some_and(|a| a == "--mr-worker") {
        std::process::exit(ngs_cli::mr_worker_main(&argv[1..]));
    }
    run_main(real_main(argv));
}

fn real_main(argv: Vec<String>) -> Result<()> {
    let args = Args::parse(argv)?;
    usage_gate(&args, USAGE);
    pipelines::closet_cluster(&args)
}
