//! Batch client for `ngs-serve`: correct a read file over the socket in
//! batches, with jittered retry/backoff on `Overloaded` and torn
//! connections (requests are idempotent, so a retry is always safe).

use ngs_cli::{run_main, serving, usage_gate, Args};
use ngs_core::Result;

/// Registered at compile time; counts nothing until `--profile-mem` flips
/// it on (see `ngs_observe::alloc`).
#[global_allocator]
static ALLOC: ngs_observe::alloc::TrackingAllocator = ngs_observe::alloc::TrackingAllocator;

const USAGE: &str = "ngs-client — batch client for ngs-serve

USAGE:
  ngs-client --connect unix:/tmp/ngs.sock --input reads.fastq --output corrected.fastq
  ngs-client --connect tcp:127.0.0.1:7878 --ping
  ngs-client --connect tcp:127.0.0.1:7878 --stats --watch 2

OPTIONS:
  --connect ENDPOINT    unix:/path/to.sock or tcp:host:port       [required]
  --ping                probe the server (prints its index k and size) and exit
  --stats               print a live server snapshot (queue, latency percentiles,
                        RSS, uptime, top spans by CPU ms) and exit
  --watch N             with --stats: refresh every N seconds until interrupted
  --samples N           with --watch: stop after N snapshots (0 = forever)
  --input PATH          reads to correct (.fastq or .fasta)
  --output PATH         corrected reads (written atomically)
  --batch-size N        reads per request                         [default: 512]
  --deadline-ms N       per-request deadline budget (0 = server default)
  --max-attempts N      tries per request (first + retries)       [default: 8]
  --base-backoff-ms N   base of the jittered exponential backoff  [default: 10]
  --max-backoff-ms N    ceiling for a single backoff sleep        [default: 2000]
  --seed N              jitter seed                               [default: 24301]
  --max-bad-records N   skip up to N malformed input records      [default: 0 = fail fast]
  --help                print this message";

fn main() {
    run_main(real_main());
}

fn real_main() -> Result<()> {
    let args = Args::parse(std::env::args().skip(1))?;
    usage_gate(&args, USAGE);
    serving::client_main(&args)
}
