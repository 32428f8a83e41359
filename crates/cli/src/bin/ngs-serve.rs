//! Long-lived Reptile correction server: load the index once, serve
//! correction requests over a unix/TCP socket until SIGTERM, then drain.

use ngs_cli::{run_main, serving, usage_gate, Args};
use ngs_core::Result;

/// Registered at compile time; counts nothing until `--profile-mem` flips
/// it on (see `ngs_observe::alloc`).
#[global_allocator]
static ALLOC: ngs_observe::alloc::TrackingAllocator = ngs_observe::alloc::TrackingAllocator;

const USAGE: &str = "ngs-serve — long-lived Reptile correction server

Loads (or warm-starts) the Phase-1 index once, prints
`ngs-serve: listening on ENDPOINT` to stdout when ready, then serves
correction requests until SIGTERM/SIGINT, draining in-flight work before
exiting 0. Each connection's requests are corrected on its own thread, at
most --workers at once; admission is bounded: when --queue-capacity
requests already wait, the server replies `Overloaded` instead of buffering.

USAGE:
  ngs-serve --input reads.fastq --listen unix:/tmp/ngs.sock [options]

OPTIONS:
  --input PATH            reads the index is built from           [required]
  --listen ENDPOINT       unix:/path/to.sock or tcp:host:port     [required]
                          (tcp:127.0.0.1:0 picks a free port; see stdout)
  --genome-len N          genome length estimate (sets k)         [default: 1000000]
  --k N                   k-mer length override (1..=16)
  --d N                   max Hamming distance (1 or 2)           [default: 1]
  --workers N             requests corrected at once              [default: all cores]
  --queue-capacity N      requests waiting before Overloaded      [default: 64]
  --default-deadline-ms N deadline for requests that carry 0      [default: 10000]
  --max-reads-per-request N                                       [default: 100000]
  --idle-timeout-ms N     disconnect peers silent mid-frame       [default: 30000]
  --poll-interval-ms N    accept/drain poll cadence               [default: 20]
  --max-requests N        test hook: drain after N served requests
  --checkpoint-dir DIR    share the reptile index checkpoint here
  --resume                warm-start from a valid index snapshot
  --max-bad-records N     skip up to N malformed input records    [default: 0 = fail fast]
  --metrics-json PATH     write a BENCH_serve.json metrics report on exit
  --trace-jsonl PATH      write an event trace here (view with ngs-trace)
  --profile-mem           track allocations (alloc fields in metrics/resources)
  --resource-jsonl PATH   write a sampled resource timeline (RSS, CPU, alloc) here
  --threads N             parallel runtime threads (also: NGS_THREADS env)
  --progress              print throughput/ETA heartbeat lines (auto on a TTY)
  --help                  print this message";

fn main() {
    run_main(real_main());
}

fn real_main() -> Result<()> {
    let args = Args::parse(std::env::args().skip(1))?;
    usage_gate(&args, USAGE);
    serving::serve_main(&args)
}
