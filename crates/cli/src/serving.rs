//! Drivers for the serving binaries: `ngs-serve` (long-lived correction
//! server) and `ngs-client` (batch client with retry/backoff).
//!
//! `ngs-serve` shares the Reptile checkpoint layout with `reptile-correct`
//! — pipeline `reptile`, stage `index`, the same parameter key — so a
//! prior batch run warm-starts the server (and a server run warms later
//! batch runs). A warm start is visible in the trace: a `serve.index.load`
//! span instead of the `reptile.build.*` spans. Either start derives the
//! parameters, tile table included, under `serve.params`; a cold one keeps
//! that table for the index.

use crate::pipelines::{
    apply_threads_flag, load_reads, parse_thread_count, reptile_params_key, reptile_prepare,
    DurabilityOpts, ObserveOpts, ObserveSession,
};
use crate::{emit_metrics, emit_trace, metrics_collector, write_sequences, Args};
use ngs_core::{NgsError, Result};
use ngs_observe::Collector;
use ngs_server::{Client, ClientConfig, ClientError, Endpoint, Listener, Server, ServerConfig};
use reptile::Reptile;
use std::io::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn parse_endpoint(args: &Args, flag: &str) -> Result<Endpoint> {
    let raw = args.require(flag)?;
    Endpoint::parse(raw).map_err(|e| NgsError::InvalidParameter(format!("--{flag}: {e}")))
}

fn client_config(args: &Args) -> Result<ClientConfig> {
    let d = ClientConfig::default();
    Ok(ClientConfig {
        max_attempts: positive(args, "max-attempts", d.max_attempts)?,
        base_backoff: millis(args, "base-backoff-ms", d.base_backoff)?,
        max_backoff: millis(args, "max-backoff-ms", d.max_backoff)?,
        seed: args.get_parsed("seed", d.seed)?,
    })
}

fn millis(args: &Args, flag: &str, default: Duration) -> Result<Duration> {
    Ok(Duration::from_millis(args.get_parsed(flag, default.as_millis() as u64)?))
}

fn positive(args: &Args, flag: &str, default: usize) -> Result<usize> {
    let n: usize = args.get_parsed(flag, default)?;
    if n == 0 {
        return Err(NgsError::InvalidParameter(format!("--{flag}: must be at least 1, got 0")));
    }
    Ok(n)
}

fn client_failure(e: ClientError) -> NgsError {
    NgsError::Io(e.to_string())
}

// ------------------------------------------------------------- ngs-serve

/// Build (or warm-start) the Reptile index for `ngs-serve`, sharing the
/// `reptile-correct` checkpoint slot. Returns the index and whether it
/// came from a snapshot.
fn load_or_build_index(
    args: &Args,
    input: &str,
    opts: &DurabilityOpts,
    collector: &Arc<Collector>,
) -> Result<(Arc<Reptile>, bool)> {
    let genome_len: usize = args.get_parsed("genome-len", 1_000_000)?;
    let mut reads = load_reads(input, opts, collector)?;
    // Same parameters and preprocessing as the batch pipeline: the index
    // must be built over the identical read set for served corrections to
    // be byte-identical to `reptile-correct` output.
    let spans = ["serve.params", "serve.preprocess"];
    let (params, tiles) = reptile_prepare(args, &mut reads, genome_len, collector, spans)?;

    let mut store = opts.store("reptile", input, collector)?;
    let params_key = reptile_params_key(&params);
    let cached = match (&store, opts.resume) {
        (Some(s), true) => {
            let _s = collector.span("serve.index.load");
            s.load("index", params_key).and_then(|b| Reptile::from_snapshot_bytes(&b).ok())
        }
        _ => None,
    };
    let warmed = cached.is_some();
    let rpt = match cached {
        Some(r) => {
            eprintln!(
                "warm start: resumed Phase-1 index from {}",
                store.as_ref().unwrap().dir().display()
            );
            r
        }
        None => {
            let r = Reptile::build_with_observed(&reads, params, tiles, collector);
            if let Some(s) = store.as_mut() {
                s.save("index", params_key, &r.snapshot_bytes())?;
                eprintln!("saved Phase-1 index snapshot to {}", s.dir().display());
            }
            r
        }
    };
    Ok((Arc::new(rpt), warmed))
}

fn server_config(args: &Args) -> Result<ServerConfig> {
    let d = ServerConfig::default();
    let workers = match args.value_of("workers")? {
        Some(raw) => parse_thread_count(raw, "--workers")?,
        None => d.workers,
    };
    Ok(ServerConfig {
        workers,
        queue_capacity: positive(args, "queue-capacity", d.queue_capacity)?,
        default_deadline: millis(args, "default-deadline-ms", d.default_deadline)?,
        max_reads_per_request: positive(args, "max-reads-per-request", d.max_reads_per_request)?,
        idle_timeout: millis(args, "idle-timeout-ms", d.idle_timeout)?,
        poll_interval: millis(args, "poll-interval-ms", d.poll_interval)?,
        max_requests: args
            .value_of("max-requests")?
            .map(|s| {
                s.parse::<u64>().map_err(|_| {
                    NgsError::InvalidParameter(format!("--max-requests: cannot parse {s:?}"))
                })
            })
            .transpose()?,
    })
}

/// `ngs-serve` driver: load/build the index once, bind the socket, print
/// the ready line, serve until SIGTERM/SIGINT (or `--max-requests`), then
/// drain gracefully and exit 0.
pub fn serve_main(args: &Args) -> Result<()> {
    let input = args.require("input")?;
    let endpoint = parse_endpoint(args, "listen")?;
    let opts = DurabilityOpts::from_args(args)?;
    let obs = ObserveOpts::from_args(args)?;
    let config = server_config(args)?;
    apply_threads_flag(args)?;

    // A long-lived server always records: `ngs-client --stats` must see
    // real queue-wait/latency percentiles even when the operator passed no
    // observability flags at startup.
    let collector = metrics_collector(args)?;
    let collector =
        Arc::new(if collector.is_enabled() { collector } else { ngs_observe::Collector::new() });
    let session = ObserveSession::begin(&obs, &collector, input);
    let (reptile, warmed) = load_or_build_index(args, input, &opts, &collector)?;

    // Bind before installing the signal handler so a failed bind is an
    // ordinary startup error, then advertise readiness on stdout — the
    // chaos harness (and any supervisor) waits for this exact line.
    let listener =
        Listener::bind(&endpoint).map_err(|e| NgsError::Io(format!("bind {endpoint}: {e}")))?;
    let actual = listener.local_endpoint();
    println!("ngs-serve: listening on {actual}");
    std::io::stdout().flush().map_err(|e| NgsError::Io(e.to_string()))?;

    // Signal bridge: the async-signal-safe handler only flips a static
    // flag; this thread forwards it into the server's drain flag so the
    // server itself stays signal-agnostic (in-process tests flip the flag
    // directly).
    ngs_server::signal::install_drain_handler();
    let drain = Arc::new(AtomicBool::new(false));
    let done = Arc::new(AtomicBool::new(false));
    let bridge = {
        let drain = drain.clone();
        let done = done.clone();
        let poll = config.poll_interval;
        std::thread::Builder::new()
            .name("serve-signal".into())
            .spawn(move || {
                while !done.load(Ordering::Acquire) {
                    if ngs_server::signal::drain_requested() {
                        drain.store(true, Ordering::Release);
                        break;
                    }
                    std::thread::sleep(poll);
                }
            })
            .expect("spawn signal bridge")
    };

    let workers = config.workers;
    let summary = Server::new(reptile, config, collector.clone()).serve(listener, drain);
    done.store(true, Ordering::Release);
    let _ = bridge.join();
    eprintln!(
        "drained: {} corrected, {} overloaded, {} deadline-exceeded, {} draining-rejected, \
         {} request errors over {} connections ({} connection errors), {} workers",
        summary.corrected,
        summary.overloaded,
        summary.deadline_exceeded,
        summary.draining_rejected,
        summary.request_errors,
        summary.connections,
        summary.connection_errors,
        workers
    );

    let mut required = vec!["serve.run", "serve.params"];
    if warmed {
        required.push("serve.index.load");
    } else {
        required.extend(["reptile.build.anchors", "reptile.build.neighbor_index"]);
    }
    session.finish()?;
    emit_metrics(args, &collector, "serve", &required)?;
    emit_trace(args, &collector)?;
    Ok(())
}

// ------------------------------------------------------------ ngs-client

/// `ngs-client` driver: ping, or correct a whole file in batches through
/// a running `ngs-serve`, writing the reassembled output atomically.
pub fn client_main(args: &Args) -> Result<()> {
    let endpoint = parse_endpoint(args, "connect")?;
    let mut client = Client::new(endpoint, client_config(args)?);

    if args.has_flag("ping") {
        let (k, distinct) = client.ping().map_err(client_failure)?;
        println!("pong: k={k} anchors={distinct}");
        return Ok(());
    }

    if args.has_flag("stats") {
        let watch_secs: u64 = args.get_parsed("watch", 0)?;
        let samples: u64 = args.get_parsed("samples", 0)?;
        let mut taken = 0u64;
        loop {
            let s = client.stats().map_err(client_failure)?;
            println!(
                "up {:>6.1}s  queue {}/{}  in-flight {}  conn-errors {}  rss {} MiB\n\
                 \x20 latency    p50 {:>8} us  p90 {:>8} us  p99 {:>8} us\n\
                 \x20 queue-wait p50 {:>8} us  p90 {:>8} us  p99 {:>8} us",
                s.uptime_ms as f64 / 1000.0,
                s.queue_depth,
                s.queue_capacity,
                s.in_flight,
                s.conn_errors,
                s.rss_bytes >> 20,
                s.latency_p50_us,
                s.latency_p90_us,
                s.latency_p99_us,
                s.queue_wait_p50_us,
                s.queue_wait_p90_us,
                s.queue_wait_p99_us,
            );
            if !s.cpu_top.is_empty() {
                println!("  cpu-top (process CPU ms over each span's closed entries)");
                for (name, cpu_us) in &s.cpu_top {
                    println!("    {:>10.1}  {name}", *cpu_us as f64 / 1000.0);
                }
            }
            std::io::stdout().flush().map_err(|e| NgsError::Io(e.to_string()))?;
            taken += 1;
            if watch_secs == 0 || (samples != 0 && taken >= samples) {
                return Ok(());
            }
            std::thread::sleep(Duration::from_secs(watch_secs));
        }
    }

    let input = args.require("input")?;
    let output = args.require("output")?;
    let batch_size = positive(args, "batch-size", 512)?;
    let deadline_ms: u64 = args.get_parsed("deadline-ms", 0)?;
    let opts = DurabilityOpts::from_args(args)?;
    let collector = Arc::new(metrics_collector(args)?);
    let reads = load_reads(input, &opts, &collector)?;

    let t0 = std::time::Instant::now();
    let mut corrected = Vec::with_capacity(reads.len());
    let mut bases_changed = 0u64;
    let mut reads_changed = 0u64;
    let mut batches = 0u64;
    for chunk in reads.chunks(batch_size) {
        let batch = client.correct(chunk, deadline_ms).map_err(client_failure)?;
        if batch.reads.len() != chunk.len() {
            return Err(NgsError::Io(format!(
                "server returned {} reads for a {}-read batch",
                batch.reads.len(),
                chunk.len()
            )));
        }
        corrected.extend(batch.reads);
        bases_changed += batch.bases_changed;
        reads_changed += batch.reads_changed;
        batches += 1;
    }
    write_sequences(output, &corrected)?;
    eprintln!(
        "corrected {} reads in {:.2?}: {} bases changed in {} reads \
         ({} batches, {} retries)",
        corrected.len(),
        t0.elapsed(),
        bases_changed,
        reads_changed,
        batches,
        client.retries
    );
    eprintln!("wrote {output}");
    Ok(())
}
