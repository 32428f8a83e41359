//! Thread-count determinism matrix: each pipeline CLI must produce
//! byte-identical output — and identical pipeline statistics — at
//! `NGS_THREADS=1` and `NGS_THREADS=8`.
//!
//! The parallel runtime's contract (see `crates/shim-rayon`) is that
//! results are a pure function of the input, never of thread count or
//! scheduling: chunk boundaries and reduction/sort trees depend only on
//! input length, mapped results land in index-addressed slots, float
//! sums stay sequential. This test pins that contract end to end through
//! real processes, because the pool size is fixed per process at first
//! use — only separate invocations can compare thread counts.
//!
//! Statistics are compared via the `counters` section of the metrics
//! report, which carries `ReptileStats` (bases changed, per-decision
//! counts, the `reptile.enum.*` enumeration costs) and the MapReduce
//! `JobStats` (`job.*`) verbatim; wall-time
//! spans differ between runs by nature and are excluded.

use ngs_core::Read;
use std::path::{Path, PathBuf};
use std::process::Command;

fn xorshift(s: &mut u64) -> u64 {
    *s ^= *s << 13;
    *s ^= *s >> 7;
    *s ^= *s << 17;
    *s
}

fn random_genome(len: usize, seed: &mut u64) -> Vec<u8> {
    (0..len).map(|_| b"ACGT"[(xorshift(seed) % 4) as usize]).collect()
}

fn sample_reads(genome: &[u8], n: usize, read_len: usize, seed: &mut u64) -> Vec<Read> {
    (0..n)
        .map(|i| {
            let pos = (xorshift(seed) as usize) % (genome.len() - read_len);
            let mut seq = genome[pos..pos + read_len].to_vec();
            if xorshift(seed) % 100 < 40 {
                let at = (xorshift(seed) as usize) % read_len;
                seq[at] = b"ACGT"[(xorshift(seed) % 4) as usize];
            }
            Read::new(format!("r{i}"), seq)
        })
        .collect()
}

fn test_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ngs_determinism_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The `"counters": { ... }` object of a metrics report: the
/// deterministic statistics (ReptileStats, JobStats, record counts),
/// with no wall-time fields.
fn counters_section(metrics_path: &Path) -> String {
    let text = std::fs::read_to_string(metrics_path).unwrap();
    let start = text.find("\"counters\": {").expect("metrics report has a counters section");
    let end = text[start..].find('}').expect("counters object closes") + start;
    text[start..=end].to_string()
}

/// Run `bin` once per thread count; outputs and counters must agree.
/// `side_output` names a flag taking a second output path (`--correct`),
/// whose file must agree too.
fn determinism_matrix(
    bin: &str,
    dir: &Path,
    input: &Path,
    extra: &[&str],
    side_output: Option<&str>,
) {
    let input = input.to_str().unwrap();
    let mut baseline: Option<(Vec<u8>, String)> = None;
    for threads in ["1", "8"] {
        let out_path = dir.join(format!("t{threads}.out"));
        let metrics_path = dir.join(format!("t{threads}_metrics.json"));
        let mut args = vec!["--input", input, "--output", out_path.to_str().unwrap()];
        args.extend_from_slice(extra);
        let metrics = metrics_path.to_str().unwrap().to_string();
        args.extend_from_slice(&["--metrics-json", &metrics]);
        let side_path = dir.join(format!("t{threads}.side"));
        if let Some(flag) = side_output {
            args.extend_from_slice(&[flag, side_path.to_str().unwrap()]);
        }
        let out = Command::new(bin)
            .args(&args)
            .env("NGS_THREADS", threads)
            .output()
            .expect("spawn pipeline binary");
        assert!(
            out.status.success(),
            "NGS_THREADS={threads} run failed (status {:?}):\n{}",
            out.status.code(),
            String::from_utf8_lossy(&out.stderr)
        );
        let mut bytes = std::fs::read(&out_path).unwrap();
        if side_output.is_some() {
            bytes.extend(std::fs::read(&side_path).unwrap());
        }
        let counters = counters_section(&metrics_path);
        match &baseline {
            None => baseline = Some((bytes, counters)),
            Some((base_bytes, base_counters)) => {
                assert_eq!(
                    &bytes, base_bytes,
                    "output bytes differ between NGS_THREADS=1 and NGS_THREADS={threads}"
                );
                assert_eq!(
                    &counters, base_counters,
                    "pipeline statistics differ between NGS_THREADS=1 and NGS_THREADS={threads}"
                );
            }
        }
    }
}

#[test]
fn reptile_output_is_thread_count_invariant() {
    let dir = test_dir("reptile");
    let mut seed = 0xd37e_0001;
    let genome = random_genome(1500, &mut seed);
    let reads = sample_reads(&genome, 500, 50, &mut seed);
    let input = dir.join("reads.fastq");
    let file = std::fs::File::create(&input).unwrap();
    ngs_seqio::write_fastq(file, &reads).unwrap();
    // d = 2 as well: most of the enumeration work, and with it most of what
    // the `reptile.enum.*` counters count, only happens there.
    for d in ["1", "2"] {
        determinism_matrix(
            env!("CARGO_BIN_EXE_reptile-correct"),
            &dir,
            &input,
            &["--genome-len", "1500", "--d", d],
            None,
        );
        let counters = counters_section(&dir.join("t1_metrics.json"));
        for name in ["enumerations", "neighbor_probes", "tile_runs_scanned", "tile_entries_scanned"]
        {
            assert!(counters.contains(&format!("\"reptile.enum.{name}\"")), "d={d}: {counters}");
        }
    }
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn redeem_output_is_thread_count_invariant() {
    let dir = test_dir("redeem");
    let mut seed = 0xd37e_0002;
    // Enough distinct k-mers (~14 k) that the threshold fit's E step spans
    // several blocks and its block fold is part of what is pinned.
    let genome = random_genome(5000, &mut seed);
    let reads = sample_reads(&genome, 3000, 40, &mut seed);
    let input = dir.join("reads.fastq");
    let file = std::fs::File::create(&input).unwrap();
    ngs_seqio::write_fastq(file, &reads).unwrap();
    determinism_matrix(
        env!("CARGO_BIN_EXE_redeem-detect"),
        &dir,
        &input,
        &["--k", "9", "--max-iters", "15"],
        Some("--correct"),
    );
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn closet_output_is_thread_count_invariant() {
    let dir = test_dir("closet");
    let mut seed = 0xd37e_0003;
    let gene_a = random_genome(400, &mut seed);
    let gene_b = random_genome(400, &mut seed);
    let mut reads = sample_reads(&gene_a, 70, 120, &mut seed);
    reads.extend(sample_reads(&gene_b, 70, 120, &mut seed));
    for (i, r) in reads.iter_mut().enumerate() {
        r.id = format!("r{i}");
    }
    let input = dir.join("reads.fastq");
    let file = std::fs::File::create(&input).unwrap();
    ngs_seqio::write_fastq(file, &reads).unwrap();
    determinism_matrix(
        env!("CARGO_BIN_EXE_closet-cluster"),
        &dir,
        &input,
        &["--workers", "2", "--thresholds", "0.7,0.5"],
        None,
    );
    let _ = std::fs::remove_dir_all(dir);
}

// ---- read order ----------------------------------------------------------
//
// Reptile and REDEEM build order-free tables (tile counts, k-spectrum,
// misread graph, threshold fit) and then correct each read on its own, so
// shuffling the input records must shuffle the corrected records the same
// way and change nothing else.

/// Simulated reads with ambiguous bases, written as FASTQ with and without
/// a seeded shuffle of the records; returns the permutation (`shuffled[i] =
/// reads[perm[i]]`) and both paths.
fn shuffled_input(
    dir: &Path,
    genome_len: usize,
    repeats: Vec<ngs_simulate::RepeatClass>,
) -> (Vec<usize>, PathBuf, PathBuf) {
    use ngs_simulate::{simulate_reads, ErrorModel, GenomeSpec, ReadSimConfig};
    let genome = GenomeSpec::with_repeats(genome_len, repeats).generate(5);
    let mut cfg = ReadSimConfig::with_coverage(
        genome.len(),
        36,
        40.0,
        ErrorModel::illumina_like(36, 0.01),
        6,
    );
    cfg.n_rate = 0.001;
    let reads = simulate_reads(&genome.seq, &cfg).reads;
    let mut perm: Vec<usize> = (0..reads.len()).collect();
    let mut seed = 0x5eed_0bad;
    for i in (1..perm.len()).rev() {
        perm.swap(i, (xorshift(&mut seed) % (i as u64 + 1)) as usize);
    }
    let shuffled: Vec<Read> = perm.iter().map(|&i| reads[i].clone()).collect();
    let (original, permuted) = (dir.join("reads.fastq"), dir.join("shuffled.fastq"));
    ngs_seqio::write_fastq(std::fs::File::create(&original).unwrap(), &reads).unwrap();
    ngs_seqio::write_fastq(std::fs::File::create(&permuted).unwrap(), &shuffled).unwrap();
    (perm, original, permuted)
}

fn run_pipeline(bin: &str, args: &[&str]) {
    let out = Command::new(bin).args(args).output().expect("spawn pipeline binary");
    assert!(out.status.success(), "{bin} failed:\n{}", String::from_utf8_lossy(&out.stderr));
}

/// The corrected FASTQ at `original`, reordered by `perm`, must be byte for
/// byte the corrected FASTQ at `permuted`, and must differ from `input`.
fn assert_permuted_output(perm: &[usize], input: &Path, original: &Path, permuted: &Path) {
    assert!(std::fs::read(input).unwrap() != std::fs::read(original).unwrap(), "nothing corrected");
    let reads = ngs_seqio::read_fastq(std::fs::File::open(original).unwrap()).unwrap();
    assert_eq!(reads.len(), perm.len());
    let reordered: Vec<Read> = perm.iter().map(|&i| reads[i].clone()).collect();
    let mut expected = Vec::new();
    ngs_seqio::write_fastq(&mut expected, &reordered).unwrap();
    assert!(expected == std::fs::read(permuted).unwrap(), "shuffled input corrected differently");
}

#[test]
fn reptile_output_is_read_order_invariant() {
    let dir = test_dir("reptile_order");
    let (perm, original, permuted) = shuffled_input(&dir, 3000, Vec::new());
    let bin = env!("CARGO_BIN_EXE_reptile-correct");
    let (out_a, out_b) = (dir.join("a.fastq"), dir.join("b.fastq"));
    for (input, out) in [(&original, &out_a), (&permuted, &out_b)] {
        let (input, out) = (input.to_str().unwrap(), out.to_str().unwrap());
        run_pipeline(bin, &["--input", input, "--output", out, "--genome-len", "3000"]);
    }
    assert_permuted_output(&perm, &original, &out_a, &out_b);
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn redeem_output_is_read_order_invariant() {
    let dir = test_dir("redeem_order");
    let repeats = vec![ngs_simulate::RepeatClass { length: 200, multiplicity: 5 }];
    let (perm, original, permuted) = shuffled_input(&dir, 3000, repeats);
    let bin = env!("CARGO_BIN_EXE_redeem-detect");
    let run = |input: &Path, tag: &str| {
        let (kmers, fastq) = (dir.join(format!("{tag}.tsv")), dir.join(format!("{tag}.fastq")));
        let (i, k, f) = (input.to_str().unwrap(), kmers.to_str().unwrap(), fastq.to_str().unwrap());
        run_pipeline(bin, &["--input", i, "--output", k, "--k", "11", "--correct", f]);
        (std::fs::read(kmers).unwrap(), fastq)
    };
    let (kmers_a, fastq_a) = run(&original, "a");
    let (kmers_b, fastq_b) = run(&permuted, "b");
    assert!(kmers_a == kmers_b, "kmers.tsv depends on read order");
    assert_permuted_output(&perm, &original, &fastq_a, &fastq_b);
    let _ = std::fs::remove_dir_all(dir);
}
