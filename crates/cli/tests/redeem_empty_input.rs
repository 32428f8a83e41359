//! `redeem-detect` on input with no k-mer at all: an empty FASTQ, and reads
//! all shorter than `k`. The misread graph has no node, so the EM starts
//! converged and runs no iteration; the table is its header alone and the
//! reads come back unchanged.

use std::path::PathBuf;
use std::process::Command;

fn test_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ngs_redeem_empty_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn no_kmer_input_runs_no_em_iteration() {
    let cases: [(&str, &[u8]); 2] =
        [("empty", b""), ("short", b"@r0\nACGTAC\n+\nIIIIII\n@r1\nACG\n+\nIII\n")];
    for (tag, fastq) in cases {
        let dir = test_dir(tag);
        let (input, table, corrected, metrics) = (
            dir.join("reads.fastq"),
            dir.join("kmers.tsv"),
            dir.join("corrected.fastq"),
            dir.join("metrics.json"),
        );
        std::fs::write(&input, fastq).unwrap();
        let out = Command::new(env!("CARGO_BIN_EXE_redeem-detect"))
            .args(["--input", input.to_str().unwrap(), "--output", table.to_str().unwrap()])
            .args(["--k", "11", "--correct", corrected.to_str().unwrap()])
            .args(["--metrics-json", metrics.to_str().unwrap()])
            .output()
            .expect("spawn redeem-detect");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{tag}: {stderr}");
        assert!(stderr.contains("EM finished after 0 iterations"), "{tag}: {stderr}");
        assert_eq!(std::fs::read_to_string(&table).unwrap(), "kmer\tY\tT\terroneous\n", "{tag}");
        assert_eq!(std::fs::read(&corrected).unwrap(), fastq, "{tag}");
        // Counters of zero are not recorded, and no iteration span opened.
        let report = std::fs::read_to_string(&metrics).unwrap();
        assert!(!report.contains("\"redeem.em.iteration"), "{tag}: {report}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
