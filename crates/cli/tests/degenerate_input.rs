//! `reptile-correct` and `closet-cluster` on input with nothing to work
//! on: an empty FASTQ, reads of N bases only, and reads shorter than `k`.
//! Both exit 0; Reptile writes its input back unchanged, and CLOSET's
//! table is its header alone at every threshold. A bad `closet-cluster`
//! threshold series or density is a usage error, not a panic or a run.

use std::path::{Path, PathBuf};
use std::process::Command;

const CASES: [(&str, &[u8]); 3] = [
    ("empty", b""),
    (
        "all_n",
        b"@r0\nNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNN\n+\nIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIII\n\
          @r1\nNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNN\n+\n!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!\n",
    ),
    ("short", b"@r0\nACGTAC\n+\nIIIIII\n@r1\nACG\n+\nIII\n"),
];

fn test_dir(tool: &str, tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("ngs_degenerate_{tool}_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn run(bin: &str, input: &Path, output: &Path, extra: &[&str]) -> String {
    let out = Command::new(bin)
        .args(["--input", input.to_str().unwrap(), "--output", output.to_str().unwrap()])
        .args(extra)
        .output()
        .expect("spawn the CLI");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(out.status.success(), "{bin} exited {:?}: {stderr}", out.status);
    stderr
}

#[test]
fn reptile_writes_degenerate_input_back_unchanged() {
    for (tag, fastq) in CASES {
        let dir = test_dir("reptile", tag);
        let (input, output) = (dir.join("reads.fastq"), dir.join("corrected.fastq"));
        std::fs::write(&input, fastq).unwrap();
        let stderr = run(env!("CARGO_BIN_EXE_reptile-correct"), &input, &output, &[]);
        assert!(stderr.contains("0 bases changed in 0 reads"), "{tag}: {stderr}");
        assert_eq!(std::fs::read(&output).unwrap(), fastq, "{tag}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn closet_finds_no_cluster_in_degenerate_input() {
    for (tag, fastq) in CASES {
        let dir = test_dir("closet", tag);
        let (input, output) = (dir.join("reads.fastq"), dir.join("clusters.tsv"));
        std::fs::write(&input, fastq).unwrap();
        let stderr = run(
            env!("CARGO_BIN_EXE_closet-cluster"),
            &input,
            &output,
            &["--thresholds", "0.9,0.6"],
        );
        assert!(stderr.contains("t=0.90: 0 edges, 0 clusters"), "{tag}: {stderr}");
        assert!(stderr.contains("t=0.60: 0 edges, 0 clusters"), "{tag}: {stderr}");
        assert_eq!(
            std::fs::read_to_string(&output).unwrap(),
            "threshold\tcluster\treads\n",
            "{tag}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn closet_rejects_bad_thresholds_and_gamma_as_usage_errors() {
    let dir = test_dir("closet", "bad_flags");
    let (input, output) = (dir.join("reads.fastq"), dir.join("clusters.tsv"));
    std::fs::write(&input, CASES[2].1).unwrap();
    for (flag, value) in [
        ("--thresholds", "0.7,0.8"),
        ("--thresholds", "0.8,NaN"),
        ("--thresholds", "NaN"),
        ("--thresholds", "inf"),
        ("--thresholds", "1.5,0.7"),
        ("--thresholds", "-1"),
        ("--gamma", "NaN"),
        ("--gamma", "2"),
        ("--gamma", "0"),
        ("--gamma", "-1"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_closet-cluster"))
            .args(["--input", input.to_str().unwrap(), "--output", output.to_str().unwrap()])
            .args([flag, value])
            .output()
            .expect("spawn the CLI");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flag} {value}: {stderr}");
        assert!(stderr.contains(flag), "{flag} {value}: {stderr}");
        assert!(!output.exists(), "{flag} {value} wrote {}", output.display());
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
