//! Exit codes and stderr of a real experiment binary when it refuses to
//! run: a parse error prints the error and the usage, a data error found
//! after parsing prints only the error, and both exit 2 even when stderr
//! is a pipe nobody reads.

use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};

const BIN: &str = env!("CARGO_BIN_EXE_table2_firewall");

/// A fresh temp dir holding a ledger whose header is schema version 1,
/// which `--resume` refuses.
fn v1_ledger(tag: &str) -> (PathBuf, PathBuf) {
    let dir = std::env::temp_dir().join(format!("aml_cli_exit_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let ledger = dir.join("v1.jsonl");
    std::fs::write(
        &ledger,
        "{\"type\":\"ledger\",\"schema_version\":1,\"run_id\":\"r\",\"workload\":\"table2_firewall\",\"seed\":11,\"git\":\"g\"}\n",
    )
    .unwrap();
    (dir, ledger)
}

fn resume_args(dir: &Path, ledger: &Path) -> Vec<String> {
    let mut args = ["--quick", "--seed", "11", "--resume", "--out"]
        .map(String::from)
        .to_vec();
    args.push(dir.display().to_string());
    args.push("--ledger-out".into());
    args.push(ledger.display().to_string());
    args
}

fn run(args: &[String]) -> Output {
    Command::new(BIN)
        .args(args)
        .stdin(Stdio::null())
        .output()
        .unwrap()
}

#[test]
fn a_data_error_prints_only_the_error_line() {
    let (dir, ledger) = v1_ledger("data");
    let out = run(&resume_args(&dir, &ledger));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert_eq!(stderr.lines().count(), 1, "{stderr}");
    assert!(
        stderr.starts_with("error: --resume ")
            && stderr.contains("unsupported ledger schema_version 1 (expected 2)"),
        "{stderr}"
    );
    assert!(out.stdout.is_empty());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_parse_error_prints_the_error_and_the_usage() {
    let out = run(&["--bogus".to_string()]);
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert_eq!(
        stderr,
        format!("error: unknown flag '--bogus'\n{}\n", aml_bench::USAGE)
    );
}

#[test]
fn a_closed_stderr_pipe_still_exits_2() {
    let (dir, ledger) = v1_ledger("pipe");
    for args in [resume_args(&dir, &ledger), vec!["--bogus".to_string()]] {
        // The read end is gone before the child starts, so every write to
        // its stderr fails with a broken pipe.
        let (reader, writer) = std::io::pipe().unwrap();
        drop(reader);
        let status = Command::new(BIN)
            .args(&args)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(writer)
            .status()
            .unwrap();
        assert_eq!(status.code(), Some(2), "{args:?}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
