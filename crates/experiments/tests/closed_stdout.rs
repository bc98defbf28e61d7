//! The CLI binaries with a closed stdout (`scenarios list | head -n 1`
//! once `head` has exited): they must finish quietly, with status 0 and
//! no panic, instead of `println!`'s exit 101 and backtrace.

use std::path::Path;
use std::process::{Command, Stdio};

/// Runs `bin args` with the read end of its stdout pipe closed before
/// the child starts, so its first write meets a broken pipe.
fn run_with_closed_stdout(bin: &str, args: &[&str]) {
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let out = Command::new(Path::new(bin))
        .args(args)
        .stdout(writer)
        .stderr(Stdio::piped())
        .output()
        .expect("spawn");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_ne!(out.status.code(), Some(101), "{bin} {args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{bin} {args:?}: {stderr}");
    assert!(out.status.success(), "{bin} {args:?}: {stderr}");
}

#[test]
fn scenarios_exits_quietly_on_a_closed_stdout() {
    let bin = env!("CARGO_BIN_EXE_scenarios");
    run_with_closed_stdout(bin, &["list"]);
    run_with_closed_stdout(bin, &["show", "light-4x4"]);
    // A sweep prints its summary before it writes the artefact; the
    // lost summary must not cost the artefact.
    let dir = std::env::temp_dir().join(format!("sirtm_closed_stdout_{}", std::process::id()));
    let artefact = dir.join("light.json");
    let _ = std::fs::remove_dir_all(&dir);
    let out = artefact.to_str().expect("utf-8 temp path");
    run_with_closed_stdout(bin, &["run", "light-4x4", "--runs", "1", "--out", out]);
    assert!(artefact.is_file(), "no artefact at {out}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn repro_exits_quietly_on_a_closed_stdout() {
    run_with_closed_stdout(env!("CARGO_BIN_EXE_repro"), &["graph"]);
}
