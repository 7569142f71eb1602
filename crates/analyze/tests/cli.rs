//! The `analyze` binary on hostile input: a variable index past
//! `MAX_VAR` is a located parse error with exit status 2, not an
//! allocation failure that aborts the process.

use std::io::Write;
use std::process::{Command, Stdio};

#[test]
fn variable_indices_past_max_var_are_a_parse_error() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_analyze"))
        .args(["--generic", "-"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn analyze");
    child
        .stdin
        .take()
        .expect("stdin")
        .write_all(b"Y1 := Y100000000000;")
        .expect("write program");
    let out = child.wait_with_output().expect("analyze runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(
        stderr.contains(":1:7: variable Y100000000000 is past Y1024"),
        "{stderr}"
    );
}
