//! The `qlvm --verify` report is valid JSON whatever the file is
//! called: a name holding a tab, a newline or a quote is escaped, not
//! copied into the string literal raw.

use std::process::Command;

#[test]
fn verify_report_escapes_control_characters_in_the_file_name() {
    let dir = std::env::temp_dir().join(format!("qlvm_cli_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let file = dir.join("a\tb\n\"c\".ql");
    std::fs::write(&file, "Y1 := R1;").expect("write program");
    let out = Command::new(env!("CARGO_BIN_EXE_qlvm"))
        .arg("--verify")
        .arg(&file)
        .output()
        .expect("qlvm runs");
    std::fs::remove_dir_all(&dir).ok();
    let stdout = String::from_utf8(out.stdout).expect("utf-8 report");
    let line = stdout.strip_suffix('\n').expect("one report line");
    assert!(
        !line.chars().any(char::is_control),
        "raw control character in {line:?}"
    );
    assert!(
        line.contains(r#"a\tb\n\"c\".ql", "accepted": true"#),
        "{line}"
    );
}
