//! The `ra` binary end to end: `ra compile --optimize` prints the
//! optimizer's verdict and the lowering of the plan it chose, byte for
//! byte, for the three RA queries of the serve benchmark's
//! `value_join` workload.

use std::io::Write;
use std::process::{Command, Stdio};

/// Runs `ra compile --optimize --schema "E(x, y)" -` on `query`;
/// returns the exit code and stdout.
fn compile_optimized(query: &str) -> (Option<i32>, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_ra"))
        .args(["compile", "--optimize", "--schema", "E(x, y)", "-"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("ra starts");
    child
        .stdin
        .take()
        .expect("stdin")
        .write_all(query.as_bytes())
        .expect("write query");
    let out = child.wait_with_output().expect("ra exits");
    (
        out.status.code(),
        String::from_utf8(out.stdout).expect("utf-8"),
    )
}

#[test]
fn optimized_compile_prints_the_chosen_plan() {
    let cases: [(&str, &[&str]); 3] = [
        (
            "project #x, #z (E join rename #x -> #y, #y -> #z (E))",
            &[
                "ok: 0 view(s), query attributes (x, z)",
                "// optimized: no improving rewrite (cost bound 512, nominal)",
                "// compiled QLhs (2 result columns)",
                "Y1 := down(down((up(swap(down((up(down((up((up(R1) & down((up(swap(down((up(down((up(swap(up(R1))) & swap(up(swap(up(E))))))) & swap(up(swap(up(E)))))))) & swap(up(swap(up(E)))))))) & swap(up(swap(up(E))))))) & swap(up(swap(up(E)))))))) & swap(up(swap(up(E)))))));",
            ],
        ),
        (
            "project #x, #z (E join rename #x -> #y, #y -> #z (E)) diff rename #y -> #z (E)",
            &[
                "ok: 0 view(s), query attributes (x, z)",
                "// optimized: no improving rewrite (cost bound 64, nominal)",
                "// compiled QLhs (2 result columns)",
                "Y1 := (down(down((up(swap(down((up(down((up((up(R1) & down((up(swap(down((up(down((up(swap(up(R1))) & swap(up(swap(up(E))))))) & swap(up(swap(up(E)))))))) & swap(up(swap(up(E)))))))) & swap(up(swap(up(E))))))) & swap(up(swap(up(E)))))))) & swap(up(swap(up(E))))))) & !R1);",
            ],
        ),
        (
            "Sources := project #x (E) diff project #x (rename #x -> #y, #y -> #x (E)); Sources join (E join rename #x -> #y, #y -> #z (E))",
            &[
                "ok: 1 view(s), query attributes (x, y, z)",
                "// optimized: [], cost bound 72 -> 72 (nominal)",
                "// plan: Sources := (project #x (E) diff project #x (rename #x -> #y, #y -> #x (E)));",
                "((Sources join E) join rename #x -> #y, #y -> #z (E))",
                "// compiled QLhs (3 result columns)",
                "Y2 := (down(swap(R1)) & !down(swap(swap(R1))));",
                "Y1 := (up((up(Y2) & R1)) & down((up(swap(down((up(down((up(swap(up(R1))) & swap(up(swap(up(E))))))) & swap(up(swap(up(E)))))))) & swap(up(swap(up(E)))))));",
            ],
        ),
    ];
    for (query, lines) in cases {
        let (code, stdout) = compile_optimized(query);
        assert_eq!(code, Some(0), "{query}");
        assert_eq!(stdout, format!("{}\n", lines.join("\n")), "{query}");
    }
}
