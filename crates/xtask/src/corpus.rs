//! The analyzer corpus runner.
//!
//! `examples/programs/*.ql` is a committed corpus of QL-family
//! programs, each carrying `// analyze:` directives that pin how it is
//! checked and what the verdict must be:
//!
//! ```text
//! // analyze: dialect=ql schema=2 expect=unsafe
//! Y1 := E & down(E);
//! ```
//!
//! A separate `// VERDICT:` directive pins the genericity verdict
//! (`generic`, `nongeneric`, or `unknown`) of the abstract
//! interpretation pass:
//!
//! ```text
//! // analyze: dialect=ql schema=2 expect=safe
//! // VERDICT: nongeneric
//! Y1 := C3;
//! ```
//!
//! A verdict drifting from its directive fails the task (the corpus is
//! a regression suite for the analyzer's user-facing behavior, CLI
//! rendering included). Single-line `parse_program("…")` literals in
//! `examples/` and `tests/` are analyzed too, report-only: they follow
//! whatever schema their test fabricates, so only the JSON report —
//! the CI artifact — records their diagnostics.
//!
//! `examples/programs/*.ra` is the relational-algebra half of the
//! corpus (DESIGN.md §10). Each file carries the CLI's
//! `// ra: schema=…` directive plus a `// VERDICT:` pin on the whole
//! check/compile pipeline:
//!
//! ```text
//! // ra: schema=E(x, y)
//! // VERDICT: accept
//! project #z (E join rename #x -> #y, #y -> #z (E))
//! ```
//!
//! `accept` means the program typechecks, passes range-restriction
//! validation, compiles, and the lowered QLhs program clears
//! `analyze_full` admission as `Safe`; `reject=RAxx` means the
//! pipeline stops with exactly that diagnostic code.
//!
//! A `// VM:` directive pins the bytecode pipeline's verdict on a
//! `.ql` file: `accept` means the program lowers to register bytecode
//! AND the independent verifier re-proves it; `reject=<code>` pins the
//! compile obstruction (`dialect`, `error`, or `unprovable`):
//!
//! ```text
//! // analyze: dialect=ql schema=2 expect=safe
//! // VM: reject=unprovable
//! ```
//!
//! The verifier rejecting the compiler's own output is always a hard
//! error — a trust-chain bug, never a pinnable verdict. Committed
//! `*.qlvm` fixtures are hand-corrupted bytecode dumps paired with the
//! `.ql` file of the same stem: each must still parse (the corruption
//! is semantic, not syntactic) and the verifier must reject it.

use crate::scan;
use recdb_analyze::{analyze_full, analyze_prog, GenericityVerdict, Severity, Verdict};
use recdb_core::Schema;
use recdb_obs::esc;
use recdb_qlhs::{classify, parse_program, parse_program_with_spans, Dialect};
use recdb_ra::{compile_program, parse_ra_with_spans, typecheck, validate, RaSchema};
use recdb_vm::{compile, verify, LowerOpts, VmProg};
use std::path::Path;

struct Directives {
    dialect: Option<Dialect>,
    schema: Schema,
    expect: Option<Verdict>,
    /// Expected genericity verdict kind (`// VERDICT:` directive).
    genericity: Option<&'static str>,
    /// Expected cost verdict rendering (`// COST:` directive) — the
    /// exact `Display` of [`recdb_analyze::CostVerdict`].
    cost: Option<String>,
    /// Expected bytecode-pipeline verdict (`// VM:` directive):
    /// `accept` or `reject=<obstruction code>`.
    vm: Option<String>,
}

fn parse_directives(src: &str) -> Result<Directives, String> {
    let mut d = Directives {
        dialect: None,
        schema: Schema::new(vec![2]),
        expect: None,
        genericity: None,
        cost: None,
        vm: None,
    };
    for line in src.lines() {
        if let Some(rest) = line.trim().strip_prefix("// COST:") {
            d.cost = Some(rest.trim().to_string());
            continue;
        }
        if let Some(rest) = line.trim().strip_prefix("// VM:") {
            let v = rest.trim();
            let is_reject = matches!(
                v.strip_prefix("reject="),
                Some("dialect" | "error" | "unprovable")
            );
            if v != "accept" && !is_reject {
                return Err(format!("unknown vm verdict `{v}`"));
            }
            d.vm = Some(v.to_string());
            continue;
        }
        if let Some(rest) = line.trim().strip_prefix("// VERDICT:") {
            d.genericity = Some(match rest.trim() {
                "generic" => "generic",
                "nongeneric" => "nongeneric",
                "unknown" => "unknown",
                other => return Err(format!("unknown genericity verdict `{other}`")),
            });
            continue;
        }
        let Some(rest) = line.trim().strip_prefix("// analyze:") else {
            continue;
        };
        for kv in rest.split_whitespace() {
            let (key, value) = kv
                .split_once('=')
                .ok_or_else(|| format!("malformed directive `{kv}`"))?;
            match key {
                "dialect" => {
                    d.dialect = Some(match value {
                        "ql" => Dialect::Ql,
                        "qlhs" => Dialect::Qlhs,
                        "qlf+" | "qlf" => Dialect::QlfPlus,
                        other => return Err(format!("unknown dialect `{other}`")),
                    })
                }
                "schema" => {
                    let arities: Result<Vec<usize>, _> = value.split(',').map(str::parse).collect();
                    d.schema =
                        Schema::new(arities.map_err(|e| format!("bad schema `{value}`: {e}"))?);
                }
                "expect" => {
                    d.expect = Some(match value {
                        "safe" => Verdict::Safe,
                        "unsafe" => Verdict::Unsafe,
                        "unknown" => Verdict::Unknown,
                        other => return Err(format!("unknown verdict `{other}`")),
                    })
                }
                other => return Err(format!("unknown directive key `{other}`")),
            }
        }
    }
    Ok(d)
}

/// The `// VERDICT:` pin of an `.ra` corpus file: `accept`, or
/// `reject=RAxx` naming the diagnostic the pipeline must stop with.
fn parse_ra_verdict(src: &str) -> Result<Option<String>, String> {
    for line in src.lines() {
        if let Some(rest) = line.trim().strip_prefix("// VERDICT:") {
            let v = rest.trim();
            let is_reject = v
                .strip_prefix("reject=")
                .is_some_and(|c| c.starts_with("RA"));
            if v != "accept" && !is_reject {
                return Err(format!("unknown ra verdict `{v}`"));
            }
            return Ok(Some(v.to_string()));
        }
    }
    Ok(None)
}

/// Pulls `// ra: schema=…` out of the source — the same directive the
/// `ra` CLI honors.
fn ra_directive_schema(src: &str) -> Option<String> {
    src.lines().find_map(|l| {
        l.trim()
            .strip_prefix("// ra:")
            .and_then(|rest| rest.trim().strip_prefix("schema="))
            .map(|s| s.trim().to_string())
    })
}

/// What the frontend actually says about `src`: `accept` or
/// `reject=RAxx` at the first failing stage, mirroring the `ra` CLI
/// pipeline. An accepted program must also compile and its lowering
/// must clear `analyze_full` admission — the claim `/v1/ra` and the
/// `RA-DIFF` ledger check rest on — so drift there is a hard error,
/// not a verdict.
fn ra_outcome(src: &str, schema: &RaSchema) -> Result<String, String> {
    let prog = match parse_ra_with_spans(src) {
        Ok((p, _spans)) => p,
        Err(e) => return Err(format!("parse error at byte {}: {}", e.at, e.msg)),
    };
    if let Err(e) = typecheck(&prog, schema) {
        return Ok(format!("reject={}", e.code));
    }
    if let Err(e) = validate(&prog, schema) {
        return Ok(format!("reject={}", e.code));
    }
    let compiled = compile_program(&prog, schema)
        .map_err(|e| format!("validated program failed to compile: {e}"))?;
    let full = analyze_full(&compiled.prog, &schema.core_schema(), Dialect::Qlhs);
    if full.safety.verdict != Verdict::Safe {
        return Err(format!(
            "lowering analyzes {}, not Safe",
            full.safety.verdict
        ));
    }
    Ok("accept".to_string())
}

/// What the bytecode pipeline says about an analyzed program:
/// `accept` when lowering and independent verification both clear,
/// `reject=<code>` naming the compile obstruction. The verifier
/// rejecting the compiler's own output is a hard error (a trust-chain
/// soundness bug), never a verdict.
fn vm_outcome(
    prog: &recdb_qlhs::Prog,
    schema: &Schema,
    dialect: Dialect,
    full: &recdb_analyze::FullAnalysis,
) -> Result<String, String> {
    match compile(
        prog,
        schema,
        dialect,
        &full.termination,
        &LowerOpts::default(),
    ) {
        Err(o) => Ok(format!("reject={}", o.kind.code())),
        Ok(vm) => match verify(
            &vm,
            prog,
            schema,
            dialect,
            &full.termination,
            Some(&full.cost.verdict),
        ) {
            Ok(_) => Ok("accept".to_string()),
            Err(r) => Err(format!("verifier rejected the compiler's own output: {r}")),
        },
    }
}

/// The string literal argument of each single-line `parse_program("…")`
/// call in `file`, unescaped, with its 1-based line number.
fn embedded_programs(raw: &str) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    for (i, line) in raw.lines().enumerate() {
        for (idx, _) in line.match_indices("parse_program(") {
            let rest = line[idx + "parse_program(".len()..].trim_start();
            let Some(body) = rest.strip_prefix('"') else {
                continue;
            };
            let mut prog = String::new();
            let mut chars = body.chars();
            let mut closed = false;
            while let Some(c) = chars.next() {
                match c {
                    '\\' => match chars.next() {
                        Some('n') => prog.push('\n'),
                        Some('t') => prog.push('\t'),
                        Some(other) => prog.push(other),
                        None => break,
                    },
                    '"' => {
                        closed = true;
                        break;
                    }
                    c => prog.push(c),
                }
            }
            if closed && !prog.trim().is_empty() {
                out.push((i + 1, prog));
            }
        }
    }
    out
}

/// Runs the corpus; returns `true` when every directive holds.
pub fn run(root: &Path, report_path: Option<&Path>) -> bool {
    let mut ok = true;
    let mut file_rows = Vec::new();
    let mut literal_rows = Vec::new();
    let mut cost_pins = 0usize;
    let mut vm_pins = 0usize;
    let mut corrupt_rows = Vec::new();

    let programs_dir = root.join("examples/programs");
    let mut ql_files: Vec<_> = std::fs::read_dir(&programs_dir)
        .map(|es| {
            es.flatten()
                .map(|e| e.path())
                .filter(|p| p.extension().is_some_and(|x| x == "ql"))
                .collect()
        })
        .unwrap_or_default();
    ql_files.sort();
    if ql_files.is_empty() {
        eprintln!("corpus: no .ql files under {}", programs_dir.display());
        ok = false;
    }

    for path in &ql_files {
        let name = path
            .strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        let src = std::fs::read_to_string(path).unwrap_or_default();
        let directives = match parse_directives(&src) {
            Ok(d) => d,
            Err(e) => {
                eprintln!("corpus: {name}: {e}");
                ok = false;
                continue;
            }
        };
        let (prog, spans) = match parse_program_with_spans(&src) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("corpus: {name}: parse error at byte {}: {}", e.at, e.msg);
                ok = false;
                continue;
            }
        };
        let dialect = directives
            .dialect
            .or_else(|| classify(&prog))
            .unwrap_or(Dialect::Qlhs);
        let full = analyze_full(&prog, &directives.schema, dialect);
        let analysis = &full.safety;
        if let Some(expect) = directives.expect {
            if analysis.verdict != expect {
                eprintln!(
                    "corpus: {name}: expected verdict {expect}, analyzer says {} —",
                    analysis.verdict
                );
                for d in &analysis.diagnostics {
                    eprint!("{}", d.render(Some((&src, &spans)), &name));
                }
                ok = false;
            }
        }
        let gkind = match &full.genericity.verdict {
            GenericityVerdict::Generic { .. } => "generic",
            GenericityVerdict::NonGeneric { .. } => "nongeneric",
            GenericityVerdict::Unknown => "unknown",
        };
        if let Some(expect) = directives.genericity {
            if gkind != expect {
                eprintln!(
                    "corpus: {name}: expected genericity verdict `{expect}`, analyzer says \
                     `{}` ({})",
                    gkind, full.genericity.verdict
                );
                ok = false;
            }
        }
        let cost_verdict = full.cost.verdict.to_string();
        if let Some(expect) = &directives.cost {
            cost_pins += 1;
            if &cost_verdict != expect {
                eprintln!(
                    "corpus: {name}: expected cost verdict `{expect}`, analyzer says \
                     `{cost_verdict}`"
                );
                ok = false;
            }
            // An unbounded pin must come with its W0601 obstruction
            // diagnostic — the pin covers the user-facing finding too.
            if expect.starts_with("unbounded")
                && !full
                    .cost
                    .diagnostics
                    .iter()
                    .any(|d| d.code == recdb_analyze::Code::CostUnbounded)
            {
                eprintln!("corpus: {name}: unbounded cost pin without a W0601 diagnostic");
                ok = false;
            }
        }
        let vm_verdict = match vm_outcome(&prog, &directives.schema, dialect, &full) {
            Ok(v) => v,
            Err(e) => {
                eprintln!("corpus: {name}: {e}");
                ok = false;
                "error".to_string()
            }
        };
        if let Some(expect) = &directives.vm {
            vm_pins += 1;
            if &vm_verdict != expect {
                eprintln!(
                    "corpus: {name}: expected vm verdict `{expect}`, bytecode pipeline says \
                     `{vm_verdict}`"
                );
                ok = false;
            }
        }
        // A committed `<stem>.qlvm` fixture is a hand-corrupted dump of
        // this program's bytecode: it must parse (the corruption is
        // semantic) and the independent verifier must reject it.
        let fixture = path.with_extension("qlvm");
        if fixture.exists() {
            let fixture_name = fixture
                .strip_prefix(root)
                .unwrap_or(&fixture)
                .to_string_lossy()
                .replace('\\', "/");
            let text = std::fs::read_to_string(&fixture).unwrap_or_default();
            match VmProg::parse_dump(&text) {
                Err(e) => {
                    eprintln!("corpus: {fixture_name}: corrupt fixture must still parse: {e}");
                    ok = false;
                }
                Ok(bad) => match verify(
                    &bad,
                    &prog,
                    &directives.schema,
                    dialect,
                    &full.termination,
                    Some(&full.cost.verdict),
                ) {
                    Ok(_) => {
                        eprintln!(
                            "corpus: {fixture_name}: verifier ACCEPTED the corrupted bytecode — \
                             soundness hole"
                        );
                        ok = false;
                    }
                    Err(r) => {
                        corrupt_rows.push(format!(
                            "    {{\"file\": \"{}\", \"rejected_at\": {}, \"reason\": \"{}\"}}",
                            esc(&fixture_name),
                            r.at,
                            esc(&r.reason)
                        ));
                    }
                },
            }
        }
        let diags: Vec<String> = analysis
            .diagnostics
            .iter()
            .map(|d| {
                format!(
                    "{{\"code\": \"{}\", \"severity\": \"{}\", \"message\": \"{}\"}}",
                    d.code,
                    match d.severity() {
                        Severity::Error => "error",
                        Severity::Warning => "warning",
                    },
                    esc(&d.message)
                )
            })
            .collect();
        file_rows.push(format!(
            "    {{\"file\": \"{}\", \"dialect\": \"{}\", \"verdict\": \"{}\", \
             \"genericity\": \"{}\", \"termination\": \"{}\", \"cost\": \"{}\", \
             \"vm\": \"{}\", \"diagnostics\": [{}]}}",
            esc(&name),
            dialect,
            analysis.verdict,
            esc(&full.genericity.verdict.to_string()),
            esc(&full.termination.verdict.to_string()),
            esc(&cost_verdict),
            esc(&vm_verdict),
            diags.join(", ")
        ));
    }

    // The cost pass is part of the corpus contract: enough files must
    // pin their cost verdicts (obstruction case included) that a
    // rendering or transfer-function drift cannot slip through.
    if cost_pins < 6 {
        eprintln!("corpus: only {cost_pins} `// COST:` pins — at least 6 required");
        ok = false;
    }

    // Same contract for the bytecode pipeline: enough `// VM:` pins
    // (acceptances and each obstruction code) plus at least one
    // hand-corrupted dump the verifier must throw out.
    if vm_pins < 4 {
        eprintln!("corpus: only {vm_pins} `// VM:` pins — at least 4 required");
        ok = false;
    }
    if corrupt_rows.is_empty() {
        eprintln!("corpus: no `.qlvm` corrupted-bytecode fixture under examples/programs");
        ok = false;
    }

    // The relational-algebra half: `.ra` files under the same
    // directory, pinned by `// VERDICT:` directives.
    let mut ra_files: Vec<_> = std::fs::read_dir(&programs_dir)
        .map(|es| {
            es.flatten()
                .map(|e| e.path())
                .filter(|p| p.extension().is_some_and(|x| x == "ra"))
                .collect()
        })
        .unwrap_or_default();
    ra_files.sort();
    if ra_files.is_empty() {
        eprintln!("corpus: no .ra files under {}", programs_dir.display());
        ok = false;
    }
    let mut ra_rows = Vec::new();
    for path in &ra_files {
        let name = path
            .strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        let src = std::fs::read_to_string(path).unwrap_or_default();
        let expect = match parse_ra_verdict(&src) {
            Ok(Some(v)) => v,
            Ok(None) => {
                eprintln!("corpus: {name}: missing `// VERDICT:` directive");
                ok = false;
                continue;
            }
            Err(e) => {
                eprintln!("corpus: {name}: {e}");
                ok = false;
                continue;
            }
        };
        let Some(schema_src) = ra_directive_schema(&src) else {
            eprintln!("corpus: {name}: missing `// ra: schema=…` directive");
            ok = false;
            continue;
        };
        let schema = match RaSchema::parse(&schema_src) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("corpus: {name}: bad schema: {e}");
                ok = false;
                continue;
            }
        };
        let got = match ra_outcome(&src, &schema) {
            Ok(g) => g,
            Err(e) => {
                eprintln!("corpus: {name}: {e}");
                ok = false;
                continue;
            }
        };
        if got != expect {
            eprintln!("corpus: {name}: expected `{expect}`, frontend says `{got}`");
            ok = false;
        }
        ra_rows.push(format!(
            "    {{\"file\": \"{}\", \"verdict\": \"{}\"}}",
            esc(&name),
            esc(&got)
        ));
    }

    // Report-only: program literals embedded in examples and tests.
    for dir in ["examples", "tests"] {
        for file in scan::rust_files(&root.join(dir)) {
            let name = file
                .strip_prefix(root)
                .unwrap_or(&file)
                .to_string_lossy()
                .replace('\\', "/");
            let raw = std::fs::read_to_string(&file).unwrap_or_default();
            for (line, src) in embedded_programs(&raw) {
                let Ok(prog) = parse_program(&src) else {
                    continue;
                };
                let dialect = classify(&prog).unwrap_or(Dialect::Qlhs);
                let analysis = analyze_prog(&prog, &Schema::new(vec![2]), dialect);
                let codes: Vec<String> = analysis
                    .diagnostics
                    .iter()
                    .map(|d| format!("\"{}\"", d.code))
                    .collect();
                literal_rows.push(format!(
                    "    {{\"file\": \"{}\", \"line\": {line}, \"verdict\": \"{}\", \"codes\": [{}]}}",
                    esc(&name),
                    analysis.verdict,
                    codes.join(", ")
                ));
            }
        }
    }

    if let Some(path) = report_path {
        let report = format!(
            "{{\n  \"schema\": \"ANALYZE_CORPUS/v4\",\n  \"files\": [\n{}\n  ],\n  \"ra\": [\n{}\n  ],\n  \"corrupt\": [\n{}\n  ],\n  \"literals\": [\n{}\n  ]\n}}\n",
            file_rows.join(",\n"),
            ra_rows.join(",\n"),
            corrupt_rows.join(",\n"),
            literal_rows.join(",\n")
        );
        if let Err(e) = std::fs::write(path, report) {
            eprintln!("corpus: writing {}: {e}", path.display());
            ok = false;
        } else {
            println!("corpus: wrote {}", path.display());
        }
    }
    if ok {
        println!(
            "corpus: OK — {} corpus file(s) ({} .ql + {} .ra), {} embedded literal(s) analyzed",
            ql_files.len() + ra_files.len(),
            ql_files.len(),
            ra_files.len(),
            literal_rows.len()
        );
    }
    ok
}
