//! `ra` — the relational-algebra CLI.
//!
//! ```text
//! ra check FILE|-      parse, typecheck, and safety-validate
//! ra compile FILE|-    … then print the lowered QLhs program
//!
//! OPTIONS
//!   --schema "R(a,b); S(b,c)"   named-attribute schema; overrides any
//!                               `// ra: schema=…` directive in FILE
//!   --optimize                  run the cost-guided rewriter first;
//!                               prints the rules applied, the nominal
//!                               cost bounds, and (for compile) lowers
//!                               the optimized plan
//! ```
//!
//! The schema may also ride in the program text as a directive line:
//!
//! ```text
//! // ra: schema=R(a, b); S(b, c)
//! project #a (R join S)
//! ```
//!
//! Diagnostics render rustc-style with `line:col` resolved through
//! the parser's span table. Exit status: 0 on success, 1 on RA
//! diagnostics, 2 on usage/parse failures.

use recdb_qlhs::SpanTable;
use recdb_ra::{
    compile_program, optimize_program, parse_ra_with_spans, typecheck, validate, RaSchema,
};
use std::io::Read;
use std::process::ExitCode;

struct Opts {
    cmd: String,
    file: String,
    schema: Option<String>,
    optimize: bool,
}

fn usage() -> String {
    "usage: ra check|compile [--optimize] [--schema \"R(a,b); S(b,c)\"] FILE|-".to_string()
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut it = args.iter();
    let cmd = it.next().cloned().ok_or_else(usage)?;
    if cmd != "check" && cmd != "compile" {
        return Err(usage());
    }
    let mut schema = None;
    let mut file = None;
    let mut optimize = false;
    while let Some(a) = it.next() {
        match a.as_str() {
            "--optimize" => optimize = true,
            "--schema" => {
                schema = Some(
                    it.next()
                        .ok_or_else(|| "--schema needs a value".to_string())?
                        .clone(),
                )
            }
            _ if file.is_none() => file = Some(a.clone()),
            other => return Err(format!("unexpected argument {other:?}")),
        }
    }
    Ok(Opts {
        cmd,
        file: file.ok_or_else(usage)?,
        schema,
        optimize,
    })
}

/// Pulls `// ra: schema=…` out of the source.
fn directive_schema(src: &str) -> Option<String> {
    src.lines().find_map(|l| {
        l.trim()
            .strip_prefix("// ra:")
            .and_then(|rest| rest.trim().strip_prefix("schema="))
            .map(|s| s.trim().to_string())
    })
}

fn render(src: &str, spans: &SpanTable, e: &recdb_ra::RaError, file: &str) {
    eprintln!("error[{}]: {}", e.code, e.message);
    if let Some(span) = spans.enclosing(&e.path) {
        let (line, col) = span.line_col(src);
        eprintln!("  --> {file}:{line}:{col}");
        if let Some(text) = src.lines().nth(line - 1) {
            eprintln!("   |");
            eprintln!("{line:>3}| {text}");
            let width = span.end.saturating_sub(span.start).clamp(1, text.len());
            eprintln!("   | {}{}", " ".repeat(col - 1), "^".repeat(width));
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_opts(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let src = if opts.file == "-" {
        let mut s = String::new();
        if std::io::stdin().read_to_string(&mut s).is_err() {
            eprintln!("error: cannot read stdin");
            return ExitCode::from(2);
        }
        s
    } else {
        match std::fs::read_to_string(&opts.file) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("error: cannot read {}: {e}", opts.file);
                return ExitCode::from(2);
            }
        }
    };
    let schema_src = match opts.schema.or_else(|| directive_schema(&src)) {
        Some(s) => s,
        None => {
            eprintln!("error: no schema (--schema or a `// ra: schema=…` directive)");
            return ExitCode::from(2);
        }
    };
    let schema = match RaSchema::parse(&schema_src) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: bad schema: {e}");
            return ExitCode::from(2);
        }
    };
    let (prog, spans) = match parse_ra_with_spans(&src) {
        Ok(ok) => ok,
        Err(e) => {
            let (line, col) = recdb_qlhs::Span {
                start: e.at,
                end: e.at + 1,
            }
            .line_col(&src);
            eprintln!("error: {} at {}:{line}:{col}", e.msg, opts.file);
            return ExitCode::from(2);
        }
    };
    let typed = match typecheck(&prog, &schema) {
        Ok(t) => t,
        Err(e) => {
            render(&src, &spans, &e, &opts.file);
            return ExitCode::from(1);
        }
    };
    if let Err(e) = validate(&prog, &schema) {
        render(&src, &spans, &e, &opts.file);
        return ExitCode::from(1);
    }
    println!(
        "ok: {} view(s), query attributes ({})",
        prog.views.len(),
        typed.query_attrs.join(", ")
    );
    // The optimizer lowers the plan it chooses; print that lowering.
    let compiled = if opts.optimize {
        match optimize_program(&prog, &schema) {
            Ok(r) => {
                if r.changed {
                    println!(
                        "// optimized: [{}], cost bound {} -> {} (nominal)",
                        r.applied.join(", "),
                        r.cost_original,
                        r.cost_chosen
                    );
                    println!("// plan: {}", r.program);
                } else {
                    println!(
                        "// optimized: no improving rewrite (cost bound {}, nominal)",
                        r.cost_original
                    );
                }
                r.compiled
            }
            Err(e) => {
                render(&src, &spans, &e, &opts.file);
                return ExitCode::from(1);
            }
        }
    } else if opts.cmd == "compile" {
        match compile_program(&prog, &schema) {
            Ok(c) => c,
            Err(e) => {
                render(&src, &spans, &e, &opts.file);
                return ExitCode::from(1);
            }
        }
    } else {
        return ExitCode::SUCCESS;
    };
    if opts.cmd == "compile" {
        println!("// compiled QLhs ({} result columns)", compiled.attrs.len());
        print!("{}", compiled.prog);
    }
    ExitCode::SUCCESS
}
