//! `qlvm` — the bytecode compiler/verifier CLI.
//!
//! ```text
//! qlvm [OPTIONS] FILE|-
//!
//! OPTIONS
//!   --dialect ql|qlhs|qlf+   dialect to compile under (default: the
//!                            smallest dialect admitting the program's
//!                            tests)
//!   --schema A1,A2,...       relation arities (default: 2)
//!   --emit-bytecode          print the verified program's disassembly
//!                            (the default action)
//!   --verify                 print a QLVM-VERIFY/v1 JSON report
//!                            instead of the disassembly
//! ```
//!
//! The compile → verify pipeline always runs in full: the disassembly
//! is only printed for programs the verifier accepted. Exit status: 0
//! accepted, 1 obstructed or rejected, 2 on usage/parse failures.

use recdb_analyze::analyze_full;
use recdb_core::Schema;
use recdb_obs::esc;
use recdb_qlhs::{classify, parse_program, Dialect};
use recdb_vm::{compile, verify, LowerOpts};
use std::io::Read;
use std::process::ExitCode;

struct Opts {
    file: String,
    dialect: Option<Dialect>,
    schema: Schema,
    verify: bool,
}

fn usage() -> String {
    "usage: qlvm [--dialect ql|qlhs|qlf+] [--schema A1,A2,...] [--emit-bytecode | --verify] FILE|-"
        .to_string()
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        file: String::new(),
        dialect: None,
        schema: Schema::new(vec![2]),
        verify: false,
    };
    let mut file = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--emit-bytecode" => opts.verify = false,
            "--verify" => opts.verify = true,
            "--dialect" => {
                let v = it
                    .next()
                    .ok_or_else(|| "--dialect needs a value".to_string())?;
                opts.dialect = Some(match v.to_ascii_lowercase().as_str() {
                    "ql" => Dialect::Ql,
                    "qlhs" => Dialect::Qlhs,
                    "qlf+" | "qlf" | "qlfplus" => Dialect::QlfPlus,
                    other => return Err(format!("unknown dialect `{other}`")),
                });
            }
            "--schema" => {
                let v = it
                    .next()
                    .ok_or_else(|| "--schema needs a value".to_string())?;
                let arities: Result<Vec<usize>, _> =
                    v.split(',').map(|s| s.trim().parse::<usize>()).collect();
                opts.schema = Schema::new(arities.map_err(|e| format!("bad --schema `{v}`: {e}"))?);
            }
            "--help" | "-h" => return Err(usage()),
            other if file.is_none() => file = Some(other.to_string()),
            other => return Err(format!("unexpected argument `{other}`\n{}", usage())),
        }
    }
    opts.file = file.ok_or_else(usage)?;
    Ok(opts)
}

fn read_input(file: &str) -> Result<String, String> {
    if file == "-" {
        let mut s = String::new();
        std::io::stdin()
            .read_to_string(&mut s)
            .map_err(|e| format!("reading stdin: {e}"))?;
        Ok(s)
    } else {
        std::fs::read_to_string(file).map_err(|e| format!("reading {file}: {e}"))
    }
}

fn run(opts: &Opts) -> Result<bool, String> {
    let src = read_input(&opts.file)?;
    let name = if opts.file == "-" {
        "<stdin>"
    } else {
        &opts.file
    };
    let prog = parse_program(&src).map_err(|e| format!("{name}: {}", e.msg))?;
    let dialect = opts
        .dialect
        .or_else(|| classify(&prog))
        .unwrap_or(Dialect::Qlhs);
    let full = analyze_full(&prog, &opts.schema, dialect);
    let compiled = compile(
        &prog,
        &opts.schema,
        dialect,
        &full.termination,
        &LowerOpts::default(),
    );
    let vm = match compiled {
        Ok(vm) => vm,
        Err(o) => {
            if opts.verify {
                println!(
                    "{{\"format\": \"QLVM-VERIFY/v1\", \"file\": \"{}\", \"accepted\": false, \
                     \"stage\": \"compile\", \"obstruction\": \"{}\", \"detail\": \"{}\"}}",
                    esc(name),
                    o.kind.code(),
                    esc(&o.detail)
                );
            } else {
                eprintln!("{name}: obstructed: {o}");
            }
            return Ok(false);
        }
    };
    let verdict = verify(
        &vm,
        &prog,
        &opts.schema,
        dialect,
        &full.termination,
        Some(&full.cost.verdict),
    );
    match verdict {
        Ok(report) => {
            if opts.verify {
                println!(
                    "{{\"format\": \"QLVM-VERIFY/v1\", \"file\": \"{}\", \"accepted\": true, \
                     \"instructions\": {}, \"frame\": {}, \"loops\": {}, \"elided_stores\": {}, \
                     \"derived_work\": {}, \"derived_cardinality\": {}, \"claim_checked\": {}}}",
                    esc(name),
                    report.instructions,
                    report.frame,
                    report.loops,
                    report.elided_stores,
                    report
                        .derived_work
                        .as_deref()
                        .map_or("null".into(), |p| format!("\"{}\"", esc(p))),
                    report
                        .derived_cardinality
                        .as_deref()
                        .map_or("null".into(), |p| format!("\"{}\"", esc(p))),
                    report.claim_checked,
                );
            } else {
                print!("{vm}");
            }
            Ok(true)
        }
        Err(r) => {
            if opts.verify {
                println!(
                    "{{\"format\": \"QLVM-VERIFY/v1\", \"file\": \"{}\", \"accepted\": false, \
                     \"stage\": \"verify\", \"at\": {}, \"reason\": \"{}\"}}",
                    esc(name),
                    r.at,
                    esc(&r.reason)
                );
            } else {
                eprintln!("{name}: {r}");
            }
            Ok(false)
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
    match run(&opts) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}
