//! `analyze` — the static-analysis CLI.
//!
//! ```text
//! analyze [OPTIONS] FILE          check a QL-family program
//! analyze --formula [OPTIONS] FILE   check an L⁻/FO query expression
//!
//! OPTIONS
//!   --dialect ql|qlhs|qlf+   dialect to check against (default: the
//!                            smallest dialect admitting the program's
//!                            tests)
//!   --schema A1,A2,...       relation arities (default: 2)
//!   --generic                also run the genericity and termination
//!                            passes and print their verdicts
//!   --cost                   also print the cost pass's cardinality
//!                            and work bounds (per statement and
//!                            whole-program)
//!   --format text|json       output format (default: text). JSON is
//!                            machine-readable ANALYZE-CLI/v1 with
//!                            diagnostics in stable (path, code) order
//!   --lminus                 (formula mode) require quantifier-free
//!   --metrics-out PATH       write a METRICS/v1 JSON snapshot
//!   -                        read from stdin
//! ```
//!
//! Exit status: 0 if no error-severity diagnostics, 1 otherwise, 2 on
//! usage/parse failures.

use recdb_analyze::{
    analyze_formula, analyze_full, CostVerdict, Diagnostic, GenericityVerdict, LoopBound, Severity,
    TerminationVerdict, Verdict,
};
use recdb_core::Schema;
use recdb_obs::{esc, InMemoryRecorder};
use recdb_qlhs::{classify, parse_program_with_spans, Dialect};
use std::io::Read;
use std::process::ExitCode;
use std::sync::Arc;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Format {
    Text,
    Json,
}

struct Opts {
    file: String,
    dialect: Option<Dialect>,
    schema: Schema,
    formula: bool,
    lminus: bool,
    generic: bool,
    cost: bool,
    format: Format,
    metrics_out: Option<String>,
}

fn usage() -> String {
    "usage: analyze [--formula] [--lminus] [--generic] [--cost] [--dialect ql|qlhs|qlf+] \
     [--schema A1,A2,...] [--format text|json] [--metrics-out PATH] FILE|-"
        .to_string()
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        file: String::new(),
        dialect: None,
        schema: Schema::new(vec![2]),
        formula: false,
        lminus: false,
        generic: false,
        cost: false,
        format: Format::Text,
        metrics_out: None,
    };
    let mut file = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--formula" => opts.formula = true,
            "--lminus" => opts.lminus = true,
            "--generic" => opts.generic = true,
            "--cost" => opts.cost = true,
            "--format" => {
                let v = it
                    .next()
                    .ok_or_else(|| "--format needs a value".to_string())?;
                opts.format = match v.to_ascii_lowercase().as_str() {
                    "text" => Format::Text,
                    "json" => Format::Json,
                    other => return Err(format!("unknown format `{other}`")),
                };
            }
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
            "--metrics-out" => {
                let v = it
                    .next()
                    .ok_or_else(|| "--metrics-out needs a value".to_string())?;
                opts.metrics_out = Some(v.clone());
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

/// One diagnostic as a JSON object. `line`/`col` come from the span
/// table when the statement has a recorded span.
fn diag_json(d: &Diagnostic, src: &str, spans: &recdb_qlhs::SpanTable) -> String {
    let mut fields = vec![
        format!("\"code\": \"{}\"", d.code),
        format!("\"severity\": \"{}\"", d.severity()),
        format!(
            "\"path\": [{}]",
            d.path
                .iter()
                .map(|i| i.to_string())
                .collect::<Vec<_>>()
                .join(", ")
        ),
        format!("\"message\": \"{}\"", esc(&d.message)),
    ];
    if let Some(span) = spans.enclosing(&d.path) {
        let (line, col) = span.line_col(src);
        fields.push(format!("\"line\": {line}"));
        fields.push(format!("\"col\": {col}"));
    }
    if let Some(note) = &d.note {
        fields.push(format!("\"note\": \"{}\"", esc(note)));
    }
    format!("{{{}}}", fields.join(", "))
}

/// Renders the whole program analysis as one ANALYZE-CLI/v1 JSON
/// document. Diagnostics are sorted by (path, code, message) so the
/// output is stable across runs and refactors of emission order.
#[allow(clippy::too_many_arguments)] // one row per CLI rendering input
fn report_json(
    name: &str,
    dialect: Dialect,
    analysis: &recdb_analyze::FullAnalysis,
    diags: &[&Diagnostic],
    src: &str,
    spans: &recdb_qlhs::SpanTable,
    generic: bool,
    cost: bool,
) -> String {
    let mut sorted: Vec<&Diagnostic> = diags.to_vec();
    sorted.sort_by(|a, b| (&a.path, a.code, &a.message).cmp(&(&b.path, b.code, &b.message)));
    let diag_rows: Vec<String> = sorted
        .iter()
        .map(|d| format!("    {}", diag_json(d, src, spans)))
        .collect();
    let mut out = String::from("{\n");
    out.push_str("  \"format\": \"ANALYZE-CLI/v1\",\n");
    out.push_str(&format!("  \"file\": \"{}\",\n", esc(name)));
    out.push_str(&format!("  \"dialect\": \"{dialect}\",\n"));
    out.push_str(&format!(
        "  \"verdict\": \"{}\",\n",
        analysis.safety.verdict
    ));
    if generic {
        let g = &analysis.genericity;
        out.push_str("  \"genericity\": {");
        match &g.verdict {
            GenericityVerdict::Generic { fixed } => {
                out.push_str(&format!(
                    "\"verdict\": \"generic\", \"fixed\": [{}]",
                    fixed
                        .iter()
                        .map(|c| c.to_string())
                        .collect::<Vec<_>>()
                        .join(", ")
                ));
            }
            GenericityVerdict::NonGeneric { witness, .. } => {
                out.push_str(&format!(
                    "\"verdict\": \"nongeneric\", \"witness\": [{}, {}]",
                    witness.0, witness.1
                ));
            }
            GenericityVerdict::Unknown => out.push_str("\"verdict\": \"unknown\""),
        }
        out.push_str("},\n");
        let t = &analysis.termination;
        out.push_str("  \"termination\": {");
        match t.verdict {
            TerminationVerdict::Terminates { iterations } => out.push_str(&format!(
                "\"verdict\": \"terminates\", \"iterations\": {iterations}"
            )),
            TerminationVerdict::Diverges => out.push_str("\"verdict\": \"diverges\""),
            TerminationVerdict::Unknown => out.push_str("\"verdict\": \"unknown\""),
        }
        let loop_rows: Vec<String> = t
            .loops
            .iter()
            .map(|l| {
                let path = l
                    .path
                    .iter()
                    .map(|i| i.to_string())
                    .collect::<Vec<_>>()
                    .join(", ");
                let bound = match l.bound {
                    LoopBound::Bounded(b) => format!("\"bounded\", \"bound\": {b}"),
                    LoopBound::Divergent => "\"divergent\"".to_string(),
                    LoopBound::Unknown => "\"unknown\"".to_string(),
                };
                format!("{{\"path\": [{path}], \"kind\": {bound}}}")
            })
            .collect();
        out.push_str(&format!(", \"loops\": [{}]", loop_rows.join(", ")));
        out.push_str("},\n");
    }
    if cost {
        let c = &analysis.cost;
        out.push_str("  \"cost\": {");
        match &c.verdict {
            CostVerdict::Bounded { cardinality, work } => out.push_str(&format!(
                "\"verdict\": \"bounded\", \"cardinality\": \"{}\", \"work\": \"{}\"",
                esc(&cardinality.to_string()),
                esc(&work.to_string())
            )),
            CostVerdict::Unbounded => out.push_str("\"verdict\": \"unbounded\""),
        }
        let stmt_rows: Vec<String> = c
            .stmts
            .iter()
            .map(|s| {
                let path = s
                    .path
                    .iter()
                    .map(|i| i.to_string())
                    .collect::<Vec<_>>()
                    .join(", ");
                format!(
                    "{{\"path\": [{path}], \"executions\": {}, \"cardinality\": \"{}\", \"work\": \"{}\"}}",
                    s.executions,
                    esc(&s.cardinality.to_string()),
                    esc(&s.work.to_string())
                )
            })
            .collect();
        out.push_str(&format!(", \"stmts\": [{}]", stmt_rows.join(", ")));
        out.push_str("},\n");
    }
    if diag_rows.is_empty() {
        out.push_str("  \"diagnostics\": []\n}\n");
    } else {
        out.push_str(&format!(
            "  \"diagnostics\": [\n{}\n  ]\n}}\n",
            diag_rows.join(",\n")
        ));
    }
    out
}

fn line_col(src: &str, at: usize) -> (usize, usize) {
    let upto = &src.as_bytes()[..at.min(src.len())];
    let line = 1 + upto.iter().filter(|&&b| b == b'\n').count();
    let col = 1 + upto.iter().rev().take_while(|&&b| b != b'\n').count();
    (line, col)
}

fn run(opts: &Opts) -> Result<bool, String> {
    let src = read_input(&opts.file)?;
    let name = if opts.file == "-" {
        "<stdin>"
    } else {
        &opts.file
    };

    if opts.formula {
        let parsed = recdb_logic::parse_query(&src, &opts.schema).map_err(|e| {
            let (l, c) = line_col(&src, e.at);
            format!("{name}:{l}:{c}: {}", e.msg)
        })?;
        let (rank, body) = match parsed {
            recdb_logic::ParsedQuery::Undefined => {
                println!("{name}: the everywhere-undefined query (always legal)");
                return Ok(true);
            }
            recdb_logic::ParsedQuery::Defined { rank, body } => (rank, body),
        };
        let report = analyze_formula(&body, &opts.schema, Some(rank), opts.lminus);
        for d in &report.diagnostics {
            print!("{}", d.render(None, name));
        }
        println!(
            "{name}: rank {rank}, {} free variable(s), quantifier depth {} (EF-rank bound), {}",
            report.free_vars.len(),
            report.ef_rank_bound,
            if report.quantifier_free {
                "quantifier-free (L⁻)"
            } else {
                "quantified (full L)"
            }
        );
        return Ok(report.is_clean());
    }

    let (prog, spans) = parse_program_with_spans(&src).map_err(|e| {
        let (l, c) = line_col(&src, e.at);
        format!("{name}:{l}:{c}: {}", e.msg)
    })?;
    let dialect = opts
        .dialect
        .or_else(|| classify(&prog))
        .unwrap_or(Dialect::Qlhs);
    let full = analyze_full(&prog, &opts.schema, dialect);
    let mut diags: Vec<&Diagnostic> = full.safety.diagnostics.iter().collect();
    if opts.generic {
        diags.extend(full.termination.diagnostics.iter());
        diags.extend(full.genericity.diagnostics.iter());
    }
    if opts.cost {
        diags.extend(full.cost.diagnostics.iter());
    }
    if opts.format == Format::Json {
        print!(
            "{}",
            report_json(
                name,
                dialect,
                &full,
                &diags,
                &src,
                &spans,
                opts.generic,
                opts.cost
            )
        );
    } else {
        for d in &diags {
            print!("{}", d.render(Some((&src, &spans)), name));
        }
        let errors = diags
            .iter()
            .filter(|d| d.severity() == Severity::Error)
            .count();
        let warnings = diags.len() - errors;
        println!(
            "{name}: {} under {} — verdict: {} ({errors} error(s), {warnings} warning(s))",
            match full.safety.verdict {
                Verdict::Safe => "no rank/arity/dialect error on any run",
                Verdict::Unsafe => "every run returns an error",
                Verdict::Unknown => "potential errors found",
            },
            dialect,
            full.safety.verdict,
        );
        if opts.generic {
            println!("{name}: genericity: {}", full.genericity.verdict);
            println!("{name}: termination: {}", full.termination.verdict);
        }
        if opts.cost {
            println!("{name}: cost: {}", full.cost.verdict);
            for s in &full.cost.stmts {
                println!(
                    "{name}:   stmt {:?}: ≤{} execution(s), |value| ≤ {}, work ≤ {}",
                    s.path, s.executions, s.cardinality, s.work
                );
            }
        }
    }
    let errors = diags
        .iter()
        .filter(|d| d.severity() == Severity::Error)
        .count();
    Ok(errors == 0)
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
    let recorder = Arc::new(InMemoryRecorder::new());
    if opts.metrics_out.is_some() {
        recdb_obs::install(recorder.clone());
    }
    let result = run(&opts);
    if let Some(path) = &opts.metrics_out {
        if let Err(e) = recorder.snapshot().write_json(path) {
            eprintln!("writing metrics to {path}: {e}");
        }
    }
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}
