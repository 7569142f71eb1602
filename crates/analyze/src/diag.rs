//! Structured diagnostics: stable codes, severities, tree paths, and
//! a rustc-style renderer.
//!
//! Every diagnostic the analyzer can produce has a stable code
//! (`E…`/`W…`), so tests, the conformance harness, and the metrics
//! layer can key on *kind* rather than message text. The program
//! analyses attach a [`NodePath`] locating the statement; when the
//! program came from [`recdb_qlhs::parse_program_with_spans`], the
//! renderer resolves the path through the parser's span table to a
//! `line:col` header plus a source-line quote.

use recdb_qlhs::{NodePath, Span, SpanTable};
use std::fmt;

/// Diagnostic severity.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Severity {
    /// A definite or potential runtime error (rank mismatch, missing
    /// relation, dialect violation, malformed atom).
    Error,
    /// A lint: the construct runs, but is dead, divergent, vacuous, or
    /// simplifiable — or the analysis cannot prove it safe.
    Warning,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Error => "error",
            Severity::Warning => "warning",
        })
    }
}

macro_rules! codes {
    ($( $variant:ident = ($code:literal, $sev:ident, $title:literal), )*) => {
        /// A stable diagnostic code. `E0xxx` are QL-program errors,
        /// `W01xx` QL-program lints, `W03xx` genericity findings,
        /// `W04xx` termination findings, and `E02xx`/`W02xx` cover L⁻
        /// formulas.
        #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
        pub enum Code {
            $(
                #[doc = $title]
                $variant,
            )*
        }

        impl Code {
            /// Every code, in code order (for docs and tests).
            pub const ALL: &'static [Code] = &[$(Code::$variant),*];

            /// The stable code string, e.g. `"E0001"`.
            pub fn as_str(self) -> &'static str {
                match self { $(Code::$variant => $code,)* }
            }

            /// The code's severity.
            pub fn severity(self) -> Severity {
                match self { $(Code::$variant => Severity::$sev,)* }
            }

            /// One-line description of what the code flags.
            pub fn title(self) -> &'static str {
                match self { $(Code::$variant => $title,)* }
            }

            /// The `recdb-obs` counter bumped when the code is
            /// emitted: `analyze.diagnostics.<code>`.
            pub fn metric(self) -> &'static str {
                match self { $(Code::$variant => concat!("analyze.diagnostics.", $code),)* }
            }
        }
    };
}

codes! {
    RankMismatch = ("E0001", Error, "operands of `&` have different ranks"),
    NoSuchRelation = ("E0002", Error, "relation index is outside the schema"),
    IllegalSingletonTest = ("E0003", Error, "`while single(Y)` is not admitted by this dialect"),
    IllegalFinitenessTest = ("E0004", Error, "`while finite(Y)` is not admitted by this dialect"),
    UseBeforeAssign = ("W0101", Warning, "variable is read before any assignment"),
    DeadVariable = ("W0102", Warning, "variable is assigned but never read"),
    UnreachableLoop = ("W0103", Warning, "loop guard is provably false on entry; body never runs"),
    DivergentLoop = ("W0104", Warning, "loop guard is provably true at every iteration; loop never exits"),
    DownOnRankZero = ("W0105", Warning, "`down` on a rank-0 term always yields the empty rank-0 value"),
    SimplifiableTerm = ("W0106", Warning, "term has a rank-provable simplification"),
    UnprovableRank = ("W0107", Warning, "cannot prove the operands of `&` have equal ranks"),
    NonGenericOutput = ("W0301", Warning, "output provably depends on named domain constants"),
    GenericityUnknown = ("W0302", Warning, "genericity of the program could not be decided"),
    UnboundedLoop = ("W0401", Warning, "no iteration bound could be proved for this loop"),
    ProvedDivergentLoop = ("W0402", Warning, "loop is proved to never exit once entered"),
    CostUnbounded = ("W0601", Warning, "no cost bound could be derived for this program point"),
    MalformedAtom = ("E0201", Error, "relation atom does not match the schema"),
    QuantifierInLMinus = ("E0202", Error, "L⁻ bodies must be quantifier-free"),
    FreeVarBeyondRank = ("E0203", Error, "free variable index is outside the declared rank"),
    AdomUnsafe = ("W0201", Warning, "free variable is not bound by any positive relational atom"),
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One diagnostic: a coded finding at a program location.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Diagnostic {
    /// What kind of finding this is.
    pub code: Code,
    /// Tree path of the statement the finding is attached to (root
    /// `Seq` is the empty path). See [`NodePath`].
    pub path: NodePath,
    /// The specific message (operand ranks, variable names, …).
    pub message: String,
    /// An optional elaboration rendered as `= note: …`.
    pub note: Option<String>,
}

impl Diagnostic {
    /// Builds a diagnostic with no note.
    pub fn new(code: Code, path: NodePath, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            path,
            message: message.into(),
            note: None,
        }
    }

    /// Attaches a `= note: …` line.
    pub fn with_note(mut self, note: impl Into<String>) -> Self {
        self.note = Some(note.into());
        self
    }

    /// The diagnostic's severity (a property of its code).
    pub fn severity(&self) -> Severity {
        self.code.severity()
    }

    /// Renders the diagnostic rustc-style. With source text and the
    /// parser's span table the header carries `file:line:col` and the
    /// offending source line is quoted with a caret underline;
    /// otherwise the tree path is shown instead.
    pub fn render(&self, source: Option<(&str, &SpanTable)>, file: &str) -> String {
        let mut out = format!("{}[{}]: {}\n", self.severity(), self.code, self.message);
        let span = source.and_then(|(src, spans)| spans.enclosing(&self.path).map(|s| (src, s)));
        match span {
            Some((src, Span { start, end })) => {
                let (line, col) = Span { start, end }.line_col(src);
                out.push_str(&format!("  --> {file}:{line}:{col}\n"));
                let line_start = src[..start].rfind('\n').map_or(0, |i| i + 1);
                let line_end = src[start..].find('\n').map_or(src.len(), |i| start + i);
                let text = &src[line_start..line_end];
                let gutter = line.to_string();
                out.push_str(&format!("{:w$} |\n", "", w = gutter.len()));
                out.push_str(&format!("{gutter} | {text}\n"));
                let caret_len = end.min(line_end).saturating_sub(start).max(1);
                out.push_str(&format!(
                    "{:w$} | {:pad$}{}\n",
                    "",
                    "",
                    "^".repeat(caret_len),
                    w = gutter.len(),
                    pad = start - line_start
                ));
            }
            None if !self.path.is_empty() => {
                out.push_str(&format!("  --> {file} (statement path {:?})\n", self.path));
            }
            None => out.push_str(&format!("  --> {file}\n")),
        }
        if let Some(note) = &self.note {
            out.push_str(&format!("  = note: {note}\n"));
        }
        out
    }

    /// Bumps the `analyze.diagnostics.<code>` counter for this
    /// diagnostic (no-op unless a recorder is installed).
    pub fn record(&self) {
        recdb_obs::count(self.code.metric(), 1);
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]: {}", self.severity(), self.code, self.message)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for c in Code::ALL {
            assert!(seen.insert(c.as_str()), "duplicate code {c}");
            assert!(c.as_str().len() == 5, "{c}");
            let sev_char = c.as_str().as_bytes()[0];
            match c.severity() {
                Severity::Error => assert_eq!(sev_char, b'E', "{c}"),
                Severity::Warning => assert_eq!(sev_char, b'W', "{c}"),
            }
            assert_eq!(c.metric(), format!("analyze.diagnostics.{c}"));
        }
    }

    #[test]
    fn render_with_spans_quotes_the_line() {
        let src = "Y1 := E;\nY2 := E & down(E);\n";
        let (_, spans) = recdb_qlhs::parse_program_with_spans(src).unwrap();
        let d = Diagnostic::new(Code::RankMismatch, vec![1], "rank 2 vs rank 1")
            .with_note("left operand `E` has rank 2, right operand `down(E)` has rank 1");
        let r = d.render(Some((src, &spans)), "demo.ql");
        assert!(r.contains("error[E0001]: rank 2 vs rank 1"), "{r}");
        assert!(r.contains("demo.ql:2:1"), "{r}");
        assert!(r.contains("Y2 := E & down(E);"), "{r}");
        assert!(r.contains("= note:"), "{r}");
    }

    #[test]
    fn render_without_spans_shows_path() {
        let d = Diagnostic::new(Code::DeadVariable, vec![0, 2], "Y3 is never read");
        let r = d.render(None, "<ast>");
        assert!(r.contains("warning[W0102]"), "{r}");
        assert!(r.contains("[0, 2]"), "{r}");
    }
}
