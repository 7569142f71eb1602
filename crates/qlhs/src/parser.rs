//! Concrete syntax for QL-family programs.
//!
//! ```text
//! Y2 := R1 & !E;
//! while empty(Y2) {
//!     Y2 := up(Y1);
//! }
//! while single(Y3) { Y3 := up(Y3); }   // QLhs-only test
//! while finite(Y4) { Y4 := !Y4; }      // QLf+-only test
//! Y1 := swap(down(Y2));
//! ```
//!
//! Terms: `E`, `R<k>`, `Y<k>` (1-based, as in the paper), `C<a>` (the
//! domain constant `a` — 0-based, naming the element directly), `&`
//! (intersection), `!` (complement), `up(·)`, `down(·)`, `swap(·)`,
//! parentheses. Statements: assignment `Yk := term;` and the three
//! while-forms. `//` comments run to end of line.
//!
//! Nesting is bounded by [`MAX_DEPTH`]: every `while` block, `!`,
//! parenthesis, `up`/`down`/`swap` operand and `&` node counts one
//! level, and a statement's levels plus its term's height may not
//! exceed the limit. Everything downstream of the parser (analysis,
//! lowering, evaluation, printing, dropping) recurses over the tree, so
//! the limit is what keeps a hostile program from overflowing a
//! worker's stack; a deeper program is a [`ProgParseError`] with code
//! [`DEPTH_CODE`].
//!
//! `while` blocks are bounded separately, and far lower, by
//! [`MAX_LOOP_DEPTH`]: every analysis iterates a loop body to a
//! fixpoint inside each iteration of its enclosing loop's fixpoint, so
//! admission time grows exponentially with loop nesting long before
//! the stack is at risk. A program nesting deeper is a
//! [`ProgParseError`] with code [`DEPTH_CODE`], located at the first
//! `while` past the limit.
//!
//! Variable indices are bounded by [`MAX_VAR`]: `Y<k>` past it is a
//! [`ProgParseError`] with code [`PARSE_CODE`] at the variable.

use crate::ast::{NodePath, Prog, Term};
use std::collections::BTreeMap;
use std::fmt;

/// A half-open byte range `[start, end)` into the source text.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub struct Span {
    /// First byte of the spanned region.
    pub start: usize,
    /// One past the last byte.
    pub end: usize,
}

impl Span {
    /// `(line, column)` of the span start, both 1-based — what a
    /// rustc-style `--> file:line:col` header wants.
    pub fn line_col(&self, src: &str) -> (usize, usize) {
        let upto = &src.as_bytes()[..self.start.min(src.len())];
        let line = 1 + upto.iter().filter(|&&b| b == b'\n').count();
        let col = 1 + upto.iter().rev().take_while(|&&b| b != b'\n').count();
        (line, col)
    }
}

/// Statement spans keyed by tree path (see [`NodePath`]): every
/// `Assign` and `while` node parsed from source gets the byte range of
/// its full statement text. Diagnostics produced on the parsed AST
/// look their source positions up here.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SpanTable {
    spans: BTreeMap<NodePath, Span>,
}

impl SpanTable {
    /// The span recorded for a node path, if the node came from source.
    pub fn get(&self, path: &[u32]) -> Option<Span> {
        self.spans.get(path).copied()
    }

    /// The span of the innermost recorded ancestor of `path`
    /// (including `path` itself) — lets a term-level diagnostic fall
    /// back to its enclosing statement.
    pub fn enclosing(&self, path: &[u32]) -> Option<Span> {
        let mut p = path;
        loop {
            if let Some(s) = self.spans.get(p) {
                return Some(*s);
            }
            match p.split_last() {
                Some((_, rest)) => p = rest,
                None => return None,
            }
        }
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Is the table empty?
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Records a span for a node path. Public so sibling frontends
    /// (the RA parser in `recdb-ra`) can reuse the same table type and
    /// diagnostics plumbing instead of growing a parallel one.
    pub fn insert(&mut self, path: NodePath, span: Span) {
        self.spans.insert(path, span);
    }
}

/// The deepest nesting a program may have (see the module docs).
/// Hand-written programs nest a few levels; the deepest programs the
/// conformance ledger and the serve benchmark's pools parse are RA
/// queries lowered to QL, at about 200 levels.
pub const MAX_DEPTH: usize = 1024;

/// The deepest `while` nesting a program may have (see the module
/// docs). Hand-written programs and the conformance generator nest at
/// most two loops.
pub const MAX_LOOP_DEPTH: usize = 8;

/// The largest variable index `k` a program may name as `Y<k>`. Every
/// analysis and executor keeps one slot per variable up to the largest
/// index mentioned, so the cap is what keeps a short program from
/// asking for an unbounded state vector. Hand-written programs and the
/// conformance generator name a handful; RA lowering gives each view
/// one.
pub const MAX_VAR: usize = 1024;

/// The diagnostic code of a syntax error.
pub const PARSE_CODE: &str = "PARSE";

/// The diagnostic code of a program nested deeper than [`MAX_DEPTH`]
/// or [`MAX_LOOP_DEPTH`].
pub const DEPTH_CODE: &str = "DEPTH";

/// A parse error with byte offset.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProgParseError {
    /// Byte offset.
    pub at: usize,
    /// Message.
    pub msg: String,
    /// Diagnostic code: [`PARSE_CODE`] or [`DEPTH_CODE`].
    pub code: &'static str,
}

impl fmt::Display for ProgParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "QL parse error at byte {}: {}", self.at, self.msg)
    }
}

impl std::error::Error for ProgParseError {}

struct P<'a> {
    src: &'a [u8],
    pos: usize,
    /// Current tree path (child indices from the root `Seq`).
    path: NodePath,
    /// Statement spans recorded as parsing proceeds.
    spans: SpanTable,
    /// Nesting levels open around the current position.
    depth: usize,
    /// `while` blocks open around the current position.
    loops: usize,
}

/// A syntax error at byte `at`.
fn syntax(at: usize, msg: impl Into<String>) -> ProgParseError {
    ProgParseError {
        at,
        msg: msg.into(),
        code: PARSE_CODE,
    }
}

/// The 0-based id of the variable `id` = `Y<k>` read at byte `at`:
/// `k` must lie in `1..=MAX_VAR`.
fn var_index(at: usize, id: &str) -> Result<usize, ProgParseError> {
    match id[1..].parse::<usize>() {
        Ok(k @ 1..=MAX_VAR) => Ok(k - 1),
        Ok(k) if k > MAX_VAR => Err(syntax(
            at,
            format!("variable {id} is past Y{MAX_VAR}, the last a program may name"),
        )),
        _ => Err(syntax(
            at,
            format!("bad variable {id:?} (expected Y1, Y2, …)"),
        )),
    }
}

impl<'a> P<'a> {
    fn err<T>(&self, msg: impl Into<String>) -> Result<T, ProgParseError> {
        Err(syntax(self.pos, msg))
    }

    /// Fails once `levels` more would pass [`MAX_DEPTH`].
    fn check_depth(&self, levels: usize) -> Result<(), ProgParseError> {
        if self.depth + levels > MAX_DEPTH {
            return Err(ProgParseError {
                at: self.pos,
                msg: format!("nested more than {MAX_DEPTH} levels deep"),
                code: DEPTH_CODE,
            });
        }
        Ok(())
    }

    /// Opens one nesting level.
    fn enter(&mut self) -> Result<(), ProgParseError> {
        self.check_depth(1)?;
        self.depth += 1;
        Ok(())
    }

    fn skip_ws(&mut self) {
        loop {
            while self.pos < self.src.len() && (self.src[self.pos] as char).is_whitespace() {
                self.pos += 1;
            }
            if self.src[self.pos..].starts_with(b"//") {
                while self.pos < self.src.len() && self.src[self.pos] != b'\n' {
                    self.pos += 1;
                }
            } else {
                break;
            }
        }
    }

    fn eat(&mut self, token: &str) -> bool {
        self.skip_ws();
        if self.src[self.pos..].starts_with(token.as_bytes()) {
            self.pos += token.len();
            true
        } else {
            false
        }
    }

    fn require(&mut self, token: &str) -> Result<(), ProgParseError> {
        if self.eat(token) {
            Ok(())
        } else {
            self.err(format!("expected {token:?}"))
        }
    }

    fn ident(&mut self) -> Option<String> {
        self.skip_ws();
        let start = self.pos;
        while self.pos < self.src.len() && ((self.src[self.pos] as char).is_ascii_alphanumeric()) {
            self.pos += 1;
        }
        if self.pos > start {
            Some(String::from_utf8_lossy(&self.src[start..self.pos]).into_owned())
        } else {
            None
        }
    }

    /// `Y<k>` → 0-based id.
    fn var_id(&mut self) -> Result<usize, ProgParseError> {
        let at = self.pos;
        match self.ident() {
            Some(id) if id.starts_with('Y') => var_index(at, &id),
            other => Err(syntax(at, format!("expected a variable, got {other:?}"))),
        }
    }

    /// A term and its height (the `&`, `!` and operator nodes on its
    /// longest path).
    fn term(&mut self) -> Result<(Term, usize), ProgParseError> {
        let (mut lhs, mut height) = self.term_unary()?;
        while self.eat("&") {
            let (rhs, h) = self.term_unary()?;
            height = height.max(h) + 1;
            self.check_depth(height)?;
            lhs = lhs.and(rhs);
        }
        Ok((lhs, height))
    }

    fn term_unary(&mut self) -> Result<(Term, usize), ProgParseError> {
        self.skip_ws();
        if self.eat("!") {
            self.enter()?;
            let (t, h) = self.term_unary()?;
            self.depth -= 1;
            return Ok((t.not(), h + 1));
        }
        if self.eat("(") {
            self.enter()?;
            let t = self.term()?;
            self.require(")")?;
            self.depth -= 1;
            return Ok(t);
        }
        let at = self.pos;
        let Some(id) = self.ident() else {
            return self.err("expected a term");
        };
        let leaf = match id.as_str() {
            "E" => Ok(Term::E),
            "up" | "down" | "swap" => {
                self.require("(")?;
                self.enter()?;
                let (inner, h) = self.term()?;
                self.require(")")?;
                self.depth -= 1;
                let t = match id.as_str() {
                    "up" => inner.up(),
                    "down" => inner.down(),
                    _ => inner.swap(),
                };
                return Ok((t, h + 1));
            }
            s if s.starts_with('R') => s[1..]
                .parse::<usize>()
                .ok()
                .and_then(|k| k.checked_sub(1))
                .map(Term::Rel)
                .ok_or_else(|| syntax(at, format!("bad relation {s:?} (expected R1, R2, …)"))),
            s if s.starts_with('Y') => var_index(at, s).map(Term::Var),
            s if s.starts_with('C') => s[1..]
                .parse::<u64>()
                .ok()
                .map(Term::Const)
                .ok_or_else(|| syntax(at, format!("bad constant {s:?} (expected C0, C1, …)"))),
            other => Err(syntax(at, format!("unknown term head {other:?}"))),
        };
        leaf.map(|t| (t, 0))
    }

    fn block(&mut self) -> Result<Prog, ProgParseError> {
        self.require("{")?;
        let mut stmts = Vec::new();
        // The body `Seq` is the while node's child 0.
        self.path.push(0);
        loop {
            self.skip_ws();
            if self.eat("}") {
                break;
            }
            self.path.push(stmts.len() as u32);
            let r = self.stmt();
            self.path.pop();
            stmts.push(r?);
        }
        self.path.pop();
        Ok(Prog::Seq(stmts))
    }

    fn stmt(&mut self) -> Result<Prog, ProgParseError> {
        self.skip_ws();
        let start = self.pos;
        let stmt = self.stmt_inner()?;
        let span = Span {
            start,
            end: self.pos,
        };
        self.spans.insert(self.path.clone(), span);
        Ok(stmt)
    }

    fn stmt_inner(&mut self) -> Result<Prog, ProgParseError> {
        self.skip_ws();
        if self.src[self.pos..].starts_with(b"while") {
            if self.loops == MAX_LOOP_DEPTH {
                return Err(ProgParseError {
                    at: self.pos,
                    msg: format!("`while` blocks nested more than {MAX_LOOP_DEPTH} deep"),
                    code: DEPTH_CODE,
                });
            }
            self.pos += 5;
            self.skip_ws();
            let at = self.pos;
            let Some(kind) = self.ident() else {
                return self.err("expected empty/single/finite after 'while'");
            };
            self.require("(")?;
            let v = self.var_id()?;
            self.require(")")?;
            self.enter()?;
            self.loops += 1;
            let body = Box::new(self.block()?);
            self.loops -= 1;
            self.depth -= 1;
            return match kind.as_str() {
                "empty" => Ok(Prog::WhileEmpty(v, body)),
                "single" => Ok(Prog::WhileSingleton(v, body)),
                "finite" => Ok(Prog::WhileFinite(v, body)),
                other => Err(syntax(at, format!("unknown while-test {other:?}"))),
            };
        }
        let v = self.var_id()?;
        self.require(":=")?;
        let (t, _) = self.term()?;
        self.require(";")?;
        Ok(Prog::Assign(v, t))
    }
}

/// Parses a QL-family program.
pub fn parse_program(src: &str) -> Result<Prog, ProgParseError> {
    parse_program_with_spans(src).map(|(p, _)| p)
}

/// Parses a QL-family program, also returning the [`SpanTable`] that
/// maps every statement's tree path to its source byte range. The
/// static analyzer threads this table through to render rustc-style
/// diagnostics pointing back into the program text.
pub fn parse_program_with_spans(src: &str) -> Result<(Prog, SpanTable), ProgParseError> {
    let mut p = P {
        src: src.as_bytes(),
        pos: 0,
        path: Vec::new(),
        spans: SpanTable::default(),
        depth: 0,
        loops: 0,
    };
    let mut stmts = Vec::new();
    loop {
        p.skip_ws();
        if p.pos >= p.src.len() {
            break;
        }
        p.path.push(stmts.len() as u32);
        let r = p.stmt();
        p.path.pop();
        stmts.push(r?);
    }
    Ok((Prog::Seq(stmts), p.spans))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{Prog, Term};

    #[test]
    fn parses_assignment_and_ops() {
        let p = parse_program("Y1 := swap(down(up(R1 & !E)));").unwrap();
        assert_eq!(
            p,
            Prog::Seq(vec![Prog::assign(
                0,
                Term::Rel(0).and(Term::E.not()).up().down().swap()
            )])
        );
    }

    #[test]
    fn parses_while_forms() {
        let src = "
            Y2 := R1;
            while empty(Y2) { Y2 := E; }
            while single(Y2) { Y2 := up(Y2); }
            while finite(Y2) { Y2 := !Y2; }
        ";
        let p = parse_program(src).unwrap();
        assert!(p.uses_singleton_test());
        assert!(p.uses_finiteness_test());
    }

    #[test]
    fn comments_are_skipped() {
        let p = parse_program("// a comment\nY1 := E; // trailing\n").unwrap();
        assert_eq!(p, Prog::Seq(vec![Prog::assign(0, Term::E)]));
    }

    #[test]
    fn parses_constants() {
        let p = parse_program("Y1 := C3 & !C0;").unwrap();
        assert_eq!(
            p,
            Prog::Seq(vec![Prog::assign(
                0,
                Term::Const(3).and(Term::Const(0).not())
            )])
        );
        assert!(parse_program("Y1 := Cx;").is_err(), "bad constant index");
    }

    #[test]
    fn one_based_indexing() {
        let p = parse_program("Y3 := R2;").unwrap();
        assert_eq!(p, Prog::Seq(vec![Prog::assign(2, Term::Rel(1))]));
    }

    #[test]
    fn nested_blocks() {
        let src = "while empty(Y1) { while empty(Y2) { Y2 := E; } Y1 := Y2; }";
        let p = parse_program(src).unwrap();
        match p {
            Prog::Seq(v) => match &v[0] {
                Prog::WhileEmpty(0, body) => match body.as_ref() {
                    Prog::Seq(inner) => assert_eq!(inner.len(), 2),
                    other => panic!("bad body {other:?}"),
                },
                other => panic!("bad stmt {other:?}"),
            },
            other => panic!("bad prog {other:?}"),
        }
    }

    #[test]
    fn error_cases() {
        assert!(parse_program("Y0 := E;").is_err(), "Y0 is not a variable");
        assert!(parse_program("Y1 = E;").is_err(), "needs :=");
        assert!(parse_program("Y1 := Q1;").is_err(), "unknown head");
        assert!(parse_program("while sometimes(Y1) { }").is_err());
        assert!(parse_program("Y1 := up(E;").is_err(), "unclosed paren");
    }

    #[test]
    fn ampersand_is_left_associative() {
        let p = parse_program("Y1 := E & E & E;").unwrap();
        let Prog::Seq(v) = p else { panic!() };
        let Prog::Assign(_, t) = &v[0] else { panic!() };
        assert_eq!(t.to_string(), "((E & E) & E)");
    }

    #[test]
    fn spans_key_on_statement_paths() {
        let src = "Y1 := E;\nwhile empty(Y2) {\n  Y2 := up(Y1);\n}\n";
        let (p, spans) = parse_program_with_spans(src).unwrap();
        let Prog::Seq(stmts) = &p else { panic!() };
        assert_eq!(stmts.len(), 2);
        // Top-level statements at paths [0] and [1].
        let s0 = spans.get(&[0]).unwrap();
        assert_eq!(&src[s0.start..s0.end], "Y1 := E;");
        assert_eq!(s0.line_col(src), (1, 1));
        let s1 = spans.get(&[1]).unwrap();
        assert!(src[s1.start..s1.end].starts_with("while empty(Y2)"));
        assert_eq!(s1.line_col(src), (2, 1));
        // The loop body's statement: while → body Seq (child 0) →
        // statement 0.
        let inner = spans.get(&[1, 0, 0]).unwrap();
        assert_eq!(&src[inner.start..inner.end], "Y2 := up(Y1);");
        assert_eq!(inner.line_col(src), (3, 3));
        // A term-level path falls back to its enclosing statement.
        assert_eq!(spans.enclosing(&[1, 0, 0, 7]), Some(inner));
        assert_eq!(spans.len(), 3);
        assert!(!spans.is_empty());
    }

    /// Parses on a thread with the stack a serve worker has: at the
    /// limit, parsing and dropping a tree recurse 1024 levels deep,
    /// which needs more than a test thread's default in a debug build.
    fn depth_of(src: String) -> Result<(), &'static str> {
        std::thread::Builder::new()
            .stack_size(32 << 20)
            .spawn(move || parse_program(&src).map(drop).map_err(|e| e.code))
            .unwrap()
            .join()
            .unwrap()
    }

    #[test]
    fn nesting_is_capped_at_max_depth() {
        for n in [MAX_DEPTH, MAX_DEPTH + 1] {
            let want = if n <= MAX_DEPTH {
                Ok(())
            } else {
                Err(DEPTH_CODE)
            };
            let k = |open: &str, close: &str, k: usize| (open.repeat(k), close.repeat(k));
            let (po, pc) = k("(", ")", n - 1);
            let (wo, wc) = k("while empty(Y1) { ", "}", MAX_LOOP_DEPTH);
            let (uo, uc) = k("up(", ")", n - 1);
            for src in [
                format!("Y1 := {}E;", "!".repeat(n)),
                format!("Y1 := E{};", " & E".repeat(n)),
                format!("Y1 := {po}E & E{pc};"),
                // The chain's height counts on top of the open levels.
                format!("{wo}Y1 := {}E & E;{wc}", "!".repeat(n - MAX_LOOP_DEPTH - 1)),
                format!("Y1 := {uo}E & E{uc};"),
                format!("Y1 := {}E & E;", "!".repeat(n - 1)),
            ] {
                assert_eq!(depth_of(src.clone()), want, "{}", &src[..src.len().min(60)]);
            }
        }
        // Syntax errors keep their code.
        assert_eq!(depth_of("Y1 := ;".into()), Err(PARSE_CODE));
    }

    #[test]
    fn while_nesting_is_capped_at_max_loop_depth() {
        let nest = |n: usize| {
            format!(
                "{}Y1 := E;{}",
                "while empty(Y1) { ".repeat(n),
                "}".repeat(n)
            )
        };
        assert!(parse_program(&nest(MAX_LOOP_DEPTH)).is_ok());
        // Loops side by side do not nest.
        let siblings = nest(MAX_LOOP_DEPTH).repeat(2);
        assert!(parse_program(&siblings).is_ok());
        let e = parse_program(&nest(MAX_LOOP_DEPTH + 1)).unwrap_err();
        assert_eq!(e.code, DEPTH_CODE);
        // Located at the first `while` past the limit.
        assert_eq!(e.at, "while empty(Y1) { ".len() * MAX_LOOP_DEPTH);
    }

    #[test]
    fn variable_indices_are_capped_at_max_var() {
        let last = format!("Y{MAX_VAR} := Y{MAX_VAR};");
        let p = parse_program(&last).unwrap();
        assert_eq!(p.max_var(), Some(MAX_VAR - 1));
        // Past the cap, as the assigned variable or in a term, and far
        // past it: a parse error at the variable.
        for (src, at) in [
            (format!("Y{} := E;", MAX_VAR + 1), 0),
            (format!("Y1 := E & Y{};", MAX_VAR + 1), 10),
            ("Y1 := Y100000000000;".to_string(), 6),
            ("while empty(Y100000000000) { }".to_string(), 12),
        ] {
            let e = parse_program(&src).unwrap_err();
            assert_eq!((e.code, e.at), (PARSE_CODE, at), "{src}: {e}");
            assert!(e.msg.contains("past Y1024"), "{src}: {e}");
        }
    }

    #[test]
    fn display_parse_roundtrip() {
        let src = "Y2 := R1 & !E; while empty(Y2) { Y1 := up(Y2); }";
        let p = parse_program(src).unwrap();
        let printed = p.to_string();
        let p2 = parse_program(&printed).unwrap();
        // Display uses (a & b) grouping; reparse must agree.
        assert_eq!(p2.to_string(), printed);
    }
}
