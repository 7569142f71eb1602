//! Concrete syntax for RA programs.
//!
//! ```text
//! Frontier := project #a (R) diff project #a (select #a = #b (R));
//! select #a = 0 (Frontier join S)
//! ```
//!
//! A program is a list of view definitions (`Name := expr;`) followed
//! by one query expression. Expressions:
//!
//! * `select #a = #b (e)`, `select #a = 3 (e)` — selection;
//! * `project #a, #b (e)` — projection (list may be empty);
//! * `rename #a -> #x (e)` — attribute rename;
//! * `e join f` — natural join (binds tighter than `union`/`diff`);
//! * `e union f`, `e diff f` — left-associative set operations;
//! * `not (e)` — complement (must end up guarded, see
//!   [`crate::safety`]);
//! * parentheses, and `//` comments to end of line.
//!
//! Every expression node gets a [`Span`] keyed by its
//! [`NodePath`](recdb_qlhs::ast::NodePath) — view `i` under prefix
//! `[i]` (where the root entry covers the whole `Name := expr;`
//! statement), the query under `[views.len()]`, child edges as in
//! [`RaExpr::children`] — in the same [`SpanTable`] type the QL
//! parser uses, so `RA0x` diagnostics resolve to `line:col` through
//! identical plumbing.
//!
//! Nesting is bounded by [`MAX_DEPTH`]: every parenthesis, operator
//! operand and `join`/`union`/`diff` node counts one level, and the
//! levels open around an expression plus its height may not exceed the
//! limit. Typing, safety, rewriting and lowering all recurse over the
//! tree, so a deeper program is rejected here, as a [`RaParseError`]
//! with code [`DEPTH_CODE`].

use crate::ast::{Pred, RaExpr, RaProgram};
use recdb_qlhs::ast::NodePath;
use recdb_qlhs::{Span, SpanTable, DEPTH_CODE, PARSE_CODE};
use std::fmt;

/// The deepest nesting an RA program may have (see the module docs).
/// The serve benchmark's generated RA queries nest up to about 12
/// levels. Each RA node lowers to many QL nodes (about 17 levels per RA
/// level there, and more on wide relations), so this sits far below
/// the QL parser's [`recdb_qlhs::MAX_DEPTH`]. Lowering enforces that
/// one as it builds: a query whose QL term would nest deeper fails
/// [`compile_program`](crate::compile_program) with code
/// [`DEPTH_CODE`] at the RA node that went too deep.
pub const MAX_DEPTH: usize = 64;

/// A parse error with byte offset.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RaParseError {
    /// Byte offset.
    pub at: usize,
    /// Message.
    pub msg: String,
    /// Diagnostic code: `PARSE`, or [`DEPTH_CODE`] for a program nested
    /// deeper than [`MAX_DEPTH`].
    pub code: &'static str,
}

/// A syntax error at byte `at`.
fn syntax(at: usize, msg: impl Into<String>) -> RaParseError {
    RaParseError {
        at,
        msg: msg.into(),
        code: PARSE_CODE,
    }
}

impl fmt::Display for RaParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "RA parse error at byte {}: {}", self.at, self.msg)
    }
}

impl std::error::Error for RaParseError {}

const KEYWORDS: &[&str] = &[
    "select", "project", "rename", "join", "union", "diff", "not",
];

/// Span tree mirroring the expression tree; flattened onto node paths
/// once parsing is done. `height` is the expression's height.
struct Sp {
    span: Span,
    children: Vec<Sp>,
    height: usize,
}

impl Sp {
    fn leaf(span: Span) -> Sp {
        Sp {
            span,
            children: Vec::new(),
            height: 0,
        }
    }

    fn flatten(&self, path: &mut NodePath, out: &mut SpanTable) {
        out.insert(path.clone(), self.span);
        for (i, c) in self.children.iter().enumerate() {
            path.push(i as u32);
            c.flatten(path, out);
            path.pop();
        }
    }
}

struct P<'a> {
    src: &'a [u8],
    pos: usize,
    /// End of the last consumed token — span ends use this so that
    /// failed lookahead (which skips whitespace and comments) never
    /// bloats a span.
    last: usize,
    /// Nesting levels open around the current position.
    depth: usize,
}

impl<'a> P<'a> {
    fn err<T>(&self, msg: impl Into<String>) -> Result<T, RaParseError> {
        Err(syntax(self.pos, msg))
    }

    /// Fails once `levels` more would pass [`MAX_DEPTH`].
    fn check_depth(&self, levels: usize) -> Result<(), RaParseError> {
        if self.depth + levels > MAX_DEPTH {
            return Err(RaParseError {
                at: self.pos,
                msg: format!("nested more than {MAX_DEPTH} levels deep"),
                code: DEPTH_CODE,
            });
        }
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
            self.last = self.pos;
            true
        } else {
            false
        }
    }

    fn require(&mut self, token: &str) -> Result<(), RaParseError> {
        if self.eat(token) {
            Ok(())
        } else {
            self.err(format!("expected {token:?}"))
        }
    }

    /// Peeks one identifier (letter start, then letters/digits/`_`)
    /// without consuming; returns `(name, end_offset)`.
    fn peek_ident(&mut self) -> Option<(String, usize)> {
        self.skip_ws();
        let start = self.pos;
        if start >= self.src.len()
            || !((self.src[start] as char).is_ascii_alphabetic() || self.src[start] == b'_')
        {
            return None;
        }
        let mut end = start;
        while end < self.src.len()
            && ((self.src[end] as char).is_ascii_alphanumeric() || self.src[end] == b'_')
        {
            end += 1;
        }
        Some((
            String::from_utf8_lossy(&self.src[start..end]).into_owned(),
            end,
        ))
    }

    /// Consumes `kw` only as a whole word.
    fn keyword(&mut self, kw: &str) -> bool {
        match self.peek_ident() {
            Some((id, end)) if id == kw => {
                self.pos = end;
                self.last = end;
                true
            }
            _ => false,
        }
    }

    fn number(&mut self) -> Result<u64, RaParseError> {
        self.skip_ws();
        let start = self.pos;
        while self.pos < self.src.len() && (self.src[self.pos] as char).is_ascii_digit() {
            self.pos += 1;
        }
        if self.pos == start {
            return self.err("expected a number");
        }
        self.last = self.pos;
        String::from_utf8_lossy(&self.src[start..self.pos])
            .parse()
            .map_err(|_| syntax(start, "number out of range"))
    }

    /// `#name` — no whitespace allowed after the `#`.
    fn attr(&mut self) -> Result<String, RaParseError> {
        self.require("#")?;
        let start = self.pos;
        if start >= self.src.len()
            || !((self.src[start] as char).is_ascii_alphabetic() || self.src[start] == b'_')
        {
            return self.err("expected an attribute name after '#'");
        }
        let mut end = start;
        while end < self.src.len()
            && ((self.src[end] as char).is_ascii_alphanumeric() || self.src[end] == b'_')
        {
            end += 1;
        }
        self.pos = end;
        self.last = end;
        Ok(String::from_utf8_lossy(&self.src[start..end]).into_owned())
    }

    /// `union` / `diff` level, left-associative.
    fn expr(&mut self) -> Result<(RaExpr, Sp), RaParseError> {
        self.skip_ws();
        let start = self.pos;
        let (mut lhs, mut lsp) = self.expr_join()?;
        loop {
            let is_union = if self.keyword("union") {
                true
            } else if self.keyword("diff") {
                false
            } else {
                break;
            };
            let (rhs, rsp) = self.expr_join()?;
            lhs = if is_union {
                lhs.union(rhs)
            } else {
                lhs.diff(rhs)
            };
            lsp = self.node(start, vec![lsp, rsp])?;
        }
        Ok((lhs, lsp))
    }

    fn expr_join(&mut self) -> Result<(RaExpr, Sp), RaParseError> {
        self.skip_ws();
        let start = self.pos;
        let (mut lhs, mut lsp) = self.factor()?;
        while self.keyword("join") {
            let (rhs, rsp) = self.factor()?;
            lhs = lhs.join(rhs);
            lsp = self.node(start, vec![lsp, rsp])?;
        }
        Ok((lhs, lsp))
    }

    fn factor(&mut self) -> Result<(RaExpr, Sp), RaParseError> {
        self.skip_ws();
        let start = self.pos;
        if self.keyword("select") {
            let a = self.attr()?;
            self.require("=")?;
            self.skip_ws();
            let pred = if self.pos < self.src.len() && self.src[self.pos] == b'#' {
                Pred::AttrEqAttr(a, self.attr()?)
            } else {
                Pred::AttrEqConst(a, self.number()?)
            };
            let (inner, isp) = self.parenthesized()?;
            return Ok((
                RaExpr::Select(pred, Box::new(inner)),
                self.node(start, vec![isp])?,
            ));
        }
        if self.keyword("project") {
            let mut attrs = Vec::new();
            self.skip_ws();
            while self.pos < self.src.len() && self.src[self.pos] == b'#' {
                attrs.push(self.attr()?);
                if !self.eat(",") {
                    break;
                }
                self.skip_ws();
            }
            let (inner, isp) = self.parenthesized()?;
            return Ok((
                RaExpr::Project(attrs, Box::new(inner)),
                self.node(start, vec![isp])?,
            ));
        }
        if self.keyword("rename") {
            let mut pairs = Vec::new();
            loop {
                let from = self.attr()?;
                self.require("->")?;
                let to = self.attr()?;
                pairs.push((from, to));
                if !self.eat(",") {
                    break;
                }
            }
            let (inner, isp) = self.parenthesized()?;
            return Ok((
                RaExpr::Rename(pairs, Box::new(inner)),
                self.node(start, vec![isp])?,
            ));
        }
        if self.keyword("not") {
            let (inner, isp) = self.parenthesized()?;
            return Ok((RaExpr::Not(Box::new(inner)), self.node(start, vec![isp])?));
        }
        if self.eat("(") {
            return self.nested(")");
        }
        let at = self.pos;
        match self.peek_ident() {
            Some((id, end)) if !KEYWORDS.contains(&id.as_str()) => {
                self.pos = end;
                self.last = end;
                Ok((RaExpr::Name(id), Sp::leaf(Span { start: at, end })))
            }
            _ => Err(syntax(at, "expected an expression")),
        }
    }

    fn parenthesized(&mut self) -> Result<(RaExpr, Sp), RaParseError> {
        self.require("(")?;
        self.nested(")")
    }

    /// An expression one nesting level in, then `close`.
    fn nested(&mut self, close: &str) -> Result<(RaExpr, Sp), RaParseError> {
        self.check_depth(1)?;
        self.depth += 1;
        let r = self.expr()?;
        self.require(close)?;
        self.depth -= 1;
        Ok(r)
    }

    /// The span-tree node of an expression starting at `start`, one
    /// level above its highest child.
    fn node(&self, start: usize, children: Vec<Sp>) -> Result<Sp, RaParseError> {
        let height = 1 + children.iter().map(|c| c.height).max().unwrap_or(0);
        self.check_depth(height)?;
        Ok(Sp {
            span: Span {
                start,
                end: self.last,
            },
            children,
            height,
        })
    }
}

/// Parses an RA program.
pub fn parse_ra(src: &str) -> Result<RaProgram, RaParseError> {
    parse_ra_with_spans(src).map(|(p, _)| p)
}

/// Parses an RA program, also returning the span table keyed by
/// expression node paths.
pub fn parse_ra_with_spans(src: &str) -> Result<(RaProgram, SpanTable), RaParseError> {
    let mut p = P {
        src: src.as_bytes(),
        pos: 0,
        last: 0,
        depth: 0,
    };
    let mut spans = SpanTable::default();
    let mut views: Vec<(String, RaExpr)> = Vec::new();
    let mut query: Option<RaExpr> = None;
    loop {
        p.skip_ws();
        if p.pos >= p.src.len() {
            break;
        }
        if query.is_some() {
            return p.err("trailing input after the query expression");
        }
        // `Name := …` opens a view; anything else is the query.
        let stmt_start = p.pos;
        let view_name = match p.peek_ident() {
            Some((id, end)) if !KEYWORDS.contains(&id.as_str()) => {
                let save = p.pos;
                p.pos = end;
                if p.eat(":=") {
                    Some(id)
                } else {
                    p.pos = save;
                    None
                }
            }
            _ => None,
        };
        let idx = views.len() as u32;
        if let Some(name) = view_name {
            let (body, sp) = p.expr()?;
            p.require(";")?;
            sp.flatten(&mut vec![idx], &mut spans);
            // The root entry covers the whole statement.
            spans.insert(
                vec![idx],
                Span {
                    start: stmt_start,
                    end: p.pos,
                },
            );
            views.push((name, body));
        } else {
            let (e, sp) = p.expr()?;
            let _ = p.eat(";");
            sp.flatten(&mut vec![idx], &mut spans);
            query = Some(e);
        }
    }
    match query {
        Some(q) => Ok((RaProgram { views, query: q }, spans)),
        None => p.err("expected a query expression"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::rel;

    #[test]
    fn parses_operators_and_precedence() {
        let p = parse_ra("R join S union T diff R").unwrap();
        // join binds tighter; union/diff associate left.
        assert_eq!(
            p.query,
            rel("R").join(rel("S")).union(rel("T")).diff(rel("R"))
        );
    }

    #[test]
    fn parses_prefix_forms() {
        let p = parse_ra("select #a = #b (project #a, #b (rename #x -> #a (not (R))))").unwrap();
        assert_eq!(
            p.query,
            rel("R")
                .not()
                .rename([("x", "a")])
                .project(["a", "b"])
                .select_eq("a", "b")
        );
    }

    #[test]
    fn parses_const_select_and_empty_project() {
        let p = parse_ra("select #a = 17 (project (R))").unwrap();
        assert_eq!(
            p.query,
            RaExpr::Project(vec![], Box::new(rel("R"))).select_const("a", 17)
        );
    }

    #[test]
    fn parses_views_then_query() {
        let p = parse_ra("V := R join S;\nW := V diff V;\nW union W").unwrap();
        assert_eq!(p.views.len(), 2);
        assert_eq!(p.views[0].0, "V");
        assert_eq!(p.views[1].1, rel("V").diff(rel("V")));
        assert_eq!(p.query, rel("W").union(rel("W")));
    }

    #[test]
    fn keywords_are_not_names() {
        assert!(parse_ra("join").is_err());
        assert!(parse_ra("R join select").is_err());
    }

    #[test]
    fn error_cases() {
        assert!(parse_ra("").is_err(), "no query");
        assert!(parse_ra("V := R; ").is_err(), "views but no query");
        assert!(parse_ra("R extra").is_err(), "trailing input");
        assert!(parse_ra("select #a = (R)").is_err(), "bad predicate");
        assert!(parse_ra("rename #a (R)").is_err(), "rename needs ->");
        assert!(parse_ra("(R join S").is_err(), "unclosed paren");
        assert!(parse_ra("select # a = #b (R)").is_err(), "space after #");
    }

    #[test]
    fn nesting_is_capped_at_max_depth() {
        let code = |src: String| parse_ra(&src).map(drop).map_err(|e| e.code);
        for n in [MAX_DEPTH, MAX_DEPTH + 1] {
            let want = if n <= MAX_DEPTH {
                Ok(())
            } else {
                Err(DEPTH_CODE)
            };
            let k = |open: &str, close: &str, k: usize| (open.repeat(k), close.repeat(k));
            let (no, nc) = k("not (", ")", n);
            let (po, pc) = k("(", ")", n - 1);
            let (so, sc) = k("select #a = 1 (", ")", n - 1);
            for src in [
                format!("{no}R{nc}"),
                format!("R{}", " join R".repeat(n)),
                format!("R{}", " union R".repeat(n)),
                format!("{po}R diff R{pc}"),
                // A view's body counts on its own.
                format!("V := {so}R join R{sc}; V"),
            ] {
                assert_eq!(code(src.clone()), want, "{}", &src[..src.len().min(60)]);
            }
        }
        assert_eq!(code("R join".into()), Err(PARSE_CODE));
    }

    #[test]
    fn comments_and_final_semicolon() {
        let p = parse_ra("// q\nR // trailing\n;").unwrap();
        assert_eq!(p.query, rel("R"));
    }

    #[test]
    fn display_parse_roundtrip() {
        let src = "V := project #a (select #a = #b (R));\n\
                   (V join S) union rename #c -> #a (T) diff V";
        let p = parse_ra(src).unwrap();
        let printed = p.to_string();
        let p2 = parse_ra(&printed).unwrap();
        assert_eq!(p, p2);
    }
}
