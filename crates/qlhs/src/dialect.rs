//! Static dialect checking for the QL family (§3.3, §4, footnote 8).
//!
//! The three dialects share one AST ([`crate::ast`]); what separates
//! them is which `while` tests they admit:
//!
//! | Dialect | `while |Y|=0` | `while |Y|=1` | `while |Y|<∞` |
//! |---|---|---|---|
//! | QL (finitary, [CH]) | yes | no (only *definable*, via `perm(D)`) | no |
//! | QLhs (§3.3) | yes | yes (primitive; footnote 8) | no |
//! | QLf+ (§4) | yes | no | yes |
//!
//! This module decides dialect membership *syntactically*, before any
//! interpreter runs: [`Dialect::check`] scans a program for tests the
//! dialect does not admit and reports the first violation with the
//! offending node's tree path. All three interpreters call it from
//! their `run` entry points, so an illegal test anywhere in the
//! program — even in a branch a given input never reaches — is
//! rejected up-front instead of surfacing mid-run (or never). The
//! interpreters' guards ([`crate::exec::GuardEval`]) keep an
//! interpretation-time check, worded by [`Dialect::reject`], as
//! defense in depth for callers that drive
//! [`exec`](crate::HsInterp::exec) directly with a caller-built
//! environment.
//!
//! The richer static analyzer (`recdb-analyze`) builds its dialect
//! diagnostics on exactly this checker, so there is one source of
//! truth for what each dialect admits.

use crate::ast::{NodePath, Prog};
use crate::value::RunError;
use std::fmt;

/// One of the three QL-family dialects.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Dialect {
    /// Finitary QL — Chandra–Harel's baseline over finite databases.
    Ql,
    /// QLhs — the hs-r-complete variant (§3.3), adds `while |Y|=1`.
    Qlhs,
    /// QLf+ — the finite∕co-finite variant (§4), adds `while |Y|<∞`.
    QlfPlus,
}

impl Dialect {
    /// All dialects, in paper order.
    pub const ALL: [Dialect; 3] = [Dialect::Ql, Dialect::Qlhs, Dialect::QlfPlus];

    /// The dialect's conventional name.
    pub fn name(self) -> &'static str {
        match self {
            Dialect::Ql => "QL",
            Dialect::Qlhs => "QLhs",
            Dialect::QlfPlus => "QLf+",
        }
    }

    /// Does the dialect admit `while |Y|=1` as a primitive?
    pub fn admits_singleton_test(self) -> bool {
        matches!(self, Dialect::Qlhs)
    }

    /// Does the dialect admit `while |Y|<∞`?
    pub fn admits_finiteness_test(self) -> bool {
        matches!(self, Dialect::QlfPlus)
    }

    /// The runtime error for a `test` this dialect lacks, worded as
    /// [`Dialect::check`] words it.
    pub fn reject(self, test: IllegalTest) -> RunError {
        RunError::DialectViolation(
            DialectViolation {
                dialect: self,
                test,
                path: Vec::new(),
            }
            .message(),
        )
    }

    /// Scans `p` for tests this dialect does not admit, returning the
    /// first violation in program order.
    pub fn check(self, p: &Prog) -> Result<(), DialectViolation> {
        let mut path = Vec::new();
        self.check_at(p, &mut path)
    }

    fn check_at(self, p: &Prog, path: &mut NodePath) -> Result<(), DialectViolation> {
        match p {
            Prog::Assign(..) => Ok(()),
            Prog::Seq(ps) => {
                for (i, q) in ps.iter().enumerate() {
                    path.push(i as u32);
                    self.check_at(q, path)?;
                    path.pop();
                }
                Ok(())
            }
            Prog::WhileEmpty(_, body) => self.check_body(body, path),
            Prog::WhileSingleton(_, body) => {
                if !self.admits_singleton_test() {
                    return Err(DialectViolation {
                        dialect: self,
                        test: IllegalTest::Singleton,
                        path: path.clone(),
                    });
                }
                self.check_body(body, path)
            }
            Prog::WhileFinite(_, body) => {
                if !self.admits_finiteness_test() {
                    return Err(DialectViolation {
                        dialect: self,
                        test: IllegalTest::Finiteness,
                        path: path.clone(),
                    });
                }
                self.check_body(body, path)
            }
        }
    }

    fn check_body(self, body: &Prog, path: &mut NodePath) -> Result<(), DialectViolation> {
        path.push(0);
        let r = self.check_at(body, path);
        path.pop();
        r
    }
}

impl fmt::Display for Dialect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The smallest dialect admitting every test a program uses, if any:
/// `QL ⊂ QLhs` and `QL ⊂ QLf+`, but `QLhs` and `QLf+` are
/// incomparable, so a program mixing `|Y|=1` and `|Y|<∞` fits no
/// dialect and classifies to `None`.
pub fn classify(p: &Prog) -> Option<Dialect> {
    match (p.uses_singleton_test(), p.uses_finiteness_test()) {
        (false, false) => Some(Dialect::Ql),
        (true, false) => Some(Dialect::Qlhs),
        (false, true) => Some(Dialect::QlfPlus),
        (true, true) => None,
    }
}

/// Which illegal test a [`DialectViolation`] found.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum IllegalTest {
    /// `while |Y|=1` outside QLhs.
    Singleton,
    /// `while |Y|<∞` outside QLf+.
    Finiteness,
}

/// A static dialect violation: an illegal `while` test, with the tree
/// path of the offending node (see [`crate::ast::NodePath`]).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct DialectViolation {
    /// The dialect the program was checked against.
    pub dialect: Dialect,
    /// The test the dialect does not admit.
    pub test: IllegalTest,
    /// Tree path of the offending `while` node.
    pub path: NodePath,
}

impl DialectViolation {
    /// The interpreter-facing message — the same wording the
    /// interpretation-time checks use, so callers matching on message
    /// content see one vocabulary.
    pub fn message(&self) -> &'static str {
        match (self.dialect, self.test) {
            (Dialect::Ql, IllegalTest::Singleton) => {
                "while |Y|=1 is a QLhs primitive; in finitary QL it is only definable"
            }
            (Dialect::QlfPlus, IllegalTest::Singleton) => {
                "while |Y|=1 is a QLhs primitive, not part of QLf+"
            }
            (Dialect::Ql, IllegalTest::Finiteness) => "while |Y|<∞ is a QLf+ construct",
            (Dialect::Qlhs, IllegalTest::Finiteness) => {
                "while |Y|<∞ is a QLf+ construct; QLhs values are always finite sets of representatives"
            }
            // A dialect never reports a test it admits.
            (Dialect::Qlhs, IllegalTest::Singleton) | (Dialect::QlfPlus, IllegalTest::Finiteness) => {
                unreachable!("admitted test reported as violation")
            }
        }
    }
}

impl fmt::Display for DialectViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} rejects this program: {}",
            self.dialect,
            self.message()
        )
    }
}

impl std::error::Error for DialectViolation {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Term;

    fn singleton_prog() -> Prog {
        Prog::seq([
            Prog::assign(0, Term::E),
            Prog::WhileSingleton(0, Box::new(Prog::assign(0, Term::Var(0).up()))),
        ])
    }

    #[test]
    fn admission_table() {
        assert!(!Dialect::Ql.admits_singleton_test());
        assert!(!Dialect::Ql.admits_finiteness_test());
        assert!(Dialect::Qlhs.admits_singleton_test());
        assert!(!Dialect::Qlhs.admits_finiteness_test());
        assert!(!Dialect::QlfPlus.admits_singleton_test());
        assert!(Dialect::QlfPlus.admits_finiteness_test());
    }

    #[test]
    fn classify_minimal_dialect() {
        assert_eq!(classify(&Prog::assign(0, Term::E)), Some(Dialect::Ql));
        assert_eq!(classify(&singleton_prog()), Some(Dialect::Qlhs));
        let fin = Prog::WhileFinite(0, Box::new(Prog::assign(0, Term::Var(0).not())));
        assert_eq!(classify(&fin), Some(Dialect::QlfPlus));
        let mixed = Prog::seq([singleton_prog(), fin]);
        assert_eq!(classify(&mixed), None);
    }

    #[test]
    fn check_reports_path_of_first_violation() {
        let p = Prog::seq([
            Prog::assign(0, Term::E),
            Prog::WhileEmpty(
                1,
                Box::new(Prog::seq([
                    Prog::assign(1, Term::E),
                    Prog::WhileFinite(0, Box::new(Prog::Seq(vec![]))),
                ])),
            ),
        ]);
        let err = Dialect::Qlhs.check(&p).unwrap_err();
        assert_eq!(err.test, IllegalTest::Finiteness);
        // Seq child 1 → while body (child 0) → Seq child 1.
        assert_eq!(err.path, vec![1, 0, 1]);
        assert!(err.message().contains("QLf+"));
    }

    #[test]
    fn every_dialect_admits_its_own_programs() {
        assert!(Dialect::Qlhs.check(&singleton_prog()).is_ok());
        assert!(Dialect::Ql.check(&singleton_prog()).is_err());
        assert!(Dialect::QlfPlus.check(&singleton_prog()).is_err());
        // Plain QL programs pass everywhere.
        let ql = Prog::WhileEmpty(0, Box::new(Prog::assign(0, Term::E)));
        for d in Dialect::ALL {
            assert!(d.check(&ql).is_ok(), "{d} must admit plain QL");
        }
    }

    #[test]
    fn violation_display_names_dialect() {
        let err = Dialect::Ql.check(&singleton_prog()).unwrap_err();
        let s = err.to_string();
        assert!(s.contains("QL rejects"), "{s}");
    }
}
