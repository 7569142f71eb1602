//! Typed diagnostics for the RA frontend.
//!
//! Every error carries the [`NodePath`] of the offending expression
//! node, so callers holding the parser's span table can render
//! rustc-style `line:col` diagnostics — the same protocol the QL
//! analyzer uses (DESIGN.md §8). Codes are stable:
//!
//! | code   | meaning                                            |
//! |--------|----------------------------------------------------|
//! | `RA01` | unknown relation or view name                      |
//! | `RA02` | unknown attribute                                  |
//! | `RA03` | duplicate attribute or view name                   |
//! | `RA04` | union/difference attribute-set mismatch            |
//! | `RA05` | unsafe expression (fails range restriction)        |
//! | `DEPTH`| lowers to a QL term nested deeper than QL admits   |

use recdb_qlhs::ast::NodePath;
use std::fmt;

/// A frontend diagnostic: typing (`RA01`–`RA04`), safety (`RA05`), or
/// lowering depth (`DEPTH`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RaError {
    /// Stable diagnostic code.
    pub code: &'static str,
    /// Tree path of the offending node (view `i` under prefix `[i]`,
    /// query under `[views.len()]`).
    pub path: NodePath,
    /// Human-readable message.
    pub message: String,
}

impl RaError {
    /// Builds a diagnostic.
    pub fn new(code: &'static str, path: NodePath, message: impl Into<String>) -> Self {
        RaError {
            code,
            path,
            message: message.into(),
        }
    }
}

impl fmt::Display for RaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.code, self.message)
    }
}

impl std::error::Error for RaError {}
