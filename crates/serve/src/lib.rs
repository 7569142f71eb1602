//! `recdb-serve` — an analyzer-gated concurrent query service for the
//! QL family.
//!
//! The server accepts QL/QLhs/QLf+ programs and L⁻ formulas over a
//! minimal HTTP/1.1 + JSON wire protocol (both hand-rolled; the crate
//! is dependency-free beyond the workspace). Every query passes
//! [`recdb_analyze::analyze_full`] at admission, and the analyzer's
//! verdicts *are* the scheduling policy:
//!
//! * proved `Terminates {iterations}` → run under an **exact**
//!   iteration budget (the proved figure, plus per-loop bounds) —
//!   exceeding it at runtime is an admission-soundness violation,
//!   counted and surfaced, never absorbed;
//! * termination `Unknown` → run under **fuel** with cooperative
//!   preemption at loop heads;
//! * `Diverges` / `Unsafe` → **rejected**, with the analyzer's span
//!   diagnostics serialized into the error response;
//! * `Generic {fixed}` (+ proved safety and termination) → the result
//!   is **cacheable** across tenants, keyed by the canonical
//!   ≅_B-class fingerprint of the database slice
//!   ([`cache::canonicalize_finite`]).
//!
//! Module map: [`json`] (request parser) → [`http`] (wire framing) →
//! [`proto`] (typed requests, validation, deterministic result
//! rendering) → [`admit`] (analysis → plan) → [`exec`] (the statement
//! layer's budget schedule, re-exported from `recdb-qlhs`: bounded,
//! preemptible execution) → [`cache`] (canonicalization +
//! sharded result cache) → [`server`] (workers that accept their own
//! connections, routing) → [`client`] (the client the tests and the
//! ledger use).

#![warn(missing_docs)]

pub mod admit;
pub mod cache;
pub mod client;
pub mod http;
pub mod json;
pub mod proto;
pub mod server;

pub use client::{post_once, ClientError, Conn, Response};
/// The statement layer admitted programs run under, re-exported at
/// the path downstream code has always imported it from.
pub use recdb_qlhs::exec;
pub use server::{ServeConfig, Server};
