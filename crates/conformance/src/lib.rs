//! `recdb-conformance` — the theorem-ledger conformance harness.
//!
//! The paper's results table (DESIGN.md §1) as a data-driven registry
//! of executable checks, each reporting PASS / FAIL / SKIPPED with the
//! database families exercised and the seed used. Two engines feed the
//! registry beyond the per-theorem checks:
//!
//! * **differential oracles** ([`differential`]) — two independent
//!   implementations of the same semantic object compared pointwise
//!   (`L⁻` vs finite FO, `FinInterp` vs `HsInterp`, bucketed vs
//!   pairwise partitioning, `TreeGame` vs pool-based `EfGame`);
//! * **seeded metamorphic fuzzing** ([`metamorphic`]) — input
//!   transformations with exactly known effect (domain permutations,
//!   rank bumps, the P3.7 projection identity).
//!
//! The crate is deliberately dependency-free beyond the workspace: it
//! carries its own deterministic RNG ([`rng::SplitMix64`]) and JSON
//! writer ([`json`]) so the ledger runs in offline environments.
//!
//! Entry points: [`run_ledger`] (library), the `conformance` binary
//! (CLI, writes `CONFORMANCE.json`), and the `conformance_ledger`
//! integration test in `crates/suite`.

pub mod checks;
pub mod differential;
pub mod gen;
pub mod json;
pub mod ledger;
pub mod metamorphic;
pub mod rng;

pub use ledger::{
    run_check, run_ledger, CheckCtx, CheckDef, CheckOutcome, CheckStatus, LedgerReport, SKIP_PREFIX,
};
pub use rng::SplitMix64;

/// The fixed master seed used by `scripts/conformance.sh` and CI.
pub const DEFAULT_SEED: u64 = 0x5ecd_eb0a;
