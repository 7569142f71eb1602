//! Termination reads the safety walk's per-loop facts instead of
//! re-deriving them, so its rules and the safety lints cannot drift
//! apart. On seeded random programs in all three dialects, at every
//! loop:
//!
//! * `LoopBound::Bounded(0)` (rule B0, guard refuted at entry) holds
//!   exactly when `W0103` (unreachable loop body) is reported there;
//! * `LoopBound::Divergent` holds exactly when `W0104` (divergent
//!   loop) is reported there.
//!
//! ```text
//! cargo test -p recdb-suite --test loop_facts
//! ```

use recdb_analyze::{analyze_prog, analyze_termination, Code, LoopBound};
use recdb_conformance::gen::{random_prog, ProgShape};
use recdb_core::{Schema, SplitMix64};
use recdb_qlhs::{Dialect, Prog};

/// Fixed ledger seed (`recdb_conformance::DEFAULT_SEED`).
const SEED: u64 = 0x5ecd_eb0a;

/// Programs drawn per dialect.
const PROGRAMS: usize = 1_000;

fn count_loops(p: &Prog) -> usize {
    match p {
        Prog::Assign(..) => 0,
        Prog::Seq(ps) => ps.iter().map(count_loops).sum(),
        Prog::WhileEmpty(_, b) | Prog::WhileSingleton(_, b) | Prog::WhileFinite(_, b) => {
            1 + count_loops(b)
        }
    }
}

#[test]
fn refuted_at_entry_is_w0103_and_divergent_is_w0104() {
    let schema = Schema::new(vec![2, 1]);
    let mut rng = SplitMix64::seed_from_u64(SEED);
    let (mut loops, mut b0, mut divergent) = (0, 0, 0);
    for dialect in Dialect::ALL {
        let shape = ProgShape {
            rels: schema.len(),
            vars: 3,
            allow_singleton: dialect.admits_singleton_test(),
            allow_finite: dialect.admits_finiteness_test(),
            consts: 0,
            union_bias: false,
        };
        for _ in 0..PROGRAMS {
            let stmts = 1 + rng.gen_usize(3);
            let p = random_prog(&mut rng, 2, stmts, &shape);
            let safety = analyze_prog(&p, &schema, dialect);
            let t = analyze_termination(&p, &schema, dialect, &safety);
            assert_eq!(t.loops.len(), count_loops(&p), "{dialect}:\n{p}");
            let lint_at = |code: Code, path: &[u32]| {
                safety
                    .diagnostics
                    .iter()
                    .any(|d| d.code == code && d.path == path)
            };
            for l in &t.loops {
                let refuted = l.bound == LoopBound::Bounded(0);
                let diverges = l.bound == LoopBound::Divergent;
                assert_eq!(
                    refuted,
                    lint_at(Code::UnreachableLoop, &l.path),
                    "{dialect}: B0 vs W0103 at {:?} in\n{p}",
                    l.path
                );
                assert_eq!(
                    diverges,
                    lint_at(Code::DivergentLoop, &l.path),
                    "{dialect}: Divergent vs W0104 at {:?} in\n{p}",
                    l.path
                );
                loops += 1;
                b0 += usize::from(refuted);
                divergent += usize::from(diverges);
            }
        }
    }
    // Both sides of each equivalence must actually occur.
    assert!(
        loops > 1_000 && b0 > 100 && divergent > 50,
        "loops {loops}, B0 {b0}, divergent {divergent}"
    );
}
