//! §4 ledger checks: fcf-r-dbs are hs-r-dbs, `Df` is recoverable from
//! the tree, and QLf+ agrees with QLhs on the shared fragment.

use crate::ledger::{CheckCtx, CheckDef};
use crate::rng::SplitMix64;
use recdb_core::{CoFiniteRelation, Elem, FiniteRelation, Fuel, Tuple};
use recdb_hsdb::{df_from_tree, FcfDatabase, FcfRel};
use recdb_qlhs::{parse_program, FcfInterp, HsInterp};

/// A small seeded fcf-r-db: one finite unary relation and one
/// co-finite binary relation, all exceptional data inside `0..4` so
/// `Df` stays small enough to recover from the tree.
fn small_fcf(rng: &mut SplitMix64, name: &str) -> FcfDatabase {
    let unary: Vec<u64> = (0..4).filter(|_| rng.gen_bool()).take(2).collect();
    let count = 1 + rng.gen_usize(2);
    let mut exceptions = Vec::new();
    for _ in 0..count {
        exceptions.push(Tuple::from_values([
            rng.gen_range(0, 4),
            rng.gen_range(0, 4),
        ]));
    }
    FcfDatabase::new(
        name,
        vec![
            FcfRel::Finite(FiniteRelation::unary(unary)),
            FcfRel::CoFinite(CoFiniteRelation::new(2, exceptions)),
        ],
    )
}

/// QL programs in the fragment QLf+ and QLhs share (no `E`, no
/// `single`/`finite` tests — see the dedicated dialect tests).
const SHARED_SOURCES: [&str; 5] = [
    "Y1 := R1;",
    "Y1 := !R1;",
    "Y1 := swap(R2);",
    "Y1 := down(R2);",
    "Y1 := R2 & swap(R2);",
];

fn p4_1_3(ctx: &mut CheckCtx) -> Result<(), String> {
    for round in 0..3 {
        let fcf = small_fcf(ctx.rng(), &format!("fcf-{round}"));
        ctx.family("fcf-random");
        let df = fcf.df();
        let hs = fcf.clone().into_hsdb();
        // Prop 4.1 direction 1: the fcf-r-db is a valid hs-r-db.
        hs.validate(2)
            .map_err(|e| format!("fcf-{round}: representation invalid: {e}"))?;
        // Prop 4.1 direction 2: Df is recoverable from the tree alone.
        let bound = df.len() + 2;
        let recovered = df_from_tree(hs.tree(), bound);
        if recovered.as_ref() != Some(&df) {
            return Err(format!(
                "fcf-{round}: Df {df:?} not recovered from the tree \
                 (got {recovered:?} at depth {bound})"
            ));
        }
        // Props 4.2/4.3 (via Theorem 4.1's two views): QLf+ and QLhs
        // agree on the shared fragment, membership-wise.
        let mut fcf_interp = FcfInterp::new(&fcf);
        for src in SHARED_SOURCES {
            let prog = parse_program(src).map_err(|e| format!("{src}: {e:?}"))?;
            let fv = fcf_interp
                .run(&prog, &mut Fuel::new(1_000_000))
                .map_err(|e| format!("FcfInterp {src}: {e:?}"))?;
            let hv = HsInterp::new(&hs)
                .run(&prog, &mut Fuel::new(1_000_000))
                .map_err(|e| format!("HsInterp {src}: {e:?}"))?;
            if fv.rank != hv.rank {
                return Err(format!(
                    "{src}: rank mismatch (QLf+ {} vs QLhs {})",
                    fv.rank, hv.rank
                ));
            }
            // Probe inside and outside Df.
            let probes: Vec<Tuple> = (0..10)
                .map(|_| {
                    (0..fv.rank)
                        .map(|_| Elem(ctx.rng().gen_range(0, 8)))
                        .collect()
                })
                .collect();
            for t in probes {
                let in_fcf = fv.contains(&t);
                let in_hs = hv.tuples.iter().any(|rep| hs.equivalent(rep, &t));
                if in_fcf != in_hs {
                    return Err(format!(
                        "fcf-{round}: {src} disagrees at {t:?} \
                         (QLf+ {in_fcf}, QLhs {in_hs})"
                    ));
                }
            }
        }
    }
    Ok(())
}

/// The §4 rows of the ledger.
pub fn defs() -> Vec<CheckDef> {
    vec![CheckDef {
        id: "P4.1-4.3",
        result: "Props 4.1–4.3, Theorem 4.1",
        title: "fcf ↪ hs round trip; QLf+ ≡ QLhs on the shared fragment",
        run: p4_1_3,
    }]
}
