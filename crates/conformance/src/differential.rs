//! Differential oracles: two independent implementations of the same
//! semantic object, compared pointwise on shared inputs.
//!
//! Each engine returns `Ok(())` or the first counterexample as a
//! message with enough context to replay it (database name, program or
//! formula source, probe tuple).

use crate::gen::{self, WINDOW};
use crate::ledger::CheckCtx;
use recdb_core::{Elem, FiniteStructure, Fuel, Tuple};
use recdb_hsdb::{
    partition_by_local_iso, partition_by_local_iso_pairwise, ComponentGraph, Coords, HsDatabase,
    Partition, TreeGame,
};
use recdb_logic::{eval_finite, Assignment, EfGame, LMinusQuery};
use recdb_qlhs::{parse_program, FinInterp, HsInterp};

/// Sorts blocks and members so two partitions compare by content, not
/// by construction order.
pub fn norm(mut p: Partition) -> Partition {
    for b in &mut p {
        b.sort();
    }
    p.sort();
    p
}

/// L⁻ `eval` (infinite r-db, oracle access) vs finite FO `eval_finite`
/// on the restriction to the probe's elements. Quantifier-free bodies
/// only inspect facts about the probe's own elements, so the answers
/// must coincide.
pub fn lminus_vs_finite_fo(ctx: &mut CheckCtx) -> Result<(), String> {
    let schema = recdb_core::Schema::with_names(&["E"], &[2]);
    let sources = [
        "{ (x, y) | E(x, y) & !E(y, x) }",
        "{ (x, y) | (E(x, y) | E(y, x)) & x != y }",
        "{ (x, y) | E(x, x) <-> E(y, y) }",
        "{ (x) | E(x, x) }",
    ];
    for round in 0..4 {
        let db = gen::random_graph_db(ctx.rng(), &format!("rand-{round}"));
        ctx.family("random-graph");
        for src in sources {
            let q = LMinusQuery::parse(src, &schema).map_err(|e| format!("parse {src}: {e:?}"))?;
            let rank = q.rank().ok_or(format!("query {src} has no rank"))?;
            for t in gen::random_tuples(ctx.rng(), 6, rank, WINDOW) {
                let via_oracle = q.eval(&db, &t).is_member();
                let frag = FiniteStructure::restriction(&db, &t);
                let mut asg = Assignment::from_tuple(&t);
                let body = q.body().ok_or(format!("query {src} has no body"))?;
                let via_finite = eval_finite(&frag, body, &mut asg)
                    .map_err(|e| format!("eval_finite {src} at {t:?}: {e:?}"))?;
                if via_oracle != via_finite {
                    return Err(format!(
                        "L⁻ oracle eval ({via_oracle}) != finite FO eval \
                         ({via_finite}) for {src} at {t:?} on {}",
                        db.name()
                    ));
                }
            }
        }
    }
    Ok(())
}

/// Programs in the QL fragment shared by the finitary interpreter and
/// QLhs (no `single`/`finite` tests).
const SHARED_PROGRAMS: [&str; 7] = [
    "Y1 := R1;",
    "Y1 := !R1;",
    "Y1 := R1 & swap(R1);",
    "Y1 := down(R1);",
    "Y1 := up(down(R1));",
    "Y1 := E;",
    "Y1 := R1 & !E;",
];

/// `FinInterp` on a finite component vs `HsInterp` on its infinite
/// replication: for every probe tuple inside copy 0, finitary
/// membership must equal class membership of the encoded tuple.
pub fn fininterp_vs_hsinterp(ctx: &mut CheckCtx) -> Result<(), String> {
    for round in 0..3 {
        let size = 2 + ctx.rng().gen_range(0, 3); // 2..=4 nodes
        let fin = gen::random_finite_graph(ctx.rng(), size);
        ctx.family("component-replication");
        let g = ComponentGraph::new(vec![fin.clone()]);
        let hs: HsDatabase = ComponentGraph::new(vec![fin.clone()]).into_hsdb();
        for src in SHARED_PROGRAMS {
            let prog = parse_program(src).map_err(|e| format!("parse {src}: {e:?}"))?;
            let vf = FinInterp::new(&fin)
                .run(&prog, &mut Fuel::new(1_000_000))
                .map_err(|e| format!("FinInterp {src}: {e:?}"))?;
            let vh = HsInterp::new(&hs)
                .run(&prog, &mut Fuel::new(5_000_000))
                .map_err(|e| format!("HsInterp {src}: {e:?}"))?;
            if vf.rank != vh.rank {
                return Err(format!(
                    "rank mismatch for {src}: finite {} vs hs {}",
                    vf.rank, vh.rank
                ));
            }
            // Probe every rank-k tuple over the finite universe.
            for t in all_tuples(fin.universe(), vf.rank) {
                let in_fin = vf.tuples.contains(&t);
                let enc: Tuple = t
                    .elems()
                    .iter()
                    .map(|e| {
                        g.encode(Coords {
                            ty: 0,
                            copy: 0,
                            node: e.value() as usize,
                        })
                    })
                    .collect();
                let in_hs = vh
                    .tuples
                    .iter()
                    .any(|rep| hs.equivalent(&rep.to_tuple(), &enc));
                if in_fin != in_hs {
                    return Err(format!(
                        "QL vs QLhs disagree for {src} at {t:?} \
                         (finite {in_fin}, hs {in_hs}) on component round {round}"
                    ));
                }
            }
        }
    }
    Ok(())
}

/// All rank-`k` tuples over a finite universe.
fn all_tuples(universe: &[Elem], k: usize) -> Vec<Tuple> {
    let mut out = vec![Tuple::empty()];
    for _ in 0..k {
        out = out
            .into_iter()
            .flat_map(|t| universe.iter().map(move |&e| t.extend(e)))
            .collect();
    }
    out
}

/// Fingerprint-bucketed partition vs the `O(t²)` pairwise oracle, on
/// zoo levels and random finite databases with random tuple batches.
pub fn bucketed_vs_pairwise(ctx: &mut CheckCtx) -> Result<(), String> {
    for entry in recdb_hsdb::catalog() {
        ctx.family(entry.info.name);
        let max_n = entry.info.practical_depth.min(2);
        for n in 1..=max_n {
            let tuples = entry.hs.t_n(n);
            let fast = norm(partition_by_local_iso(entry.hs.database(), &tuples));
            let slow = norm(partition_by_local_iso_pairwise(
                entry.hs.database(),
                &tuples,
            ));
            if fast != slow {
                return Err(format!(
                    "bucketed vs pairwise partition differ on {} at n={n}",
                    entry.info.name
                ));
            }
        }
    }
    for round in 0..4 {
        let db = gen::random_graph_db(ctx.rng(), &format!("rand-{round}"));
        ctx.family("random-graph");
        let rank = 1 + ctx.rng().gen_usize(3);
        let tuples = gen::random_tuples(ctx.rng(), 24, rank, WINDOW);
        let fast = norm(partition_by_local_iso(&db, &tuples));
        let slow = norm(partition_by_local_iso_pairwise(&db, &tuples));
        if fast != slow {
            return Err(format!(
                "bucketed vs pairwise partition differ on {} rank {rank}",
                db.name()
            ));
        }
    }
    Ok(())
}

/// The memoized tree recursion (`TreeGame`, Prop 3.4: quantifiers
/// range over offspring) vs the generic pool-based `EfGame` with the
/// Theorem 6.3 quantifier pool, on pairs of tree nodes.
pub fn tree_game_vs_ef_game(ctx: &mut CheckCtx) -> Result<(), String> {
    for entry in recdb_hsdb::deep_catalog() {
        ctx.family(entry.info.name);
        let hs = &entry.hs;
        let n = 1;
        for r in 0..=2usize {
            let pool = recdb_bp::quantifier_pool(hs, n + r);
            let db = hs.database();
            let mut ef = EfGame::new(db, db, pool.clone(), pool);
            let mut tree = TreeGame::new(hs);
            let level = hs.t_n(n);
            for u in &level {
                for v in &level {
                    let via_tree = tree.equiv_r(u, v, r);
                    let via_ef = ef.duplicator_wins(u, v, r);
                    if via_tree != via_ef {
                        return Err(format!(
                            "TreeGame ({via_tree}) vs EfGame ({via_ef}) at \
                             ({u:?},{v:?},r={r}) on {}",
                            entry.info.name
                        ));
                    }
                }
            }
        }
    }
    Ok(())
}
