//! §3 ledger checks: symmetry, refinement, and the hs-r-db
//! representation theorem.

use crate::gen;
use crate::ledger::{CheckCtx, CheckDef, SKIP_PREFIX};
use crate::metamorphic;
use recdb_core::{locally_equivalent, Elem, Tuple};
use recdb_hsdb::{
    catalog, count_rank1_classes, deep_catalog, find_r0, infinite_clique, infinite_star,
    line_equiv, paper_example_graph, rado_graph, FnEquiv, TreeGame,
};
use recdb_qlhs::{parse_program, theorem_3_1_pipeline, HsInterp, Rows};

fn p3_1(ctx: &mut CheckCtx) -> Result<(), String> {
    // Coloring dichotomy (Prop 3.1's stretching): marking one element
    // of the line yields unboundedly many rank-1 classes; marking one
    // leaf of the star saturates at 3 (hub, marked leaf, other leaves).
    ctx.family("line");
    let line_eq = line_equiv();
    let colored_line = FnEquiv::new(move |u: &Tuple, v: &Tuple| {
        line_eq.equivalent(
            &Tuple::from_values([0]).concat(u),
            &Tuple::from_values([0]).concat(v),
        )
    });
    let narrow: Vec<Elem> = (0..16).map(Elem).collect();
    let wide: Vec<Elem> = (0..48).map(Elem).collect();
    let (line_narrow, line_wide) = (
        count_rank1_classes(&colored_line, &narrow),
        count_rank1_classes(&colored_line, &wide),
    );
    if line_wide <= line_narrow {
        return Err(format!(
            "colored line must keep growing: {line_narrow} classes in 0..16 \
             vs {line_wide} in 0..48"
        ));
    }
    ctx.family("star");
    let star = infinite_star();
    let colored_star = FnEquiv::new(move |u: &Tuple, v: &Tuple| {
        star.equivalent(
            &Tuple::from_values([5]).concat(u),
            &Tuple::from_values([5]).concat(v),
        )
    });
    for (label, window) in [("narrow", &narrow), ("wide", &wide)] {
        let got = count_rank1_classes(&colored_star, window);
        if got != 3 {
            return Err(format!(
                "colored star must saturate at 3 classes, got {got} on the \
                 {label} window"
            ));
        }
    }
    Ok(())
}

fn p3_2(ctx: &mut CheckCtx) -> Result<(), String> {
    // The extension axioms hold by construction on the random
    // structures (the paper's "random structures are effectively
    // homogeneous" step)…
    ctx.family("rado");
    let xs = distinct_elems(ctx, 3, 28);
    let verified = recdb_hsdb::verify_rado_extension(&xs);
    if verified != 1 << xs.len() {
        return Err(format!(
            "rado extension patterns verified: {verified} of {}",
            1 << xs.len()
        ));
    }
    ctx.family("random-digraph");
    let xs = distinct_elems(ctx, 2, 14);
    let verified = recdb_hsdb::verify_digraph_extension(&xs);
    if verified != 2 << (2 * xs.len()) {
        return Err(format!(
            "digraph extension patterns verified: {verified} of {}",
            2 << (2 * xs.len())
        ));
    }
    // …hence ≅_B collapses to ≅ₗ on the Rado graph: homogeneity makes
    // every local isomorphism extend to an automorphism.
    let hs = rado_graph();
    let db = hs.database();
    for _ in 0..10 {
        let u = gen::random_tuple(ctx.rng(), 2, 16);
        let v = gen::random_tuple(ctx.rng(), 2, 16);
        let via_hs = hs.equivalent(&u, &v);
        let via_local = locally_equivalent(db, &u, &v);
        if via_hs != via_local {
            return Err(format!(
                "rado: ≅_B ({via_hs}) vs ≅ₗ ({via_local}) at {u:?}/{v:?}"
            ));
        }
    }
    Ok(())
}

fn distinct_elems(ctx: &mut CheckCtx, count: usize, window: u64) -> Vec<Elem> {
    let mut pool: Vec<u64> = (0..window).collect();
    ctx.rng().shuffle(&mut pool);
    pool.truncate(count);
    pool.into_iter().map(Elem).collect()
}

fn p3_3_6(ctx: &mut CheckCtx) -> Result<(), String> {
    // Refinement converges on every catalog family (within each
    // family's practical budget), and the trajectory is monotone.
    for entry in catalog() {
        let max_r = if entry.info.practical_depth <= 3 {
            1
        } else {
            3
        };
        metamorphic::rank_monotonicity(ctx, &entry.hs, entry.info.name, 1, max_r)?;
        let (r0, counts) =
            find_r0(&entry.hs, 1, max_r).map_err(|e| format!("{}: {e}", entry.info.name))?;
        if r0.is_none() {
            return Err(format!(
                "{}: refinement must converge by r={max_r}, trajectory {counts:?}",
                entry.info.name
            ));
        }
    }
    // ≡ᵣ is downward closed in r (Prop 3.3/3.4): equivalence at r+1
    // implies equivalence at r, on sampled rank-1 tuples.
    for hs in [infinite_star(), paper_example_graph()] {
        let mut game = TreeGame::new(&hs);
        for _ in 0..8 {
            let u = hs.canonical_rep(&gen::random_tuple(ctx.rng(), 1, 12));
            let v = hs.canonical_rep(&gen::random_tuple(ctx.rng(), 1, 12));
            for r in 0..2usize {
                if game.equiv_r(&u, &v, r + 1) && !game.equiv_r(&u, &v, r) {
                    return Err(format!("≡_{} without ≡_{r} at {u:?}/{v:?}", r + 1));
                }
            }
        }
    }
    Ok(())
}

fn p3_7(ctx: &mut CheckCtx) -> Result<(), String> {
    // The fixed verification grid; the seeded sweep lives in META-P3.7.
    for entry in deep_catalog() {
        for (n, r) in [(1, 0), (1, 1), (2, 0)] {
            metamorphic::p37_identity(ctx, &entry.hs, entry.info.name, n, r)?;
        }
    }
    Ok(())
}

fn t3_1(ctx: &mut CheckCtx) -> Result<(), String> {
    // The Theorem 3.1 pipeline (isolate D, run the integer-level query,
    // decode) computes C₁ for the identity query…
    for (name, hs) in [
        ("clique", infinite_clique()),
        ("paper-example", paper_example_graph()),
        ("rado", rado_graph()),
    ] {
        ctx.family(name);
        let via_pipeline = theorem_3_1_pipeline(&hs, |x, _| x[0].clone());
        if via_pipeline != *hs.reps(0) {
            return Err(format!("{name}: pipeline identity ≠ C₁"));
        }
    }
    // …and matches QLhs on a transforming query (swap).
    let hs = paper_example_graph();
    let via_pipeline = theorem_3_1_pipeline(&hs, |x, _| {
        x[0].iter()
            .map(|idx| idx.iter().rev().copied().collect())
            .collect()
    });
    let prog = parse_program("Y1 := swap(R1);").map_err(|e| format!("{e:?}"))?;
    let via_qlhs = HsInterp::new(&hs)
        .run(&prog, &mut recdb_core::Fuel::new(1_000_000))
        .map_err(|e| format!("{e:?}"))?;
    if via_pipeline.into_iter().collect::<Rows>() != via_qlhs.tuples {
        return Err("pipeline swap ≠ QLhs swap(R1) on paper-example".into());
    }
    Ok(())
}

fn c3_1(ctx: &mut CheckCtx) -> Result<(), String> {
    // ≅_B coincides with ≡ (elementary equivalence): at r₀ the
    // r-round game separates exactly the distinct classes, and raw
    // tuples agree with their canonical representatives.
    for entry in deep_catalog() {
        ctx.family(entry.info.name);
        let hs = &entry.hs;
        let (r0, counts) = find_r0(hs, 1, 3).map_err(|e| format!("{}: {e}", entry.info.name))?;
        let Some(r0) = r0 else {
            return Err(format!(
                "{SKIP_PREFIX} {}: no r₀ within budget ({counts:?})",
                entry.info.name
            ));
        };
        let mut game = TreeGame::new(hs);
        let level = hs.t_n(1);
        for a in &level {
            for b in &level {
                let via_game = game.equiv_r(a, b, r0);
                if via_game != (a == b) {
                    return Err(format!(
                        "{}: ≡_{r0} must separate distinct reps, failed at {a:?}/{b:?}",
                        entry.info.name
                    ));
                }
            }
        }
        for _ in 0..6 {
            let u = gen::random_tuple(ctx.rng(), 1, 24);
            let rep = hs.canonical_rep(&u);
            if !hs.equivalent(&u, &rep) {
                return Err(format!(
                    "{}: canonical rep not ≅_B its tuple at {u:?}",
                    entry.info.name
                ));
            }
        }
    }
    Ok(())
}

/// The §3 rows of the ledger.
pub fn defs() -> Vec<CheckDef> {
    vec![
        CheckDef {
            id: "P3.1",
            result: "Prop 3.1",
            title: "coloring dichotomy: line stretches, star saturates",
            run: p3_1,
        },
        CheckDef {
            id: "P3.2",
            result: "Prop 3.2",
            title: "extension axioms hold; rado collapses ≅_B to ≅ₗ",
            run: p3_2,
        },
        CheckDef {
            id: "P3.3-3.6",
            result: "Props 3.3–3.6",
            title: "refinement converges monotonically; ≡ᵣ downward closed",
            run: p3_3_6,
        },
        CheckDef {
            id: "P3.7-C3.3",
            result: "Prop 3.7, Cor 3.3",
            title: "Vⁿ⁺¹ᵣ↓ = Vⁿᵣ₊₁ on the fixed grid",
            run: p3_7,
        },
        CheckDef {
            id: "T3.1",
            result: "Theorem 3.1",
            title: "isolate-run-decode pipeline agrees with C₁ and QLhs",
            run: t3_1,
        },
        CheckDef {
            id: "C3.1",
            result: "Cor 3.1",
            title: "≅_B = ≡: the r₀-round game separates exactly the reps",
            run: c3_1,
        },
    ]
}
