//! Cost-guided algebraic rewriting.
//!
//! A small classical rule set — selection pushdown through
//! union/difference/join, projection cascade/identity/pushdown,
//! natural-join reordering, dead-view elimination — applied to the
//! *typed* AST: every rule's side condition is discharged by
//! construction against the attribute sets the typechecker assigns
//! (e.g. a selection only crosses a join when its predicate's
//! attributes are contained in the receiving side), so each rewrite
//! preserves the specification semantics of [`crate::eval`] on every
//! database. The soundness table lives in DESIGN.md §11; the
//! `RA-REWRITE-DIFF` ledger entry replays ≥500 seeded programs
//! through original and optimized plans on three backends and
//! demands byte-equal results.
//!
//! Plan choice is *cost-minimal by construction*: the candidate set
//! always contains the original program, each candidate is
//! typechecked, validated and lowered once and priced by the cost pass
//! ([`recdb_analyze::analyze_cost`]) at the fixed nominal
//! instantiation, and the cheapest wins (ties prefer the rewrite —
//! every rule is structurally non-worsening, so an equal bound means
//! the rewrite only sharpened intermediate values). A rewrite equal to
//! the original is not priced twice.
//! An optimized plan can therefore never cost more than the naive
//! one, and never fails to compile when the original compiles. The
//! report carries the chosen plan's lowering, so a caller that runs
//! the plan (the `/v1/ra` front end) lowers nothing itself.

use crate::ast::{Pred, RaExpr, RaProgram};
use crate::compile::{compile_program, lower_program, CompiledRa};
use crate::diag::RaError;
use crate::schema::{attrs_of, typecheck, RaSchema};
use recdb_analyze::{analyze_cost, analyze_prog, analyze_termination, CostEnv};
use std::collections::{BTreeMap, BTreeSet};

/// Most full rewrite passes over a binding before settling.
const PASS_CAP: usize = 8;

/// What the rewriter did to one program.
#[derive(Clone, Debug)]
pub struct RewriteReport {
    /// The chosen (cost-minimal) program.
    pub program: RaProgram,
    /// Rule names in application order, e.g. `"select-pushdown-join"`.
    /// Empty when the original program was kept.
    pub applied: Vec<&'static str>,
    /// Did the chosen program differ from the input?
    pub changed: bool,
    /// The chosen program, lowered.
    pub compiled: CompiledRa,
    /// Nominal work bound of the naive plan.
    pub cost_original: u64,
    /// Nominal work bound of the chosen plan (≤ `cost_original`).
    pub cost_chosen: u64,
}

/// Work bound of the lowered program at the nominal instantiation
/// (`u64::MAX` when the cost pass cannot bound it — compiled RA is
/// straight-line with proved ranks, so that should not occur).
fn nominal_cost(compiled: &CompiledRa, schema: &RaSchema) -> u64 {
    let core = schema.core_schema();
    let dialect = recdb_qlhs::Dialect::Qlhs;
    let safety = analyze_prog(&compiled.prog, &core, dialect);
    let termination = analyze_termination(&compiled.prog, &core, dialect, &safety);
    let cost = analyze_cost(&compiled.prog, &core, dialect, &termination);
    cost.work()
        .map(|w| w.eval(&CostEnv::nominal(&core)))
        .unwrap_or(u64::MAX)
}

/// Optimizes `p`: returns the cost-minimal candidate among the
/// original and its rewriting, with its lowering. The returned program
/// compiles whenever `p` does, evaluates identically on every
/// database, and its nominal cost bound never exceeds the original's.
///
/// # Errors
/// Exactly when `p` itself fails to typecheck, validate, or lower —
/// the errors [`compile_program`] reports, in the same order.
pub fn optimize_program(p: &RaProgram, schema: &RaSchema) -> Result<RewriteReport, RaError> {
    // The original must be well-formed; its lowering also prices it.
    let typed = typecheck(p, schema)?;
    crate::safety::validate(p, schema)?;
    recdb_obs::count("ra.rewrite.programs", 1);
    let original = lower_program(p, schema, &typed)?;
    let cost_original = nominal_cost(&original, schema);

    let mut applied: Vec<&'static str> = Vec::new();
    let mut candidate = RaProgram {
        views: p
            .views
            .iter()
            .map(|(n, e)| {
                (
                    n.clone(),
                    rewrite_expr(e.clone(), schema, &typed.views, &mut applied),
                )
            })
            .collect(),
        query: rewrite_expr(p.query.clone(), schema, &typed.views, &mut applied),
    };
    drop_dead_views(&mut candidate, &mut applied);
    recdb_obs::count("ra.rewrite.rules", applied.len() as u64);

    // Guard: a candidate that no longer compiles (which no rule should
    // produce) silently loses to the original.
    let rewritten = if candidate == *p {
        None
    } else {
        compile_program(&candidate, schema)
            .ok()
            .map(|c| (nominal_cost(&c, schema), c))
            .filter(|(cost, _)| *cost <= cost_original)
    };
    if let Some((cost_chosen, compiled)) = rewritten {
        recdb_obs::count("ra.rewrite.chosen_rewritten", 1);
        Ok(RewriteReport {
            program: candidate,
            applied,
            changed: true,
            compiled,
            cost_original,
            cost_chosen,
        })
    } else {
        recdb_obs::count("ra.rewrite.chosen_original", 1);
        Ok(RewriteReport {
            program: p.clone(),
            applied: Vec::new(),
            changed: false,
            compiled: original,
            cost_original,
            cost_chosen: cost_original,
        })
    }
}

/// Attribute set of `e`, as the typechecker would assign it. `None`
/// only on expressions the typechecker rejects (never produced here).
fn attrs(
    e: &RaExpr,
    schema: &RaSchema,
    views: &BTreeMap<String, Vec<String>>,
) -> Option<Vec<String>> {
    attrs_of(e, schema, views, &[]).ok()
}

fn pred_attrs(p: &Pred) -> Vec<&String> {
    match p {
        Pred::AttrEqAttr(a, b) => vec![a, b],
        Pred::AttrEqConst(a, _) => vec![a],
    }
}

/// Rewrites one binding body to a fixpoint (bounded passes).
fn rewrite_expr(
    mut e: RaExpr,
    schema: &RaSchema,
    views: &BTreeMap<String, Vec<String>>,
    applied: &mut Vec<&'static str>,
) -> RaExpr {
    for _ in 0..PASS_CAP {
        let mut changed = false;
        e = pass(e, schema, views, applied, &mut changed);
        if !changed {
            break;
        }
    }
    e
}

/// One bottom-up pass: children first, then the local rules.
fn pass(
    e: RaExpr,
    schema: &RaSchema,
    views: &BTreeMap<String, Vec<String>>,
    applied: &mut Vec<&'static str>,
    changed: &mut bool,
) -> RaExpr {
    let e = match e {
        RaExpr::Name(n) => RaExpr::Name(n),
        RaExpr::Select(p, inner) => {
            RaExpr::Select(p, Box::new(pass(*inner, schema, views, applied, changed)))
        }
        RaExpr::Project(keep, inner) => RaExpr::Project(
            keep,
            Box::new(pass(*inner, schema, views, applied, changed)),
        ),
        RaExpr::Rename(pairs, inner) => RaExpr::Rename(
            pairs,
            Box::new(pass(*inner, schema, views, applied, changed)),
        ),
        RaExpr::Join(a, b) => RaExpr::Join(
            Box::new(pass(*a, schema, views, applied, changed)),
            Box::new(pass(*b, schema, views, applied, changed)),
        ),
        RaExpr::Union(a, b) => RaExpr::Union(
            Box::new(pass(*a, schema, views, applied, changed)),
            Box::new(pass(*b, schema, views, applied, changed)),
        ),
        RaExpr::Diff(a, b) => RaExpr::Diff(
            Box::new(pass(*a, schema, views, applied, changed)),
            Box::new(pass(*b, schema, views, applied, changed)),
        ),
        RaExpr::Not(inner) => RaExpr::Not(Box::new(pass(*inner, schema, views, applied, changed))),
    };
    rewrite_node(e, schema, views, applied, changed)
}

/// The local rules, each annotated with its soundness obligation.
fn rewrite_node(
    e: RaExpr,
    schema: &RaSchema,
    views: &BTreeMap<String, Vec<String>>,
    applied: &mut Vec<&'static str>,
    changed: &mut bool,
) -> RaExpr {
    let mut fire = |rule: &'static str, applied: &mut Vec<&'static str>| {
        applied.push(rule);
        *changed = true;
    };
    match e {
        // σp(A ∪ B) = σp(A) ∪ σp(B): selection distributes over union
        // (both sides carry the same attribute set, so p typechecks on
        // each).
        RaExpr::Select(p, inner) => match *inner {
            RaExpr::Union(a, b) => {
                fire("select-pushdown-union", applied);
                RaExpr::Union(
                    Box::new(RaExpr::Select(p.clone(), a)),
                    Box::new(RaExpr::Select(p, b)),
                )
            }
            // σp(A − B) = σp(A) − σp(B): a tuple of A−B satisfies p
            // iff it is in σp(A) and (being in B would put it in
            // σp(B) exactly when p holds, which it does) not in σp(B).
            RaExpr::Diff(a, b) => {
                fire("select-pushdown-diff", applied);
                RaExpr::Diff(
                    Box::new(RaExpr::Select(p.clone(), a)),
                    Box::new(RaExpr::Select(p, b)),
                )
            }
            // σp(A ⋈ B) = σp(A) ⋈ B when attrs(p) ⊆ attrs(A): p reads
            // only coordinates the join copies verbatim from A. The
            // receiving side must not be a bare complement (pushing
            // into it could unguard it for the validator).
            RaExpr::Join(a, b) => {
                let pa = pred_attrs(&p);
                let within = |side: &RaExpr| -> bool {
                    !matches!(side, RaExpr::Not(_))
                        && attrs(side, schema, views)
                            .is_some_and(|at| pa.iter().all(|x| at.binary_search(x).is_ok()))
                };
                if within(&a) {
                    fire("select-pushdown-join", applied);
                    RaExpr::Join(Box::new(RaExpr::Select(p, a)), b)
                } else if within(&b) {
                    fire("select-pushdown-join", applied);
                    RaExpr::Join(a, Box::new(RaExpr::Select(p, b)))
                } else {
                    RaExpr::Select(p, Box::new(RaExpr::Join(a, b)))
                }
            }
            other => RaExpr::Select(p, Box::new(other)),
        },
        RaExpr::Project(keep, inner) => {
            // π_X(π_Y(e)) = π_X(e): X ⊆ Y by typing, so the inner
            // projection discards nothing X needs.
            if let RaExpr::Project(_, inner2) = *inner {
                fire("project-cascade", applied);
                return RaExpr::Project(keep, inner2);
            }
            // π_X(e) = e when X is exactly attrs(e): the projection is
            // the identity on every tuple.
            if let Some(at) = attrs(&inner, schema, views) {
                let mut sorted = keep.clone();
                sorted.sort();
                if sorted == at {
                    fire("project-identity", applied);
                    return *inner;
                }
            }
            // π_X(A ∪ B) = π_X(A) ∪ π_X(B): projection distributes
            // over union (not over difference).
            if let RaExpr::Union(a, b) = *inner {
                fire("project-pushdown-union", applied);
                return RaExpr::Union(
                    Box::new(RaExpr::Project(keep.clone(), a)),
                    Box::new(RaExpr::Project(keep, b)),
                );
            }
            RaExpr::Project(keep, inner)
        }
        // Natural join is associative and commutative on its
        // specification semantics (a join result is the set of tuples
        // over the *union* of the attribute sets matching every
        // operand), so any leaf order evaluates identically. Reorder a
        // flattened join chain cheapest-first, complements last (they
        // need the accumulated attrs as their guard).
        RaExpr::Join(a, b) => {
            let mut leaves: Vec<RaExpr> = Vec::new();
            flatten_join(RaExpr::Join(a, b), &mut leaves);
            if leaves.len() > 2 {
                let ordered = order_leaves(&leaves, schema, views);
                if ordered != leaves {
                    fire("join-reorder", applied);
                    return rebuild_join(ordered);
                }
            }
            rebuild_join(leaves)
        }
        other => other,
    }
}

fn flatten_join(e: RaExpr, out: &mut Vec<RaExpr>) {
    match e {
        RaExpr::Join(a, b) => {
            flatten_join(*a, out);
            flatten_join(*b, out);
        }
        leaf => out.push(leaf),
    }
}

/// Non-complement leaves sorted by (attr count, node count, syntax),
/// complements after them in their original relative order.
fn order_leaves(
    leaves: &[RaExpr],
    schema: &RaSchema,
    views: &BTreeMap<String, Vec<String>>,
) -> Vec<RaExpr> {
    let mut sortable: Vec<(usize, usize, String, RaExpr)> = Vec::new();
    let mut nots: Vec<RaExpr> = Vec::new();
    for l in leaves {
        if matches!(l, RaExpr::Not(_)) {
            nots.push(l.clone());
        } else {
            let width = attrs(l, schema, views)
                .map(|a| a.len())
                .unwrap_or(usize::MAX);
            sortable.push((width, l.node_count(), l.to_string(), l.clone()));
        }
    }
    sortable.sort_by(|x, y| (x.0, x.1, &x.2).cmp(&(y.0, y.1, &y.2)));
    let mut out: Vec<RaExpr> = sortable.into_iter().map(|t| t.3).collect();
    out.extend(nots);
    out
}

fn rebuild_join(leaves: Vec<RaExpr>) -> RaExpr {
    let mut acc: Option<RaExpr> = None;
    for l in leaves {
        acc = Some(match acc {
            Some(a) => RaExpr::Join(Box::new(a), Box::new(l)),
            None => l,
        });
    }
    // A flattened join always has ≥ 2 leaves; the fallback is
    // unreachable but keeps the function total.
    acc.unwrap_or(RaExpr::Not(Box::new(RaExpr::Name(String::new()))))
}

/// Drops views the query does not transitively reference. Sound
/// because view definitions are pure and names are unique
/// (`typecheck` rejects collisions), so an unreferenced view cannot
/// affect the query's value.
fn drop_dead_views(p: &mut RaProgram, applied: &mut Vec<&'static str>) {
    let defined: BTreeSet<&str> = p.views.iter().map(|(n, _)| n.as_str()).collect();
    let mut live: BTreeSet<String> = BTreeSet::new();
    let mut queue: Vec<&RaExpr> = vec![&p.query];
    while let Some(e) = queue.pop() {
        if let RaExpr::Name(n) = e {
            if defined.contains(n.as_str()) && live.insert(n.clone()) {
                if let Some((_, body)) = p.views.iter().find(|(vn, _)| vn == n) {
                    queue.push(body);
                }
            }
        }
        queue.extend(e.children());
    }
    if p.views.iter().any(|(n, _)| !live.contains(n)) {
        applied.push("dead-view-elim");
        p.views.retain(|(n, _)| live.contains(n));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::rel;
    use crate::eval::eval_program;
    use recdb_core::{Elem, FiniteStructure, Schema, Tuple};

    fn setup() -> (RaSchema, FiniteStructure) {
        let schema = RaSchema::parse("R(a, b); S(b, c); T(c, d)").unwrap();
        let st = FiniteStructure::new(
            Schema::new([2, 2, 2]),
            (0..5).map(Elem),
            vec![
                [(0, 1), (1, 2), (0, 0), (3, 1), (4, 2)]
                    .iter()
                    .map(|&(x, y)| Tuple::from_values([x, y]))
                    .collect(),
                [(1, 3), (2, 3), (1, 1)]
                    .iter()
                    .map(|&(x, y)| Tuple::from_values([x, y]))
                    .collect(),
                [(3, 0), (3, 4), (1, 1)]
                    .iter()
                    .map(|&(x, y)| Tuple::from_values([x, y]))
                    .collect(),
            ],
        );
        (schema, st)
    }

    /// Optimizes, and demands the chosen plan evaluates byte-equal to
    /// the original on the test structure with cost ≤ the original's.
    fn check(p: &RaProgram) -> RewriteReport {
        let (schema, st) = setup();
        let report = optimize_program(p, &schema).unwrap();
        assert!(report.cost_chosen <= report.cost_original, "{report:?}");
        let dom: Vec<Elem> = st.universe().to_vec();
        let before = eval_program(p, &schema, &st, &dom).unwrap();
        let after = eval_program(&report.program, &schema, &st, &dom).unwrap();
        assert_eq!(before, after, "rewrite changed the result");
        let lowered = compile_program(&report.program, &schema).unwrap();
        assert_eq!(
            report.compiled.prog, lowered.prog,
            "carries the chosen lowering"
        );
        assert_eq!(report.compiled.attrs, lowered.attrs);
        report
    }

    #[test]
    fn selection_pushes_through_join() {
        let p = RaProgram::new(rel("R").join(rel("S")).select_const("a", 0));
        let r = check(&p);
        assert!(r.changed, "{r:?}");
        assert!(
            r.applied.contains(&"select-pushdown-join"),
            "{:?}",
            r.applied
        );
        // The selection now sits on R, inside the join.
        assert_eq!(r.program.query.to_string(), "(select #a = 0 (R) join S)");
    }

    #[test]
    fn selection_distributes_over_union() {
        let p = RaProgram::new(rel("R").union(rel("R")).select_const("b", 1));
        let r = check(&p);
        assert!(
            r.applied.contains(&"select-pushdown-union"),
            "{:?}",
            r.applied
        );
    }

    #[test]
    fn projection_cascade_collapses() {
        // The identity inner projection erases first; a genuine
        // cascade needs a narrowing inner projection.
        let p = RaProgram::new(rel("R").project(["a", "b"]).project(["a"]));
        let r = check(&p);
        assert!(r.changed, "{r:?}");
        assert!(r.applied.contains(&"project-identity"), "{:?}", r.applied);

        let p = RaProgram::new(rel("R").join(rel("S")).project(["a", "b"]).project(["a"]));
        let r = check(&p);
        assert!(r.applied.contains(&"project-cascade"), "{:?}", r.applied);
    }

    #[test]
    fn identity_projection_is_erased() {
        let p = RaProgram::new(rel("R").project(["a", "b"]).join(rel("S")));
        let r = check(&p);
        assert!(r.applied.contains(&"project-identity"), "{:?}", r.applied);
    }

    #[test]
    fn join_chain_reorders_cheapest_first() {
        let p = RaProgram::new(
            rel("R")
                .join(rel("S"))
                .join(rel("T"))
                .join(rel("R").select_const("a", 3)),
        );
        let r = check(&p);
        assert!(
            r.applied.contains(&"join-reorder") || !r.changed,
            "{:?}",
            r.applied
        );
    }

    #[test]
    fn dead_views_are_dropped() {
        let p = RaProgram {
            views: vec![
                ("V1".into(), rel("R")),
                ("V2".into(), rel("S").join(rel("T"))),
            ],
            query: rel("V1").project(["a"]),
        };
        let r = check(&p);
        assert!(r.changed, "{r:?}");
        assert!(r.applied.contains(&"dead-view-elim"), "{:?}", r.applied);
        assert_eq!(r.program.views.len(), 1);
    }

    #[test]
    fn guarded_negation_survives_optimization() {
        // R ⋈ ¬(π_b(S)) — the complement must stay guarded.
        let p = RaProgram::new(rel("R").join(rel("S").project(["b"]).not()));
        let r = check(&p);
        let (schema, _) = setup();
        assert!(compile_program(&r.program, &schema).is_ok());
    }

    #[test]
    fn original_kept_when_no_rule_fires() {
        let p = RaProgram::new(rel("R"));
        let r = check(&p);
        assert!(!r.changed);
        assert!(r.applied.is_empty());
        assert_eq!(r.cost_chosen, r.cost_original);
    }
}
