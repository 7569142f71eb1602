//! Lowering RA expressions to QLhs programs.
//!
//! The target is the paper's rank-`k` encoding: a value over sorted
//! attributes `a₀ < a₁ < … < a_{k-1}` becomes a rank-`k` QL value
//! whose coordinate `i` is attribute `aᵢ`. Everything is built from
//! the six QL term formers — `∩`, `¬`, `up`, `down`, `swap`, `E` —
//! plus constants; the derived combinators are (DESIGN.md §10):
//!
//! * `eq(m)` — rank `m`, first = last: `eq(2) = E`,
//!   `eq(m) = swap(up(eq(m-1)))`;
//! * `rot(e, k)` — rotate coordinates left:
//!   `down(up(e) ∩ eq(k+1))`;
//! * arbitrary coordinate permutations — bubble-sorted into adjacent
//!   transpositions, each conjugated through rotations onto the two
//!   rightmost coordinates where `swap` acts.
//!
//! On top of those: selection intersects a rotated padded `eq`/`C_c`
//! cylinder, projection rotates the dropped attributes to the front
//! and `down`s them, natural join pads both sides with `up` and
//! permutes them onto the union attribute order, difference is
//! `∩ ¬`, and union is `¬(¬ ∩ ¬)`. Compiled programs are straight
//! lines of view assignments (`Y₂ …`) feeding the query (`Y₁`), so
//! `recdb_analyze::analyze_full` proves them Safe, terminating in 0
//! iterations, and generic — which is exactly what the serve cache
//! needs (DESIGN.md §9).
//!
//! A permutation costs about `3k` QL levels per adjacent transposition
//! at rank `k`, so a short RA query over wide relations can lower to a
//! very deep term. Lowering tracks the QL parser's nesting count as it
//! builds and stops at [`recdb_qlhs::MAX_DEPTH`], so every compiled
//! program prints as QL the parser accepts, and nothing downstream
//! recurses over a deeper tree.

use crate::ast::{Pred, RaExpr, RaProgram};
use crate::diag::RaError;
use crate::schema::{attrs_of, sort_perm, typecheck, RaSchema};
use recdb_qlhs::ast::{Prog, Term};
use std::collections::{BTreeMap, BTreeSet};

/// A compiled program plus the attribute names of its result columns.
#[derive(Clone, Debug)]
pub struct CompiledRa {
    /// Straight-line QLhs program; the result is `Y1`.
    pub prog: Prog,
    /// Sorted attribute names: column `i` of the result is `attrs[i]`.
    pub attrs: Vec<String>,
}

/// Typechecks, validates, and lowers a program.
///
/// # Errors
/// Typing errors `RA01`–`RA04`, safety rejections `RA05`, and
/// [`recdb_qlhs::DEPTH_CODE`] for a view or query whose lowered term
/// would nest deeper than [`recdb_qlhs::MAX_DEPTH`], so that every
/// compiled program prints as QL the parser accepts.
pub fn compile_program(p: &RaProgram, schema: &RaSchema) -> Result<CompiledRa, RaError> {
    let typed = typecheck(p, schema)?;
    crate::safety::validate(p, schema)?;
    let mut view_attrs: BTreeMap<String, Vec<String>> = BTreeMap::new();
    let mut view_vars: BTreeMap<String, usize> = BTreeMap::new();
    let mut stmts = Vec::new();
    for (i, (name, body)) in p.views.iter().enumerate() {
        let term = lower(body, schema, &view_attrs, &view_vars, &[i as u32])?;
        // Views live in Y2, Y3, …; Y1 is the query result.
        let var = i + 1;
        stmts.push(Prog::assign(var, term.term));
        let attrs = attrs_of(body, schema, &view_attrs, &[i as u32])?;
        view_vars.insert(name.clone(), var);
        view_attrs.insert(name.clone(), attrs);
    }
    let query = lower(
        &p.query,
        schema,
        &view_attrs,
        &view_vars,
        &[p.views.len() as u32],
    )?;
    stmts.push(Prog::assign(0, query.term));
    let prog = Prog::Seq(stmts);
    recdb_obs::count("ra.compile.programs", 1);
    recdb_obs::observe("ra.compile.term_nodes", prog_nodes(&prog));
    Ok(CompiledRa {
        prog,
        attrs: typed.query_attrs,
    })
}

/// A term under construction, with the two measures of its nesting:
/// `height`, the operator nodes on its longest root-to-leaf path, and
/// `depth`, the nesting levels the QL parser counts when it re-reads
/// the printed term (see [`recdb_qlhs::MAX_DEPTH`]). Lowering builds
/// bottom-up and keeps both current, so it refuses a term the parser
/// would refuse before anything recurses over it.
struct Lowered {
    term: Term,
    height: usize,
    depth: usize,
}

impl Lowered {
    fn leaf(term: Term) -> Lowered {
        Lowered {
            term,
            height: 0,
            depth: 0,
        }
    }

    /// `!e`, `up(e)`, `down(e)` and `swap(e)` each open one level.
    fn unary(self, op: fn(Term) -> Term) -> Lowered {
        Lowered {
            term: op(self.term),
            height: self.height + 1,
            depth: self.depth + 1,
        }
    }

    fn not(self) -> Lowered {
        self.unary(Term::not)
    }

    fn up(self) -> Lowered {
        self.unary(Term::up)
    }

    fn down(self) -> Lowered {
        self.unary(Term::down)
    }

    fn swap(self) -> Lowered {
        self.unary(Term::swap)
    }

    fn up_n(self, k: usize) -> Lowered {
        (0..k).fold(self, |t, _| t.up())
    }

    fn down_n(self, k: usize) -> Lowered {
        (0..k).fold(self, |t, _| t.down())
    }

    /// `(e & f)` prints in parentheses, one level, inside which the
    /// parser checks the `&` node's height.
    fn and(self, other: Lowered) -> Lowered {
        let height = 1 + self.height.max(other.height);
        Lowered {
            term: self.term.and(other.term),
            height,
            depth: 1 + self.depth.max(other.depth).max(height),
        }
    }

    fn minus(self, other: Lowered) -> Lowered {
        self.and(other.not())
    }

    fn union(self, other: Lowered) -> Lowered {
        self.not().and(other.not()).not()
    }

    /// Fails once the printed term would nest deeper than the QL parser
    /// admits; `path` is the RA node being lowered.
    fn fits(self, path: &[u32]) -> Result<Lowered, RaError> {
        if self.depth > recdb_qlhs::MAX_DEPTH {
            return Err(RaError::new(
                recdb_qlhs::DEPTH_CODE,
                path.to_vec(),
                format!(
                    "lowers to a QL term nested more than {} levels deep",
                    recdb_qlhs::MAX_DEPTH
                ),
            ));
        }
        Ok(self)
    }
}

/// `eq(m)`: the rank-`m` relation `{t : t[0] = t[m-1]}`, `m ≥ 2`.
fn eq_first_last(m: usize) -> Lowered {
    assert!(m >= 2);
    let mut t = Lowered::leaf(Term::E);
    for _ in 2..m {
        t = t.up().swap();
    }
    t
}

/// Rotate-left on rank `k`: `(x₀, x₁, …) ↦ (x₁, …, x₀)`.
fn rot_left(e: Lowered, k: usize) -> Lowered {
    if k <= 1 {
        return e;
    }
    e.up().and(eq_first_last(k + 1)).down()
}

/// `n` left rotations, each checked against the depth limit.
fn rot_left_n(e: Lowered, k: usize, n: usize, path: &[u32]) -> Result<Lowered, RaError> {
    if k <= 1 {
        return Ok(e);
    }
    let mut t = e;
    for _ in 0..(n % k) {
        t = rot_left(t, k).fits(path)?;
    }
    Ok(t)
}

fn rot_right_n(e: Lowered, k: usize, n: usize, path: &[u32]) -> Result<Lowered, RaError> {
    if k <= 1 {
        return Ok(e);
    }
    rot_left_n(e, k, (k - n % k) % k, path)
}

/// Applies the coordinate permutation `perm` (target → source:
/// result coordinate `i` reads source coordinate `perm[i]`) using
/// only rotations and `swap`.
fn apply_perm(e: Lowered, perm: &[usize], path: &[u32]) -> Result<Lowered, RaError> {
    let k = perm.len();
    let mut arr: Vec<usize> = (0..k).collect();
    if arr == perm {
        return Ok(e);
    }
    let mut t = e;
    // Selection sort by adjacent transpositions: bring perm[i] into
    // position i from the left.
    for i in 0..k {
        // Every perm handed in is a permutation by construction
        // (`sort_perm`, an index partition, or a total position map),
        // so the search always succeeds; an absent entry would leave
        // that coordinate where it is rather than panic.
        let Some(off) = arr[i..].iter().position(|&s| s == perm[i]) else {
            continue;
        };
        let j = off + i;
        for p in (i..j).rev() {
            // Transpose positions (p, p+1): rotate them onto the two
            // rightmost slots, swap there, rotate back.
            let n = (p + 2) % k;
            t = rot_left_n(t, k, n, path)?.swap();
            t = rot_left_n(t, k, (k - n) % k, path)?;
            arr.swap(p, p + 1);
        }
    }
    Ok(t)
}

/// Lowers one expression to a term over sorted-attribute coordinates.
///
/// # Errors
/// [`recdb_qlhs::DEPTH_CODE`] once the term would nest deeper than the
/// QL parser admits. `RA01`/`RA02` on unknown names or attributes —
/// ill-typed input only; `compile_program` typechecks first, so these
/// never surface through the public entry point.
fn lower(
    e: &RaExpr,
    schema: &RaSchema,
    view_attrs: &BTreeMap<String, Vec<String>>,
    view_vars: &BTreeMap<String, usize>,
    path: &[u32],
) -> Result<Lowered, RaError> {
    let child = |i: u32| -> Vec<u32> {
        let mut p = path.to_vec();
        p.push(i);
        p
    };
    let attrs = |x: &RaExpr, i: u32| -> Result<Vec<String>, RaError> {
        attrs_of(x, schema, view_attrs, &child(i))
    };
    let lowered = match e {
        RaExpr::Name(n) => {
            if let Some(&v) = view_vars.get(n) {
                return Ok(Lowered::leaf(Term::Var(v)));
            }
            let i = schema.index_of(n).ok_or_else(|| {
                RaError::new("RA01", path.to_vec(), format!("unknown name {n:?}"))
            })?;
            apply_perm(
                Lowered::leaf(Term::Rel(i)),
                &sort_perm(schema.attrs(i)),
                path,
            )?
        }
        RaExpr::Select(pred, inner) => {
            let a = attrs(inner, 0)?;
            let t = lower(inner, schema, view_attrs, view_vars, &child(0))?;
            let k = a.len();
            let pos = |name: &String| -> Result<usize, RaError> {
                a.binary_search(name).map_err(|_| {
                    RaError::new("RA02", path.to_vec(), format!("unknown attribute #{name}"))
                })
            };
            match pred {
                Pred::AttrEqAttr(x, y) => {
                    let (x, y) = (pos(x)?, pos(y)?);
                    let (i, j) = (x.min(y), x.max(y));
                    if i == j {
                        // `#a = #a` is trivially true.
                        return Ok(t);
                    }
                    let m = j - i + 1;
                    let cyl = rot_right_n(eq_first_last(m).up_n(k - m), k, i, path)?;
                    t.and(cyl)
                }
                Pred::AttrEqConst(x, c) => {
                    let i = pos(x)?;
                    let cyl = rot_right_n(Lowered::leaf(Term::Const(*c)).up_n(k - 1), k, i, path)?;
                    t.and(cyl)
                }
            }
        }
        RaExpr::Project(keep, inner) => {
            let a = attrs(inner, 0)?;
            let t = lower(inner, schema, view_attrs, view_vars, &child(0))?;
            let keep_set: BTreeSet<&String> = keep.iter().collect();
            // Target arrangement: dropped coordinates first, then the
            // kept ones in sorted order (`a` is sorted, so ascending
            // kept positions are already the sorted kept attributes);
            // `down` eats from the front.
            let (dropped, kept): (Vec<usize>, Vec<usize>) =
                (0..a.len()).partition(|&i| !keep_set.contains(&a[i]));
            if dropped.is_empty() {
                return Ok(t);
            }
            let eaten = dropped.len();
            let mut perm = dropped;
            perm.extend(kept);
            apply_perm(t, &perm, path)?.down_n(eaten)
        }
        RaExpr::Rename(pairs, inner) => {
            let a = attrs(inner, 0)?;
            let t = lower(inner, schema, view_attrs, view_vars, &child(0))?;
            let renamed: Vec<String> = a
                .iter()
                .map(|x| {
                    pairs
                        .iter()
                        .find(|(from, _)| from == x)
                        .map(|(_, to)| to.clone())
                        .unwrap_or_else(|| x.clone())
                })
                .collect();
            apply_perm(t, &sort_perm(&renamed), path)?
        }
        RaExpr::Join(l, r) => {
            let la = attrs(l, 0)?;
            let ra = attrs(r, 1)?;
            let mut g: Vec<String> = la.clone();
            for x in &ra {
                if !g.contains(x) {
                    g.push(x.clone());
                }
            }
            g.sort();
            let tl = lower(l, schema, view_attrs, view_vars, &child(0))?;
            let tr = lower(r, schema, view_attrs, view_vars, &child(1))?;
            let side = |t: Lowered, own: &[String]| -> Result<Lowered, RaError> {
                // After `up`-padding, the arrangement is `own` followed
                // by the missing attributes in sorted order; `g` is
                // exactly the sorted set of the arrangement's names, so
                // every lookup lands.
                let mut arrangement: Vec<String> = own.to_vec();
                arrangement.extend(g.iter().filter(|x| !own.contains(x)).cloned());
                let perm: Vec<usize> = g
                    .iter()
                    .filter_map(|x| arrangement.iter().position(|y| y == x))
                    .collect();
                apply_perm(t.up_n(g.len() - own.len()), &perm, path)
            };
            side(tl, &la)?.and(side(tr, &ra)?)
        }
        RaExpr::Union(l, r) => {
            let tl = lower(l, schema, view_attrs, view_vars, &child(0))?;
            let tr = lower(r, schema, view_attrs, view_vars, &child(1))?;
            tl.union(tr)
        }
        RaExpr::Diff(l, r) => {
            let tl = lower(l, schema, view_attrs, view_vars, &child(0))?;
            let tr = lower(r, schema, view_attrs, view_vars, &child(1))?;
            tl.minus(tr)
        }
        RaExpr::Not(inner) => lower(inner, schema, view_attrs, view_vars, &child(0))?.not(),
    };
    lowered.fits(path)
}

fn term_nodes(t: &Term) -> u64 {
    match t {
        Term::E | Term::Rel(_) | Term::Var(_) | Term::Const(_) => 1,
        Term::And(a, b) => 1 + term_nodes(a) + term_nodes(b),
        Term::Not(a) | Term::Up(a) | Term::Down(a) | Term::Swap(a) => 1 + term_nodes(a),
    }
}

fn prog_nodes(p: &Prog) -> u64 {
    match p {
        Prog::Assign(_, t) => term_nodes(t),
        Prog::Seq(ps) => ps.iter().map(prog_nodes).sum(),
        Prog::WhileEmpty(_, b) | Prog::WhileSingleton(_, b) | Prog::WhileFinite(_, b) => {
            prog_nodes(b)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::rel;
    use crate::eval::eval_program;
    use recdb_core::{Elem, FiniteStructure, Fuel, Schema, Tuple};
    use recdb_qlhs::FinInterp;

    fn setup() -> (RaSchema, FiniteStructure) {
        let schema = RaSchema::parse("R(a, b); S(b, c); T(c, b, a)").unwrap();
        let st = FiniteStructure::new(
            Schema::new([2, 2, 3]),
            (0..4).map(Elem),
            vec![
                [(0, 1), (1, 2), (0, 0), (3, 1)]
                    .iter()
                    .map(|&(x, y)| Tuple::from_values([x, y]))
                    .collect(),
                [(1, 3), (2, 3), (1, 1)]
                    .iter()
                    .map(|&(x, y)| Tuple::from_values([x, y]))
                    .collect(),
                [(0, 1, 2), (3, 3, 3), (1, 0, 2)]
                    .iter()
                    .map(|&(x, y, z)| Tuple::from_values([x, y, z]))
                    .collect(),
            ],
        );
        (schema, st)
    }

    /// Compiles and runs under `FinInterp`, and checks the result
    /// against the direct evaluator.
    fn differential(p: &RaProgram) {
        let (schema, st) = setup();
        let compiled = compile_program(p, &schema).unwrap();
        let dom: Vec<Elem> = st.universe().to_vec();
        let direct = eval_program(p, &schema, &st, &dom).unwrap();
        let mut interp = FinInterp::new(&st);
        let got = interp
            .run(&compiled.prog, &mut Fuel::new(1_000_000))
            .unwrap();
        assert_eq!(got.rank, direct.attrs.len(), "rank for {p}");
        assert_eq!(
            got.tuples,
            direct.tuples.iter().cloned().collect(),
            "tuples for {p}"
        );
        assert_eq!(compiled.attrs, direct.attrs);
    }

    #[test]
    fn permutation_machinery_is_exact() {
        // All 6 permutations of T(c, b, a)'s columns, driven through
        // rename: compare against the direct evaluator.
        let renames: &[&[(&str, &str)]] = &[
            &[],
            &[("a", "x")],
            &[("b", "x")],
            &[("c", "x")],
            &[("a", "z"), ("c", "a")],
            &[("a", "b2"), ("b", "c2"), ("c", "a2")],
        ];
        for pairs in renames {
            differential(&RaProgram::new(rel("T").rename(pairs.to_vec())));
        }
    }

    #[test]
    fn base_relations_sort_their_columns() {
        // T is declared (c, b, a): the lowered leaf must present
        // sorted (a, b, c).
        differential(&RaProgram::new(rel("T")));
    }

    #[test]
    fn selects_compile() {
        differential(&RaProgram::new(rel("T").select_eq("a", "c")));
        differential(&RaProgram::new(rel("T").select_eq("b", "c")));
        differential(&RaProgram::new(rel("R").select_eq("a", "b")));
        differential(&RaProgram::new(rel("T").select_const("b", 3)));
        differential(&RaProgram::new(rel("R").select_const("a", 0)));
    }

    #[test]
    fn projections_compile() {
        differential(&RaProgram::new(rel("T").project(["a"])));
        differential(&RaProgram::new(rel("T").project(["c", "a"])));
        differential(&RaProgram::new(rel("R").project::<[&str; 0], &str>([])));
    }

    #[test]
    fn joins_compile() {
        differential(&RaProgram::new(rel("R").join(rel("S"))));
        differential(&RaProgram::new(rel("R").join(rel("T"))));
        differential(&RaProgram::new(rel("S").join(rel("T"))));
        differential(&RaProgram::new(rel("R").join(rel("S")).join(rel("T"))));
    }

    #[test]
    fn set_ops_and_guarded_negation_compile() {
        differential(&RaProgram::new(
            rel("R").union(rel("S").rename([("b", "a"), ("c", "b")])),
        ));
        differential(&RaProgram::new(rel("R").diff(rel("R").select_eq("a", "b"))));
        differential(&RaProgram::new(
            rel("R").join(rel("S").project(["b"]).not()),
        ));
        differential(&RaProgram::new(rel("R").diff(rel("R").not().not().not())));
    }

    #[test]
    fn views_lower_to_variables() {
        let p = RaProgram::new(rel("V").join(rel("W")))
            .with_view("V", rel("R").select_const("a", 0))
            .with_view("W", rel("S").project(["b"]));
        differential(&p);
        let (schema, _) = setup();
        let compiled = compile_program(&p, &schema).unwrap();
        // Two view assignments (Y2, Y3) plus the query (Y1).
        let Prog::Seq(stmts) = &compiled.prog else {
            panic!()
        };
        assert_eq!(stmts.len(), 3);
        assert!(matches!(stmts[0], Prog::Assign(1, _)));
        assert!(matches!(stmts[2], Prog::Assign(0, _)));
    }

    /// Runs `f` on a thread with a serve worker's stack: printing,
    /// parsing and dropping a term at the depth limit recurse about
    /// 1024 levels, more than a debug test thread's default holds.
    fn on_worker_stack(f: impl FnOnce() + Send + 'static) {
        std::thread::Builder::new()
            .stack_size(32 << 20)
            .spawn(f)
            .unwrap()
            .join()
            .unwrap();
    }

    /// The tracked `depth` is exactly what the QL parser counts: padded
    /// with `up(…)` to the limit the printed term parses, and one level
    /// more is a `DEPTH` error.
    #[test]
    fn tracked_depth_is_the_parsers_depth() {
        on_worker_stack(tracked_depth_matches);
    }

    fn tracked_depth_matches() {
        fn random(rng: &mut recdb_core::SplitMix64, budget: usize) -> Lowered {
            if budget == 0 {
                return Lowered::leaf(Term::Rel(0));
            }
            match rng.gen_range(0, 6) {
                0 => Lowered::leaf(Term::E),
                1 => random(rng, budget - 1).not(),
                2 => random(rng, budget - 1).up(),
                3 => random(rng, budget - 1).swap(),
                _ => random(rng, budget - 1).and(random(rng, budget - 1)),
            }
        }
        let mut rng = recdb_core::SplitMix64::seed_from_u64(16);
        for _ in 0..200 {
            let t = random(&mut rng, 12);
            let pad = recdb_qlhs::MAX_DEPTH - t.depth;
            let padded =
                |n: usize| format!("Y1 := {}{}{};", "up(".repeat(n), t.term, ")".repeat(n));
            assert!(
                recdb_qlhs::parse_program(&padded(pad)).is_ok(),
                "{}",
                t.term
            );
            let err = recdb_qlhs::parse_program(&padded(pad + 1)).unwrap_err();
            assert_eq!(err.code, recdb_qlhs::DEPTH_CODE, "{}", t.term);
        }
    }

    #[test]
    fn lowerings_past_the_parsers_depth_are_depth_errors() {
        on_worker_stack(deep_lowerings_fail);
    }

    fn deep_lowerings_fail() {
        let schema =
            RaSchema::parse("W(a, b, c, d, e, f, g, h); V(i, j, k, l, m, n, o, p)").unwrap();
        let reverse = "rename #a -> #h, #b -> #g, #c -> #f, #d -> #e, \
                       #e -> #d, #f -> #c, #g -> #b, #h -> #a";
        let compiles = |src: &str| {
            let p = crate::parser::parse_ra(src).unwrap();
            compile_program(&p, &schema).map(|c| c.prog)
        };
        // One reversing rename of the 8-ary relation fits, and prints
        // as QL the parser accepts.
        for src in ["W".to_string(), format!("{reverse} (W)")] {
            let prog = compiles(&src).unwrap();
            recdb_qlhs::parse_program(&prog.to_string()).unwrap();
        }
        // Two nested ones, or a join over 16 attributes, would not: the
        // error names the RA node whose lowering went too deep.
        for src in [format!("{reverse} ({reverse} (W))"), "W join V".into()] {
            let err = compiles(&src).unwrap_err();
            assert_eq!(err.code, recdb_qlhs::DEPTH_CODE, "{src}: {err}");
            assert_eq!(err.path, vec![0], "{src}");
        }
    }

    #[test]
    fn unsafe_programs_do_not_compile() {
        let (schema, _) = setup();
        let err = compile_program(&RaProgram::new(rel("R").not()), &schema).unwrap_err();
        assert_eq!(err.code, "RA05");
    }
}
