//! The wire protocol: typed request/response shapes over the JSON
//! layer.
//!
//! A query request names a **database slice** (one of four kinds), a
//! **program** in the QL family's concrete syntax, and scheduling
//! knobs. The dialect is determined by the database kind — the pairing
//! the interpreters enforce anyway:
//!
//! | `db.kind`  | backend                    | dialect |
//! |------------|----------------------------|---------|
//! | `finite`   | `FinInterp`                | QL      |
//! | `family`   | `HsInterp` (catalog C_B)   | QLhs    |
//! | `cells`    | `HsInterp` (unary cells)   | QLhs    |
//! | `fcf`      | `FcfInterp`                | QLf+    |
//!
//! An explicit `"dialect"` field is accepted but must agree with the
//! database kind; a mismatch is a protocol error (the alternative —
//! silently running a QLhs program under QL semantics — is exactly the
//! confusion the dialect checker exists to prevent).

use crate::json::Json;
use recdb_core::{CoFiniteRelation, Elem, FiniteStructure, Schema, Tuple};
use recdb_hsdb::{family, is_family, unary_cells, CellSize, FcfDatabase, FcfRel, HsDatabase};
use recdb_qlhs::{Dialect, FcfVal, Val};
use std::collections::BTreeSet;

/// A protocol-shape error: the JSON parsed, but does not describe a
/// valid request. Reported as HTTP 400.
#[derive(Clone, Debug)]
pub struct BadRequest(pub String);

impl std::fmt::Display for BadRequest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

fn bad(msg: impl Into<String>) -> BadRequest {
    BadRequest(msg.into())
}

/// The database slice a request runs against.
#[derive(Clone, Debug)]
pub enum DbSpec {
    /// A fully materialized finite structure (QL / `FinInterp`).
    Finite(FiniteStructure),
    /// A catalog family by name (QLhs / `HsInterp`), e.g. `"clique"`.
    Family(String),
    /// A unary-cells homogeneous database: each cell is a list of
    /// elements or infinite (QLhs / `HsInterp`).
    Cells(Vec<CellSize>),
    /// A finite/co-finite database (QLf+ / `FcfInterp`).
    Fcf(FcfDatabase),
}

impl DbSpec {
    /// The dialect this database kind pairs with.
    pub fn dialect(&self) -> Dialect {
        match self {
            DbSpec::Finite(_) => Dialect::Ql,
            DbSpec::Family(_) | DbSpec::Cells(_) => Dialect::Qlhs,
            DbSpec::Fcf(_) => Dialect::QlfPlus,
        }
    }

    /// The schema the program is analyzed against.
    pub fn schema(&self) -> Result<Schema, BadRequest> {
        Ok(match self {
            DbSpec::Finite(st) => st.schema().clone(),
            DbSpec::Family(name) => family(name)
                .ok_or_else(|| bad(format!("unknown catalog family {name:?}")))?
                .schema()
                .clone(),
            DbSpec::Cells(cells) => Schema::new(vec![1usize; cells.len()]),
            DbSpec::Fcf(db) => db.schema(),
        })
    }

    /// A canonical text form of the slice — the *raw* (pre-≅_B)
    /// fingerprint the cache layer starts from. Two requests with equal
    /// descriptors denote the same database.
    pub fn descriptor(&self) -> String {
        match self {
            DbSpec::Finite(st) => {
                let mut s = String::from("finite:");
                s.push_str(&finite_descriptor(st));
                s
            }
            DbSpec::Family(name) => format!("family:{name}"),
            DbSpec::Cells(cells) => {
                let mut s = String::from("cells:");
                for (i, c) in cells.iter().enumerate() {
                    if i > 0 {
                        s.push('|');
                    }
                    match c {
                        CellSize::Infinite => s.push_str("inf"),
                        CellSize::Finite(vals) => {
                            let parts: Vec<String> = vals.iter().map(|v| v.to_string()).collect();
                            s.push_str(&parts.join(","));
                        }
                    }
                }
                s
            }
            DbSpec::Fcf(db) => {
                let mut s = String::from("fcf:");
                for (i, rel) in db.relations().iter().enumerate() {
                    if i > 0 {
                        s.push('|');
                    }
                    let tag = match rel {
                        FcfRel::Finite(_) => "fin",
                        FcfRel::CoFinite(_) => "cof",
                    };
                    s.push_str(&format!("{tag}/{}:", rel.arity()));
                    push_tuples(&mut s, rel.finite_part().iter());
                }
                s
            }
        }
    }
}

fn push_tuples<'a>(s: &mut String, tuples: impl Iterator<Item = &'a Tuple>) {
    for (i, t) in tuples.enumerate() {
        if i > 0 {
            s.push(' ');
        }
        let parts: Vec<String> = t.elems().iter().map(|e| e.value().to_string()).collect();
        s.push('(');
        s.push_str(&parts.join(","));
        s.push(')');
    }
}

/// A plain serialization of a finite structure: universe then
/// relations, all sorted (the input orders are already canonical).
pub fn finite_descriptor(st: &FiniteStructure) -> String {
    let mut s = String::new();
    s.push_str(&format!("a{:?};u", st.schema().arities()));
    let parts: Vec<String> = st
        .universe()
        .iter()
        .map(|e| e.value().to_string())
        .collect();
    s.push_str(&parts.join(","));
    for i in 0..st.schema().len() {
        s.push_str(";r");
        push_tuples(&mut s, st.relation(i).iter());
    }
    s
}

/// One `/v1/query` request, decoded and validated.
#[derive(Clone, Debug)]
pub struct QueryRequest {
    /// Opaque tenant label (metrics/log dimension only; admission and
    /// caching are deliberately tenant-blind — the cache is
    /// cross-tenant by design).
    pub tenant: String,
    /// The program, in the family's concrete syntax.
    pub program: String,
    /// The database slice.
    pub db: DbSpec,
    /// Requested fuel budget (clamped to the server's maximum).
    pub fuel: Option<u64>,
    /// Opt out of the result cache for this request.
    pub no_cache: bool,
}

fn field<'a>(obj: &'a Json, key: &str) -> Result<&'a Json, BadRequest> {
    obj.get(key)
        .ok_or_else(|| bad(format!("missing field {key:?}")))
}

fn str_field(obj: &Json, key: &str) -> Result<String, BadRequest> {
    field(obj, key)?
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| bad(format!("field {key:?} must be a string")))
}

fn u64_array(j: &Json, what: &str) -> Result<Vec<u64>, BadRequest> {
    j.as_arr()
        .ok_or_else(|| bad(format!("{what} must be an array")))?
        .iter()
        .map(|x| {
            x.as_u64()
                .ok_or_else(|| bad(format!("{what} must contain integers")))
        })
        .collect()
}

fn tuple_array(j: &Json, what: &str) -> Result<Vec<Tuple>, BadRequest> {
    j.as_arr()
        .ok_or_else(|| bad(format!("{what} must be an array of tuples")))?
        .iter()
        .map(|t| Ok(Tuple::from_values(u64_array(t, what)?)))
        .collect()
}

impl QueryRequest {
    /// Decodes and validates a request body.
    pub fn decode(body: &Json) -> Result<Self, BadRequest> {
        let program = str_field(body, "program")?;
        let db = decode_db(field(body, "db")?)?;
        if let Some(d) = body.get("dialect") {
            let name = d
                .as_str()
                .ok_or_else(|| bad("field \"dialect\" must be a string"))?;
            let declared = match name {
                "ql" => Dialect::Ql,
                "qlhs" => Dialect::Qlhs,
                "qlf+" => Dialect::QlfPlus,
                other => return Err(bad(format!("unknown dialect {other:?}"))),
            };
            if declared != db.dialect() {
                return Err(bad(format!(
                    "dialect {name:?} does not match the database kind (expected {:?})",
                    db.dialect().name()
                )));
            }
        }
        let (tenant, fuel, no_cache) = decode_knobs(body)?;
        Ok(QueryRequest {
            tenant,
            program,
            db,
            fuel,
            no_cache,
        })
    }
}

/// The scheduling knobs `/v1/query` and `/v1/ra` share: the tenant
/// label (default `"anonymous"`), the requested fuel, and `no_cache`.
fn decode_knobs(body: &Json) -> Result<(String, Option<u64>, bool), BadRequest> {
    let fuel = match body.get("fuel") {
        None => None,
        Some(f) => Some(
            f.as_u64()
                .ok_or_else(|| bad("field \"fuel\" must be an integer"))?,
        ),
    };
    let no_cache = match body.get("no_cache") {
        None => false,
        Some(b) => b
            .as_bool()
            .ok_or_else(|| bad("field \"no_cache\" must be a boolean"))?,
    };
    let tenant = body.get("tenant").and_then(Json::as_str);
    Ok((tenant.unwrap_or("anonymous").to_string(), fuel, no_cache))
}

/// Decodes a `db` object into a validated [`DbSpec`].
pub fn decode_db(j: &Json) -> Result<DbSpec, BadRequest> {
    let kind = str_field(j, "kind")?;
    match kind.as_str() {
        "finite" => decode_finite(j).map(DbSpec::Finite),
        "family" => {
            let name = str_field(j, "name")?;
            if !is_family(&name) {
                return Err(bad(format!("unknown catalog family {name:?}")));
            }
            Ok(DbSpec::Family(name))
        }
        "cells" => decode_cells(j).map(DbSpec::Cells),
        "fcf" => decode_fcf(j).map(DbSpec::Fcf),
        other => Err(bad(format!("unknown db kind {other:?}"))),
    }
}

/// Decodes and validates a finite structure — every check
/// `FiniteStructure::new` would enforce by panicking is performed here
/// first, so untrusted input can never panic a worker.
pub fn decode_finite(j: &Json) -> Result<FiniteStructure, BadRequest> {
    let universe = u64_array(field(j, "universe")?, "\"universe\"")?;
    let uset: BTreeSet<u64> = universe.iter().copied().collect();
    let rels = field(j, "relations")?
        .as_arr()
        .ok_or_else(|| bad("field \"relations\" must be an array"))?;
    let mut arities = Vec::with_capacity(rels.len());
    let mut relations = Vec::with_capacity(rels.len());
    for (i, r) in rels.iter().enumerate() {
        let arity = field(r, "arity")?
            .as_u64()
            .ok_or_else(|| bad("relation arity must be an integer"))? as usize;
        if arity > 8 {
            return Err(bad(format!(
                "relation {i}: arity {arity} exceeds the limit of 8"
            )));
        }
        let tuples = tuple_array(field(r, "tuples")?, "relation tuples")?;
        let mut set: BTreeSet<Tuple> = BTreeSet::new();
        for t in tuples {
            if t.rank() != arity {
                return Err(bad(format!(
                    "relation {i}: tuple of rank {} in a relation of arity {arity}",
                    t.rank()
                )));
            }
            if let Some(e) = t.elems().iter().find(|e| !uset.contains(&e.value())) {
                return Err(bad(format!(
                    "relation {i}: tuple mentions {e} outside the universe"
                )));
            }
            set.insert(t);
        }
        arities.push(arity);
        relations.push(set);
    }
    Ok(FiniteStructure::new(
        Schema::new(arities),
        universe.into_iter().map(Elem),
        relations,
    ))
}

fn decode_cells(j: &Json) -> Result<Vec<CellSize>, BadRequest> {
    let arr = field(j, "cells")?
        .as_arr()
        .ok_or_else(|| bad("field \"cells\" must be an array"))?;
    let mut seen: BTreeSet<u64> = BTreeSet::new();
    let mut cells = Vec::with_capacity(arr.len());
    for c in arr {
        match c {
            Json::Str(s) if s == "inf" => cells.push(CellSize::Infinite),
            Json::Arr(_) => {
                let vals = u64_array(c, "a finite cell")?;
                for &v in &vals {
                    if !seen.insert(v) {
                        return Err(bad(format!("element {v} appears in two finite cells")));
                    }
                }
                cells.push(CellSize::Finite(vals));
            }
            _ => return Err(bad("cells must be integer arrays or \"inf\"")),
        }
    }
    if cells.is_empty() {
        return Err(bad("a cells database needs at least one cell"));
    }
    Ok(cells)
}

fn decode_fcf(j: &Json) -> Result<FcfDatabase, BadRequest> {
    let arr = field(j, "relations")?
        .as_arr()
        .ok_or_else(|| bad("field \"relations\" must be an array"))?;
    let mut rels = Vec::with_capacity(arr.len());
    for (i, r) in arr.iter().enumerate() {
        let (inner, cofinite) = match (r.get("finite"), r.get("cofinite")) {
            (Some(x), None) => (x, false),
            (None, Some(x)) => (x, true),
            _ => {
                return Err(bad(format!(
                    "fcf relation {i} must have exactly one of \"finite\"/\"cofinite\""
                )))
            }
        };
        let arity = field(inner, "arity")?
            .as_u64()
            .ok_or_else(|| bad("relation arity must be an integer"))? as usize;
        if arity > 8 {
            return Err(bad(format!(
                "relation {i}: arity {arity} exceeds the limit of 8"
            )));
        }
        let key = if cofinite { "exceptions" } else { "tuples" };
        let tuples = tuple_array(field(inner, key)?, key)?;
        if let Some(t) = tuples.iter().find(|t| t.rank() != arity) {
            return Err(bad(format!(
                "relation {i}: tuple of rank {} in a relation of arity {arity}",
                t.rank()
            )));
        }
        rels.push(if cofinite {
            FcfRel::CoFinite(CoFiniteRelation::new(arity, tuples))
        } else {
            FcfRel::Finite(recdb_core::FiniteRelation::new(arity, tuples))
        });
    }
    Ok(FcfDatabase::new("wire", rels))
}

/// Builds the `HsDatabase` a QLhs-kind spec denotes. `None` only for
/// non-QLhs specs.
pub fn build_hs(db: &DbSpec) -> Option<HsDatabase> {
    match db {
        DbSpec::Family(name) => family(name),
        DbSpec::Cells(cells) => Some(unary_cells(cells.clone())),
        _ => None,
    }
}

/// Renders a finite-relation value deterministically:
/// `{"rank":r,"tuples":[[…],…]}` (tuples in lexicographic order,
/// the order a `BTreeSet<Tuple>` iterates in).
pub fn result_json(v: &Val) -> String {
    let mut s = format!("{{\"rank\":{},\"tuples\":[", v.rank);
    for (i, t) in v.tuples.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        push_tuple_json(&mut s, &t);
    }
    s.push_str("]}");
    s
}

/// Renders an fcf value deterministically: `finite` says whether
/// `tuples` is the relation itself or its complement.
pub fn fcf_result_json(v: &FcfVal) -> String {
    let mut s = format!("{{\"finite\":{},\"rank\":{},\"tuples\":[", v.finite, v.rank);
    for (i, t) in v.tuples.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        push_tuple_json(&mut s, &t);
    }
    s.push_str("]}");
    s
}

fn push_tuple_json(s: &mut String, t: &[Elem]) {
    s.push('[');
    for (i, e) in t.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&e.value().to_string());
    }
    s.push(']');
}

/// One `/v1/ra` request: a relational-algebra query, compiled to a
/// straight-line QLhs program server-side and then executed exactly
/// like a `/v1/query` program (same admission, same cache).
#[derive(Clone, Debug)]
pub struct RaRequest {
    /// Opaque tenant label (metrics/log dimension only).
    pub tenant: String,
    /// The RA program, in `recdb-ra` concrete syntax.
    pub query: String,
    /// The named-attribute schema, compact form `R(a, b); S(b, c)`.
    pub schema: String,
    /// The finite slice to run against. RA's active-domain semantics
    /// needs a materialized universe, so only `kind:"finite"`.
    pub db: FiniteStructure,
    /// Requested fuel budget (clamped to the server's maximum).
    pub fuel: Option<u64>,
    /// Opt out of the result cache for this request.
    pub no_cache: bool,
}

impl RaRequest {
    /// Decodes and validates a request body.
    pub fn decode(body: &Json) -> Result<Self, BadRequest> {
        let query = str_field(body, "query")?;
        let schema = str_field(body, "schema")?;
        let dbj = field(body, "db")?;
        let db = match decode_db(dbj)? {
            DbSpec::Finite(st) => st,
            _ => return Err(bad("/v1/ra runs over finite slices only")),
        };
        let (tenant, fuel, no_cache) = decode_knobs(body)?;
        Ok(RaRequest {
            tenant,
            query,
            schema,
            db,
            fuel,
            no_cache,
        })
    }
}

/// One `/v1/formula` request: an L⁻ query against a finite slice, plus
/// the tuples whose membership is asked.
#[derive(Clone, Debug)]
pub struct FormulaRequest {
    /// The L⁻ source text.
    pub formula: String,
    /// The finite structure to evaluate on.
    pub db: FiniteStructure,
    /// Tuples to test for membership.
    pub tuples: Vec<Tuple>,
}

impl FormulaRequest {
    /// Decodes and validates a formula request body.
    pub fn decode(body: &Json) -> Result<Self, BadRequest> {
        let db_field = field(body, "db")?;
        let db = match decode_db(db_field)? {
            DbSpec::Finite(st) => st,
            _ => return Err(bad("formula evaluation requires a finite db")),
        };
        Ok(FormulaRequest {
            formula: str_field(body, "formula")?,
            db,
            tuples: tuple_array(field(body, "tuples")?, "\"tuples\"")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    fn decode_query(src: &str) -> Result<QueryRequest, BadRequest> {
        QueryRequest::decode(&parse(src).unwrap())
    }

    #[test]
    fn finite_requests_decode() {
        let req = decode_query(
            r#"{"program":"Y1 := R1;","db":{"kind":"finite","universe":[0,1,2],
                "relations":[{"arity":2,"tuples":[[0,1],[1,2]]}]},"fuel":500}"#,
        )
        .unwrap();
        assert_eq!(req.db.dialect(), Dialect::Ql);
        assert_eq!(req.fuel, Some(500));
        assert_eq!(req.tenant, "anonymous");
        match &req.db {
            DbSpec::Finite(st) => assert_eq!(st.size(), 3),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn bad_tuples_are_protocol_errors_not_panics() {
        for (label, src) in [
            (
                "outside universe",
                r#"{"kind":"finite","universe":[0,1],"relations":[{"arity":2,"tuples":[[0,9]]}]}"#,
            ),
            (
                "rank mismatch",
                r#"{"kind":"finite","universe":[0,1],"relations":[{"arity":2,"tuples":[[0]]}]}"#,
            ),
            (
                "overlapping cells",
                r#"{"kind":"cells","cells":[[0,1],[1,2]]}"#,
            ),
            ("unknown family", r#"{"kind":"family","name":"nope"}"#),
            ("unknown kind", r#"{"kind":"blob"}"#),
        ] {
            assert!(decode_db(&parse(src).unwrap()).is_err(), "{label}");
        }
    }

    #[test]
    fn dialect_must_match_db_kind() {
        let err = decode_query(
            r#"{"program":"Y1 := E;","dialect":"qlhs",
               "db":{"kind":"finite","universe":[0],"relations":[]}}"#,
        );
        assert!(err.is_err());
    }

    #[test]
    fn descriptors_are_canonical() {
        let a = decode_db(
            &parse(r#"{"kind":"finite","universe":[1,0],"relations":[{"arity":1,"tuples":[[1],[0]]}]}"#)
                .unwrap(),
        )
        .unwrap();
        let b = decode_db(
            &parse(r#"{"kind":"finite","universe":[0,1],"relations":[{"arity":1,"tuples":[[0],[1]]}]}"#)
                .unwrap(),
        )
        .unwrap();
        assert_eq!(a.descriptor(), b.descriptor());
    }

    #[test]
    fn result_rendering_is_sorted_and_stable() {
        let v = Val {
            rank: 2,
            tuples: [Tuple::from_values([1, 0]), Tuple::from_values([0, 1])]
                .into_iter()
                .collect(),
        };
        assert_eq!(result_json(&v), r#"{"rank":2,"tuples":[[0,1],[1,0]]}"#);
    }

    /// Golden bytes: rows render in `BTreeSet<Tuple>` order whatever
    /// order and repeats the value was built from.
    #[test]
    fn result_json_golden_bytes() {
        let rows = [
            [2u64, 0, 1],
            [0, 1, 2],
            [0, 1, 1],
            [10, 2, 3],
            [2, 0, 1],
            [0, 10, 0],
            [7, 7, 7],
        ];
        let v = Val::new(3, rows.map(Tuple::from_values));
        assert_eq!(
            result_json(&v),
            r#"{"rank":3,"tuples":[[0,1,1],[0,1,2],[0,10,0],[2,0,1],[7,7,7],[10,2,3]]}"#
        );
        assert_eq!(
            result_json(&Val::new(0, [Tuple::empty()])),
            r#"{"rank":0,"tuples":[[]]}"#
        );
        assert_eq!(result_json(&Val::empty(0)), r#"{"rank":0,"tuples":[]}"#);
    }

    #[test]
    fn fcf_specs_decode_both_parts() {
        let db = decode_db(
            &parse(
                r#"{"kind":"fcf","relations":[
                    {"finite":{"arity":1,"tuples":[[3]]}},
                    {"cofinite":{"arity":2,"exceptions":[[1,1]]}}]}"#,
            )
            .unwrap(),
        )
        .unwrap();
        assert_eq!(db.dialect(), Dialect::QlfPlus);
        assert!(db.descriptor().contains("cof/2"));
    }
}
