//! # recdb-core — recursive relational data bases
//!
//! Core types for the reproduction of **Hirst & Harel, "Completeness
//! Results for Recursive Data Bases"** (PODS '93 / JCSS 52, 1996).
//!
//! A *recursive data base* (r-db) is a finite tuple of computable —
//! possibly infinite — relations over a countably infinite recursive
//! domain (Def 2.1). This crate provides:
//!
//! * [`Elem`], [`Tuple`], [`Schema`], [`Domain`] — the vocabulary;
//! * [`RecursiveRelation`] and implementations ([`FiniteRelation`],
//!   [`CoFiniteRelation`], [`FnRelation`]) — membership oracles;
//! * [`Database`] — an r-db with audited oracle access (Def 2.4);
//! * [`locally_isomorphic`] — the decision procedure for `≅ₗ`
//!   (Prop 2.2), the decidable fragment of the Σ¹₁-complete
//!   isomorphism relation (Prop 2.1);
//! * [`AtomicType`] and class enumeration/counting — the finite-index
//!   equivalence classes `Cⁿ` of `≅ₗ`;
//! * [`Fingerprint`] and [`TupleInterner`] — hot-path machinery:
//!   hashable class digests for O(t) partition bucketing and dense
//!   `u32` tuple ids for partition, signature, and memo keys;
//! * [`ClassUnionQuery`] — the normal form of every computable r-query
//!   (Props 2.3–2.5);
//! * [`FiniteStructure`] — materialized finite structures with real
//!   isomorphism/automorphism search;
//! * genericity checkers and the paper's counterexamples
//!   ([`genericity`]);
//! * [`Fuel`] — explicit bounding of semi-decidable procedures.
//!
//! Sibling crates build the languages on top: `recdb-logic` (`L⁻`,
//! full FO, EF games), `recdb-turing` (oracle machines), `recdb-hsdb`
//! (highly symmetric databases), `recdb-qlhs` (QL/QLhs/QLf+),
//! `recdb-gm` (generic machines) and `recdb-bp` (BP-completeness).

#![warn(missing_docs)]

pub mod combinators;
mod database;
mod domain;
mod elem;
mod fin;
mod fingerprint;
mod fuel;
pub mod genericity;
mod intern;
mod lociso;
mod query;
mod relation;
pub mod rng;
pub mod sampling;
mod schema;
mod types;

pub use combinators::{complement, intersect, mapped, product, shared, union};
pub use database::{Database, DatabaseBuilder};
pub use domain::Domain;
pub use elem::{Elem, Tuple};
pub use fin::{permute, FiniteStructure};
pub use fingerprint::Fingerprint;
pub use fuel::{Fuel, FuelError};
pub use genericity::{amalgamate, find_local_genericity_violation, GenericityViolation};
pub use intern::{TupleId, TupleInterner};
pub use lociso::{index_vectors, locally_equivalent, locally_isomorphic};
pub use query::{ClassUnionQuery, QueryOutcome, RQuery};
pub use relation::{CoFiniteRelation, FiniteRelation, FnRelation, RecursiveRelation, RelationRef};
pub use rng::{fnv1a, SplitMix64};
pub use sampling::{genericity_disagreements, iso_pair_from_class, iso_pairs, IsoPair};
pub use schema::Schema;
pub use types::{
    count_classes, enumerate_classes, restricted_growth_strings, stirling2, AtomicType,
};
