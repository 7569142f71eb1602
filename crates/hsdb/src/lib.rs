//! # recdb-hsdb — highly symmetric recursive data bases (§3–§4)
//!
//! `B` is *highly symmetric* when, for each rank, only finitely many
//! tuples are pairwise non-interchangeable by automorphisms (Def 3.2).
//! Such databases admit a finite, effective representation
//! `C_B = (T_B, ≅_B, C₁,…,C_k)` (Def 3.7) on which the query languages
//! QLhs (Theorem 3.1) and GMhs (Theorem 5.1) are complete. This crate
//! provides:
//!
//! * [`tree`] — characteristic trees (Def 3.3) and path enumeration;
//! * [`rep`] — the `C_B` representation, `≅_B` oracles, validation;
//! * [`build`] — generic tree construction from candidate sources;
//! * [`constructions`] — concrete hs families: the infinite clique,
//!   unary cell databases, component graphs, the paper's worked
//!   example, and the not-highly-symmetric infinite line as a
//!   negative control;
//! * [`random`] — recursive countable random structures (Prop 3.2):
//!   the Rado graph and a random digraph with constructed
//!   extension-axiom witnesses;
//! * [`refine`] — the `Vⁿᵣ` refinement pipeline (Props 3.4–3.7,
//!   Corollaries 3.2/3.3) and `r₀` search, fingerprint-bucketed and
//!   (with the `parallel` feature) data-parallel;
//! * [`stretch`] — stretchings and the Prop 3.1 coloring technique;
//! * [`fcf`] — finite ∕ co-finite databases (§4), `Df` extraction.

#![warn(missing_docs)]

pub mod backforth;
pub mod build;
pub mod catalog;
pub mod constructions;
pub mod fcf;
mod par;
pub mod random;
pub mod refine;
pub mod rep;
pub mod stretch;
pub mod tree;

pub use backforth::{
    back_and_forth, combine, combine_hs, CombinedDb, PartialAutomorphism, COMBINED_A, COMBINED_B,
};
pub use build::{CandidateSource, DedupTree, FnCandidates, ScanCandidates};
pub use catalog::{catalog, deep_catalog, family, is_family, CatalogEntry, FamilyInfo};
pub use constructions::{
    assemble, infinite_clique, infinite_line_db, infinite_star, line_equiv, paper_example_graph,
    two_lines_db, unary_cells, CellSize, ComponentGraph, Coords,
};
pub use fcf::{df_from_tree, FcfDatabase, FcfRel};
pub use random::{
    digraph_witness, rado_graph, rado_witness, random_digraph, verify_digraph_extension,
    verify_rado_extension, DigraphPattern,
};
pub use refine::{
    all_singletons, equiv_r_tree, find_r0, partition_by_local_iso, partition_by_local_iso_pairwise,
    project_partition, v_n_r, v_n_r_over, IncrementalPartition, Partition, RefineError, TreeGame,
    VnrCache,
};
pub use rep::{EquivOracle, EquivRef, FnEquiv, HsDatabase};
pub use stretch::{count_rank1_classes, stretch_hsdb};
pub use tree::{is_node, level_sizes, paths_of_length, CharacteristicTree, FnTree, TreeRef};
