//! A documented catalog of the crate's highly symmetric families.
//!
//! Experiments, benches, and integration suites all iterate over "the
//! zoo"; this module is the single source of truth, carrying per-family
//! metadata that the callers otherwise hard-code: expected class counts
//! per rank (for validation) and the practical characteristic-tree
//! depth (the BIT-coded random structures are shallow-only).

use crate::constructions::{
    infinite_clique, infinite_star, paper_example_graph, unary_cells, CellSize,
};
use crate::random::{rado_graph, random_digraph};
use crate::rep::HsDatabase;

/// Metadata for one cataloged family.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FamilyInfo {
    /// Stable identifier used in bench/report labels.
    pub name: &'static str,
    /// One-line description referencing the paper.
    pub description: &'static str,
    /// Expected `|T¹|, |T²|, …` prefix (validation data).
    pub expected_levels: &'static [usize],
    /// Maximum tree depth that is practical to enumerate (`usize::MAX`
    /// for unbounded families; small for BIT-coded random structures).
    pub practical_depth: usize,
}

/// One catalog entry: the family and its metadata.
pub struct CatalogEntry {
    /// The constructed database representation.
    pub hs: HsDatabase,
    /// Its metadata.
    pub info: FamilyInfo,
}

/// The cataloged families: metadata and constructor, in catalog order.
/// Constructions are cheap (lazy oracles); the tree levels are only
/// materialized when callers enumerate them.
static FAMILIES: [(FamilyInfo, fn() -> HsDatabase); 6] = [
    (
        FamilyInfo {
            name: "clique",
            description: "the full infinite clique (§3.1) — class counts are Bell numbers",
            expected_levels: &[1, 2, 5, 15],
            practical_depth: usize::MAX,
        },
        infinite_clique,
    ),
    (
        FamilyInfo {
            name: "star",
            description: "hub + infinitely many leaves — two node orbits, bounded distances",
            expected_levels: &[2, 5],
            practical_depth: usize::MAX,
        },
        infinite_star,
    ),
    (
        FamilyInfo {
            name: "paper-example",
            description: "the §3.1 worked example: sym-pair and arrow components, two edge classes",
            expected_levels: &[3, 15],
            practical_depth: usize::MAX,
        },
        paper_example_graph,
    ),
    (
        FamilyInfo {
            name: "cells-2inf",
            description: "two infinite unary cells — every unary r-db is highly symmetric",
            expected_levels: &[2, 6, 22],
            practical_depth: usize::MAX,
        },
        || unary_cells(vec![CellSize::Infinite, CellSize::Infinite]),
    ),
    (
        FamilyInfo {
            name: "rado",
            description: "the Rado graph via BIT (Prop 3.2) — ≅_A = ≅ₗ",
            expected_levels: &[1, 3, 15],
            practical_depth: 3,
        },
        rado_graph,
    ),
    (
        FamilyInfo {
            name: "random-digraph",
            description: "random directed graph with loops (Prop 3.2), base-4 coding",
            expected_levels: &[2, 18],
            practical_depth: 2,
        },
        random_digraph,
    ),
];

/// Builds the full catalog.
pub fn catalog() -> Vec<CatalogEntry> {
    FAMILIES
        .iter()
        .map(|(info, build)| CatalogEntry {
            hs: build(),
            info: info.clone(),
        })
        .collect()
}

/// Builds the one family named `name`, or `None` for an unknown name.
pub fn family(name: &str) -> Option<HsDatabase> {
    FAMILIES
        .iter()
        .find(|(info, _)| info.name == name)
        .map(|(_, build)| build())
}

/// Whether `name` is a cataloged family (nothing is constructed).
pub fn is_family(name: &str) -> bool {
    FAMILIES.iter().any(|(info, _)| info.name == name)
}

/// The deep-tree subset (practical depth unbounded) — what experiments
/// needing ranks > 3 should iterate.
pub fn deep_catalog() -> Vec<CatalogEntry> {
    catalog()
        .into_iter()
        .filter(|e| e.info.practical_depth == usize::MAX)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::level_sizes;

    #[test]
    fn every_entry_matches_its_expected_levels() {
        for entry in catalog() {
            let depth = entry.info.expected_levels.len();
            let got = level_sizes(entry.hs.tree(), depth);
            assert_eq!(
                got, entry.info.expected_levels,
                "{}: level profile drifted",
                entry.info.name
            );
        }
    }

    #[test]
    fn every_entry_validates() {
        for entry in catalog() {
            let depth = entry.info.practical_depth.min(2);
            entry
                .hs
                .validate(depth)
                .unwrap_or_else(|e| panic!("{}: {e}", entry.info.name));
        }
    }

    #[test]
    fn names_are_unique() {
        let names: Vec<_> = catalog().iter().map(|e| e.info.name).collect();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(names.len(), dedup.len());
    }

    #[test]
    fn family_builds_the_named_entry() {
        for entry in catalog() {
            let hs = family(entry.info.name).expect("cataloged name resolves");
            let depth = entry.info.expected_levels.len();
            assert_eq!(
                level_sizes(hs.tree(), depth),
                entry.info.expected_levels,
                "{}",
                entry.info.name
            );
        }
        assert!(family("no-such-family").is_none());
        assert!(catalog().iter().all(|e| is_family(e.info.name)));
        assert!(!is_family("no-such-family"));
    }

    #[test]
    fn deep_catalog_excludes_random_structures() {
        let deep: Vec<_> = deep_catalog().iter().map(|e| e.info.name).collect();
        assert!(!deep.contains(&"rado"));
        assert!(!deep.contains(&"random-digraph"));
        assert!(deep.contains(&"clique"));
        assert_eq!(deep.len(), 4);
    }
}
