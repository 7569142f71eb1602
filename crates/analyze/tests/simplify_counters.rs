//! `simplify_prog_checked` reuses the safety walk's `W0106` rewrites
//! but, unlike `analyze_prog`, counts nothing: the diagnostics that
//! walk produces along the way are not findings anyone asked for.
//!
//! One test per binary: the metrics recorder is process-global.

use recdb_analyze::{analyze_prog, simplify_prog_checked};
use recdb_core::Schema;
use recdb_obs::InMemoryRecorder;
use recdb_qlhs::{parse_program, Dialect};

#[test]
fn simplification_bumps_no_counter() {
    let rec = InMemoryRecorder::shared();
    recdb_obs::install(rec.clone());
    let schema = Schema::new(vec![2]);
    // Two W0106 rewrites, with W0101 and W0104 on the way.
    let p = parse_program(
        "Y1 := swap(swap(R1)); while empty(Y1) { Y2 := !!Y3; } \
         while empty(Y4) { Y1 := E; }",
    )
    .unwrap();
    let s = simplify_prog_checked(&p, &schema);
    assert_ne!(s, p);
    assert!(
        rec.snapshot().counters.is_empty(),
        "{:?}",
        rec.snapshot().counters
    );
    analyze_prog(&p, &schema, Dialect::Ql);
    assert_eq!(rec.counter_value("analyze.programs"), 1);
    assert_eq!(rec.counter_value("analyze.diagnostics.W0106"), 2);
    recdb_obs::uninstall();
}
