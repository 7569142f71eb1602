//! §5 ledger check: generic machines compute the same relations as
//! QLhs programs (the Theorem 5.1 simulation, spot-checked on the
//! library machines).

use crate::ledger::{CheckCtx, CheckDef};
use recdb_core::Fuel;
use recdb_gm::{copy_machine, up_machine};
use recdb_hsdb::{infinite_clique, paper_example_graph, HsDatabase};
use recdb_qlhs::{parse_program, HsInterp};

fn qlhs_tuples(
    hs: &HsDatabase,
    src: &str,
) -> Result<std::collections::BTreeSet<recdb_core::Tuple>, String> {
    let prog = parse_program(src).map_err(|e| format!("{src}: {e:?}"))?;
    let v = HsInterp::new(hs)
        .run(&prog, &mut Fuel::new(5_000_000))
        .map_err(|e| format!("{src}: {e:?}"))?;
    Ok(v.tuples.iter().map(|t| t.to_tuple()).collect())
}

fn t5_1(ctx: &mut CheckCtx) -> Result<(), String> {
    for (name, hs) in [
        ("paper-example", paper_example_graph()),
        ("clique", infinite_clique()),
    ] {
        ctx.family(name);
        // GMhs load/store ≡ QLhs identity.
        let out = copy_machine(0, 1)
            .run(&hs, &mut Fuel::new(5_000_000))
            .map_err(|e| format!("{name}: copy machine: {e:?}"))?;
        let via_qlhs = qlhs_tuples(&hs, "Y1 := R1;")?;
        if out.store[1] != via_qlhs {
            return Err(format!("{name}: GMhs copy ≠ QLhs R1"));
        }
        // GMhs offspring exploration ≡ QLhs ↑.
        let out = up_machine(0, 1)
            .run(&hs, &mut Fuel::new(5_000_000))
            .map_err(|e| format!("{name}: up machine: {e:?}"))?;
        let via_qlhs = qlhs_tuples(&hs, "Y1 := up(R1);")?;
        if out.store[1] != via_qlhs {
            return Err(format!("{name}: GMhs offspring ≠ QLhs up(R1)"));
        }
    }
    Ok(())
}

/// The §5 row of the ledger.
pub fn defs() -> Vec<CheckDef> {
    vec![CheckDef {
        id: "T5.1",
        result: "Theorem 5.1",
        title: "GMhs machines compute their QLhs counterparts",
        run: t5_1,
    }]
}
