//! The flat register bytecode (DESIGN.md §12).
//!
//! One instruction per QL term operator, plus the loop-control and
//! accounting instructions the scheduled executor needs. Every value
//! instruction carries a `ticks` field: the statically-counted fuel
//! (term- and statement-entry ticks of the tree-walking interpreters)
//! consumed *before* the operation runs, so a VM run drains fuel at
//! exactly the tree-walkers' observable positions — data-dependent
//! fuel (`¬` inserts, `↑` extensions) is still charged inside the
//! backend ops themselves.
//!
//! Fields are public on purpose: the conformance ledger's `VM-VERIFY`
//! check mutates instruction streams directly and demands that the
//! verifier reject (or prove harmless) every single-instruction
//! mutation.

use recdb_qlhs::{LoopKind, NodePath};
use std::fmt;

/// One bytecode instruction. `dst`/`src`/`a`/`b` are frame registers;
/// registers `0..nvars` are the program variables' home slots
/// (`reg 0` = `Y1`, the result), the rest are rank-typed temporaries.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Inst {
    /// `dst ← E` (the diagonal).
    E {
        /// Destination register.
        dst: usize,
        /// Static fuel consumed before the op.
        ticks: u32,
    },
    /// `dst ← Rᵢ` (0-based schema index).
    Rel {
        /// Destination register.
        dst: usize,
        /// 0-based schema relation index.
        rel: usize,
        /// Static fuel consumed before the op.
        ticks: u32,
    },
    /// `dst ← {(c)}`.
    Const {
        /// Destination register.
        dst: usize,
        /// The constant element.
        val: u64,
        /// Static fuel consumed before the op.
        ticks: u32,
    },
    /// `dst ← src` (a `Yᵥ := Yw` assignment root).
    Copy {
        /// Destination register.
        dst: usize,
        /// Source register.
        src: usize,
        /// Static fuel consumed before the op.
        ticks: u32,
    },
    /// `dst ← a ∩ b`.
    And {
        /// Destination register.
        dst: usize,
        /// Left operand register.
        a: usize,
        /// Right operand register.
        b: usize,
        /// Static fuel consumed before the op.
        ticks: u32,
    },
    /// `dst ← ¬src`.
    Not {
        /// Destination register.
        dst: usize,
        /// Operand register.
        src: usize,
        /// Static fuel consumed before the op.
        ticks: u32,
    },
    /// `dst ← ↑src`.
    Up {
        /// Destination register.
        dst: usize,
        /// Operand register.
        src: usize,
        /// Static fuel consumed before the op.
        ticks: u32,
    },
    /// `dst ← ↓src`.
    Down {
        /// Destination register.
        dst: usize,
        /// Operand register.
        src: usize,
        /// Static fuel consumed before the op.
        ticks: u32,
    },
    /// `dst ← swap(src)`.
    Swap {
        /// Destination register.
        dst: usize,
        /// Operand register.
        src: usize,
        /// Static fuel consumed before the op.
        ticks: u32,
    },
    /// Work accounting for the just-completed assignment whose value
    /// landed in `src` — the scheduled executor adds the stored size
    /// to the observed work and enforces the work cap; a no-op in
    /// plain (fuel-only) mode.
    Commit {
        /// Register holding the just-assigned value.
        src: usize,
    },
    /// Consume `ticks` fuel and fall through. Emitted to flush
    /// trailing static ticks (empty loop bodies, eliminated dead
    /// stores) at block boundaries.
    Nop {
        /// Static fuel consumed.
        ticks: u32,
    },
    /// Loop entry: zero the loop's per-entry iteration counter.
    Enter {
        /// Index into [`VmProg::loops`].
        loop_id: usize,
        /// Static fuel consumed (the `while` node's entry tick plus
        /// any pending ticks).
        ticks: u32,
    },
    /// Loop head: evaluate the guard on `var`'s home register
    /// (fuel-free, as in the tree-walkers); jump to `exit` when the
    /// guard says stop. The fall-through path is one iteration event
    /// for the run's schedule (under the budget schedule: preemption,
    /// the proved per-loop bound, and the total iteration budget).
    Guard {
        /// Index into [`VmProg::loops`].
        loop_id: usize,
        /// The guard variable's home register.
        var: usize,
        /// Which predicate to evaluate.
        kind: LoopKind,
        /// Jump target when the guard stops the loop.
        exit: usize,
    },
    /// Unconditional backedge to the loop's `Guard`, consuming the
    /// body's trailing static ticks first.
    Back {
        /// Jump target (the `Guard` instruction's index).
        to: usize,
        /// Static fuel consumed before the jump.
        ticks: u32,
    },
    /// Reached only if a loop iterates past its statically proved
    /// bound — a prover-soundness violation surfaced as an internal
    /// error (scheduled mode reports `BoundExceeded` at the preceding
    /// `Guard` first whenever the bound is in the budget).
    Trap {
        /// Index into [`VmProg::loops`].
        loop_id: usize,
    },
    /// Program end: consume trailing static ticks and return `r0`.
    Halt {
        /// Static fuel consumed.
        ticks: u32,
    },
}

/// Static metadata for one lowered loop.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LoopMeta {
    /// The `while` node's tree path — the key the scheduled budget's
    /// per-loop bounds are looked up under.
    pub path: NodePath,
    /// `Some(b)` when the loop was unrolled against a proved bound of
    /// `b` iterations (`b + 1` guards, then a trap); `None` for a
    /// guard/backedge loop.
    pub peeled: Option<u64>,
}

/// A compiled program: a flat instruction stream over a frame whose
/// size is a compile-time constant.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VmProg {
    /// The instruction stream; entry is index 0.
    pub code: Vec<Inst>,
    /// Home registers `0..nvars` (`max_var + 1`, min 1 — the counted
    /// executor's env sizing).
    pub nvars: usize,
    /// Total frame size: homes plus rank-typed temporaries.
    pub frame: usize,
    /// Loop table, indexed by the `loop_id` fields.
    pub loops: Vec<LoopMeta>,
}

impl Inst {
    /// The register this instruction writes, if any.
    pub fn dst(&self) -> Option<usize> {
        match self {
            Inst::E { dst, .. }
            | Inst::Rel { dst, .. }
            | Inst::Const { dst, .. }
            | Inst::Copy { dst, .. }
            | Inst::And { dst, .. }
            | Inst::Not { dst, .. }
            | Inst::Up { dst, .. }
            | Inst::Down { dst, .. }
            | Inst::Swap { dst, .. } => Some(*dst),
            _ => None,
        }
    }
}

impl fmt::Display for Inst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Inst::E { dst, ticks } => write!(f, "e r{dst} t{ticks}"),
            Inst::Rel { dst, rel, ticks } => write!(f, "rel r{dst} #{rel} t{ticks}"),
            Inst::Const { dst, val, ticks } => write!(f, "const r{dst} ={val} t{ticks}"),
            Inst::Copy { dst, src, ticks } => write!(f, "copy r{dst} r{src} t{ticks}"),
            Inst::And { dst, a, b, ticks } => write!(f, "and r{dst} r{a} r{b} t{ticks}"),
            Inst::Not { dst, src, ticks } => write!(f, "not r{dst} r{src} t{ticks}"),
            Inst::Up { dst, src, ticks } => write!(f, "up r{dst} r{src} t{ticks}"),
            Inst::Down { dst, src, ticks } => write!(f, "down r{dst} r{src} t{ticks}"),
            Inst::Swap { dst, src, ticks } => write!(f, "swap r{dst} r{src} t{ticks}"),
            Inst::Commit { src } => write!(f, "commit r{src}"),
            Inst::Nop { ticks } => write!(f, "nop t{ticks}"),
            Inst::Enter { loop_id, ticks } => write!(f, "enter L{loop_id} t{ticks}"),
            Inst::Guard {
                loop_id,
                var,
                kind,
                exit,
            } => write!(f, "guard L{loop_id} r{var} {} @{exit}", kind.keyword()),
            Inst::Back { to, ticks } => write!(f, "back @{to} t{ticks}"),
            Inst::Trap { loop_id } => write!(f, "trap L{loop_id}"),
            Inst::Halt { ticks } => write!(f, "halt t{ticks}"),
        }
    }
}

impl fmt::Display for VmProg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "recdb-vm/v1")?;
        writeln!(f, "nvars {}", self.nvars)?;
        writeln!(f, "frame {}", self.frame)?;
        for (i, l) in self.loops.iter().enumerate() {
            let path = if l.path.is_empty() {
                "-".to_string()
            } else {
                l.path
                    .iter()
                    .map(u32::to_string)
                    .collect::<Vec<_>>()
                    .join(".")
            };
            match l.peeled {
                Some(b) => writeln!(f, "loop L{i} path {path} peeled {b}")?,
                None => writeln!(f, "loop L{i} path {path} peeled -")?,
            }
        }
        for (i, inst) in self.code.iter().enumerate() {
            writeln!(f, "{i:4}: {inst}")?;
        }
        Ok(())
    }
}

impl VmProg {
    /// The textual dump — the disassembly, which [`VmProg::parse_dump`]
    /// round-trips.
    pub fn dump(&self) -> String {
        self.to_string()
    }

    /// Parses a [`VmProg::dump`]. Syntactic only: a parsed program
    /// still has to pass the verifier before anything executes it.
    pub fn parse_dump(text: &str) -> Result<VmProg, String> {
        let mut nvars = None;
        let mut frame = None;
        let mut loops = Vec::new();
        let mut code = Vec::new();
        let mut saw_magic = false;
        for (ln, raw) in text.lines().enumerate() {
            let line = raw.trim();
            let err = |m: &str| format!("line {}: {m}", ln + 1);
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if !saw_magic {
                if line != "recdb-vm/v1" {
                    return Err(err("expected header `recdb-vm/v1`"));
                }
                saw_magic = true;
                continue;
            }
            let words: Vec<&str> = line.split_whitespace().collect();
            match words.as_slice() {
                ["nvars", n] => nvars = Some(n.parse().map_err(|_| err("bad nvars"))?),
                ["frame", n] => frame = Some(n.parse().map_err(|_| err("bad frame"))?),
                ["loop", l, "path", p, "peeled", b] => {
                    if strip(l, "L").and_then(|s| s.parse::<usize>().ok()) != Some(loops.len()) {
                        return Err(err("loop ids must be dense and in order"));
                    }
                    let path = if *p == "-" {
                        Vec::new()
                    } else {
                        p.split('.')
                            .map(|s| s.parse::<u32>().map_err(|_| err("bad loop path")))
                            .collect::<Result<_, _>>()?
                    };
                    let peeled = if *b == "-" {
                        None
                    } else {
                        Some(b.parse().map_err(|_| err("bad peel count"))?)
                    };
                    loops.push(LoopMeta { path, peeled });
                }
                [idx, rest @ ..] if idx.ends_with(':') => {
                    let i: usize = idx[..idx.len() - 1]
                        .parse()
                        .map_err(|_| err("bad instruction index"))?;
                    if i != code.len() {
                        return Err(err("instruction indices must be dense and in order"));
                    }
                    code.push(parse_inst(rest).map_err(|m| err(&m))?);
                }
                _ => return Err(err("unrecognized line")),
            }
        }
        Ok(VmProg {
            code,
            nvars: nvars.ok_or("missing nvars")?,
            frame: frame.ok_or("missing frame")?,
            loops,
        })
    }
}

fn strip<'a>(w: &'a str, prefix: &str) -> Option<&'a str> {
    w.strip_prefix(prefix)
}

fn num<T: std::str::FromStr>(w: &str, prefix: &str, what: &str) -> Result<T, String> {
    strip(w, prefix)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("expected {what}, got `{w}`"))
}

fn parse_inst(words: &[&str]) -> Result<Inst, String> {
    let reg = |w| num::<usize>(w, "r", "a register `rN`");
    let ticks = |w| num::<u32>(w, "t", "a tick count `tN`");
    let lid = |w| num::<usize>(w, "L", "a loop id `LN`");
    let tgt = |w| num::<usize>(w, "@", "a jump target `@N`");
    Ok(match words {
        ["e", d, t] => Inst::E {
            dst: reg(d)?,
            ticks: ticks(t)?,
        },
        ["rel", d, r, t] => Inst::Rel {
            dst: reg(d)?,
            rel: num::<usize>(r, "#", "a relation `#N`")?,
            ticks: ticks(t)?,
        },
        ["const", d, v, t] => Inst::Const {
            dst: reg(d)?,
            val: num::<u64>(v, "=", "a constant `=N`")?,
            ticks: ticks(t)?,
        },
        ["copy", d, s, t] => Inst::Copy {
            dst: reg(d)?,
            src: reg(s)?,
            ticks: ticks(t)?,
        },
        ["and", d, a, b, t] => Inst::And {
            dst: reg(d)?,
            a: reg(a)?,
            b: reg(b)?,
            ticks: ticks(t)?,
        },
        ["not", d, s, t] => Inst::Not {
            dst: reg(d)?,
            src: reg(s)?,
            ticks: ticks(t)?,
        },
        ["up", d, s, t] => Inst::Up {
            dst: reg(d)?,
            src: reg(s)?,
            ticks: ticks(t)?,
        },
        ["down", d, s, t] => Inst::Down {
            dst: reg(d)?,
            src: reg(s)?,
            ticks: ticks(t)?,
        },
        ["swap", d, s, t] => Inst::Swap {
            dst: reg(d)?,
            src: reg(s)?,
            ticks: ticks(t)?,
        },
        ["commit", s] => Inst::Commit { src: reg(s)? },
        ["nop", t] => Inst::Nop { ticks: ticks(t)? },
        ["enter", l, t] => Inst::Enter {
            loop_id: lid(l)?,
            ticks: ticks(t)?,
        },
        ["guard", l, v, k, x] => Inst::Guard {
            loop_id: lid(l)?,
            var: reg(v)?,
            kind: match *k {
                "empty" => LoopKind::Empty,
                "single" => LoopKind::Singleton,
                "finite" => LoopKind::Finite,
                other => return Err(format!("unknown guard kind `{other}`")),
            },
            exit: tgt(x)?,
        },
        ["back", to, t] => Inst::Back {
            to: tgt(to)?,
            ticks: ticks(t)?,
        },
        ["trap", l] => Inst::Trap { loop_id: lid(l)? },
        ["halt", t] => Inst::Halt { ticks: ticks(t)? },
        other => return Err(format!("unrecognized instruction `{}`", other.join(" "))),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dump_round_trips() {
        let prog = VmProg {
            code: vec![
                Inst::Enter {
                    loop_id: 0,
                    ticks: 2,
                },
                Inst::Guard {
                    loop_id: 0,
                    var: 1,
                    kind: LoopKind::Empty,
                    exit: 4,
                },
                Inst::E { dst: 0, ticks: 3 },
                Inst::Back { to: 1, ticks: 0 },
                Inst::Rel {
                    dst: 2,
                    rel: 1,
                    ticks: 1,
                },
                Inst::And {
                    dst: 0,
                    a: 0,
                    b: 2,
                    ticks: 0,
                },
                Inst::Commit { src: 0 },
                Inst::Halt { ticks: 0 },
            ],
            nvars: 2,
            frame: 3,
            loops: vec![LoopMeta {
                path: vec![1, 0],
                peeled: None,
            }],
        };
        let text = prog.dump();
        assert_eq!(VmProg::parse_dump(&text).unwrap(), prog);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(VmProg::parse_dump("not a dump").is_err());
        let bad = "recdb-vm/v1\nnvars 1\nframe 1\n0: warp r0 t0\n";
        assert!(VmProg::parse_dump(bad).unwrap_err().contains("line 4"));
        let sparse = "recdb-vm/v1\nnvars 1\nframe 1\n1: halt t0\n";
        assert!(VmProg::parse_dump(sparse).is_err());
    }
}
