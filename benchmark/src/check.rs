//! Output checks made apart from the optimizer: co-simulation with the
//! two-valued whole-module simulator, known answers for the miters, and
//! single-cell mutants that the equivalence checker must reject.

use crate::inputs::KnownAnswer;
use crate::rng::SplitMix64;
use smartly_netlist::{CellKind, Module, Port};
use smartly_sim::{compile, BitSim, Program};
use std::collections::HashMap;

/// Lanes per simulation pass: every pass applies 64 random vectors.
const LANES: usize = 64;

/// Port names with their widths, sorted by name.
type Ports = Vec<(String, usize)>;

/// A program's input and output ports.
fn ports(prog: &Program) -> (Ports, Ports) {
    let own = |it: &mut dyn Iterator<Item = (&str, usize)>| -> Ports {
        let mut v: Ports = it.map(|(n, w)| (n.to_string(), w)).collect();
        v.sort();
        v
    };
    (own(&mut prog.inputs()), own(&mut prog.outputs()))
}

/// Drives `gold` and `gate` with the same seeded random inputs for
/// `cycles` clock cycles, starting from all-zero registers, and compares
/// every output bit in every cycle before the clock edge.
///
/// # Errors
///
/// Names the first differing output bit and cycle, or the interface
/// mismatch that makes the two netlists incomparable.
pub fn cosim(gold: &Module, gate: &Module, seed: u64, cycles: usize) -> Result<(), String> {
    let pg = compile(gold).map_err(|e| format!("cannot simulate {}: {e}", gold.name))?;
    let pt = compile(gate).map_err(|e| format!("cannot simulate {}: {e}", gate.name))?;
    let (inputs, outputs) = ports(&pg);
    if ports(&pt) != (inputs.clone(), outputs.clone()) {
        return Err(format!("{}: ports differ after optimization", gold.name));
    }
    let mut a = BitSim::new(&pg);
    let mut b = BitSim::new(&pt);
    a.set_lanes(LANES);
    b.set_lanes(LANES);
    let mut rng = SplitMix64::new(seed);
    for cycle in 0..cycles {
        for (name, width) in &inputs {
            for bit in 0..*width {
                let plane = rng.next_u64();
                a.set_input_plane(name, bit, plane);
                b.set_input_plane(name, bit, plane);
            }
        }
        a.eval_comb();
        b.eval_comb();
        for (name, width) in &outputs {
            for bit in 0..*width {
                let diff = a.output_plane(name, bit) ^ b.output_plane(name, bit);
                if diff != 0 {
                    return Err(format!(
                        "{}: output {name}[{bit}] differs in cycle {cycle} on {} of {LANES} vectors",
                        gold.name,
                        diff.count_ones()
                    ));
                }
            }
        }
        a.tick();
        b.tick();
    }
    Ok(())
}

/// Checks that every miter mux passes its true-branch data through:
/// `y == p` on `passes` x 64 random operand vectors.
///
/// # Errors
///
/// Names the first output that disagrees with its known answer.
pub fn known_answers(
    module: &Module,
    known: &[KnownAnswer],
    seed: u64,
    passes: usize,
) -> Result<(), String> {
    let prog = compile(module).map_err(|e| format!("cannot simulate {}: {e}", module.name))?;
    let (inputs, _) = ports(&prog);
    let mut sim = BitSim::new(&prog);
    sim.set_lanes(LANES);
    let mut rng = SplitMix64::new(seed);
    for pass in 0..passes {
        let mut planes: HashMap<&str, Vec<u64>> = HashMap::new();
        for (name, width) in &inputs {
            let v: Vec<u64> = (0..*width).map(|_| rng.next_u64()).collect();
            for (bit, &plane) in v.iter().enumerate() {
                sim.set_input_plane(name, bit, plane);
            }
            planes.insert(name, v);
        }
        sim.eval_comb();
        for k in known {
            let expect = &planes[k.p.as_str()];
            for (bit, &plane) in expect.iter().enumerate() {
                if sim.output_plane(&k.y, bit) != plane {
                    return Err(format!(
                        "{}: {} differs from its known answer {} (bit {bit}, pass {pass})",
                        module.name, k.y, k.p
                    ));
                }
            }
        }
    }
    Ok(())
}

/// The kind a mutant swaps `kind` for: each pair computes a different
/// function on the same port widths.
fn swapped(kind: CellKind) -> Option<CellKind> {
    use CellKind::*;
    Some(match kind {
        And => Or,
        Or => And,
        Xor => Xnor,
        Xnor => Xor,
        Eq => Ne,
        Ne => Eq,
        Lt => Ge,
        Ge => Lt,
        Le => Gt,
        Gt => Le,
        Add => Sub,
        Sub => Add,
        LogicAnd => LogicOr,
        LogicOr => LogicAnd,
        ReduceAnd => ReduceOr,
        ReduceOr => ReduceAnd,
        _ => return None,
    })
}

/// A copy of `module` with one seeded cell changed: a swapped operator,
/// or a mux with its data inputs exchanged. `None` when no cell can be
/// mutated.
pub fn mutant(module: &Module, rng: &mut SplitMix64) -> Option<(Module, String)> {
    let mut ids = module.cell_ids();
    rng.shuffle(&mut ids);
    let id = ids.into_iter().find(|&id| {
        module
            .cell(id)
            .is_some_and(|c| c.kind == CellKind::Mux || swapped(c.kind).is_some())
    })?;
    let mut m = module.clone();
    let cell = m.cell_mut(id)?;
    let what = match swapped(cell.kind) {
        Some(kind) => {
            let what = format!("{} {} -> {}", cell.name, cell.kind.name(), kind.name());
            cell.kind = kind;
            what
        }
        None => {
            let (a, b) = (cell.port(Port::A)?.clone(), cell.port(Port::B)?.clone());
            cell.set_port(Port::A, b);
            cell.set_port(Port::B, a);
            format!("{} mux data swapped", cell.name)
        }
    };
    Some((m, what))
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartly_netlist::SigSpec;

    fn and_or(m: &mut Module) -> SigSpec {
        let a = m.add_input("a", 4);
        let b = m.add_input("b", 4);
        let c = m.add_input("c", 4);
        let ab = m.and(&a, &b);
        m.or(&ab, &c)
    }

    fn combinational() -> Module {
        let mut m = Module::new("comb");
        let y = and_or(&mut m);
        m.add_output("y", &y);
        m
    }

    /// `y` is `a & b | c` delayed by two registers, so a fault in the
    /// logic shows only from the third cycle on.
    fn pipelined() -> Module {
        let mut m = Module::new("pipe");
        let clk = m.add_input("clk", 1);
        let y = and_or(&mut m);
        let r1 = m.dff(&clk, &y);
        let r2 = m.dff(&clk, &r1);
        m.add_output("y", &r2);
        m
    }

    fn corrupt(m: &Module, kind: CellKind) -> Module {
        let mut bad = m.clone();
        let id = bad
            .cell_ids()
            .into_iter()
            .find(|&id| bad.cell(id).is_some_and(|c| c.kind == kind))
            .expect("cell of that kind");
        bad.cell_mut(id).expect("live cell").kind = CellKind::Xor;
        bad
    }

    #[test]
    fn cosim_accepts_identical_netlists() {
        for m in [combinational(), pipelined()] {
            assert_eq!(cosim(&m, &m.clone(), 7, 4), Ok(()));
        }
    }

    #[test]
    fn cosim_rejects_a_corrupted_netlist() {
        let m = combinational();
        let err = cosim(&m, &corrupt(&m, CellKind::And), 7, 1).unwrap_err();
        assert!(err.contains("output y["), "{err}");
    }

    #[test]
    fn cosim_follows_registers_cycle_by_cycle() {
        let m = pipelined();
        let bad = corrupt(&m, CellKind::Or);
        // the fault needs two clock edges to reach the output
        assert_eq!(cosim(&m, &bad, 7, 2), Ok(()));
        let err = cosim(&m, &bad, 7, 3).unwrap_err();
        assert!(err.contains("cycle 2"), "{err}");
    }

    #[test]
    fn cosim_rejects_a_changed_interface() {
        let m = combinational();
        let mut other = combinational();
        let z = other.add_input("z", 1);
        other.add_output("z_out", &z);
        assert!(cosim(&m, &other, 7, 1).is_err());
    }

    #[test]
    fn known_answers_hold_for_miters_and_catch_swapped_data() {
        let mut m = Module::new("miter");
        let a = m.add_input("a0", 12);
        let b = m.add_input("b0", 12);
        let p = m.add_input("p0", 8);
        let q = m.add_input("q0", 8);
        let s = m.add(&a, &b);
        let t = m.sub(&s, &b);
        let sel = m.eq(&t, &a);
        let y = m.mux(&q, &p, &sel);
        m.add_output("y0", &y);
        let known = vec![KnownAnswer {
            y: "y0".into(),
            p: "p0".into(),
        }];
        assert_eq!(known_answers(&m, &known, 3, 4), Ok(()));
        let wrong = vec![KnownAnswer {
            y: "y0".into(),
            p: "q0".into(),
        }];
        assert!(known_answers(&m, &wrong, 3, 4).is_err());
    }

    #[test]
    fn mutants_change_one_cell_and_cosim_sees_it() {
        let m = combinational();
        let mut rng = SplitMix64::new(11);
        let (bad, what) = mutant(&m, &mut rng).expect("mutable cell");
        let changed = m
            .cell_ids()
            .into_iter()
            .filter(|&id| m.cell(id).map(|c| c.kind) != bad.cell(id).map(|c| c.kind))
            .count();
        assert_eq!(changed, 1, "{what}");
        assert!(cosim(&m, &bad, 5, 1).is_err(), "{what}");
    }
}
