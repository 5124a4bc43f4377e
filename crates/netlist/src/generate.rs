//! Circuit generators: random DAGs, bounded-depth AC⁰ circuits and
//! arithmetic benchmarks.

use crate::netlist::{GateKind, Net, Netlist};
use rand::seq::SliceRandom;
use rand::Rng;

/// Generates a random combinational DAG circuit.
///
/// Each gate picks a random 2-input kind (AND/OR/NAND/NOR/XOR/XNOR) and
/// two random existing nets, with a bias toward recent nets so the
/// circuit has meaningful depth. The outputs are the last
/// `num_outputs` gate nets.
///
/// # Panics
///
/// Panics if `num_inputs == 0`, `num_gates < num_outputs`, or
/// `num_outputs == 0`.
pub fn random_circuit<R: Rng + ?Sized>(
    num_inputs: usize,
    num_gates: usize,
    num_outputs: usize,
    rng: &mut R,
) -> Netlist {
    assert!(num_inputs > 0, "need at least one input");
    assert!(num_outputs > 0, "need at least one output");
    assert!(
        num_gates >= num_outputs,
        "need at least one gate per output"
    );
    let kinds = [
        GateKind::And,
        GateKind::Or,
        GateKind::Nand,
        GateKind::Nor,
        GateKind::Xor,
        GateKind::Xnor,
    ];
    let mut b = Netlist::builder(num_inputs, num_outputs);
    for _ in 0..num_gates {
        let avail = b.num_nets();
        // Bias input choice toward recent nets: pick from the top half
        // with probability 1/2.
        let pick = |rng: &mut R| -> Net {
            let idx = if avail > 2 && rng.gen_bool(0.5) {
                rng.gen_range(avail / 2..avail)
            } else {
                rng.gen_range(0..avail)
            };
            if idx < num_inputs {
                b_input(idx)
            } else {
                Net(idx as u32)
            }
        };
        let x = pick(rng);
        let y = pick(rng);
        let kind = *kinds.choose(rng).expect("non-empty kinds");
        b.gate(kind, vec![x, y]);
    }
    let total = b.num_nets();
    for o in 0..num_outputs {
        b.set_output(o, Net((total - num_outputs + o) as u32));
    }
    b.build()
}

/// Generates a random circuit over every [`GateKind`], for tests that
/// hold an evaluator or an encoder to [`GateKind::eval`]: AND, OR,
/// NAND, NOR, XOR and XNOR gates take 1–4 inputs, NOT and BUF one, MUX
/// three, each drawn uniformly from the existing nets with repeats
/// allowed. About one gate in seven feeds a single net to all of its
/// inputs, so constant cones (`XOR(a, a)`, `XNOR(a, a)`) turn up. The
/// outputs are the last `num_outputs` gate nets.
///
/// # Panics
///
/// Panics if `num_inputs == 0`, `num_gates < num_outputs`, or
/// `num_outputs == 0`.
pub fn every_kind_circuit<R: Rng + ?Sized>(
    num_inputs: usize,
    num_gates: usize,
    num_outputs: usize,
    rng: &mut R,
) -> Netlist {
    assert!(num_inputs > 0, "need at least one input");
    assert!(num_outputs > 0, "need at least one output");
    assert!(
        num_gates >= num_outputs,
        "need at least one gate per output"
    );
    const KINDS: [GateKind; 9] = [
        GateKind::And,
        GateKind::Or,
        GateKind::Nand,
        GateKind::Nor,
        GateKind::Xor,
        GateKind::Xnor,
        GateKind::Not,
        GateKind::Buf,
        GateKind::Mux,
    ];
    let mut b = Netlist::builder(num_inputs, num_outputs);
    for _ in 0..num_gates {
        let kind = KINDS[rng.gen_range(0..KINDS.len())];
        let arity = match kind {
            GateKind::Not | GateKind::Buf => 1,
            GateKind::Mux => 3,
            _ => rng.gen_range(1..=4),
        };
        let avail = b.num_nets() as u32;
        let same = rng.gen_bool(0.15);
        let first = rng.gen_range(0..avail);
        let inputs = (0..arity)
            .map(|_| Net(if same { first } else { rng.gen_range(0..avail) }))
            .collect();
        b.gate(kind, inputs);
    }
    let total = b.num_nets();
    for o in 0..num_outputs {
        b.set_output(o, Net((total - num_outputs + o) as u32));
    }
    b.build()
}

// Small helper: builder inputs are just the first nets.
fn b_input(i: usize) -> Net {
    Net(i as u32)
}

/// Generates a depth-`d` AC⁰-style circuit: alternating layers of
/// unbounded-fan-in AND and OR gates over (possibly negated) inputs —
/// the concept class the paper's logic-locking discussion targets
/// ("poly(n)-size depth-d circuits").
///
/// Layer widths shrink geometrically from `width` to a single output.
///
/// # Panics
///
/// Panics if `num_inputs == 0`, `depth == 0` or `width == 0`.
pub fn ac0_circuit<R: Rng + ?Sized>(
    num_inputs: usize,
    depth: usize,
    width: usize,
    rng: &mut R,
) -> Netlist {
    assert!(num_inputs > 0 && depth > 0 && width > 0);
    let mut b = Netlist::builder(num_inputs, 1);
    // Literal layer: inputs and their negations.
    let mut prev: Vec<Net> = (0..num_inputs).map(b_input).collect();
    let negs: Vec<Net> = (0..num_inputs)
        .map(|i| b.gate(GateKind::Not, vec![b_input(i)]))
        .collect();
    prev.extend(negs);

    let mut layer_width = width;
    for level in 0..depth {
        let kind = if level % 2 == 0 {
            GateKind::And
        } else {
            GateKind::Or
        };
        let this_width = if level + 1 == depth {
            1
        } else {
            layer_width.max(1)
        };
        let fan_in = prev.len().clamp(2, 4);
        let mut layer = Vec::with_capacity(this_width);
        for _ in 0..this_width {
            let mut ins = Vec::with_capacity(fan_in);
            for _ in 0..fan_in {
                ins.push(*prev.choose(rng).expect("non-empty layer"));
            }
            ins.dedup();
            layer.push(b.gate(kind, ins));
        }
        prev = layer;
        layer_width = (layer_width / 2).max(1);
    }
    let out = prev[0];
    b.set_output(0, out);
    b.build()
}

/// A `width`-bit ripple-carry adder: inputs `a[0..width] ++ b[0..width]`,
/// outputs `sum[0..width] ++ [carry]`.
pub fn ripple_adder(width: usize) -> Netlist {
    assert!(width > 0);
    let mut b = Netlist::builder(2 * width, width + 1);
    let mut carry: Option<Net> = None;
    for i in 0..width {
        let a = b_input(i);
        let x = b_input(width + i);
        let axb = b.gate(GateKind::Xor, vec![a, x]);
        let (sum, cout) = match carry {
            None => {
                let cout = b.gate(GateKind::And, vec![a, x]);
                (axb, cout)
            }
            Some(c) => {
                let sum = b.gate(GateKind::Xor, vec![axb, c]);
                let t1 = b.gate(GateKind::And, vec![a, x]);
                let t2 = b.gate(GateKind::And, vec![axb, c]);
                let cout = b.gate(GateKind::Or, vec![t1, t2]);
                (sum, cout)
            }
        };
        b.set_output(i, sum);
        carry = Some(cout);
    }
    b.set_output(width, carry.expect("width > 0"));
    b.build()
}

/// A `width`-bit unsigned comparator: output 1 iff `a > b`
/// (inputs `a[0..width] ++ b[0..width]`, little-endian).
pub fn comparator(width: usize) -> Netlist {
    assert!(width > 0);
    let mut b = Netlist::builder(2 * width, 1);
    // gt_i = a_i AND NOT b_i; eq_i = XNOR(a_i, b_i).
    // a > b = OR_i (gt_i AND eq_{i+1..}).
    let mut terms = Vec::new();
    for i in 0..width {
        let a = b_input(i);
        let x = b_input(width + i);
        let nb = b.gate(GateKind::Not, vec![x]);
        let gt = b.gate(GateKind::And, vec![a, nb]);
        // AND of equalities above bit i.
        let mut term = gt;
        for j in (i + 1)..width {
            let aj = b_input(j);
            let bj = b_input(width + j);
            let eq = b.gate(GateKind::Xnor, vec![aj, bj]);
            term = b.gate(GateKind::And, vec![term, eq]);
        }
        terms.push(term);
    }
    let out = if terms.len() == 1 {
        terms[0]
    } else {
        b.gate(GateKind::Or, terms)
    };
    b.set_output(0, out);
    b.build()
}

/// A balanced XOR (parity) tree over `width` inputs.
pub fn parity_tree(width: usize) -> Netlist {
    assert!(width > 0);
    let mut b = Netlist::builder(width, 1);
    let mut layer: Vec<Net> = (0..width).map(b_input).collect();
    while layer.len() > 1 {
        let mut next = Vec::with_capacity(layer.len().div_ceil(2));
        for pair in layer.chunks(2) {
            if pair.len() == 2 {
                next.push(b.gate(GateKind::Xor, vec![pair[0], pair[1]]));
            } else {
                next.push(pair[0]);
            }
        }
        layer = next;
    }
    let out = layer[0];
    b.set_output(0, out);
    b.build()
}

/// The ISCAS-85 c17 benchmark: 5 inputs, 2 outputs, 6 NAND gates.
pub fn c17() -> Netlist {
    let mut b = Netlist::builder(5, 2);
    let (i1, i2, i3, i4, i5) = (b_input(0), b_input(1), b_input(2), b_input(3), b_input(4));
    let g1 = b.gate(GateKind::Nand, vec![i1, i3]);
    let g2 = b.gate(GateKind::Nand, vec![i3, i4]);
    let g3 = b.gate(GateKind::Nand, vec![i2, g2]);
    let g4 = b.gate(GateKind::Nand, vec![g2, i5]);
    let g5 = b.gate(GateKind::Nand, vec![g1, g3]);
    let g6 = b.gate(GateKind::Nand, vec![g3, g4]);
    b.set_output(0, g5);
    b.set_output(1, g6);
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn random_circuit_shape() {
        let mut rng = StdRng::seed_from_u64(1);
        let c = random_circuit(8, 40, 3, &mut rng);
        assert_eq!(c.num_inputs(), 8);
        assert_eq!(c.num_gates(), 40);
        assert_eq!(c.num_outputs(), 3);
        // Simulation runs without panicking on arbitrary inputs.
        let out = c.simulate(&[true; 8]);
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn random_circuits_differ_across_seeds() {
        let mut r1 = StdRng::seed_from_u64(2);
        let mut r2 = StdRng::seed_from_u64(3);
        let a = random_circuit(6, 30, 1, &mut r1);
        let b = random_circuit(6, 30, 1, &mut r2);
        assert!(!a.equivalent_exhaustive(&b) || a == b);
    }

    #[test]
    fn adder_adds() {
        let add = ripple_adder(4);
        for a in 0u64..16 {
            for b in 0u64..16 {
                let mut bits = Vec::new();
                for i in 0..4 {
                    bits.push(a >> i & 1 == 1);
                }
                for i in 0..4 {
                    bits.push(b >> i & 1 == 1);
                }
                let out = add.simulate(&bits);
                let mut got = 0u64;
                for (i, &o) in out.iter().enumerate() {
                    if o {
                        got |= 1 << i;
                    }
                }
                assert_eq!(got, a + b, "{a} + {b}");
            }
        }
    }

    #[test]
    fn comparator_compares() {
        let cmp = comparator(3);
        for a in 0u64..8 {
            for b in 0u64..8 {
                let mut bits = Vec::new();
                for i in 0..3 {
                    bits.push(a >> i & 1 == 1);
                }
                for i in 0..3 {
                    bits.push(b >> i & 1 == 1);
                }
                assert_eq!(cmp.simulate(&bits)[0], a > b, "{a} > {b}");
            }
        }
    }

    #[test]
    fn parity_tree_computes_parity() {
        let p = parity_tree(7);
        for v in 0u64..128 {
            let bits: Vec<bool> = (0..7).map(|i| v >> i & 1 == 1).collect();
            assert_eq!(p.simulate(&bits)[0], v.count_ones() % 2 == 1);
        }
        assert!(p.depth() <= 3);
    }

    #[test]
    fn c17_matches_reference_vectors() {
        let c = c17();
        assert_eq!(c.num_gates(), 6);
        // All-zero input: g1=g2=1, g3=NAND(0,1)=1, g4=NAND(1,0)=1,
        // g5=NAND(1,1)=0, g6=NAND(1,1)=0.
        assert_eq!(c.simulate(&[false; 5]), vec![false, false]);
        // All-one input: g1=g2=0, g3=NAND(1,0)=1, g4=NAND(0,1)=1,
        // g5=NAND(0,1)=1, g6=NAND(1,1)=0.
        assert_eq!(c.simulate(&[true; 5]), vec![true, false]);
        // i2=1, i3=1, i4=1 -> g2=NAND(1,1)=0, g3=NAND(1,0)=1,
        // g1=NAND(0,1)=1, g5=NAND(1,1)=0; g4=NAND(0,0)=1 wait i5=0:
        // g4=NAND(0,0)=1, g6=NAND(1,1)=0.
        assert_eq!(
            c.simulate(&[false, true, true, true, false]),
            vec![false, false]
        );
    }

    #[test]
    fn ac0_circuit_has_bounded_depth() {
        let mut rng = StdRng::seed_from_u64(4);
        let c = ac0_circuit(10, 3, 8, &mut rng);
        // Depth = NOT layer (1) + 3 logic layers.
        assert!(c.depth() <= 4, "depth {}", c.depth());
        assert_eq!(c.num_outputs(), 1);
        let _ = c.simulate(&[false; 10]);
    }
}
