//! The core netlist type.

use std::fmt;

/// Identifier of a net (wire) inside a [`Netlist`].
///
/// Nets `0..num_inputs` are the primary inputs; every gate drives one
/// fresh net.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Net(pub(crate) u32);

impl Net {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Net {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Gate kinds supported by the netlist.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum GateKind {
    /// Multi-input AND.
    And,
    /// Multi-input OR.
    Or,
    /// Multi-input NAND.
    Nand,
    /// Multi-input NOR.
    Nor,
    /// Two-input XOR (multi-input = parity).
    Xor,
    /// Two-input XNOR (multi-input = parity complement).
    Xnor,
    /// Inverter (exactly one input).
    Not,
    /// Buffer (exactly one input).
    Buf,
    /// 2:1 multiplexer: inputs `[sel, a, b]`, output `sel ? b : a`.
    Mux,
}

impl GateKind {
    /// Evaluates the gate on the given input values.
    ///
    /// # Panics
    ///
    /// Panics on an arity violation (`Not`/`Buf` need exactly 1 input,
    /// `Mux` exactly 3, the rest at least 1).
    pub fn eval(self, inputs: &[bool]) -> bool {
        match self {
            GateKind::And => {
                assert!(!inputs.is_empty());
                inputs.iter().all(|&b| b)
            }
            GateKind::Or => {
                assert!(!inputs.is_empty());
                inputs.iter().any(|&b| b)
            }
            GateKind::Nand => !GateKind::And.eval(inputs),
            GateKind::Nor => !GateKind::Or.eval(inputs),
            GateKind::Xor => {
                assert!(!inputs.is_empty());
                inputs.iter().fold(false, |a, &b| a ^ b)
            }
            GateKind::Xnor => !GateKind::Xor.eval(inputs),
            GateKind::Not => {
                assert_eq!(inputs.len(), 1, "NOT takes exactly one input");
                !inputs[0]
            }
            GateKind::Buf => {
                assert_eq!(inputs.len(), 1, "BUF takes exactly one input");
                inputs[0]
            }
            GateKind::Mux => {
                assert_eq!(inputs.len(), 3, "MUX takes [sel, a, b]");
                if inputs[0] {
                    inputs[2]
                } else {
                    inputs[1]
                }
            }
        }
    }

    /// The `.bench`-style mnemonic.
    pub fn mnemonic(self) -> &'static str {
        match self {
            GateKind::And => "AND",
            GateKind::Or => "OR",
            GateKind::Nand => "NAND",
            GateKind::Nor => "NOR",
            GateKind::Xor => "XOR",
            GateKind::Xnor => "XNOR",
            GateKind::Not => "NOT",
            GateKind::Buf => "BUF",
            GateKind::Mux => "MUX",
        }
    }
}

impl fmt::Display for GateKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// One gate: a kind plus its input nets. The gate drives the net whose
/// index is `num_inputs + position`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Gate {
    /// The logic function.
    pub kind: GateKind,
    /// Input nets, in order (order matters for [`GateKind::Mux`]).
    pub inputs: Vec<Net>,
}

impl Gate {
    /// The gate's output word given the words of every earlier net:
    /// [`GateKind::eval`] applied lane by lane. The builder has checked
    /// the arity.
    fn eval_word(&self, values: &[u64]) -> u64 {
        let ins = self.inputs.iter().map(|n| values[n.index()]);
        match self.kind {
            GateKind::And => ins.fold(!0, |a, w| a & w),
            GateKind::Nand => !ins.fold(!0, |a, w| a & w),
            GateKind::Or => ins.fold(0, |a, w| a | w),
            GateKind::Nor => !ins.fold(0, |a, w| a | w),
            GateKind::Xor => ins.fold(0, |a, w| a ^ w),
            GateKind::Xnor => !ins.fold(0, |a, w| a ^ w),
            GateKind::Not => !values[self.inputs[0].index()],
            GateKind::Buf => values[self.inputs[0].index()],
            GateKind::Mux => {
                let (sel, a, b) = (
                    values[self.inputs[0].index()],
                    values[self.inputs[1].index()],
                    values[self.inputs[2].index()],
                );
                (sel & b) | (!sel & a)
            }
        }
    }
}

/// A combinational gate-level netlist.
///
/// Gates are stored in topological order by construction: a gate may
/// only reference primary inputs or earlier gates, which the builder
/// enforces, so simulation is a single forward pass.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Netlist {
    num_inputs: usize,
    gates: Vec<Gate>,
    outputs: Vec<Net>,
}

impl Netlist {
    /// Starts building a netlist with `num_inputs` primary inputs and
    /// `num_outputs` outputs.
    pub fn builder(num_inputs: usize, num_outputs: usize) -> NetlistBuilder {
        NetlistBuilder {
            num_inputs,
            gates: Vec::new(),
            outputs: vec![None; num_outputs],
        }
    }

    /// Number of primary inputs.
    pub fn num_inputs(&self) -> usize {
        self.num_inputs
    }

    /// Number of outputs.
    pub fn num_outputs(&self) -> usize {
        self.outputs.len()
    }

    /// Number of gates.
    pub fn num_gates(&self) -> usize {
        self.gates.len()
    }

    /// The gates, in topological order.
    pub fn gates(&self) -> &[Gate] {
        &self.gates
    }

    /// The output nets.
    pub fn outputs(&self) -> &[Net] {
        &self.outputs
    }

    /// Total number of nets (inputs + gates).
    pub fn num_nets(&self) -> usize {
        self.num_inputs + self.gates.len()
    }

    /// Simulates the netlist on an input assignment.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != self.num_inputs()`.
    pub fn simulate(&self, inputs: &[bool]) -> Vec<bool> {
        let values = self.simulate_lane(inputs);
        self.outputs
            .iter()
            .map(|o| values[o.index()] & 1 == 1)
            .collect()
    }

    /// Simulates and returns the value of **every** net (inputs first,
    /// then each gate output in order). Useful for debugging and for
    /// the locking attacks that inspect internal wires.
    pub fn simulate_nets(&self, inputs: &[bool]) -> Vec<bool> {
        self.simulate_lane(inputs)
            .into_iter()
            .map(|w| w & 1 == 1)
            .collect()
    }

    /// One pattern through [`simulate_words`](Self::simulate_words), in
    /// lane 0.
    fn simulate_lane(&self, inputs: &[bool]) -> Vec<u64> {
        let words: Vec<u64> = inputs.iter().map(|&b| u64::from(b)).collect();
        let mut values = Vec::new();
        self.simulate_words(&words, &mut values);
        values
    }

    /// Simulates up to 64 input patterns at once, one per bit lane:
    /// lane `j` of `inputs[i]` is input `i` of pattern `j`. Writes one
    /// word per net into `values` (inputs first, then each gate output
    /// in order; lane `j` of every word belongs to pattern `j`), in a
    /// single forward pass over the gates.
    ///
    /// This is the netlist's one evaluator: [`simulate`](Self::simulate)
    /// and [`simulate_nets`](Self::simulate_nets) are one-lane calls of
    /// it, and [`GateKind::eval`] is the per-gate spec it is tested
    /// against.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != self.num_inputs()`.
    pub fn simulate_words(&self, inputs: &[u64], values: &mut Vec<u64>) {
        assert_eq!(inputs.len(), self.num_inputs, "input width mismatch");
        values.clear();
        values.reserve(self.num_nets());
        values.extend_from_slice(inputs);
        for gate in &self.gates {
            let word = gate.eval_word(values);
            values.push(word);
        }
    }

    /// The lanes on which `self` and `other` disagree on at least one
    /// output, given the net words each got from
    /// [`simulate_words`](Self::simulate_words) on the same patterns.
    pub fn output_diff(&self, values: &[u64], other: &Netlist, other_values: &[u64]) -> u64 {
        debug_assert_eq!(self.num_outputs(), other.num_outputs(), "output count");
        self.outputs
            .iter()
            .zip(&other.outputs)
            .fold(0, |d, (a, b)| {
                d | (values[a.index()] ^ other_values[b.index()])
            })
    }

    /// Logic depth: the longest input-to-output path measured in gates.
    pub fn depth(&self) -> usize {
        let mut depth = vec![0usize; self.num_nets()];
        for (i, gate) in self.gates.iter().enumerate() {
            let d = gate
                .inputs
                .iter()
                .map(|n| depth[n.index()])
                .max()
                .unwrap_or(0);
            depth[self.num_inputs + i] = d + 1;
        }
        self.outputs
            .iter()
            .map(|o| depth[o.index()])
            .max()
            .unwrap_or(0)
    }

    /// Exhaustively compares two netlists (small input counts only),
    /// 64 patterns per evaluation (see [`exhaustive_blocks`]).
    ///
    /// # Panics
    ///
    /// Panics if shapes differ or `num_inputs > 20`.
    pub fn equivalent_exhaustive(&self, other: &Netlist) -> bool {
        assert_eq!(self.num_inputs, other.num_inputs, "input width mismatch");
        assert_eq!(self.num_outputs(), other.num_outputs(), "output count");
        assert!(
            self.num_inputs <= 20,
            "exhaustive check limited to 20 inputs"
        );
        let (mut ours, mut theirs) = (Vec::new(), Vec::new());
        exhaustive_blocks(self.num_inputs, &[], |words, mask| {
            self.simulate_words(words, &mut ours);
            other.simulate_words(words, &mut theirs);
            self.output_diff(&ours, other, &theirs) & mask == 0
        })
    }
}

/// Lane `j` of `LANE_PATTERNS[i]` is bit `i` of `j`: the first six
/// inputs of a 64-pattern block that enumerates consecutive indices.
const LANE_PATTERNS: [u64; 6] = [
    0xAAAA_AAAA_AAAA_AAAA,
    0xCCCC_CCCC_CCCC_CCCC,
    0xF0F0_F0F0_F0F0_F0F0,
    0xFF00_FF00_FF00_FF00,
    0xFFFF_0000_FFFF_0000,
    0xFFFF_FFFF_0000_0000,
];

/// Enumerates all `2^num_inputs` input patterns in blocks of 64, for
/// [`Netlist::simulate_words`]. Lane `j` of block `b` is pattern
/// `64·b + j`, whose input `i` is bit `i` of that index: inputs 0–5
/// take constant lane masks, higher inputs come from the block index.
///
/// `check(words, mask)` receives the `num_inputs` enumerated words
/// followed by `fixed` (constant words, e.g. a broadcast key) and the
/// mask of lanes that are real patterns (all 64 unless
/// `num_inputs < 6`). Returns `false` as soon as a block fails the
/// check, `true` if every block passes.
///
/// # Panics
///
/// Panics if `num_inputs > 32`.
pub fn exhaustive_blocks(
    num_inputs: usize,
    fixed: &[u64],
    mut check: impl FnMut(&[u64], u64) -> bool,
) -> bool {
    assert!(
        num_inputs <= 32,
        "exhaustive enumeration limited to 32 inputs"
    );
    let mut words = vec![0u64; num_inputs + fixed.len()];
    words[num_inputs..].copy_from_slice(fixed);
    for (w, &lanes) in words.iter_mut().zip(&LANE_PATTERNS).take(num_inputs) {
        *w = lanes;
    }
    let mask = if num_inputs >= 6 {
        !0
    } else {
        (1u64 << (1 << num_inputs)) - 1
    };
    for block in 0..1u64 << num_inputs.saturating_sub(6) {
        for (i, w) in words.iter_mut().enumerate().take(num_inputs).skip(6) {
            *w = 0u64.wrapping_sub(block >> (i - 6) & 1);
        }
        if !check(&words, mask) {
            return false;
        }
    }
    true
}

/// Incremental builder enforcing topological order.
#[derive(Clone, Debug)]
pub struct NetlistBuilder {
    num_inputs: usize,
    gates: Vec<Gate>,
    outputs: Vec<Option<Net>>,
}

impl NetlistBuilder {
    /// The net of primary input `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= num_inputs`.
    pub fn input(&self, i: usize) -> Net {
        assert!(i < self.num_inputs, "input index out of range");
        Net(i as u32)
    }

    /// Adds a gate and returns the net it drives.
    ///
    /// # Panics
    ///
    /// Panics if an input net does not exist yet (topological-order
    /// violation) or the gate arity is invalid for its kind.
    pub fn gate(&mut self, kind: GateKind, inputs: Vec<Net>) -> Net {
        let limit = (self.num_inputs + self.gates.len()) as u32;
        for n in &inputs {
            assert!(n.0 < limit, "gate references a net that does not exist yet");
        }
        match kind {
            GateKind::Not | GateKind::Buf => {
                assert_eq!(inputs.len(), 1, "{kind} takes exactly one input")
            }
            GateKind::Mux => assert_eq!(inputs.len(), 3, "MUX takes [sel, a, b]"),
            _ => assert!(!inputs.is_empty(), "{kind} needs at least one input"),
        }
        self.gates.push(Gate { kind, inputs });
        Net(limit)
    }

    /// Connects output `idx` to `net`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range or `net` does not exist.
    pub fn set_output(&mut self, idx: usize, net: Net) {
        assert!(idx < self.outputs.len(), "output index out of range");
        assert!(
            (net.0 as usize) < self.num_inputs + self.gates.len(),
            "output references a net that does not exist"
        );
        self.outputs[idx] = Some(net);
    }

    /// Current number of nets.
    pub fn num_nets(&self) -> usize {
        self.num_inputs + self.gates.len()
    }

    /// Finalizes the netlist.
    ///
    /// # Panics
    ///
    /// Panics if any output is unconnected.
    pub fn build(self) -> Netlist {
        let outputs = self
            .outputs
            .into_iter()
            .enumerate()
            .map(|(i, o)| o.unwrap_or_else(|| panic!("output {i} not connected")))
            .collect();
        Netlist {
            num_inputs: self.num_inputs,
            gates: self.gates,
            outputs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::every_kind_circuit;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The per-pattern evaluator that [`Netlist::simulate_words`]
    /// replaced: one `Vec<bool>` per call, one [`GateKind::eval`] per
    /// gate. Kept as the reference the kernel must match.
    fn simulate_nets_scalar(netlist: &Netlist, inputs: &[bool]) -> Vec<bool> {
        assert_eq!(inputs.len(), netlist.num_inputs, "input width mismatch");
        let mut values = Vec::with_capacity(netlist.num_nets());
        values.extend_from_slice(inputs);
        let mut gate_in = Vec::new();
        for gate in &netlist.gates {
            gate_in.clear();
            gate_in.extend(gate.inputs.iter().map(|n| values[n.index()]));
            values.push(gate.kind.eval(&gate_in));
        }
        values
    }

    #[test]
    fn word_kernel_matches_scalar_eval_lane_by_lane() {
        let mut rng = StdRng::seed_from_u64(0x5eed);
        let mut values = Vec::new();
        for case in 0..200 {
            let n = 1 + case % 9;
            let gates = 1 + case % 40;
            let c = every_kind_circuit(n, gates, gates.min(3), &mut rng);
            let fills: [fn(&mut StdRng) -> u64; 3] = [|r| r.gen(), |_| 0, |_| !0];
            for fill in fills {
                let words: Vec<u64> = (0..n).map(|_| fill(&mut rng)).collect();
                c.simulate_words(&words, &mut values);
                assert_eq!(values.len(), c.num_nets());
                for lane in 0..64 {
                    let bits: Vec<bool> = words.iter().map(|w| w >> lane & 1 == 1).collect();
                    let expected = simulate_nets_scalar(&c, &bits);
                    let got: Vec<bool> = values.iter().map(|w| w >> lane & 1 == 1).collect();
                    assert_eq!(got, expected, "case {case}, lane {lane}");
                    if lane == 0 {
                        assert_eq!(c.simulate_nets(&bits), expected, "case {case}");
                    }
                }
            }
        }
    }

    #[test]
    fn exhaustive_blocks_enumerate_every_pattern_once() {
        for n in 0..=8usize {
            let mut seen = vec![0u32; 1 << n];
            let done = exhaustive_blocks(n, &[7, !0], |words, mask| {
                assert_eq!(words.len(), n + 2);
                assert_eq!(&words[n..], &[7, !0]);
                for lane in (0..64).filter(|l| mask >> l & 1 == 1) {
                    let v = (0..n).fold(0usize, |v, i| v | ((words[i] >> lane & 1) as usize) << i);
                    seen[v] += 1;
                }
                true
            });
            assert!(done);
            assert!(seen.iter().all(|&c| c == 1), "n = {n}: {seen:?}");
        }
        let mut calls = 0;
        assert!(!exhaustive_blocks(8, &[], |_, _| {
            calls += 1;
            calls < 2
        }));
        assert_eq!(calls, 2, "stops at the first failing block");
    }

    fn full_adder() -> Netlist {
        // inputs: a, b, cin; outputs: sum, cout
        let mut b = Netlist::builder(3, 2);
        let (a, x, cin) = (b.input(0), b.input(1), b.input(2));
        let ab = b.gate(GateKind::Xor, vec![a, x]);
        let sum = b.gate(GateKind::Xor, vec![ab, cin]);
        let and1 = b.gate(GateKind::And, vec![a, x]);
        let and2 = b.gate(GateKind::And, vec![ab, cin]);
        let cout = b.gate(GateKind::Or, vec![and1, and2]);
        b.set_output(0, sum);
        b.set_output(1, cout);
        b.build()
    }

    #[test]
    fn full_adder_truth_table() {
        let fa = full_adder();
        for a in [false, true] {
            for x in [false, true] {
                for c in [false, true] {
                    let out = fa.simulate(&[a, x, c]);
                    let total = a as u8 + x as u8 + c as u8;
                    assert_eq!(out[0], total % 2 == 1, "sum for {a}{x}{c}");
                    assert_eq!(out[1], total >= 2, "carry for {a}{x}{c}");
                }
            }
        }
    }

    #[test]
    fn gate_kind_semantics() {
        assert!(GateKind::And.eval(&[true, true, true]));
        assert!(!GateKind::And.eval(&[true, false]));
        assert!(GateKind::Nand.eval(&[true, false]));
        assert!(GateKind::Or.eval(&[false, true]));
        assert!(GateKind::Nor.eval(&[false, false]));
        assert!(GateKind::Xor.eval(&[true, true, true]));
        assert!(!GateKind::Xor.eval(&[true, true]));
        assert!(GateKind::Xnor.eval(&[true, true]));
        assert!(GateKind::Not.eval(&[false]));
        assert!(GateKind::Buf.eval(&[true]));
        assert!(GateKind::Mux.eval(&[false, true, false]));
        assert!(!GateKind::Mux.eval(&[true, true, false]));
    }

    #[test]
    fn depth_of_adder() {
        let fa = full_adder();
        assert_eq!(fa.depth(), 3); // xor -> and -> or path
        assert_eq!(fa.num_gates(), 5);
        assert_eq!(fa.num_nets(), 8);
    }

    #[test]
    fn simulate_nets_exposes_wires() {
        let fa = full_adder();
        let nets = fa.simulate_nets(&[true, true, false]);
        assert_eq!(nets.len(), 8);
        assert!(nets[0]);
        assert!(!nets[3]); // a xor b
        assert!(nets[5]); // a and b
    }

    #[test]
    fn exhaustive_equivalence_detects_difference() {
        let fa = full_adder();
        assert!(fa.equivalent_exhaustive(&fa));
        // An adder with the carry gates swapped to NAND differs.
        let mut b = Netlist::builder(3, 2);
        let (a, x, cin) = (b.input(0), b.input(1), b.input(2));
        let ab = b.gate(GateKind::Xor, vec![a, x]);
        let sum = b.gate(GateKind::Xor, vec![ab, cin]);
        let and1 = b.gate(GateKind::Nand, vec![a, x]);
        let and2 = b.gate(GateKind::And, vec![ab, cin]);
        let cout = b.gate(GateKind::Or, vec![and1, and2]);
        b.set_output(0, sum);
        b.set_output(1, cout);
        let broken = b.build();
        assert!(!fa.equivalent_exhaustive(&broken));
    }

    #[test]
    #[should_panic(expected = "does not exist yet")]
    fn forward_reference_panics() {
        let mut b = Netlist::builder(1, 1);
        b.gate(GateKind::Not, vec![Net(5)]);
    }

    #[test]
    #[should_panic(expected = "not connected")]
    fn unconnected_output_panics() {
        Netlist::builder(1, 1).build();
    }

    #[test]
    #[should_panic(expected = "exactly one input")]
    fn not_gate_arity_checked() {
        let mut b = Netlist::builder(2, 1);
        let (x, y) = (b.input(0), b.input(1));
        b.gate(GateKind::Not, vec![x, y]);
    }
}
