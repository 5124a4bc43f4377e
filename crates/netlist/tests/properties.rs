//! Property-based tests for netlists, generators, CNF encoding and the
//! `.bench` format.

use mlam_netlist::bench_format::{from_bench, to_bench};
use mlam_netlist::cnf::{tseitin_encode, Cnf};
use mlam_netlist::equivalent_bdd;
use mlam_netlist::generate::{parity_tree, random_circuit, ripple_adder};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    /// Random circuits round-trip through the `.bench` text format.
    #[test]
    fn bench_round_trip(seed in any::<u64>(), gates in 5usize..40) {
        let mut rng = StdRng::seed_from_u64(seed);
        let c = random_circuit(6, gates, 2, &mut rng);
        let back = from_bench(&to_bench(&c)).expect("parse");
        prop_assert!(c.equivalent_exhaustive(&back));
    }

    /// The word-parallel exhaustive check agrees with the BDD on random
    /// pairs of circuits of 1–14 inputs (below 6 inputs the one block
    /// is partly masked), and a circuit is equivalent to itself.
    #[test]
    fn exhaustive_equivalence_agrees_with_bdd(
        seed in any::<u64>(),
        inputs in 1usize..15,
        gates in 1usize..12,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = random_circuit(inputs, gates, 1, &mut rng);
        let b = random_circuit(inputs, gates, 1, &mut rng);
        prop_assert!(a.equivalent_exhaustive(&a));
        prop_assert_eq!(a.equivalent_exhaustive(&b), equivalent_bdd(&a, &b));
    }

    /// Adders add for arbitrary widths and operands.
    #[test]
    fn adder_correct(width in 1usize..7, a in any::<u64>(), b in any::<u64>()) {
        let add = ripple_adder(width);
        let mask = (1u64 << width) - 1;
        let (a, b) = (a & mask, b & mask);
        let mut bits = Vec::new();
        for i in 0..width { bits.push(a >> i & 1 == 1); }
        for i in 0..width { bits.push(b >> i & 1 == 1); }
        let out = add.simulate(&bits);
        let mut got = 0u64;
        for (i, &o) in out.iter().enumerate() {
            if o { got |= 1 << i; }
        }
        prop_assert_eq!(got, a + b);
    }

    /// Parity trees compute parity for arbitrary widths.
    #[test]
    fn parity_correct(width in 1usize..12, v in any::<u64>()) {
        let p = parity_tree(width);
        let bits: Vec<bool> = (0..width).map(|i| v >> i & 1 == 1).collect();
        let expected = bits.iter().filter(|&&b| b).count() % 2 == 1;
        prop_assert_eq!(p.simulate(&bits)[0], expected);
    }

    /// The Tseitin encoding is satisfied by every real execution:
    /// assigning each net variable its simulated value (and computing
    /// the XOR-chain internals consistently) satisfies every clause in
    /// which only net variables occur, and the full CNF remains
    /// satisfiable with the output pinned to the simulated value.
    #[test]
    fn tseitin_respects_simulation(seed in any::<u64>(), input_mask in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let circuit = random_circuit(5, 12, 1, &mut rng);
        let mut cnf = Cnf::new(0);
        let enc = tseitin_encode(&circuit, &mut cnf);
        let bits: Vec<bool> = (0..5).map(|i| input_mask >> i & 1 == 1).collect();
        let sim = circuit.simulate(&bits);
        // Pin inputs and output, solve with the CDCL solver via
        // brute force over remaining vars (small).
        for (i, &b) in bits.iter().enumerate() {
            let v = enc.vars[i];
            cnf.add_clause(vec![if b { v } else { -v }]);
        }
        let ov = enc.vars[circuit.outputs()[0].index()];
        cnf.add_clause(vec![if sim[0] { ov } else { -ov }]);
        // The formula must be satisfiable (consistent execution exists).
        let n = cnf.num_vars;
        prop_assume!(n <= 22);
        let mut sat = false;
        for mask in 0..(1u64 << n) {
            let assignment: Vec<bool> = (0..n).map(|i| mask >> i & 1 == 1).collect();
            if cnf.eval(&assignment) {
                sat = true;
                break;
            }
        }
        prop_assert!(sat, "no consistent execution for inputs {input_mask:b}");
    }

    /// Circuit depth never exceeds gate count.
    #[test]
    fn depth_bounded_by_gates(seed in any::<u64>(), gates in 3usize..30) {
        let mut rng = StdRng::seed_from_u64(seed);
        let c = random_circuit(4, gates, 1, &mut rng);
        prop_assert!(c.depth() <= c.num_gates());
    }
}
