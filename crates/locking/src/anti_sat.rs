//! SARLock-style point-function locking — the scheme class behind the
//! paper's exact-vs-approximate discussion (Section IV-A, after \[4\]).
//!
//! The defense: XOR the circuit output with a *point function*
//! `flip(x, key) = [x_{0..k} == key]` (masked so the correct key never
//! flips). Every wrong key corrupts the output on exactly **one** input
//! pattern, so each DIP the SAT attack extracts eliminates only one
//! wrong key: exact key recovery needs `Ω(2^k)` oracle queries.
//!
//! And yet the scheme is security theater against an *approximate*
//! adversary: any wrong key is a `(1 − 2^{−k})`-accurate model, and
//! AppSAT returns one almost immediately. That is precisely the
//! impossibility of approximation-resilient locking the paper cites
//! \[4\] — implemented and measurable here.

use crate::combinational::LockedNetlist;
use mlam_boolean::BitVec;
use mlam_netlist::{GateKind, Net, Netlist};
use rand::Rng;

/// Locks a netlist with a SARLock-style point function on its first
/// output.
///
/// The construction appends `key_bits` key inputs and gates computing
/// `flip = [x_{0..key_bits} == key] AND [key != correct_key]`, then
/// XORs `flip` into output 0. With the correct key the circuit is
/// untouched; with a wrong key exactly one input pattern (the one whose
/// low bits equal the wrong key) is corrupted.
///
/// # Panics
///
/// Panics if `key_bits == 0` or `key_bits > original.num_inputs()`.
pub fn lock_sarlock<R: Rng + ?Sized>(
    original: &Netlist,
    key_bits: usize,
    rng: &mut R,
) -> LockedNetlist {
    assert!(key_bits > 0, "need at least one key bit");
    assert!(
        key_bits <= original.num_inputs(),
        "key cannot be wider than the input"
    );
    let num_primary = original.num_inputs();
    let correct_key = BitVec::random(key_bits, rng);

    let mut b = Netlist::builder(num_primary + key_bits, original.num_outputs());
    // Rebuild the original gates (inputs map 1:1).
    let mut map: Vec<Net> = (0..num_primary).map(|i| b.input(i)).collect();
    for gate in original.gates() {
        let inputs: Vec<Net> = gate.inputs.iter().map(|n| map[n.index()]).collect();
        map.push(b.gate(gate.kind, inputs));
    }

    // match_i = XNOR(x_i, key_i); eq = AND_i match_i.
    let mut matches = Vec::with_capacity(key_bits);
    for i in 0..key_bits {
        let x = b.input(i);
        let k = b.input(num_primary + i);
        matches.push(b.gate(GateKind::Xnor, vec![x, k]));
    }
    let eq = if matches.len() == 1 {
        matches[0]
    } else {
        b.gate(GateKind::And, matches)
    };

    // wrong = [key != correct_key]: OR over bits where key differs from
    // the secret; realized as OR of per-bit XOR/XNOR against constants.
    // A constant is encoded as XNOR(k_i, k_i) = 1 / XOR(k_i, k_i) = 0.
    let mut diff_terms = Vec::with_capacity(key_bits);
    for i in 0..key_bits {
        let k = b.input(num_primary + i);
        // If the secret bit is 1, the key differs when k = 0 -> NOT k;
        // if the secret bit is 0, it differs when k = 1 -> k.
        let term = if correct_key.get(i) {
            b.gate(GateKind::Not, vec![k])
        } else {
            b.gate(GateKind::Buf, vec![k])
        };
        diff_terms.push(term);
    }
    let wrong = if diff_terms.len() == 1 {
        diff_terms[0]
    } else {
        b.gate(GateKind::Or, diff_terms)
    };

    let flip = b.gate(GateKind::And, vec![eq, wrong]);
    // XOR the flip into output 0; other outputs pass through.
    let out0 = map[original.outputs()[0].index()];
    let new_out0 = b.gate(GateKind::Xor, vec![out0, flip]);
    b.set_output(0, new_out0);
    for (oi, net) in original.outputs().iter().enumerate().skip(1) {
        b.set_output(oi, map[net.index()]);
    }
    LockedNetlist::from_parts(b.build(), num_primary, key_bits, correct_key)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::appsat::{appsat, AppSatConfig};
    use crate::sat_attack::{sat_attack, SatAttackConfig};
    use mlam_netlist::generate::{c17, random_circuit};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn correct_key_is_transparent() {
        let mut rng = StdRng::seed_from_u64(1);
        let orig = c17();
        let locked = lock_sarlock(&orig, 4, &mut rng);
        let key = locked.correct_key().clone();
        assert!(locked.equivalent_under_key(&orig, &key));
    }

    #[test]
    fn every_wrong_key_corrupts_exactly_one_pattern() {
        let mut rng = StdRng::seed_from_u64(2);
        let orig = c17();
        let locked = lock_sarlock(&orig, 4, &mut rng);
        let correct = locked.correct_key().clone();
        for wrong_val in 0..16u64 {
            let wrong = BitVec::from_u64(wrong_val, 4);
            if wrong == correct {
                continue;
            }
            let mut corrupted = 0usize;
            for v in 0..32u64 {
                let bits: Vec<bool> = (0..5).map(|i| v >> i & 1 == 1).collect();
                if locked.simulate(&bits, &wrong) != orig.simulate(&bits) {
                    corrupted += 1;
                }
            }
            // Exactly the 2 inputs (5 input bits, low 4 pinned) whose
            // low bits equal the wrong key.
            assert_eq!(corrupted, 2, "wrong key {wrong} corrupted {corrupted}");
        }
    }

    #[test]
    fn sat_attack_needs_exponentially_many_dips() {
        let mut rng = StdRng::seed_from_u64(3);
        let orig = c17();
        let locked = lock_sarlock(&orig, 5, &mut rng);
        let result = sat_attack(&locked, &orig, SatAttackConfig::default());
        assert!(result.key_is_functionally_correct);
        // Each DIP kills one wrong key: ~2^5 − 1 DIPs needed.
        assert!(
            result.iterations >= 24,
            "SARLock must force ≈2^k DIPs, got {}",
            result.iterations
        );
    }

    #[test]
    fn sat_attack_takes_exactly_one_dip_per_wrong_key() {
        // Every DIP eliminates exactly the one wrong key equal to its
        // low input bits, so the exact attack needs 2^k − 1 of them.
        let mut rng = StdRng::seed_from_u64(6);
        for k in [4, 6, 8, 10] {
            let orig = random_circuit(k + 2, 40, 2, &mut rng);
            let locked = lock_sarlock(&orig, k, &mut rng);
            let result = sat_attack(&locked, &orig, SatAttackConfig::default());
            assert!(result.key_is_functionally_correct, "k = {k}");
            assert_eq!(result.iterations, (1 << k) - 1, "k = {k}");
        }
    }

    #[test]
    fn appsat_breaks_it_approximately_at_once() {
        let mut rng = StdRng::seed_from_u64(4);
        let orig = c17();
        let locked = lock_sarlock(&orig, 5, &mut rng);
        let cfg = AppSatConfig {
            dips_per_round: 1,
            queries_per_round: 24,
            error_threshold: 0.05,
            settlement_rounds: 2,
            max_rounds: 50,
        };
        let result = appsat(&locked, &orig, cfg, &mut rng);
        // ANY key is a (1 - 2^-5)-accurate model.
        assert!(
            result.estimated_accuracy > 0.9,
            "accuracy {}",
            result.estimated_accuracy
        );
        // ... and AppSAT spends far fewer oracle interactions than the
        // exact attack's ≈2^k DIPs... modulo the settlement queries; the
        // DIP count specifically stays tiny.
        assert!(
            result.dip_iterations < 24,
            "AppSAT used {} DIPs",
            result.dip_iterations
        );
    }

    #[test]
    fn exact_vs_approximate_pitfall_quantified() {
        // The Section IV-A story in one assert: the scheme is
        // exact-inference-resilient (DIPs ~ 2^k) yet approximately
        // worthless (a random key is 1 - 2^-k accurate).
        let mut rng = StdRng::seed_from_u64(5);
        let orig = c17();
        let locked = lock_sarlock(&orig, 5, &mut rng);
        let random_key = BitVec::random(5, &mut rng);
        let acc = locked.key_accuracy(&orig, &random_key, 4000, &mut rng);
        assert!(acc > 0.9, "random-key accuracy {acc}");
    }
}
