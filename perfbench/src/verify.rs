//! Output checks that share no code with the layers under test.
//!
//! Keys are checked with a 64-lane bit-parallel gate evaluator written
//! here from the netlist's public gate list (not `Netlist::simulate`),
//! exhaustively up to [`EXHAUSTIVE_MAX_INPUTS`] primary inputs and on a
//! fixed random sample above (where the job's own BDD verdict must
//! also hold). PUF models are scored against ground truth recomputed
//! here from the instance's delay weights with a separate Φ transform.

use mlam::boolean::BitVec;
use mlam::locking::LockedNetlist;
use mlam::netlist::{GateKind, Netlist};

/// Widest input for which keys are checked on every input pattern.
pub const EXHAUSTIVE_MAX_INPUTS: usize = 16;

/// Random 64-pattern blocks checked above the exhaustive limit.
const SAMPLE_BLOCKS: usize = 256;

/// Evaluates `netlist` on 64 input patterns at once: bit `l` of
/// `inputs[i]` is input `i` of pattern `l`. Returns one word per output.
pub fn eval_words(netlist: &Netlist, inputs: &[u64]) -> Vec<u64> {
    assert_eq!(inputs.len(), netlist.num_inputs(), "input words");
    let mut nets: Vec<u64> = inputs.to_vec();
    for gate in netlist.gates() {
        let ins: Vec<u64> = gate.inputs.iter().map(|n| nets[n.index()]).collect();
        let and = || ins.iter().fold(!0u64, |a, &b| a & b);
        let or = || ins.iter().fold(0u64, |a, &b| a | b);
        let xor = || ins.iter().fold(0u64, |a, &b| a ^ b);
        let v = match gate.kind {
            GateKind::And => and(),
            GateKind::Or => or(),
            GateKind::Nand => !and(),
            GateKind::Nor => !or(),
            GateKind::Xor => xor(),
            GateKind::Xnor => !xor(),
            GateKind::Not => !ins[0],
            GateKind::Buf => ins[0],
            GateKind::Mux => (ins[0] & ins[2]) | (!ins[0] & ins[1]),
        };
        nets.push(v);
    }
    netlist.outputs().iter().map(|o| nets[o.index()]).collect()
}

/// Lanes of `primary` (and `key` broadcast) on which the locked circuit
/// and the oracle agree on every output.
fn agreeing_lanes(oracle: &Netlist, locked: &LockedNetlist, key: &BitVec, primary: &[u64]) -> u64 {
    let mut locked_in = primary.to_vec();
    locked_in.extend(key.iter().map(|b| if b { !0u64 } else { 0 }));
    let want = eval_words(oracle, primary);
    let got = eval_words(locked.netlist(), &locked_in);
    want.iter()
        .zip(&got)
        .fold(!0u64, |acc, (w, g)| acc & !(w ^ g))
}

/// Whether `key` makes `locked` equal to `oracle` on every input
/// pattern (`num_primary_inputs ≤ EXHAUSTIVE_MAX_INPUTS`).
pub fn exhaustive_agree(oracle: &Netlist, locked: &LockedNetlist, key: &BitVec) -> bool {
    let n = locked.num_primary_inputs();
    assert!(n <= EXHAUSTIVE_MAX_INPUTS, "exhaustive check limit");
    let total = 1u64 << n;
    let mut base = 0u64;
    while base < total {
        let lanes = (total - base).min(64);
        let primary: Vec<u64> = (0..n)
            .map(|i| (0..lanes).fold(0u64, |w, l| w | (((base + l) >> i) & 1) << l))
            .collect();
        let valid = if lanes == 64 { !0 } else { (1u64 << lanes) - 1 };
        if agreeing_lanes(oracle, locked, key, &primary) & valid != valid {
            return false;
        }
        base += 64;
    }
    true
}

/// Fraction of `SAMPLE_BLOCKS × 64` seeded random patterns on which
/// `key` makes `locked` agree with `oracle`.
pub fn sampled_agreement(oracle: &Netlist, locked: &LockedNetlist, key: &BitVec, seed: u64) -> f64 {
    let mut state = seed;
    let mut agree = 0u32;
    for _ in 0..SAMPLE_BLOCKS {
        let primary: Vec<u64> = (0..locked.num_primary_inputs())
            .map(|_| splitmix64(&mut state))
            .collect();
        agree += agreeing_lanes(oracle, locked, key, &primary).count_ones();
    }
    f64::from(agree) / (SAMPLE_BLOCKS * 64) as f64
}

/// Checks that `key` unlocks `locked` to the oracle's function:
/// exhaustively for narrow circuits; above that, the job's own BDD
/// verdict must hold and a random sample must agree everywhere.
pub fn check_key(
    oracle: &Netlist,
    locked: &LockedNetlist,
    key: &BitVec,
    bdd_verdict: Option<bool>,
    seed: u64,
) -> Result<(), String> {
    if key.len() != locked.num_key_bits() {
        return Err(format!(
            "key has {} bits, want {}",
            key.len(),
            locked.num_key_bits()
        ));
    }
    if locked.num_primary_inputs() <= EXHAUSTIVE_MAX_INPUTS {
        if !exhaustive_agree(oracle, locked, key) {
            return Err("key differs from the oracle on some input".into());
        }
    } else {
        if bdd_verdict != Some(true) {
            return Err(format!("BDD equivalence verdict {bdd_verdict:?}"));
        }
        let agreement = sampled_agreement(oracle, locked, key, seed);
        if agreement < 1.0 {
            return Err(format!(
                "key agrees with the oracle on {agreement} of a random sample"
            ));
        }
    }
    Ok(())
}

/// The Φ feature vector of an arbiter challenge: suffix products of
/// `1 − 2c`, then a constant 1.
pub fn phi(c: &BitVec) -> Vec<f64> {
    let n = c.len();
    let mut out = vec![1.0; n + 1];
    let mut acc = 1.0;
    for i in (0..n).rev() {
        if c.get(i) {
            acc = -acc;
        }
        out[i] = acc;
    }
    out
}

fn dot(w: &[f64], x: &[f64]) -> f64 {
    w.iter().zip(x).map(|(a, b)| a * b).sum()
}

/// Ideal response of an XOR of arbiter chains with delay weights
/// `chains`: each chain answers 1 iff `w·Φ(c) < 0`.
pub fn xor_arbiter_response(chains: &[&[f64]], c: &BitVec) -> bool {
    let f = phi(c);
    chains.iter().fold(false, |acc, w| acc ^ (dot(w, &f) < 0.0))
}

/// Held-out accuracy of a Φ-linear model (`1` iff `w·Φ(c) ≤ 0`) against
/// the ground truth of `chains`, over `challenges`.
pub fn phi_model_accuracy(chains: &[&[f64]], weights: &[f64], challenges: &[BitVec]) -> f64 {
    let correct = challenges
        .iter()
        .filter(|c| (dot(weights, &phi(c)) <= 0.0) == xor_arbiter_response(chains, c))
        .count();
    correct as f64 / challenges.len() as f64
}

/// One step of the splitmix64 generator.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlam::locking::lock_xor;
    use mlam::netlist::generate::{c17, random_circuit};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn word_evaluator_matches_scalar_simulation() {
        let mut rng = StdRng::seed_from_u64(5);
        let net = random_circuit(7, 40, 3, &mut rng);
        let inputs: Vec<u64> = (0..7u64).map(|i| splitmix64(&mut (i + 11))).collect();
        let words = eval_words(&net, &inputs);
        for lane in 0..64 {
            let bits: Vec<bool> = inputs.iter().map(|w| w >> lane & 1 == 1).collect();
            let want = net.simulate(&bits);
            let got: Vec<bool> = words.iter().map(|w| w >> lane & 1 == 1).collect();
            assert_eq!(got, want, "lane {lane}");
        }
    }

    #[test]
    fn correct_key_passes_and_a_wrong_key_fails() {
        let mut rng = StdRng::seed_from_u64(1);
        let oracle = c17();
        let locked = lock_xor(&oracle, 4, &mut rng);
        let key = locked.correct_key().clone();
        assert_eq!(check_key(&oracle, &locked, &key, None, 1), Ok(()));
        let mut wrong = key.clone();
        wrong.flip(0);
        assert!(check_key(&oracle, &locked, &wrong, None, 1).is_err());
        let short = BitVec::zeros(3);
        assert!(check_key(&oracle, &locked, &short, None, 1).is_err());
    }

    #[test]
    fn wide_circuits_need_the_bdd_verdict_and_the_sample() {
        let mut rng = StdRng::seed_from_u64(2);
        let oracle = random_circuit(20, 120, 2, &mut rng);
        let locked = lock_xor(&oracle, 16, &mut rng);
        let key = locked.correct_key().clone();
        assert_eq!(check_key(&oracle, &locked, &key, Some(true), 3), Ok(()));
        assert!(check_key(&oracle, &locked, &key, Some(false), 3).is_err());
        let mut wrong = key.clone();
        wrong.flip(5);
        assert!(sampled_agreement(&oracle, &locked, &wrong, 3) < 1.0);
        assert!(check_key(&oracle, &locked, &wrong, Some(true), 3).is_err());
    }

    #[test]
    fn phi_matches_the_puf_crate_and_scores_models() {
        let mut rng = StdRng::seed_from_u64(4);
        let puf = mlam::puf::ArbiterPuf::sample(16, 0.0, &mut rng);
        let challenges: Vec<BitVec> = (0..200).map(|_| BitVec::random(16, &mut rng)).collect();
        for c in &challenges {
            assert_eq!(phi(c), mlam::puf::phi_transform(c));
            let truth = mlam::boolean::BooleanFunction::eval(&puf, c);
            assert_eq!(xor_arbiter_response(&[puf.weights()], c), truth);
        }
        // The true weights score 1 under the `≤ 0 ⇒ 1` model rule; the
        // negated weights are a model that must fail any accuracy bar.
        let w = puf.weights();
        assert_eq!(phi_model_accuracy(&[w], w, &challenges), 1.0);
        let negated: Vec<f64> = w.iter().map(|x| -x).collect();
        assert_eq!(phi_model_accuracy(&[w], &negated, &challenges), 0.0);
    }
}
