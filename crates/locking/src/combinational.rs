//! Combinational logic locking by XOR/XNOR key-gate insertion
//! (EPIC-style random insertion).

use mlam_boolean::{BitVec, BooleanFunction};
use mlam_netlist::{exhaustive_blocks, GateKind, Net, Netlist};
use rand::seq::SliceRandom;
use rand::Rng;

/// A locked netlist: the original circuit with key gates inserted.
///
/// The locked netlist's inputs are the primary inputs followed by the
/// key inputs; with the correct key applied it is functionally
/// equivalent to the original.
#[derive(Clone, Debug)]
pub struct LockedNetlist {
    netlist: Netlist,
    num_primary: usize,
    num_key: usize,
    correct_key: BitVec,
}

impl LockedNetlist {
    /// Assembles a locked netlist from parts (used by the locking
    /// schemes in this crate).
    ///
    /// # Panics
    ///
    /// Panics if the netlist's input count differs from
    /// `num_primary + correct_key.len()`.
    pub(crate) fn from_parts(
        netlist: Netlist,
        num_primary: usize,
        num_key: usize,
        correct_key: BitVec,
    ) -> Self {
        assert_eq!(correct_key.len(), num_key, "key length");
        assert_eq!(
            netlist.num_inputs(),
            num_primary + num_key,
            "input partition"
        );
        LockedNetlist {
            netlist,
            num_primary,
            num_key,
            correct_key,
        }
    }

    /// The locked netlist itself (inputs = primary ++ key).
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// Number of primary inputs.
    pub fn num_primary_inputs(&self) -> usize {
        self.num_primary
    }

    /// Number of key bits.
    pub fn num_key_bits(&self) -> usize {
        self.num_key
    }

    /// The correct key (the designer's secret; attacks must not read
    /// it, it exists for validation).
    pub fn correct_key(&self) -> &BitVec {
        &self.correct_key
    }

    /// Simulates the locked circuit under a primary input and a key.
    ///
    /// # Panics
    ///
    /// Panics on width mismatches.
    pub fn simulate(&self, primary: &[bool], key: &BitVec) -> Vec<bool> {
        assert_eq!(primary.len(), self.num_primary, "primary input width");
        assert_eq!(key.len(), self.num_key, "key width");
        let mut inputs = primary.to_vec();
        inputs.extend(key.iter());
        self.netlist.simulate(&inputs)
    }

    /// A single-output view of the locked circuit under a fixed key, as
    /// a [`BooleanFunction`] over the primary inputs. This is the
    /// *concept* a PAC attack learns.
    ///
    /// # Panics
    ///
    /// Panics if `output >= num_outputs` or the key width mismatches.
    pub fn keyed_output(&self, output: usize, key: BitVec) -> KeyedOutput<'_> {
        assert!(output < self.netlist.num_outputs(), "output out of range");
        assert_eq!(key.len(), self.num_key, "key width");
        KeyedOutput {
            locked: self,
            output,
            key,
        }
    }

    /// Checks functional equivalence with `original` under `key`,
    /// exhaustively for small inputs, 64 patterns per evaluation (see
    /// [`exhaustive_blocks`]).
    ///
    /// # Panics
    ///
    /// Panics on shape or key-width mismatches and if
    /// `num_primary > 20`; use
    /// [`equivalent_under_key_formal`](Self::equivalent_under_key_formal)
    /// for wider circuits.
    pub fn equivalent_under_key(&self, original: &Netlist, key: &BitVec) -> bool {
        assert!(self.num_primary <= 20, "exhaustive check limit");
        assert_eq!(
            original.num_outputs(),
            self.netlist.num_outputs(),
            "output count"
        );
        let np = self.num_primary;
        let (mut ours, mut theirs) = (Vec::new(), Vec::new());
        exhaustive_blocks(np, &self.input_words(key)[np..], |words, mask| {
            self.netlist.simulate_words(words, &mut ours);
            original.simulate_words(&words[..np], &mut theirs);
            self.netlist.output_diff(&ours, original, &theirs) & mask == 0
        })
    }

    /// Formal (BDD-based) functional-equivalence check with `original`
    /// under `key` — no input-width limit beyond BDD tractability.
    pub fn equivalent_under_key_formal(&self, original: &Netlist, key: &BitVec) -> bool {
        use mlam_netlist::bdd::BddManager;
        assert_eq!(original.num_inputs(), self.num_primary, "input width");
        assert_eq!(key.len(), self.num_key, "key width");
        let mut mgr = BddManager::new(self.num_primary);
        let orig = mgr.build_netlist(original);
        let unlocked = self.apply_key(key);
        let ours = mgr.build_netlist(&unlocked);
        orig == ours
    }

    /// Constant-folds the key into the locked netlist, producing a
    /// circuit over the primary inputs only.
    ///
    /// # Panics
    ///
    /// Panics if the key width mismatches.
    pub fn apply_key(&self, key: &BitVec) -> Netlist {
        assert_eq!(key.len(), self.num_key, "key width");
        let mut b = Netlist::builder(self.num_primary, self.netlist.num_outputs());
        // Constants: XOR(i0, i0) = 0, XNOR(i0, i0) = 1.
        let i0 = b.input(0);
        let zero = b.gate(GateKind::Xor, vec![i0, i0]);
        let one = b.gate(GateKind::Xnor, vec![i0, i0]);
        let mut map: Vec<Net> = Vec::with_capacity(self.netlist.num_nets());
        for i in 0..self.num_primary {
            map.push(b.input(i));
        }
        for i in 0..self.num_key {
            map.push(if key.get(i) { one } else { zero });
        }
        for gate in self.netlist.gates() {
            let ins: Vec<Net> = gate.inputs.iter().map(|n| map[n.index()]).collect();
            map.push(b.gate(gate.kind, ins));
        }
        for (oi, net) in self.netlist.outputs().iter().enumerate() {
            b.set_output(oi, map[net.index()]);
        }
        b.build()
    }

    /// Estimates the accuracy of `key` against `original` on `samples`
    /// random inputs (for large circuits where the exhaustive check is
    /// infeasible).
    ///
    /// Draws `rng.gen::<bool>()` per primary input per sample, sample by
    /// sample, and evaluates 64 samples per pass (sample `s` in lane
    /// `s % 64`), so the estimate and the RNG state afterwards are those
    /// of a one-sample-at-a-time loop.
    pub fn key_accuracy<R: Rng + ?Sized>(
        &self,
        original: &Netlist,
        key: &BitVec,
        samples: usize,
        rng: &mut R,
    ) -> f64 {
        assert!(samples > 0);
        let np = self.num_primary;
        let mut words = self.input_words(key);
        let (mut ours, mut theirs) = (Vec::new(), Vec::new());
        let mut agree = 0usize;
        let mut drawn = 0usize;
        while drawn < samples {
            let lanes = (samples - drawn).min(64);
            let mask = draw_lanes(rng, lanes, &mut words[..np]);
            self.netlist.simulate_words(&words, &mut ours);
            original.simulate_words(&words[..np], &mut theirs);
            let diff = self.netlist.output_diff(&ours, original, &theirs);
            agree += (!diff & mask).count_ones() as usize;
            drawn += lanes;
        }
        agree as f64 / samples as f64
    }

    /// Input words of the locked netlist for
    /// [`Netlist::simulate_words`]: `num_primary` zero words to fill
    /// with patterns, then each key bit broadcast to every lane.
    ///
    /// # Panics
    ///
    /// Panics if the key width mismatches.
    pub(crate) fn input_words(&self, key: &BitVec) -> Vec<u64> {
        assert_eq!(key.len(), self.num_key, "key width");
        let mut words = vec![0u64; self.num_primary];
        words.extend(key.iter().map(|b| 0u64.wrapping_sub(u64::from(b))));
        words
    }
}

/// Draws `lanes` (1–64) random patterns into `words`, pattern by
/// pattern and one `rng.gen::<bool>()` per word within a pattern —
/// the order of drawing one `Vec<bool>` per pattern. Pattern `j` goes
/// to lane `j`; the other lanes are cleared. Returns the mask of drawn
/// lanes.
pub(crate) fn draw_lanes<R: Rng + ?Sized>(rng: &mut R, lanes: usize, words: &mut [u64]) -> u64 {
    debug_assert!((1..=64).contains(&lanes));
    words.fill(0);
    for lane in 0..lanes {
        for w in words.iter_mut() {
            *w |= u64::from(rng.gen::<bool>()) << lane;
        }
    }
    if lanes == 64 {
        !0
    } else {
        (1u64 << lanes) - 1
    }
}

/// A locked output under a fixed key, as a Boolean function of the
/// primary inputs.
#[derive(Clone, Debug)]
pub struct KeyedOutput<'a> {
    locked: &'a LockedNetlist,
    output: usize,
    key: BitVec,
}

impl BooleanFunction for KeyedOutput<'_> {
    fn num_inputs(&self) -> usize {
        self.locked.num_primary
    }

    fn eval(&self, x: &BitVec) -> bool {
        let bits = x.to_bools();
        self.locked.simulate(&bits, &self.key)[self.output]
    }
}

/// Locks a netlist by inserting `key_bits` XOR/XNOR key gates at the
/// outputs of randomly chosen gates (EPIC-style random insertion \[3\]).
///
/// For key bit `i` with correct value `0`, an XOR gate is inserted
/// (identity at `k=0`); with correct value `1`, an XNOR gate (identity
/// at `k=1`). The correct key is drawn uniformly at random.
///
/// # Panics
///
/// Panics if `key_bits == 0` or the circuit has fewer gates than
/// `key_bits`.
pub fn lock_xor<R: Rng + ?Sized>(
    original: &Netlist,
    key_bits: usize,
    rng: &mut R,
) -> LockedNetlist {
    assert!(key_bits > 0, "need at least one key bit");
    assert!(
        original.num_gates() >= key_bits,
        "circuit has too few gates to lock"
    );
    let num_primary = original.num_inputs();
    let correct_key = BitVec::random(key_bits, rng);

    // Pick distinct gate positions to lock (by gate index).
    let mut positions: Vec<usize> = (0..original.num_gates()).collect();
    positions.shuffle(rng);
    positions.truncate(key_bits);
    positions.sort_unstable();

    // Rebuild: inputs = primary ++ key. Maintain a map old net -> new net.
    let mut b = Netlist::builder(num_primary + key_bits, original.num_outputs());
    let mut map: Vec<Net> = Vec::with_capacity(original.num_nets());
    for i in 0..num_primary {
        map.push(b.input(i));
    }
    let mut next_lock = 0usize;
    for (gi, gate) in original.gates().iter().enumerate() {
        let inputs: Vec<Net> = gate.inputs.iter().map(|n| map[n.index()]).collect();
        let mut out = b.gate(gate.kind, inputs);
        if next_lock < positions.len() && positions[next_lock] == gi {
            let key_idx = next_lock;
            let key_net = b.input(num_primary + key_idx);
            let kind = if correct_key.get(key_idx) {
                GateKind::Xnor
            } else {
                GateKind::Xor
            };
            out = b.gate(kind, vec![out, key_net]);
            next_lock += 1;
        }
        map.push(out);
    }
    for (oi, net) in original.outputs().iter().enumerate() {
        b.set_output(oi, map[net.index()]);
    }
    LockedNetlist {
        netlist: b.build(),
        num_primary,
        num_key: key_bits,
        correct_key,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlam_netlist::generate::{c17, random_circuit, ripple_adder};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn correct_key_restores_functionality() {
        let mut rng = StdRng::seed_from_u64(1);
        let orig = c17();
        let locked = lock_xor(&orig, 4, &mut rng);
        assert_eq!(locked.num_key_bits(), 4);
        assert_eq!(locked.num_primary_inputs(), 5);
        let key = locked.correct_key().clone();
        assert!(locked.equivalent_under_key(&orig, &key));
    }

    #[test]
    fn wrong_keys_usually_break_functionality() {
        let mut rng = StdRng::seed_from_u64(2);
        let orig = ripple_adder(3);
        let locked = lock_xor(&orig, 6, &mut rng);
        let correct = locked.correct_key().clone();
        let mut breaking = 0;
        for i in 0..6 {
            let wrong = correct.with_flipped(i);
            if !locked.equivalent_under_key(&orig, &wrong) {
                breaking += 1;
            }
        }
        // XOR key gates are individually corrupting unless masked
        // downstream; most single-bit flips must break the circuit.
        assert!(breaking >= 4, "only {breaking}/6 flips broke the circuit");
    }

    #[test]
    fn key_accuracy_of_correct_key_is_one() {
        let mut rng = StdRng::seed_from_u64(3);
        let orig = random_circuit(10, 60, 2, &mut rng);
        let locked = lock_xor(&orig, 8, &mut rng);
        let key = locked.correct_key().clone();
        assert_eq!(locked.key_accuracy(&orig, &key, 500, &mut rng), 1.0);
    }

    /// The one-sample-at-a-time estimate that
    /// [`LockedNetlist::key_accuracy`] replaced; the reference it must
    /// match bit for bit, RNG state included.
    fn key_accuracy_scalar<R: Rng + ?Sized>(
        locked: &LockedNetlist,
        original: &Netlist,
        key: &BitVec,
        samples: usize,
        rng: &mut R,
    ) -> f64 {
        assert!(samples > 0);
        let mut agree = 0usize;
        for _ in 0..samples {
            let bits: Vec<bool> = (0..locked.num_primary).map(|_| rng.gen()).collect();
            if locked.simulate(&bits, key) == original.simulate(&bits) {
                agree += 1;
            }
        }
        agree as f64 / samples as f64
    }

    #[test]
    fn key_accuracy_matches_the_scalar_reference_bit_for_bit() {
        let mut gen = StdRng::seed_from_u64(31);
        for case in 0..12u64 {
            let orig = random_circuit(3 + case as usize, 30, 1 + case as usize % 3, &mut gen);
            let locked = lock_xor(&orig, 6, &mut gen);
            let correct = locked.correct_key().clone();
            let keys = [
                correct.clone(),
                correct.with_flipped(0),
                BitVec::random(6, &mut gen),
            ];
            for key in &keys {
                for samples in [1, 63, 64, 65, 2000] {
                    let mut a = StdRng::seed_from_u64(case * 7919 + samples as u64);
                    let mut b = a.clone();
                    let fast = locked.key_accuracy(&orig, key, samples, &mut a);
                    let slow = key_accuracy_scalar(&locked, &orig, key, samples, &mut b);
                    assert_eq!(
                        fast.to_bits(),
                        slow.to_bits(),
                        "case {case}, {samples} samples"
                    );
                    assert_eq!(a.gen::<u64>(), b.gen::<u64>(), "RNG state after the call");
                }
            }
        }
    }

    #[test]
    fn keyed_output_is_a_boolean_function() {
        let mut rng = StdRng::seed_from_u64(4);
        let orig = c17();
        let locked = lock_xor(&orig, 3, &mut rng);
        let key = locked.correct_key().clone();
        let f = locked.keyed_output(0, key.clone());
        assert_eq!(f.num_inputs(), 5);
        for v in 0..32u64 {
            let x = BitVec::from_u64(v, 5);
            let expected = orig.simulate(&x.to_bools())[0];
            assert_eq!(f.eval(&x), expected);
        }
    }

    #[test]
    fn locked_netlist_has_more_gates() {
        let mut rng = StdRng::seed_from_u64(5);
        let orig = c17();
        let locked = lock_xor(&orig, 4, &mut rng);
        assert_eq!(locked.netlist().num_gates(), orig.num_gates() + 4);
        assert_eq!(locked.netlist().num_inputs(), orig.num_inputs() + 4);
    }

    #[test]
    #[should_panic(expected = "too few gates")]
    fn overlocking_panics() {
        let mut rng = StdRng::seed_from_u64(6);
        lock_xor(&c17(), 100, &mut rng);
    }
}

#[cfg(test)]
mod formal_tests {
    use super::*;
    use mlam_netlist::generate::{c17, ripple_adder};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn apply_key_folds_constants_correctly() {
        let mut rng = StdRng::seed_from_u64(1);
        let orig = c17();
        let locked = lock_xor(&orig, 4, &mut rng);
        let key = locked.correct_key().clone();
        let unlocked = locked.apply_key(&key);
        assert_eq!(unlocked.num_inputs(), 5);
        assert!(unlocked.equivalent_exhaustive(&orig));
    }

    #[test]
    fn formal_check_agrees_with_exhaustive() {
        let mut rng = StdRng::seed_from_u64(2);
        let orig = ripple_adder(3);
        let locked = lock_xor(&orig, 6, &mut rng);
        let correct = locked.correct_key().clone();
        assert!(locked.equivalent_under_key_formal(&orig, &correct));
        assert_eq!(
            locked.equivalent_under_key(&orig, &correct),
            locked.equivalent_under_key_formal(&orig, &correct)
        );
        // A wrong key that breaks the exhaustive check also fails formally.
        for i in 0..6 {
            let wrong = correct.with_flipped(i);
            assert_eq!(
                locked.equivalent_under_key(&orig, &wrong),
                locked.equivalent_under_key_formal(&orig, &wrong),
                "bit {i}"
            );
        }
    }

    #[test]
    fn formal_check_scales_past_the_exhaustive_limit() {
        // 24 primary inputs: exhaustive is infeasible, BDD is instant.
        let mut rng = StdRng::seed_from_u64(3);
        let orig = ripple_adder(12);
        let locked = lock_xor(&orig, 16, &mut rng);
        let key = locked.correct_key().clone();
        assert!(locked.equivalent_under_key_formal(&orig, &key));
        let wrong = key.with_flipped(0);
        // A flipped key bit is formally detected (XOR insertion is
        // never masked in an adder's carry chain).
        assert!(!locked.equivalent_under_key_formal(&orig, &wrong));
    }
}
