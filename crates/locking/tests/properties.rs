//! Property-based tests for locking schemes and attacks.

use mlam_locking::combinational::lock_xor;
use mlam_locking::lock_sarlock;
use mlam_locking::sat_attack::{sat_attack, SatAttackConfig};
use mlam_locking::sequential::{Fsm, ObfuscatedFsm};
use mlam_netlist::generate::random_circuit;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Locking with the correct key is always functionally transparent.
    #[test]
    fn correct_key_is_transparent(seed in any::<u64>(), key_bits in 1usize..10) {
        let mut rng = StdRng::seed_from_u64(seed);
        let oracle = random_circuit(7, 30, 2, &mut rng);
        let locked = lock_xor(&oracle, key_bits, &mut rng);
        let key = locked.correct_key().clone();
        prop_assert!(locked.equivalent_under_key(&oracle, &key));
    }

    /// The word-parallel exhaustive check agrees with the BDD check for
    /// the correct key and every single-bit flip of it, on XOR- and
    /// SARLock-locked circuits of 1–14 inputs (below 6 inputs the one
    /// block is partly masked).
    #[test]
    fn exhaustive_key_check_agrees_with_bdd(
        seed in any::<u64>(),
        inputs in 1usize..15,
        sarlock in any::<bool>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let oracle = random_circuit(inputs, 24, 1 + inputs % 3, &mut rng);
        let locked = if sarlock {
            lock_sarlock(&oracle, inputs.min(4), &mut rng)
        } else {
            lock_xor(&oracle, 6, &mut rng)
        };
        let correct = locked.correct_key().clone();
        prop_assert!(locked.equivalent_under_key(&oracle, &correct));
        prop_assert!(locked.equivalent_under_key_formal(&oracle, &correct));
        for i in 0..correct.len() {
            let key = correct.with_flipped(i);
            prop_assert_eq!(
                locked.equivalent_under_key(&oracle, &key),
                locked.equivalent_under_key_formal(&oracle, &key),
                "key bit {} flipped", i
            );
        }
    }

    /// The SAT attack always recovers a functionally correct key.
    #[test]
    fn sat_attack_always_succeeds(seed in any::<u64>(), key_bits in 1usize..9) {
        let mut rng = StdRng::seed_from_u64(seed);
        let oracle = random_circuit(7, 30, 2, &mut rng);
        let locked = lock_xor(&oracle, key_bits, &mut rng);
        let result = sat_attack(&locked, &oracle, SatAttackConfig::default());
        prop_assert!(result.key_is_functionally_correct);
        prop_assert!(result.iterations <= 1 << key_bits);
    }

    /// The obfuscated FSM's functional mode is reached by the unlock
    /// sequence and the behaviour thereafter equals the original.
    #[test]
    fn unlock_sequence_restores_functionality(
        seed in any::<u64>(),
        states in 2usize..8,
        len in 1usize..5,
        probe in prop::collection::vec(0usize..2, 0..8),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let fsm = Fsm::random(states, 2, &mut rng);
        let seq: Vec<usize> = (0..len).map(|_| rand::Rng::gen_range(&mut rng, 0..2)).collect();
        let obf = ObfuscatedFsm::new(fsm.clone(), seq.clone());
        let mut word = seq.clone();
        word.extend_from_slice(&probe);
        prop_assert_eq!(obf.combined().output(&word), fsm.output(&probe));
    }

    /// Before the unlock sequence completes, the output is the
    /// obfuscation constant (false).
    #[test]
    fn partial_unlock_stays_locked(seed in any::<u64>(), states in 2usize..6) {
        let mut rng = StdRng::seed_from_u64(seed);
        let fsm = Fsm::random(states, 2, &mut rng);
        // Unlock sequence of length 4; feed only 3 symbols of it.
        let seq: Vec<usize> = (0..4).map(|_| rand::Rng::gen_range(&mut rng, 0..2)).collect();
        let obf = ObfuscatedFsm::new(fsm, seq.clone());
        prop_assert!(!obf.combined().output(&seq[..3]));
        prop_assert!(!obf.combined().output(&[]));
    }
}
