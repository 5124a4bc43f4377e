//! AppSAT: approximate deobfuscation (Shamsi et al. \[5\]).
//!
//! AppSAT interleaves the exact DIP loop with batches of *random*
//! queries and stops as soon as the current key candidate's empirical
//! error rate stays below a threshold for several consecutive rounds.
//! The paper's Section V-A observes that this online-ML procedure
//! converts into a (uniform-distribution) PAC learner: the settlement
//! test is exactly an Angluin-style simulated equivalence query, and
//! the returned key is an ε-approximation rather than an exact key —
//! the distinction between approximate and exact inference that
//! Section IV-A turns on.
//!
//! Like the exact attack, AppSAT now runs on one persistent
//! [`DipSolver`]: the per-round key candidate is an assumption-mode
//! probe of the same instance that finds DIPs, so settlement rounds no
//! longer pay for a separate key-consistency solver.

use crate::combinational::{draw_lanes, LockedNetlist};
use crate::dip::DipSolver;
use mlam_boolean::BitVec;
use mlam_netlist::Netlist;
use mlam_sat::SolverStats;
use rand::Rng;

/// Configuration of AppSAT.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AppSatConfig {
    /// DIP iterations between random-query rounds.
    pub dips_per_round: usize,
    /// Random queries per settlement round.
    pub queries_per_round: usize,
    /// Error threshold below which a round counts as "settled".
    pub error_threshold: f64,
    /// Consecutive settled rounds required to stop.
    pub settlement_rounds: usize,
    /// Hard cap on total rounds.
    pub max_rounds: usize,
}

impl Default for AppSatConfig {
    fn default() -> Self {
        AppSatConfig {
            dips_per_round: 4,
            queries_per_round: 32,
            error_threshold: 0.02,
            settlement_rounds: 3,
            max_rounds: 200,
        }
    }
}

/// Result of an AppSAT run.
#[derive(Clone, Debug)]
pub struct AppSatResult {
    /// The (approximate) key returned.
    pub key: BitVec,
    /// Total DIP iterations.
    pub dip_iterations: usize,
    /// Total random queries.
    pub random_queries: usize,
    /// Whether the run settled (vs. the miter going UNSAT, which means
    /// the key is exact).
    pub settled_early: bool,
    /// Empirical accuracy of the returned key on fresh random inputs.
    pub estimated_accuracy: f64,
    /// Statistics of the persistent attack solver.
    pub solver_stats: SolverStats,
}

/// Runs AppSAT against `locked` with `oracle` as the activated chip.
///
/// # Panics
///
/// Panics on shape mismatches or when `max_rounds` is exhausted without
/// settlement (raise the budget for pathological instances).
pub fn appsat<R: Rng + ?Sized>(
    locked: &LockedNetlist,
    oracle: &Netlist,
    config: AppSatConfig,
    rng: &mut R,
) -> AppSatResult {
    appsat_with(locked, oracle, config, rng, settlement_round)
}

/// One settlement round's wrong queries: `(input, oracle response)`
/// pairs, in query order.
type WrongQueries = Vec<(Vec<bool>, Vec<bool>)>;

/// The AppSAT loop, with the settlement round's sampling passed in (the
/// tests run it against the one-query-at-a-time reference).
fn appsat_with<R: Rng + ?Sized>(
    locked: &LockedNetlist,
    oracle: &Netlist,
    config: AppSatConfig,
    rng: &mut R,
    settle: fn(&LockedNetlist, &Netlist, &BitVec, usize, &mut R) -> WrongQueries,
) -> AppSatResult {
    assert_eq!(oracle.num_inputs(), locked.num_primary_inputs());
    assert_eq!(oracle.num_outputs(), locked.netlist().num_outputs());

    let mut dip_solver = DipSolver::new(locked);

    let _span = mlam_telemetry::span("locking.appsat").attr("key_bits", locked.num_key_bits());
    let mut dip_iterations = 0usize;
    let mut random_queries = 0usize;
    let mut consecutive_settled = 0usize;
    let mut exact = false;

    'outer: for _round in 0..config.max_rounds {
        // Phase 1: a few exact DIPs.
        for _ in 0..config.dips_per_round {
            match dip_solver.find_dip() {
                Some(dip) => {
                    dip_iterations += 1;
                    mlam_telemetry::counter!("locking.appsat.dips", 1);
                    let response = oracle.simulate(&dip);
                    dip_solver.constrain(&dip, &response);
                    // Learning-curve checkpoint at log-spaced DIP
                    // counts, same remaining-key-space proxy as the
                    // exact SAT attack; the settled accuracy closes the
                    // curve at the end of the run.
                    if mlam_telemetry::curves::recording()
                        && mlam_telemetry::curves::should_checkpoint(
                            dip_iterations as u64,
                            (config.dips_per_round * config.max_rounds) as u64,
                        )
                    {
                        mlam_telemetry::curves::checkpoint(
                            "appsat",
                            dip_iterations as u64,
                            crate::sat_attack::key_space_proxy(
                                dip_iterations,
                                locked.num_key_bits(),
                            ),
                            None,
                        );
                    }
                }
                None => {
                    exact = true;
                    break 'outer;
                }
            }
        }

        // Phase 2: random queries + settlement test on the current key
        // candidate (an assumption-mode probe of the same solver).
        let key = dip_solver.extract_key();
        let round_queries = settle(locked, oracle, &key, config.queries_per_round, rng);
        random_queries += config.queries_per_round;
        // Reinforce: wrong queries become constraints.
        for (x, response) in &round_queries {
            dip_solver.constrain(x, response);
        }
        let err_rate = round_queries.len() as f64 / config.queries_per_round as f64;
        if err_rate <= config.error_threshold {
            consecutive_settled += 1;
            if consecutive_settled >= config.settlement_rounds {
                break;
            }
        } else {
            consecutive_settled = 0;
        }
    }

    let key = dip_solver.extract_key();
    let estimated_accuracy = locked.key_accuracy(oracle, &key, 2000, rng);
    // Close the curve with the key's measured accuracy (the validation
    // sample is not metered as attack queries — it is the
    // experimenter's, not the adversary's).
    if mlam_telemetry::curves::recording() {
        mlam_telemetry::curves::checkpoint(
            "appsat",
            dip_iterations as u64,
            estimated_accuracy,
            None,
        );
    }
    AppSatResult {
        key,
        dip_iterations,
        random_queries,
        settled_early: !exact,
        estimated_accuracy,
        solver_stats: dip_solver.stats(),
    }
}

/// Draws `queries` random patterns, asks the oracle, and returns those
/// on which `key` is wrong. Every query is drawn (there is no early
/// exit), so patterns are drawn in order and evaluated 64 per pass —
/// the same draws and the same wrong queries, in the same order, as
/// one pattern at a time. The `locking.appsat.random_queries` counter
/// moves once per block; no curve checkpoint falls inside a round.
fn settlement_round<R: Rng + ?Sized>(
    locked: &LockedNetlist,
    oracle: &Netlist,
    key: &BitVec,
    queries: usize,
    rng: &mut R,
) -> WrongQueries {
    let np = locked.num_primary_inputs();
    let mut words = locked.input_words(key);
    let (mut ours, mut theirs) = (Vec::new(), Vec::new());
    let mut wrong = Vec::new();
    let mut drawn = 0usize;
    while drawn < queries {
        let lanes = (queries - drawn).min(64);
        let mask = draw_lanes(rng, lanes, &mut words[..np]);
        oracle.simulate_words(&words[..np], &mut theirs);
        locked.netlist().simulate_words(&words, &mut ours);
        mlam_telemetry::counter!("locking.appsat.random_queries", lanes);
        let mut diff = locked.netlist().output_diff(&ours, oracle, &theirs) & mask;
        while diff != 0 {
            let lane = diff.trailing_zeros();
            diff &= diff - 1;
            let x = words[..np].iter().map(|w| w >> lane & 1 == 1).collect();
            let response = oracle
                .outputs()
                .iter()
                .map(|o| theirs[o.index()] >> lane & 1 == 1)
                .collect();
            wrong.push((x, response));
        }
        drawn += lanes;
    }
    wrong
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::combinational::lock_xor;
    use mlam_netlist::generate::{c17, random_circuit, ripple_adder};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The one-query-at-a-time settlement loop that
    /// [`settlement_round`] replaced; the reference it must match.
    fn settlement_round_scalar<R: Rng + ?Sized>(
        locked: &LockedNetlist,
        oracle: &Netlist,
        key: &BitVec,
        queries: usize,
        rng: &mut R,
    ) -> WrongQueries {
        let mut wrong = Vec::new();
        for _ in 0..queries {
            let x: Vec<bool> = (0..locked.num_primary_inputs())
                .map(|_| rng.gen())
                .collect();
            let response = oracle.simulate(&x);
            if locked.simulate(&x, key) != response {
                wrong.push((x, response));
            }
        }
        wrong
    }

    #[test]
    fn block_settlement_matches_the_scalar_reference() {
        let mut gen = StdRng::seed_from_u64(17);
        for case in 0..6u64 {
            let oracle = random_circuit(6 + case as usize, 50, 2, &mut gen);
            let locked = lock_xor(&oracle, 10, &mut gen);
            for queries_per_round in [1, 32, 64, 100] {
                let config = AppSatConfig {
                    queries_per_round,
                    ..AppSatConfig::default()
                };
                let mut a = StdRng::seed_from_u64(case * 131 + queries_per_round as u64);
                let mut b = a.clone();
                let fast = appsat(&locked, &oracle, config, &mut a);
                let slow = appsat_with(&locked, &oracle, config, &mut b, settlement_round_scalar);
                let what = format!("case {case}, {queries_per_round} queries per round");
                assert_eq!(fast.key, slow.key, "{what}");
                assert_eq!(fast.dip_iterations, slow.dip_iterations, "{what}");
                assert_eq!(fast.random_queries, slow.random_queries, "{what}");
                assert_eq!(
                    fast.estimated_accuracy.to_bits(),
                    slow.estimated_accuracy.to_bits(),
                    "{what}"
                );
                assert_eq!(fast.solver_stats, slow.solver_stats, "{what}");
                assert_eq!(a.gen::<u64>(), b.gen::<u64>(), "{what}: RNG state");
            }
        }
    }

    #[test]
    fn reaches_high_accuracy_on_c17() {
        let mut rng = StdRng::seed_from_u64(1);
        let oracle = c17();
        let locked = lock_xor(&oracle, 4, &mut rng);
        let result = appsat(&locked, &oracle, AppSatConfig::default(), &mut rng);
        assert!(
            result.estimated_accuracy > 0.97,
            "accuracy {}",
            result.estimated_accuracy
        );
    }

    #[test]
    fn reaches_high_accuracy_on_adder() {
        let mut rng = StdRng::seed_from_u64(2);
        let oracle = ripple_adder(3);
        let locked = lock_xor(&oracle, 8, &mut rng);
        let result = appsat(&locked, &oracle, AppSatConfig::default(), &mut rng);
        assert!(
            result.estimated_accuracy > 0.95,
            "accuracy {}",
            result.estimated_accuracy
        );
        assert!(result.dip_iterations + result.random_queries > 0);
    }

    #[test]
    fn random_circuit_settles() {
        let mut rng = StdRng::seed_from_u64(3);
        let oracle = random_circuit(10, 50, 2, &mut rng);
        let locked = lock_xor(&oracle, 12, &mut rng);
        let result = appsat(&locked, &oracle, AppSatConfig::default(), &mut rng);
        assert!(
            result.estimated_accuracy > 0.9,
            "accuracy {}",
            result.estimated_accuracy
        );
    }

    #[test]
    fn tight_threshold_still_terminates_via_unsat() {
        // With a zero error threshold AppSAT only stops by settling at
        // perfect rounds or by exhausting the miter — on a small circuit
        // the latter happens quickly.
        let mut rng = StdRng::seed_from_u64(4);
        let oracle = c17();
        let locked = lock_xor(&oracle, 3, &mut rng);
        let cfg = AppSatConfig {
            error_threshold: 0.0,
            ..Default::default()
        };
        let result = appsat(&locked, &oracle, cfg, &mut rng);
        assert!(result.estimated_accuracy > 0.99);
    }
}
