//! The four workloads: the job set each builds from the seed, what one
//! job calls, and how its output is checked.
//!
//! Job shapes are fixed per workload; the seed only draws the random
//! structure (circuits, keys, delay weights, challenges), so seeds
//! differ in instances, not in size. Every call into a layer goes
//! through [`Tracer::call`], whose span name says which layer it is.

use crate::trace::Tracer;
use crate::verify;
use mlam::boolean::testing::{pocket_perceptron, HalfspaceTester, TesterReport, Verdict};
use mlam::boolean::{BitVec, BooleanFunction, ChowParameters, LinearThreshold};
use mlam::learn::features::ArbiterPhiFeatures;
use mlam::learn::logistic::{LogisticConfig, LogisticRegression};
use mlam::learn::perceptron::Perceptron;
use mlam::learn::{FeatureMatrix, LabeledSet};
use mlam::locking::appsat::{appsat, AppSatConfig, AppSatResult};
use mlam::locking::dip::DipSolver;
use mlam::locking::{lock_sarlock, lock_xor, LockedNetlist};
use mlam::netlist::cnf::tseitin_encode;
use mlam::netlist::generate::random_circuit;
use mlam::netlist::{equivalent_bdd, Cnf, Netlist};
use mlam::puf::crp::collect_uniform;
use mlam::puf::{ArbiterPuf, BistableRingPuf, BrPufConfig, CrpSet, XorArbiterPuf};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::hint::black_box;

/// Deterministic counts of one job or one round, by name. Sums of
/// counts and of accuracies only, so a round's counts repeat exactly.
pub type Counts = BTreeMap<&'static str, f64>;

// sat-sarlock: every wrong key is wrong on one input only, so the DIP
// loop needs 2^k − 1 DIPs and each solve grows with the DIP index.
const SARLOCK_JOBS: usize = 40;
const SARLOCK_INPUTS: usize = 12;
const SARLOCK_GATES: usize = 50;
const SARLOCK_KEY_BITS: usize = 6;

// sat-xorlock: a few DIPs per attack, so per-instance and per-call
// costs (miter, key extraction, BDD check, AppSAT sampling) dominate.
// Job i has 17 + i mod 6 inputs and 80 + 8·(i mod 5) gates: wide
// enough for the BDD check, small enough that solver time has no heavy
// tail, and many jobs so the sum is steady across seeds. Up to 160
// gates, the largest BDD of a job set ranged from 12 k to 48 k nodes
// over seeds and set the process's peak memory, whose spread across
// seeds then came near the benchmark's bound.
const XORLOCK_JOBS: usize = 120;
const XORLOCK_KEY_BITS: usize = 16;
const CIRCUIT_OUTPUTS: usize = 2;

// puf-learn: 64-stage arbiter chains, k = 1 (learnable over Φ) and
// k = 2 (Φ-linear models stay at chance: the representation pitfall).
const PUF_STAGES: usize = 64;
const PUF_JOBS: usize = 20;
const PUF_TRAIN: usize = 4000;
const PUF_TEST: usize = 2000;
const PERCEPTRON_EPOCHS: usize = 80;
/// Held-out accuracy a k = 1 instance must reach with either learner.
const LEARNABLE_MIN_ACCURACY: f64 = 0.95;
/// A Φ-linear model cannot represent the XOR of two chains; it beats
/// chance only by predicting one chain when the other is biased, which
/// is worth at most that chain's bias. Its held-out accuracy must stay
/// within this slack (about 4.5 standard errors on 2,000 held-out
/// CRPs) of 0.5 plus the largest chain bias.
const CHANCE_SLACK: f64 = 0.05;

// br-tester: calibrated 64-element BR PUFs (far from every halfspace)
// and, every third job, a random LTF control (a halfspace), tested at
// (ε, δ) = (0.1, 0.99).
const BR_STAGES: usize = 64;
const BR_JOBS: usize = 9;
const BR_CRPS: usize = 2000;
const TESTER_EPS: f64 = 0.1;
const TESTER_DELTA: f64 = 0.99;
const POCKET_EPOCHS: usize = 30;

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Exact SAT attack on SARLock-locked random circuits.
    SatSarlock,
    /// Exact SAT attack, then AppSAT, on XOR-locked random circuits.
    SatXorlock,
    /// CRP collection and Φ-space learners on Arbiter / 2-XOR PUFs.
    PufLearn,
    /// Halfspace tester on BR PUFs and LTF controls.
    BrTester,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::SatSarlock,
        Workload::SatXorlock,
        Workload::PufLearn,
        Workload::BrTester,
    ];

    /// The name used on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SatSarlock => "sat-sarlock",
            Workload::SatXorlock => "sat-xorlock",
            Workload::PufLearn => "puf-learn",
            Workload::BrTester => "br-tester",
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Builds the job set for `seed`: instances only, no attack work.
    pub fn setup(self, seed: u64) -> Vec<Job> {
        let salt = self as u64 + 1;
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9).wrapping_add(salt));
        match self {
            Workload::SatSarlock => (0..SARLOCK_JOBS)
                .map(|_| {
                    let oracle =
                        random_circuit(SARLOCK_INPUTS, SARLOCK_GATES, CIRCUIT_OUTPUTS, &mut rng);
                    let locked = lock_sarlock(&oracle, SARLOCK_KEY_BITS, &mut rng);
                    Job::new(
                        &mut rng,
                        JobKind::Sat {
                            oracle,
                            locked,
                            appsat: false,
                        },
                    )
                })
                .collect(),
            Workload::SatXorlock => (0..XORLOCK_JOBS)
                .map(|i| {
                    let inputs = 17 + i % 6;
                    let gates = 80 + 8 * (i % 5);
                    let oracle = random_circuit(inputs, gates, CIRCUIT_OUTPUTS, &mut rng);
                    let locked = lock_xor(&oracle, XORLOCK_KEY_BITS, &mut rng);
                    Job::new(
                        &mut rng,
                        JobKind::Sat {
                            oracle,
                            locked,
                            appsat: true,
                        },
                    )
                })
                .collect(),
            Workload::PufLearn => (0..PUF_JOBS)
                .map(|i| {
                    let device = if i % 2 == 0 {
                        Device::Arbiter(ArbiterPuf::sample(PUF_STAGES, 0.0, &mut rng))
                    } else {
                        Device::Xor(XorArbiterPuf::sample(PUF_STAGES, 2, 0.0, &mut rng))
                    };
                    Job::new(&mut rng, JobKind::Learn { device })
                })
                .collect(),
            Workload::BrTester => (0..BR_JOBS)
                .map(|i| {
                    let source = if i % 3 != 2 {
                        Source::Ring(BistableRingPuf::sample(
                            BR_STAGES,
                            BrPufConfig::calibrated(BR_STAGES),
                            &mut rng,
                        ))
                    } else {
                        Source::Ltf(LinearThreshold::random(BR_STAGES, &mut rng))
                    };
                    Job::new(&mut rng, JobKind::Tester { source })
                })
                .collect(),
        }
    }
}

/// One attack job: an instance plus the seed of its own random draws.
pub struct Job {
    seed: u64,
    kind: JobKind,
}

enum JobKind {
    Sat {
        oracle: Netlist,
        locked: LockedNetlist,
        appsat: bool,
    },
    Learn {
        device: Device,
    },
    Tester {
        source: Source,
    },
}

enum Device {
    Arbiter(ArbiterPuf),
    Xor(XorArbiterPuf),
}

impl Device {
    fn collect(&self, count: usize, rng: &mut StdRng) -> CrpSet {
        match self {
            Device::Arbiter(p) => collect_uniform(p, count, rng),
            Device::Xor(p) => collect_uniform(p, count, rng),
        }
    }

    fn chains(&self) -> Vec<&[f64]> {
        match self {
            Device::Arbiter(p) => vec![p.weights()],
            Device::Xor(p) => p.chains().iter().map(ArbiterPuf::weights).collect(),
        }
    }
}

enum Source {
    Ring(BistableRingPuf),
    Ltf(LinearThreshold),
}

/// What a job returns: its counts and what the checks need.
pub struct Outcome {
    /// Deterministic counts of this job.
    pub counts: Counts,
    output: Output,
}

enum Output {
    Sat {
        key: BitVec,
        /// The job's own equivalence verdict (simulation or BDD).
        equivalent: bool,
        bdd: Option<bool>,
        appsat: Option<AppSatResult>,
    },
    Learn {
        test: Vec<(BitVec, bool)>,
        /// `(learner, weights, reported held-out accuracy)`.
        models: Vec<(&'static str, Vec<f64>, f64)>,
        training_consistent: bool,
    },
    Tester {
        report: TesterReport,
        pocket: LinearThreshold,
        data: Vec<(BitVec, bool)>,
    },
}

fn add(counts: &mut Counts, name: &'static str, v: f64) {
    *counts.entry(name).or_default() += v;
}

impl Job {
    fn new(rng: &mut StdRng, kind: JobKind) -> Job {
        Job {
            seed: rng.gen(),
            kind,
        }
    }

    /// Runs the job, timing each layer call through `t`.
    pub fn run(&self, t: &mut Tracer) -> Outcome {
        let mut rng = StdRng::seed_from_u64(self.seed);
        match &self.kind {
            JobKind::Sat {
                oracle,
                locked,
                appsat,
            } => run_sat(oracle, locked, *appsat, &mut rng, t),
            JobKind::Learn { device } => run_learn(device, &mut rng, t),
            JobKind::Tester { source } => run_tester(source, &mut rng, t),
        }
    }

    /// Checks the job's output independently of the code under test.
    pub fn verify(&self, outcome: &Outcome) -> Result<(), String> {
        match (&self.kind, &outcome.output) {
            (
                JobKind::Sat { oracle, locked, .. },
                Output::Sat {
                    key,
                    equivalent,
                    bdd,
                    appsat,
                },
            ) => {
                verify::check_key(oracle, locked, key, *bdd, self.seed)?;
                if !equivalent {
                    return Err("the job's own equivalence check rejected a correct key".into());
                }
                if let Some(app) = appsat {
                    let agreement = verify::sampled_agreement(oracle, locked, &app.key, self.seed);
                    if agreement < 0.9 || (agreement - app.estimated_accuracy).abs() > 0.05 {
                        return Err(format!(
                            "AppSAT key agrees on {agreement} of a sample, reported {}",
                            app.estimated_accuracy
                        ));
                    }
                }
                Ok(())
            }
            (
                JobKind::Learn { device },
                Output::Learn {
                    test,
                    models,
                    training_consistent,
                },
            ) => {
                let chains = device.chains();
                if let Some((c, _)) = test
                    .iter()
                    .find(|(c, y)| verify::xor_arbiter_response(&chains, c) != *y)
                {
                    return Err(format!("CRP label disagrees with the delay model at {c:?}"));
                }
                if !training_consistent {
                    return Err(
                        "perceptron training accuracy disagrees with its error count".into(),
                    );
                }
                let challenges: Vec<BitVec> = test.iter().map(|(c, _)| c.clone()).collect();
                let max_bias = chains
                    .iter()
                    .map(|w| {
                        let ones = challenges
                            .iter()
                            .filter(|c| verify::xor_arbiter_response(&[*w], c))
                            .count();
                        (ones as f64 / challenges.len() as f64 - 0.5).abs()
                    })
                    .fold(0.0, f64::max);
                for (learner, weights, reported) in models {
                    let acc = verify::phi_model_accuracy(&chains, weights, &challenges);
                    if acc != *reported {
                        return Err(format!(
                            "{learner}: held-out accuracy {acc}, reported {reported}"
                        ));
                    }
                    let ok = if chains.len() == 1 {
                        acc >= LEARNABLE_MIN_ACCURACY
                    } else {
                        acc <= 0.5 + max_bias + CHANCE_SLACK
                    };
                    if !ok {
                        return Err(format!(
                            "{learner} on k={}: held-out accuracy {acc}, largest chain bias {max_bias}",
                            chains.len()
                        ));
                    }
                }
                Ok(())
            }
            (
                JobKind::Tester { source },
                Output::Tester {
                    report,
                    pocket,
                    data,
                },
            ) => {
                if report.examples_used != data.len() {
                    return Err(format!(
                        "tester used {} of {} examples",
                        report.examples_used,
                        data.len()
                    ));
                }
                let (want, class) = match source {
                    Source::Ring(_) => (Verdict::FarFromHalfspace, "BR PUF"),
                    Source::Ltf(_) => (Verdict::Halfspace, "LTF control"),
                };
                if report.verdict != want {
                    return Err(format!(
                        "{class}: verdict {:?}, distance {}",
                        report.verdict, report.distance_estimate
                    ));
                }
                if matches!(source, Source::Ltf(_)) {
                    let agree = data
                        .iter()
                        .filter(|(x, y)| ltf_eval(pocket, x) == *y)
                        .count();
                    let agreement = agree as f64 / data.len() as f64;
                    if agreement < 1.0 - TESTER_EPS {
                        return Err(format!(
                            "pocket fit of the LTF control agrees on {agreement}"
                        ));
                    }
                }
                Ok(())
            }
            _ => Err("job and output kinds differ".into()),
        }
    }
}

/// `1` iff `w·x − θ ≤ 0` over ±1 inputs (the LTF convention).
fn ltf_eval(f: &LinearThreshold, x: &BitVec) -> bool {
    let s: f64 = f
        .weights()
        .iter()
        .enumerate()
        .map(|(i, w)| if x.get(i) { -w } else { *w })
        .sum();
    s - f.threshold() <= 0.0
}

fn run_sat(
    oracle: &Netlist,
    locked: &LockedNetlist,
    with_appsat: bool,
    rng: &mut StdRng,
    t: &mut Tracer,
) -> Outcome {
    let mut counts = Counts::new();
    let mut solver = t.call("locking.miter", || DipSolver::new(locked));
    let mut dips = 0u32;
    let mut sims = 0u64;
    while let Some(dip) = t.call_arg("locking.find_dip", dips + 1, || solver.find_dip()) {
        dips += 1;
        let response = t.call("netlist.sim", || oracle.simulate(&dip));
        sims += 1;
        t.call("locking.constrain", || solver.constrain(&dip, &response));
    }
    let key = t.call("locking.key", || solver.extract_canonical_key());
    let stats = solver.stats();
    let cnf = t.call("netlist.encode", || {
        let mut cnf = Cnf::new(0);
        tseitin_encode(locked.netlist(), &mut cnf);
        cnf
    });
    black_box(cnf);

    let unlocked = t.call("locking.apply_key", || locked.apply_key(&key));
    let np = locked.num_primary_inputs();
    let (equivalent, bdd) = if np <= verify::EXHAUSTIVE_MAX_INPUTS {
        sims += 2 << np;
        let same = t.call("netlist.sim", || {
            (0..1u64 << np).all(|v| {
                let x: Vec<bool> = (0..np).map(|i| v >> i & 1 == 1).collect();
                oracle.simulate(&x) == unlocked.simulate(&x)
            })
        });
        (same, None)
    } else {
        let same = t.call("netlist.bdd", || equivalent_bdd(oracle, &unlocked));
        (same, Some(same))
    };

    let mut queries = f64::from(dips);
    let appsat = with_appsat.then(|| {
        t.call("locking.appsat", || {
            appsat(locked, oracle, AppSatConfig::default(), rng)
        })
    });
    let mut sat = stats;
    if let Some(app) = &appsat {
        add(
            &mut counts,
            "locking.appsat_dips",
            app.dip_iterations as f64,
        );
        add(
            &mut counts,
            "locking.appsat_queries",
            app.random_queries as f64,
        );
        add(&mut counts, "accuracy_sum", app.estimated_accuracy);
        add(&mut counts, "accuracy_n", 1.0);
        queries += (app.dip_iterations + app.random_queries) as f64;
        sat.accumulate(&app.solver_stats);
    } else {
        add(
            &mut counts,
            "accuracy_sum",
            if equivalent { 1.0 } else { 0.0 },
        );
        add(&mut counts, "accuracy_n", 1.0);
    }
    add(&mut counts, "queries", queries);
    add(&mut counts, "locking.dips", f64::from(dips));
    add(&mut counts, "netlist.sim_calls", sims as f64);
    add(&mut counts, "sat.solve_calls", sat.assumption_solves as f64);
    add(&mut counts, "sat.propagations", sat.propagations as f64);
    add(&mut counts, "sat.conflicts", sat.conflicts as f64);
    add(&mut counts, "sat.decisions", sat.decisions as f64);
    add(&mut counts, "sat.learnts", sat.learnts as f64);
    // The DIP loop's own solver, for propagations per second of
    // find_dip + key time (AppSAT's solver time is not separable).
    add(
        &mut counts,
        "sat.dip_loop_propagations",
        stats.propagations as f64,
    );
    Outcome {
        counts,
        output: Output::Sat {
            key,
            equivalent,
            bdd,
            appsat,
        },
    }
}

fn run_learn(device: &Device, rng: &mut StdRng, t: &mut Tracer) -> Outcome {
    let mut counts = Counts::new();
    let train_crps = t.call("puf.eval", || device.collect(PUF_TRAIN, rng));
    let test_crps = t.call("puf.eval", || device.collect(PUF_TEST, rng));
    let train = LabeledSet::from_pairs(PUF_STAGES, train_crps.to_labeled());
    let test = LabeledSet::from_pairs(PUF_STAGES, test_crps.to_labeled());
    let map = ArbiterPhiFeatures::new(PUF_STAGES);

    let fm = t.call("learn.features", || FeatureMatrix::build(&map, &train));
    let perceptron = t.call("learn.train_perceptron", || {
        Perceptron::new(PERCEPTRON_EPOCHS).train_with(map, &train)
    });
    let logistic = t.call("learn.train_logistic", || {
        LogisticRegression::new(LogisticConfig::default()).train_phi(&train, rng)
    });
    let train_errors = t.call("learn.eval", || fm.error_count(perceptron.model.weights()));
    let perceptron_acc = t.call("learn.eval", || test.accuracy_of(&perceptron.model));
    let logistic_acc = t.call("learn.eval", || test.accuracy_of(&logistic.model));

    let training_consistent =
        1.0 - train_errors as f64 / PUF_TRAIN as f64 == perceptron.training_accuracy;
    add(&mut counts, "puf.crps", (PUF_TRAIN + PUF_TEST) as f64);
    add(&mut counts, "queries", (PUF_TRAIN + PUF_TEST) as f64);
    add(&mut counts, "learn.epochs", perceptron.epochs_run as f64);
    add(&mut counts, "learn.mistakes", perceptron.mistakes as f64);
    add(&mut counts, "accuracy_sum", perceptron_acc + logistic_acc);
    add(&mut counts, "accuracy_n", 2.0);
    Outcome {
        counts,
        output: Output::Learn {
            test: test.pairs().to_vec(),
            models: vec![
                (
                    "perceptron",
                    perceptron.model.weights().to_vec(),
                    perceptron_acc,
                ),
                ("logistic", logistic.model.weights().to_vec(), logistic_acc),
            ],
            training_consistent,
        },
    }
}

fn run_tester(source: &Source, rng: &mut StdRng, t: &mut Tracer) -> Outcome {
    let mut counts = Counts::new();
    let data: Vec<(BitVec, bool)> = match source {
        Source::Ring(puf) => {
            add(&mut counts, "puf.crps", BR_CRPS as f64);
            t.call("puf.eval", || collect_uniform(puf, BR_CRPS, rng))
                .to_labeled()
        }
        Source::Ltf(f) => t.call("boolean.label", || {
            (0..BR_CRPS)
                .map(|_| {
                    let x = BitVec::random(BR_STAGES, rng);
                    let y = f.eval(&x);
                    (x, y)
                })
                .collect()
        }),
    };
    let tester = HalfspaceTester::new(TESTER_EPS, TESTER_DELTA);
    let report = t.call("boolean.tester", || tester.run(BR_STAGES, &data, rng));
    // The tester's two stages, called once more on the whole sample so
    // their cost shows separately.
    let chow = t.call("boolean.chow", || {
        ChowParameters::from_data(BR_STAGES, &data)
    });
    let pocket = t.call("boolean.pocket", || {
        pocket_perceptron(BR_STAGES, &data, Some(chow.to_ltf()), POCKET_EPOCHS)
    });
    add(&mut counts, "boolean.examples", report.examples_used as f64);
    add(&mut counts, "queries", BR_CRPS as f64);
    add(&mut counts, "accuracy_sum", 1.0 - report.distance_estimate);
    add(&mut counts, "accuracy_n", 1.0);
    Outcome {
        counts,
        output: Output::Tester {
            report,
            pocket,
            data,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn a_wrong_key_fails_verification() {
        let jobs = Workload::SatSarlock.setup(3);
        let job = &jobs[0];
        let mut t = Tracer::new(false);
        let mut outcome = job.run(&mut t);
        assert_eq!(job.verify(&outcome), Ok(()));
        if let Output::Sat { key, .. } = &mut outcome.output {
            // SARLock's correct key is unique; any other key is wrong on
            // one input pattern.
            key.flip(0);
        }
        assert!(job.verify(&outcome).is_err());
    }

    #[test]
    fn a_wrong_model_fails_verification() {
        let jobs = Workload::PufLearn.setup(3);
        let job = &jobs[0];
        let mut t = Tracer::new(false);
        let mut outcome = job.run(&mut t);
        assert_eq!(job.verify(&outcome), Ok(()));
        if let Output::Learn { models, .. } = &mut outcome.output {
            // A negated model is wrong wherever the true one is right;
            // claiming the old accuracy must not pass either.
            models[0].1.iter_mut().for_each(|w| *w = -*w);
        }
        assert!(job.verify(&outcome).is_err());
    }

    #[test]
    fn jobs_repeat_their_counts() {
        let jobs = Workload::SatXorlock.setup(1);
        let mut t = Tracer::new(false);
        let a = jobs[0].run(&mut t).counts;
        let b = jobs[0].run(&mut t).counts;
        assert_eq!(a, b);
    }
}
