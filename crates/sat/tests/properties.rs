//! Property-based tests of the CDCL solver against brute force.

use mlam_sat::{Lit, SatResult, Solver};
use proptest::prelude::*;

/// Strategy: a random CNF over `n` variables with `m` clauses of 1–4
/// literals each.
fn cnf_strategy() -> impl Strategy<Value = (usize, Vec<Vec<i32>>)> {
    (2usize..=9).prop_flat_map(|n| {
        let clause = prop::collection::vec(
            (1..=n as i32, any::<bool>()).prop_map(|(v, neg)| if neg { -v } else { v }),
            1..=4,
        );
        let clauses = prop::collection::vec(clause, 1..=n * 4);
        (Just(n), clauses)
    })
}

/// Strategy: a random 3-CNF over `n` variables at 4–5 clauses per
/// variable, near the satisfiability threshold, so the solver has to
/// search and conflicts happen deep in the decision stack.
fn hard_cnf_strategy() -> impl Strategy<Value = (usize, Vec<Vec<i32>>)> {
    (3usize..=9).prop_flat_map(|n| {
        let lit = (1..=n as i32, any::<bool>()).prop_map(|(v, neg)| if neg { -v } else { v });
        let clauses = prop::collection::vec(prop::collection::vec(lit, 3), n * 4..=n * 5);
        (Just(n), clauses)
    })
}

fn brute_force_sat(num_vars: usize, clauses: &[Vec<i32>]) -> bool {
    'outer: for mask in 0u64..(1 << num_vars) {
        for clause in clauses {
            let sat = clause.iter().any(|&l| {
                let v = (l.unsigned_abs() - 1) as usize;
                let val = mask >> v & 1 == 1;
                if l > 0 {
                    val
                } else {
                    !val
                }
            });
            if !sat {
                continue 'outer;
            }
        }
        return true;
    }
    false
}

fn solve(num_vars: usize, clauses: &[Vec<i32>]) -> SatResult {
    let mut s = Solver::new();
    let vars = s.new_vars(num_vars);
    for clause in clauses {
        let lits: Vec<Lit> = clause
            .iter()
            .map(|&l| Lit::new(vars[(l.unsigned_abs() - 1) as usize], l < 0))
            .collect();
        s.add_clause(&lits);
    }
    s.solve()
}

proptest! {
    /// CDCL agrees with brute force on satisfiability, and every model
    /// it returns actually satisfies the formula.
    #[test]
    fn cdcl_matches_brute_force((n, clauses) in cnf_strategy()) {
        let expected = brute_force_sat(n, &clauses);
        match solve(n, &clauses) {
            SatResult::Sat(model) => {
                prop_assert!(expected, "solver said SAT, brute force says UNSAT");
                for clause in &clauses {
                    let ok = clause.iter().any(|&l| {
                        let val = model.values()[(l.unsigned_abs() - 1) as usize];
                        if l > 0 { val } else { !val }
                    });
                    prop_assert!(ok, "model violates {clause:?}");
                }
            }
            SatResult::Unsat => prop_assert!(!expected, "solver said UNSAT, brute force says SAT"),
        }
    }

    /// Solving under assumptions never corrupts the instance: the
    /// unassumed instance's satisfiability is unchanged afterwards.
    #[test]
    fn assumptions_are_transient((n, clauses) in cnf_strategy(), a in 1usize..=4, neg in any::<bool>()) {
        let expected = brute_force_sat(n, &clauses);
        let mut s = Solver::new();
        let vars = s.new_vars(n);
        for clause in &clauses {
            let lits: Vec<Lit> = clause
                .iter()
                .map(|&l| Lit::new(vars[(l.unsigned_abs() - 1) as usize], l < 0))
                .collect();
            s.add_clause(&lits);
        }
        let assumption = Lit::new(vars[(a - 1).min(n - 1)], neg);
        let _ = s.solve_assuming(&[assumption]);
        prop_assert_eq!(s.solve().is_sat(), expected);
    }

    /// An assumption-satisfying model respects the assumption.
    #[test]
    fn assumption_holds_in_model((n, clauses) in cnf_strategy(), idx in 0usize..9, neg in any::<bool>()) {
        let mut s = Solver::new();
        let vars = s.new_vars(n);
        for clause in &clauses {
            let lits: Vec<Lit> = clause
                .iter()
                .map(|&l| Lit::new(vars[(l.unsigned_abs() - 1) as usize], l < 0))
                .collect();
            s.add_clause(&lits);
        }
        let v = vars[idx % n];
        let assumption = Lit::new(v, neg);
        if let SatResult::Sat(model) = s.solve_assuming(&[assumption]) {
            prop_assert_eq!(model.value(v), !neg);
        }
    }
}

/// Reference check: brute-force satisfiability of `clauses` plus a set
/// of forced assumption literals.
fn brute_force_sat_assuming(num_vars: usize, clauses: &[Vec<i32>], assumptions: &[i32]) -> bool {
    let mut all: Vec<Vec<i32>> = clauses.to_vec();
    all.extend(assumptions.iter().map(|&a| vec![a]));
    brute_force_sat(num_vars, &all)
}

proptest! {
    /// Incremental solving agrees with one-shot solving: adding the
    /// clause set in two batches with a solve call in between (leaving
    /// learnt clauses, activities and phases behind) reaches the same
    /// verdict as a fresh solver given everything at once, and any
    /// model is valid.
    #[test]
    fn incremental_agrees_with_one_shot((n, clauses) in cnf_strategy(), split in 0usize..=100) {
        let expected = brute_force_sat(n, &clauses);
        let mut s = Solver::new();
        let vars = s.new_vars(n);
        let cut = clauses.len() * split / 100;
        let to_lits = |clause: &Vec<i32>| -> Vec<Lit> {
            clause
                .iter()
                .map(|&l| Lit::new(vars[(l.unsigned_abs() - 1) as usize], l < 0))
                .collect()
        };
        for clause in &clauses[..cut] {
            s.add_clause(&to_lits(clause));
        }
        // Warm the solver on the prefix; its verdict is not the final
        // one but the learnt state must not corrupt what follows.
        let _ = s.solve();
        for clause in &clauses[cut..] {
            s.add_clause(&to_lits(clause));
        }
        match s.solve() {
            SatResult::Sat(model) => {
                prop_assert!(expected, "incremental said SAT, brute force UNSAT");
                for clause in &clauses {
                    let ok = clause.iter().any(|&l| {
                        let val = model.value(vars[(l.unsigned_abs() - 1) as usize]);
                        if l > 0 { val } else { !val }
                    });
                    prop_assert!(ok, "model violates {clause:?}");
                }
            }
            SatResult::Unsat => prop_assert!(!expected, "incremental said UNSAT, brute force SAT"),
        }
    }

    /// `solve_assuming` over random assumption lists agrees with brute
    /// force on the clause set extended by the assumption units, on a
    /// solver warmed by unrelated earlier calls — what the DIP loop does
    /// with key constraints. Half the instances are near-threshold
    /// 3-CNFs. Lists are not deduplicated, so they carry
    /// repeated literals and complementary pairs, and one literal is
    /// fixed at the root by a unit clause before it may be assumed
    /// again, negated, or twice.
    #[test]
    fn assumption_subsets_agree_with_brute_force(
        (easy, hard, use_hard) in (cnf_strategy(), hard_cnf_strategy(), any::<bool>()),
        raw in prop::collection::vec((0usize..9, any::<bool>()), 0..=6),
        repeat in 0usize..10,
        (root_idx, root_neg, root_use) in (0usize..9, any::<bool>(), 0usize..4),
    ) {
        let (n, mut clauses) = if use_hard { hard } else { easy };
        let root = (root_idx % n + 1) as i32 * if root_neg { -1 } else { 1 };
        if root_use > 0 {
            clauses.push(vec![root]);
        }
        let mut s = Solver::new();
        let vars = s.new_vars(n);
        let to_lit = |l: i32| Lit::new(vars[(l.unsigned_abs() - 1) as usize], l < 0);
        for clause in &clauses {
            let lits: Vec<Lit> = clause.iter().map(|&l| to_lit(l)).collect();
            s.add_clause(&lits);
        }
        // Warm-up solves so later assumption calls run on a solver
        // carrying learnt clauses and saved phases.
        let _ = s.solve();
        let _ = s.solve_assuming(&[Lit::pos(vars[0])]);
        let mut ints: Vec<i32> = raw
            .iter()
            .map(|&(idx, neg)| (idx % n + 1) as i32 * if neg { -1 } else { 1 })
            .collect();
        // Repeat the first literal, so the assumptions after it sit on
        // decision levels past the variable count.
        if let Some(&first) = ints.first() {
            ints.splice(0..0, std::iter::repeat_n(first, repeat));
        }
        // Root-implied literal: assumed as is, negated, or twice.
        let at = root_idx % (ints.len() + 1);
        match root_use {
            1 => ints.insert(at, root),
            2 => ints.insert(at, -root),
            3 => {
                ints.splice(at..at, [root, root]);
            }
            _ => {}
        }
        let assumptions: Vec<Lit> = ints.iter().map(|&l| to_lit(l)).collect();
        let expected = brute_force_sat_assuming(n, &clauses, &ints);
        match s.solve_assuming(&assumptions) {
            SatResult::Sat(model) => {
                prop_assert!(expected, "solver said SAT under {ints:?}, brute force UNSAT");
                for &a in &assumptions {
                    prop_assert!(model.lit_value(a), "assumption {a} violated by model");
                }
                for clause in &clauses {
                    prop_assert!(
                        clause.iter().any(|&l| model.lit_value(to_lit(l))),
                        "model violates {clause:?}"
                    );
                }
            }
            SatResult::Unsat => prop_assert!(!expected, "solver said UNSAT under {ints:?}, brute force SAT"),
        }
        // And the unassumed instance is untouched.
        prop_assert_eq!(s.solve().is_sat(), brute_force_sat(n, &clauses));
    }
}

#[test]
fn scratch_duplicate_assumptions_level_overflow() {
    let mut s = Solver::new();
    let a = s.new_var();
    let b = s.new_var();
    let c = s.new_var();
    s.add_clause(&[Lit::pos(b), Lit::pos(c)]);
    s.add_clause(&[Lit::pos(b), Lit::neg(c)]);
    s.add_clause(&[Lit::neg(b), Lit::pos(c)]);
    s.add_clause(&[Lit::neg(b), Lit::neg(c)]);
    // Every assumption opens a decision level, even when it repeats one
    // already satisfied, so the first branching decision lands on level
    // 5 of a 3-variable instance; conflict analysis there must not index
    // per-level scratch by the variable count.
    let r = s.solve_assuming(&[Lit::pos(a), Lit::pos(a), Lit::pos(a), Lit::pos(a)]);
    assert_eq!(r, SatResult::Unsat);
}
