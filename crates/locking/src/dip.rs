//! The persistent miter solver behind the SAT and AppSAT attacks.
//!
//! The seed implementation held *two* solvers (a miter and a separate
//! key-consistency instance) and paid for three fresh circuit copies
//! per DIP, with every solve starting the search from scratch. The
//! incremental architecture here keeps **one** [`Solver`] alive for
//! the whole attack:
//!
//! - the locked netlist is Tseitin-encoded once, and every circuit copy
//!   below maps that template onto fresh solver variables;
//! - the miter (two circuit copies with shared inputs, independent key
//!   vectors) is encoded once; the "some output differs" clause is
//!   gated by a selector literal, so the same instance answers both
//!   questions the attack asks —
//!   [`find_dip`](DipSolver::find_dip) solves assuming the selector
//!   (differ-mode), [`extract_key`](DipSolver::extract_key) solves
//!   assuming its negation (consistency-mode, the differs clause
//!   trivially satisfied). The separate key solver is gone, and so is
//!   its per-DIP circuit copy;
//! - each DIP adds two *pinned* circuit copies (one per key vector)
//!   whose primary inputs and outputs are fixed by unit clauses added
//!   **before** the gate clauses, so the solver's root-level
//!   simplification constant-folds most of the copy away on arrival;
//! - learnt clauses, VSIDS activities and saved phases survive across
//!   all of these calls (`mlam-sat`'s incremental contract), so every
//!   DIP iteration starts from everything the previous ones proved.
//!
//! Determinism: the solver is single-threaded and
//! assumption-deterministic, so the DIP sequence, the recovered key
//! and every counter are a pure function of the locked netlist — at
//! any `MLAM_THREADS` setting.

use crate::combinational::LockedNetlist;
use mlam_boolean::BitVec;
use mlam_netlist::{cnf::tseitin_encode, Cnf, TseitinEncoding};
use mlam_sat::{Lit, SatResult, Solver, SolverStats, Var};

/// One persistent solver instance driving an oracle-guided attack.
///
/// The DIP loop is three calls in a cycle:
/// [`find_dip`](DipSolver::find_dip) →
/// oracle query (the caller's business) →
/// [`constrain`](DipSolver::constrain); when `find_dip` returns
/// `None` the accumulated constraints admit only correct keys and
/// [`extract_key`](DipSolver::extract_key) finishes the attack.
#[derive(Debug)]
pub struct DipSolver<'a> {
    locked: &'a LockedNetlist,
    solver: Solver,
    /// The locked netlist's encoding, mapped onto every circuit copy.
    template: CopyTemplate,
    /// Shared primary inputs of the two miter copies.
    inputs: Vec<Var>,
    /// Key vector of miter copy A (also the one models are read from).
    key_a: Vec<Var>,
    /// Key vector of miter copy B.
    key_b: Vec<Var>,
    /// Assuming this literal activates the "some output differs"
    /// clause; assuming its negation neutralizes it.
    differ: Lit,
    /// DIP constraints added so far.
    dips: usize,
}

impl<'a> DipSolver<'a> {
    /// Encodes the miter for `locked` into a fresh persistent solver.
    /// The netlist is Tseitin-encoded here, once; every later copy maps
    /// that template onto fresh variables.
    pub fn new(locked: &'a LockedNetlist) -> DipSolver<'a> {
        let mut solver = Solver::new();
        let mut template = CopyTemplate::new(locked);
        let (in_a, key_a, out_a) = template.free_copy(&mut solver);
        let (in_b, key_b, out_b) = template.free_copy(&mut solver);
        for (a, b) in in_a.iter().zip(&in_b) {
            solver.add_clause(&[Lit::pos(*a), Lit::neg(*b)]);
            solver.add_clause(&[Lit::neg(*a), Lit::pos(*b)]);
        }
        // Some output differs — gated: (d₁ ∨ … ∨ dₙ ∨ ¬sel).
        let sel = solver.new_var();
        let mut diff_clause = Vec::new();
        for (a, b) in out_a.iter().zip(&out_b) {
            let d = solver.new_var();
            // d <-> a XOR b
            solver.add_clause(&[Lit::neg(d), Lit::pos(*a), Lit::pos(*b)]);
            solver.add_clause(&[Lit::neg(d), Lit::neg(*a), Lit::neg(*b)]);
            solver.add_clause(&[Lit::pos(d), Lit::neg(*a), Lit::pos(*b)]);
            solver.add_clause(&[Lit::pos(d), Lit::pos(*a), Lit::neg(*b)]);
            diff_clause.push(Lit::pos(d));
        }
        diff_clause.push(Lit::neg(sel));
        solver.add_clause(&diff_clause);
        DipSolver {
            locked,
            solver,
            template,
            inputs: in_a,
            key_a,
            key_b,
            differ: Lit::pos(sel),
            dips: 0,
        }
    }

    /// Searches for a distinguishing input pattern: an input on which
    /// two keys consistent with every constraint so far disagree.
    /// `None` means the key space is fully pruned — every remaining
    /// key is functionally correct.
    pub fn find_dip(&mut self) -> Option<Vec<bool>> {
        match self.solver.solve_assuming(&[self.differ]) {
            SatResult::Sat(model) => Some(self.inputs.iter().map(|v| model.value(*v)).collect()),
            SatResult::Unsat => None,
        }
    }

    /// Adds the oracle's verdict on `dip` as a permanent constraint:
    /// both key vectors must reproduce `response` on `dip`. Costs two
    /// pinned circuit copies (heavily simplified on arrival — see the
    /// module docs).
    ///
    /// # Panics
    ///
    /// Panics if `dip`/`response` widths disagree with the netlist.
    pub fn constrain(&mut self, dip: &[bool], response: &[bool]) {
        assert_eq!(dip.len(), self.locked.num_primary_inputs(), "dip width");
        assert_eq!(
            response.len(),
            self.locked.netlist().num_outputs(),
            "response width"
        );
        self.template
            .pinned_copy(&mut self.solver, &self.key_a, dip, response);
        self.template
            .pinned_copy(&mut self.solver, &self.key_b, dip, response);
        self.dips += 1;
    }

    /// Extracts a key consistent with every constraint added so far
    /// (the differs clause is disabled for this call). After
    /// [`find_dip`](DipSolver::find_dip) has returned `None`, the key
    /// is exact.
    ///
    /// # Panics
    ///
    /// Panics if no key is consistent — impossible when the responses
    /// came from a real oracle (the true key always satisfies them).
    pub fn extract_key(&mut self) -> BitVec {
        match self.solver.solve_assuming(&[self.differ.negate()]) {
            SatResult::Sat(model) => {
                let mut k = BitVec::zeros(self.locked.num_key_bits());
                for (i, v) in self.key_a.iter().enumerate() {
                    k.set(i, model.value(*v));
                }
                k
            }
            SatResult::Unsat => unreachable!("the correct key is always consistent"),
        }
    }

    /// Whether `key` is consistent with every constraint added so far
    /// (an assumption probe; nothing is added to the instance). Used
    /// by the regression tests to prove that learnt-clause persistence
    /// never changes the consistent-key set.
    pub fn is_key_consistent(&mut self, key: &BitVec) -> bool {
        let mut assumptions = vec![self.differ.negate()];
        for (i, v) in self.key_a.iter().enumerate() {
            assumptions.push(Lit::new(*v, !key.get(i)));
        }
        self.solver.solve_assuming(&assumptions).is_sat()
    }

    /// Extracts the **lexicographically smallest** consistent key by
    /// fixing one bit at a time with assumption probes (`0` wins when
    /// both polarities are consistent).
    ///
    /// Once [`find_dip`](DipSolver::find_dip) has returned `None`, the
    /// consistent-key set equals the set of functionally correct keys —
    /// a property of the constraints alone, independent of which DIP
    /// sequence produced them and of anything the solver learnt along
    /// the way. The canonical key is therefore identical across solver
    /// strategies (the `sat_incremental` bench leans on this to compare
    /// incremental and one-shot runs key-for-key).
    pub fn extract_canonical_key(&mut self) -> BitVec {
        let nk = self.locked.num_key_bits();
        let mut fixed: Vec<Lit> = vec![self.differ.negate()];
        let mut k = BitVec::zeros(nk);
        for i in 0..nk {
            fixed.push(Lit::neg(self.key_a[i]));
            if !self.solver.solve_assuming(&fixed).is_sat() {
                *fixed.last_mut().expect("just pushed") = Lit::pos(self.key_a[i]);
                k.set(i, true);
            }
        }
        k
    }

    /// DIP constraints added so far.
    pub fn num_dips(&self) -> usize {
        self.dips
    }

    /// The underlying solver's statistics.
    pub fn stats(&self) -> SolverStats {
        self.solver.stats()
    }
}

/// The non-incremental baseline of the `sat_incremental` A/B bench:
/// the same attack, but every solver call rebuilds the miter plus all
/// accumulated DIP constraints in a **fresh** solver — the way
/// integrations around a stateless SAT solver (CNF file in, verdict
/// out) have to work. Nothing learnt in one call survives to the next,
/// and every call re-pays the full encoding cost.
///
/// Kept in the library (rather than the bench binary) so the
/// regression tests can hold the two implementations key-for-key equal.
#[derive(Debug)]
pub struct OneShotDipSolver<'a> {
    locked: &'a LockedNetlist,
    trace: Vec<(Vec<bool>, Vec<bool>)>,
    stats: SolverStats,
}

impl<'a> OneShotDipSolver<'a> {
    /// A baseline attack state for `locked` (no solver is built until
    /// the first call).
    pub fn new(locked: &'a LockedNetlist) -> OneShotDipSolver<'a> {
        OneShotDipSolver {
            locked,
            trace: Vec::new(),
            stats: SolverStats::default(),
        }
    }

    /// Rebuilds miter + constraints from scratch and replays the trace.
    fn fresh(&self) -> DipSolver<'a> {
        let mut solver = DipSolver::new(self.locked);
        for (dip, response) in &self.trace {
            solver.constrain(dip, response);
        }
        solver
    }

    /// One-shot [`DipSolver::find_dip`]: full rebuild, then one solve.
    pub fn find_dip(&mut self) -> Option<Vec<bool>> {
        let mut solver = self.fresh();
        let dip = solver.find_dip();
        self.stats.accumulate(&solver.stats());
        dip
    }

    /// Records the oracle's verdict (pure bookkeeping — the constraint
    /// is re-encoded on every later rebuild).
    pub fn constrain(&mut self, dip: &[bool], response: &[bool]) {
        self.trace.push((dip.to_vec(), response.to_vec()));
    }

    /// One-shot [`DipSolver::extract_canonical_key`]: one rebuild, then
    /// the same bit-by-bit probes.
    pub fn extract_canonical_key(&mut self) -> BitVec {
        let mut solver = self.fresh();
        let key = solver.extract_canonical_key();
        self.stats.accumulate(&solver.stats());
        key
    }

    /// DIP constraints recorded so far.
    pub fn num_dips(&self) -> usize {
        self.trace.len()
    }

    /// Statistics summed over every rebuilt solver.
    pub fn stats(&self) -> SolverStats {
        self.stats
    }
}

/// The locked netlist's Tseitin encoding, made once per attack and
/// mapped onto fresh solver variables for every circuit copy (the
/// miter's two free copies and each DIP's two pinned copies). Copies
/// get the clauses in template order, so the solver sees exactly what
/// a fresh `tseitin_encode` per copy would give it.
#[derive(Debug)]
pub(crate) struct CopyTemplate {
    cnf: Cnf,
    enc: TseitinEncoding,
    num_primary: usize,
    num_key: usize,
    /// CNF variables of the outputs.
    outputs: Vec<i32>,
    /// Literal buffer reused across clauses.
    lits: Vec<Lit>,
}

impl CopyTemplate {
    /// Encodes `locked` once.
    pub(crate) fn new(locked: &LockedNetlist) -> CopyTemplate {
        let mut cnf = Cnf::new(0);
        let enc = tseitin_encode(locked.netlist(), &mut cnf);
        let outputs = enc.output_vars(locked.netlist());
        CopyTemplate {
            cnf,
            enc,
            num_primary: locked.num_primary_inputs(),
            num_key: locked.num_key_bits(),
            outputs,
            lits: Vec::new(),
        }
    }

    /// Loads one unconstrained copy into `solver`; returns
    /// `(input_vars, key_vars, output_vars)`.
    pub(crate) fn free_copy(&mut self, solver: &mut Solver) -> (Vec<Var>, Vec<Var>, Vec<Var>) {
        let vars = solver.new_vars(self.cnf.num_vars);
        self.add_gate_clauses(solver, &vars);
        let var_of = |cnf_var: i32| vars[(cnf_var.unsigned_abs() - 1) as usize];
        let (np, nk) = (self.num_primary, self.num_key);
        let inputs = self.enc.vars[..np].iter().map(|&v| var_of(v)).collect();
        let keys = self.enc.vars[np..np + nk]
            .iter()
            .map(|&v| var_of(v))
            .collect();
        let outputs = self.outputs.iter().map(|&v| var_of(v)).collect();
        (inputs, keys, outputs)
    }

    /// Loads one copy with primary inputs pinned to `dip` and outputs
    /// pinned to `response`, its key vector tied to `shared_keys`: the
    /// constraint "the circuit under `shared_keys` maps `dip` to
    /// `response`".
    ///
    /// The pin units go in *first*: `Solver::add_clause` drops clauses
    /// already satisfied at the root and strips root-false literals, so
    /// by the time the gate clauses arrive, everything the constants
    /// decide has been folded away and only the key-dependent cone
    /// survives.
    pub(crate) fn pinned_copy(
        &mut self,
        solver: &mut Solver,
        shared_keys: &[Var],
        dip: &[bool],
        response: &[bool],
    ) {
        let vars = solver.new_vars(self.cnf.num_vars);
        let var_of = |cnf_var: i32| vars[(cnf_var.unsigned_abs() - 1) as usize];
        let np = self.num_primary;
        for (&v, &b) in self.enc.vars[..np].iter().zip(dip) {
            solver.add_clause(&[Lit::new(var_of(v), !b)]);
        }
        for (&v, &b) in self.outputs.iter().zip(response) {
            solver.add_clause(&[Lit::new(var_of(v), !b)]);
        }
        // Tie the copy's key bits to the shared key vector before the
        // gate clauses: root-level key units learned from earlier DIPs
        // then propagate into this copy immediately.
        for (&v, shared) in self.enc.vars[np..].iter().zip(shared_keys) {
            let kv = var_of(v);
            solver.add_clause(&[Lit::pos(kv), Lit::neg(*shared)]);
            solver.add_clause(&[Lit::neg(kv), Lit::pos(*shared)]);
        }
        self.add_gate_clauses(solver, &vars);
    }

    /// Adds the template's clauses over `vars` (CNF variable `i` is
    /// `vars[i - 1]`).
    fn add_gate_clauses(&mut self, solver: &mut Solver, vars: &[Var]) {
        for clause in &self.cnf.clauses {
            self.lits.clear();
            self.lits.extend(
                clause
                    .iter()
                    .map(|&l| Lit::new(vars[(l.unsigned_abs() - 1) as usize], l < 0)),
            );
            solver.add_clause(&self.lits);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::combinational::lock_xor;
    use mlam_netlist::generate::{c17, random_circuit, ripple_adder};
    use mlam_netlist::Netlist;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Incremental and one-shot are different solver strategies over
    /// the same attack; the canonical key must not see the difference.
    #[test]
    fn incremental_and_oneshot_recover_the_identical_key() {
        let mut gen_rng = StdRng::seed_from_u64(77);
        let circuits: Vec<(Netlist, usize)> = vec![
            (c17(), 5),
            (ripple_adder(3), 6),
            (random_circuit(8, 40, 2, &mut gen_rng), 10),
        ];
        for (seed, (oracle, key_bits)) in circuits.into_iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(11 + seed as u64);
            let locked = lock_xor(&oracle, key_bits, &mut rng);

            let mut inc = DipSolver::new(&locked);
            while let Some(dip) = inc.find_dip() {
                let response = oracle.simulate(&dip);
                inc.constrain(&dip, &response);
                assert!(inc.num_dips() < 500, "runaway DIP loop");
            }
            let mut one = OneShotDipSolver::new(&locked);
            while let Some(dip) = one.find_dip() {
                let response = oracle.simulate(&dip);
                one.constrain(&dip, &response);
                assert!(one.num_dips() < 500, "runaway DIP loop");
            }

            let key_inc = inc.extract_canonical_key();
            let key_one = one.extract_canonical_key();
            assert_eq!(
                key_inc, key_one,
                "canonical keys diverged on circuit {seed}"
            );
            assert!(locked.equivalent_under_key(&oracle, &key_inc));
        }
    }

    #[test]
    fn oneshot_pays_more_than_incremental() {
        let oracle = ripple_adder(3);
        let mut rng = StdRng::seed_from_u64(21);
        let locked = lock_xor(&oracle, 8, &mut rng);

        let mut inc = DipSolver::new(&locked);
        while let Some(dip) = inc.find_dip() {
            let response = oracle.simulate(&dip);
            inc.constrain(&dip, &response);
        }
        let mut one = OneShotDipSolver::new(&locked);
        while let Some(dip) = one.find_dip() {
            let response = oracle.simulate(&dip);
            one.constrain(&dip, &response);
        }
        // The rebuild baseline re-propagates every root unit of every
        // replayed constraint on every call; with a non-trivial DIP
        // count its total propagation work must exceed the persistent
        // solver's.
        if inc.num_dips() >= 4 {
            assert!(
                one.stats().propagations > inc.stats().propagations,
                "one-shot {} vs incremental {}",
                one.stats().propagations,
                inc.stats().propagations
            );
        }
    }
}
