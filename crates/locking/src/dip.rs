//! The persistent miter solver behind the SAT and AppSAT attacks.
//!
//! One [`Solver`] lives for the whole attack:
//!
//! - the miter (two circuit copies over one shared input vector, with
//!   independent key vectors) is encoded once; the "some output
//!   differs" clause is gated by a selector literal, so the same
//!   instance answers both questions the attack asks —
//!   [`find_dip`](DipSolver::find_dip) solves assuming the selector
//!   (differ-mode), [`extract_key`](DipSolver::extract_key) solves
//!   assuming its negation (consistency-mode, the differs clause
//!   trivially satisfied);
//! - each DIP adds two *pinned* circuit copies (one per key vector)
//!   with the primary inputs fixed to the DIP and the outputs fixed to
//!   the oracle's response;
//! - learnt clauses, VSIDS activities and saved phases survive across
//!   all of these calls (`mlam-sat`'s incremental contract), so every
//!   DIP iteration starts from everything the previous ones proved.
//!
//! # The copy encoder
//!
//! Every circuit copy — the miter's two free copies, each DIP's two
//! pinned copies, the PAC attack's observations — goes through one
//! `CopyEncoder`, which evaluates the locked netlist gate by gate
//! over a two-point value lattice: a net is either a **constant** or a
//! **solver literal**. Primary inputs are constants in a pinned copy
//! and literals in a free copy; key inputs are the shared key literals
//! themselves, so a copy has no key vector of its own.
//!
//! - Constants fold through every gate kind. BUF, NOT and any gate
//!   whose result reduces to one literal forward that literal and
//!   allocate nothing.
//! - AND drops 1s, returns 0 on a 0 or a complementary pair, and sorts
//!   and deduplicates its literals; OR, NAND and NOR reach the same
//!   form by De Morgan.
//! - XOR/XNOR pull constants and literal signs into a parity bit and
//!   cancel variables that occur twice; what remains chains pairwise
//!   in sorted order.
//! - A MUX with a constant select picks a data input; with equal data
//!   inputs it forwards them; with one constant data input it becomes
//!   an AND/OR; otherwise it is one variable and four clauses.
//! - AND nodes (keyed by their sorted literal set) and two-input XOR
//!   nodes (keyed by their sorted variable pair) are **structurally
//!   hashed** for the whole attack: a node built once — say, a
//!   key-only cone, or logic the two miter copies share — is reused by
//!   every later copy. The table is only ever looked up, never
//!   iterated, so the encoding is deterministic.
//!
//! A node's definition clauses (the full Tseitin equivalence, since a
//! shared node may be used in either polarity) are buffered while a
//! copy is encoded. A pinned copy adds its output units *first*, so
//! `Solver::add_clause` drops every buffered clause the pins already
//! satisfy and strips the literals they falsify; a constant output that
//! contradicts the response adds the empty clause. For SARLock, a DIP
//! reduces to one AND over key literals and one clause.
//!
//! Determinism: the solver is single-threaded and
//! assumption-deterministic, so the DIP sequence, the recovered key
//! and every counter are a pure function of the locked netlist — at
//! any `MLAM_THREADS` setting.

use crate::combinational::LockedNetlist;
use mlam_boolean::BitVec;
use mlam_netlist::{Gate, GateKind, Netlist};
use mlam_sat::{Lit, SatResult, Solver, SolverStats, Var};
use std::collections::HashMap;

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
    /// The encoder every circuit copy goes through (and its node table).
    encoder: CopyEncoder<'a>,
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
    /// Encodes the miter for `locked` into a fresh persistent solver:
    /// two free copies over one input vector, then one diff literal per
    /// output pair, built by the same encoder (so logic the copies
    /// share, and outputs no key reaches, cost nothing twice).
    pub fn new(locked: &'a LockedNetlist) -> DipSolver<'a> {
        let mut solver = Solver::new();
        let mut encoder = CopyEncoder::new(locked.netlist());
        let inputs = solver.new_vars(locked.num_primary_inputs());
        let key_a = solver.new_vars(locked.num_key_bits());
        let key_b = solver.new_vars(locked.num_key_bits());
        let out_a = encoder.copy(&mut solver, lits(&inputs), &key_a);
        let out_b = encoder.copy(&mut solver, lits(&inputs), &key_b);
        // Some output differs — gated: (d₁ ∨ … ∨ dₙ ∨ ¬sel).
        let sel = solver.new_var();
        let mut diff_clause = vec![Lit::neg(sel)];
        for (&a, &b) in out_a.iter().zip(&out_b) {
            match encoder.xor(&mut solver, [a, b], false) {
                Value::Lit(d) => diff_clause.push(d),
                // The copies agree whenever their keys do, so a sound
                // encoder can only fold a diff to 0 (no key reaches
                // this output).
                Value::Const(differs) => assert!(!differs, "copies differ under equal keys"),
            }
        }
        encoder.flush(&mut solver);
        solver.add_clause(&diff_clause);
        DipSolver {
            locked,
            solver,
            encoder,
            inputs,
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
    /// pinned circuit copies (partially evaluated — see the module
    /// docs).
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
        self.encoder
            .pinned_copy(&mut self.solver, &self.key_a, dip, response);
        self.encoder
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

/// A net's value in one circuit copy: the two-point lattice the
/// [`CopyEncoder`] evaluates over.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Value {
    /// Decided without the solver.
    Const(bool),
    /// Carried by a solver literal.
    Lit(Lit),
}

impl Value {
    fn negate(self) -> Value {
        match self {
            Value::Const(b) => Value::Const(!b),
            Value::Lit(l) => Value::Lit(!l),
        }
    }
}

/// Positive literals of `vars`, as copy inputs.
fn lits(vars: &[Var]) -> impl Iterator<Item = Value> + '_ {
    vars.iter().map(|&v| Value::Lit(Lit::pos(v)))
}

/// The structural-hash key of a node, in normal form.
#[derive(Debug, PartialEq, Eq, Hash)]
enum NodeKey {
    /// AND over at least two sorted, distinct, non-complementary
    /// literals.
    And(Vec<Lit>),
    /// XOR of two distinct variables, smaller first.
    Xor(Var, Var),
}

/// The copy encoder: partial evaluation of one netlist into a solver,
/// with a structural-hash table shared by every copy of one attack
/// (see the module docs for the folding rules and the clause order).
#[derive(Debug)]
pub(crate) struct CopyEncoder<'a> {
    netlist: &'a Netlist,
    /// Node variable of every AND/XOR built so far. Lookups only.
    nodes: HashMap<NodeKey, Var>,
    /// Definition clauses of the nodes built since the last flush,
    /// back to back; `ends[i]` is where clause `i` stops.
    pending: Vec<Lit>,
    ends: Vec<usize>,
}

impl<'a> CopyEncoder<'a> {
    pub(crate) fn new(netlist: &'a Netlist) -> CopyEncoder<'a> {
        CopyEncoder {
            netlist,
            nodes: HashMap::new(),
            pending: Vec::new(),
            ends: Vec::new(),
        }
    }

    /// Evaluates one copy with the given primary-input values, keyed by
    /// `keys`; returns the output values. New nodes' clauses stay
    /// buffered until [`flush`](Self::flush).
    fn copy(
        &mut self,
        solver: &mut Solver,
        primary: impl Iterator<Item = Value>,
        keys: &[Var],
    ) -> Vec<Value> {
        let netlist = self.netlist;
        let mut values: Vec<Value> = primary.chain(lits(keys)).collect();
        assert_eq!(values.len(), netlist.num_inputs(), "copy input width");
        values.reserve(netlist.num_gates());
        for gate in netlist.gates() {
            let value = self.gate(solver, gate, &values);
            values.push(value);
        }
        netlist
            .outputs()
            .iter()
            .map(|o| values[o.index()])
            .collect()
    }

    /// Adds the constraint "the circuit under `keys` maps `dip` to
    /// `response`": the output units first, then the new nodes'
    /// definitions, which the units have already simplified.
    pub(crate) fn pinned_copy(
        &mut self,
        solver: &mut Solver,
        keys: &[Var],
        dip: &[bool],
        response: &[bool],
    ) {
        let outputs = self.copy(solver, dip.iter().map(|&b| Value::Const(b)), keys);
        for (out, &want) in outputs.iter().zip(response) {
            match *out {
                Value::Const(got) if got == want => {}
                Value::Const(_) => solver.add_clause(&[]),
                Value::Lit(l) => solver.add_clause(&[if want { l } else { !l }]),
            }
        }
        self.flush(solver);
    }

    /// One gate over the values of the nets before it.
    fn gate(&mut self, solver: &mut Solver, gate: &Gate, values: &[Value]) -> Value {
        let ins = gate.inputs.iter().map(|n| values[n.index()]);
        match gate.kind {
            GateKind::And => self.and(solver, ins),
            GateKind::Nand => self.and(solver, ins).negate(),
            GateKind::Or => self.and(solver, ins.map(Value::negate)).negate(),
            GateKind::Nor => self.and(solver, ins.map(Value::negate)),
            GateKind::Xor => self.xor(solver, ins, false),
            GateKind::Xnor => self.xor(solver, ins, true),
            GateKind::Not => values[gate.inputs[0].index()].negate(),
            GateKind::Buf => values[gate.inputs[0].index()],
            GateKind::Mux => {
                let [sel, a, b] = [0, 1, 2].map(|i| values[gate.inputs[i].index()]);
                self.mux(solver, sel, a, b)
            }
        }
    }

    fn and(&mut self, solver: &mut Solver, ins: impl IntoIterator<Item = Value>) -> Value {
        let mut lits = Vec::new();
        for value in ins {
            match value {
                Value::Const(false) => return Value::Const(false),
                Value::Const(true) => {}
                Value::Lit(l) => lits.push(l),
            }
        }
        lits.sort_unstable();
        lits.dedup();
        // Sorting places x and ¬x next to each other.
        if lits.windows(2).any(|w| w[0].var() == w[1].var()) {
            return Value::Const(false);
        }
        match lits[..] {
            [] => Value::Const(true),
            [l] => Value::Lit(l),
            _ => Value::Lit(Lit::pos(self.node(solver, NodeKey::And(lits)))),
        }
    }

    /// Parity of `ins`, complemented when `parity` starts true.
    fn xor(
        &mut self,
        solver: &mut Solver,
        ins: impl IntoIterator<Item = Value>,
        mut parity: bool,
    ) -> Value {
        let mut vars = Vec::new();
        for value in ins {
            match value {
                Value::Const(b) => parity ^= b,
                Value::Lit(l) => {
                    parity ^= l.is_negated();
                    vars.push(l.var());
                }
            }
        }
        vars.sort_unstable();
        // x ⊕ x = 0: keep the variables that occur an odd number of times.
        let mut odd: Vec<Var> = Vec::with_capacity(vars.len());
        for v in vars {
            if odd.last() == Some(&v) {
                odd.pop();
            } else {
                odd.push(v);
            }
        }
        let Some((&first, rest)) = odd.split_first() else {
            return Value::Const(parity);
        };
        let acc = rest.iter().fold(first, |acc, &v| {
            self.node(solver, NodeKey::Xor(acc.min(v), acc.max(v)))
        });
        Value::Lit(Lit::new(acc, parity))
    }

    /// `sel ? b : a`.
    fn mux(&mut self, solver: &mut Solver, sel: Value, a: Value, b: Value) -> Value {
        let s = match sel {
            Value::Const(c) => return if c { b } else { a },
            Value::Lit(s) => s,
        };
        let (on, off) = (Value::Lit(s), Value::Lit(!s));
        match (a, b) {
            _ if a == b => a,
            (Value::Const(false), b) => self.and(solver, [on, b]),
            (Value::Const(true), b) => self.and(solver, [on, b.negate()]).negate(),
            (a, Value::Const(false)) => self.and(solver, [off, a]),
            (a, Value::Const(true)) => self.and(solver, [off, a.negate()]).negate(),
            (Value::Lit(a), Value::Lit(b)) => {
                let o = Lit::pos(solver.new_var());
                self.clause(&[s, !o, a]);
                self.clause(&[s, o, !a]);
                self.clause(&[!s, !o, b]);
                self.clause(&[!s, o, !b]);
                Value::Lit(o)
            }
        }
    }

    /// The variable of `key`'s node, built (and its definition
    /// buffered) on first use.
    fn node(&mut self, solver: &mut Solver, key: NodeKey) -> Var {
        if let Some(&v) = self.nodes.get(&key) {
            return v;
        }
        let v = solver.new_var();
        let o = Lit::pos(v);
        match &key {
            NodeKey::And(lits) => {
                for &l in lits {
                    self.clause(&[!o, l]);
                }
                self.pending.push(o);
                self.pending.extend(lits.iter().map(|&l| !l));
                self.ends.push(self.pending.len());
            }
            &NodeKey::Xor(a, b) => {
                let (a, b) = (Lit::pos(a), Lit::pos(b));
                self.clause(&[!o, a, b]);
                self.clause(&[!o, !a, !b]);
                self.clause(&[o, !a, b]);
                self.clause(&[o, a, !b]);
            }
        }
        self.nodes.insert(key, v);
        v
    }

    fn clause(&mut self, lits: &[Lit]) {
        self.pending.extend_from_slice(lits);
        self.ends.push(self.pending.len());
    }

    /// Adds the buffered clauses to `solver`, in the order the nodes
    /// were built.
    fn flush(&mut self, solver: &mut Solver) {
        let mut start = 0;
        for &end in &self.ends {
            solver.add_clause(&self.pending[start..end]);
            start = end;
        }
        self.pending.clear();
        self.ends.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::combinational::lock_xor;
    use mlam_netlist::generate::{c17, every_kind_circuit, random_circuit, ripple_adder};
    use mlam_netlist::Netlist;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A random keyed netlist over every gate kind (see
    /// [`every_kind_circuit`]) with ≤ 8 key bits.
    fn random_locked(rng: &mut StdRng) -> LockedNetlist {
        let num_primary = rng.gen_range(2..=6);
        let num_key = rng.gen_range(1..=8);
        let num_outputs = rng.gen_range(1..=3);
        let num_gates = rng.gen_range(num_outputs..=30);
        let netlist = every_kind_circuit(num_primary + num_key, num_gates, num_outputs, rng);
        let key = BitVec::random(num_key, rng);
        LockedNetlist::from_parts(netlist, num_primary, num_key, key)
    }

    fn random_bools(n: usize, rng: &mut StdRng) -> Vec<bool> {
        (0..n).map(|_| rng.gen()).collect()
    }

    /// The encoder against simulation: after random pinned DIPs, the
    /// solver's consistent-key set is exactly the set of keys under
    /// which the netlist maps every DIP to its response. Responses come
    /// from a random key, except now and then an arbitrary one (which
    /// may leave no key consistent at all).
    #[test]
    fn consistent_keys_match_simulation() {
        let mut rng = StdRng::seed_from_u64(1401);
        for case in 0..300 {
            let locked = random_locked(&mut rng);
            let (np, nk) = (locked.num_primary_inputs(), locked.num_key_bits());
            let secret = BitVec::random(nk, &mut rng);
            let mut solver = DipSolver::new(&locked);
            let mut trace = Vec::new();
            for _ in 0..rng.gen_range(1..=6) {
                let x = random_bools(np, &mut rng);
                let response = if rng.gen_bool(0.2) {
                    random_bools(locked.netlist().num_outputs(), &mut rng)
                } else {
                    locked.simulate(&x, &secret)
                };
                solver.constrain(&x, &response);
                trace.push((x, response));
            }
            for mask in 0..1u64 << nk {
                let key = BitVec::from_u64(mask, nk);
                let expected = trace.iter().all(|(x, r)| locked.simulate(x, &key) == *r);
                assert_eq!(
                    solver.is_key_consistent(&key),
                    expected,
                    "case {case}, key {mask:b}"
                );
            }
        }
    }

    /// The miter against simulation: under assumptions fixing the
    /// inputs and both key vectors, it is satisfiable iff the two keyed
    /// copies disagree on some output.
    #[test]
    fn miter_is_sat_iff_the_outputs_differ() {
        let mut rng = StdRng::seed_from_u64(1402);
        for case in 0..300 {
            let locked = random_locked(&mut rng);
            let (np, nk) = (locked.num_primary_inputs(), locked.num_key_bits());
            let mut dip = DipSolver::new(&locked);
            for probe in 0..64 {
                let x = random_bools(np, &mut rng);
                let key_a = BitVec::random(nk, &mut rng);
                // Every fourth probe uses equal keys, which never differ.
                let key_b = if probe % 4 == 0 {
                    key_a.clone()
                } else {
                    BitVec::random(nk, &mut rng)
                };
                let mut assumptions = vec![dip.differ];
                assumptions.extend(dip.inputs.iter().zip(&x).map(|(&v, &b)| Lit::new(v, !b)));
                for (vars, key) in [(&dip.key_a, &key_a), (&dip.key_b, &key_b)] {
                    assumptions.extend(
                        vars.iter()
                            .enumerate()
                            .map(|(i, &v)| Lit::new(v, !key.get(i))),
                    );
                }
                let differ = locked.simulate(&x, &key_a) != locked.simulate(&x, &key_b);
                assert_eq!(
                    dip.solver.solve_assuming(&assumptions).is_sat(),
                    differ,
                    "case {case}, probe {probe}"
                );
            }
        }
    }

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
            assert!(inc.num_dips() < 500, "runaway DIP loop");
        }
        let mut one = OneShotDipSolver::new(&locked);
        while let Some(dip) = one.find_dip() {
            let response = oracle.simulate(&dip);
            one.constrain(&dip, &response);
            assert!(one.num_dips() < 500, "runaway DIP loop");
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
