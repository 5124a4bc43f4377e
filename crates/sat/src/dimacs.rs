//! DIMACS CNF import/export.

use crate::solver::Solver;
use crate::types::{Lit, Var};
use std::error::Error;
use std::fmt;
use std::fmt::Write as _;

/// Error produced when parsing DIMACS text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseDimacsError {
    line: usize,
    message: String,
}

impl ParseDimacsError {
    fn new(line: usize, message: impl Into<String>) -> Self {
        ParseDimacsError {
            line,
            message: message.into(),
        }
    }
}

impl fmt::Display for ParseDimacsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl Error for ParseDimacsError {}

/// A parsed DIMACS instance.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DimacsInstance {
    /// Declared variable count.
    pub num_vars: usize,
    /// Clauses as signed 1-based integers.
    pub clauses: Vec<Vec<i32>>,
}

impl DimacsInstance {
    /// Loads the instance into a fresh [`Solver`], returning the solver
    /// and the variable table (`vars[i]` = DIMACS variable `i+1`).
    pub fn into_solver(&self) -> (Solver, Vec<Var>) {
        let mut s = Solver::new();
        let vars = s.new_vars(self.num_vars);
        for clause in &self.clauses {
            let lits: Vec<Lit> = clause
                .iter()
                .map(|&l| Lit::new(vars[(l.unsigned_abs() - 1) as usize], l < 0))
                .collect();
            s.add_clause(&lits);
        }
        (s, vars)
    }
}

/// Parses DIMACS CNF text.
///
/// # Errors
///
/// Returns an error on a malformed header, literals out of range,
/// clauses not terminated by `0`, or garbage tokens.
pub fn parse_dimacs(text: &str) -> Result<DimacsInstance, ParseDimacsError> {
    let mut num_vars: Option<usize> = None;
    let mut declared_clauses = 0usize;
    let mut clauses = Vec::new();
    let mut current: Vec<i32> = Vec::new();

    for (lineno, raw) in text.lines().enumerate() {
        let lineno = lineno + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('c') {
            continue;
        }
        if let Some(rest) = line.strip_prefix('p') {
            if num_vars.is_some() {
                return Err(ParseDimacsError::new(lineno, "duplicate header"));
            }
            let parts: Vec<&str> = rest.split_whitespace().collect();
            if parts.len() != 3 || parts[0] != "cnf" {
                return Err(ParseDimacsError::new(lineno, "expected 'p cnf V C'"));
            }
            // Literals are `i32`, so no variable above `i32::MAX` can
            // be named; a larger count would only make `into_solver`
            // allocate variables nothing refers to.
            num_vars = Some(
                parts[1]
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| n <= i32::MAX as usize)
                    .ok_or_else(|| ParseDimacsError::new(lineno, "bad variable count"))?,
            );
            declared_clauses = parts[2]
                .parse()
                .map_err(|_| ParseDimacsError::new(lineno, "bad clause count"))?;
            continue;
        }
        let nv = num_vars.ok_or_else(|| ParseDimacsError::new(lineno, "clause before header"))?;
        for tok in line.split_whitespace() {
            let l: i32 = tok
                .parse()
                .map_err(|_| ParseDimacsError::new(lineno, format!("bad token '{tok}'")))?;
            if l == 0 {
                clauses.push(std::mem::take(&mut current));
            } else {
                if l.unsigned_abs() as usize > nv {
                    return Err(ParseDimacsError::new(
                        lineno,
                        format!("literal {l} out of range (declared {nv} vars)"),
                    ));
                }
                current.push(l);
            }
        }
    }
    if !current.is_empty() {
        return Err(ParseDimacsError::new(0, "unterminated final clause"));
    }
    let num_vars = num_vars.ok_or_else(|| ParseDimacsError::new(0, "missing header"))?;
    if clauses.len() != declared_clauses {
        // Tolerated by most solvers; we accept but could warn. Accept.
    }
    Ok(DimacsInstance { num_vars, clauses })
}

/// Serializes clauses to DIMACS CNF text.
pub fn to_dimacs(num_vars: usize, clauses: &[Vec<i32>]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "p cnf {} {}", num_vars, clauses.len());
    for clause in clauses {
        for &l in clause {
            let _ = write!(out, "{l} ");
        }
        let _ = writeln!(out, "0");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::SatResult;

    #[test]
    fn parse_and_solve() {
        let text = "c sample\np cnf 3 2\n1 -2 0\n2 3 0\n";
        let inst = parse_dimacs(text).expect("parse");
        assert_eq!(inst.num_vars, 3);
        assert_eq!(inst.clauses.len(), 2);
        let (mut solver, vars) = inst.into_solver();
        match solver.solve() {
            SatResult::Sat(m) => {
                let v2 = m.value(vars[1]);
                let v3 = m.value(vars[2]);
                assert!(v2 || v3);
            }
            SatResult::Unsat => panic!("SAT instance"),
        }
    }

    #[test]
    fn round_trip() {
        let clauses = vec![vec![1, 2, -3], vec![-1], vec![3]];
        let text = to_dimacs(3, &clauses);
        let inst = parse_dimacs(&text).expect("parse");
        assert_eq!(inst.clauses, clauses);
        assert_eq!(inst.num_vars, 3);
    }

    #[test]
    fn multiline_clause() {
        let text = "p cnf 2 1\n1\n2 0\n";
        let inst = parse_dimacs(text).expect("parse");
        assert_eq!(inst.clauses, vec![vec![1, 2]]);
    }

    #[test]
    fn errors() {
        assert!(parse_dimacs("1 2 0\n").is_err()); // clause before header
        assert!(parse_dimacs("p cnf 1 1\n5 0\n").is_err()); // out of range
        assert!(parse_dimacs("p cnf 1 1\n1\n").is_err()); // unterminated
        assert!(parse_dimacs("p dnf 1 1\n").is_err()); // bad format tag
        assert!(parse_dimacs("").is_err()); // missing header
    }

    #[test]
    fn variable_count_beyond_i32_is_rejected() {
        let max = format!("p cnf {} 0\n", i32::MAX);
        assert_eq!(
            parse_dimacs(&max).expect("parse").num_vars,
            i32::MAX as usize
        );
        for text in ["p cnf 2147483648 0\n", "p cnf 4294967297 0\n"] {
            let err = parse_dimacs(text).expect_err("count beyond i32::MAX");
            assert_eq!(err.to_string(), "line 1: bad variable count");
        }
    }
}
