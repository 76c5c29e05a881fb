//! DIMACS CNF parsing and printing.

use crate::cnf::{Cnf, Lit, Var};

/// Parse errors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DimacsError {
    /// Missing or malformed `p cnf <vars> <clauses>` line.
    BadHeader,
    /// A token that is not an integer.
    BadToken(String),
    /// A literal references a variable beyond the declared count.
    VarOutOfRange(i64),
    /// The header declares more variables than a [`Lit`] can pack
    /// (above [`Var::LIMIT`]).
    TooManyVars(usize),
    /// A second `p` line. The text is one formula: a second header would
    /// either drop the clauses before it or shrink the range they use.
    DuplicateHeader,
}

impl std::fmt::Display for DimacsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DimacsError::BadHeader => write!(f, "missing or malformed DIMACS header"),
            DimacsError::BadToken(t) => write!(f, "bad token {t:?}"),
            DimacsError::VarOutOfRange(v) => write!(f, "literal {v} out of declared range"),
            DimacsError::TooManyVars(n) => write!(f, "{n} variables exceed Var::LIMIT"),
            DimacsError::DuplicateHeader => write!(f, "a second DIMACS header"),
        }
    }
}

impl std::error::Error for DimacsError {}

/// Parses DIMACS CNF text.
pub fn parse(text: &str) -> Result<Cnf, DimacsError> {
    let mut num_vars: Option<usize> = None;
    let mut cnf = Cnf::new(0);
    let mut current: Vec<Lit> = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('c') {
            continue;
        }
        if let Some(rest) = line.strip_prefix('p') {
            if num_vars.is_some() {
                return Err(DimacsError::DuplicateHeader);
            }
            let parts: Vec<&str> = rest.split_whitespace().collect();
            if parts.len() != 3 || parts[0] != "cnf" {
                return Err(DimacsError::BadHeader);
            }
            let nv: usize = parts[1].parse().map_err(|_| DimacsError::BadHeader)?;
            if nv > Var::LIMIT {
                return Err(DimacsError::TooManyVars(nv));
            }
            num_vars = Some(nv);
            cnf = Cnf::new(nv);
            continue;
        }
        let nv = num_vars.ok_or(DimacsError::BadHeader)?;
        for tok in line.split_whitespace() {
            let v: i64 = tok
                .parse()
                .map_err(|_| DimacsError::BadToken(tok.to_string()))?;
            if v == 0 {
                cnf.add_clause(current.drain(..));
            } else {
                let var = v.unsigned_abs() as usize - 1;
                if var >= nv {
                    return Err(DimacsError::VarOutOfRange(v));
                }
                current.push(Lit::new(Var(var as u32), v > 0));
            }
        }
    }
    if !current.is_empty() {
        cnf.add_clause(current);
    }
    Ok(cnf)
}

/// Prints a formula in DIMACS format.
pub fn print(cnf: &Cnf) -> String {
    let mut out = format!("p cnf {} {}\n", cnf.num_vars, cnf.num_clauses());
    for c in cnf.clauses() {
        for l in c {
            let v = l.var().0 as i64 + 1;
            out.push_str(&format!("{} ", if l.is_positive() { v } else { -v }));
        }
        out.push_str("0\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let f = Cnf::from_clauses(3, &[&[(0, true), (1, false)], &[(2, true)]]);
        let text = print(&f);
        let g = parse(&text).unwrap();
        assert_eq!(f, g);
    }

    #[test]
    fn parses_comments_and_header() {
        let text = "c a comment\np cnf 2 2\n1 -2 0\n2 0\n";
        let f = parse(text).unwrap();
        assert_eq!(f.num_vars, 2);
        assert_eq!(f.num_clauses(), 2);
    }

    #[test]
    fn error_cases() {
        assert_eq!(parse("1 2 0"), Err(DimacsError::BadHeader));
        assert_eq!(parse("p cnf 1 1\n2 0"), Err(DimacsError::VarOutOfRange(2)));
        assert!(matches!(
            parse("p cnf 1 1\nxyz 0"),
            Err(DimacsError::BadToken(_))
        ));
    }
}
