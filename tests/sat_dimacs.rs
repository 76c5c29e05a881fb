//! DIMACS I/O properties: `print` and `parse` are exact inverses on the
//! generator's whole output range, and the parser's error paths reject
//! malformed input rather than guessing.

use kplock::sat::dimacs::{parse, print, DimacsError};
use kplock::sat::{random_kcnf, random_restricted, solve, Cnf, Lit, SatResult, Var};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// print ∘ parse is the identity on random k-CNF, and the round trip
    /// preserves the DPLL verdict.
    #[test]
    fn kcnf_roundtrips_exactly(
        seed in 0u64..100_000,
        vars in 3usize..30, // ≥ max clause width: random_kcnf needs k ≤ vars
        clauses in 0usize..60,
        k in 1usize..4,
    ) {
        let f = random_kcnf(seed, vars, clauses, k);
        let g = parse(&print(&f)).expect("printed text parses");
        prop_assert_eq!(&f, &g, "seed {}: round trip changed the formula", seed);
        prop_assert_eq!(
            solve(&f).is_sat(),
            solve(&g).is_sat(),
            "seed {}: round trip changed the verdict", seed
        );
    }

    /// The paper's restricted form survives the round trip too (it is the
    /// Theorem-3 reduction's input class, so the CLI must not corrupt it).
    #[test]
    fn restricted_form_roundtrips_exactly(
        seed in 0u64..100_000,
        vars in 1usize..25,
        clauses in 1usize..40,
    ) {
        let f = random_restricted(seed, vars, clauses);
        let g = parse(&print(&f)).expect("printed text parses");
        prop_assert_eq!(f, g);
    }
}

#[test]
fn parser_rejects_malformed_input() {
    // Clauses before any header: the declared range is unknown.
    assert_eq!(parse("1 -2 0"), Err(DimacsError::BadHeader));
    // Header with the wrong arity or tag.
    assert_eq!(parse("p cnf 3"), Err(DimacsError::BadHeader));
    assert_eq!(parse("p sat 3 1\n1 0"), Err(DimacsError::BadHeader));
    assert_eq!(parse("p cnf three 1\n1 0"), Err(DimacsError::BadHeader));
    // Non-integer literal tokens.
    assert!(matches!(
        parse("p cnf 2 1\n1 x 0"),
        Err(DimacsError::BadToken(_))
    ));
    // Literals beyond the declared variable count, both polarities.
    assert_eq!(parse("p cnf 2 1\n3 0"), Err(DimacsError::VarOutOfRange(3)));
    assert_eq!(
        parse("p cnf 2 1\n-3 0"),
        Err(DimacsError::VarOutOfRange(-3))
    );
    // A variable count no `Var` can number: the literal used to wrap to
    // `x1` and parse as a unit clause on it.
    assert_eq!(
        parse("p cnf 4294967297 1\n4294967297 0\n"),
        Err(DimacsError::TooManyVars(4_294_967_297))
    );
    // A second header. This one shrank the formula under a clause that
    // still held `x3`, which panicked in `Cnf::add_clause`.
    assert_eq!(
        parse("p cnf 3 1\n3\np cnf 2 1\n0\n"),
        Err(DimacsError::DuplicateHeader)
    );
    // And this one silently dropped the clause before it.
    assert_eq!(
        parse("p cnf 2 2\n1 0\np cnf 2 1\n2 0\n"),
        Err(DimacsError::DuplicateHeader)
    );
}

#[test]
fn the_variable_cap_is_what_a_literal_packs() {
    // A literal is one u32 holding its variable and its polarity, so
    // Var::LIMIT (2^31) variables parse and one more is refused.
    let f = parse("p cnf 2147483648 1\n-2147483648 0\n").expect("at the cap");
    assert_eq!(f.num_vars, Var::LIMIT);
    assert_eq!(f.clause(0), [Lit::neg(Var((Var::LIMIT - 1) as u32))]);
    assert_eq!(
        parse("p cnf 2147483649 0\n"),
        Err(DimacsError::TooManyVars(2_147_483_649))
    );
}

#[test]
fn trailing_unterminated_clause_is_kept() {
    // DIMACS requires a trailing 0, but a final unterminated clause is
    // accepted rather than silently dropped — pin that behavior.
    let f = parse("p cnf 2 2\n1 0\n-1 2").expect("parses");
    assert_eq!(f.num_clauses(), 2);
    assert_eq!(f, parse(&print(&f)).expect("round trip"));
}

#[test]
fn comments_and_blank_lines_are_ignored_anywhere() {
    let text = "c preamble\n\np cnf 2 2\nc between clauses\n1 -2 0\n\n2 0\nc trailing\n";
    let f = parse(text).expect("parses");
    assert_eq!(f.num_vars, 2);
    assert_eq!(f.num_clauses(), 2);
}

#[test]
fn empty_formula_roundtrips() {
    let f = Cnf::new(0);
    let text = print(&f);
    assert_eq!(parse(&text).expect("parses"), f);
    assert!(matches!(solve(&f), SatResult::Sat(_)));
}
