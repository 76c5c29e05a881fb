//! CNF satisfiability substrate for the Theorem-3 reduction and for
//! `kplock-core`'s exact `sat_check`.
//!
//! The paper's coNP-completeness proof reduces *restricted* CNF
//! satisfiability (≤3 literals per clause, each variable at most twice
//! positive and once negative) to unsafety of a two-transaction multisite
//! system. This crate provides the CNF types, a complete DPLL solver (used
//! as the decision baseline), the restricted-form conversion, random
//! formula generators, and DIMACS I/O. No external SAT solver is available
//! in the offline crate set, so everything is built from scratch.
//!
//! A [`Cnf`] is one literal pool with an offset per clause boundary, and a
//! [`Lit`] is one `u32`; the solver's clause store is a `Cnf` too, and its
//! watch lists are rows over one more pool. Building and solving a formula
//! allocates per formula, not per clause.
//!
//! # Example
//!
//! ```
//! use kplock_sat::{solve, Cnf, Lit, SatResult, Var};
//!
//! // (a ∨ b) ∧ (¬a) ∧ (¬b ∨ c): satisfiable only with b=c=true.
//! let mut cnf = Cnf::new(3);
//! let (a, b, c) = (Var(0), Var(1), Var(2));
//! cnf.add_clause([Lit::pos(a), Lit::pos(b)]);
//! cnf.add_clause([Lit::neg(a)]);
//! cnf.add_clause([Lit::neg(b), Lit::pos(c)]);
//! match solve(&cnf) {
//!     SatResult::Sat(assignment) => {
//!         assert!(!assignment[0] && assignment[1] && assignment[2]);
//!     }
//!     SatResult::Unsat => unreachable!(),
//! }
//! ```

pub mod card;
pub mod cnf;
pub mod dimacs;
pub mod dpll;
pub mod gen;
pub mod models;
pub mod restricted;

pub use card::{at_least_k, at_most_k};
pub use cnf::{Cnf, Lit, Var};
pub use dpll::{solve, solve_brute_force, SatResult, Solver};
pub use gen::{random_kcnf, random_restricted, XorShift};
pub use models::{all_models, count_models_brute_force};
pub use restricted::{to_restricted_form, Restricted};
