//! Theorem 3 end-to-end: CNF satisfiability ↔ unsafety of a two-transaction
//! multisite system, on the paper's Fig. 8 example.
//!
//! Run with: `cargo run --example sat_reduction`

use kplock::core::closure::try_unsafety_via_dominator;
use kplock::core::reduction::NodeKind;
use kplock::graph::enumerate_dominators;
use kplock::model::{EntityId, TxnId};
use kplock::sat::SatResult;
use kplock::workload::{fig8_formula, fig8_reduction};

fn main() {
    let f = fig8_formula();
    println!("F = (x1 v x2 v x3) & (~x1 v x2 v ~x3)");
    println!("clauses: {:?}\n", f.clauses().collect::<Vec<_>>());

    let r = fig8_reduction();
    println!(
        "reduction: {} entities (one site each), T1/T2 with {} steps each",
        r.sys.db().entity_count(),
        r.sys.txn(TxnId(0)).len()
    );
    assert!(r.verify_intended());
    println!("constructed D(T1(F), T2(F)) matches the intended digraph\n");

    // Enumerate dominators of D and print the Fig. 8 table:
    // dominator -> assignment -> desirable?
    let d = r.d_graph();
    let (doms, exhaustive) = enumerate_dominators(&d.graph, 10_000);
    assert!(exhaustive);
    println!(
        "{} dominators; the assignment table (middle row only):",
        doms.len()
    );
    println!(
        "{:<30} {:>4} {:>4} {:>4}  desirable  closure",
        "dominator (middle part)", "x1", "x2", "x3"
    );
    let mut certificates = 0;
    for dom_bits in &doms {
        let dom: Vec<EntityId> = dom_bits.iter().map(|i| d.entities[i]).collect();
        let middle: Vec<String> = dom
            .iter()
            .filter(|e| {
                matches!(
                    r.kinds[e.idx()],
                    NodeKind::WPos { .. } | NodeKind::WNeg { .. }
                )
            })
            .map(|&e| r.label(e))
            .collect();
        let assignment = r.assignment_of_dominator(&dom);
        let fmt = |v: Option<bool>| match v {
            Some(true) => "1",
            Some(false) => "0",
            None => "-",
        };
        let (a1, a2, a3) = match &assignment {
            Ok(a) => (fmt(a[0]), fmt(a[1]), fmt(a[2])),
            Err(_) => ("!", "!", "!"),
        };
        let desirable = r.is_desirable(&dom);
        let cert = try_unsafety_via_dominator(&r.sys, TxnId(0), TxnId(1), &dom);
        if cert.is_some() {
            certificates += 1;
        }
        println!(
            "{:<30} {a1:>4} {a2:>4} {a3:>4}  {desirable:<9}  {}",
            format!("{{{}}}", middle.join(",")),
            if cert.is_some() {
                "certificate"
            } else {
                "fails"
            }
        );
        // Soundness: a closure certificate exists exactly for desirable
        // dominators (paper, proof of Theorem 3).
        assert_eq!(desirable, cert.is_some());
    }

    println!();
    match r.solve_formula() {
        SatResult::Sat(model) => {
            println!("DPLL: satisfiable, model = {model:?}");
            println!(
                "=> {} desirable dominators produced verified unsafety certificates",
                certificates
            );
            assert!(certificates > 0);
        }
        SatResult::Unsat => {
            println!("DPLL: unsatisfiable => no certificate should exist");
            assert_eq!(certificates, 0);
        }
    }
}
