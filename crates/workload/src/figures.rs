//! The paper's figure instances, reconstructed and mechanically verified.
//!
//! The JCSS scan's figures are partially illegible, so each constructor
//! builds an instance with the figure's *stated properties* (documented per
//! function); the test suite and `examples/paper_figures.rs` verify those
//! properties with the exact oracle, Theorem 2 and the closure engine.

use kplock_model::{Database, StepId, TxnBuilder, TxnSystem};

/// **Fig. 1**: two transactions on two sites (x, y at site 1; w, z at
/// site 2) forming an *unsafe* system — a non-serializable schedule exists.
///
/// Each transaction locks tightly per entity (non-two-phase), and the two
/// transactions visit x and z in opposite orders across the sites, so the
/// conflict digraph is not strongly connected.
pub fn fig1() -> TxnSystem {
    let db = Database::from_spec(&[("x", 0), ("y", 0), ("w", 1), ("z", 1)]);
    // T1: site 1 runs Lx x Ux Ly y Uy; site 2 runs Lz z Uz Lw w Uw, with
    // the x-section preceding the z-section (data dependency).
    let mut b1 = TxnBuilder::new(&db, "T1");
    let s1 = b1.script("Lx x Ux Ly y Uy").unwrap();
    let s2 = b1.script("Lz z Uz Lw w Uw").unwrap();
    b1.edge(s1[2], s2[0]); // Ux before Lz
    let t1 = b1.build().unwrap();
    // T2: opposite orders: y before x at site 1; w before z at site 2.
    let mut b2 = TxnBuilder::new(&db, "T2");
    let s1 = b2.script("Ly y Uy Lx x Ux").unwrap();
    let s2 = b2.script("Lw w Uw Lz z Uz").unwrap();
    b2.edge(s2[2], s1[3]); // Uw before Lx
    let t2 = b2.build().unwrap();
    TxnSystem::new(db, vec![t1, t2])
}

/// **Fig. 2**: the geometric picture of two totally ordered (centralized)
/// transactions with rectangles for x, y, z, where the schedule `h`
/// separates the x- and z-rectangles — the pair is unsafe.
///
/// `t1 = Lx Ly x y Ux Uy Lz z Uz` (exactly the paper's horizontal axis);
/// `t2` locks x and z in one two-phase block and y separately, so a curve
/// can pass above x and below z.
pub fn fig2() -> TxnSystem {
    let db = Database::centralized(&["x", "y", "z"]);
    let mut b1 = TxnBuilder::new(&db, "t1");
    b1.script("Lx Ly x y Ux Uy Lz z Uz").unwrap();
    let t1 = b1.build().unwrap();
    let mut b2 = TxnBuilder::new(&db, "t2");
    b2.script("Lz z Uz Ly y Uy Lx x Ux").unwrap();
    let t2 = b2.build().unwrap();
    TxnSystem::new(db, vec![t1, t2])
}

/// **Fig. 3**: a two-site system `{T1, T2}` (x, y at site 1; z at site 2)
/// that is unsafe although *some* pair of linear extensions is safe —
/// unsafety only shows in other extensions (Lemma 1). Its `D(T1, T2)` has
/// the dominator {x, y}.
pub fn fig3() -> TxnSystem {
    let db = Database::from_spec(&[("x", 0), ("y", 0), ("z", 1)]);
    // T1: site 1 chain Ly Lx Uy Ux; site 2 chain Lz Uz; Lz ≺ Ux.
    let mut b1 = TxnBuilder::new(&db, "T1");
    let s1 = b1.script("Ly Lx y x Uy Ux").unwrap();
    let s2 = b1.script("Lz z Uz").unwrap();
    b1.edge(s2[0], s1[5]); // Lz before Ux
    let t1 = b1.build().unwrap();
    // T2: site 1 chain Ly Lx Uy Ux; site 2 chain Lz Uz; Ly ≺ Uz.
    let mut b2 = TxnBuilder::new(&db, "T2");
    let s1 = b2.script("Ly Lx y x Uy Ux").unwrap();
    let s2 = b2.script("Lz z Uz").unwrap();
    b2.edge(s1[0], s2[2]); // Ly before Uz
    let t2 = b2.build().unwrap();
    TxnSystem::new(db, vec![t1, t2])
}

/// **Fig. 5**: the four-site system showing that Theorem 1's condition is
/// *not necessary*: `D(T1, T2)` is not strongly connected (it is
/// `x1 ↔ x2`, `y1 ↔ y2`, `x1 → y1`; the only dominator is {x1, x2}), yet
/// the system is safe — the closure w.r.t. {x1, x2} forces `Ux1` to both
/// precede and follow `Ux2`, a contradiction.
pub fn fig5() -> TxnSystem {
    let db = Database::from_spec(&[("x1", 0), ("x2", 1), ("y1", 2), ("y2", 3)]);
    let mut b1 = TxnBuilder::new(&db, "T1");
    let mut b2 = TxnBuilder::new(&db, "T2");
    let mut l1 = std::collections::HashMap::new();
    let mut u1 = std::collections::HashMap::new();
    let mut l2 = std::collections::HashMap::new();
    let mut u2 = std::collections::HashMap::new();
    for e in ["x1", "x2", "y1", "y2"] {
        let ids = {
            let mut v: Vec<StepId> = Vec::new();
            v.push(b1.lock(e).unwrap());
            b1.update(e).unwrap();
            v.push(b1.unlock(e).unwrap());
            v
        };
        l1.insert(e, ids[0]);
        u1.insert(e, ids[1]);
        let ids = {
            let mut v: Vec<StepId> = Vec::new();
            v.push(b2.lock(e).unwrap());
            b2.update(e).unwrap();
            v.push(b2.unlock(e).unwrap());
            v
        };
        l2.insert(e, ids[0]);
        u2.insert(e, ids[1]);
    }
    // Realize the intended arcs (p, q): Lp ≺₁ Uq and Lq ≺₂ Up.
    for (p, q) in [
        ("x1", "x2"),
        ("x2", "x1"),
        ("y1", "y2"),
        ("y2", "y1"),
        ("x1", "y1"),
    ] {
        b1.edge(l1[p], u1[q]);
        b2.edge(l2[q], u2[p]);
    }
    // Closure triggers (index-shifted so no new D-arcs appear):
    // Ly1 ≺₁ Ux1, Ly2 ≺₁ Ux2; Lx2 ≺₂ Uy1, Lx1 ≺₂ Uy2.
    b1.edge(l1["y1"], u1["x1"]);
    b1.edge(l1["y2"], u1["x2"]);
    b2.edge(l2["x2"], u2["y1"]);
    b2.edge(l2["x1"], u2["y2"]);
    let t1 = b1.build().unwrap();
    let t2 = b2.build().unwrap();
    TxnSystem::new(db, vec![t1, t2])
}

#[cfg(test)]
mod tests {
    use super::*;
    use kplock_core::{
        analyze_pair, decide_exhaustive, decide_two_site, OracleOptions, OracleOutcome, SafeProof,
        SafetyVerdict,
    };
    use kplock_geometry::{find_separation, PlanePicture};
    use kplock_model::{Level, TxnId};

    #[test]
    fn fig1_is_unsafe_with_witness() {
        let sys = fig1();
        sys.validate(Level::Strict).unwrap();
        let verdict = decide_two_site(&sys, TxnId(0), TxnId(1)).unwrap();
        let cert = verdict.certificate().expect("Fig. 1 is unsafe");
        cert.verify(&sys).unwrap();
        // And the exact oracle agrees.
        let r = decide_exhaustive(&sys, &OracleOptions::default());
        assert!(matches!(r.outcome, OracleOutcome::Unsafe(_)));
    }

    #[test]
    fn fig2_separates_x_and_z() {
        let sys = fig2();
        let plane = PlanePicture::new(&sys, TxnId(0), TxnId(1)).unwrap();
        assert_eq!(plane.rects.len(), 3);
        let w = find_separation(&plane).expect("Fig. 2 is unsafe");
        w.schedule.validate_complete(&sys).unwrap();
        assert!(!kplock_model::is_serializable(&sys, &w.schedule));
        // The paper's schedule h runs t1 through its x-section first and
        // t2 through its z-section first: the curve passes below the
        // x-rectangle and above the z-rectangle. Verify that exact
        // separation is achievable.
        let (x, z) = (sys.db().entity("x").unwrap(), sys.db().entity("z").unwrap());
        let rx = *plane.rect_of(x).unwrap();
        let rz = *plane.rect_of(z).unwrap();
        let wxz =
            kplock_geometry::separate(&plane, &rz, &rx).expect("curve above z, below x exists");
        wxz.schedule.validate_complete(&sys).unwrap();
        assert!(!kplock_model::is_serializable(&sys, &wxz.schedule));
    }

    #[test]
    fn fig3_unsafe_with_dominator_xy() {
        let sys = fig3();
        sys.validate(Level::Strict).unwrap();
        let analysis = analyze_pair(&sys);
        assert!(!analysis.strongly_connected);
        let cert = analysis.verdict.certificate().expect("Fig. 3 is unsafe");
        cert.verify(&sys).unwrap();
        // D restricted to {x,y} is the strongly connected part; z is
        // separated. The dominator found is either {x,y} or {z}.
        let x = sys.db().entity("x").unwrap();
        let y = sys.db().entity("y").unwrap();
        let z = sys.db().entity("z").unwrap();
        assert!(cert.dominator == vec![x, y] || cert.dominator == vec![z]);
    }

    #[test]
    fn fig3_some_extension_pair_is_safe() {
        // Lemma 1's point: at least one pair of linear extensions is safe
        // even though the distributed system is unsafe.
        let sys = fig3();
        let t1 = sys.txn(TxnId(0));
        let t2 = sys.txn(TxnId(1));
        let mut found_safe_plane = false;
        for e1 in kplock_model::linear_extensions(t1) {
            for e2 in kplock_model::linear_extensions(t2) {
                let lin = TxnSystem::new(
                    sys.db().clone(),
                    vec![t1.linearized(&e1).unwrap(), t2.linearized(&e2).unwrap()],
                );
                let plane = PlanePicture::new(&lin, TxnId(0), TxnId(1)).unwrap();
                if kplock_geometry::plane_is_safe(&plane) {
                    found_safe_plane = true;
                    break;
                }
            }
            if found_safe_plane {
                break;
            }
        }
        assert!(found_safe_plane, "Fig. 3c shows a safe (t1,t2)-plane");
    }

    #[test]
    fn fig5_safe_despite_unconnected_d() {
        let sys = fig5();
        sys.validate(Level::Strict).unwrap();
        let analysis = analyze_pair(&sys);
        assert!(!analysis.strongly_connected, "D is not strongly connected");
        assert!(
            matches!(
                analysis.verdict,
                SafetyVerdict::Safe(SafeProof::Unsatisfiable)
            ),
            "safe, but only the exact pair path can tell: {:?}",
            analysis.verdict
        );
    }
}
