//! Pinned search trajectories: exact [`SolverStats`] for fixed
//! deterministic instances.
//!
//! The CDCL core is deterministic, so the work counters of a solve are a
//! fingerprint of the whole search: every decision, propagation, learnt
//! clause, reduction and restart. A change to the solver's data layout
//! (clause storage, assignment lookup, garbage collection) must leave
//! these counts bit-identical; a change that alters the search on purpose
//! must re-pin them and say so.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ril_sat::{Cnf, Lit, Outcome, Session, Solver, SolverStats, Var};

fn stats(
    conflicts: u64,
    decisions: u64,
    propagations: u64,
    learned: u64,
    deleted: u64,
    restarts: u64,
) -> SolverStats {
    SolverStats {
        decisions,
        conflicts,
        propagations,
        restarts,
        learned,
        deleted,
    }
}

/// `holes + 1` pigeons into `holes` holes: UNSAT.
fn pigeonhole(holes: usize) -> Cnf {
    let pigeons = holes + 1;
    let mut cnf = Cnf::new();
    let var = |p: usize, h: usize| Var::new(p * holes + h);
    cnf.new_vars(pigeons * holes);
    for p in 0..pigeons {
        cnf.add_clause((0..holes).map(|h| var(p, h).positive()));
    }
    for h in 0..holes {
        for p1 in 0..pigeons {
            for p2 in p1 + 1..pigeons {
                cnf.add_clause([var(p1, h).negative(), var(p2, h).negative()]);
            }
        }
    }
    cnf
}

/// A seeded uniform random 3-SAT instance (three distinct variables per
/// clause).
fn random_3sat(seed: u64, vars: usize, clauses: usize) -> Cnf {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut cnf = Cnf::new();
    cnf.new_vars(vars);
    for _ in 0..clauses {
        let mut lits: Vec<Lit> = Vec::with_capacity(3);
        while lits.len() < 3 {
            let v = rng.gen_range(0..vars);
            if lits.iter().all(|l| l.var().index() != v) {
                lits.push(Lit::new(v, rng.gen()));
            }
        }
        cnf.add_clause(lits);
    }
    cnf
}

#[test]
fn pigeonhole_7_trajectory_is_pinned() {
    let mut s = Solver::from_cnf(&pigeonhole(7));
    assert_eq!(s.solve(), Outcome::Unsat);
    assert_eq!(s.stats(), stats(3262, 3990, 40067, 3255, 998, 15));
}

#[test]
fn random_3sat_threshold_trajectory_is_pinned() {
    // 4.26 clauses per variable: the hardest region of random 3-SAT.
    // This draw is UNSAT and runs long enough to reduce the learnt
    // database several times.
    let cnf = random_3sat(0x5A7, 170, 724);
    let mut s = Solver::from_cnf(&cnf);
    let outcome = s.solve();
    if outcome == Outcome::Sat {
        assert!(cnf.is_satisfied_by(s.model()));
    }
    assert_eq!(
        (outcome, s.stats()),
        (Outcome::Unsat, stats(4615, 5576, 154792, 4603, 2491, 23))
    );
}

#[test]
fn session_assumption_sequence_trajectory_is_pinned() {
    // One long-lived session: assumption solves interleaved with clause
    // appends, so learnt clauses, reductions and activities carry over
    // from call to call.
    let cnf = random_3sat(0xD1B, 150, 600);
    let mut session = Session::from_cnf(&cnf);
    let mut rng = StdRng::seed_from_u64(7);
    let mut got = Vec::new();
    for call in 0..12 {
        let assumptions: Vec<Lit> = (0..4)
            .map(|_| Lit::new(rng.gen_range(0..150), rng.gen()))
            .collect();
        let outcome = session.solve_under(&assumptions);
        got.push((outcome, session.last_record().expect("recorded").stats));
        if call % 3 == 2 {
            let extra = random_3sat(0xD1B + call, 150, 10);
            session.append_cnf(&extra);
        }
    }
    let expect = vec![
        (Outcome::Sat, stats(29, 80, 1079, 29, 0, 0)),
        (Outcome::Sat, stats(88, 139, 3225, 88, 0, 0)),
        (Outcome::Sat, stats(387, 471, 12983, 387, 0, 2)),
        (Outcome::Sat, stats(211, 285, 6833, 211, 0, 2)),
        (Outcome::Unsat, stats(213, 269, 7037, 213, 0, 2)),
        (Outcome::Unsat, stats(277, 345, 9371, 277, 0, 2)),
        (Outcome::Unsat, stats(177, 204, 5353, 177, 0, 1)),
        (Outcome::Unsat, stats(415, 485, 13952, 415, 0, 3)),
        (Outcome::Sat, stats(141, 195, 4693, 141, 0, 1)),
        (Outcome::Sat, stats(99, 139, 3707, 99, 999, 0)),
        (Outcome::Sat, stats(323, 420, 11773, 323, 0, 2)),
        (Outcome::Sat, stats(0, 27, 150, 0, 0, 0)),
    ];
    assert_eq!(got, expect);
}
