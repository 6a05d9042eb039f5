//! DIMACS parser properties: hostile token streams are answered with `Ok`
//! or a typed error, never a panic, and `to_dimacs` → `from_dimacs` is the
//! identity.

use proptest::prelude::*;
use ril_sat::{Cnf, DimacsErrorKind, Lit, Var};

/// Maps a random word to a DIMACS-ish token: headers, comments, clause
/// terminators, small and boundary-sized literals, and junk.
fn token(word: u64) -> String {
    let edge = Var::MAX_INDEX as i64 + 1;
    let pick = (word >> 8) as i64;
    match word % 16 {
        0 => "0".into(),
        1 => "\n".into(),
        2 => "p".into(),
        3 => "cnf".into(),
        4 => "c".into(),
        5 => "\np cnf".into(),
        6 => format!("{}", edge + pick % 3 - 1),
        7 => format!("-{}", edge + pick % 3 - 1),
        8 => format!("{}", (1i64 << 32) + 1 - pick % 2),
        9 => format!("{}", word as i64),
        10 => "x-1".into(),
        11 => i64::MIN.to_string(),
        _ => format!("{}", pick % 9 - 4),
    }
}

/// The non-zero integer tokens outside comment and header lines: the
/// literals a faithful parse must reproduce, in order.
fn literal_tokens(text: &str) -> Vec<i64> {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.starts_with('c') && !l.starts_with('p'))
        .flat_map(str::split_whitespace)
        .filter_map(|t| t.parse::<i64>().ok())
        .filter(|&v| v != 0)
        .collect()
}

/// Each literal's variable is inside the formula's pool.
fn in_pool(cnf: &Cnf) -> bool {
    cnf.clauses()
        .iter()
        .flatten()
        .all(|l| l.var().index() < cnf.num_vars())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_token_streams_never_panic(words in prop::collection::vec(any::<u64>(), 0..40)) {
        let body: Vec<String> = words.iter().map(|&w| token(w)).collect();
        for text in [body.join(" "), format!("p cnf 3 1\n{}", body.join(" "))] {
            match Cnf::from_dimacs(&text) {
                Ok(cnf) => {
                    // No literal aliases another: each reads back as written.
                    let lits: Vec<i64> = cnf.clauses().iter().flatten().map(|l| l.to_dimacs()).collect();
                    prop_assert_eq!(lits, literal_tokens(&text));
                    prop_assert!(in_pool(&cnf));
                    prop_assert!(cnf.num_vars() <= Var::MAX_INDEX + 1);
                    prop_assert_eq!(Cnf::from_dimacs(&cnf.to_dimacs()), Ok(cnf));
                }
                Err(e) => {
                    if let DimacsErrorKind::VarOutOfRange(v) = e.kind {
                        prop_assert!(v > Var::MAX_INDEX as u64 + 1);
                    }
                    prop_assert!(!e.to_string().is_empty());
                }
            }
        }
    }

    #[test]
    fn to_dimacs_round_trips(
        vars in 0usize..6,
        clauses in prop::collection::vec(prop::collection::vec(any::<u32>(), 0..5), 0..8),
        wide in any::<bool>(),
    ) {
        // Variables are drawn from a small pool, or (`wide`) from the whole
        // encodable range.
        let mut cnf = Cnf::new();
        cnf.reserve_vars(vars);
        for clause in &clauses {
            cnf.add_clause(clause.iter().map(|&w| {
                let index = if wide { (w >> 1) as usize } else { (w >> 1) as usize % 8 };
                Lit::new(index, w & 1 == 1)
            }));
        }
        prop_assert_eq!(Cnf::from_dimacs(&cnf.to_dimacs()), Ok(cnf));
    }
}
