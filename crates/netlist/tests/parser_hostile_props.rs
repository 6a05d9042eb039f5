//! Hostile input: `parse_bench` and `parse_verilog` return `Ok` or a
//! typed error on any text — arbitrary token soup, raw Unicode, and valid
//! files with random edits — and never panic.

use proptest::prelude::*;
use ril_netlist::generators::random_circuit;
use ril_netlist::{
    parse_bench, parse_verilog, write_bench, write_verilog, ParseBenchError, ParseVerilogError,
};

/// Deterministic splitmix64 step for fanning one sampled seed into values.
fn splitmix(z: &mut u64) -> u64 {
    *z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut x = *z;
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Fragments of both grammars, separators, and multi-byte characters
/// placed where the parsers slice by byte offset.
#[rustfmt::skip]
const TOKENS: &[&str] = &[
    "INPUT", "OUTPUT", "KEYINPUT", "input", "output", "Input", "INPU", "INPUé", "OUTPUé",
    "module ", "endmodule", "assign ", "wire ", "and ", "nand ", "not ", "dff ", "xor ", "LUT2",
    "MUX", "DFF", "NOT", "AND", "CONST0", "(", ")", "((", "))", ",", "=", "==", ";", "#", "//",
    "/*", "*/", "?", ":", "~", "&", "|", "1'b0", "1'b1", "0x", "0b", "0xF", "99", "a", "b", "G1",
    "n_3", "[0]", "$", " ", "  ", "\n", "\r\n", "\t", "é", "ü", "≠", "😀", "\u{0}", "\u{200b}",
    "// KEYINPUTS: a b", "(~a & ~b)", "(a & b)", " | ",
];

fn token_soup(z: &mut u64) -> String {
    let n = (splitmix(z) % 120) as usize;
    (0..n)
        .map(|_| TOKENS[(splitmix(z) as usize) % TOKENS.len()])
        .collect()
}

/// Any Unicode scalar values, biased toward ASCII.
fn raw_text(z: &mut u64) -> String {
    let n = (splitmix(z) % 200) as usize;
    (0..n)
        .map(|_| {
            let r = splitmix(z);
            let code = if r & 3 == 0 {
                (r >> 8) as u32 % 0x11_0000
            } else {
                (r >> 8) as u32 % 0x80
            };
            char::from_u32(code).unwrap_or('\u{fffd}')
        })
        .collect()
}

/// Applies `edits` random character-level edits to `text`.
fn mutate(text: &str, edits: usize, z: &mut u64) -> String {
    let mut chars: Vec<char> = text.chars().collect();
    for _ in 0..edits {
        let at = if chars.is_empty() {
            0
        } else {
            (splitmix(z) as usize) % chars.len()
        };
        match splitmix(z) % 5 {
            0 if !chars.is_empty() => {
                chars.remove(at);
            }
            1 => {
                let token = TOKENS[(splitmix(z) as usize) % TOKENS.len()];
                for (k, c) in token.chars().enumerate() {
                    chars.insert(at + k, c);
                }
            }
            2 => chars.truncate(at),
            3 if !chars.is_empty() => {
                let other = (splitmix(z) as usize) % chars.len();
                chars.swap(at, other);
            }
            _ => {
                // Duplicate a span: repeated declarations and drivers.
                let end = (at + 1 + (splitmix(z) % 40) as usize).min(chars.len());
                let span: Vec<char> = chars[at..end].to_vec();
                for (k, c) in span.into_iter().enumerate() {
                    chars.insert(end + k, c);
                }
            }
        }
    }
    chars.into_iter().collect()
}

/// Both parsers on one text; either outcome is fine, a panic is not.
fn parse_both(text: &str) {
    let _ = parse_bench("hostile", text);
    let _ = parse_verilog(text);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_text_never_panics_the_parsers(seed in any::<u64>()) {
        let mut z = seed;
        parse_both(&token_soup(&mut z));
        parse_both(&raw_text(&mut z));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn mutated_valid_files_never_panic_the_parsers(
        seed in 0u64..10_000,
        n_inputs in 1usize..8,
        n_gates in 2usize..30,
        edits in 1usize..8,
    ) {
        let nl = random_circuit(seed, n_inputs, n_gates, 1.max(n_gates / 4));
        let mut z = seed;
        for text in [write_bench(&nl), write_verilog(&nl)] {
            let mutated = mutate(&text, edits, &mut z);
            parse_both(&mutated);
        }
    }
}

/// A directive keyword cut inside a multi-byte character is a typed
/// syntax error, not a slice-boundary panic.
#[test]
fn non_ascii_directive_is_a_typed_error() {
    for text in ["INPUé(a)", "OUTPUé(y)", "KEYINPUé(k)", "é", "INPUT(é)"] {
        match parse_bench("x", text) {
            Err(ParseBenchError::Syntax { line: 1, .. }) => {}
            other => panic!("{text:?} parsed to {other:?}"),
        }
    }
}

/// A primitive whose `)` comes before its `(` is a typed error, not an
/// inverted slice.
#[test]
fn reversed_parentheses_are_a_typed_error() {
    let text = "module m (a, y);\ninput a;\noutput y;\nand ) g0 (y, a;\nendmodule\n";
    assert!(matches!(
        parse_verilog(text),
        Err(ParseVerilogError::Syntax(_))
    ));
}
