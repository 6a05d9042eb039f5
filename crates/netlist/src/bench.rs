//! ISCAS `.bench` format reader and writer.
//!
//! The classic format:
//!
//! ```text
//! # c17
//! INPUT(1)
//! OUTPUT(22)
//! 10 = NAND(1, 3)
//! 22 = NAND(10, 16)
//! ```
//!
//! Two extensions are supported, both used by the RIL-Blocks flow:
//!
//! * `KEYINPUT(k0)` — declares a primary input that is an obfuscation key
//!   bit (the de-facto convention of published logic-locking tools is a key
//!   name prefix; the explicit directive is unambiguous and round-trips).
//! * `y = LUT2(0x8, a, b)` — a configured 2-input LUT carrying its 4-bit
//!   truth table, the materialized form of a programmed MRAM LUT
//!   (paper Fig. 1 uses the equivalent 3-MUX expansion for SAT simulation).

use crate::gate::GateKind;
use crate::netlist::{Netlist, NetlistError};
use std::error::Error;
use std::fmt;

/// Errors produced while parsing `.bench` text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseBenchError {
    /// Malformed line (with 1-based line number).
    Syntax {
        /// 1-based line number.
        line: usize,
        /// Explanation.
        msg: String,
    },
    /// The netlist being assembled violated a structural invariant.
    Netlist(NetlistError),
}

impl fmt::Display for ParseBenchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseBenchError::Syntax { line, msg } => write!(f, "line {line}: {msg}"),
            ParseBenchError::Netlist(e) => write!(f, "netlist error: {e}"),
        }
    }
}

impl Error for ParseBenchError {}

impl From<NetlistError> for ParseBenchError {
    fn from(e: NetlistError) -> Self {
        ParseBenchError::Netlist(e)
    }
}

fn syntax(line: usize, msg: impl Into<String>) -> ParseBenchError {
    ParseBenchError::Syntax {
        line,
        msg: msg.into(),
    }
}

/// Parses `.bench` text into a [`Netlist`].
///
/// Net names may appear before they are declared/driven; all names are
/// resolved in a single pass with lazy net creation. Signals listed in
/// `OUTPUT(...)` become primary outputs; `INPUT(...)` primary inputs;
/// `KEYINPUT(...)` key inputs.
///
/// # Errors
///
/// Returns [`ParseBenchError::Syntax`] for malformed lines and
/// [`ParseBenchError::Netlist`] for structural violations (duplicate
/// drivers, bad arity).
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let nl = ril_netlist::parse_bench("and2", "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n")?;
/// assert_eq!(nl.gate_count(), 1);
/// # Ok(())
/// # }
/// ```
pub fn parse_bench(name: &str, text: &str) -> Result<Netlist, ParseBenchError> {
    let mut nl = Netlist::new(name);
    let mut outputs: Vec<(usize, String)> = Vec::new();

    let get_net = |nl: &mut Netlist, name: &str| match nl.net_id(name) {
        Some(id) => id,
        None => nl.add_net(name).expect("checked absent"),
    };

    for (lineno0, raw) in text.lines().enumerate() {
        let lineno = lineno0 + 1;
        let line = match raw.find('#') {
            Some(pos) => &raw[..pos],
            None => raw,
        }
        .trim();
        if line.is_empty() {
            continue;
        }

        if let Some(rest) = strip_directive(line, "INPUT") {
            let sig = rest.trim();
            ensure_name(sig, lineno)?;
            match nl.net_id(sig) {
                Some(_) => return Err(syntax(lineno, format!("input `{sig}` redeclared"))),
                None => {
                    nl.add_input(sig)?;
                }
            }
            continue;
        }
        if let Some(rest) = strip_directive(line, "KEYINPUT") {
            let sig = rest.trim();
            ensure_name(sig, lineno)?;
            match nl.net_id(sig) {
                Some(_) => return Err(syntax(lineno, format!("key input `{sig}` redeclared"))),
                None => {
                    nl.add_key_input(sig)?;
                }
            }
            continue;
        }
        if let Some(rest) = strip_directive(line, "OUTPUT") {
            let sig = rest.trim();
            ensure_name(sig, lineno)?;
            outputs.push((lineno, sig.to_string()));
            continue;
        }

        // `lhs = KIND(args...)`
        let (lhs, rhs) = line
            .split_once('=')
            .ok_or_else(|| syntax(lineno, "expected `signal = GATE(...)`"))?;
        let lhs = lhs.trim();
        ensure_name(lhs, lineno)?;
        let rhs = rhs.trim();
        let open = rhs
            .find('(')
            .ok_or_else(|| syntax(lineno, "missing `(` in gate expression"))?;
        if !rhs.ends_with(')') {
            return Err(syntax(lineno, "missing `)` in gate expression"));
        }
        let kind_str = rhs[..open].trim();
        let args_str = &rhs[open + 1..rhs.len() - 1];
        let mut args: Vec<&str> = args_str
            .split(',')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .collect();

        let kind = if kind_str.eq_ignore_ascii_case("LUT2") {
            if args.is_empty() {
                return Err(syntax(lineno, "LUT2 requires a truth-table literal"));
            }
            let lit = args.remove(0);
            let tt = parse_tt_literal(lit)
                .ok_or_else(|| syntax(lineno, format!("bad LUT2 truth table `{lit}`")))?;
            GateKind::Lut2(tt)
        } else {
            GateKind::from_mnemonic(kind_str)
                .ok_or_else(|| syntax(lineno, format!("unknown gate `{kind_str}`")))?
        };

        let out = get_net(&mut nl, lhs);
        let input_ids: Vec<_> = args.iter().map(|a| get_net(&mut nl, a)).collect();
        nl.add_gate(kind, &input_ids, out)?;
    }

    for (lineno, sig) in outputs {
        let id = nl
            .net_id(&sig)
            .ok_or_else(|| syntax(lineno, format!("output `{sig}` never defined")))?;
        nl.mark_output(id);
    }
    Ok(nl)
}

/// `KEYWORD(rest)` → `rest`, the keyword matched case-insensitively. The
/// comparison is on bytes: an ASCII keyword only matches ASCII bytes, so
/// the split after it always falls on a character boundary.
fn strip_directive<'a>(line: &'a str, keyword: &str) -> Option<&'a str> {
    let n = keyword.len();
    if !line
        .as_bytes()
        .get(..n)?
        .eq_ignore_ascii_case(keyword.as_bytes())
    {
        return None;
    }
    let rest = &line[n..];
    let rest = rest.trim_start();
    let rest = rest.strip_prefix('(')?;
    rest.strip_suffix(')')
}

fn ensure_name(name: &str, lineno: usize) -> Result<(), ParseBenchError> {
    if name.is_empty() {
        return Err(syntax(lineno, "empty signal name"));
    }
    if name
        .chars()
        .any(|c| !(c.is_ascii_alphanumeric() || "_.[]$".contains(c)))
    {
        return Err(syntax(lineno, format!("illegal signal name `{name}`")));
    }
    Ok(())
}

fn parse_tt_literal(lit: &str) -> Option<u8> {
    let v = if let Some(hex) = lit.strip_prefix("0x").or_else(|| lit.strip_prefix("0X")) {
        u8::from_str_radix(hex, 16).ok()?
    } else if let Some(bin) = lit.strip_prefix("0b").or_else(|| lit.strip_prefix("0B")) {
        u8::from_str_radix(bin, 2).ok()?
    } else {
        lit.parse().ok()?
    };
    (v < 16).then_some(v)
}

/// Serializes a [`Netlist`] to `.bench` text.
///
/// Output is deterministic: inputs, key inputs, and outputs are emitted in
/// declaration order, gates in arena order. Constant gates are emitted as
/// `CONST0()`/`CONST1()`.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let nl = ril_netlist::parse_bench("and2", "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n")?;
/// let text = ril_netlist::write_bench(&nl);
/// let again = ril_netlist::parse_bench("and2", &text)?;
/// assert_eq!(again.gate_count(), 1);
/// # Ok(())
/// # }
/// ```
pub fn write_bench(nl: &Netlist) -> String {
    let mut out = String::new();
    out.push_str(&format!("# {}\n", nl.name()));
    let stats = nl.stats();
    out.push_str(&format!("# {stats}\n"));
    for &inp in nl.inputs() {
        if nl.is_key_input(inp) {
            out.push_str(&format!("KEYINPUT({})\n", nl.net(inp).name()));
        } else {
            out.push_str(&format!("INPUT({})\n", nl.net(inp).name()));
        }
    }
    for &o in nl.outputs() {
        out.push_str(&format!("OUTPUT({})\n", nl.net(o).name()));
    }
    for (_, gate) in nl.gates() {
        let args: Vec<&str> = gate.inputs().iter().map(|&n| nl.net(n).name()).collect();
        let lhs = nl.net(gate.output()).name();
        match gate.kind() {
            GateKind::Lut2(tt) => {
                out.push_str(&format!(
                    "{lhs} = LUT2(0x{:x}, {})\n",
                    tt & 0xf,
                    args.join(", ")
                ));
            }
            kind => {
                out.push_str(&format!(
                    "{lhs} = {}({})\n",
                    kind.mnemonic(),
                    args.join(", ")
                ));
            }
        }
    }
    out
}

/// The ISCAS-85 `c17` benchmark (public-domain, 6 NAND gates) — handy for
/// tests and examples.
pub const C17_BENCH: &str = "\
# c17 (ISCAS-85)
INPUT(G1)
INPUT(G2)
INPUT(G3)
INPUT(G6)
INPUT(G7)
OUTPUT(G22)
OUTPUT(G23)
G10 = NAND(G1, G3)
G11 = NAND(G3, G6)
G16 = NAND(G2, G11)
G19 = NAND(G11, G7)
G22 = NAND(G10, G16)
G23 = NAND(G16, G19)
";

/// Parses the bundled `c17` benchmark.
///
/// # Examples
///
/// ```
/// let c17 = ril_netlist::bench::c17();
/// assert_eq!(c17.gate_count(), 6);
/// ```
pub fn c17() -> Netlist {
    parse_bench("c17", C17_BENCH).expect("bundled c17 is valid")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_c17() {
        let nl = c17();
        nl.validate().unwrap();
        assert_eq!(nl.inputs().len(), 5);
        assert_eq!(nl.outputs().len(), 2);
        assert_eq!(nl.gate_count(), 6);
        assert_eq!(nl.stats().depth, 3);
    }

    #[test]
    fn round_trip_preserves_structure() {
        let nl = c17();
        let text = write_bench(&nl);
        let back = parse_bench("c17", &text).unwrap();
        assert_eq!(back.gate_count(), nl.gate_count());
        assert_eq!(back.inputs().len(), nl.inputs().len());
        assert_eq!(back.outputs().len(), nl.outputs().len());
        // Same names, same gate kinds per output net.
        for (_, g) in nl.gates() {
            let name = nl.net(g.output()).name();
            let id2 = back.net_id(name).unwrap();
            let d2 = back.net(id2).driver().unwrap();
            assert_eq!(back.gate(d2).kind(), g.kind());
        }
    }

    #[test]
    fn key_inputs_round_trip() {
        let text = "KEYINPUT(k0)\nINPUT(a)\nOUTPUT(y)\ny = XOR(a, k0)\n";
        let nl = parse_bench("locked", text).unwrap();
        assert_eq!(nl.key_inputs().len(), 1);
        assert_eq!(nl.data_inputs().len(), 1);
        let back = parse_bench("locked", &write_bench(&nl)).unwrap();
        assert_eq!(back.key_inputs().len(), 1);
    }

    #[test]
    fn lut2_literal_forms() {
        for lit in ["0x8", "0b1000", "8"] {
            let text = format!("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = LUT2({lit}, a, b)\n");
            let nl = parse_bench("lut", &text).unwrap();
            let y = nl.net_id("y").unwrap();
            let g = nl.net(y).driver().unwrap();
            assert_eq!(nl.gate(g).kind(), GateKind::Lut2(0x8));
        }
    }

    #[test]
    fn lut2_round_trip() {
        let text = "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = LUT2(0xe, a, b)\n";
        let nl = parse_bench("lut", text).unwrap();
        let back = parse_bench("lut", &write_bench(&nl)).unwrap();
        let y = back.net_id("y").unwrap();
        let g = back.net(y).driver().unwrap();
        assert_eq!(back.gate(g).kind(), GateKind::Lut2(0xe));
    }

    #[test]
    fn mux_and_dff_parse() {
        let text = "INPUT(s)\nINPUT(a)\nINPUT(b)\nOUTPUT(q)\nm = MUX(s, a, b)\nq = DFF(m)\n";
        let nl = parse_bench("seq", text).unwrap();
        assert_eq!(nl.stats().dffs, 1);
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let text = "# header\n\nINPUT(a)  # trailing\nOUTPUT(y)\ny = NOT(a)\n";
        let nl = parse_bench("c", text).unwrap();
        assert_eq!(nl.gate_count(), 1);
    }

    #[test]
    fn syntax_errors_are_located() {
        let err = parse_bench("bad", "INPUT(a)\ny == NOT(a)\n").unwrap_err();
        match err {
            ParseBenchError::Syntax { line, .. } => assert_eq!(line, 2),
            other => panic!("unexpected: {other}"),
        }
    }

    #[test]
    fn unknown_gate_rejected() {
        let err = parse_bench("bad", "INPUT(a)\ny = FROB(a)\n").unwrap_err();
        assert!(matches!(err, ParseBenchError::Syntax { line: 2, .. }));
    }

    #[test]
    fn undefined_output_rejected() {
        let err = parse_bench("bad", "INPUT(a)\nOUTPUT(nope)\ny = NOT(a)\n").unwrap_err();
        assert!(matches!(err, ParseBenchError::Syntax { .. }));
    }

    #[test]
    fn duplicate_driver_rejected() {
        let err = parse_bench("bad", "INPUT(a)\ny = NOT(a)\ny = BUF(a)\n").unwrap_err();
        assert!(matches!(err, ParseBenchError::Netlist(_)));
    }

    #[test]
    fn case_insensitive_directives() {
        let nl = parse_bench("c", "input(a)\noutput(y)\ny = not(a)\n").unwrap();
        assert_eq!(nl.inputs().len(), 1);
        assert_eq!(nl.outputs().len(), 1);
    }

    #[test]
    fn bad_tt_literal_rejected() {
        let err = parse_bench(
            "bad",
            "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = LUT2(0x99, a, b)\n",
        )
        .unwrap_err();
        assert!(matches!(err, ParseBenchError::Syntax { .. }));
    }
}
