//! The repository benchmark: three workloads that drive the RIL-Blocks
//! crates through their public functions, each reporting end-to-end
//! metrics (untraced run) or per-layer metrics (traced run).
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload attack|morph|serve --seed N --seconds S --trace 0|1
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; the line before it
//! records the pinned settings and the host fingerprint. See
//! `perfbench/README.md` for the workloads and the metric map.

mod attack;
mod morph;
mod serve;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Wall time after which a run stops starting work and counts what is
/// left as failed, so a badly regressed program still ends well inside
/// the three minutes a run may take.
pub const RUN_DEADLINE: Duration = Duration::from_secs(150);

/// End-to-end metrics, reported by every workload's untraced run.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
];

/// Per-layer metrics, reported by every workload's traced run. A layer a
/// workload never calls reads 0 there.
pub const PER_LAYER: [(&str, &str); 49] = [
    ("netlist.generate_ms", "ms"),
    ("netlist.compile_ms", "ms"),
    ("core.lock_ms", "ms"),
    ("core.morph_us", "us"),
    ("verify.setup_s", "s"),
    ("verify.after_us_p50", "us"),
    ("verify.after_us_p90", "us"),
    ("verify.checks", "count"),
    ("verify.dirty_outputs", "count"),
    ("verify.conflicts", "count"),
    ("verify.propagations", "count"),
    ("verify.probes", "count"),
    ("sat.conflicts", "count"),
    ("sat.propagations", "count"),
    ("sat.decisions", "count"),
    ("sat.learned", "count"),
    ("sat.deleted", "count"),
    ("sat.restarts", "count"),
    ("sat.props_per_s", "1/s"),
    ("sat.encode_us_per_gate", "us/gate"),
    ("attack.loop_s", "s"),
    ("attack.oracle_s", "s"),
    ("attack.oracle_blocks", "count"),
    ("attack.lane_occupancy", "ratio"),
    ("attack.dips", "count"),
    ("attack.oracle_queries", "count"),
    ("attack.oracle_cache_hits", "count"),
    ("attack.verify_key_ms", "ms"),
    ("serve.low_p50_us", "us"),
    ("serve.low_p90_us", "us"),
    ("serve.high_p50_us", "us"),
    ("serve.high_p90_us", "us"),
    ("serve.p99_us", "us"),
    ("serve.rtt_batch_p50_us", "us"),
    ("serve.rtt_single_p50_us", "us"),
    ("serve.rtt_morph_p50_us", "us"),
    ("serve.phase.decode_p50_us", "us"),
    ("serve.phase.eval_p50_us", "us"),
    ("serve.phase.morph_p50_us", "us"),
    ("serve.phase.write_p50_us", "us"),
    ("serve.morphs", "count"),
    ("serve.patterns", "count"),
    ("serve.requests", "count"),
    ("serve.backlog_max", "count"),
    ("serve.gen_late_max_ms", "ms"),
    ("serve.gen_late_p99_us", "us"),
    ("serve.late_steps", "count"),
    ("trace.overhead_pct", "%"),
    ("trace.spans", "count"),
];

/// Parsed command line. Nothing else configures a run.
#[derive(Debug, Clone)]
pub struct Args {
    /// `attack`, `morph` or `serve`.
    pub workload: String,
    /// Input seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Measured time budget of one run.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the untraced one.
    pub trace: bool,
    /// When the run stops starting work ([`RUN_DEADLINE`] after start).
    pub deadline: Instant,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut map = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument `{flag}`"))?;
        let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
        map.insert(key.to_string(), value.clone());
    }
    let get = |k: &str| map.get(k).ok_or_else(|| format!("missing --{k}"));
    let workload = get("workload")?.clone();
    let seed = get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    let trace = match get("trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not `{other}`")),
    };
    if let Some(k) = map
        .keys()
        .find(|k| !["workload", "seed", "seconds", "trace"].contains(&k.as_str()))
    {
        return Err(format!("unknown flag --{k}"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        deadline: Instant::now() + RUN_DEADLINE,
    })
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (attacks, generations and probes, requests).
    pub attempted: u64,
    /// Operations that failed a check, timed out or errored.
    pub failed: u64,
    /// Why each failure or failed check happened.
    pub errors: Vec<String>,
    /// Measured metrics by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// The workload's pinned settings, for the fingerprint line.
    pub pinned: Vec<(&'static str, String)>,
}

impl Outcome {
    /// Records a failed operation.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.errors.push(why);
    }

    /// Records a failed whole-run check (not an operation).
    pub fn check_failed(&mut self, why: String) {
        self.errors.push(why);
    }

    /// Sets a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }
}

/// Counts that must repeat exactly between passes of one run.
pub type Counts = BTreeMap<&'static str, u64>;

/// Adds a solver's work counters to `counts` under their `sat.*` names.
pub fn add_solver_stats(counts: &mut Counts, s: &ril_sat::SolverStats) {
    for (k, v) in [
        ("sat.conflicts", s.conflicts),
        ("sat.propagations", s.propagations),
        ("sat.decisions", s.decisions),
        ("sat.learned", s.learned),
        ("sat.deleted", s.deleted),
        ("sat.restarts", s.restarts),
    ] {
        *counts.entry(k).or_default() += v;
    }
}

/// Whether a pass-based workload should start another pass: at least two
/// passes (so the exact counts have something to compare), then stop at
/// the pass boundary nearest the time budget, and never past the deadline.
pub fn another_pass(args: &Args, passes: usize, started: Instant, last_s: f64) -> bool {
    Instant::now() < args.deadline
        && (passes < 2 || started.elapsed().as_secs_f64() + last_s / 2.0 < args.seconds)
}

/// Compares every pass's deterministic counts with the first pass's and
/// records each mismatch as a failed check.
pub fn check_counts_repeat(out: &mut Outcome, passes: &[Counts]) {
    for (i, later) in passes.iter().enumerate().skip(1) {
        if *later != passes[0] {
            let diff: Vec<String> = passes[0]
                .iter()
                .filter(|(k, v)| later.get(*k) != Some(*v))
                .map(|(k, v)| format!("{k}: {v} vs {:?}", later.get(k)))
                .collect();
            out.check_failed(format!(
                "deterministic counts differ between pass 1 and pass {}: {}",
                i + 1,
                diff.join(", ")
            ));
        }
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

/// The host fingerprint and pinned settings, one JSON line.
fn fingerprint_line(args: &Args, out: &Outcome) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let pinned: Vec<String> = out
        .pinned
        .iter()
        .map(|(k, v)| format!("{}:{}", json_str(k), json_str(v)))
        .collect();
    format!(
        r#"{{"perfbench":{{"workload":{},"seed":{},"seconds":{},"trace":{},"nproc":{nproc},"rustc":{},"commit":{},"pinned":{{{}}}}}}}"#,
        json_str(&args.workload),
        args.seed,
        json_num(args.seconds),
        args.trace,
        json_str(env!("PERFBENCH_RUSTC")),
        json_str(env!("PERFBENCH_COMMIT")),
        pinned.join(",")
    )
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
fn result_line(args: &Args, out: &Outcome) -> Result<String, String> {
    let wanted: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut fields = Vec::with_capacity(wanted.len());
    for &(name, unit) in wanted {
        let value = match out.metrics.get(name) {
            Some(&v) => v,
            // A layer this workload never calls did no work.
            None if args.trace => 0.0,
            None => return Err(format!("workload produced no `{name}`")),
        };
        fields.push(format!(
            r#"{}:{{"value":{},"unit":{}}}"#,
            json_str(name),
            json_num(value),
            json_str(unit)
        ));
    }
    let correct = out.errors.is_empty() && out.failed == 0;
    Ok(format!(
        r#"{{"correct":{correct},"attempted":{},"failed":{},"metrics":{{{}}}}}"#,
        out.attempted.max(1),
        out.failed,
        fields.join(",")
    ))
}

/// Where the traced run writes its span log (inside the checkout).
pub fn span_log_path(args: &Args) -> PathBuf {
    PathBuf::from(".bench_out").join(format!("spans-{}-{}.jsonl", args.workload, args.seed))
}

fn main() -> ExitCode {
    // Pin the one environment knob the measured code reads on its own:
    // the serve client's codec override. Nothing has spawned a thread yet.
    std::env::remove_var(ril_serve::client::CODEC_ENV);

    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload attack|morph|serve --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    let run = match args.workload.as_str() {
        "attack" => attack::run(&args),
        "morph" => morph::run(&args),
        "serve" => serve::run(&args),
        other => Err(format!("unknown workload `{other}`")),
    };
    let out = match run {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for e in &out.errors {
        eprintln!("perfbench: FAILED: {e}");
    }
    match result_line(&args, &out) {
        Ok(line) => {
            println!("{}", fingerprint_line(&args, &out));
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_command_line() {
        let a = parse_args(&argv("--workload serve --seed 7 --seconds 10 --trace 1")).unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("serve", 7, 10.0, true)
        );
        assert!(parse_args(&argv("--workload serve --seed 7 --seconds 10")).is_err());
        assert!(parse_args(&argv("--workload serve --seed x --seconds 10 --trace 0")).is_err());
        assert!(parse_args(&argv("--workload serve --seed 1 --seconds 10 --trace 2")).is_err());
        assert!(parse_args(&argv("--workload a --seed 1 --seconds 1 --trace 0 --x 1")).is_err());
    }

    #[test]
    fn metric_lists_match_benchmark_json() {
        let spec =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let names: Vec<&str> = spec
            .split("\"name\"")
            .skip(1)
            .filter_map(|s| s.split('"').nth(1))
            .collect();
        let ours: Vec<&str> = ["attack", "morph", "serve"]
            .into_iter()
            .chain(END_TO_END.iter().map(|m| m.0))
            .chain(PER_LAYER.iter().map(|m| m.0))
            .collect();
        assert_eq!(names, ours);
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!(r#""name": "{name}", "unit": "{unit}""#);
            assert!(spec.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let args = parse_args(&argv("--workload x --seed 1 --seconds 1 --trace 0")).unwrap();
        let mut out = Outcome::default();
        for (name, _) in END_TO_END {
            out.set(name, 1.5);
        }
        out.attempted = 3;
        let line = result_line(&args, &out).unwrap();
        assert!(line.starts_with(r#"{"correct":true,"attempted":3,"failed":0,"metrics":{"setup_s":{"value":1.5,"unit":"s"}"#));
        out.metrics.remove("setup_s");
        assert!(result_line(&args, &out).is_err());
        out.fail("x".into());
        let traced = Args {
            trace: true,
            ..args
        };
        assert!(result_line(&traced, &out)
            .unwrap()
            .starts_with(r#"{"correct":false,"attempted":3,"failed":1,"#));
    }

    #[test]
    fn passes_repeat_at_least_twice_then_stop_near_the_budget() {
        let args = parse_args(&argv("--workload x --seed 1 --seconds 10 --trace 0")).unwrap();
        let started = Instant::now();
        assert!(another_pass(&args, 1, started, 100.0));
        assert!(another_pass(&args, 2, started, 4.0));
        assert!(!another_pass(&args, 2, started, 30.0));
        let late = Args {
            deadline: started,
            ..args
        };
        assert!(!another_pass(&late, 0, started, 0.0));
    }

    #[test]
    fn count_mismatch_between_passes_is_a_failed_check() {
        let mut out = Outcome::default();
        let a: Counts = [("sat.conflicts", 5u64)].into_iter().collect();
        check_counts_repeat(&mut out, &[a.clone(), a.clone()]);
        assert!(out.errors.is_empty());
        let b: Counts = [("sat.conflicts", 6u64)].into_iter().collect();
        check_counts_repeat(&mut out, &[a, b]);
        assert_eq!(out.errors.len(), 1);
    }
}
