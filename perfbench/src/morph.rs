//! `morph`: run-time key morphing with incremental re-certification.
//!
//! A pass locks c7552 with two 8x8x8 blocks, builds a
//! [`ril_core::MorphVerifier`] and certifies generation 0 (the set-up),
//! then runs a fixed number of generations of
//! [`ril_core::morph_all_delta`] + [`ril_core::MorphVerifier::verify_after`]
//! on the one long-lived incremental SAT session. Every verdict must be
//! `Equivalent`; every [`PROBE_EVERY`]-th generation a single-bit corrupted
//! key must come back `Inequivalent`. Passes replay the same morph stream
//! until the time budget is spent (at least two).

use crate::stats::{median, peak_rss_mb, quantile_of};
use crate::trace::{by_name, SpanId, Trace};
use crate::{
    add_solver_stats, another_pass, check_counts_repeat, span_log_path, Args, Counts, Outcome,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ril_attacks::Oracle;
use ril_core::{
    morph_all_delta, LockedCircuit, MorphDelta, MorphVerifier, Obfuscator, RilBlockSpec,
};
use ril_netlist::generators;
use ril_sat::EquivResult;
use std::time::{Duration, Instant};

const HOST: &str = "c7552";
const SPEC: &str = "8x8x8";
const BLOCKS: usize = 2;
/// Generations per pass.
const GENERATIONS: u64 = 1000;
/// Every this many generations, a corrupted key is probed.
const PROBE_EVERY: u64 = 25;
/// Wall budget of one verifier check; a check that runs out is a failure.
const CHECK_TIMEOUT: Duration = Duration::from_secs(30);
/// The design is fixed: its verifier's cost and memory differ by up to
/// 1.5x between insertion seeds, which would drown the run-to-run signal.
/// The benchmark seed drives the morph stream instead.
const INSERTION_SEED: u64 = 2;
/// Decorrelates the morph stream from other uses of the seed.
const MORPH_SALT: u64 = 0x6d6f_7270_6873;

/// The morph-stream seed for a benchmark seed.
pub fn morph_seed(seed: u64) -> u64 {
    StdRng::seed_from_u64(seed ^ MORPH_SALT).gen()
}

fn verdict(r: &EquivResult) -> &'static str {
    match r {
        EquivResult::Equivalent => "equivalent",
        EquivResult::Inequivalent { .. } => "inequivalent",
        EquivResult::Unknown => "unknown",
    }
}

/// Locks the host and certifies generation 0. Returns the design, its
/// verifier, and the set-up and verifier-only wall times.
fn setup(trace: &Trace) -> Result<(LockedCircuit, MorphVerifier, f64, f64), String> {
    let started = Instant::now();
    let host = trace
        .within("netlist.generate", 0, SpanId::ROOT, || {
            generators::benchmark(HOST)
        })
        .ok_or("c7552 generator missing")?;
    let spec = RilBlockSpec::parse(SPEC).ok_or("bad spec")?;
    let locked = trace
        .within("core.lock", 0, SpanId::ROOT, || {
            Obfuscator::new(spec)
                .blocks(BLOCKS)
                .seed(INSERTION_SEED)
                .obfuscate(&host)
        })
        .map_err(|e| format!("locking: {e}"))?;
    let verifier_started = Instant::now();
    let span = trace.begin("core.verify_setup", 0, SpanId::ROOT);
    let mut verifier = locked
        .incremental_verifier(Some(CHECK_TIMEOUT))
        .map_err(|e| format!("verifier build: {e}"))?;
    let gen0 = verifier
        .verify(locked.keys.bits())
        .map_err(|e| format!("generation-0 certify: {e}"))?;
    trace.end(span);
    if gen0 != EquivResult::Equivalent {
        return Err(format!("generation 0 does not certify: {}", verdict(&gen0)));
    }
    let verifier_s = verifier_started.elapsed().as_secs_f64();
    Ok((
        locked,
        verifier,
        started.elapsed().as_secs_f64(),
        verifier_s,
    ))
}

/// What one pass measured.
struct Pass {
    traced: bool,
    setup_s: f64,
    verifier_s: f64,
    /// Wall time of each generation's morph + certify, seconds.
    ops: Vec<f64>,
    counts: Counts,
}

/// Flips key bits from a random start until a flip breaks equivalence.
/// Returns the number of checks spent, or why no corruption was caught.
fn probe(
    verifier: &mut MorphVerifier,
    key: &[bool],
    start: usize,
    trace: &Trace,
    op: u64,
) -> Result<u64, String> {
    for k in 0..key.len() {
        let bit = (start + k) % key.len();
        let mut bad = key.to_vec();
        bad[bit] = !bad[bit];
        let delta = MorphDelta::between(key, &bad);
        let r = trace
            .within("core.verify_probe", op, SpanId::ROOT, || {
                verifier.verify_after(&delta, &bad)
            })
            .map_err(|e| format!("probe check: {e}"))?;
        match r {
            EquivResult::Inequivalent { .. } => return Ok(k as u64 + 1),
            // Some bits are key-redundant: flipping one yields another
            // correct key. Try the next.
            EquivResult::Equivalent => {}
            EquivResult::Unknown => return Err(format!("probe of bit {bit} ran out of time")),
        }
    }
    Err("no single-bit key corruption was caught".into())
}

fn run_pass(
    seed: u64,
    trace: &Trace,
    deadline: Instant,
    out: &mut Outcome,
) -> Result<Pass, String> {
    let (mut locked, mut verifier, setup_s, verifier_s) = setup(trace)?;
    let base_stats = verifier.stats();
    let base_checks = verifier.checks() as u64;
    let mut rng = StdRng::seed_from_u64(morph_seed(seed));
    let mut ops = Vec::with_capacity(GENERATIONS as usize);
    let (mut dirty, mut probes) = (0u64, 0u64);
    for generation in 1..=GENERATIONS {
        out.attempted += 1;
        if Instant::now() >= deadline {
            out.fail(format!(
                "the run deadline passed before generation {generation}"
            ));
            break;
        }
        let started = Instant::now();
        let (_, delta) = trace.within("core.morph", generation, SpanId::ROOT, || {
            morph_all_delta(&mut locked, &mut rng)
        });
        let key = locked.keys.bits().to_vec();
        let r = trace.within("core.verify_after", generation, SpanId::ROOT, || {
            verifier.verify_after(&delta, &key)
        });
        ops.push(started.elapsed().as_secs_f64());
        dirty += locked.dirty_outputs(&delta).len() as u64;
        match r {
            Ok(EquivResult::Equivalent) => {}
            Ok(other) => out.fail(format!(
                "generation {generation}: verdict {}",
                verdict(&other)
            )),
            Err(e) => out.fail(format!("generation {generation}: {e}")),
        }
        if generation % PROBE_EVERY == 0 {
            out.attempted += 1;
            let start = rng.gen_range(0..key.len());
            match probe(&mut verifier, &key, start, trace, generation) {
                Ok(n) => probes += n,
                Err(e) => out.fail(format!("generation {generation}: {e}")),
            }
        }
    }
    let mut counts = Counts::new();
    add_solver_stats(&mut counts, &verifier.stats().since(&base_stats));
    counts.insert("verify.checks", verifier.checks() as u64 - base_checks);
    counts.insert("verify.dirty_outputs", dirty);
    counts.insert("verify.probes", probes);
    Ok(Pass {
        traced: trace.is_on(),
        setup_s,
        verifier_s,
        ops,
        counts,
    })
}

/// Runs the workload.
///
/// # Errors
///
/// When the design cannot be built or generation 0 does not certify.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome {
        pinned: vec![
            ("design", format!("{HOST}:{BLOCKS}x{SPEC}@{INSERTION_SEED}")),
            ("morph_seed", morph_seed(args.seed).to_string()),
            ("generations_per_pass", GENERATIONS.to_string()),
            ("probe_every", PROBE_EVERY.to_string()),
            ("check_timeout_s", CHECK_TIMEOUT.as_secs().to_string()),
        ],
        ..Outcome::default()
    };
    let off = Trace::new(false);
    let on = Trace::new(true);
    let started = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    loop {
        let traced = args.trace && passes.len() % 2 == 1;
        let pass_started = Instant::now();
        let pass = run_pass(
            args.seed,
            if traced { &on } else { &off },
            args.deadline,
            &mut out,
        )?;
        passes.push(pass);
        let last = pass_started.elapsed().as_secs_f64();
        if !another_pass(args, passes.len(), started, last) {
            break;
        }
    }
    let counts: Vec<Counts> = passes.iter().map(|p| p.counts.clone()).collect();
    check_counts_repeat(&mut out, &counts);

    let plain: Vec<&Pass> = passes.iter().filter(|p| !p.traced).collect();
    let setups: Vec<f64> = passes.iter().map(|p| p.setup_s).collect();
    let ops_ms: Vec<f64> = plain
        .iter()
        .flat_map(|p| p.ops.iter().map(|s| s * 1e3))
        .collect();
    let rate = |p: &Pass| p.ops.len() as f64 / p.ops.iter().sum::<f64>();
    out.set("setup_s", median(&setups));
    out.set(
        "ops_per_s",
        median(&plain.iter().map(|p| rate(p)).collect::<Vec<_>>()),
    );
    out.set("op_p50_ms", quantile_of(&ops_ms, 0.5));
    out.set("peak_rss_mb", peak_rss_mb()?);

    if args.trace {
        let traced: Vec<&Pass> = passes.iter().filter(|p| p.traced).collect();
        let last = traced.last().ok_or("a traced run needs a traced pass")?;
        let g = by_name(&on.spans());
        let med =
            |name: &str, scale: f64| g.get(name).map_or(0.0, |s| median(&s.durations_s) * scale);
        let q_us = |name: &str, q: f64| {
            g.get(name)
                .map_or(0.0, |s| quantile_of(&s.durations_s, q) * 1e6)
        };
        out.set("netlist.generate_ms", med("netlist.generate", 1e3));
        out.set("core.lock_ms", med("core.lock", 1e3));
        out.set("core.morph_us", med("core.morph", 1e6));
        out.set("verify.after_us_p50", q_us("core.verify_after", 0.5));
        out.set("verify.after_us_p90", q_us("core.verify_after", 0.9));
        out.set(
            "verify.setup_s",
            median(&traced.iter().map(|p| p.verifier_s).collect::<Vec<_>>()),
        );
        for (name, v) in &last.counts {
            out.set(name, *v as f64);
        }
        out.set("verify.conflicts", last.counts["sat.conflicts"] as f64);
        out.set(
            "verify.propagations",
            last.counts["sat.propagations"] as f64,
        );
        let verify_s = g.get("core.verify_after").map_or(0.0, |s| s.total_s)
            + g.get("core.verify_probe").map_or(0.0, |s| s.total_s);
        out.set(
            "sat.props_per_s",
            last.counts["sat.propagations"] as f64 / verify_s,
        );

        // Layer probes outside the timed passes: compile the activated
        // chip's simulator and Tseitin-encode the locked netlist.
        let (locked, _, _, _) = setup(&off)?;
        on.within("attacks.oracle_new", 0, SpanId::ROOT, || {
            Oracle::new(&locked)
        })
        .map_err(|e| format!("oracle: {e}"))?;
        let enc_started = Instant::now();
        on.within("sat.encode", 0, SpanId::ROOT, || {
            ril_sat::encode_netlist(&locked.netlist)
        })
        .map_err(|e| format!("encoding: {e}"))?;
        let enc_s = enc_started.elapsed().as_secs_f64();
        out.set(
            "sat.encode_us_per_gate",
            enc_s * 1e6 / locked.netlist.gate_count() as f64,
        );
        let spans = on.spans();
        let g = by_name(&spans);
        out.set(
            "netlist.compile_ms",
            g.get("attacks.oracle_new").map_or(0.0, |s| s.total_s * 1e3),
        );

        let with = median(&traced.iter().map(|p| rate(p)).collect::<Vec<_>>());
        let without = median(&plain.iter().map(|p| rate(p)).collect::<Vec<_>>());
        out.set("trace.overhead_pct", (without / with - 1.0) * 100.0);
        out.set("trace.spans", spans.len() as f64);
        on.write_jsonl(&span_log_path(args), &spans)
            .map_err(|e| format!("writing the span log: {e}"))?;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_fixes_the_morph_stream() {
        assert_eq!(morph_seed(9), morph_seed(9));
        assert_ne!(morph_seed(9), morph_seed(10));
    }
}
