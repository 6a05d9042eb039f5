//! `attack`: a closed loop running one in-process oracle-guided SAT attack
//! at a time over a fixed attack list.
//!
//! Each pass locks the list's designs afresh (the oracle's memo must start
//! empty, or a second pass would answer from cache), attacks them one by
//! one through [`ril_attacks::satattack::sat_attack`] against an
//! in-process [`Oracle`], and then checks every recovered key outside the
//! timed region. Passes repeat until the time budget is spent (at least
//! two, so the exact-count check has something to compare).

use crate::stats::{median, peak_rss_mb};
use crate::trace::{by_name, SpanId, Trace};
use crate::{
    add_solver_stats, another_pass, check_counts_repeat, span_log_path, Args, Counts, Outcome,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ril_attacks::satattack::sat_attack;
use ril_attacks::{
    attacker_view, Oracle, OracleError, OracleSource, PatternBlock, ResponseBlock, SatAttackConfig,
    MAX_LANES,
};
use ril_core::{LockedCircuit, Obfuscator, RilBlockSpec};
use ril_netlist::{generators, Netlist};
use ril_sat::SolverConfig;
use std::time::{Duration, Instant};

/// Wall budget per attack: more than ten times the slowest pool member's
/// attack on the reference host, so a timeout is a failure, never a data
/// point.
const ATTACK_TIMEOUT: Duration = Duration::from_secs(60);
/// DIPs gathered per lane-packed oracle flush.
const DIP_BATCH: usize = 8;
/// Portfolio workers per solve.
const SOLVER_THREADS: usize = 1;
/// 64-pattern words each recovered key is simulated on against the host.
const KEY_CHECK_WORDS: usize = 32;
/// Set-ups timed before the first pass, on top of one per pass.
const EXTRA_SETUPS: usize = 9;
/// Decorrelates the insertion-seed picks from other uses of the seed.
const SEED_SALT: u64 = 0x6174_7461_636b;

/// One entry of the attack list. `pool` holds the insertion seeds the
/// benchmark seed picks from; see `perfbench/README.md` for how each pool
/// was chosen.
struct Entry {
    host: &'static str,
    spec: &'static str,
    blocks: usize,
    pool: &'static [u64],
}

const LIST: [Entry; 6] = [
    Entry {
        host: "c7552",
        spec: "2x2",
        blocks: 2,
        pool: &[1, 3, 9, 14],
    },
    Entry {
        host: "c7552",
        spec: "2x2",
        blocks: 5,
        pool: &[2, 4, 9, 14],
    },
    Entry {
        host: "c7552",
        spec: "8x8",
        blocks: 1,
        pool: &[4, 7, 9, 15],
    },
    Entry {
        host: "c7552",
        spec: "8x8x8",
        blocks: 1,
        pool: &[0, 2, 6, 14],
    },
    Entry {
        host: "s35932",
        spec: "8x8x8",
        blocks: 1,
        pool: &[3, 4, 8, 11],
    },
    Entry {
        host: "s38584",
        spec: "8x8",
        blocks: 1,
        pool: &[0, 5, 7, 14],
    },
];

/// The insertion seed of every list entry, drawn from the entry's pool.
pub fn insertion_seeds(seed: u64) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(seed ^ SEED_SALT);
    LIST.iter()
        .map(|e| e.pool[rng.gen_range(0..e.pool.len())])
        .collect()
}

/// The attack configuration, built field by field so that no default
/// reads the environment (`RIL_TIMEOUT_SECS`, `RIL_SOLVER_THREADS`).
fn attack_config() -> SatAttackConfig {
    SatAttackConfig {
        timeout: Some(ATTACK_TIMEOUT),
        max_iterations: None,
        solver: SolverConfig {
            threads: SOLVER_THREADS,
            ..SolverConfig::default()
        },
        one_hot_routing: false,
        dip_batch: DIP_BATCH,
    }
}

/// One locked design ready to attack.
struct Target {
    label: String,
    locked: LockedCircuit,
    view: Netlist,
    oracle: Oracle,
}

/// Generates, locks and activates every list entry. Returns the targets
/// and the set-up wall time.
fn setup(seeds: &[u64], trace: &Trace, op_base: u64) -> Result<(Vec<Target>, f64), String> {
    let started = Instant::now();
    let mut targets = Vec::with_capacity(LIST.len());
    for (i, (e, &seed)) in LIST.iter().zip(seeds).enumerate() {
        let op = op_base + i as u64;
        let host = trace
            .within("netlist.generate", op, SpanId::ROOT, || {
                generators::benchmark(e.host)
            })
            .ok_or_else(|| format!("unknown host `{}`", e.host))?;
        let spec = RilBlockSpec::parse(e.spec).ok_or_else(|| format!("bad spec `{}`", e.spec))?;
        let locked = trace
            .within("core.lock", op, SpanId::ROOT, || {
                Obfuscator::new(spec)
                    .blocks(e.blocks)
                    .seed(seed)
                    .obfuscate(&host)
            })
            .map_err(|err| format!("locking {}: {err}", e.host))?;
        let view = attacker_view(&locked);
        let oracle = trace
            .within("attacks.oracle_new", op, SpanId::ROOT, || {
                Oracle::new(&locked)
            })
            .map_err(|err| format!("oracle for {}: {err}", e.host))?;
        targets.push(Target {
            label: format!("{} {}x{} seed {seed}", e.host, e.blocks, e.spec),
            locked,
            view,
            oracle,
        });
    }
    Ok((targets, started.elapsed().as_secs_f64()))
}

/// Forwards to the in-process oracle, timing each access as an
/// `attacks.oracle_query` child span and counting blocks and patterns.
struct TimedOracle<'a> {
    inner: &'a mut Oracle,
    trace: &'a Trace,
    parent: SpanId,
    op: u64,
    blocks: u64,
    patterns: u64,
}

impl OracleSource for TimedOracle<'_> {
    fn input_width(&self) -> usize {
        self.inner.input_width()
    }

    fn output_width(&self) -> usize {
        self.inner.output_width()
    }

    fn try_query(&mut self, inputs: &[bool]) -> Result<Vec<bool>, OracleError> {
        self.blocks += 1;
        self.patterns += 1;
        let id = self
            .trace
            .begin("attacks.oracle_query", self.op, self.parent);
        let out = self.inner.query(inputs);
        self.trace.end(id);
        Ok(out)
    }

    fn try_query_batch(&mut self, block: &PatternBlock) -> Result<ResponseBlock, OracleError> {
        self.blocks += 1;
        self.patterns += block.lanes() as u64;
        let id = self
            .trace
            .begin("attacks.oracle_query", self.op, self.parent);
        let out = self.inner.query_block(block);
        self.trace.end(id);
        Ok(out)
    }

    fn queries(&self) -> u64 {
        self.inner.queries()
    }
}

/// What one pass over the attack list measured.
struct Pass {
    traced: bool,
    setup_s: f64,
    /// Wall time of each attack, seconds (set-up and key checks excluded).
    walls: Vec<f64>,
    counts: Counts,
}

impl Pass {
    fn attack_s(&self) -> f64 {
        self.walls.iter().sum()
    }
}

fn run_pass(
    index: u64,
    seeds: &[u64],
    trace: &Trace,
    cfg: &SatAttackConfig,
    deadline: Instant,
    out: &mut Outcome,
) -> Result<Pass, String> {
    let op_base = index * 1000;
    let (mut targets, setup_s) = setup(seeds, trace, op_base)?;
    let mut pass = Pass {
        traced: trace.is_on(),
        setup_s,
        walls: Vec::with_capacity(targets.len()),
        counts: Counts::new(),
    };
    for (i, t) in targets.iter_mut().enumerate() {
        let op = op_base + i as u64;
        out.attempted += 1;
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            out.fail(format!(
                "{}: not attacked, the run deadline passed",
                t.label
            ));
            continue;
        }
        let cfg = SatAttackConfig {
            timeout: Some(ATTACK_TIMEOUT.min(left)),
            ..cfg.clone()
        };
        let span = trace.begin("attacks.sat_attack", op, SpanId::ROOT);
        let mut oracle = TimedOracle {
            inner: &mut t.oracle,
            trace,
            parent: span,
            op,
            blocks: 0,
            patterns: 0,
        };
        let started = Instant::now();
        let report = sat_attack(&t.view, &mut oracle, &cfg);
        let wall = started.elapsed().as_secs_f64();
        trace.end(span);
        pass.walls.push(wall);
        *pass.counts.entry("attack.oracle_blocks").or_default() += oracle.blocks;
        *pass.counts.entry("attack.oracle_patterns").or_default() += oracle.patterns;

        add_solver_stats(&mut pass.counts, &report.miter_stats);
        add_solver_stats(&mut pass.counts, &report.finder_stats);
        *pass.counts.entry("attack.dips").or_default() += report.iterations as u64;
        *pass.counts.entry("attack.oracle_queries").or_default() += t.oracle.queries();
        *pass.counts.entry("attack.oracle_cache_hits").or_default() += t.oracle.cache_hits();

        // The key check is ground truth the attacker lacks; it sits
        // outside the timed region.
        match report.result.key() {
            Some(key) => {
                let ok = trace.within("core.verify_key", op, SpanId::ROOT, || {
                    t.locked.equivalent_under_key(key, KEY_CHECK_WORDS)
                });
                match ok {
                    Ok(true) => {}
                    Ok(false) => out.fail(format!("{}: recovered key is wrong", t.label)),
                    Err(e) => out.fail(format!("{}: key check failed: {e}", t.label)),
                }
            }
            None => out.fail(format!(
                "{}: attack ended without a key ({}) after {wall:.2}s",
                t.label, report.result
            )),
        }
    }
    Ok(pass)
}

/// Runs the workload.
///
/// # Errors
///
/// When a design cannot be built (a broken benchmark, not a measurement).
pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let seeds = insertion_seeds(args.seed);
    let cfg = attack_config();
    out.pinned = vec![
        ("attack_timeout_s", ATTACK_TIMEOUT.as_secs().to_string()),
        ("solver_threads", SOLVER_THREADS.to_string()),
        ("dip_batch", DIP_BATCH.to_string()),
        ("key_check_words", KEY_CHECK_WORDS.to_string()),
        (
            "attack_list",
            LIST.iter()
                .zip(&seeds)
                .map(|(e, s)| format!("{}:{}x{}@{s}", e.host, e.blocks, e.spec))
                .collect::<Vec<_>>()
                .join(" "),
        ),
    ];

    let off = Trace::new(false);
    let on = Trace::new(true);
    let mut setup_samples = Vec::new();
    for _ in 0..EXTRA_SETUPS {
        setup_samples.push(setup(&seeds, &off, 0)?.1);
    }

    // Passes alternate untraced/traced in a traced run; an untraced run
    // never records.
    let started = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    loop {
        let index = passes.len() as u64;
        let traced = args.trace && index % 2 == 1;
        let pass = run_pass(
            index,
            &seeds,
            if traced { &on } else { &off },
            &cfg,
            args.deadline,
            &mut out,
        )?;
        let last = pass.attack_s();
        passes.push(pass);
        if !another_pass(args, passes.len(), started, last) {
            break;
        }
    }
    let counts: Vec<Counts> = passes.iter().map(|p| p.counts.clone()).collect();
    check_counts_repeat(&mut out, &counts);

    // The operation is one pass over the attack list: the list's attacks
    // differ in cost by two orders of magnitude, so a median of single
    // attacks would say which entry sits at the middle, not how fast the
    // attacks ran.
    let plain: Vec<&Pass> = passes.iter().filter(|p| !p.traced).collect();
    setup_samples.extend(plain.iter().map(|p| p.setup_s));
    let pass_ms: Vec<f64> = plain.iter().map(|p| p.attack_s() * 1e3).collect();
    let ops_per_s: Vec<f64> = plain
        .iter()
        .map(|p| p.walls.len() as f64 / p.attack_s())
        .collect();
    out.set("setup_s", median(&setup_samples));
    out.set("ops_per_s", median(&ops_per_s));
    out.set("op_p50_ms", median(&pass_ms));
    out.set("peak_rss_mb", peak_rss_mb()?);

    if args.trace {
        layer_metrics(args, &mut out, &passes, &on, &seeds)?;
    }
    Ok(out)
}

/// Per-layer metrics from the traced passes.
fn layer_metrics(
    args: &Args,
    out: &mut Outcome,
    passes: &[Pass],
    on: &Trace,
    seeds: &[u64],
) -> Result<(), String> {
    let traced: Vec<&Pass> = passes.iter().filter(|p| p.traced).collect();
    let last = traced.last().ok_or("a traced run needs a traced pass")?;
    let spans = on.spans();
    let g = by_name(&spans);
    let med_ms = |name: &str| g.get(name).map_or(0.0, |s| median(&s.durations_s) * 1e3);
    out.set("netlist.generate_ms", med_ms("netlist.generate"));
    out.set("netlist.compile_ms", med_ms("attacks.oracle_new"));
    out.set("core.lock_ms", med_ms("core.lock"));
    out.set("attack.verify_key_ms", med_ms("core.verify_key"));

    // Self time of the attack span (encode + solve) and its oracle
    // children, per traced pass.
    let n = traced.len() as f64;
    let attack = g.get("attacks.sat_attack").cloned().unwrap_or_default();
    let oracle_s = g.get("attacks.oracle_query").map_or(0.0, |s| s.total_s);
    let loop_s = attack.self_s / n;
    out.set("attack.loop_s", loop_s);
    out.set("attack.oracle_s", oracle_s / n);
    if (attack.self_s + oracle_s - attack.total_s).abs() > 1e-6 * attack.total_s.max(1.0) {
        out.check_failed(format!(
            "attack spans do not add up: self {:.6}s + oracle {oracle_s:.6}s != {:.6}s",
            attack.self_s, attack.total_s
        ));
    }
    for (name, v) in &last.counts {
        out.set(name, *v as f64);
    }
    out.set(
        "sat.props_per_s",
        last.counts["sat.propagations"] as f64 / loop_s,
    );
    let blocks = last.counts["attack.oracle_blocks"].max(1);
    out.set(
        "attack.lane_occupancy",
        last.counts["attack.oracle_patterns"] as f64 / (MAX_LANES as f64 * blocks as f64),
    );

    // Tseitin encoding of each attacker view, outside any timed pass.
    let (targets, _) = setup(seeds, &Trace::new(false), 0)?;
    let (mut enc_s, mut gates) = (0.0, 0usize);
    for (i, t) in targets.iter().enumerate() {
        let started = Instant::now();
        on.within("sat.encode", 90_000 + i as u64, SpanId::ROOT, || {
            ril_sat::encode_netlist(&t.view)
        })
        .map_err(|e| format!("{}: encoding failed: {e}", t.label))?;
        enc_s += started.elapsed().as_secs_f64();
        gates += t.view.gate_count();
    }
    out.set("sat.encode_us_per_gate", enc_s * 1e6 / gates as f64);

    let plain: Vec<f64> = passes
        .iter()
        .filter(|p| !p.traced)
        .map(Pass::attack_s)
        .collect();
    let with: Vec<f64> = traced.iter().map(|p| p.attack_s()).collect();
    out.set(
        "trace.overhead_pct",
        (median(&with) / median(&plain) - 1.0) * 100.0,
    );
    let spans = on.spans();
    out.set("trace.spans", spans.len() as f64);
    on.write_jsonl(&span_log_path(args), &spans)
        .map_err(|e| format!("writing the span log: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_picks_the_same_insertion_seeds_every_time() {
        assert_eq!(insertion_seeds(42), insertion_seeds(42));
        for (s, e) in insertion_seeds(42).iter().zip(LIST.iter()) {
            assert!(e.pool.contains(s));
        }
        let distinct: std::collections::BTreeSet<Vec<u64>> = (0..16).map(insertion_seeds).collect();
        assert!(distinct.len() > 8, "seeds should pick different lists");
    }

    #[test]
    fn attack_config_reads_no_environment() {
        let cfg = attack_config();
        assert_eq!(cfg.timeout, Some(ATTACK_TIMEOUT));
        assert_eq!(cfg.solver.threads, 1);
        assert_eq!(cfg.dip_batch, 8);
    }
}
