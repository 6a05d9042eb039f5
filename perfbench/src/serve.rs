//! `serve`: an in-process `ril-serve` instance on loopback hosting four
//! c7552 chips (two 8x8 blocks, Scan-Enable on) that re-key every
//! [`MORPH_EVERY`] patterns, under pre-generated traffic.
//!
//! Phases, in order:
//! 1. a probe: one 64-lane block per chip must match a local [`Oracle`]
//!    built from the same [`DesignSpec`];
//! 2. an open loop at [`LOW_RATE`], then at [`HIGH_RATE`]: each request
//!    is written when it is due, whatever the replies are doing, and its
//!    latency runs from the due time to the reply;
//! 3. a closed, pipelined loop that measures saturation throughput.
//!
//! Load comes from this process over one connection at a time, so every
//! chip sees its requests in one fixed order and the server's pattern and
//! morph counts are predictable exactly. (Two connections on a 2-vCPU
//! host made the high-rate p90 and the saturation rate swing 2x between
//! runs: four busy client threads fought the reactors for the cores.)

use crate::stats::{median, peak_rss_mb, quantile_of};
use crate::trace::{by_name, SpanId, Trace};
use crate::{span_log_path, Args, Outcome};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ril_attacks::{Oracle, PatternBlock};
use ril_core::{Obfuscator, RilBlockSpec};
use ril_serve::{
    read_frame_bytes, write_frame_bytes, Codec, CodecPref, DesignSpec, JsonCodec, Request,
    Response, ServeClient, ServeConfig, Server, ServerHandle, WireCodec, PROTOCOL_VERSION,
};
use std::net::TcpStream;
use std::time::{Duration, Instant};

const CHIPS: usize = 4;
/// Server-side morph trigger: every chip re-keys after this many patterns.
const MORPH_EVERY: u64 = 4096;
const LANES: usize = 64;
/// Traffic mix, percent of requests: 64-lane batches, single queries,
/// explicit morphs.
const MIX_BATCH: u32 = 70;
const MIX_SINGLE: u32 = 25;
/// Percent of single queries that re-send an earlier pattern of the chip.
const REPEAT_SINGLE: u32 = 30;
/// Offered rates of the open-loop steps, requests per second.
const LOW_RATE: f64 = 500.0;
const HIGH_RATE: f64 = 2000.0;
/// Share of the time budget each offered rate runs, over all rounds.
const STEP_SHARE: f64 = 0.3;
/// Rounds of low step, high step and saturation burst per run.
const ROUNDS: usize = 6;
/// Closed-loop requests per second of budget, and pipelining depth.
const SATURATION_PER_S: f64 = 500.0;
const PIPELINE: usize = 16;
/// Closed-loop requests per pipelined call (a multiple of [`PIPELINE`]).
const SATURATION_CHUNK: usize = 128;
/// Server set-ups timed per run (the last one serves the traffic).
const SETUPS: usize = 9;
const REQUEST_TIMEOUT: Duration = Duration::from_secs(10);
const SEED_SALT: u64 = 0x0073_6572_7665;

/// What a request is, for validation and per-kind timing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Batch,
    Single,
    Morph,
}

impl Kind {
    fn span(self) -> &'static str {
        match self {
            Kind::Batch => "serve.request.batch",
            Kind::Single => "serve.request.single",
            Kind::Morph => "serve.request.morph",
        }
    }
}

/// One pre-generated request: to which chip (index into the activated
/// chips), what kind it is, and the seed its input patterns are drawn
/// from. Patterns are materialized just before
/// sending, so the generator's memory stays small next to the server's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Planned {
    chip: usize,
    kind: Kind,
    patterns_seed: u64,
}

/// A hosted chip as the client knows it.
#[derive(Debug, Clone, Copy)]
struct Chip {
    id: u64,
    inputs: usize,
    outputs: usize,
}

fn design(seed: u64, i: usize) -> DesignSpec {
    DesignSpec {
        benchmark: "c7552".to_string(),
        spec: "8x8".to_string(),
        blocks: 2,
        seed: seed.wrapping_mul(CHIPS as u64).wrapping_add(i as u64) % 1_000_000,
        scan: true,
        zero_se: false,
    }
}

fn random_pattern(rng: &mut StdRng, width: usize) -> Vec<bool> {
    (0..width).map(|_| rng.gen()).collect()
}

/// The wire request a planned request stands for.
fn materialize(p: &Planned, chip: &Chip) -> Request {
    let mut rng = StdRng::seed_from_u64(p.patterns_seed);
    match p.kind {
        Kind::Batch => Request::QueryBatch {
            chip: chip.id,
            patterns: (0..LANES)
                .map(|_| random_pattern(&mut rng, chip.inputs))
                .collect(),
        },
        Kind::Single => Request::Query {
            chip: chip.id,
            inputs: random_pattern(&mut rng, chip.inputs),
        },
        Kind::Morph => Request::Morph { chip: chip.id },
    }
}

/// Generates `n` requests. `singles` remembers each chip's single-query
/// patterns so a share of later singles can re-send one.
fn traffic(rng: &mut StdRng, singles: &mut [Vec<u64>], n: usize) -> Vec<Planned> {
    (0..n)
        .map(|_| {
            let chip = rng.gen_range(0..CHIPS);
            let roll = rng.gen_range(0..100u32);
            let mut patterns_seed: u64 = rng.gen();
            let kind = if roll < MIX_BATCH {
                Kind::Batch
            } else if roll < MIX_BATCH + MIX_SINGLE {
                let seen = &mut singles[chip];
                if !seen.is_empty() && rng.gen_range(0..100u32) < REPEAT_SINGLE {
                    patterns_seed = seen[rng.gen_range(0..seen.len())];
                } else {
                    seen.push(patterns_seed);
                }
                Kind::Single
            } else {
                Kind::Morph
            };
            Planned {
                chip,
                kind,
                patterns_seed,
            }
        })
        .collect()
}

/// The server's per-chip accounting, predicted from the requests sent.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Expect {
    requests: u64,
    patterns: u64,
    morphs: u64,
    since_morph: u64,
}

impl Expect {
    fn apply(&mut self, kind: Kind) {
        let lanes = match kind {
            Kind::Batch => LANES as u64,
            Kind::Single => 1,
            Kind::Morph => {
                self.morphs += 1;
                self.since_morph = 0;
                return;
            }
        };
        self.requests += 1;
        self.patterns += lanes;
        self.since_morph += lanes;
        if self.since_morph >= MORPH_EVERY {
            self.morphs += 1;
            self.since_morph = 0;
        }
    }
}

/// Checks a response against its request and the chip's last generation.
fn check_response(
    p: &Planned,
    chip: &Chip,
    resp: &Response,
    last_gen: &mut u64,
) -> Result<(), String> {
    let generation = match (p.kind, resp) {
        (Kind::Batch, Response::Batch { rows, generation }) => {
            if rows.len() != LANES || rows.iter().any(|r| r.len() != chip.outputs) {
                return Err(format!(
                    "chip {}: batch answer has the wrong shape",
                    chip.id
                ));
            }
            *generation
        }
        (Kind::Single, Response::Outputs { bits, generation }) => {
            if bits.len() != chip.outputs {
                return Err(format!(
                    "chip {}: {} output bits, expected {}",
                    chip.id,
                    bits.len(),
                    chip.outputs
                ));
            }
            *generation
        }
        (Kind::Morph, Response::Morphed { generation, .. }) => *generation,
        (_, other) => return Err(format!("chip {}: {:?} answered {other:?}", chip.id, p.kind)),
    };
    if generation < *last_gen {
        return Err(format!(
            "chip {}: generation went back from {last_gen} to {generation}",
            chip.id
        ));
    }
    *last_gen = generation;
    Ok(())
}

/// Starts the server and activates the chips. Returns the chip ids and
/// the wall time of both.
fn start(seed: u64) -> Result<(ServerHandle, Vec<u64>, f64), String> {
    let started = Instant::now();
    let handle = Server::start(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        shards: 8,
        morph_queries: Some(MORPH_EVERY),
        morph_interval: None,
        query_limit: None,
    })
    .map_err(|e| format!("server start: {e}"))?;
    let ids: Result<Vec<u64>, String> = (0..CHIPS)
        .map(|i| handle.activate(&design(seed, i)))
        .collect();
    let secs = started.elapsed().as_secs_f64();
    match ids {
        Ok(ids) => Ok((handle, ids, secs)),
        Err(e) => {
            handle.shutdown();
            Err(format!("activation: {e}"))
        }
    }
}

fn client(handle: &ServerHandle) -> Result<ServeClient, String> {
    ServeClient::builder(handle.addr().to_string())
        .codec(CodecPref::Bin)
        .timeout(REQUEST_TIMEOUT)
        .retries(0)
        .pipeline(PIPELINE)
        .build()
        .map_err(|e| format!("client: {e}"))
}

/// A raw framed connection that negotiated the binary codec.
fn connect(handle: &ServerHandle) -> Result<TcpStream, String> {
    let mut stream = TcpStream::connect(handle.addr()).map_err(|e| format!("connect: {e}"))?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    stream
        .set_read_timeout(Some(REQUEST_TIMEOUT))
        .map_err(|e| e.to_string())?;
    let hello = Request::Hello {
        version: PROTOCOL_VERSION,
        codecs: vec!["bin".to_string()],
    };
    let payload = JsonCodec
        .encode_request(&hello)
        .map_err(|e| e.to_string())?;
    write_frame_bytes(&mut stream, &payload).map_err(|e| e.to_string())?;
    let answer = read_frame_bytes(&mut stream).map_err(|e| e.to_string())?;
    match JsonCodec.decode_response(&answer) {
        Ok(Response::Hello { codec, .. }) if codec == "bin" => Ok(stream),
        other => Err(format!("codec negotiation: {other:?}")),
    }
}

/// Timestamps and verdicts of every request of one open-loop step.
#[derive(Debug)]
struct StepLog {
    rate: f64,
    due: Vec<Instant>,
    sent: Vec<Instant>,
    /// When the reply arrived; `None` when none came.
    answered: Vec<Option<Instant>>,
    /// Why the reply was wrong, if it was.
    errors: Vec<Option<String>>,
}

/// Due-time latency, µs, of each answered request.
fn latencies_us(due: &[Instant], answered: &[Option<Instant>]) -> Vec<f64> {
    due.iter()
        .zip(answered)
        .filter_map(|(d, a)| a.map(|a| a.saturating_duration_since(*d).as_secs_f64() * 1e6))
        .collect()
}

/// Requests due by the step's last due time but not answered by then.
fn backlog_at_end(due: &[Instant], answered: &[Option<Instant>]) -> u64 {
    let Some(&end) = due.iter().max() else {
        return 0;
    };
    due.iter()
        .zip(answered)
        .filter(|(d, a)| **d <= end && a.is_none_or(|a| a > end))
        .count() as u64
}

/// Sends a step's requests on schedule, materializing each just before
/// its due time (request `i` is due `i / rate` seconds after the step
/// starts), and reads and checks the replies on a second thread. `gens`
/// is the last generation seen per chip.
fn open_loop_step(
    handle: &ServerHandle,
    plan: &[Planned],
    rate: f64,
    chips: &[Chip],
    gens: &mut [u64],
) -> Result<StepLog, String> {
    let mut stream = connect(handle)?;
    let mut reader = stream.try_clone().map_err(|e| e.to_string())?;
    let t0 = Instant::now();
    let due: Vec<Instant> = (0..plan.len())
        .map(|i| t0 + Duration::from_secs_f64(i as f64 / rate))
        .collect();
    std::thread::scope(|s| {
        let receiver = s.spawn(move || {
            let mut answered = Vec::with_capacity(plan.len());
            let mut errors = Vec::with_capacity(plan.len());
            for p in plan {
                let Ok(payload) = read_frame_bytes(&mut reader) else {
                    break;
                };
                answered.push(Some(Instant::now()));
                let checked = WireCodec::sniff(&payload)
                    .and_then(|c| c.decode_response(&payload))
                    .map_err(|e| e.to_string())
                    .and_then(|resp| check_response(p, &chips[p.chip], &resp, &mut gens[p.chip]));
                errors.push(checked.err());
            }
            for p in &plan[answered.len()..] {
                answered.push(None);
                errors.push(Some(format!(
                    "chip {}: no reply to a {:?} request",
                    chips[p.chip].id, p.kind
                )));
            }
            (answered, errors)
        });
        let mut sent = Vec::with_capacity(plan.len());
        let mut send_err = None;
        for (p, due_at) in plan.iter().zip(&due) {
            let frame = match WireCodec::Bin.encode_request(&materialize(p, &chips[p.chip])) {
                Ok(f) => f,
                Err(e) => {
                    send_err = Some(e.to_string());
                    break;
                }
            };
            let now = Instant::now();
            if *due_at > now {
                std::thread::sleep(*due_at - now);
            }
            sent.push(Instant::now());
            if let Err(e) = write_frame_bytes(&mut stream, &frame) {
                send_err = Some(e.to_string());
                break;
            }
        }
        if send_err.is_some() {
            // Unblock the receiver: no more replies are coming.
            let _ = stream.shutdown(std::net::Shutdown::Both);
        }
        let (answered, errors) = receiver
            .join()
            .map_err(|_| "receiver thread panicked".to_string())?;
        if let Some(e) = send_err {
            return Err(format!("send failed: {e}"));
        }
        Ok(StepLog {
            rate,
            due,
            sent,
            answered,
            errors,
        })
    })
}

/// Closed-loop pipelined saturation: the requests go out as fast as the
/// replies allow, [`SATURATION_CHUNK`] per pipelined call; materializing
/// and checking a chunk is not timed. Returns each chunk's requests per
/// second and each request's error, if any.
fn saturate(
    handle: &ServerHandle,
    plan: &[Planned],
    chips: &[Chip],
    gens: &mut [u64],
) -> Result<(Vec<f64>, Vec<Option<String>>), String> {
    let mut c = client(handle)?;
    c.negotiation().map_err(|e| format!("negotiation: {e}"))?;
    let (mut rates, mut errors) = (Vec::new(), Vec::with_capacity(plan.len()));
    for chunk in plan.chunks(SATURATION_CHUNK) {
        let reqs: Vec<Request> = chunk
            .iter()
            .map(|p| materialize(p, &chips[p.chip]))
            .collect();
        let started = Instant::now();
        let resps = c.request_pipelined(&reqs).map_err(|e| e.to_string())?;
        rates.push(chunk.len() as f64 / started.elapsed().as_secs_f64());
        for (p, resp) in chunk.iter().zip(&resps) {
            errors.push(check_response(p, &chips[p.chip], resp, &mut gens[p.chip]).err());
        }
    }
    Ok((rates, errors))
}

/// Counts a phase's requests as attempted, its bad replies as failed, and
/// feeds the server-accounting prediction.
fn tally(out: &mut Outcome, plan: &[Planned], errors: &[Option<String>], expect: &mut [Expect]) {
    for (p, e) in plan.iter().zip(errors) {
        out.attempted += 1;
        expect[p.chip].apply(p.kind);
        if let Some(e) = e {
            out.fail(e.clone());
        }
    }
}

/// Lateness of the generator: how long after its due time each request
/// went out, µs.
fn lateness_us(log: &StepLog) -> Vec<f64> {
    log.due
        .iter()
        .zip(&log.sent)
        .map(|(d, s)| s.saturating_duration_since(*d).as_secs_f64() * 1e6)
        .collect()
}

/// Runs the workload.
///
/// # Errors
///
/// When the server cannot start or a chip cannot be activated.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let step_s = args.seconds * STEP_SHARE / ROUNDS as f64;
    let sizes = Sizes {
        low: (LOW_RATE * step_s) as usize,
        high: (HIGH_RATE * step_s) as usize,
        saturation: (SATURATION_PER_S * args.seconds / ROUNDS as f64) as usize,
    };
    out.pinned = vec![
        (
            "chips",
            format!(
                "{CHIPS} x c7552:2x8x8 scan on, design seeds {:?}",
                (0..CHIPS)
                    .map(|i| design(args.seed, i).seed)
                    .collect::<Vec<_>>()
            ),
        ),
        ("morph_every_patterns", MORPH_EVERY.to_string()),
        (
            "mix_batch_single_morph_pct",
            format!("{MIX_BATCH}/{MIX_SINGLE}/{}", 100 - MIX_BATCH - MIX_SINGLE),
        ),
        ("repeat_single_pct", REPEAT_SINGLE.to_string()),
        ("rates_req_per_s", format!("{LOW_RATE}/{HIGH_RATE}")),
        (
            "requests_low_high_saturation",
            format!("{}/{}/{}", sizes.low, sizes.high, sizes.saturation),
        ),
        ("connections", "1".to_string()),
        ("pipeline", PIPELINE.to_string()),
        ("codec", "bin".to_string()),
        ("server_workers_shards", "2/8".to_string()),
    ];

    let mut setups = Vec::with_capacity(SETUPS);
    let mut live = None;
    for i in 0..SETUPS {
        let (handle, ids, secs) = start(args.seed)?;
        setups.push(secs);
        if i + 1 < SETUPS {
            handle.shutdown();
        } else {
            live = Some((handle, ids));
        }
    }
    let (handle, ids) = live.expect("at least one set-up");
    let result = drive(args, &mut out, &handle, &ids, &sizes);
    handle.shutdown();
    result?;
    out.set("setup_s", median(&setups));
    out.set("peak_rss_mb", peak_rss_mb()?);
    Ok(out)
}

/// Requests per phase of one round.
struct Sizes {
    low: usize,
    high: usize,
    saturation: usize,
}

fn drive(
    args: &Args,
    out: &mut Outcome,
    handle: &ServerHandle,
    ids: &[u64],
    sizes: &Sizes,
) -> Result<(), String> {
    let mut rng = StdRng::seed_from_u64(args.seed ^ SEED_SALT);
    let trace = Trace::new(args.trace);
    let mut expect = vec![Expect::default(); CHIPS];
    let mut gens = vec![0u64; CHIPS];
    let mut client = client(handle)?;

    // Probe: each chip's first block must match a local oracle built from
    // the same design spec. The local oracle also gives the chip's widths.
    let mut chips = Vec::with_capacity(CHIPS);
    for (i, &id) in ids.iter().enumerate() {
        let spec = design(args.seed, i);
        let host = trace.within("netlist.generate", i as u64, SpanId::ROOT, || spec.host())?;
        let block = RilBlockSpec::parse(&spec.spec).ok_or("bad spec token")?;
        let locked = trace
            .within("core.lock", i as u64, SpanId::ROOT, || {
                Obfuscator::new(block)
                    .blocks(spec.blocks)
                    .scan_obfuscation(spec.scan)
                    .seed(spec.seed)
                    .obfuscate(&host)
            })
            .map_err(|e| format!("local lock: {e}"))?;
        let mut oracle = trace
            .within("attacks.oracle_new", i as u64, SpanId::ROOT, || {
                Oracle::new(&locked)
            })
            .map_err(|e| format!("local oracle: {e}"))?;
        let chip = Chip {
            id,
            inputs: oracle.input_width(),
            outputs: oracle.output_width(),
        };
        chips.push(chip);
        let patterns: Vec<Vec<bool>> = (0..LANES)
            .map(|_| random_pattern(&mut rng, chip.inputs))
            .collect();
        let local = oracle.query_block(&PatternBlock::pack(&patterns)).unpack();
        out.attempted += 1;
        expect[i].apply(Kind::Batch);
        match client.request(&Request::QueryBatch {
            chip: chip.id,
            patterns,
        }) {
            Ok(Response::Batch { rows, .. }) if rows == local => {}
            other => out.fail(format!(
                "chip {}: probe block disagrees with the local oracle: {other:?}",
                chip.id
            )),
        }
        if args.trace && i == 0 {
            let started = Instant::now();
            trace
                .within("sat.encode", 0, SpanId::ROOT, || {
                    ril_sat::encode_netlist(&locked.netlist)
                })
                .map_err(|e| format!("encoding: {e}"))?;
            out.set(
                "sat.encode_us_per_gate",
                started.elapsed().as_secs_f64() * 1e6 / locked.netlist.gate_count() as f64,
            );
        }
    }

    // Rounds of (low step, high step, saturation burst). Latencies are the
    // median over rounds and throughput the median over every saturation
    // chunk, so a slow spell of the host does not decide the run.
    let mut singles = vec![Vec::new(); CHIPS];
    let mut steps: Vec<(&'static str, StepLog, Vec<Planned>)> = Vec::new();
    let mut rates = Vec::new();
    for round in 0..ROUNDS {
        let mut step_plans = vec![
            ("low", LOW_RATE, sizes.low),
            ("high", HIGH_RATE, sizes.high),
        ];
        if args.trace && round + 1 == ROUNDS {
            // For the tracing overhead: one more high step, untraced.
            step_plans.push(("high_untraced", HIGH_RATE, sizes.high));
        }
        for (name, rate, n) in step_plans {
            let plan = traffic(&mut rng, &mut singles, n);
            let log = open_loop_step(handle, &plan, rate, &chips, &mut gens)?;
            tally(out, &plan, &log.errors, &mut expect);
            if name != "high_untraced" {
                let op_base = steps.len() * 1_000_000;
                for (i, p) in plan.iter().enumerate() {
                    if let Some(at) = log.answered[i] {
                        trace.record(p.kind.span(), (op_base + i) as u64, log.sent[i], at);
                    }
                }
            }
            steps.push((name, log, plan));
        }
        let sat_plan = traffic(&mut rng, &mut singles, sizes.saturation);
        let (chunk_rates, sat_errors) = saturate(handle, &sat_plan, &chips, &mut gens)?;
        tally(out, &sat_plan, &sat_errors, &mut expect);
        rates.extend(chunk_rates);
    }

    // The server's own accounting must match what was sent.
    let stats = client.stats().map_err(|e| format!("stats: {e}"))?;
    let m = &stats.metrics;
    let sum = |f: fn(&Expect) -> u64| expect.iter().map(f).sum::<u64>();
    for (name, got, want) in [
        (
            "serve.queries",
            m.counter("serve.queries"),
            sum(|e| e.requests),
        ),
        (
            "serve.query.patterns",
            m.counter("serve.query.patterns"),
            sum(|e| e.patterns),
        ),
        ("serve.morphs", m.counter("serve.morphs"), sum(|e| e.morphs)),
    ] {
        if got != want {
            out.check_failed(format!(
                "server counted {got} {name}, the client sent {want}"
            ));
        }
    }
    for (chip, e) in chips.iter().zip(&expect) {
        match stats.chips.iter().find(|c| c.chip == chip.id) {
            Some(c)
                if c.queries == e.patterns && c.morphs == e.morphs && c.generation == e.morphs => {}
            other => out.check_failed(format!(
                "chip {}: server stats {other:?}, expected {e:?}",
                chip.id
            )),
        }
    }

    // End to end: latency at the high offered rate, saturation throughput.
    let step_us = |name: &str| -> Vec<Vec<f64>> {
        steps
            .iter()
            .filter(|(n, _, _)| *n == name)
            .map(|(_, log, _)| latencies_us(&log.due, &log.answered))
            .collect()
    };
    let per_round = |lat: &[Vec<f64>], q: f64| {
        median(&lat.iter().map(|l| quantile_of(l, q)).collect::<Vec<_>>())
    };
    let (low_us, high_us) = (step_us("low"), step_us("high"));
    out.set("op_p50_ms", per_round(&high_us, 0.5) / 1e3);
    out.set("ops_per_s", median(&rates));

    // Generator honesty: lateness and backlog of every step. A step whose
    // generator ran late by more than one send interval at its 99th
    // percentile is flagged: its latencies measure the
    // generator, not the server.
    let mut late_all = Vec::new();
    let (mut late_steps, mut backlog_max) = (0u64, 0u64);
    for (name, log, _) in &steps {
        let late = lateness_us(log);
        let interval_us = 1e6 / log.rate;
        let p99 = quantile_of(&late, 0.99);
        let backlog = backlog_at_end(&log.due, &log.answered);
        backlog_max = backlog_max.max(backlog);
        if p99 > interval_us {
            late_steps += 1;
            eprintln!(
                "perfbench: serve step `{name}`: the generator's p99 lateness {p99:.0}us exceeds its {interval_us:.0}us send interval; backlog at the end {backlog}"
            );
        }
        late_all.extend(late);
    }

    if !args.trace {
        return Ok(());
    }
    out.set("serve.low_p50_us", per_round(&low_us, 0.5));
    out.set("serve.low_p90_us", per_round(&low_us, 0.9));
    out.set("serve.high_p50_us", per_round(&high_us, 0.5));
    out.set("serve.high_p90_us", per_round(&high_us, 0.9));
    // p99 over every high-rate request: the rounds pooled.
    out.set("serve.p99_us", quantile_of(&high_us.concat(), 0.99));
    for (kind, name) in [
        (Kind::Batch, "serve.rtt_batch_p50_us"),
        (Kind::Single, "serve.rtt_single_p50_us"),
        (Kind::Morph, "serve.rtt_morph_p50_us"),
    ] {
        let mut rtt = Vec::new();
        for (_, log, plan) in steps.iter().filter(|(n, _, _)| *n != "high_untraced") {
            for (i, p) in plan.iter().enumerate() {
                if let (Some(at), true) = (log.answered[i], p.kind == kind) {
                    rtt.push(at.saturating_duration_since(log.sent[i]).as_secs_f64() * 1e6);
                }
            }
        }
        out.set(name, quantile_of(&rtt, 0.5));
    }
    for (key, name) in [
        ("serve.phase.decode", "serve.phase.decode_p50_us"),
        ("serve.phase.eval", "serve.phase.eval_p50_us"),
        ("serve.phase.morph", "serve.phase.morph_p50_us"),
        ("serve.phase.write", "serve.phase.write_p50_us"),
    ] {
        out.set(name, m.timing(key).map_or(0.0, |h| h.p50_us()));
    }
    out.set("serve.morphs", m.counter("serve.morphs") as f64);
    out.set("serve.patterns", m.counter("serve.query.patterns") as f64);
    out.set("serve.requests", out.attempted as f64);
    out.set("serve.backlog_max", backlog_max as f64);
    out.set(
        "serve.gen_late_max_ms",
        late_all.iter().copied().fold(0.0, f64::max) / 1e3,
    );
    out.set("serve.gen_late_p99_us", quantile_of(&late_all, 0.99));
    out.set("serve.late_steps", late_steps as f64);
    let untraced_p50 = per_round(&step_us("high_untraced"), 0.5);
    out.set(
        "trace.overhead_pct",
        (per_round(&high_us, 0.5) / untraced_p50 - 1.0) * 100.0,
    );
    let spans = trace.spans();
    let g = by_name(&spans);
    let med_ms = |name: &str| g.get(name).map_or(0.0, |s| median(&s.durations_s) * 1e3);
    out.set("netlist.generate_ms", med_ms("netlist.generate"));
    out.set("core.lock_ms", med_ms("core.lock"));
    out.set("netlist.compile_ms", med_ms("attacks.oracle_new"));
    out.set("trace.spans", spans.len() as f64);
    trace
        .write_jsonl(&span_log_path(args), &spans)
        .map_err(|e| format!("writing the span log: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traffic_is_a_function_of_the_seed() {
        let gen = |seed| {
            traffic(
                &mut StdRng::seed_from_u64(seed),
                &mut vec![Vec::new(); CHIPS],
                400,
            )
        };
        assert_eq!(gen(3), gen(3));
        assert_ne!(gen(3), gen(4));
        let plan = gen(3);
        assert!((0..CHIPS).all(|c| plan.iter().any(|p| p.chip == c)));
        let batches = plan.iter().filter(|p| p.kind == Kind::Batch).count();
        assert!((240..320).contains(&batches), "{batches} batches of 400");
        assert!(plan.iter().any(|p| p.kind == Kind::Morph));
        // Some singles re-send an earlier pattern of the same chip.
        let singles: Vec<&Planned> = plan.iter().filter(|p| p.kind == Kind::Single).collect();
        let repeats = singles
            .iter()
            .enumerate()
            .filter(|(i, p)| {
                singles[..*i]
                    .iter()
                    .any(|q| q.patterns_seed == p.patterns_seed && q.chip == p.chip)
            })
            .count();
        assert!(
            repeats > 0 && repeats < singles.len() / 2,
            "{repeats} repeats"
        );
        let chip = Chip {
            id: 9,
            inputs: 5,
            outputs: 3,
        };
        assert_eq!(materialize(&plan[0], &chip), materialize(&plan[0], &chip));
    }

    #[test]
    fn latency_runs_from_the_due_time() {
        let t0 = Instant::now();
        let due = vec![t0, t0 + Duration::from_millis(1)];
        // The first reply is 3 ms after its due time even though the
        // request went out late: the stall counts against the server.
        let answered = vec![Some(t0 + Duration::from_millis(3)), None];
        let lat = latencies_us(&due, &answered);
        assert_eq!(lat.len(), 1);
        assert!((lat[0] - 3000.0).abs() < 1.0);
        assert_eq!(backlog_at_end(&due, &answered), 2);
        let answered = vec![Some(t0), Some(t0 + Duration::from_millis(1))];
        assert_eq!(backlog_at_end(&due, &answered), 0);
    }

    #[test]
    fn expected_accounting_follows_the_morph_trigger() {
        let mut e = Expect::default();
        for _ in 0..MORPH_EVERY / LANES as u64 {
            e.apply(Kind::Batch);
        }
        assert_eq!((e.morphs, e.since_morph), (1, 0));
        e.apply(Kind::Single);
        e.apply(Kind::Morph);
        let want = Expect {
            requests: MORPH_EVERY / LANES as u64 + 1,
            patterns: MORPH_EVERY + 1,
            morphs: 2,
            since_morph: 0,
        };
        assert_eq!(e, want);
    }
}
