//! The activation service: an event-driven nonblocking reactor loop over
//! `std::net`, with the hosted-chip table striped across shard locks.
//!
//! `workers` reactor threads share the nonblocking listener and take
//! turns at it: one reactor at a time holds the accept turn, accepts one
//! connection and owns it outright, then passes the turn to the reactor
//! with the fewest connections, so connections stay spread evenly. Each
//! pass a reactor accepts if it holds the turn, pulls whatever bytes are
//! readable into per-connection read buffers, decodes and dispatches
//! **every** complete frame it finds (request pipelining — a client may
//! write many frames before reading any response), appends the responses
//! to per-connection write buffers, and flushes what the sockets will
//! take without blocking. No thread ever parks on one peer, so a stalled or
//! hostile connection cannot pin a worker, and one reactor multiplexes
//! thousands of in-flight oracle streams.
//!
//! Codec handling is per frame: the first payload byte says whether the
//! frame is JSON or binary ([`WireCodec::sniff`]), and the response goes
//! back in the codec the request arrived in. Pre-negotiation clients
//! therefore work unchanged, and a negotiated connection switches
//! encodings the instant its `hello` completes.
//!
//! Chip state is sharded (`shards` stripes, chip id modulo stripe
//! count). A query locks only its chip's shard — and holds it for the
//! whole request, so a morph still never lands mid-`QueryBatch` (PR 7's
//! atomic-block invariant) — while traffic to chips on other shards
//! proceeds in parallel. The scheduler walks one shard at a time.
//!
//! Idle behavior: a reactor that makes no progress on a pass blocks in
//! `poll(2)`, with no timeout, on every descriptor it could act on: the
//! listener while it holds the accept turn, each connection's socket
//! (readable while it still reads, writable while responses are queued),
//! and the read end of its own wake socket pair. It costs no CPU while
//! idle and wakes the moment a byte, a connection or send-buffer room
//! arrives. A byte written to the wake pair ends the wait: passing the
//! accept turn wakes its new holder that way, and shutdown, from
//! [`ServerHandle::shutdown`] or the wire `shutdown` op, sets the flag
//! and wakes every reactor. A failed `accept` (the process out of
//! descriptors) or a failed `poll` is retried after `ERROR_BACKOFF` (5 ms);
//! while accepting backs off, the turn holder keeps serving its
//! connections and leaves the listener out of its poll set.

use crate::codec::{append_frame, Codec, Negotiation, WireCodec};
use crate::poll::{PollFd, POLLIN, POLLOUT};
use crate::protocol::{
    ChipStats, DesignSpec, ErrorKind, Request, Response, ServerStats, MAX_FRAME_BYTES,
};
use crate::scheduler::{do_morph, spawn_scheduler};
use rand::{rngs::StdRng, SeedableRng};
use ril_attacks::{Oracle, PatternBlock, MAX_LANES};
use ril_core::LockedCircuit;
use ril_trace::{Metrics, MetricsSnapshot, SpanId, Tracer};
use std::collections::BTreeMap;
use std::io::{ErrorKind as IoKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Decorrelates a design seed from the obfuscator's use of the same seed,
/// so the morph stream is not the lock stream replayed.
const MORPH_SEED_SALT: u64 = 0x9e37_79b9_7f4a_7c15;

/// How long a reactor waits before it retries a failed `accept` or
/// `poll`. Either failure tends to persist (the process out of
/// descriptors or kernel memory), and an immediate retry would spin.
const ERROR_BACKOFF: Duration = Duration::from_millis(5);

/// Service configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address; use port 0 for an OS-assigned port.
    pub addr: String,
    /// Reactor threads (each multiplexes many connections).
    pub workers: usize,
    /// Chip-table stripes. More stripes = more chips morphing/answering
    /// concurrently; a single chip's traffic still serializes on its own
    /// stripe (that's the batch-atomicity guarantee).
    pub shards: usize,
    /// Morph every chip after this many oracle queries (`None` = off).
    pub morph_queries: Option<u64>,
    /// Morph every chip after this much wall time (`None` = off).
    pub morph_interval: Option<Duration>,
    /// Per-chip lifetime query budget (`None` = unlimited).
    pub query_limit: Option<u64>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            shards: 8,
            morph_queries: None,
            morph_interval: None,
            query_limit: None,
        }
    }
}

/// One provisioned chip: the locked circuit it was burned from, its
/// activated oracle, and the morph bookkeeping.
pub(crate) struct HostedChip {
    pub(crate) locked: LockedCircuit,
    pub(crate) oracle: Oracle,
    pub(crate) rng: StdRng,
    pub(crate) queries: u64,
    pub(crate) morphs: u64,
    pub(crate) generation: u64,
    pub(crate) since_morph: u64,
    pub(crate) last_morph: Instant,
    /// `chip.{id}.query.*` metric names, formatted once at activation.
    metric_names: ChipMetricNames,
}

/// The per-chip metric names a query records under.
struct ChipMetricNames {
    latency: String,
    patterns: String,
    blocks: String,
}

impl ChipMetricNames {
    fn new(chip: u64) -> ChipMetricNames {
        ChipMetricNames {
            latency: format!("chip.{chip}.query.latency"),
            patterns: format!("chip.{chip}.query.patterns"),
            blocks: format!("chip.{chip}.query.blocks"),
        }
    }
}

pub(crate) struct State {
    pub(crate) cfg: ServeConfig,
    /// The chip table, striped: chip id modulo stripe count picks the
    /// lock. Every per-chip operation (query, batch, morph) takes exactly
    /// one stripe and holds it for the whole operation.
    pub(crate) shards: Vec<Mutex<BTreeMap<u64, HostedChip>>>,
    next_chip: AtomicU64,
    requests: AtomicU64,
    pub(crate) shutdown: AtomicBool,
    /// One slot per reactor, indexed by reactor number.
    reactors: Vec<ReactorSlot>,
    /// The reactor that holds the accept turn.
    accept_turn: AtomicUsize,
    trace: Option<(Tracer, SpanId)>,
    /// The server's own metrics registry (DESIGN.md §15): request
    /// counters, per-phase and per-chip latency histograms. Distinct
    /// from the optional caller trace — this one always exists and is
    /// what the `stats` op snapshots onto the wire.
    metrics: Metrics,
    started: Instant,
    /// `(instant, requests)` at the previous `stats` poll, for the
    /// qps-since-last-poll figure.
    last_poll: Mutex<(Instant, u64)>,
}

impl State {
    pub(crate) fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Raises the shutdown flag, then wakes every reactor.
    fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        for slot in &self.reactors {
            slot.wake();
        }
    }

    /// Hands the accept turn from reactor `me`, which now owns `owned`
    /// connections, to the reactor owning the fewest. Ties go to the
    /// first reactor after `me`, so equal loads rotate. The new holder
    /// is woken, since it may be blocked without the listener.
    fn pass_accept_turn(&self, me: usize, owned: usize) {
        self.reactors[me].conns.store(owned, Ordering::Relaxed);
        let n = self.reactors.len();
        let next = (1..=n)
            .map(|k| (me + k) % n)
            .min_by_key(|&r| self.reactors[r].conns.load(Ordering::Relaxed))
            .expect("at least one reactor");
        self.accept_turn.store(next, Ordering::SeqCst);
        if next != me {
            self.reactors[next].wake();
        }
    }

    pub(crate) fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The stripe that owns `chip`.
    pub(crate) fn shard(&self, chip: u64) -> &Mutex<BTreeMap<u64, HostedChip>> {
        &self.shards[(chip % self.shards.len() as u64) as usize]
    }

    /// Installs this server's trace context on the calling thread (the
    /// guard must stay alive for `counter()` calls to land).
    pub(crate) fn install_trace(&self) -> Option<ril_trace::ContextGuard> {
        self.trace.as_ref().map(|(t, parent)| t.install(*parent))
    }
}

/// What the other threads know of one reactor.
struct ReactorSlot {
    /// Connections the reactor owns, as of its last pass or accept.
    conns: AtomicUsize,
    /// A socket pair whose read end is in the reactor's poll set: one
    /// byte written to `wake_tx` ends its wait. The reactor drains
    /// `wake_rx` after each wait.
    wake_tx: UnixStream,
    wake_rx: UnixStream,
}

impl ReactorSlot {
    fn new() -> std::io::Result<ReactorSlot> {
        let (wake_tx, wake_rx) = UnixStream::pair()?;
        wake_tx.set_nonblocking(true)?;
        wake_rx.set_nonblocking(true)?;
        Ok(ReactorSlot {
            conns: AtomicUsize::new(0),
            wake_tx,
            wake_rx,
        })
    }

    fn wake(&self) {
        // The pair is nonblocking; a full buffer already holds a wake.
        let _ = (&self.wake_tx).write(&[1]);
    }

    /// Empties the wake pair after a wait, so the next wait blocks.
    fn drain_wakes(&self) {
        let mut sink = [0u8; 64];
        while matches!((&self.wake_rx).read(&mut sink), Ok(n) if n > 0) {}
    }
}

/// The ril-serve activation service.
pub struct Server;

impl Server {
    /// Binds, spawns the reactor threads (+ time-based morph scheduler
    /// when configured), and returns the control handle.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure, or a failure to duplicate the
    /// listener or create a wake pair.
    pub fn start(cfg: ServeConfig) -> std::io::Result<ServerHandle> {
        Server::start_inner(cfg, None)
    }

    /// Like [`Server::start`], but every reactor and the scheduler join
    /// `tracer`'s trace as children of `parent`, so `serve.*` counters
    /// and spans land in the caller's export.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure, or a failure to duplicate the
    /// listener or create a wake pair.
    pub fn start_traced(
        cfg: ServeConfig,
        tracer: &Tracer,
        parent: SpanId,
    ) -> std::io::Result<ServerHandle> {
        Server::start_inner(cfg, Some((tracer.clone(), parent)))
    }

    fn start_inner(
        cfg: ServeConfig,
        trace: Option<(Tracer, SpanId)>,
    ) -> std::io::Result<ServerHandle> {
        let listener = TcpListener::bind(&cfg.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let workers = cfg.workers.max(1);
        // Every descriptor is made before the first thread starts, so a
        // failure here leaves nothing running. Each reactor owns a
        // duplicate of the listener, so the port closes once the last
        // reactor exits.
        let listeners = (0..workers)
            .map(|_| listener.try_clone())
            .collect::<std::io::Result<Vec<_>>>()?;
        let reactors = (0..workers)
            .map(|_| ReactorSlot::new())
            .collect::<std::io::Result<Vec<_>>>()?;
        drop(listener);
        let shards = cfg.shards.max(1);
        let started = Instant::now();
        let state = Arc::new(State {
            cfg,
            shards: (0..shards).map(|_| Mutex::new(BTreeMap::new())).collect(),
            next_chip: AtomicU64::new(1),
            requests: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            reactors,
            accept_turn: AtomicUsize::new(0),
            trace,
            metrics: Metrics::new(),
            started,
            last_poll: Mutex::new((started, 0)),
        });

        let mut threads = Vec::new();
        for (me, listener) in listeners.into_iter().enumerate() {
            let state = Arc::clone(&state);
            threads.push(std::thread::spawn(move || {
                reactor_loop(&state, &listener, me);
            }));
        }
        if state.cfg.morph_interval.is_some() {
            threads.push(spawn_scheduler(Arc::clone(&state)));
        }

        Ok(ServerHandle {
            addr,
            state,
            threads: Mutex::new(threads),
        })
    }
}

/// Control handle for a running server. Dropping it does **not** stop the
/// service; call [`ServerHandle::shutdown`].
pub struct ServerHandle {
    addr: SocketAddr,
    state: Arc<State>,
    threads: Mutex<Vec<JoinHandle<()>>>,
}

impl ServerHandle {
    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Provisions a chip directly, without a connection — used by the CLI
    /// to pre-activate, and by tests.
    ///
    /// # Errors
    ///
    /// Returns the provisioning failure message.
    pub fn activate(&self, design: &DesignSpec) -> Result<u64, String> {
        match activate(&self.state, design)? {
            Response::Activated { chip, .. } => Ok(chip),
            other => Err(format!("unexpected response {other:?}")),
        }
    }

    /// Requests handled so far.
    pub fn requests(&self) -> u64 {
        self.state.requests.load(Ordering::Relaxed)
    }

    /// A snapshot of the server's metrics registry — what the `stats`
    /// wire op carries, without a connection.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.state.metrics.snapshot()
    }

    /// Blocks until the service drains — i.e. until some client sends the
    /// `shutdown` op (or [`ServerHandle::shutdown`] runs on another
    /// thread). This is how `rilock serve` stays in the foreground.
    pub fn wait(&self) {
        let handles: Vec<JoinHandle<()>> = {
            let mut guard = self.threads.lock().expect("thread table");
            guard.drain(..).collect()
        };
        for h in handles {
            let _ = h.join();
        }
    }

    /// Signals shutdown and joins every service thread. Idempotent.
    pub fn shutdown(&self) {
        self.state.begin_shutdown();
        let handles: Vec<JoinHandle<()>> = {
            let mut guard = self.threads.lock().expect("thread table");
            guard.drain(..).collect()
        };
        for h in handles {
            let _ = h.join();
        }
    }
}

/// One multiplexed connection: its socket and the buffered halves of the
/// frame streams in both directions.
struct Conn {
    stream: TcpStream,
    /// Bytes received but not yet consumed as complete frames.
    read_buf: Vec<u8>,
    /// Encoded response frames not yet accepted by the socket.
    write_buf: Vec<u8>,
    /// How much of `write_buf` the socket has taken.
    write_pos: usize,
    /// Stop reading; close once `write_buf` drains (oversized frame,
    /// `shutdown` ack, or peer EOF).
    close_after_flush: bool,
}

impl Conn {
    fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            read_buf: Vec::new(),
            write_buf: Vec::new(),
            write_pos: 0,
            close_after_flush: false,
        }
    }

    fn write_drained(&self) -> bool {
        self.write_pos == self.write_buf.len()
    }

    /// What the connection waits for: more request bytes while it still
    /// reads, send-buffer room while responses are queued.
    fn interest(&self) -> i16 {
        let read = if self.close_after_flush { 0 } else { POLLIN };
        let write = if self.write_drained() { 0 } else { POLLOUT };
        read | write
    }
}

/// The frame at the front of a byte slice.
enum FramePoll {
    /// A full frame whose payload is this many bytes, after the 4-byte
    /// header.
    Ready(usize),
    /// Not enough bytes yet.
    Pending,
    /// The header declares more than [`MAX_FRAME_BYTES`]; the stream can
    /// never re-align to a frame boundary.
    Oversized(usize),
}

fn next_frame(bytes: &[u8]) -> FramePoll {
    let Some(header) = bytes.first_chunk::<4>() else {
        return FramePoll::Pending;
    };
    let len = u32::from_be_bytes(*header) as usize;
    if len > MAX_FRAME_BYTES {
        return FramePoll::Oversized(len);
    }
    if bytes.len() < 4 + len {
        return FramePoll::Pending;
    }
    FramePoll::Ready(len)
}

fn reactor_loop(state: &State, listener: &TcpListener, me: usize) {
    let _guard = state.install_trace();
    let slot = &state.reactors[me];
    let accepted_metric = format!("serve.reactor.{me}.accepted");
    let mut conns: Vec<Conn> = Vec::new();
    let mut fds: Vec<PollFd> = Vec::new();
    // Set after a failed accept: no accept is tried before this instant.
    let mut accept_retry: Option<Instant> = None;
    loop {
        if state.shutting_down() {
            drain_conns(&mut conns);
            return;
        }
        if accept_retry.is_some_and(|t| Instant::now() >= t) {
            accept_retry = None;
        }
        let holds_turn = state.accept_turn.load(Ordering::SeqCst) == me;
        let mut progress = false;
        if holds_turn && accept_retry.is_none() {
            match accept_one(listener) {
                Ok(Some(conn)) => {
                    conns.push(conn);
                    state.metrics.counter_add(&accepted_metric, 1);
                    state.pass_accept_turn(me, conns.len());
                    progress = true;
                }
                Ok(None) => {}
                Err(_) => {
                    state.metrics.counter_add("serve.accept_errors", 1);
                    accept_retry = Some(Instant::now() + ERROR_BACKOFF);
                }
            }
        }
        let mut i = 0;
        while i < conns.len() {
            if service_conn(state, &mut conns[i], &mut progress) {
                i += 1;
            } else {
                conns.swap_remove(i);
            }
        }
        slot.conns.store(conns.len(), Ordering::Relaxed);
        if !progress {
            fds.clear();
            fds.push(PollFd::new(&slot.wake_rx, POLLIN));
            if holds_turn && accept_retry.is_none() {
                fds.push(PollFd::new(listener, POLLIN));
            }
            fds.extend(conns.iter().map(|c| PollFd::new(&c.stream, c.interest())));
            let timeout = accept_retry.map(|t| t.saturating_duration_since(Instant::now()));
            if crate::poll::wait(&mut fds, timeout).is_err() {
                state.metrics.counter_add("serve.poll_errors", 1);
                std::thread::sleep(ERROR_BACKOFF);
            }
            slot.drain_wakes();
        }
    }
}

/// Takes one connection from the listener, if one is waiting. An error
/// other than `WouldBlock` or `Interrupted` is returned for the caller
/// to back off from: running out of descriptors, say, leaves the
/// connection queued and the listener readable.
fn accept_one(listener: &TcpListener) -> std::io::Result<Option<Conn>> {
    match listener.accept() {
        Ok((stream, _)) => {
            let _ = stream.set_nodelay(true);
            Ok(stream
                .set_nonblocking(true)
                .is_ok()
                .then(|| Conn::new(stream)))
        }
        Err(e) if matches!(e.kind(), IoKind::WouldBlock | IoKind::Interrupted) => Ok(None),
        Err(e) => Err(e),
    }
}

/// One reactor pass over one connection: read what's there, answer every
/// complete frame, flush what the socket takes. Returns `false` when the
/// connection is finished and should be dropped.
fn service_conn(state: &State, conn: &mut Conn, progress: &mut bool) -> bool {
    let mut eof = false;
    if !conn.close_after_flush {
        let mut buf = [0u8; 16 * 1024];
        loop {
            match conn.stream.read(&mut buf) {
                Ok(0) => {
                    eof = true;
                    break;
                }
                Ok(n) => {
                    conn.read_buf.extend_from_slice(&buf[..n]);
                    *progress = true;
                    if n < buf.len() {
                        break;
                    }
                }
                Err(e) if e.kind() == IoKind::WouldBlock => break,
                Err(e) if e.kind() == IoKind::Interrupted => {}
                Err(_) => return false,
            }
        }
    }
    // Decode and dispatch every complete frame already buffered — this is
    // the pipelining path: a client that wrote N requests back-to-back
    // gets all N answered in order from one pass. Payloads are borrowed
    // in place; the consumed prefix is dropped once, after the loop.
    let mut pos = 0;
    while !conn.close_after_flush {
        match next_frame(&conn.read_buf[pos..]) {
            FramePoll::Pending => break,
            FramePoll::Oversized(n) => {
                let resp = err(
                    ErrorKind::Oversized,
                    format!("{n}-byte frame exceeds the cap"),
                );
                queue_response(state, &mut conn.write_buf, WireCodec::Json, &resp);
                conn.close_after_flush = true;
                *progress = true;
            }
            FramePoll::Ready(len) => {
                let payload = &conn.read_buf[pos + 4..pos + 4 + len];
                pos += 4 + len;
                if handle_frame(state, &mut conn.write_buf, payload) {
                    conn.close_after_flush = true;
                }
                *progress = true;
            }
        }
    }
    conn.read_buf.drain(..pos);
    if !flush_conn(conn, progress) {
        return false;
    }
    if conn.close_after_flush {
        return !conn.write_drained();
    }
    if eof {
        // The peer half-closed; answer what was buffered, then go.
        conn.close_after_flush = true;
        return !conn.write_drained();
    }
    true
}

/// Pushes buffered bytes into the socket without blocking. Returns
/// `false` on a dead socket.
fn flush_conn(conn: &mut Conn, progress: &mut bool) -> bool {
    while conn.write_pos < conn.write_buf.len() {
        match conn.stream.write(&conn.write_buf[conn.write_pos..]) {
            Ok(0) => return false,
            Ok(n) => {
                conn.write_pos += n;
                *progress = true;
            }
            Err(e) if e.kind() == IoKind::WouldBlock => break,
            Err(e) if e.kind() == IoKind::Interrupted => {}
            Err(_) => return false,
        }
    }
    if conn.write_drained() && !conn.write_buf.is_empty() {
        conn.write_buf.clear();
        conn.write_pos = 0;
    }
    true
}

/// Encodes `resp` in `codec` and appends it to a connection's write
/// buffer. A response too large for a frame degrades to a typed
/// `internal` error in the same codec rather than killing the stream.
fn queue_response(state: &State, write_buf: &mut Vec<u8>, codec: WireCodec, resp: &Response) {
    let t_write = Instant::now();
    let payload = codec.encode_response(resp).unwrap_or_else(|_| {
        codec
            .encode_response(&err(ErrorKind::Internal, "response exceeded the frame cap"))
            .expect("a short error encodes")
    });
    append_frame(write_buf, &payload).expect("payload is under the cap");
    state
        .metrics
        .record_timing("serve.phase.write", t_write.elapsed());
}

/// Decodes, dispatches, and answers one frame, in the codec it arrived in.
/// Returns whether the connection should close once the answer is sent.
fn handle_frame(state: &State, write_buf: &mut Vec<u8>, payload: &[u8]) -> bool {
    ril_trace::counter("serve.requests", 1);
    state.requests.fetch_add(1, Ordering::Relaxed);
    state.metrics.counter_add("serve.requests", 1);
    let t_decode = Instant::now();
    let decoded =
        WireCodec::sniff(payload).and_then(|codec| Ok((codec, codec.decode_request(payload)?)));
    state
        .metrics
        .record_timing("serve.phase.decode", t_decode.elapsed());
    let (codec, resp, close) = match decoded {
        Ok((codec, req)) => {
            let (resp, close) = dispatch(state, req);
            (codec, resp, close)
        }
        // Framing is still aligned (the length prefix was valid), so a
        // malformed payload answers a typed error and keeps the stream.
        Err(e) => (
            WireCodec::Json,
            err(ErrorKind::Malformed, e.to_string()),
            false,
        ),
    };
    queue_response(state, write_buf, codec, &resp);
    close
}

/// Shutdown path: tell every remaining peer the service is draining,
/// give the sockets a short grace window to take the bytes, and drop.
fn drain_conns(conns: &mut Vec<Conn>) {
    let bye = Response::Error {
        kind: ErrorKind::ShuttingDown,
        message: "server is shutting down".to_string(),
    };
    let payload = WireCodec::Json
        .encode_response(&bye)
        .expect("a short error encodes");
    for conn in conns.iter_mut() {
        if !conn.close_after_flush {
            let _ = append_frame(&mut conn.write_buf, &payload);
        }
    }
    let deadline = Instant::now() + Duration::from_millis(500);
    loop {
        let mut pending = false;
        for conn in conns.iter_mut() {
            let mut progress = false;
            if !conn.write_drained() && flush_conn(conn, &mut progress) && !conn.write_drained() {
                pending = true;
            }
        }
        if !pending || Instant::now() >= deadline {
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    conns.clear();
}

fn err(kind: ErrorKind, message: impl Into<String>) -> Response {
    Response::Error {
        kind,
        message: message.into(),
    }
}

/// Routes one parsed request. Returns the response and whether the
/// connection should close afterwards.
fn dispatch(state: &State, req: Request) -> (Response, bool) {
    match req {
        Request::Hello { version, codecs } => {
            let n = Negotiation::choose(version, &codecs);
            (
                Response::Hello {
                    version: n.version,
                    codec: n.codec.name().to_string(),
                },
                false,
            )
        }
        Request::Activate { design } => {
            let resp = match activate(state, &design) {
                Ok(resp) => resp,
                Err(msg) => err(ErrorKind::Internal, msg),
            };
            (resp, false)
        }
        Request::Query { chip, inputs } => (query(state, chip, &[inputs], false), false),
        Request::QueryBatch { chip, patterns } => (query(state, chip, &patterns, true), false),
        Request::Morph { chip } => (morph(state, chip), false),
        Request::Stats => (stats(state), false),
        Request::Shutdown => {
            state.begin_shutdown();
            (Response::Bye, true)
        }
    }
}

/// Builds and hosts a chip. The expensive lock + compile happens outside
/// any shard lock.
fn activate(state: &State, design: &DesignSpec) -> Result<Response, String> {
    let locked = design.build()?;
    let oracle = Oracle::new(&locked).map_err(|e| format!("oracle build failed: {e}"))?;
    let id = state.next_chip.fetch_add(1, Ordering::Relaxed);
    let chip = HostedChip {
        rng: StdRng::seed_from_u64(design.seed ^ MORPH_SEED_SALT),
        queries: 0,
        morphs: 0,
        generation: 0,
        since_morph: 0,
        last_morph: Instant::now(),
        metric_names: ChipMetricNames::new(id),
        oracle,
        locked,
    };
    let inputs = chip.oracle.input_width();
    let outputs = chip.oracle.output_width();
    let key_bits = chip.locked.keys.bits().len();
    state.shard(id).lock().expect("chip shard").insert(id, chip);
    Ok(Response::Activated {
        chip: id,
        generation: 0,
        inputs,
        outputs,
        key_bits,
    })
}

/// Answers `patterns` against a hosted chip. `batch` selects the wire
/// shape: a `query_batch` request always gets a [`Response::Batch`] (even
/// with one lane), a `query` always gets [`Response::Outputs`].
///
/// The chip's shard lock is held for the whole request, so a morph can
/// never land mid-block: every lane is answered under one generation, the
/// one reported in the response. Query budgets count individual patterns,
/// and a query-count morph fires only after the full batch is accounted.
fn query(state: &State, chip_id: u64, patterns: &[Vec<bool>], batch: bool) -> Response {
    let t0 = Instant::now();
    let mut shard = state.shard(chip_id).lock().expect("chip shard");
    let Some(chip) = shard.get_mut(&chip_id) else {
        return err(ErrorKind::UnknownChip, format!("no chip {chip_id}"));
    };
    if let Some(limit) = state.cfg.query_limit {
        if chip.queries + patterns.len() as u64 > limit {
            return err(
                ErrorKind::RateLimited,
                format!("chip {chip_id} exhausted its {limit}-query budget"),
            );
        }
    }
    let width = chip.oracle.input_width();
    // Validate every row before packing: `PatternBlock::pack` panics on
    // ragged input, and a malformed request must not bring a reactor down.
    for pattern in patterns {
        if pattern.len() != width {
            return err(
                ErrorKind::BadWidth,
                format!("chip {chip_id} takes {width} inputs, got {}", pattern.len()),
            );
        }
    }
    if patterns.is_empty() {
        return err(ErrorKind::Malformed, "query_batch carried no patterns");
    }
    let mut rows = Vec::with_capacity(patterns.len());
    let mut blocks = 0u64;
    if batch {
        // Lane-packed: each 64-pattern chunk is one bitslice pass.
        for chunk in patterns.chunks(MAX_LANES) {
            rows.extend(chip.oracle.query_block(&PatternBlock::pack(chunk)).unpack());
            blocks += 1;
        }
    } else {
        rows.push(chip.oracle.query(&patterns[0]));
        blocks = 1;
    }
    chip.queries += patterns.len() as u64;
    chip.since_morph += patterns.len() as u64;
    // One successful query/query_batch request = exactly one
    // `serve.queries` increment and one `serve.query.latency` sample —
    // the counter and the histogram count stay equal by construction
    // (CI's stats-consistency assertion). The eval wall excludes the
    // trailing scheduled morph, which books under `serve.phase.morph`.
    let eval = t0.elapsed();
    state.metrics.counter_add("serve.queries", 1);
    state
        .metrics
        .counter_add("serve.query.patterns", patterns.len() as u64);
    state.metrics.record_timing("serve.phase.eval", eval);
    state.metrics.record_timing("serve.query.latency", eval);
    let names = &chip.metric_names;
    state.metrics.record_timing(&names.latency, eval);
    state
        .metrics
        .counter_add(&names.patterns, patterns.len() as u64);
    state.metrics.counter_add(&names.blocks, blocks);
    // The response reports the generation the answers were produced
    // under; a query-count morph fires after, never mid-batch.
    let generation = chip.generation;
    if let Some(k) = state.cfg.morph_queries {
        if chip.since_morph >= k {
            do_morph(&state.metrics, chip);
        }
    }
    if batch {
        Response::Batch { rows, generation }
    } else {
        Response::Outputs {
            bits: rows.pop().expect("one row"),
            generation,
        }
    }
}

fn morph(state: &State, chip_id: u64) -> Response {
    let mut shard = state.shard(chip_id).lock().expect("chip shard");
    let Some(chip) = shard.get_mut(&chip_id) else {
        return err(ErrorKind::UnknownChip, format!("no chip {chip_id}"));
    };
    let (report, delta) = do_morph(&state.metrics, chip);
    Response::Morphed {
        generation: chip.generation,
        bits_changed: report.bits_changed as u64,
        changed_bits: delta.changed_bits().to_vec(),
    }
}

fn stats(state: &State) -> Response {
    let requests = state.requests.load(Ordering::Relaxed);
    // qps since the previous poll: the polling client (e.g. `rilock
    // top`) gets a live rate without differencing counters itself. The
    // stats request that asks was already counted, so it is included.
    let now = Instant::now();
    let qps = {
        let mut last = state.last_poll.lock().expect("poll state");
        let dt = now.duration_since(last.0).as_secs_f64();
        let delta = requests.saturating_sub(last.1);
        *last = (now, requests);
        if dt > 0.0 {
            delta as f64 / dt
        } else {
            0.0
        }
    };
    // One shard at a time — chips keep answering on other shards while
    // the snapshot walks. The merged list is re-sorted by chip id so the
    // wire shape is identical to the single-table era.
    let mut chips: Vec<ChipStats> = Vec::new();
    for shard in &state.shards {
        let shard = shard.lock().expect("chip shard");
        chips.extend(shard.iter().map(|(&chip, c)| ChipStats {
            chip,
            queries: c.queries,
            morphs: c.morphs,
            generation: c.generation,
        }));
    }
    chips.sort_by_key(|c| c.chip);
    Response::Stats(ServerStats {
        requests,
        uptime_s: state.started.elapsed().as_secs_f64(),
        qps,
        chips,
        metrics: state.metrics.snapshot(),
    })
}
