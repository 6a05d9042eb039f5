//! Frame codecs: how a [`Request`]/[`Response`] becomes the payload of a
//! length-prefixed frame, and how the two sides agree on which encoding a
//! connection speaks.
//!
//! Two codecs implement the [`Codec`] trait:
//!
//! * [`JsonCodec`] — the original wire format (UTF-8 JSON payloads),
//!   kept as the negotiated fallback so pre-codec clients and servers
//!   interoperate forever.
//! * [`BinCodec`] — a compact binary encoding (magic `0xB1`, version,
//!   opcode, little-endian fixed-width integers, bit-packed patterns).
//!   A 64-pattern `QueryBatch` over a 64-input chip is ~530 bytes on the
//!   wire instead of ~4.3 KiB of JSON, and decodes without touching a
//!   recursive-descent parser.
//!
//! The two are distinguishable *per frame*: a JSON payload always starts
//! with `{` (0x7B) and a binary payload always starts with [`BIN_MAGIC`]
//! (0xB1, not valid JSON). [`WireCodec::sniff`] is therefore total over
//! well-formed traffic, and the server simply answers every frame in the
//! codec it arrived in — a JSON-only client talking to a new server (or
//! a new client that fell back to JSON against an old server) degrades
//! gracefully without either side tracking connection modes.
//!
//! Negotiation rides the `hello` op (DESIGN.md §16): a new client's first
//! request on a connection is a JSON-encoded [`Request::Hello`] listing
//! the codecs it speaks; a new server answers [`Response::Hello`] naming
//! the one it chose (binary whenever both sides can), an old server
//! answers a typed `malformed` error ("unknown op"), which the client
//! treats as "JSON only". See [`Negotiation`].

use crate::protocol::{FrameError, Request, Response, MAX_FRAME_BYTES};
use ril_netlist::pattern::{pack_row, unpack_row};
use std::io::{Read, Write};

/// The protocol version carried in the `hello` exchange. Bump when the
/// binary layout changes incompatibly; a server always answers with
/// `min(client_version, PROTOCOL_VERSION)`.
pub const PROTOCOL_VERSION: u32 = 1;

/// First payload byte of every binary frame. 0xB1 is not valid UTF-8
/// JSON document start, so it cannot collide with [`JsonCodec`] traffic.
pub const BIN_MAGIC: u8 = 0xB1;

/// Reads one length-prefixed frame payload as raw bytes.
///
/// # Errors
///
/// [`FrameError::Closed`] on clean EOF, [`FrameError::Truncated`] on a
/// mid-frame disconnect, [`FrameError::Oversized`] when the header
/// declares more than [`MAX_FRAME_BYTES`] (the body is *not* read).
pub fn read_frame_bytes(r: &mut impl Read) -> Result<Vec<u8>, FrameError> {
    let mut header = [0u8; 4];
    let mut got = 0;
    while got < 4 {
        match r.read(&mut header[got..]) {
            Ok(0) if got == 0 => return Err(FrameError::Closed),
            Ok(0) => return Err(FrameError::Truncated),
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    let len = u32::from_be_bytes(header) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(FrameError::Oversized(len));
    }
    let mut body = vec![0u8; len];
    match r.read_exact(&mut body) {
        Ok(()) => Ok(body),
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => Err(FrameError::Truncated),
        Err(e) => Err(FrameError::Io(e)),
    }
}

/// Writes one length-prefixed frame payload.
///
/// # Errors
///
/// [`FrameError::Oversized`] when `payload` exceeds [`MAX_FRAME_BYTES`];
/// otherwise propagates I/O failures.
pub fn write_frame_bytes(w: &mut impl Write, payload: &[u8]) -> Result<(), FrameError> {
    // One write for header and payload: on a no-delay socket two writes
    // would send the 4-byte header as a segment of its own.
    let mut frame = Vec::with_capacity(4 + payload.len());
    append_frame(&mut frame, payload)?;
    w.write_all(&frame).map_err(FrameError::Io)?;
    w.flush().map_err(FrameError::Io)
}

/// Appends a frame (header + payload) to an in-memory buffer — the
/// event-driven server's write path, where the socket write happens later
/// and nonblocking.
///
/// # Errors
///
/// [`FrameError::Oversized`] when `payload` exceeds [`MAX_FRAME_BYTES`].
pub fn append_frame(buf: &mut Vec<u8>, payload: &[u8]) -> Result<(), FrameError> {
    if payload.len() > MAX_FRAME_BYTES {
        return Err(FrameError::Oversized(payload.len()));
    }
    buf.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    buf.extend_from_slice(payload);
    Ok(())
}

/// A frame payload encoding. Implementations are stateless and cheap to
/// copy; the per-connection state (which codec was negotiated) lives in
/// [`WireCodec`].
pub trait Codec {
    /// The wire token this codec negotiates under (`"json"` / `"bin"`).
    fn name(&self) -> &'static str;

    /// Encodes a request into a frame payload.
    ///
    /// # Errors
    ///
    /// [`FrameError::Oversized`] when the encoding exceeds the frame cap.
    fn encode_request(&self, req: &Request) -> Result<Vec<u8>, FrameError>;

    /// Decodes a frame payload into a request.
    ///
    /// # Errors
    ///
    /// [`FrameError::Malformed`] for anything that is not a well-formed
    /// request in this codec. Never panics, whatever the bytes.
    fn decode_request(&self, payload: &[u8]) -> Result<Request, FrameError>;

    /// Encodes a response into a frame payload.
    ///
    /// # Errors
    ///
    /// [`FrameError::Oversized`] when the encoding exceeds the frame cap.
    fn encode_response(&self, resp: &Response) -> Result<Vec<u8>, FrameError>;

    /// Decodes a frame payload into a response.
    ///
    /// # Errors
    ///
    /// [`FrameError::Malformed`] for anything that is not a well-formed
    /// response in this codec. Never panics, whatever the bytes.
    fn decode_response(&self, payload: &[u8]) -> Result<Response, FrameError>;
}

/// The original JSON payload encoding (see [`crate::protocol`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JsonCodec;

impl Codec for JsonCodec {
    fn name(&self) -> &'static str {
        "json"
    }

    fn encode_request(&self, req: &Request) -> Result<Vec<u8>, FrameError> {
        sized(req.to_json().into_bytes())
    }

    fn decode_request(&self, payload: &[u8]) -> Result<Request, FrameError> {
        let text = std::str::from_utf8(payload)
            .map_err(|e| FrameError::Malformed(format!("non-UTF8 JSON frame: {e}")))?;
        Request::parse(text).map_err(FrameError::Malformed)
    }

    fn encode_response(&self, resp: &Response) -> Result<Vec<u8>, FrameError> {
        sized(resp.to_json().into_bytes())
    }

    fn decode_response(&self, payload: &[u8]) -> Result<Response, FrameError> {
        let text = std::str::from_utf8(payload)
            .map_err(|e| FrameError::Malformed(format!("non-UTF8 JSON frame: {e}")))?;
        Response::parse(text).map_err(FrameError::Malformed)
    }
}

/// The compact binary payload encoding. Byte layout in DESIGN.md §16:
/// `[0xB1][version u8][opcode u8][body…]`, little-endian integers,
/// length-prefixed strings, bit vectors packed 8-per-byte LSB-first.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BinCodec;

// Request opcodes (high bit clear).
const OP_HELLO: u8 = 0x01;
const OP_ACTIVATE: u8 = 0x02;
const OP_QUERY: u8 = 0x03;
const OP_QUERY_BATCH: u8 = 0x04;
const OP_MORPH: u8 = 0x05;
const OP_STATS: u8 = 0x06;
const OP_SHUTDOWN: u8 = 0x07;

// Response opcodes (high bit set).
const RE_HELLO: u8 = 0x81;
const RE_ACTIVATED: u8 = 0x82;
const RE_OUTPUTS: u8 = 0x83;
const RE_BATCH: u8 = 0x84;
const RE_MORPHED: u8 = 0x85;
const RE_STATS: u8 = 0x86;
const RE_BYE: u8 = 0x87;
const RE_ERROR: u8 = 0x88;

pub(crate) fn sized(bytes: Vec<u8>) -> Result<Vec<u8>, FrameError> {
    if bytes.len() > MAX_FRAME_BYTES {
        return Err(FrameError::Oversized(bytes.len()));
    }
    Ok(bytes)
}

pub(crate) fn header(opcode: u8) -> Vec<u8> {
    vec![BIN_MAGIC, 1, opcode]
}

pub(crate) fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

/// Bit vectors go out as a u32 bit count + `ceil(n/8)` bytes, bit `i` at
/// byte `i/8`, position `i%8` (LSB-first). Pad bits are zero. The bits
/// are packed into 64-bit words (`words` is scratch) whose little-endian
/// bytes are exactly that layout, truncated to the byte count.
fn put_bits(out: &mut Vec<u8>, words: &mut Vec<u64>, bits: &[bool]) {
    put_u32(out, bits.len() as u32);
    words.clear();
    pack_row(bits, words);
    let end = out.len() + bits.len().div_ceil(8);
    for word in words.iter() {
        out.extend_from_slice(&word.to_le_bytes());
    }
    out.truncate(end);
}

/// A bounds-checked reader over a binary frame body. Every accessor
/// validates the remaining length before touching (or allocating for)
/// the bytes, so a hostile length field cannot panic or balloon memory —
/// the payload itself is already capped at [`MAX_FRAME_BYTES`].
pub(crate) struct Cur<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Scratch for [`Cur::bits`]: one bit vector's bytes as words.
    words: Vec<u64>,
}

impl<'a> Cur<'a> {
    fn new(bytes: &'a [u8]) -> Cur<'a> {
        Cur {
            bytes,
            pos: 0,
            words: Vec::new(),
        }
    }

    fn bad(&self, what: &str) -> FrameError {
        FrameError::Malformed(format!(
            "binary frame truncated or invalid at byte {}: {what}",
            self.pos
        ))
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], FrameError> {
        if self.bytes.len() - self.pos < n {
            return Err(self.bad(what));
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub(crate) fn u8(&mut self, what: &str) -> Result<u8, FrameError> {
        Ok(self.take(1, what)?[0])
    }

    pub(crate) fn u32(&mut self, what: &str) -> Result<u32, FrameError> {
        Ok(u32::from_le_bytes(
            self.take(4, what)?.try_into().expect("4"),
        ))
    }

    pub(crate) fn u64(&mut self, what: &str) -> Result<u64, FrameError> {
        Ok(u64::from_le_bytes(
            self.take(8, what)?.try_into().expect("8"),
        ))
    }

    pub(crate) fn str_(&mut self, what: &str) -> Result<String, FrameError> {
        let len = self.u32(what)? as usize;
        let bytes = self.take(len, what)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|e| FrameError::Malformed(format!("non-UTF8 string in `{what}`: {e}")))
    }

    fn bits(&mut self, what: &str) -> Result<Vec<bool>, FrameError> {
        let n = self.u32(what)? as usize;
        let bytes = self.take(n.div_ceil(8), what)?;
        // Little-endian byte loads put bit `i` at word `i/64`, position
        // `i%64`; pad bits past `n` are dropped by the unpack.
        self.words.clear();
        self.words.extend(bytes.chunks(8).map(|chunk| {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            u64::from_le_bytes(word)
        }));
        Ok(unpack_row(&self.words, n))
    }

    /// Rejects trailing garbage after a fully-decoded body.
    pub(crate) fn finish(&self) -> Result<(), FrameError> {
        if self.pos != self.bytes.len() {
            return Err(FrameError::Malformed(format!(
                "{} trailing byte(s) after the binary frame body",
                self.bytes.len() - self.pos
            )));
        }
        Ok(())
    }
}

/// Checks magic + version and returns the opcode and a body cursor.
pub(crate) fn bin_header<'a>(payload: &'a [u8]) -> Result<(u8, Cur<'a>), FrameError> {
    let mut cur = Cur::new(payload);
    if cur.u8("magic")? != BIN_MAGIC {
        return Err(FrameError::Malformed("missing binary magic 0xB1".into()));
    }
    let version = cur.u8("version")?;
    if version != 1 {
        return Err(FrameError::Malformed(format!(
            "unsupported binary frame version {version}"
        )));
    }
    let opcode = cur.u8("opcode")?;
    Ok((opcode, cur))
}

impl Codec for BinCodec {
    fn name(&self) -> &'static str {
        "bin"
    }

    fn encode_request(&self, req: &Request) -> Result<Vec<u8>, FrameError> {
        let mut out = match req {
            Request::Hello { version, codecs } => {
                let mut out = header(OP_HELLO);
                put_u32(&mut out, *version);
                put_u32(&mut out, codecs.len() as u32);
                for c in codecs {
                    put_str(&mut out, c);
                }
                out
            }
            Request::Activate { design } => {
                let mut out = header(OP_ACTIVATE);
                put_str(&mut out, &design.benchmark);
                put_str(&mut out, &design.spec);
                put_u64(&mut out, design.blocks as u64);
                put_u64(&mut out, design.seed);
                out.push(design.scan as u8);
                out.push(design.zero_se as u8);
                out
            }
            Request::Query { chip, inputs } => {
                let mut out = header(OP_QUERY);
                put_u64(&mut out, *chip);
                put_bits(&mut out, &mut Vec::new(), inputs);
                out
            }
            Request::QueryBatch { chip, patterns } => {
                let mut out = header(OP_QUERY_BATCH);
                put_u64(&mut out, *chip);
                put_u32(&mut out, patterns.len() as u32);
                let mut words = Vec::new();
                for p in patterns {
                    put_bits(&mut out, &mut words, p);
                }
                out
            }
            Request::Morph { chip } => {
                let mut out = header(OP_MORPH);
                put_u64(&mut out, *chip);
                out
            }
            Request::Stats => header(OP_STATS),
            Request::Shutdown => header(OP_SHUTDOWN),
        };
        out.shrink_to_fit();
        sized(out)
    }

    fn decode_request(&self, payload: &[u8]) -> Result<Request, FrameError> {
        let (opcode, mut cur) = bin_header(payload)?;
        let req = match opcode {
            OP_HELLO => {
                let version = cur.u32("hello.version")?;
                let n = cur.u32("hello.codecs")? as usize;
                let mut codecs = Vec::new();
                for _ in 0..n {
                    codecs.push(cur.str_("hello.codec")?);
                }
                Request::Hello { version, codecs }
            }
            OP_ACTIVATE => Request::Activate {
                design: crate::protocol::DesignSpec {
                    benchmark: cur.str_("activate.benchmark")?,
                    spec: cur.str_("activate.spec")?,
                    blocks: cur.u64("activate.blocks")? as usize,
                    seed: cur.u64("activate.seed")?,
                    scan: cur.u8("activate.scan")? != 0,
                    zero_se: cur.u8("activate.zero_se")? != 0,
                },
            },
            OP_QUERY => Request::Query {
                chip: cur.u64("query.chip")?,
                inputs: cur.bits("query.inputs")?,
            },
            OP_QUERY_BATCH => {
                let chip = cur.u64("batch.chip")?;
                let n = cur.u32("batch.rows")? as usize;
                let mut patterns = Vec::new();
                for _ in 0..n {
                    patterns.push(cur.bits("batch.row")?);
                }
                Request::QueryBatch { chip, patterns }
            }
            OP_MORPH => Request::Morph {
                chip: cur.u64("morph.chip")?,
            },
            OP_STATS => Request::Stats,
            OP_SHUTDOWN => Request::Shutdown,
            other => {
                return Err(FrameError::Malformed(format!(
                    "unknown binary request opcode 0x{other:02x}"
                )))
            }
        };
        cur.finish()?;
        Ok(req)
    }

    fn encode_response(&self, resp: &Response) -> Result<Vec<u8>, FrameError> {
        let mut out = match resp {
            Response::Hello { version, codec } => {
                let mut out = header(RE_HELLO);
                put_u32(&mut out, *version);
                put_str(&mut out, codec);
                out
            }
            Response::Activated {
                chip,
                generation,
                inputs,
                outputs,
                key_bits,
            } => {
                let mut out = header(RE_ACTIVATED);
                put_u64(&mut out, *chip);
                put_u64(&mut out, *generation);
                put_u64(&mut out, *inputs as u64);
                put_u64(&mut out, *outputs as u64);
                put_u64(&mut out, *key_bits as u64);
                out
            }
            Response::Outputs { bits, generation } => {
                let mut out = header(RE_OUTPUTS);
                put_u64(&mut out, *generation);
                put_bits(&mut out, &mut Vec::new(), bits);
                out
            }
            Response::Batch { rows, generation } => {
                let mut out = header(RE_BATCH);
                put_u64(&mut out, *generation);
                put_u32(&mut out, rows.len() as u32);
                let mut words = Vec::new();
                for r in rows {
                    put_bits(&mut out, &mut words, r);
                }
                out
            }
            Response::Morphed {
                generation,
                bits_changed,
                changed_bits,
            } => {
                let mut out = header(RE_MORPHED);
                put_u64(&mut out, *generation);
                put_u64(&mut out, *bits_changed);
                put_u32(&mut out, changed_bits.len() as u32);
                for &b in changed_bits {
                    put_u64(&mut out, b as u64);
                }
                out
            }
            // Stats is the control plane's cold path and carries the
            // open-ended metrics registry; its body is the JSON encoding,
            // length-prefixed inside the binary envelope (DESIGN.md §16).
            Response::Stats(_) => {
                let mut out = header(RE_STATS);
                put_str(&mut out, &resp.to_json());
                out
            }
            Response::Bye => header(RE_BYE),
            Response::Error { kind, message } => {
                let mut out = header(RE_ERROR);
                put_str(&mut out, kind.as_str());
                put_str(&mut out, message);
                out
            }
        };
        out.shrink_to_fit();
        sized(out)
    }

    fn decode_response(&self, payload: &[u8]) -> Result<Response, FrameError> {
        let (opcode, mut cur) = bin_header(payload)?;
        let resp = match opcode {
            RE_HELLO => Response::Hello {
                version: cur.u32("hello.version")?,
                codec: cur.str_("hello.codec")?,
            },
            RE_ACTIVATED => Response::Activated {
                chip: cur.u64("activated.chip")?,
                generation: cur.u64("activated.generation")?,
                inputs: cur.u64("activated.inputs")? as usize,
                outputs: cur.u64("activated.outputs")? as usize,
                key_bits: cur.u64("activated.key_bits")? as usize,
            },
            RE_OUTPUTS => Response::Outputs {
                generation: cur.u64("outputs.generation")?,
                bits: cur.bits("outputs.bits")?,
            },
            RE_BATCH => {
                let generation = cur.u64("batch.generation")?;
                let n = cur.u32("batch.rows")? as usize;
                let mut rows = Vec::new();
                for _ in 0..n {
                    rows.push(cur.bits("batch.row")?);
                }
                Response::Batch { rows, generation }
            }
            RE_MORPHED => {
                let generation = cur.u64("morphed.generation")?;
                let bits_changed = cur.u64("morphed.bits_changed")?;
                let n = cur.u32("morphed.changed")? as usize;
                let mut changed_bits = Vec::new();
                for _ in 0..n {
                    changed_bits.push(cur.u64("morphed.bit")? as usize);
                }
                Response::Morphed {
                    generation,
                    bits_changed,
                    changed_bits,
                }
            }
            RE_STATS => {
                let json = cur.str_("stats.body")?;
                match Response::parse(&json).map_err(FrameError::Malformed)? {
                    stats @ Response::Stats(_) => stats,
                    other => {
                        return Err(FrameError::Malformed(format!(
                            "stats envelope carried a non-stats body: {other:?}"
                        )))
                    }
                }
            }
            RE_BYE => Response::Bye,
            RE_ERROR => {
                let kind = cur.str_("error.kind")?;
                let message = cur.str_("error.message")?;
                Response::Error {
                    kind: crate::protocol::ErrorKind::parse(&kind).ok_or_else(|| {
                        FrameError::Malformed(format!("unknown error kind `{kind}`"))
                    })?,
                    message,
                }
            }
            other => {
                return Err(FrameError::Malformed(format!(
                    "unknown binary response opcode 0x{other:02x}"
                )))
            }
        };
        cur.finish()?;
        Ok(resp)
    }
}

/// Which codec a connection (or a single frame) speaks. This is the
/// negotiated state the client stores per connection, and what the
/// server's per-frame sniff returns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireCodec {
    /// JSON payloads (the pre-negotiation wire format).
    Json,
    /// Compact binary payloads.
    Bin,
}

impl WireCodec {
    /// Identifies the codec of a frame payload from its first byte: `{`
    /// means JSON, [`BIN_MAGIC`] means binary.
    ///
    /// # Errors
    ///
    /// [`FrameError::Malformed`] for an empty payload or any other
    /// leading byte.
    pub fn sniff(payload: &[u8]) -> Result<WireCodec, FrameError> {
        match payload.first() {
            Some(b'{') => Ok(WireCodec::Json),
            Some(&BIN_MAGIC) => Ok(WireCodec::Bin),
            Some(b) => Err(FrameError::Malformed(format!(
                "frame starts with 0x{b:02x}: neither JSON nor binary"
            ))),
            None => Err(FrameError::Malformed("empty frame".into())),
        }
    }

    /// Parses a negotiation token (`"json"` / `"bin"`).
    pub fn parse(name: &str) -> Option<WireCodec> {
        match name {
            "json" => Some(WireCodec::Json),
            "bin" => Some(WireCodec::Bin),
            _ => None,
        }
    }
}

impl Codec for WireCodec {
    fn name(&self) -> &'static str {
        match self {
            WireCodec::Json => JsonCodec.name(),
            WireCodec::Bin => BinCodec.name(),
        }
    }

    fn encode_request(&self, req: &Request) -> Result<Vec<u8>, FrameError> {
        match self {
            WireCodec::Json => JsonCodec.encode_request(req),
            WireCodec::Bin => BinCodec.encode_request(req),
        }
    }

    fn decode_request(&self, payload: &[u8]) -> Result<Request, FrameError> {
        match self {
            WireCodec::Json => JsonCodec.decode_request(payload),
            WireCodec::Bin => BinCodec.decode_request(payload),
        }
    }

    fn encode_response(&self, resp: &Response) -> Result<Vec<u8>, FrameError> {
        match self {
            WireCodec::Json => JsonCodec.encode_response(resp),
            WireCodec::Bin => BinCodec.encode_response(resp),
        }
    }

    fn decode_response(&self, payload: &[u8]) -> Result<Response, FrameError> {
        match self {
            WireCodec::Json => JsonCodec.decode_response(payload),
            WireCodec::Bin => BinCodec.decode_response(payload),
        }
    }
}

/// The outcome of the `hello` exchange: which protocol version and codec
/// a connection settled on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Negotiation {
    /// `min(client, server)` protocol version.
    pub version: u32,
    /// The codec both sides will use from the next frame on.
    pub codec: WireCodec,
}

impl Negotiation {
    /// The server side: given a client hello, pick the best mutually
    /// supported codec (binary whenever offered, else JSON — an empty or
    /// all-unknown offer also lands on JSON, which every peer speaks).
    pub fn choose(client_version: u32, offered: &[String]) -> Negotiation {
        let codec = if offered.iter().any(|c| c == "bin") {
            WireCodec::Bin
        } else {
            WireCodec::Json
        };
        Negotiation {
            version: client_version.min(PROTOCOL_VERSION),
            codec,
        }
    }

    /// The pre-negotiation state: what a connection speaks before (or
    /// instead of) a successful hello — plain JSON, protocol version 0.
    pub fn json_fallback() -> Negotiation {
        Negotiation {
            version: 0,
            codec: WireCodec::Json,
        }
    }

    /// The client side: interprets a server's hello response. `None`
    /// when the named codec is unknown (a newer server misbehaving —
    /// the caller should fall back to JSON rather than guess).
    pub fn from_hello(version: u32, codec: &str) -> Option<Negotiation> {
        Some(Negotiation {
            version,
            codec: WireCodec::parse(codec)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{DesignSpec, ErrorKind};

    fn sample_requests() -> Vec<Request> {
        vec![
            Request::Hello {
                version: 1,
                codecs: vec!["bin".into(), "json".into()],
            },
            Request::Activate {
                design: DesignSpec {
                    benchmark: "adder:6".into(),
                    spec: "2x2".into(),
                    blocks: 2,
                    seed: 7,
                    scan: true,
                    zero_se: true,
                },
            },
            Request::Query {
                chip: 3,
                inputs: vec![true, false, true, true, false, false, true, false, true],
            },
            Request::QueryBatch {
                chip: 1,
                patterns: vec![vec![false, true], vec![true, true], vec![false; 8]],
            },
            Request::Morph { chip: 9 },
            Request::Stats,
            Request::Shutdown,
        ]
    }

    fn sample_responses() -> Vec<Response> {
        vec![
            Response::Hello {
                version: 1,
                codec: "bin".into(),
            },
            Response::Activated {
                chip: 1,
                generation: 0,
                inputs: 12,
                outputs: 7,
                key_bits: 24,
            },
            Response::Outputs {
                bits: vec![true, false, true],
                generation: 4,
            },
            Response::Batch {
                rows: vec![vec![true; 9], vec![false; 9]],
                generation: 2,
            },
            Response::Morphed {
                generation: 5,
                bits_changed: 11,
                changed_bits: vec![0, 3, 9],
            },
            Response::Bye,
            Response::Error {
                kind: ErrorKind::UnknownChip,
                message: "no chip 7".into(),
            },
        ]
    }

    #[test]
    fn binary_round_trips_every_shape() {
        for req in sample_requests() {
            let bytes = BinCodec.encode_request(&req).unwrap();
            assert_eq!(WireCodec::sniff(&bytes).unwrap(), WireCodec::Bin);
            assert_eq!(BinCodec.decode_request(&bytes).unwrap(), req);
        }
        for resp in sample_responses() {
            let bytes = BinCodec.encode_response(&resp).unwrap();
            assert_eq!(BinCodec.decode_response(&bytes).unwrap(), resp);
        }
    }

    #[test]
    fn json_and_binary_decode_the_same_values() {
        for req in sample_requests() {
            let j = JsonCodec.encode_request(&req).unwrap();
            let b = BinCodec.encode_request(&req).unwrap();
            assert_eq!(
                JsonCodec.decode_request(&j).unwrap(),
                BinCodec.decode_request(&b).unwrap()
            );
        }
    }

    #[test]
    fn binary_is_smaller_than_json_on_the_hot_ops() {
        let req = Request::QueryBatch {
            chip: 1,
            patterns: (0..64u64)
                .map(|i| (0..64).map(|b| (i >> b) & 1 == 1).collect())
                .collect(),
        };
        let j = JsonCodec.encode_request(&req).unwrap();
        let b = BinCodec.encode_request(&req).unwrap();
        assert!(
            b.len() * 4 < j.len(),
            "binary ({}) should be at least 4x smaller than JSON ({})",
            b.len(),
            j.len()
        );
    }

    #[test]
    fn truncated_binary_frames_are_typed_errors() {
        let full = BinCodec
            .encode_request(&Request::QueryBatch {
                chip: 7,
                patterns: vec![vec![true; 10]; 3],
            })
            .unwrap();
        for cut in 0..full.len() {
            match BinCodec.decode_request(&full[..cut]) {
                Err(FrameError::Malformed(_)) => {}
                other => panic!("prefix of {cut} bytes decoded to {other:?}"),
            }
        }
        // Trailing garbage is rejected too.
        let mut padded = full;
        padded.push(0);
        assert!(matches!(
            BinCodec.decode_request(&padded),
            Err(FrameError::Malformed(_))
        ));
    }

    #[test]
    fn hostile_length_fields_do_not_allocate_or_panic() {
        // A string length far past the payload end.
        let mut frame = header(OP_ACTIVATE);
        put_u32(&mut frame, u32::MAX);
        assert!(matches!(
            BinCodec.decode_request(&frame),
            Err(FrameError::Malformed(_))
        ));
        // A batch row count with no rows behind it.
        let mut frame = header(OP_QUERY_BATCH);
        put_u64(&mut frame, 1);
        put_u32(&mut frame, u32::MAX);
        assert!(matches!(
            BinCodec.decode_request(&frame),
            Err(FrameError::Malformed(_))
        ));
    }

    #[test]
    fn sniff_rejects_garbage() {
        assert!(WireCodec::sniff(b"").is_err());
        assert!(WireCodec::sniff(b"\x00abc").is_err());
        assert_eq!(WireCodec::sniff(b"{}").unwrap(), WireCodec::Json);
        assert_eq!(
            WireCodec::sniff(&[BIN_MAGIC, 1, 2]).unwrap(),
            WireCodec::Bin
        );
    }

    #[test]
    fn negotiation_picks_binary_when_offered() {
        let n = Negotiation::choose(1, &["bin".into(), "json".into()]);
        assert_eq!(n.codec, WireCodec::Bin);
        assert_eq!(n.version, 1);
        let n = Negotiation::choose(9, &["json".into()]);
        assert_eq!(n.codec, WireCodec::Json);
        assert_eq!(n.version, PROTOCOL_VERSION, "server caps the version");
        let n = Negotiation::choose(1, &["zstd-cbor".into()]);
        assert_eq!(n.codec, WireCodec::Json, "unknown offers fall back to JSON");
        assert_eq!(Negotiation::from_hello(1, "quic"), None);
    }

    #[test]
    fn frame_bytes_round_trip() {
        let mut buf = Vec::new();
        write_frame_bytes(&mut buf, &[BIN_MAGIC, 1, OP_STATS]).unwrap();
        let mut cursor = std::io::Cursor::new(buf);
        assert_eq!(
            read_frame_bytes(&mut cursor).unwrap(),
            vec![BIN_MAGIC, 1, OP_STATS]
        );
        assert!(matches!(
            read_frame_bytes(&mut cursor),
            Err(FrameError::Closed)
        ));
    }

    #[test]
    fn oversized_header_is_rejected_without_reading_the_body() {
        let mut buf = ((MAX_FRAME_BYTES + 1) as u32).to_be_bytes().to_vec();
        buf.extend_from_slice(b"xx");
        let mut cursor = std::io::Cursor::new(buf);
        assert!(matches!(
            read_frame_bytes(&mut cursor),
            Err(FrameError::Oversized(_))
        ));
    }

    #[test]
    fn truncated_frames_are_typed() {
        // Partial header.
        let mut cursor = std::io::Cursor::new(vec![0u8, 0]);
        assert!(matches!(
            read_frame_bytes(&mut cursor),
            Err(FrameError::Truncated)
        ));
        // Full header, partial body.
        let mut buf = 10u32.to_be_bytes().to_vec();
        buf.extend_from_slice(b"abc");
        let mut cursor = std::io::Cursor::new(buf);
        assert!(matches!(
            read_frame_bytes(&mut cursor),
            Err(FrameError::Truncated)
        ));
    }

    #[test]
    fn oversized_writes_are_refused() {
        let big = vec![b'x'; MAX_FRAME_BYTES + 1];
        let mut buf = Vec::new();
        assert!(matches!(
            write_frame_bytes(&mut buf, &big),
            Err(FrameError::Oversized(_))
        ));
        assert!(buf.is_empty(), "nothing may reach the wire");
    }
}
