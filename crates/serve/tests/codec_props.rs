//! Codec properties on *random* message values: the binary encoding
//! round-trips losslessly, JSON and binary decode to the same value, and
//! hostile frames (truncated, bit-flipped, garbage) always yield typed
//! [`FrameError`]s — never a panic, never a silent misparse.

use proptest::prelude::*;
use ril_serve::{
    BinCodec, Codec, DesignSpec, ErrorKind, JsonCodec, Request, Response, ServerStats,
};

/// Deterministic splitmix64 step for fanning one sampled seed into values.
fn splitmix(z: &mut u64) -> u64 {
    *z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut x = *z;
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

fn bits(z: &mut u64, n: usize) -> Vec<bool> {
    (0..n).map(|_| splitmix(z) & 1 == 1).collect()
}

/// Random strings mixing plain ASCII with every character the JSON
/// escaper has to handle specially.
fn text(z: &mut u64) -> String {
    const ALPHABET: &[char] = &[
        'a', 'B', '7', '_', ':', ' ', '"', '\\', '\n', '\t', '\r', '{', '}', '/', 'é', '≠',
    ];
    let len = (splitmix(z) % 24) as usize;
    (0..len)
        .map(|_| ALPHABET[(splitmix(z) as usize) % ALPHABET.len()])
        .collect()
}

fn request(z: &mut u64) -> Request {
    match splitmix(z) % 7 {
        0 => Request::Hello {
            version: (splitmix(z) % 16) as u32,
            codecs: (0..splitmix(z) % 4).map(|_| text(z)).collect(),
        },
        1 => Request::Activate {
            design: DesignSpec {
                benchmark: text(z),
                spec: text(z),
                blocks: (splitmix(z) % 8) as usize,
                seed: splitmix(z),
                scan: splitmix(z) & 1 == 1,
                zero_se: splitmix(z) & 1 == 1,
            },
        },
        2 => {
            let n = (splitmix(z) % 130) as usize;
            Request::Query {
                chip: splitmix(z),
                inputs: bits(z, n),
            }
        }
        3 => {
            let width = 1 + (splitmix(z) % 70) as usize;
            Request::QueryBatch {
                chip: splitmix(z),
                patterns: (0..1 + splitmix(z) % 64).map(|_| bits(z, width)).collect(),
            }
        }
        4 => Request::Morph { chip: splitmix(z) },
        5 => Request::Stats,
        _ => Request::Shutdown,
    }
}

fn response(z: &mut u64) -> Response {
    match splitmix(z) % 7 {
        0 => Response::Hello {
            version: (splitmix(z) % 16) as u32,
            codec: text(z),
        },
        1 => Response::Activated {
            chip: splitmix(z),
            generation: splitmix(z),
            inputs: (splitmix(z) % 200) as usize,
            outputs: (splitmix(z) % 200) as usize,
            key_bits: (splitmix(z) % 200) as usize,
        },
        2 => {
            let n = (splitmix(z) % 130) as usize;
            Response::Outputs {
                bits: bits(z, n),
                generation: splitmix(z),
            }
        }
        3 => {
            let rows = (0..splitmix(z) % 5)
                .map(|_| {
                    let n = 1 + (splitmix(z) % 40) as usize;
                    bits(z, n)
                })
                .collect();
            Response::Batch {
                rows,
                generation: splitmix(z),
            }
        }
        4 => Response::Morphed {
            generation: splitmix(z),
            bits_changed: splitmix(z),
            changed_bits: {
                let mut v: Vec<usize> = (0..splitmix(z) % 6)
                    .map(|_| (splitmix(z) % 500) as usize)
                    .collect();
                v.sort_unstable();
                v.dedup();
                v
            },
        },
        5 => Response::Bye,
        _ => Response::Error {
            kind: ErrorKind::Malformed,
            message: text(z),
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The binary codec is lossless on every message shape.
    #[test]
    fn binary_round_trips_random_messages(seed in any::<u64>()) {
        let mut z = seed;
        let req = request(&mut z);
        let wire = BinCodec.encode_request(&req).unwrap();
        prop_assert_eq!(BinCodec.decode_request(&wire).unwrap(), req);

        let resp = response(&mut z);
        let wire = BinCodec.encode_response(&resp).unwrap();
        prop_assert_eq!(BinCodec.decode_response(&wire).unwrap(), resp);
    }

    /// Both codecs decode to the *same* value: a request encoded as JSON
    /// and the same request encoded as binary are indistinguishable after
    /// decode, so a server can mix codecs per frame without behavior
    /// drift.
    #[test]
    fn json_and_binary_decode_equivalently(seed in any::<u64>()) {
        let mut z = seed;
        let req = request(&mut z);
        let via_json = JsonCodec.decode_request(&JsonCodec.encode_request(&req).unwrap()).unwrap();
        let via_bin = BinCodec.decode_request(&BinCodec.encode_request(&req).unwrap()).unwrap();
        prop_assert_eq!(&via_json, &req);
        prop_assert_eq!(&via_bin, &via_json);

        let resp = response(&mut z);
        let via_json =
            JsonCodec.decode_response(&JsonCodec.encode_response(&resp).unwrap()).unwrap();
        let via_bin = BinCodec.decode_response(&BinCodec.encode_response(&resp).unwrap()).unwrap();
        prop_assert_eq!(&via_json, &resp);
        prop_assert_eq!(&via_bin, &via_json);
    }

    /// Every strict prefix of a valid binary frame is a typed error —
    /// never a panic, never an accidental parse.
    #[test]
    fn truncated_binary_frames_are_typed_errors(seed in any::<u64>()) {
        let mut z = seed;
        let wire = BinCodec.encode_request(&request(&mut z)).unwrap();
        for cut in 0..wire.len() {
            prop_assert!(
                BinCodec.decode_request(&wire[..cut]).is_err(),
                "prefix of {} / {} bytes decoded",
                cut,
                wire.len()
            );
        }
        let wire = BinCodec.encode_response(&response(&mut z)).unwrap();
        for cut in 0..wire.len() {
            prop_assert!(BinCodec.decode_response(&wire[..cut]).is_err());
        }
    }

    /// Bit-flipped and appended bytes never panic the decoder: it either
    /// rejects with a typed error or decodes *some* well-formed value
    /// (a flip inside a payload bit is legitimately a different message).
    #[test]
    fn corrupted_binary_frames_never_panic(seed in any::<u64>()) {
        let mut z = seed;
        let mut wire = BinCodec.encode_request(&request(&mut z)).unwrap();
        // Trailing garbage is always rejected (the decoder demands the
        // cursor land exactly on the end).
        let mut padded = wire.clone();
        padded.extend_from_slice(&[0xFF, 0x00, 0xAB]);
        prop_assert!(BinCodec.decode_request(&padded).is_err());

        // A random byte flip must not panic; outcome may be either.
        let idx = (splitmix(&mut z) as usize) % wire.len();
        wire[idx] ^= (splitmix(&mut z) % 255 + 1) as u8;
        let _ = BinCodec.decode_request(&wire);

        // Pure garbage of random length is rejected.
        let garbage: Vec<u8> =
            (0..splitmix(&mut z) % 64).map(|_| (splitmix(&mut z) & 0xFF) as u8).collect();
        if garbage.first() != Some(&0x7B) {
            prop_assert!(BinCodec.decode_request(&garbage).is_err());
        }
    }
}

/// The stats response (control-plane cold path: binary carries the JSON
/// body) still round-trips and matches the JSON codec bit for bit.
#[test]
fn stats_responses_round_trip_in_both_codecs() {
    let resp = Response::Stats(ServerStats {
        requests: 1234,
        uptime_s: 5.25,
        qps: 301.5,
        chips: vec![ril_serve::ChipStats {
            chip: 1,
            queries: 99,
            morphs: 3,
            generation: 3,
        }],
        metrics: Default::default(),
    });
    let via_bin = BinCodec
        .decode_response(&BinCodec.encode_response(&resp).unwrap())
        .unwrap();
    let via_json = JsonCodec
        .decode_response(&JsonCodec.encode_response(&resp).unwrap())
        .unwrap();
    assert_eq!(via_bin, resp);
    assert_eq!(via_json, resp);
}

/// The per-bit decoder the byte-table codec replaced: bit `i` of a vector
/// is bit `i % 8` of byte `i / 8`.
fn reference_bits(bytes: &[u8], n: usize) -> Vec<bool> {
    (0..n).map(|i| bytes[i / 8] >> (i % 8) & 1 == 1).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The word-at-a-time bit decoder agrees with the per-bit reference on
    /// arbitrary bytes, including nonzero pad bits past the width, which
    /// are ignored.
    #[test]
    fn bit_vectors_decode_like_the_per_bit_reference(
        n in 0usize..301,
        seed in any::<u64>(),
    ) {
        let mut z = seed;
        let body: Vec<u8> = (0..n.div_ceil(8)).map(|_| splitmix(&mut z) as u8).collect();
        let mut frame = vec![0xB1, 1, 0x03];
        frame.extend_from_slice(&7u64.to_le_bytes());
        frame.extend_from_slice(&(n as u32).to_le_bytes());
        frame.extend_from_slice(&body);
        let decoded = BinCodec.decode_request(&frame).unwrap();
        prop_assert_eq!(
            decoded,
            Request::Query { chip: 7, inputs: reference_bits(&body, n) }
        );
    }
}

/// Hex of a byte string, for readable golden-frame mismatches.
fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// Frames pinned to the bytes the per-bit encoder produced: the packed
/// word encoder must not move a single bit or pad byte.
#[test]
fn binary_frames_match_golden_bytes() {
    let mut z = 0x601d_u64;
    let query = Request::Query {
        chip: 5,
        inputs: bits(&mut z, 13),
    };
    let batch = Request::QueryBatch {
        chip: 2,
        patterns: (0..64).map(|_| bits(&mut z, 19)).collect(),
    };
    let outputs = Response::Outputs {
        bits: bits(&mut z, 11),
        generation: 3,
    };
    let rows = Response::Batch {
        rows: (0..4).map(|_| bits(&mut z, 37)).collect(),
        generation: 9,
    };
    let golden_query = "b1010305000000000000000d0000008e19";
    let golden_batch = concat!(
        "b1010402000000000000004000000013000000e2820413000000d47e061300000011340613000000",
        "102903130000002cec0413000000e8c30313000000a1e1041300000083aa0213000000a18c051300",
        "0000f26d0413000000c09b021300000067bd04130000000cc10613000000a563071300000057ec03",
        "13000000b80f0613000000bca80213000000d3ce021300000009b3011300000022e7001300000018",
        "3c06130000000ef50113000000efd70513000000e3e70113000000c40e0513000000e43203130000",
        "00eb740313000000ca910313000000c520071300000006580013000000e3410213000000f7200613",
        "000000a1c406130000007512011300000030bf01130000009d0d0613000000bdee0213000000fa4d",
        "07130000009928041300000009ec0313000000f63e0013000000cbb10513000000a5730613000000",
        "75b3061300000048f5061300000098ca021300000025d40613000000efb7021300000033fe031300",
        "0000a4e90013000000e54c0613000000a33f0213000000444a03130000006fc70113000000672004",
        "1300000082f30113000000ad000413000000b2190213000000d2980013000000bd13021300000000",
        "9303130000002025011300000028820113000000bc0800",
    );
    let golden_outputs = "b1018303000000000000000b0000004e02";
    let golden_rows = concat!(
        "b1018409000000000000000400000025000000bf374e2d1525000000ee8884550e25000000651d7b",
        "9007250000001c2d94cf0a",
    );
    let cases = [
        (BinCodec.encode_request(&query).unwrap(), golden_query),
        (BinCodec.encode_request(&batch).unwrap(), golden_batch),
        (BinCodec.encode_response(&outputs).unwrap(), golden_outputs),
        (BinCodec.encode_response(&rows).unwrap(), golden_rows),
    ];
    for (wire, golden) in cases {
        assert_eq!(hex(&wire), golden);
    }
    // And the pinned bytes decode back to the values they were made from.
    assert_eq!(
        BinCodec.decode_request(&unhex(golden_query)).unwrap(),
        query
    );
    assert_eq!(
        BinCodec.decode_request(&unhex(golden_batch)).unwrap(),
        batch
    );
    assert_eq!(
        BinCodec.decode_response(&unhex(golden_outputs)).unwrap(),
        outputs
    );
    assert_eq!(BinCodec.decode_response(&unhex(golden_rows)).unwrap(), rows);
}

fn unhex(text: &str) -> Vec<u8> {
    (0..text.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&text[i..i + 2], 16).unwrap())
        .collect()
}
