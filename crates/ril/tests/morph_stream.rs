//! Pinned morph streams: a digest of every key, `MorphReport` and
//! `MorphDelta` over a long run of [`morph_all_delta`] calls at fixed
//! seeds.
//!
//! Morphing is deterministic given the lock seed and the morph RNG, so
//! the stream of stored keys is a fingerprint of every move: which pair
//! swaps fired, which output-banyan key was picked and from how many
//! candidates, and every Scan-Enable re-roll. A change to how the moves
//! are computed must leave these digests bit-identical; a change that
//! alters the stream on purpose must re-pin them and say so.
//!
//! The digests were recorded on the exhaustive-scan implementation of the
//! output re-route move (every output-banyan key of a block checked
//! through `BanyanNetwork::route`), before it was replaced by the
//! constructive enumeration, and pass unchanged on both.

use rand::rngs::StdRng;
use rand::SeedableRng;
use ril_core::{morph_all_delta, Obfuscator, RilBlockSpec};
use ril_netlist::generators;

/// Morph calls per stream.
const MORPHS: usize = 200;

/// Locks `generators::multiplier(6)` with `blocks` blocks of `spec` at
/// `lock_seed`, runs [`MORPHS`] morphs from `morph_seed`, and returns a
/// 64-bit FNV-1a digest of the stream plus the number of morphs that
/// re-routed an output banyan.
fn stream(spec: RilBlockSpec, blocks: usize, lock_seed: u64, morph_seed: u64) -> (u64, usize) {
    let host = generators::multiplier(6);
    let mut locked = Obfuscator::new(spec)
        .blocks(blocks)
        .seed(lock_seed)
        .obfuscate(&host)
        .expect("host has room for the blocks");
    let mut rng = StdRng::seed_from_u64(morph_seed);
    let mut words: Vec<usize> = locked.keys.bits().iter().map(|&b| usize::from(b)).collect();
    let mut rerouted = 0;
    for _ in 0..MORPHS {
        let (r, delta) = morph_all_delta(&mut locked, &mut rng);
        rerouted += r.output_rerouted;
        words.extend([
            r.pair_swaps,
            r.output_rerouted,
            r.complemented,
            r.se_rerolled,
        ]);
        words.extend([r.bits_changed, delta.len()]);
        words.extend(delta.changed_bits());
        words.extend(locked.keys.bits().iter().map(|&b| usize::from(b)));
    }
    assert!(locked.verify(16).unwrap(), "{spec}: morphed key is wrong");
    let digest = words
        .iter()
        .flat_map(|&w| (w as u64).to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325u64, |h, byte| {
            (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
        });
    (digest, rerouted)
}

#[test]
fn three_2x2_blocks_stream_is_pinned() {
    let (digest, rerouted) = stream(RilBlockSpec::size_2x2(), 3, 1, 101);
    assert_eq!((digest, rerouted), (17575498977966759010, 0));
}

#[test]
fn one_4x4x4_block_stream_is_pinned() {
    let spec = RilBlockSpec::parse("4x4x4").unwrap();
    let (digest, rerouted) = stream(spec, 1, 2, 202);
    assert_eq!((digest, rerouted), (10400485694198339978, 200));
}

#[test]
fn one_8x8x8_block_stream_is_pinned() {
    let (digest, rerouted) = stream(RilBlockSpec::size_8x8x8(), 1, 3, 303);
    assert_eq!((digest, rerouted), (6375860885838138182, 200));
}

#[test]
fn one_8x8x8_scan_block_stream_is_pinned() {
    let spec = RilBlockSpec::size_8x8x8().with_scan(true);
    let (digest, rerouted) = stream(spec, 1, 4, 404);
    assert_eq!((digest, rerouted), (8951226498104065684, 200));
}

/// Wider than 8 lines the re-route move samples random output keys
/// instead of enumerating them, so this stream also pins that branch's
/// RNG consumption.
#[test]
fn one_16x16x16_block_stream_is_pinned() {
    let spec = RilBlockSpec::parse("16x16x16").unwrap();
    let (digest, rerouted) = stream(spec, 1, 5, 505);
    assert_eq!((digest, rerouted), (7767657410344941083, 6));
}
