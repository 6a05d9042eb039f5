//! Property: the lane-packed batch path through the in-process oracle is
//! observationally identical to the classic one-pattern-at-a-time loop —
//! same responses, same chargeable `queries()` count, same memo behaviour
//! (`cache_hits()`), over random pattern lists spiced with duplicates
//! (both in-block repeats and warm repeats of previously-queried
//! patterns).

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use ril_attacks::{Oracle, OracleSource, PatternBlock, ResponseBlock, MAX_LANES, MEMO_CAP};
use ril_core::{LockedCircuit, Obfuscator, RilBlockSpec};
use ril_netlist::generators;

/// A deterministic splitmix64 step — the proptest-sampled seed fans out
/// into pattern bits without consuming more strategy entropy.
fn splitmix(z: &mut u64) -> u64 {
    *z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut x = *z;
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Random pattern list of `count` rows over `width` bits. Roughly a third
/// of the rows (past the first) are copies of earlier rows, so blocks
/// carry both in-block repeats and repeats across block boundaries.
fn patterns_with_dups(seed: u64, width: usize, count: usize) -> Vec<Vec<bool>> {
    let mut z = seed;
    let mut rows: Vec<Vec<bool>> = Vec::with_capacity(count);
    for i in 0..count {
        if i > 0 && splitmix(&mut z).is_multiple_of(3) {
            let j = (splitmix(&mut z) as usize) % rows.len();
            rows.push(rows[j].clone());
        } else {
            let row = (0..width)
                .map(|b| {
                    if b % 64 == 0 {
                        splitmix(&mut z);
                    }
                    (z >> (b % 64)) & 1 == 1
                })
                .collect();
            rows.push(row);
        }
    }
    rows
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn batched_oracle_matches_sequential_oracle(
        design_seed in 0u64..500,
        pattern_seed in any::<u64>(),
        count in 1usize..150,
        scan in any::<bool>(),
    ) {
        let host = generators::adder(6);
        let locked = Obfuscator::new(RilBlockSpec::size_2x2())
            .blocks(2)
            .scan_obfuscation(scan)
            .seed(design_seed)
            .obfuscate(&host)
            .unwrap();
        let rows = patterns_with_dups(pattern_seed, {
            let o = Oracle::new(&locked).unwrap();
            o.input_width()
        }, count);

        // Sequential reference: one query per row.
        let mut seq = Oracle::new(&locked).unwrap();
        let expected: Vec<Vec<bool>> = rows.iter().map(|r| seq.query(r)).collect();

        // Batched: the same rows, 64 lanes at a time, on a fresh oracle.
        let mut bat = Oracle::new(&locked).unwrap();
        let mut got: Vec<Vec<bool>> = Vec::with_capacity(rows.len());
        for chunk in rows.chunks(ril_attacks::MAX_LANES) {
            let block = PatternBlock::pack(chunk);
            let resp = bat.try_query_batch(&block).unwrap();
            prop_assert_eq!(resp.lanes(), chunk.len());
            got.extend(resp.unpack());
        }

        prop_assert_eq!(&got, &expected, "batched responses diverge");
        prop_assert_eq!(bat.queries(), seq.queries(), "chargeable query counts diverge");
        prop_assert_eq!(bat.cache_hits(), seq.cache_hits(), "memo behaviour diverges");

        // Replaying the whole list against the batched oracle is all memo
        // hits (unless the list overflowed the memo, which these sizes
        // never do): the batch path populated the cache like the
        // sequential path would have.
        let q_before = bat.queries();
        for chunk in rows.chunks(ril_attacks::MAX_LANES) {
            bat.try_query_batch(&PatternBlock::pack(chunk)).unwrap();
        }
        prop_assert_eq!(bat.queries(), q_before, "replay should be fully cached");
    }
}

/// A locked random host with more than 64 inputs and more than 64
/// outputs, so memo keys and responses span several words (the last one
/// partial).
fn wide_design(seed: u64, scan: bool) -> LockedCircuit {
    let inputs = [65, 130, 193][(seed % 3) as usize];
    let outputs = [106, 65, 129][(seed % 3) as usize];
    let host = generators::random_circuit(seed, inputs, 600, outputs);
    Obfuscator::new(RilBlockSpec::size_2x2())
        .blocks(2)
        .scan_obfuscation(scan)
        .seed(seed)
        .obfuscate(&host)
        .unwrap()
}

/// Row `i` of a stream of distinct patterns: the low 16 bits spell `i`,
/// the rest come from `seed`.
fn distinct_row(seed: u64, i: usize, width: usize) -> Vec<bool> {
    let mut z = seed ^ (i as u64).wrapping_mul(0xd6e8_feb8_6659_fd93);
    let fill = splitmix(&mut z);
    (0..width)
        .map(|b| {
            if b < 16 {
                (i >> b) & 1 == 1
            } else {
                (fill.rotate_left(b as u32) & 1) == 1
            }
        })
        .collect()
}

/// Answers `chunk` through `seq.query` one row at a time and through one
/// `bat.query_block`, and checks the two agree bit for bit: the response
/// block (unoccupied lanes zero), `queries()` and `cache_hits()`. With
/// `junk`, random bits are ORed into the block's unoccupied lanes first.
fn check_block(bat: &mut Oracle, seq: &mut Oracle, chunk: &[Vec<bool>], junk: Option<&mut u64>) {
    let expected: Vec<Vec<bool>> = chunk.iter().map(|r| seq.query(r)).collect();
    let mut words = PatternBlock::pack(chunk).words().to_vec();
    if let Some(z) = junk {
        let unoccupied = if chunk.len() == MAX_LANES {
            0
        } else {
            u64::MAX << chunk.len()
        };
        for w in &mut words {
            *w |= splitmix(z) & unoccupied;
        }
    }
    let resp = bat.query_block(&PatternBlock::from_words(words, chunk.len()));
    assert_eq!(
        resp,
        ResponseBlock::pack(&expected),
        "batched responses diverge"
    );
    assert_eq!(
        bat.queries(),
        seq.queries(),
        "chargeable query counts diverge"
    );
    assert_eq!(
        bat.cache_hits(),
        seq.cache_hits(),
        "memo behaviour diverges"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Multi-word keys and responses: more than 64 inputs and outputs.
    #[test]
    fn wide_designs_match_sequential_oracle(
        design_seed in 0u64..60,
        pattern_seed in any::<u64>(),
        count in 1usize..200,
        scan in any::<bool>(),
    ) {
        let locked = wide_design(design_seed, scan);
        let mut seq = Oracle::new(&locked).unwrap();
        let mut bat = Oracle::new(&locked).unwrap();
        prop_assert!(bat.input_width() > 64 && bat.output_width() > 64);
        let rows = patterns_with_dups(pattern_seed, bat.input_width(), count);
        for chunk in rows.chunks(MAX_LANES) {
            check_block(&mut bat, &mut seq, chunk, None);
        }
        // Replaying the list is all memo hits on both.
        for chunk in rows.chunks(MAX_LANES) {
            check_block(&mut bat, &mut seq, chunk, None);
        }
    }

    /// Junk bits in the unoccupied lanes of a `from_words` block change
    /// neither the answers nor the accounting, and never leak into the
    /// response block.
    #[test]
    fn junk_in_unoccupied_lanes_is_ignored(
        design_seed in 0u64..60,
        pattern_seed in any::<u64>(),
        count in 1usize..200,
        wide in any::<bool>(),
    ) {
        let locked = if wide {
            wide_design(design_seed, true)
        } else {
            Obfuscator::new(RilBlockSpec::size_2x2())
                .blocks(2)
                .scan_obfuscation(true)
                .seed(design_seed)
                .obfuscate(&generators::adder(6))
                .unwrap()
        };
        let mut seq = Oracle::new(&locked).unwrap();
        let mut bat = Oracle::new(&locked).unwrap();
        let rows = patterns_with_dups(pattern_seed, bat.input_width(), count);
        let mut z = !pattern_seed;
        // Odd-sized chunks leave unoccupied lanes in every block.
        for chunk in rows.chunks(37) {
            check_block(&mut bat, &mut seq, chunk, Some(&mut z));
        }
    }

    /// A `rekey` between blocks invalidates the memo on both paths alike:
    /// post-rekey repeats are charged again and answered under the new key.
    #[test]
    fn rekey_between_blocks_matches_sequential_oracle(
        design_seed in 0u64..60,
        pattern_seed in any::<u64>(),
        count in 1usize..200,
        morph_seed in any::<u64>(),
    ) {
        let mut locked = wide_design(design_seed, true);
        let mut seq = Oracle::new(&locked).unwrap();
        let mut bat = Oracle::new(&locked).unwrap();
        let rows = patterns_with_dups(pattern_seed, bat.input_width(), count);
        let mut rng = StdRng::seed_from_u64(morph_seed);
        for chunk in rows.chunks(24) {
            check_block(&mut bat, &mut seq, chunk, None);
            ril_core::morph_all(&mut locked, &mut rng);
            bat.rekey(&locked);
            seq.rekey(&locked);
            // The same block again, under the new key.
            check_block(&mut bat, &mut seq, chunk, None);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// A memo a few entries short of `MEMO_CAP` takes a block whose fresh
    /// patterns overflow it mid-block. In-block repeats of patterns first
    /// seen before the cap are hits; repeats of patterns first seen after
    /// it are charged again — on both paths alike.
    #[test]
    fn memo_cap_straddled_inside_one_block(
        design_seed in 0u64..60,
        pattern_seed in any::<u64>(),
        below in 1usize..=24,
    ) {
        let locked = wide_design(design_seed, true);
        let mut seq = Oracle::new(&locked).unwrap();
        let mut bat = Oracle::new(&locked).unwrap();
        let width = bat.input_width();
        let filled = MEMO_CAP - below;
        let prefill: Vec<Vec<bool>> =
            (0..filled).map(|i| distinct_row(pattern_seed, i, width)).collect();
        for chunk in prefill.chunks(MAX_LANES) {
            check_block(&mut bat, &mut seq, chunk, None);
        }
        prop_assert_eq!(bat.queries(), filled as u64);

        // Even lanes are fresh (32 > `below`, so the cap falls inside the
        // block); odd lanes repeat an earlier lane, repeat a memo-resident
        // pattern, or are fresh too.
        let mut z = pattern_seed;
        let mut fresh = filled;
        let straddle = |z: &mut u64, fresh: &mut usize| -> Vec<Vec<bool>> {
            let mut block: Vec<Vec<bool>> = Vec::with_capacity(MAX_LANES);
            for lane in 0..MAX_LANES {
                let pick = splitmix(z);
                let row = match (lane % 2, pick % 3) {
                    (1, 0) => block[(pick >> 8) as usize % block.len()].clone(),
                    (1, 1) => prefill[(pick >> 8) as usize % filled].clone(),
                    _ => {
                        *fresh += 1;
                        distinct_row(pattern_seed, *fresh - 1, width)
                    }
                };
                block.push(row);
            }
            block
        };
        let first = straddle(&mut z, &mut fresh);
        let before = seq.queries();
        check_block(&mut bat, &mut seq, &first, None);
        prop_assert!(seq.queries() - before > below as u64, "the block crosses the cap");
        // The memo is full now: a second such block and a replay of the
        // first both behave as the sequential oracle does.
        let second = straddle(&mut z, &mut fresh);
        check_block(&mut bat, &mut seq, &second, None);
        check_block(&mut bat, &mut seq, &first, None);
    }
}
