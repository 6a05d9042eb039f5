//! Lane-packed pattern batches for the 64-way bit-parallel simulator.
//!
//! The simulator evaluates one `u64` word per signal, so a single pass
//! answers up to [`MAX_LANES`] input patterns at once — lane `i` (bit `i`
//! of every word) carries pattern `i`. [`PatternBlock`] is the typed
//! carrier for such a batch on the input side and [`ResponseBlock`] on
//! the output side; both pack to/from the row-per-pattern
//! `&[Vec<bool>]` shape the oracle protocol and the attacks speak.
//!
//! Every change between the two layouts goes through one 64×64 bit
//! transpose ([`transpose64`]): [`signals_to_lanes`] turns signal words
//! into word-packed per-lane rows (what the oracle memo keys on) and
//! [`lanes_to_signals`] turns rows back into signal words.
//!
//! A block always travels as one unit through the oracle stack: the
//! in-process oracle answers it with a single compiled-sim pass, the
//! remote oracle ships it as one `QueryBatch` wire frame, and a served
//! chip answers the whole block under a single key generation (a
//! scheduled re-key lands only between blocks, never inside one).

use rand::Rng;

/// The simulator's lane width: at most this many patterns per block.
pub const MAX_LANES: usize = 64;

/// Transposes a 64×64 bit matrix in place: afterwards bit `i` of `m[j]`
/// is what bit `j` of `m[i]` was.
///
/// Six rounds of block swaps (32×32 quadrants down to 1×1), each a
/// masked xor-swap over 32 word pairs — the layout change between
/// word-per-signal lanes and word-packed per-lane rows.
pub fn transpose64(m: &mut [u64; 64]) {
    let mut j = 32;
    let mut mask: u64 = 0x0000_0000_FFFF_FFFF;
    while j != 0 {
        let mut k = 0;
        while k < 64 {
            for i in k..k + j {
                let t = ((m[i] >> j) ^ m[i + j]) & mask;
                m[i] ^= t << j;
                m[i + j] ^= t;
            }
            k += 2 * j;
        }
        j >>= 1;
        mask ^= mask << j;
    }
}

/// Turns lane-packed signal words (word `s`, bit `l` = signal `s` of lane
/// `l`) into word-packed per-lane rows for lanes `0..lanes`: row `l` is
/// `out[l * r..(l + 1) * r]` with `r = ⌈words.len() / 64⌉`, and bit `j` of
/// its word `c` is signal `64c + j`. Row bits past the last signal are 0;
/// lanes `lanes..` of the input are never read into `out`.
///
/// # Panics
///
/// Panics if `lanes` exceeds [`MAX_LANES`].
pub fn signals_to_lanes(words: &[u64], lanes: usize, out: &mut Vec<u64>) {
    assert!(
        lanes <= MAX_LANES,
        "at most {MAX_LANES} lanes (got {lanes})"
    );
    let row_words = words.len().div_ceil(64);
    out.clear();
    out.resize(lanes * row_words, 0);
    let mut tile = [0u64; 64];
    for (c, chunk) in words.chunks(64).enumerate() {
        tile[..chunk.len()].copy_from_slice(chunk);
        tile[chunk.len()..].fill(0);
        transpose64(&mut tile);
        for (lane, &row) in tile[..lanes].iter().enumerate() {
            out[lane * row_words + c] = row;
        }
    }
}

/// The inverse of [`signals_to_lanes`]: `lanes` word-packed rows of
/// `width` signals each (`⌈width / 64⌉` words per row, bits past `width`
/// ignored) become `width` lane-packed signal words, with every lane from
/// `lanes` on zero.
///
/// # Panics
///
/// Panics if `lanes` exceeds [`MAX_LANES`] or `rows` does not hold exactly
/// `lanes` rows.
pub fn lanes_to_signals(rows: &[u64], lanes: usize, width: usize, out: &mut Vec<u64>) {
    assert!(
        lanes <= MAX_LANES,
        "at most {MAX_LANES} lanes (got {lanes})"
    );
    let row_words = width.div_ceil(64);
    assert_eq!(rows.len(), lanes * row_words, "row buffer size");
    out.clear();
    out.reserve(width);
    let mut tile = [0u64; 64];
    for c in 0..row_words {
        for (lane, slot) in tile[..lanes].iter_mut().enumerate() {
            *slot = rows[lane * row_words + c];
        }
        tile[lanes..].fill(0);
        transpose64(&mut tile);
        out.extend_from_slice(&tile[..(width - 64 * c).min(64)]);
    }
}

/// Appends one row of bits to `out` as `⌈bits.len() / 64⌉` words (bit `j`
/// of word `c` = `bits[64c + j]`).
pub fn pack_row(bits: &[bool], out: &mut Vec<u64>) {
    out.extend(bits.chunks(64).map(|chunk| {
        let mut word = 0u64;
        let mut octets = chunk.chunks_exact(8);
        for (k, octet) in (&mut octets).enumerate() {
            // Eight 0/1 bytes, little-endian; the multiply gathers byte
            // `i` into bit `56 + i` (no two partial products collide).
            let bytes = u64::from_le_bytes(std::array::from_fn(|i| u8::from(octet[i])));
            word |= (bytes.wrapping_mul(0x0102_0408_1020_4080) >> 56) << (8 * k);
        }
        let done = chunk.len() - octets.remainder().len();
        for (j, &bit) in octets.remainder().iter().enumerate() {
            word |= u64::from(bit) << (done + j);
        }
        word
    }));
}

/// The bits of every byte value, least significant first.
const BYTE_BITS: [[bool; 8]; 256] = {
    let mut table = [[false; 8]; 256];
    let mut byte = 0;
    while byte < 256 {
        let mut bit = 0;
        while bit < 8 {
            table[byte][bit] = (byte >> bit) & 1 == 1;
            bit += 1;
        }
        byte += 1;
    }
    table
};

/// Reads the first `width` bits of a word-packed row (the inverse of
/// [`pack_row`]).
///
/// # Panics
///
/// Panics if `words` holds fewer than `width` bits.
#[must_use]
pub fn unpack_row(words: &[u64], width: usize) -> Vec<bool> {
    assert!(
        words.len() * 64 >= width,
        "row holds fewer than {width} bits"
    );
    let mut row = Vec::with_capacity(words.len() * 64);
    for &word in words {
        for byte in word.to_le_bytes() {
            row.extend_from_slice(&BYTE_BITS[byte as usize]);
        }
    }
    row.truncate(width);
    row
}

/// Packs row-per-pattern bits into word-per-signal lanes.
///
/// Word `s` holds bit `i` of pattern `i` for signal `s`.
fn pack_words(rows: &[Vec<bool>]) -> Vec<u64> {
    assert!(!rows.is_empty(), "a block holds at least one pattern");
    assert!(
        rows.len() <= MAX_LANES,
        "a block holds at most {MAX_LANES} patterns (got {})",
        rows.len()
    );
    let width = rows[0].len();
    let mut packed = Vec::with_capacity(rows.len() * width.div_ceil(64));
    for (lane, row) in rows.iter().enumerate() {
        assert_eq!(
            row.len(),
            width,
            "ragged block: pattern {lane} has {} bits, pattern 0 has {width}",
            row.len()
        );
        pack_row(row, &mut packed);
    }
    let mut words = Vec::new();
    lanes_to_signals(&packed, rows.len(), width, &mut words);
    words
}

/// Unpacks word-per-signal lanes back into row-per-pattern bits.
fn unpack_rows(words: &[u64], lanes: usize) -> Vec<Vec<bool>> {
    let mut packed = Vec::new();
    signals_to_lanes(words, lanes, &mut packed);
    let row_words = words.len().div_ceil(64);
    (0..lanes)
        .map(|lane| {
            unpack_row(
                &packed[lane * row_words..(lane + 1) * row_words],
                words.len(),
            )
        })
        .collect()
}

/// Extracts one lane as a row of bits.
fn extract_lane(words: &[u64], lane: usize) -> Vec<bool> {
    words.iter().map(|w| (w >> lane) & 1 == 1).collect()
}

/// Up to [`MAX_LANES`] input patterns, lane-packed as one `u64` word per
/// input signal — the shape [`crate::CompiledSim::eval_words`] consumes
/// directly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PatternBlock {
    words: Vec<u64>,
    lanes: usize,
}

impl PatternBlock {
    /// Packs row-per-pattern bits into a block (lane `i` = pattern `i`).
    ///
    /// # Panics
    ///
    /// Panics on an empty slice, more than [`MAX_LANES`] rows, or ragged
    /// row widths.
    #[must_use]
    pub fn pack(patterns: &[Vec<bool>]) -> PatternBlock {
        PatternBlock {
            words: pack_words(patterns),
            lanes: patterns.len(),
        }
    }

    /// Wraps already-packed words (one per input signal).
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is `0` or exceeds [`MAX_LANES`].
    #[must_use]
    pub fn from_words(words: Vec<u64>, lanes: usize) -> PatternBlock {
        assert!(
            (1..=MAX_LANES).contains(&lanes),
            "lanes must be 1..={MAX_LANES} (got {lanes})"
        );
        PatternBlock { words, lanes }
    }

    /// A full 64-lane block of uniform random patterns over `width`
    /// input signals (one `rng.gen::<u64>()` draw per signal).
    pub fn random<R: Rng>(rng: &mut R, width: usize) -> PatternBlock {
        PatternBlock {
            words: crate::sim::random_word_patterns(rng, width),
            lanes: MAX_LANES,
        }
    }

    /// Number of input signals (words) per lane.
    #[must_use]
    pub fn width(&self) -> usize {
        self.words.len()
    }

    /// Number of occupied lanes (patterns), `1..=`[`MAX_LANES`].
    #[must_use]
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// The lane-packed words, one per input signal.
    #[must_use]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Extracts lane `lane` as a single row-of-bits pattern.
    ///
    /// # Panics
    ///
    /// Panics if `lane >= self.lanes()`.
    #[must_use]
    pub fn lane(&self, lane: usize) -> Vec<bool> {
        assert!(lane < self.lanes, "lane {lane} out of {}", self.lanes);
        extract_lane(&self.words, lane)
    }

    /// Unpacks every occupied lane back into row-per-pattern bits.
    #[must_use]
    pub fn unpack(&self) -> Vec<Vec<bool>> {
        unpack_rows(&self.words, self.lanes)
    }
}

/// The response side of a [`PatternBlock`]: one `u64` word per output
/// signal, lane `i` answering pattern `i`.
///
/// A whole block is always answered under one key generation — the
/// oracle layers stamp the block, not its individual lanes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResponseBlock {
    words: Vec<u64>,
    lanes: usize,
}

impl ResponseBlock {
    /// Packs row-per-pattern response bits into a block.
    ///
    /// # Panics
    ///
    /// Panics on an empty slice, more than [`MAX_LANES`] rows, or ragged
    /// row widths.
    #[must_use]
    pub fn pack(rows: &[Vec<bool>]) -> ResponseBlock {
        ResponseBlock {
            words: pack_words(rows),
            lanes: rows.len(),
        }
    }

    /// Wraps already-packed words (one per output signal).
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is `0` or exceeds [`MAX_LANES`].
    #[must_use]
    pub fn from_words(words: Vec<u64>, lanes: usize) -> ResponseBlock {
        assert!(
            (1..=MAX_LANES).contains(&lanes),
            "lanes must be 1..={MAX_LANES} (got {lanes})"
        );
        ResponseBlock { words, lanes }
    }

    /// Number of output signals (words) per lane.
    #[must_use]
    pub fn width(&self) -> usize {
        self.words.len()
    }

    /// Number of occupied lanes (responses), `1..=`[`MAX_LANES`].
    #[must_use]
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// The lane-packed words, one per output signal.
    #[must_use]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Extracts lane `lane` as a single row-of-bits response.
    ///
    /// # Panics
    ///
    /// Panics if `lane >= self.lanes()`.
    #[must_use]
    pub fn lane(&self, lane: usize) -> Vec<bool> {
        assert!(lane < self.lanes, "lane {lane} out of {}", self.lanes);
        extract_lane(&self.words, lane)
    }

    /// Unpacks every occupied lane back into row-per-pattern bits.
    #[must_use]
    pub fn unpack(&self) -> Vec<Vec<bool>> {
        unpack_rows(&self.words, self.lanes)
    }

    /// Counts differing bits against `other` over the occupied lanes
    /// (the removal attack's corruption score).
    ///
    /// # Panics
    ///
    /// Panics if the blocks differ in width or lane count.
    #[must_use]
    pub fn diff_bits(&self, other: &ResponseBlock) -> u64 {
        assert_eq!(self.words.len(), other.words.len(), "width mismatch");
        assert_eq!(self.lanes, other.lanes, "lane-count mismatch");
        let mask = if self.lanes == MAX_LANES {
            u64::MAX
        } else {
            (1u64 << self.lanes) - 1
        };
        self.words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| ((a ^ b) & mask).count_ones() as u64)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rows(seed: u64, lanes: usize, width: usize) -> Vec<Vec<bool>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..lanes)
            .map(|_| (0..width).map(|_| rng.gen()).collect())
            .collect()
    }

    #[test]
    fn pack_unpack_round_trips() {
        for lanes in [1, 2, 63, 64] {
            let patterns = rows(7 + lanes as u64, lanes, 9);
            let block = PatternBlock::pack(&patterns);
            assert_eq!(block.lanes(), lanes);
            assert_eq!(block.width(), 9);
            assert_eq!(block.unpack(), patterns);
            for (i, p) in patterns.iter().enumerate() {
                assert_eq!(&block.lane(i), p);
            }
        }
    }

    #[test]
    fn lane_bit_layout_matches_the_simulator_convention() {
        // Lane i is bit i of every word: pattern 0 in the LSB.
        let block = PatternBlock::pack(&[vec![true, false], vec![false, true]]);
        assert_eq!(block.words(), &[0b01, 0b10]);
    }

    #[test]
    fn from_words_round_trips_through_unpack() {
        let words = vec![0xDEAD_BEEF_u64, 0x0123_4567];
        let block = PatternBlock::from_words(words.clone(), 64);
        assert_eq!(PatternBlock::pack(&block.unpack()).words(), &words[..]);
    }

    #[test]
    fn partial_blocks_ignore_unoccupied_lanes() {
        let block = ResponseBlock::from_words(vec![u64::MAX], 3);
        assert_eq!(block.unpack(), vec![vec![true]; 3]);
        let other = ResponseBlock::from_words(vec![0b0101], 3);
        // Only lanes 0..3 count: lane 1 differs; lanes 3.. are unoccupied.
        assert_eq!(block.diff_bits(&other), 1);
    }

    #[test]
    fn random_blocks_are_full_width() {
        let mut rng = StdRng::seed_from_u64(11);
        let block = PatternBlock::random(&mut rng, 5);
        assert_eq!(block.lanes(), MAX_LANES);
        assert_eq!(block.width(), 5);
    }

    /// The per-bit reference layout change, kept only here: word `s`,
    /// bit `l` of the signal words is bit `s` of row `l`.
    fn naive_pack(rows: &[Vec<bool>]) -> Vec<u64> {
        let mut words = vec![0u64; rows[0].len()];
        for (lane, row) in rows.iter().enumerate() {
            for (word, &bit) in words.iter_mut().zip(row) {
                *word |= u64::from(bit) << lane;
            }
        }
        words
    }

    fn naive_transpose(m: &[u64; 64]) -> [u64; 64] {
        let mut t = [0u64; 64];
        for (i, row) in m.iter().enumerate() {
            for (j, col) in t.iter_mut().enumerate() {
                *col |= ((row >> j) & 1) << i;
            }
        }
        t
    }

    #[test]
    fn transpose64_moves_single_bits_and_is_an_involution() {
        for (i, j) in [(0, 0), (0, 63), (63, 0), (5, 40), (33, 31)] {
            let mut m = [0u64; 64];
            m[i] = 1u64 << j;
            transpose64(&mut m);
            let mut expect = [0u64; 64];
            expect[j] = 1u64 << i;
            assert_eq!(m, expect, "bit ({i}, {j})");
        }
        let mut rng = StdRng::seed_from_u64(3);
        let orig: [u64; 64] = std::array::from_fn(|_| rng.gen());
        let mut m = orig;
        transpose64(&mut m);
        assert_eq!(m, naive_transpose(&orig));
        transpose64(&mut m);
        assert_eq!(m, orig);
    }

    #[test]
    fn pack_and_unpack_match_the_per_bit_layout_at_word_edges() {
        for width in [1, 63, 64, 65, 193] {
            for lanes in [1, 2, 31, 63, 64] {
                let patterns = rows(width as u64 * 100 + lanes as u64, lanes, width);
                let block = PatternBlock::pack(&patterns);
                assert_eq!(block.words(), &naive_pack(&patterns)[..], "{width}x{lanes}");
                assert_eq!(block.unpack(), patterns, "{width}x{lanes}");
                let resp = ResponseBlock::pack(&patterns);
                assert_eq!(resp.unpack(), patterns, "{width}x{lanes}");
            }
        }
    }

    #[test]
    fn lane_rows_build_the_same_response_block_as_pack() {
        let patterns = rows(21, 5, 65);
        let mut packed = Vec::new();
        for row in &patterns {
            pack_row(row, &mut packed);
        }
        let mut words = Vec::new();
        lanes_to_signals(&packed, patterns.len(), 65, &mut words);
        assert!(words.iter().all(|w| w >> 5 == 0), "unoccupied lanes are 0");
        assert_eq!(
            ResponseBlock::from_words(words, 5),
            ResponseBlock::pack(&patterns)
        );
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            #[test]
            fn transpose64_matches_the_naive_loop(seed in any::<u64>()) {
                let mut rng = StdRng::seed_from_u64(seed);
                let orig: [u64; 64] = std::array::from_fn(|_| rng.gen());
                let mut m = orig;
                transpose64(&mut m);
                prop_assert_eq!(m, naive_transpose(&orig));
            }

            /// Packing, unpacking and the per-lane row views agree with the
            /// per-bit reference; junk in unoccupied lanes never leaks into
            /// the occupied rows, and rows rebuild blocks with those lanes 0.
            #[test]
            fn layouts_round_trip_against_the_naive_loop(
                seed in any::<u64>(),
                width_pick in 0usize..5,
                lanes in 1usize..=64,
            ) {
                let width = [1, 63, 64, 65, 193][width_pick];
                let patterns = rows(seed, lanes, width);
                let naive = naive_pack(&patterns);
                let block = PatternBlock::pack(&patterns);
                prop_assert_eq!(block.words(), &naive[..]);
                prop_assert_eq!(&block.unpack(), &patterns);

                let mut rng = StdRng::seed_from_u64(!seed);
                let junk = if lanes == MAX_LANES { 0 } else { u64::MAX << lanes };
                let dirty: Vec<u64> = naive.iter().map(|w| w | (rng.gen::<u64>() & junk)).collect();
                let dirty_block = PatternBlock::from_words(dirty.clone(), lanes);
                prop_assert_eq!(&dirty_block.unpack(), &patterns);

                let mut lane_rows = Vec::new();
                signals_to_lanes(&dirty, lanes, &mut lane_rows);
                let row_words = width.div_ceil(64);
                for (lane, row) in patterns.iter().enumerate() {
                    let packed = &lane_rows[lane * row_words..(lane + 1) * row_words];
                    prop_assert_eq!(&unpack_row(packed, width), row);
                    let mut expect = Vec::new();
                    pack_row(row, &mut expect);
                    prop_assert_eq!(packed, &expect[..]);
                }
                let mut rebuilt = Vec::new();
                lanes_to_signals(&lane_rows, lanes, width, &mut rebuilt);
                prop_assert_eq!(
                    ResponseBlock::from_words(rebuilt, lanes),
                    ResponseBlock::pack(&patterns)
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "ragged block")]
    fn ragged_rows_are_rejected() {
        let _ = PatternBlock::pack(&[vec![true], vec![true, false]]);
    }

    #[test]
    #[should_panic(expected = "at most 64")]
    fn oversized_blocks_are_rejected() {
        let _ = PatternBlock::pack(&vec![vec![true]; 65]);
    }
}
