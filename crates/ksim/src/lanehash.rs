//! Word-speed checksums: the one lane hash behind the network frame
//! checksum (32-bit words) and the journal record checksum (64-bit
//! words).
//!
//! Bytes are read as little-endian words and dealt round-robin over
//! [`LANES`] independent lanes, one [`LaneWord::step`] per word; the last
//! partial round of each [`LaneHash::absorb`] call is zero-padded, and
//! [`LaneHash::finish`] folds the lanes pairwise into one word with the
//! same step. The lanes do not depend on each other, so the CPU overlaps
//! their multiplies instead of running one serial multiply per byte;
//! eight of them keep the multiplier busy through each step's latency.
//!
//! **What it detects.** A step is xor, multiply by an odd constant, then
//! fold the high half into the low. Each of the three is invertible, so a
//! step is a bijection in the word it takes and in the state it carries.
//! A single flipped input bit changes exactly one word, so exactly one
//! lane; the bijections carry the change to that lane's final value while
//! the other lanes keep theirs, and the pairwise fold, in which every
//! lane reaches the result through one argument of each step it passes,
//! changes too. Every single-bit flip is caught.
//!
//! The fold is what makes two flips in one lane safe. A bare
//! `(h ^ w) * P` carries a top-bit difference through unchanged, so
//! flipping the top bit of two words one round apart would cancel. After
//! the fold a one-bit difference never leaves a step as a one-bit
//! difference, so the lane's next word cannot cancel it with one flip.
//!
//! Zero padding can make two inputs of different lengths hash alike, so
//! callers must fix the length elsewhere: the frame header carries the
//! payload length, and a journal descriptor carries the block count.

/// Independent lanes a round feeds one word each.
pub const LANES: usize = 8;

/// A word width the lanes run at.
pub trait LaneWord: Copy {
    /// Bytes per word.
    const BYTES: usize;
    /// Starting state of every lane.
    const SEED: Self;
    /// Reads one little-endian word from exactly [`LaneWord::BYTES`] bytes.
    fn read_le(bytes: &[u8]) -> Self;
    /// One lane step: xor, odd multiply, fold the high half into the low.
    fn step(h: Self, w: Self) -> Self;
}

impl LaneWord for u32 {
    const BYTES: usize = 4;
    const SEED: u32 = 0x811c_9dc5;
    #[inline(always)]
    fn read_le(bytes: &[u8]) -> u32 {
        u32::from_le_bytes(bytes.try_into().expect("4 bytes"))
    }
    #[inline(always)]
    fn step(h: u32, w: u32) -> u32 {
        let x = (h ^ w).wrapping_mul(0x9e37_79b1);
        x ^ (x >> 16)
    }
}

impl LaneWord for u64 {
    const BYTES: usize = 8;
    const SEED: u64 = 0xcbf2_9ce4_8422_2325;
    #[inline(always)]
    fn read_le(bytes: &[u8]) -> u64 {
        u64::from_le_bytes(bytes.try_into().expect("8 bytes"))
    }
    #[inline(always)]
    fn step(h: u64, w: u64) -> u64 {
        let x = (h ^ w).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        x ^ (x >> 32)
    }
}

/// A running lane hash over `W`-sized words.
#[derive(Clone, Copy)]
pub struct LaneHash<W: LaneWord> {
    lanes: [W; LANES],
}

impl<W: LaneWord> Default for LaneHash<W> {
    fn default() -> Self {
        LaneHash {
            lanes: [W::SEED; LANES],
        }
    }
}

impl<W: LaneWord> LaneHash<W> {
    /// Feeds `bytes` to the lanes, zero-padding the last partial round.
    #[inline(always)]
    pub fn absorb(&mut self, bytes: &[u8]) {
        let mut rounds = bytes.chunks_exact(LANES * W::BYTES);
        for round in &mut rounds {
            self.round(round);
        }
        let tail = rounds.remainder();
        if !tail.is_empty() {
            let mut last = [0u8; LANES * 8];
            last[..tail.len()].copy_from_slice(tail);
            self.round(&last[..LANES * W::BYTES]);
        }
    }

    #[inline(always)]
    fn round(&mut self, round: &[u8]) {
        for (i, lane) in self.lanes.iter_mut().enumerate() {
            let w = W::read_le(&round[i * W::BYTES..(i + 1) * W::BYTES]);
            *lane = W::step(*lane, w);
        }
    }

    /// Folds the lanes into the checksum pairwise, a tree of steps, so the
    /// fold's latency is three steps rather than eight.
    #[inline(always)]
    pub fn finish(self) -> W {
        let mut level = self.lanes;
        let mut width = LANES;
        while width > 1 {
            width /= 2;
            for i in 0..width {
                level[i] = W::step(level[2 * i], level[2 * i + 1]);
            }
        }
        level[0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sum<W: LaneWord>(bytes: &[u8]) -> W {
        let mut h = LaneHash::<W>::default();
        h.absorb(bytes);
        h.finish()
    }

    fn flipped(bytes: &[u8], bits: &[usize]) -> Vec<u8> {
        let mut out = bytes.to_vec();
        for &b in bits {
            out[b / 8] ^= 1 << (b % 8);
        }
        out
    }

    fn sample(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 29 + 5) as u8).collect()
    }

    fn every_two_bit_flip_is_detected<W: LaneWord + Eq + std::fmt::Debug>() {
        // Two rounds and a partial one, so flips meet in every lane,
        // across rounds, and in the padded tail.
        let clean = sample(2 * LANES * W::BYTES + 3);
        let want = sum::<W>(&clean);
        let bits = clean.len() * 8;
        for a in 0..bits {
            assert_ne!(sum::<W>(&flipped(&clean, &[a])), want, "bit {a}");
            for b in a + 1..bits {
                assert_ne!(
                    sum::<W>(&flipped(&clean, &[a, b])),
                    want,
                    "bits {a} and {b}"
                );
            }
        }
    }

    #[test]
    fn every_one_and_two_bit_flip_is_detected_32() {
        every_two_bit_flip_is_detected::<u32>();
    }

    #[test]
    fn every_one_and_two_bit_flip_is_detected_64() {
        every_two_bit_flip_is_detected::<u64>();
    }

    /// The case the fold exists for: the top bit of two words one round
    /// apart (the same lane). A bare xor-then-multiply step lets the
    /// second flip cancel the first; the lane step does not.
    #[test]
    fn top_bit_flips_one_round_apart_are_detected() {
        fn bare_32(bytes: &[u8]) -> u32 {
            let mut lanes = [u32::SEED; LANES];
            for (i, w) in bytes.chunks_exact(4).enumerate() {
                let lane = &mut lanes[i % LANES];
                *lane = (*lane ^ u32::read_le(w)).wrapping_mul(0x9e37_79b1);
            }
            lanes.into_iter().fold(u32::SEED, u32::step)
        }
        let clean = sample(128);
        let round_32 = LANES * 4 * 8;
        let round_64 = LANES * 8 * 8;
        for word in 0..LANES {
            let top = word * 32 + 31;
            let pair = flipped(&clean, &[top, top + round_32]);
            assert_eq!(bare_32(&pair), bare_32(&clean), "bare step cancels");
            assert_ne!(sum::<u32>(&pair), sum::<u32>(&clean), "u32 word {word}");
        }
        for word in 0..LANES {
            let top = word * 64 + 63;
            let pair = flipped(&clean, &[top, top + round_64]);
            assert_ne!(sum::<u64>(&pair), sum::<u64>(&clean), "u64 word {word}");
        }
    }

    #[test]
    fn absorb_calls_pad_each_segment() {
        // Two segments hash as their zero-padded concatenation.
        let (a, b) = (sample(5), sample(40));
        let mut h = LaneHash::<u64>::default();
        h.absorb(&a);
        h.absorb(&b);
        let mut padded = a.clone();
        padded.resize(LANES * 8, 0);
        padded.extend_from_slice(&b);
        assert_eq!(h.finish(), sum::<u64>(&padded));
    }
}
