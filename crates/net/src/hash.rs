//! The frame hash: the integrity checksum of the wire stack.
//!
//! Both frame formats in this crate — the collective epoch header
//! ([`crate::epoch`]) and the TCP wire frame ([`crate::tcp::frame`]) — carry
//! a 64-bit [`frame_hash`] so any byte mutation (fault injection in-process,
//! genuine corruption or torn reads on a socket) surfaces as a typed
//! [`crate::NetError::Codec`] instead of decoding into a wrong answer.
//!
//! # Algorithm
//!
//! Every collective segment is hashed once when it is sent and once when it
//! is received, so the hash runs at memory speed rather than one byte at a
//! time. Four independent 64-bit lanes consume the input in 32-byte blocks:
//!
//! 1. Lane `i` starts at `SEED ^ i`.
//! 2. Each block is read as four little-endian words `w0..w3`, and lane `i`
//!    steps to `(lane_i ^ w_i) * PRIME`. The four multiply chains do not
//!    depend on each other, so the CPU overlaps them.
//! 3. `finish` folds the lanes into one value in order:
//!    `h = lane_0`, then `h = (h ^ lane_i) * PRIME` for `i = 1, 2, 3`.
//! 4. The ragged tail (the last `len % 32` bytes) is folded in byte-wise:
//!    `h = (h ^ byte) * PRIME`.
//! 5. The total length is mixed in last: `h = (h ^ len) * PRIME`.
//!
//! `SEED` and `PRIME` are the FNV-1a 64 offset basis and prime. Multiplying
//! by an odd number is a bijection modulo 2^64. Streaming [`FrameHash::update`]
//! calls keep up to 31 bytes in a carry buffer, so any split of the input
//! hashes exactly like the one-shot [`frame_hash`].
//!
//! # What it detects
//!
//! Take two inputs of the same length that differ only inside one aligned
//! 8-byte word of the block region, or only inside one byte of the tail.
//! Their checksums always differ. Every step is a bijection in its running
//! value when its other input is fixed: `x ↦ (x ^ w) * PRIME` is a bijection
//! in `x` for fixed `w`, and in `w` for fixed `x`.
//!
//! * The differing step is the first place the two runs part. One lane (or
//!   the tail accumulator) gets different inputs from equal states, so its
//!   outputs differ.
//! * Every later step feeds both runs the same other input. A bijection
//!   maps different values to different values, so the difference survives
//!   each later block, the lane fold (the other three lanes are equal), the
//!   tail and the length mix.
//!
//! A single flipped bit or byte always lies inside one word and one byte, so
//! it is always caught. FNV-1a gives the same guarantee, by the same
//! argument. Changes spread over several words, or that change the length,
//! fall outside the argument: as with FNV-1a, a collision is then merely
//! unlikely, not impossible. The hash is not cryptographic: it defends
//! against accidents, not attackers.

/// Lane seed: the FNV-1a 64 offset basis.
const SEED: u64 = 0xcbf2_9ce4_8422_2325;
/// Lane multiplier: the FNV-1a 64 prime (odd, so each step is a bijection).
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// Bytes per block: one little-endian `u64` word for each of the 4 lanes.
const BLOCK: usize = 32;

/// Streaming 64-bit frame hasher (see the module docs for the algorithm).
///
/// ```
/// use sparker_net::hash::FrameHash;
///
/// let mut h = FrameHash::new();
/// h.update(b"hello ");
/// h.update(b"world");
/// // Streaming in pieces equals hashing the concatenation.
/// assert_eq!(h.finish(), sparker_net::hash::frame_hash(b"hello world"));
/// ```
#[derive(Debug, Clone)]
pub struct FrameHash {
    lanes: [u64; 4],
    /// Bytes of an incomplete block, waiting for the next `update`.
    carry: [u8; BLOCK],
    carry_len: usize,
    /// Total bytes folded in so far.
    len: u64,
}

fn word(block: &[u8], i: usize) -> u64 {
    u64::from_le_bytes(block[8 * i..8 * i + 8].try_into().expect("a block word is 8 bytes"))
}

/// One block step of every lane.
fn step(lanes: &mut [u64; 4], block: &[u8]) {
    for (i, lane) in lanes.iter_mut().enumerate() {
        *lane = (*lane ^ word(block, i)).wrapping_mul(PRIME);
    }
}

impl FrameHash {
    /// A hasher over the empty input.
    pub const fn new() -> Self {
        Self {
            lanes: [SEED, SEED ^ 1, SEED ^ 2, SEED ^ 3],
            carry: [0; BLOCK],
            carry_len: 0,
            len: 0,
        }
    }

    /// Folds `bytes` into the running hash.
    pub fn update(&mut self, mut bytes: &[u8]) {
        self.len = self.len.wrapping_add(bytes.len() as u64);
        if self.carry_len > 0 {
            let take = (BLOCK - self.carry_len).min(bytes.len());
            self.carry[self.carry_len..self.carry_len + take].copy_from_slice(&bytes[..take]);
            self.carry_len += take;
            bytes = &bytes[take..];
            if self.carry_len < BLOCK {
                return;
            }
            let block = self.carry;
            step(&mut self.lanes, &block);
            self.carry_len = 0;
        }
        let mut blocks = bytes.chunks_exact(BLOCK);
        for block in &mut blocks {
            step(&mut self.lanes, block);
        }
        let tail = blocks.remainder();
        self.carry[..tail.len()].copy_from_slice(tail);
        self.carry_len = tail.len();
    }

    /// The hash of everything folded in so far.
    pub fn finish(&self) -> u64 {
        let [first, rest @ ..] = self.lanes;
        let mut h = rest.iter().fold(first, |h, &lane| (h ^ lane).wrapping_mul(PRIME));
        for &b in &self.carry[..self.carry_len] {
            h = (h ^ b as u64).wrapping_mul(PRIME);
        }
        (h ^ self.len).wrapping_mul(PRIME)
    }
}

impl Default for FrameHash {
    fn default() -> Self {
        Self::new()
    }
}

/// One-shot frame hash of a contiguous byte slice.
pub fn frame_hash(bytes: &[u8]) -> u64 {
    let mut h = FrameHash::new();
    h.update(bytes);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic non-repeating test bytes.
    fn bytes(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 131 + 17) as u8).collect()
    }

    #[test]
    fn known_vectors() {
        // Pinned outputs of the algorithm in the module docs. Changing any of
        // them changes the checksum bytes of every frame on the wire.
        assert_eq!(frame_hash(b""), 0x6e9c_b013_0b00_0e6a);
        assert_eq!(frame_hash(b"a"), 0xf30a_bf5b_b006_3034);
        assert_eq!(frame_hash(b"foobar"), 0x85c9_6894_2ccd_3a63);
        assert_eq!(frame_hash(&bytes(32)), 0xed26_8dea_b9e6_f734);
        assert_eq!(frame_hash(&bytes(100)), 0xb000_7dc4_7756_9a0c);
    }

    #[test]
    fn streaming_matches_oneshot() {
        // Every one- and two-cut split of inputs that cross the 32-byte
        // block boundary several times.
        for len in 0..=130 {
            let data = bytes(len);
            let want = frame_hash(&data);
            for a in 0..=len {
                let mut h = FrameHash::new();
                h.update(&data[..a]);
                h.update(&data[a..]);
                assert_eq!(h.finish(), want, "len {len}, cut at {a}");
                for b in a..=len {
                    let mut h = FrameHash::new();
                    h.update(&data[..a]);
                    h.update(&data[a..b]);
                    h.update(&data[b..]);
                    assert_eq!(h.finish(), want, "len {len}, cuts at {a} and {b}");
                }
            }
        }
    }

    #[test]
    fn every_single_bit_flip_changes_the_hash() {
        for len in [1, 7, 8, 31, 32, 33, 64, 95, 100] {
            let data = bytes(len);
            let want = frame_hash(&data);
            for i in 0..len * 8 {
                let mut flipped = data.clone();
                flipped[i / 8] ^= 1 << (i % 8);
                assert_ne!(frame_hash(&flipped), want, "len {len}, bit {i}");
            }
        }
    }

    #[test]
    fn any_change_within_one_block_word_changes_the_hash() {
        // The guarantee in the module docs covers a change of several bytes
        // at once, as long as they share one aligned word of a block.
        let data = bytes(70);
        let want = frame_hash(&data);
        for w in 0..8 {
            for delta in [0x0101_0101_0101_0101u64, u64::MAX, 1 << 63, 0x00ff_0000_ff00_00ff] {
                let mut changed = data.clone();
                let v = word(&data, w) ^ delta;
                changed[8 * w..8 * w + 8].copy_from_slice(&v.to_le_bytes());
                assert_ne!(frame_hash(&changed), want, "word {w}, delta {delta:#x}");
            }
        }
    }
}
