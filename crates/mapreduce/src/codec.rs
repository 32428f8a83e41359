//! Length-prefixed binary encoding for shuffle spill.
//!
//! Deliberately minimal: fixed-width little-endian integers, length-prefixed
//! byte strings, and tuples — enough to round-trip every key/value type the
//! CLOSET tasks shuffle, without pulling a serialization framework into the
//! dependency set.
//!
//! Spill files are written as a sequence of *checksummed frames*
//! ([`encode_frames`] / [`decode_frames`]): each frame carries a payload
//! length, the [`checksum`] of the payload, and up to
//! [`FRAME_RECORDS`] encoded records. A mismatching checksum surfaces as
//! [`FrameError::ChecksumMismatch`] so the job layer can re-run the map
//! task that produced the frame instead of consuming corrupt data.
//!
//! [`checksum`] is the one integrity function of this crate and of
//! `ngs-server`'s connection frames: 64-bit words over four independent
//! lanes, every step a bijection, the length folded in. The same frames
//! are what the worker pool ships as task input and output
//! ([`crate::protocol`]).

/// A type that can round-trip through the spill format.
pub trait Codec: Sized {
    /// Append the encoding of `self` to `out`.
    fn encode(&self, out: &mut Vec<u8>);

    /// Decode one value from the front of `inp`, advancing it. `None` on
    /// malformed or truncated input.
    fn decode(inp: &mut &[u8]) -> Option<Self>;

    /// Duplicate `self` using the codec as the copying mechanism.
    ///
    /// This exists so the reduce phase can hand each group an owned
    /// `Vec<V>` without putting a `V: Clone` bound on the public
    /// `map_reduce` API (every shuffled value is already `Codec`, so the
    /// bound would be pure noise for callers). The default round-trips
    /// through the encoder; every codec impl in this module overrides it
    /// with a direct clone, so in practice no encode/decode happens.
    fn clone_via_codec(&self) -> Self {
        let mut buf = Vec::new();
        self.encode(&mut buf);
        let mut slice = buf.as_slice();
        Self::decode(&mut slice).expect("clone_via_codec: encode must be decodable")
    }

    /// Append the encodings of `items` back to back — what `Vec<Self>`
    /// writes after its length. Fixed-width scalars override the loop with
    /// one resize and a copy the compiler turns into a block move.
    fn encode_slice(items: &[Self], out: &mut Vec<u8>) {
        for item in items {
            item.encode(out);
        }
    }

    /// Decode `n` values written by [`Codec::encode_slice`].
    fn decode_vec(inp: &mut &[u8], n: usize) -> Option<Vec<Self>> {
        let mut v = Vec::with_capacity(n.min(1 << 20));
        for _ in 0..n {
            v.push(Self::decode(inp)?);
        }
        Some(v)
    }
}

macro_rules! impl_codec_scalar {
    ($($t:ty),* $(,)?) => {
        $(impl Codec for $t {
            fn encode(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            fn decode(inp: &mut &[u8]) -> Option<Self> {
                const N: usize = std::mem::size_of::<$t>();
                let (head, rest) = inp.split_first_chunk::<N>()?;
                *inp = rest;
                Some(<$t>::from_le_bytes(*head))
            }
            fn clone_via_codec(&self) -> Self {
                *self
            }
            fn encode_slice(items: &[Self], out: &mut Vec<u8>) {
                const N: usize = std::mem::size_of::<$t>();
                let start = out.len();
                out.resize(start + items.len() * N, 0);
                for (dst, item) in out[start..].chunks_exact_mut(N).zip(items) {
                    dst.copy_from_slice(&item.to_le_bytes());
                }
            }
            fn decode_vec(inp: &mut &[u8], n: usize) -> Option<Vec<Self>> {
                const N: usize = std::mem::size_of::<$t>();
                // The length is checked against the bytes present before
                // anything is allocated for it.
                let (head, rest) = inp.split_at_checked(n.checked_mul(N)?)?;
                *inp = rest;
                Some(
                    head.chunks_exact(N)
                        .map(|c| <$t>::from_le_bytes(c.try_into().expect("exact chunk")))
                        .collect(),
                )
            }
        })*
    };
}

impl_codec_scalar!(u8, u16, u32, u64, i64, f64);

impl Codec for bool {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }

    fn decode(inp: &mut &[u8]) -> Option<Self> {
        u8::decode(inp).map(|v| v != 0)
    }

    fn clone_via_codec(&self) -> Self {
        *self
    }
}

impl Codec for usize {
    fn encode(&self, out: &mut Vec<u8>) {
        (*self as u64).encode(out);
    }

    fn decode(inp: &mut &[u8]) -> Option<Self> {
        u64::decode(inp).map(|v| v as usize)
    }

    fn clone_via_codec(&self) -> Self {
        *self
    }
}

impl Codec for String {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.len() as u32).encode(out);
        out.extend_from_slice(self.as_bytes());
    }

    fn decode(inp: &mut &[u8]) -> Option<Self> {
        let len = u32::decode(inp)? as usize;
        if inp.len() < len {
            return None;
        }
        let (head, rest) = inp.split_at(len);
        *inp = rest;
        String::from_utf8(head.to_vec()).ok()
    }

    fn clone_via_codec(&self) -> Self {
        self.clone()
    }
}

impl<A: Codec, B: Codec> Codec for (A, B) {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
    }

    fn decode(inp: &mut &[u8]) -> Option<Self> {
        Some((A::decode(inp)?, B::decode(inp)?))
    }

    fn clone_via_codec(&self) -> Self {
        (self.0.clone_via_codec(), self.1.clone_via_codec())
    }
}

impl<A: Codec, B: Codec, C: Codec> Codec for (A, B, C) {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
        self.2.encode(out);
    }

    fn decode(inp: &mut &[u8]) -> Option<Self> {
        Some((A::decode(inp)?, B::decode(inp)?, C::decode(inp)?))
    }

    fn clone_via_codec(&self) -> Self {
        (self.0.clone_via_codec(), self.1.clone_via_codec(), self.2.clone_via_codec())
    }
}

impl<T: Codec> Codec for Vec<T>
where
    T: 'static,
{
    fn encode(&self, out: &mut Vec<u8>) {
        (self.len() as u32).encode(out);
        T::encode_slice(self, out);
    }

    fn decode(inp: &mut &[u8]) -> Option<Self> {
        let len = u32::decode(inp)? as usize;
        T::decode_vec(inp, len)
    }

    fn clone_via_codec(&self) -> Self {
        self.iter().map(Codec::clone_via_codec).collect()
    }
}

/// Encode a whole slice of records into one buffer.
pub fn encode_all<T: Codec>(items: &[T]) -> Vec<u8> {
    let mut out = Vec::new();
    encode_all_into(items, &mut out);
    out
}

fn encode_all_into<T: Codec>(items: &[T], out: &mut Vec<u8>) {
    (items.len() as u64).encode(out);
    T::encode_slice(items, out);
}

/// Decode a buffer produced by [`encode_all`].
pub fn decode_all<T: Codec>(mut inp: &[u8]) -> Option<Vec<T>> {
    let n = usize::try_from(u64::decode(&mut inp)?).ok()?;
    let out = T::decode_vec(&mut inp, n)?;
    inp.is_empty().then_some(out)
}

/// Records per spill frame: small enough that one flipped bit only
/// invalidates a bounded span, large enough that framing overhead
/// (16 bytes per frame) is negligible.
pub const FRAME_RECORDS: usize = 4096;

/// Lanes of the frame checksum: independent multiply chains, so the
/// multiplier's latency overlaps instead of adding up byte by byte.
const LANES: usize = 4;
const LANE_SEEDS: [u64; LANES] =
    [0x243f_6a88_85a3_08d3, 0x1319_8a2e_0370_7344, 0xa409_3822_299f_31d0, 0x082e_fa98_ec4e_6c89];
const MIX: u64 = 0x9e37_79b9_7f4a_7c15;

/// One checksum step. For a fixed `word` it permutes the states and for a
/// fixed `state` it permutes the words (xor, multiplication by an odd
/// constant and rotation are all bijections of `u64`).
#[inline(always)]
fn mix(state: u64, word: u64) -> u64 {
    (state ^ word).wrapping_mul(MIX).rotate_left(29)
}

/// The frame checksum — behind inner frames, MRW1 outer frames, map
/// checkpoints and `ngs-server`'s connection frames.
///
/// `data` is read as little-endian 64-bit words, the last one zero-padded;
/// word `i` goes through [`mix`] into lane `i % 4`, and the four lanes are
/// then mixed, in order, into a state seeded with the length. A change
/// confined to one word — any single-bit flip — leaves a different state in
/// that lane and, every later step being a permutation of the state, a
/// different checksum; the length seed tells a payload from the same one
/// cut or extended inside its padding.
pub fn checksum(data: &[u8]) -> u64 {
    fn word(bytes: &[u8]) -> u64 {
        u64::from_le_bytes(bytes.try_into().expect("8-byte chunk"))
    }
    let mut lanes = LANE_SEEDS;
    let mut blocks = data.chunks_exact(8 * LANES);
    for block in &mut blocks {
        for (lane, bytes) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            *lane = mix(*lane, word(bytes));
        }
    }
    let mut words = blocks.remainder().chunks_exact(8);
    let mut next = 0;
    for bytes in &mut words {
        lanes[next] = mix(lanes[next], word(bytes));
        next += 1;
    }
    let tail = words.remainder();
    if !tail.is_empty() {
        let mut padded = [0u8; 8];
        padded[..tail.len()].copy_from_slice(tail);
        lanes[next] = mix(lanes[next], u64::from_le_bytes(padded));
    }
    let h = lanes.iter().fold((data.len() as u64).wrapping_mul(MIX), |h, &lane| mix(h, lane));
    // Avalanche (xor-shifts and an odd multiplier: permutations again).
    let h = (h ^ (h >> 32)).wrapping_mul(MIX);
    h ^ (h >> 29)
}

/// Why a spill frame failed to decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// The payload hash does not match the stored checksum.
    ChecksumMismatch,
    /// Truncated or structurally invalid frame data.
    Malformed,
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            FrameError::ChecksumMismatch => "spill frame checksum mismatch",
            FrameError::Malformed => "malformed spill frame",
        })
    }
}

impl std::error::Error for FrameError {}

/// Bytes of a `[payload_len u64][checksum(payload) u64]` header — an inner
/// frame's whole header, and what follows the magic in an outer one.
pub(crate) const SEAL_LEN: usize = 16;

/// Append a sealed payload to `out`: room for the header, whatever `body`
/// appends (written once, in place), then the header filled in after it.
pub(crate) fn sealed(out: &mut Vec<u8>, body: impl FnOnce(&mut Vec<u8>)) {
    let header = out.len();
    out.extend_from_slice(&[0u8; SEAL_LEN]);
    body(out);
    let payload = &out[header + SEAL_LEN..];
    let (len, sum) = (payload.len() as u64, checksum(payload));
    out[header..header + 8].copy_from_slice(&len.to_le_bytes());
    out[header + 8..header + SEAL_LEN].copy_from_slice(&sum.to_le_bytes());
}

/// Encode `items` as a sequence of checksummed frames:
/// `[payload_len u64][checksum(payload) u64][payload]`, repeated, where each
/// payload is [`encode_all`] over at most [`FRAME_RECORDS`] records.
pub fn encode_frames<T: Codec>(items: &[T]) -> Vec<u8> {
    let mut out = Vec::new();
    // Emit at least one frame so files for empty partitions are
    // distinguishable from truncated-to-nothing files.
    let mut chunks = items.chunks(FRAME_RECORDS);
    let first: &[T] = chunks.next().unwrap_or(&[]);
    for chunk in std::iter::once(first).chain(chunks) {
        sealed(&mut out, |out| encode_all_into(chunk, out));
    }
    out
}

/// Walk a frame sequence, handing `each` every payload whose checksum
/// holds. An empty buffer is malformed: even no records make one frame.
fn for_each_frame(
    mut inp: &[u8],
    mut each: impl FnMut(&[u8]) -> Result<(), FrameError>,
) -> Result<(), FrameError> {
    if inp.is_empty() {
        return Err(FrameError::Malformed);
    }
    while !inp.is_empty() {
        let len = u64::decode(&mut inp).ok_or(FrameError::Malformed)?;
        let expected = u64::decode(&mut inp).ok_or(FrameError::Malformed)?;
        let len = usize::try_from(len).map_err(|_| FrameError::Malformed)?;
        let (payload, rest) = inp.split_at_checked(len).ok_or(FrameError::Malformed)?;
        inp = rest;
        if checksum(payload) != expected {
            return Err(FrameError::ChecksumMismatch);
        }
        each(payload)?;
    }
    Ok(())
}

/// Decode a buffer produced by [`encode_frames`], verifying every frame
/// checksum before trusting its payload.
pub fn decode_frames<T: Codec>(inp: &[u8]) -> Result<Vec<T>, FrameError> {
    let mut out = Vec::new();
    for_each_frame(inp, |payload| {
        out.extend(decode_all::<T>(payload).ok_or(FrameError::Malformed)?);
        Ok(())
    })?;
    Ok(out)
}

/// Verify the structural integrity and checksums of a frame sequence
/// without decoding the records — the frame layout is type-free, so a
/// driver can vet bytes produced by a worker before handing them to a
/// typed consumer. Returns the number of frames on success.
pub fn verify_frames(inp: &[u8]) -> Result<usize, FrameError> {
    let mut frames = 0usize;
    for_each_frame(inp, |_| {
        frames += 1;
        Ok(())
    })?;
    Ok(frames)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;

    fn round_trip<T: Codec + PartialEq + std::fmt::Debug>(v: T) {
        let mut buf = Vec::new();
        v.encode(&mut buf);
        let mut slice = buf.as_slice();
        let back = T::decode(&mut slice).expect("decode");
        assert_eq!(back, v);
        assert!(slice.is_empty(), "trailing bytes after decode");
    }

    #[test]
    fn scalar_round_trips() {
        round_trip(0u8);
        round_trip(42u32);
        round_trip(u64::MAX);
        round_trip(-7i64);
        round_trip(3.25f64);
        round_trip(true);
        round_trip(12345usize);
    }

    #[test]
    fn compound_round_trips() {
        round_trip((1u64, 2u32));
        round_trip((1u64, "hello".to_string(), vec![1u8, 2, 3]));
        round_trip(vec![(1u32, 2u32), (3, 4)]);
        round_trip(String::from("κλειδί"));
    }

    #[test]
    fn truncated_input_fails_cleanly() {
        let mut buf = Vec::new();
        (7u64, 9u64).encode(&mut buf);
        let mut short = &buf[..buf.len() - 1];
        assert!(<(u64, u64)>::decode(&mut short).is_none());
    }

    #[test]
    fn encode_all_round_trips() {
        let items: Vec<(u64, u32)> = (0..100).map(|i| (i, (i * 3) as u32)).collect();
        let buf = encode_all(&items);
        assert_eq!(decode_all::<(u64, u32)>(&buf).unwrap(), items);
    }

    #[test]
    fn decode_all_rejects_garbage_tail() {
        let mut buf = encode_all(&[1u64, 2, 3]);
        buf.push(0xFF);
        assert!(decode_all::<u64>(&buf).is_none());
    }

    #[test]
    fn clone_via_codec_matches_value() {
        let v = (7u64, "key".to_string(), vec![1u32, 2, 3]);
        assert_eq!(v.clone_via_codec(), v);
    }

    #[test]
    fn frames_round_trip_across_boundaries() {
        // More records than one frame holds, plus the empty case.
        let items: Vec<(u64, u32)> =
            (0..(FRAME_RECORDS as u64 * 2 + 37)).map(|i| (i, (i * 7) as u32)).collect();
        let buf = encode_frames(&items);
        assert_eq!(decode_frames::<(u64, u32)>(&buf).unwrap(), items);
        let empty: Vec<u64> = Vec::new();
        let buf = encode_frames(&empty);
        assert_eq!(decode_frames::<u64>(&buf).unwrap(), empty);
    }

    #[test]
    fn flipped_bit_is_detected() {
        let items: Vec<u64> = (0..500).collect();
        let mut buf = encode_frames(&items);
        // Corrupt a payload byte (past the 16-byte frame header).
        let target = buf.len() / 2;
        buf[target] ^= 0x40;
        assert_eq!(decode_frames::<u64>(&buf), Err(FrameError::ChecksumMismatch));
    }

    #[test]
    fn truncated_frames_are_malformed() {
        let items: Vec<u64> = (0..10).collect();
        let buf = encode_frames(&items);
        assert_eq!(decode_frames::<u64>(&buf[..buf.len() - 3]), Err(FrameError::Malformed));
        assert_eq!(decode_frames::<u64>(&[]), Err(FrameError::Malformed));
    }

    #[test]
    fn verify_frames_agrees_with_decode() {
        let items: Vec<(u64, u32)> =
            (0..(FRAME_RECORDS as u64 + 11)).map(|i| (i, i as u32)).collect();
        let buf = encode_frames(&items);
        assert_eq!(verify_frames(&buf), Ok(2));
        // Concatenated sequences (how a driver stores multi-task output)
        // verify as one longer sequence.
        let double: Vec<u8> = [buf.clone(), buf.clone()].concat();
        assert_eq!(verify_frames(&double), Ok(4));
        let mut bad = buf.clone();
        let target = bad.len() - 1;
        bad[target] ^= 0x10;
        assert_eq!(verify_frames(&bad), Err(FrameError::ChecksumMismatch));
        assert_eq!(verify_frames(&buf[..buf.len() - 2]), Err(FrameError::Malformed));
        assert_eq!(verify_frames(&[]), Err(FrameError::Malformed));
    }

    /// The checksum's definition, word by word and nothing else: what
    /// [`checksum`] must equal whatever way it walks the bytes.
    fn checksum_reference(data: &[u8]) -> u64 {
        let step = |state: u64, word: u64| (state ^ word).wrapping_mul(MIX).rotate_left(29);
        let mut lanes = LANE_SEEDS;
        for (i, bytes) in data.chunks(8).enumerate() {
            let mut word = [0u8; 8];
            word[..bytes.len()].copy_from_slice(bytes);
            lanes[i % 4] = step(lanes[i % 4], u64::from_le_bytes(word));
        }
        let mut h = (data.len() as u64).wrapping_mul(MIX);
        for lane in lanes {
            h = step(h, lane);
        }
        h = (h ^ (h >> 32)).wrapping_mul(MIX);
        h ^ (h >> 29)
    }

    /// The byte-serial FNV-1a the frames carried before the word-wise
    /// checksum.
    pub(crate) fn fnv1a(data: &[u8]) -> u64 {
        data.iter()
            .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ b as u64).wrapping_mul(0x1000_0000_01b3))
    }

    #[test]
    fn checksum_equals_its_definition_at_every_length_and_alignment() {
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let bytes: Vec<u8> = (0..208 + 8)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state as u8
            })
            .collect();
        for offset in 0..8 {
            for len in 0..=200 {
                let data = &bytes[offset..offset + len];
                assert_eq!(checksum(data), checksum_reference(data), "offset {offset} len {len}");
            }
        }
    }

    #[test]
    fn frames_with_the_old_fnv_checksum_are_a_typed_mismatch() {
        let mut buf = encode_frames(&[(1u64, 2u32), (3, 4)]);
        let old = fnv1a(&buf[SEAL_LEN..]);
        buf[8..SEAL_LEN].copy_from_slice(&old.to_le_bytes());
        assert_eq!(decode_frames::<(u64, u32)>(&buf), Err(FrameError::ChecksumMismatch));
        assert_eq!(verify_frames(&buf), Err(FrameError::ChecksumMismatch));
    }

    proptest! {
        #[test]
        fn checksum_sees_every_bit_flip_truncation_and_extension(
            payload in proptest::collection::vec(any::<u8>(), 1..120),
        ) {
            let sum = checksum(&payload);
            let mut flipped = payload.clone();
            for bit in 0..payload.len() * 8 {
                flipped[bit / 8] ^= 1 << (bit % 8);
                prop_assert!(checksum(&flipped) != sum, "bit {} flipped unseen", bit);
                flipped[bit / 8] ^= 1 << (bit % 8);
            }
            for cut in 0..payload.len() {
                prop_assert!(checksum(&payload[..cut]) != sum, "cut at {} unseen", cut);
            }
            let mut longer = payload.clone();
            longer.push(0);
            for byte in 0..=u8::MAX {
                *longer.last_mut().expect("just pushed") = byte;
                prop_assert!(checksum(&longer) != sum, "extension by {} unseen", byte);
            }
        }

        #[test]
        fn arbitrary_tuples_round_trip(a in any::<u64>(), s in ".{0,40}", bytes in proptest::collection::vec(any::<u8>(), 0..60)) {
            round_trip((a, s.to_string(), bytes));
        }

        #[test]
        fn arbitrary_frames_round_trip(items in proptest::collection::vec((any::<u64>(), any::<u32>()), 0..200)) {
            let buf = encode_frames(&items);
            prop_assert_eq!(decode_frames::<(u64, u32)>(&buf).unwrap(), items);
        }
    }
}
