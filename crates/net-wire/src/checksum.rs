//! The Internet checksum (RFC 1071), shared by the IPv4 and UDP layers.

/// Accumulate 16-bit one's-complement sums over `data` into `acc`.
///
/// The one's-complement sum is byte-order independent (RFC 1071 §2(B)):
/// summing the data as native-order words yields the byte-swapped sum.
/// So the bulk of `data` is added eight bytes at a time as native `u64`
/// words with end-around carry (2^64 ≡ 1 mod 0xffff), folded once to 16
/// bits, and swapped once into network order. An odd trailing byte is
/// padded with zero on the right, as in a big-endian word. The value
/// returned is congruent (mod 0xffff) to the word-by-word sum, and zero
/// only when that sum is, so [`finish`] of it is bit-identical.
pub(crate) fn sum(acc: u32, data: &[u8]) -> u32 {
    let mut wide: u64 = 0;
    let mut add = |w: u64| {
        let (s, carry) = wide.overflowing_add(w);
        wide = s + u64::from(carry);
    };
    let mut words = data.chunks_exact(8);
    for word in &mut words {
        add(u64::from_ne_bytes([
            word[0], word[1], word[2], word[3], word[4], word[5], word[6], word[7],
        ]));
    }
    let mut pairs = words.remainder().chunks_exact(2);
    for pair in &mut pairs {
        add(u64::from(u16::from_ne_bytes([pair[0], pair[1]])));
    }
    if let [last] = pairs.remainder() {
        add(u64::from(u16::from_ne_bytes([*last, 0])));
    }
    let folded = fold(wide);
    acc + u32::from(u16::from_be_bytes(folded.to_ne_bytes()))
}

/// Fold a one's-complement accumulator to 16 bits with end-around carry.
fn fold(mut acc: u64) -> u16 {
    while acc >> 16 != 0 {
        acc = (acc & 0xffff) + (acc >> 16);
    }
    acc as u16
}

/// Fold a 32-bit accumulator into the final 16-bit checksum field value.
pub(crate) fn finish(acc: u32) -> u16 {
    !fold(u64::from(acc))
}

/// Compute the Internet checksum of a byte slice.
pub fn checksum(data: &[u8]) -> u16 {
    finish(sum(0, data))
}

/// Verify a buffer whose checksum field is in place: the total must fold
/// to zero.
pub fn verify(data: &[u8]) -> bool {
    finish(sum(0, data)) == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The reference: one big-endian 16-bit word at a time, straight
    /// from RFC 1071 §4.1.
    fn sum_bytewise(mut acc: u32, data: &[u8]) -> u32 {
        let mut chunks = data.chunks_exact(2);
        for chunk in &mut chunks {
            acc += u32::from(u16::from_be_bytes([chunk[0], chunk[1]]));
        }
        if let [last] = chunks.remainder() {
            acc += u32::from(u16::from_be_bytes([*last, 0]));
        }
        acc
    }

    /// splitmix64: a seeded stream for the differential test.
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    #[test]
    fn matches_the_bytewise_sum_on_random_buffers() {
        let mut state = 0x1071;
        for len in 0..=300usize {
            for round in 0..8 {
                let data: Vec<u8> = match round {
                    // All-ones and all-zero buffers stress the carries and
                    // the 0 / 0xffff distinction.
                    0 => vec![0xff; len],
                    1 => vec![0; len],
                    _ => (0..len).map(|_| next(&mut state) as u8).collect(),
                };
                let acc = match round {
                    0 | 1 => 0,
                    2 => 0xffff,
                    _ => (next(&mut state) % (1 << 24)) as u32,
                };
                assert_eq!(
                    finish(sum(acc, &data)),
                    finish(sum_bytewise(acc, &data)),
                    "len {len}, acc {acc:#x}, data {data:02x?}"
                );
            }
        }
    }

    #[test]
    fn chained_sums_match_the_bytewise_chain() {
        // The UDP pseudo-header is summed in pieces; odd pieces pad on
        // their own, exactly as the reference does.
        let mut state = 768;
        for _ in 0..500 {
            let pieces: Vec<Vec<u8>> = (0..4)
                .map(|_| {
                    let len = (next(&mut state) % 24) as usize;
                    (0..len).map(|_| next(&mut state) as u8).collect()
                })
                .collect();
            let fast = pieces.iter().fold(0, |acc, p| sum(acc, p));
            let slow = pieces.iter().fold(0, |acc, p| sum_bytewise(acc, p));
            assert_eq!(finish(fast), finish(slow), "{pieces:02x?}");
        }
    }

    #[test]
    fn rfc1071_worked_example() {
        // Example from RFC 1071 §3: 00 01 f2 03 f4 f5 f6 f7
        let data = [0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7];
        // Sum = 0x2ddf0 -> folded 0xddf2 -> complement 0x220d
        assert_eq!(checksum(&data), 0x220d);
    }

    #[test]
    fn odd_length_padding() {
        // An odd trailing byte is padded with zero on the right.
        assert_eq!(checksum(&[0xab]), !0xab00);
    }

    #[test]
    fn verify_detects_corruption() {
        let mut data = vec![0x45, 0x00, 0x00, 0x1c, 0x00, 0x00, 0x00, 0x00, 0x40, 0x11];
        // Append the checksum of the data itself to make it self-verifying.
        let c = checksum(&data);
        data.extend_from_slice(&c.to_be_bytes());
        assert!(verify(&data));
        data[0] ^= 0x01;
        assert!(!verify(&data));
    }

    #[test]
    fn empty_checksum() {
        assert_eq!(checksum(&[]), 0xffff);
    }
}
