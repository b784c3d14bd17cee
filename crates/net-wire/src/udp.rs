//! UDP datagram format.
//!
//! All request/response traffic in the paper's evaluation travels over UDP
//! (§4: "an open loop load generator … that transmits requests over UDP"),
//! as does the dispatcher↔worker control channel (§3.4.2). The checksum is
//! computed with the IPv4 pseudo-header.

use crate::addr::Ipv4Address;
use crate::checksum;
use crate::WireError;

/// Length of the UDP header.
pub const HEADER_LEN: usize = 8;

mod field {
    use core::ops::Range;
    pub const SRC_PORT: Range<usize> = 0..2;
    pub const DST_PORT: Range<usize> = 2..4;
    pub const LENGTH: Range<usize> = 4..6;
    pub const CHECKSUM: Range<usize> = 6..8;
    pub const PAYLOAD: core::ops::RangeFrom<usize> = 8..;
}

/// A typed view over a buffer containing a UDP datagram.
#[derive(Debug, Clone)]
pub struct Datagram<T: AsRef<[u8]>> {
    buffer: T,
}

impl<T: AsRef<[u8]>> Datagram<T> {
    /// Wrap a buffer without validation.
    pub fn new_unchecked(buffer: T) -> Datagram<T> {
        Datagram { buffer }
    }

    /// Wrap a buffer, validating lengths.
    pub fn new_checked(buffer: T) -> Result<Datagram<T>, WireError> {
        let dgram = Datagram::new_unchecked(buffer);
        dgram.check_len()?;
        Ok(dgram)
    }

    /// Validate the buffer against the length field.
    pub fn check_len(&self) -> Result<(), WireError> {
        let data = self.buffer.as_ref();
        if data.len() < HEADER_LEN {
            return Err(WireError::Truncated);
        }
        let len = self.len() as usize;
        if len < HEADER_LEN || data.len() < len {
            return Err(WireError::Truncated);
        }
        Ok(())
    }

    /// Source port.
    pub fn src_port(&self) -> u16 {
        let raw = &self.buffer.as_ref()[field::SRC_PORT];
        u16::from_be_bytes([raw[0], raw[1]])
    }

    /// Destination port.
    pub fn dst_port(&self) -> u16 {
        let raw = &self.buffer.as_ref()[field::DST_PORT];
        u16::from_be_bytes([raw[0], raw[1]])
    }

    /// Datagram length field (header + payload).
    pub fn len(&self) -> u16 {
        let raw = &self.buffer.as_ref()[field::LENGTH];
        u16::from_be_bytes([raw[0], raw[1]])
    }

    /// True when the length field says the payload is empty.
    pub fn is_empty(&self) -> bool {
        self.len() as usize == HEADER_LEN
    }

    /// Checksum field.
    pub fn checksum_field(&self) -> u16 {
        let raw = &self.buffer.as_ref()[field::CHECKSUM];
        u16::from_be_bytes([raw[0], raw[1]])
    }

    /// Verify the checksum with the given pseudo-header addresses.
    /// A zero checksum means "not computed" and passes (RFC 768).
    pub fn verify_checksum(&self, src: Ipv4Address, dst: Ipv4Address) -> bool {
        if self.checksum_field() == 0 {
            return true;
        }
        let len = self.len();
        let acc = pseudo_header_sum(src, dst, len);
        let data = &self.buffer.as_ref()[..len as usize];
        checksum::finish(checksum::sum(acc, data)) == 0
    }

    /// Payload bytes.
    pub fn payload(&self) -> &[u8] {
        let len = self.len() as usize;
        &self.buffer.as_ref()[HEADER_LEN..len]
    }
}

impl<T: AsRef<[u8]> + AsMut<[u8]>> Datagram<T> {
    /// Set the source port.
    pub fn set_src_port(&mut self, port: u16) {
        self.buffer.as_mut()[field::SRC_PORT].copy_from_slice(&port.to_be_bytes());
    }

    /// Set the destination port.
    pub fn set_dst_port(&mut self, port: u16) {
        self.buffer.as_mut()[field::DST_PORT].copy_from_slice(&port.to_be_bytes());
    }

    /// Set the length field.
    pub fn set_len(&mut self, len: u16) {
        self.buffer.as_mut()[field::LENGTH].copy_from_slice(&len.to_be_bytes());
    }

    /// Compute and store the checksum using the pseudo-header.
    pub fn fill_checksum(&mut self, src: Ipv4Address, dst: Ipv4Address) {
        self.buffer.as_mut()[field::CHECKSUM].copy_from_slice(&[0, 0]);
        let len = self.len();
        let acc = pseudo_header_sum(src, dst, len);
        let data = &self.buffer.as_ref()[..len as usize];
        let mut c = checksum::finish(checksum::sum(acc, data));
        if c == 0 {
            c = 0xffff; // 0 is reserved for "no checksum"
        }
        self.buffer.as_mut()[field::CHECKSUM].copy_from_slice(&c.to_be_bytes());
    }

    /// Mutable payload bytes.
    pub fn payload_mut(&mut self) -> &mut [u8] {
        &mut self.buffer.as_mut()[field::PAYLOAD]
    }
}

/// The pseudo-header's share of the checksum (RFC 768): source and
/// destination address, zero + protocol, and the UDP length, added as six
/// big-endian 16-bit words. At most 6 × 0xffff, so the `u32` cannot
/// overflow. Never zero (the protocol word is 17), which with congruence
/// mod 0xffff is all [`checksum::finish`] needs: the finished checksum is
/// the same as from summing the fields with [`checksum::sum`].
fn pseudo_header_sum(src: Ipv4Address, dst: Ipv4Address, udp_len: u16) -> u32 {
    let word = |hi: u8, lo: u8| u32::from(u16::from_be_bytes([hi, lo]));
    let [s0, s1, s2, s3] = src.0;
    let [d0, d1, d2, d3] = dst.0;
    word(s0, s1) + word(s2, s3) + word(d0, d1) + word(d2, d3) + 17 + u32::from(udp_len)
}

/// High-level representation of a UDP header.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Repr {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Payload length in bytes.
    pub payload_len: usize,
}

impl Repr {
    /// Parse and checksum-verify a datagram.
    pub fn parse<T: AsRef<[u8]>>(
        dgram: &Datagram<T>,
        src: Ipv4Address,
        dst: Ipv4Address,
    ) -> Result<Repr, WireError> {
        dgram.check_len()?;
        if !dgram.verify_checksum(src, dst) {
            return Err(WireError::BadChecksum);
        }
        Ok(Repr {
            src_port: dgram.src_port(),
            dst_port: dgram.dst_port(),
            payload_len: dgram.len() as usize - HEADER_LEN,
        })
    }

    /// Length of the emitted header plus payload.
    pub const fn buffer_len(&self) -> usize {
        HEADER_LEN + self.payload_len
    }

    /// Write this header; call [`Datagram::fill_checksum`] after writing the
    /// payload (the checksum covers it).
    pub fn emit<T: AsRef<[u8]> + AsMut<[u8]>>(&self, dgram: &mut Datagram<T>) {
        dgram.set_src_port(self.src_port);
        dgram.set_dst_port(self.dst_port);
        dgram.set_len((HEADER_LEN + self.payload_len) as u16);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: Ipv4Address = Ipv4Address::new(10, 0, 0, 1);
    const DST: Ipv4Address = Ipv4Address::new(10, 0, 0, 2);

    /// The pseudo-header summed field by field through the slice
    /// checksum, as it was before the word sum.
    fn pseudo_header_sum_chained(src: Ipv4Address, dst: Ipv4Address, udp_len: u16) -> u32 {
        let mut acc = 0;
        acc = checksum::sum(acc, src.as_bytes());
        acc = checksum::sum(acc, dst.as_bytes());
        acc = checksum::sum(acc, &[0, 17]);
        checksum::sum(acc, &udp_len.to_be_bytes())
    }

    #[test]
    fn word_pseudo_header_finishes_like_the_chained_slices() {
        let mut state = 0x5eed_u64;
        let mut next = || {
            // splitmix64
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let ip = |x: u64| Ipv4Address((x as u32).to_be_bytes());
        let mut cases = vec![];
        for edge in [0u64, 0xffff_ffff, 0x0000_ffff, 0xffff_0000, 0x8000_8000] {
            for other in [0u64, 0xffff_ffff, 0x0a00_0001] {
                for len in [0u16, 1, 8, 0xffef, 0xfffe, 0xffff] {
                    cases.push((ip(edge), ip(other), len));
                }
            }
        }
        for _ in 0..20_000 {
            let r = next();
            cases.push((ip(r), ip(r >> 32), next() as u16));
        }
        for (i, &(src, dst, len)) in cases.iter().enumerate() {
            let (words, chained) = (
                pseudo_header_sum(src, dst, len),
                pseudo_header_sum_chained(src, dst, len),
            );
            // The data after the pseudo-header: none, carry-heavy, random.
            let body: Vec<u8> = match i % 3 {
                0 => vec![],
                1 => vec![0xff; (i % 41) + 1],
                _ => (0..(i % 97)).map(|_| next() as u8).collect(),
            };
            assert_eq!(
                checksum::finish(checksum::sum(words, &body)),
                checksum::finish(checksum::sum(chained, &body)),
                "{src:?} {dst:?} len {len} body {body:?}"
            );
        }
    }

    #[test]
    fn emit_parse_round_trip() {
        let r = Repr {
            src_port: 5000,
            dst_port: 6000,
            payload_len: 5,
        };
        let mut buf = vec![0u8; r.buffer_len()];
        let mut d = Datagram::new_unchecked(&mut buf);
        r.emit(&mut d);
        d.payload_mut()[..5].copy_from_slice(b"salut");
        d.fill_checksum(SRC, DST);

        let d = Datagram::new_checked(&buf).unwrap();
        assert!(d.verify_checksum(SRC, DST));
        assert_eq!(Repr::parse(&d, SRC, DST).unwrap(), r);
        assert_eq!(d.payload(), b"salut");
        assert!(!d.is_empty());
    }

    #[test]
    fn checksum_covers_payload() {
        let r = Repr {
            src_port: 1,
            dst_port: 2,
            payload_len: 4,
        };
        let mut buf = vec![0u8; r.buffer_len()];
        let mut d = Datagram::new_unchecked(&mut buf);
        r.emit(&mut d);
        d.payload_mut()[..4].copy_from_slice(b"data");
        d.fill_checksum(SRC, DST);
        buf[HEADER_LEN] ^= 0x55;
        let d = Datagram::new_checked(&buf).unwrap();
        assert_eq!(
            Repr::parse(&d, SRC, DST).unwrap_err(),
            WireError::BadChecksum
        );
    }

    #[test]
    fn checksum_covers_pseudo_header() {
        let r = Repr {
            src_port: 1,
            dst_port: 2,
            payload_len: 0,
        };
        let mut buf = vec![0u8; r.buffer_len()];
        let mut d = Datagram::new_unchecked(&mut buf);
        r.emit(&mut d);
        d.fill_checksum(SRC, DST);
        let d = Datagram::new_checked(&buf).unwrap();
        // Wrong source address in the pseudo-header must fail.
        assert!(!d.verify_checksum(Ipv4Address::new(10, 0, 0, 9), DST));
    }

    #[test]
    fn zero_checksum_means_unchecked() {
        let r = Repr {
            src_port: 1,
            dst_port: 2,
            payload_len: 0,
        };
        let mut buf = vec![0u8; r.buffer_len()];
        let mut d = Datagram::new_unchecked(&mut buf);
        r.emit(&mut d);
        let d = Datagram::new_checked(&buf).unwrap();
        assert_eq!(d.checksum_field(), 0);
        assert!(d.verify_checksum(SRC, DST));
        assert!(d.is_empty());
    }

    #[test]
    fn truncation_detected() {
        let r = Repr {
            src_port: 1,
            dst_port: 2,
            payload_len: 10,
        };
        let mut buf = vec![0u8; r.buffer_len()];
        let mut d = Datagram::new_unchecked(&mut buf);
        r.emit(&mut d);
        assert!(Datagram::new_checked(&buf[..HEADER_LEN + 3]).is_err());
        assert!(Datagram::new_checked(&buf[..4]).is_err());
    }
}
