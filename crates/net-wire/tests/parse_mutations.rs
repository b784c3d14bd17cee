//! Seeded mutation test for [`ParsedFrame::parse`]: truncations, bit
//! flips, random byte overwrites past the Ethernet header, and length
//! fields that lie about the buffer (with the checksums recomputed, so
//! the lie reaches the length checks instead of dying at a checksum).
//! Every mutant must come back `Ok` or `Err` — a panic fails the test.

use net_wire::{
    ethernet, ipv4, message, udp, Endpoint, EthernetAddress, FrameSpec, Ipv4Address, MsgKind,
    MsgRepr, ParsedFrame,
};

/// SplitMix64: a tiny deterministic generator, so the mutant stream is
/// the same on every run.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

const ETH: usize = ethernet::HEADER_LEN;
const UDP_AT: usize = ETH + ipv4::HEADER_LEN;
const MSG_AT: usize = UDP_AT + udp::HEADER_LEN;

fn base_frames() -> Vec<Vec<u8>> {
    let spec = |kind, body_len| FrameSpec {
        src_mac: EthernetAddress::new(2, 0, 0, 0, 0, 1),
        dst_mac: EthernetAddress::new(2, 0, 0, 0, 0, 2),
        src: Endpoint::new(Ipv4Address::new(10, 0, 0, 1), 40_000),
        dst: Endpoint::new(Ipv4Address::new(10, 0, 0, 2), 9_000),
        msg: MsgRepr::request(7, 3, 5_000, 1_000, body_len).with_kind(kind),
    };
    [
        (MsgKind::Request, 0),
        (MsgKind::Request, 64),
        (MsgKind::Response, 300),
    ]
    .into_iter()
    .map(|(kind, body)| spec(kind, body).build().to_vec())
    .collect()
}

/// Recompute the IPv4 header checksum, and the UDP checksum when the
/// (possibly lying) UDP length still fits the buffer.
fn refresh_checksums(buf: &mut [u8]) {
    if buf.len() < MSG_AT {
        return;
    }
    ipv4::Packet::new_unchecked(&mut buf[ETH..]).fill_checksum();
    let src = Ipv4Address::new(10, 0, 0, 1);
    let dst = Ipv4Address::new(10, 0, 0, 2);
    let room = buf.len() - UDP_AT;
    let mut dgram = udp::Datagram::new_unchecked(&mut buf[UDP_AT..]);
    let len = usize::from(dgram.len());
    if (udp::HEADER_LEN..=room).contains(&len) {
        dgram.fill_checksum(src, dst);
    }
}

/// A length field value: an edge case or a random 16-bit value.
fn length_value(rng: &mut Mix, actual: usize) -> u16 {
    let a = actual as u16;
    let edges = [0, 1, 7, 8, 19, 20, 21, a, a + 1, u16::MAX];
    match rng.below(3) {
        0 => edges[rng.below(edges.len())],
        1 => a.wrapping_add(rng.below(64) as u16).wrapping_sub(32),
        _ => rng.next() as u16,
    }
}

fn mutate(rng: &mut Mix, base: &[u8]) -> Vec<u8> {
    let mut buf = base.to_vec();
    match rng.below(5) {
        // Truncation anywhere, including inside the Ethernet header.
        0 => buf.truncate(rng.below(base.len())),
        // Bit flips past the Ethernet header.
        1 => {
            for _ in 0..=rng.below(4) {
                let at = ETH + rng.below(buf.len() - ETH);
                buf[at] ^= 1 << rng.below(8);
            }
        }
        // Random byte overwrites past the Ethernet header.
        2 => {
            for _ in 0..=rng.below(8) {
                let at = ETH + rng.below(buf.len() - ETH);
                buf[at] = rng.next() as u8;
            }
        }
        // A length field lies; checksums are recomputed so it is believed.
        3 => {
            let ip_len = buf.len() - ETH;
            let udp_len = buf.len() - UDP_AT;
            let body_len = buf.len() - MSG_AT - message::HEADER_LEN;
            match rng.below(4) {
                0 => {
                    let v = length_value(rng, ip_len);
                    buf[ETH + 2..ETH + 4].copy_from_slice(&v.to_be_bytes());
                }
                1 => buf[ETH] = 0x40 | rng.below(16) as u8,
                2 => {
                    let v = length_value(rng, udp_len);
                    buf[UDP_AT + 4..UDP_AT + 6].copy_from_slice(&v.to_be_bytes());
                }
                _ => {
                    let v = length_value(rng, body_len);
                    let at = MSG_AT + message::HEADER_LEN - 2;
                    buf[at..at + 2].copy_from_slice(&v.to_be_bytes());
                }
            }
            refresh_checksums(&mut buf);
        }
        // The frame cut short or padded, with checksums recomputed.
        _ => {
            let len = MSG_AT + rng.below(base.len() + 64 - MSG_AT);
            buf.resize(len, rng.next() as u8);
            refresh_checksums(&mut buf);
        }
    }
    buf
}

#[test]
fn mutated_frames_never_panic_the_parser() {
    let bases = base_frames();
    for base in &bases {
        assert!(ParsedFrame::parse(base).is_ok(), "unmutated frame parses");
    }
    let mut rng = Mix(0x6d69_6e64_6761_7001);
    let (mut ok, mut err) = (0u32, 0u32);
    for i in 0..40_000 {
        let mutant = mutate(&mut rng, &bases[i % bases.len()]);
        match ParsedFrame::parse(&mutant) {
            Ok(_) => ok += 1,
            Err(_) => err += 1,
        }
    }
    assert!(err > 10_000, "mutations must bite: {err} rejected");
    assert!(ok > 100, "some mutants stay well-formed: {ok} accepted");
}
