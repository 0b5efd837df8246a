//! The wire packet format.
//!
//! A fixed 20-byte header followed by the payload:
//!
//! ```text
//! proto: u8 | flags: u8 | src_port: u16 | dst_port: u16 | len: u16
//! seq: u32  | ack: u32  | csum: u32     | payload: [u8; len]
//! ```
//!
//! Decoding is strict: short frames, bad lengths, unknown protocol
//! numbers, and checksum mismatches are `EBADMSG`, never a sliced-anyway
//! read. The checksum is what turns a corrupting link into a *detected*
//! loss: a flipped bit anywhere in the frame fails verification and the
//! frame is dropped, so TCP's retransmission machinery heals it instead
//! of delivering garbage.
//!
//! The checksum is the 32-bit [`sk_ksim::lanehash`]: fed a word at a
//! time over eight independent lanes, so its work is not one serial chain
//! of multiplies per byte, and still sure to catch any single flipped
//! bit.

use sk_ksim::errno::{Errno, KResult};
use sk_ksim::lanehash::LaneHash;

/// Protocol numbers.
pub mod proto {
    /// TCP.
    pub const TCP: u8 = 6;
    /// UDP.
    pub const UDP: u8 = 17;
    /// The AMP-like control protocol (the CVE-2020-12351 stand-in).
    pub const AMP_CTRL: u8 = 0x20;
}

/// TCP header flags.
pub mod flags {
    /// Synchronize sequence numbers.
    pub const SYN: u8 = 0x01;
    /// Acknowledgement field is valid.
    pub const ACK: u8 = 0x02;
    /// No more data from sender.
    pub const FIN: u8 = 0x04;
    /// Reset the connection.
    pub const RST: u8 = 0x08;
}

/// Header length in bytes.
pub const HEADER_LEN: usize = 20;

/// Maximum payload per packet (the wire MTU minus headers).
pub const MAX_PAYLOAD: usize = 1000;

/// Offset of the checksum field: the 16 header bytes before it (proto,
/// flags, ports, len, seq, ack) are the ones the checksum covers.
const CSUM_OFF: usize = 16;

/// The frame checksum over the 16 header bytes that precede the checksum
/// field (`head`) and the payload: a 32-bit [`LaneHash`], which catches
/// every single flipped bit and cannot cancel top-bit flips in one lane
/// (the argument is in [`sk_ksim::lanehash`]). Its zero padding cannot
/// make a frame alias a longer one, because the payload length is part
/// of `head`. A flip inside the stored checksum field changes the stored
/// value instead of the computed one.
fn checksum(head: &[u8; CSUM_OFF], payload: &[u8]) -> u32 {
    let mut h = LaneHash::<u32>::default();
    h.absorb(head);
    h.absorb(payload);
    h.finish()
}

/// A network packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Packet {
    /// Protocol number ([`proto`]).
    pub proto: u8,
    /// Flag bits ([`flags`]).
    pub flags: u8,
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Sequence number (TCP) or opaque (others).
    pub seq: u32,
    /// Acknowledgement number (TCP) or opaque.
    pub ack: u32,
    /// Payload bytes.
    pub payload: Vec<u8>,
}

impl Packet {
    /// A bare packet with the given protocol and ports.
    pub fn new(proto: u8, src_port: u16, dst_port: u16) -> Packet {
        Packet {
            proto,
            flags: 0,
            src_port,
            dst_port,
            seq: 0,
            ack: 0,
            payload: Vec::new(),
        }
    }

    /// Serializes to wire bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut head = [0u8; CSUM_OFF];
        head[0] = self.proto;
        head[1] = self.flags;
        head[2..4].copy_from_slice(&self.src_port.to_le_bytes());
        head[4..6].copy_from_slice(&self.dst_port.to_le_bytes());
        head[6..8].copy_from_slice(&(self.payload.len() as u16).to_le_bytes());
        head[8..12].copy_from_slice(&self.seq.to_le_bytes());
        head[12..16].copy_from_slice(&self.ack.to_le_bytes());
        let mut out = Vec::with_capacity(HEADER_LEN + self.payload.len());
        out.extend_from_slice(&head);
        out.extend_from_slice(&checksum(&head, &self.payload).to_le_bytes());
        out.extend_from_slice(&self.payload);
        out
    }

    /// Parses wire bytes, strictly.
    pub fn decode(bytes: &[u8]) -> KResult<Packet> {
        if bytes.len() < HEADER_LEN {
            return Err(Errno::EBADMSG);
        }
        let len = u16::from_le_bytes(bytes[6..8].try_into().expect("2 bytes")) as usize;
        if bytes.len() != HEADER_LEN + len || len > MAX_PAYLOAD {
            return Err(Errno::EBADMSG);
        }
        let proto = bytes[0];
        if !matches!(proto, proto::TCP | proto::UDP | proto::AMP_CTRL) {
            return Err(Errno::EPROTONOSUPPORT);
        }
        let csum = u32::from_le_bytes(bytes[16..20].try_into().expect("4 bytes"));
        let head = bytes[..CSUM_OFF].try_into().expect("16 bytes");
        if csum != checksum(head, &bytes[HEADER_LEN..]) {
            return Err(Errno::EBADMSG);
        }
        Ok(Packet {
            proto,
            flags: bytes[1],
            src_port: u16::from_le_bytes(bytes[2..4].try_into().expect("2 bytes")),
            dst_port: u16::from_le_bytes(bytes[4..6].try_into().expect("2 bytes")),
            seq: u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes")),
            ack: u32::from_le_bytes(bytes[12..16].try_into().expect("4 bytes")),
            payload: bytes[HEADER_LEN..].to_vec(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_roundtrip() {
        let mut p = Packet::new(proto::TCP, 80, 1234);
        p.flags = flags::SYN | flags::ACK;
        p.seq = 0xDEAD;
        p.ack = 0xBEEF;
        p.payload = b"data".to_vec();
        let bytes = p.encode();
        assert_eq!(Packet::decode(&bytes).unwrap(), p);
    }

    #[test]
    fn decode_rejects_short_frames() {
        assert_eq!(Packet::decode(&[0u8; 4]), Err(Errno::EBADMSG));
    }

    #[test]
    fn decode_rejects_length_mismatch() {
        let p = Packet::new(proto::UDP, 1, 2);
        let mut bytes = p.encode();
        bytes.push(0xFF); // trailing garbage
        assert_eq!(Packet::decode(&bytes), Err(Errno::EBADMSG));
    }

    #[test]
    fn decode_rejects_unknown_protocol() {
        let mut p = Packet::new(proto::TCP, 1, 2);
        p.proto = 0x7F;
        assert_eq!(Packet::decode(&p.encode()), Err(Errno::EPROTONOSUPPORT));
    }

    #[test]
    fn empty_payload_ok() {
        let p = Packet::new(proto::UDP, 5, 6);
        assert_eq!(Packet::decode(&p.encode()).unwrap().payload.len(), 0);
    }

    #[test]
    fn single_bit_flip_anywhere_is_detected() {
        // Every partial-word and partial-lane tail (0..=33), plus the
        // largest frames.
        for len in (0..=33).chain([MAX_PAYLOAD - 1, MAX_PAYLOAD]) {
            let mut p = Packet::new(proto::TCP, 80, 1234);
            p.flags = flags::SYN;
            p.seq = 42;
            p.payload = (0..len).map(|i| (i * 7 + 3) as u8).collect();
            let clean = p.encode();
            for byte in 0..clean.len() {
                for bit in 0..8 {
                    let mut dirty = clean.clone();
                    dirty[byte] ^= 1 << bit;
                    assert!(
                        Packet::decode(&dirty).is_err(),
                        "len {len}: flip at byte {byte} bit {bit} went undetected"
                    );
                }
            }
        }
    }

    #[test]
    fn checksum_known_answer() {
        // Pins the wire format: header layout, lane construction, zero
        // padding of the 5-byte tail, and the fold.
        let mut p = Packet::new(proto::TCP, 80, 1234);
        p.flags = flags::SYN | flags::ACK;
        p.seq = 0xDEAD_BEEF;
        p.ack = 0x0102_0304;
        p.payload = b"known-answer frame!!!".to_vec();
        let bytes = p.encode();
        assert_eq!(
            bytes[..HEADER_LEN],
            [
                6, 0x03, 80, 0, 0xD2, 0x04, 21, 0, 0xEF, 0xBE, 0xAD, 0xDE, 4, 3, 2, 1, 0xA2, 0x7E,
                0x84, 0xB2
            ]
        );
        assert_eq!(bytes[HEADER_LEN..], p.payload[..]);
        let empty = Packet::new(proto::UDP, 5, 6).encode();
        assert_eq!(empty[CSUM_OFF..], 0xEEEF_A0B4u32.to_le_bytes());
    }

    #[test]
    fn top_bit_flips_one_round_apart_are_detected() {
        // Payload bytes k and k + 32 feed the same lane; with a bare
        // xor-then-multiply lane step, flipping bit 7 of both would cancel
        // whenever byte k is a word's top byte (see sk_ksim::lanehash).
        const ROUND: usize = sk_ksim::lanehash::LANES * 4;
        let mut p = Packet::new(proto::TCP, 80, 1234);
        p.payload = (0..64).map(|i| (i * 11 + 1) as u8).collect();
        let clean = p.encode();
        for k in 0..clean.len() - ROUND {
            if (CSUM_OFF..HEADER_LEN).contains(&k) || (CSUM_OFF..HEADER_LEN).contains(&(k + ROUND))
            {
                continue;
            }
            let mut dirty = clean.clone();
            dirty[k] ^= 0x80;
            dirty[k + ROUND] ^= 0x80;
            assert!(
                Packet::decode(&dirty).is_err(),
                "bytes {k} and {}",
                k + ROUND
            );
        }
    }

    #[test]
    fn appended_zeros_with_patched_len_are_rejected() {
        // Zero padding inside the checksum must not let a frame pass as
        // a longer one that ends in zeros.
        for len in [0, 1, 3, 4, 15, 16, 17, 31, 32, 997] {
            let mut p = Packet::new(proto::TCP, 80, 1234);
            p.payload = vec![0xA5; len];
            let clean = p.encode();
            for extra in 1..=33 {
                if len + extra > MAX_PAYLOAD {
                    break;
                }
                let mut forged = clean.clone();
                forged.resize(clean.len() + extra, 0);
                forged[6..8].copy_from_slice(&((len + extra) as u16).to_le_bytes());
                assert_eq!(
                    Packet::decode(&forged),
                    Err(Errno::EBADMSG),
                    "len {len} + {extra} zero bytes passed"
                );
            }
        }
    }
}
