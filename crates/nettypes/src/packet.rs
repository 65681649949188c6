//! Wire format of Verus data packets and acknowledgments.
//!
//! The paper's prototype (§5) sends UDP datagrams carrying a sequence
//! number and the sender timestamp (for one-way-delay computation at the
//! receiver), and tracks per-packet the sending window it was sent under —
//! the ACK echoes that window so the sender can attribute each delay
//! sample to a profile point and apply Eq. 6's `W_loss` on loss.
//!
//! The same encoding is used verbatim by the real UDP transport and (as
//! metadata, without serialization) by the simulator, so a packet captured
//! from the wire decodes into exactly the struct the simulator traffics in.
//!
//! Layout (big-endian):
//!
//! ```text
//! data:  magic(2) "VD" | flow(4) | seq(8) | send_time_us(8) |
//!        send_window_x1000(8) | payload_len(4) | payload…
//! ack:   magic(2) "VA" | flow(4) | seq(8) | echo_send_time_us(8) |
//!        recv_time_us(8) | send_window_x1000(8)
//! ```
//!
//! The sending window is fixed-point (×1000) rather than `f64` on the wire
//! so the format has no NaN states. Timestamps must fit a
//! [`SimTime`](crate::SimTime) (nanoseconds in a `u64`): decoding rejects any above
//! [`MAX_WIRE_TIME_US`], so no consumer's microsecond → nanosecond
//! conversion can overflow on a hostile packet.

use bytes::{Buf, BufMut, Bytes, BytesMut};

/// Magic for data packets: "VD".
const MAGIC_DATA: u16 = 0x5644;
/// Magic for acknowledgment packets: "VA".
const MAGIC_ACK: u16 = 0x5641;

/// Fixed-point scale for the sending window on the wire.
const WINDOW_SCALE: f64 = 1000.0;

/// Header size of a data packet, excluding payload.
pub const DATA_HEADER_LEN: usize = 2 + 4 + 8 + 8 + 8 + 4;
/// Size of an encoded ACK.
pub const ACK_LEN: usize = 2 + 4 + 8 + 8 + 8 + 8;

/// Largest wire timestamp (µs) that still converts to a
/// [`SimTime`](crate::SimTime).
pub const MAX_WIRE_TIME_US: u64 = u64::MAX / 1_000;

/// A data packet as carried by the transport.
#[derive(Debug, Clone, PartialEq)]
pub struct DataPacket {
    /// Flow identifier (one Verus connection = one flow id).
    pub flow: u32,
    /// Sequence number, starting at 0 and incrementing per packet
    /// (retransmissions carry a fresh sequence number in Verus, matching
    /// the prototype's bookkeeping of per-packet send times).
    pub seq: u64,
    /// Sender clock at transmission, microseconds since flow start.
    pub send_time_us: u64,
    /// Sending window (packets) under which this packet was sent.
    pub send_window: f64,
    /// Payload length in bytes (payload content is opaque filler; only
    /// its size matters to congestion control).
    pub payload_len: u32,
}

/// An acknowledgment packet.
#[derive(Debug, Clone, PartialEq)]
pub struct AckPacket {
    /// Flow identifier.
    pub flow: u32,
    /// Sequence number being acknowledged.
    pub seq: u64,
    /// Echo of [`DataPacket::send_time_us`], so the sender computes RTT
    /// without per-packet state lookups.
    pub echo_send_time_us: u64,
    /// Receiver clock at packet arrival, microseconds since flow start
    /// (one-way delay when clocks are synchronized, as in the paper's
    /// measurement setup).
    pub recv_time_us: u64,
    /// Echo of the sending window the packet was sent under.
    pub send_window: f64,
}

/// Decoding failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireDecodeError {
    /// Buffer shorter than a full header.
    Truncated {
        /// Bytes needed.
        need: usize,
        /// Bytes available.
        got: usize,
    },
    /// Unknown magic bytes.
    BadMagic {
        /// The magic value found.
        found: u16,
    },
    /// A timestamp above [`MAX_WIRE_TIME_US`].
    TimestampOutOfRange {
        /// The timestamp found, µs.
        us: u64,
    },
}

impl std::fmt::Display for WireDecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Truncated { need, got } => {
                write!(f, "truncated packet: need {need} bytes, got {got}")
            }
            Self::BadMagic { found } => write!(f, "unknown packet magic {found:#06x}"),
            Self::TimestampOutOfRange { us } => {
                write!(f, "timestamp {us} us does not fit a SimTime")
            }
        }
    }
}

impl std::error::Error for WireDecodeError {}

impl DataPacket {
    /// Total on-wire size, header plus payload.
    #[must_use]
    pub fn wire_len(&self) -> usize {
        DATA_HEADER_LEN + self.payload_len as usize
    }

    /// Encodes header + zero-filled payload into a fresh buffer.
    #[must_use]
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(self.wire_len());
        buf.put_u16(MAGIC_DATA);
        buf.put_u32(self.flow);
        buf.put_u64(self.seq);
        buf.put_u64(self.send_time_us);
        buf.put_u64(encode_window(self.send_window));
        buf.put_u32(self.payload_len);
        buf.resize(self.wire_len(), 0);
        buf.freeze()
    }

    /// Decodes a data packet from `buf` (payload bytes beyond the declared
    /// length are ignored; a short payload is accepted since only the
    /// declared length matters).
    pub fn decode(mut buf: &[u8]) -> Result<Self, WireDecodeError> {
        if buf.len() < DATA_HEADER_LEN {
            return Err(WireDecodeError::Truncated {
                need: DATA_HEADER_LEN,
                got: buf.len(),
            });
        }
        let magic = buf.get_u16();
        if magic != MAGIC_DATA {
            return Err(WireDecodeError::BadMagic { found: magic });
        }
        Ok(Self {
            flow: buf.get_u32(),
            seq: buf.get_u64(),
            send_time_us: wire_time(buf.get_u64())?,
            send_window: decode_window(buf.get_u64()),
            payload_len: buf.get_u32(),
        })
    }
}

impl AckPacket {
    /// Builds the ACK for a received data packet.
    #[must_use]
    pub fn for_packet(pkt: &DataPacket, recv_time_us: u64) -> Self {
        Self {
            flow: pkt.flow,
            seq: pkt.seq,
            echo_send_time_us: pkt.send_time_us,
            recv_time_us,
            send_window: pkt.send_window,
        }
    }

    /// Encodes into a fresh buffer of [`ACK_LEN`] bytes.
    #[must_use]
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(ACK_LEN);
        buf.put_u16(MAGIC_ACK);
        buf.put_u32(self.flow);
        buf.put_u64(self.seq);
        buf.put_u64(self.echo_send_time_us);
        buf.put_u64(self.recv_time_us);
        buf.put_u64(encode_window(self.send_window));
        buf.freeze()
    }

    /// Decodes an ACK from `buf`.
    pub fn decode(mut buf: &[u8]) -> Result<Self, WireDecodeError> {
        if buf.len() < ACK_LEN {
            return Err(WireDecodeError::Truncated {
                need: ACK_LEN,
                got: buf.len(),
            });
        }
        let magic = buf.get_u16();
        if magic != MAGIC_ACK {
            return Err(WireDecodeError::BadMagic { found: magic });
        }
        Ok(Self {
            flow: buf.get_u32(),
            seq: buf.get_u64(),
            echo_send_time_us: wire_time(buf.get_u64())?,
            recv_time_us: wire_time(buf.get_u64())?,
            send_window: decode_window(buf.get_u64()),
        })
    }
}

/// Accepts a wire timestamp only if it converts to a
/// [`SimTime`](crate::SimTime).
fn wire_time(us: u64) -> Result<u64, WireDecodeError> {
    if us > MAX_WIRE_TIME_US {
        return Err(WireDecodeError::TimestampOutOfRange { us });
    }
    Ok(us)
}

fn encode_window(w: f64) -> u64 {
    debug_assert!(w.is_finite() && w >= 0.0, "bad window {w}");
    (w.max(0.0) * WINDOW_SCALE).round() as u64
}

fn decode_window(fixed: u64) -> f64 {
    fixed as f64 / WINDOW_SCALE
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_data() -> DataPacket {
        DataPacket {
            flow: 7,
            seq: 123_456,
            send_time_us: 9_876_543,
            send_window: 42.125,
            payload_len: 1362,
        }
    }

    #[test]
    fn data_round_trip() {
        let p = sample_data();
        let wire = p.encode();
        assert_eq!(wire.len(), p.wire_len());
        let q = DataPacket::decode(&wire).unwrap();
        // window survives at fixed-point precision
        assert_eq!(q.flow, p.flow);
        assert_eq!(q.seq, p.seq);
        assert_eq!(q.send_time_us, p.send_time_us);
        assert!((q.send_window - p.send_window).abs() < 1e-3);
        assert_eq!(q.payload_len, p.payload_len);
    }

    #[test]
    fn ack_round_trip() {
        let a = AckPacket::for_packet(&sample_data(), 11_000_000);
        let wire = a.encode();
        assert_eq!(wire.len(), ACK_LEN);
        let b = AckPacket::decode(&wire).unwrap();
        assert_eq!(b.seq, a.seq);
        assert_eq!(b.echo_send_time_us, a.echo_send_time_us);
        assert_eq!(b.recv_time_us, 11_000_000);
        assert!((b.send_window - a.send_window).abs() < 1e-3);
    }

    #[test]
    fn ack_echoes_packet_fields() {
        let p = sample_data();
        let a = AckPacket::for_packet(&p, 1);
        assert_eq!(a.flow, p.flow);
        assert_eq!(a.seq, p.seq);
        assert_eq!(a.echo_send_time_us, p.send_time_us);
        assert_eq!(a.send_window, p.send_window);
    }

    #[test]
    fn truncated_is_rejected() {
        let wire = sample_data().encode();
        let err = DataPacket::decode(&wire[..10]).unwrap_err();
        assert!(matches!(err, WireDecodeError::Truncated { .. }));
        let err = AckPacket::decode(&[0u8; 5]).unwrap_err();
        assert!(matches!(err, WireDecodeError::Truncated { .. }));
    }

    #[test]
    fn wrong_magic_is_rejected() {
        let mut wire = sample_data().encode().to_vec();
        wire[0] = 0xFF;
        assert!(matches!(
            DataPacket::decode(&wire),
            Err(WireDecodeError::BadMagic { .. })
        ));
        // A data packet fed to the ACK decoder must not parse either.
        let wire = sample_data().encode();
        assert!(matches!(
            AckPacket::decode(&wire),
            Err(WireDecodeError::BadMagic { .. })
        ));
    }

    #[test]
    fn payload_is_zero_filled() {
        let p = DataPacket {
            payload_len: 16,
            ..sample_data()
        };
        let wire = p.encode();
        assert!(wire[DATA_HEADER_LEN..].iter().all(|&b| b == 0));
    }

    #[test]
    fn zero_window_encodes() {
        let p = DataPacket {
            send_window: 0.0,
            ..sample_data()
        };
        let q = DataPacket::decode(&p.encode()).unwrap();
        assert_eq!(q.send_window, 0.0);
    }

    #[test]
    fn timestamps_beyond_simtime_are_rejected() {
        // A well-formed ACK whose echo is one past the last convertible
        // microsecond used to decode and then overflow the sender's
        // `SimTime::from_micros` (a debug panic, a wrapped RTT sample in
        // release).
        let edge = MAX_WIRE_TIME_US;
        let ok = AckPacket {
            flow: 1,
            seq: 2,
            echo_send_time_us: edge,
            recv_time_us: edge,
            send_window: 1.0,
        };
        assert_eq!(AckPacket::decode(&ok.encode()), Ok(ok.clone()));
        for (echo, recv) in [(edge + 1, 0), (0, edge + 1), (u64::MAX, u64::MAX)] {
            let bad = AckPacket {
                echo_send_time_us: echo,
                recv_time_us: recv,
                ..ok.clone()
            };
            assert!(
                matches!(
                    AckPacket::decode(&bad.encode()),
                    Err(WireDecodeError::TimestampOutOfRange { .. })
                ),
                "echo {echo} / recv {recv} decoded"
            );
        }
        let data = DataPacket {
            send_time_us: edge + 1,
            ..sample_data()
        };
        assert_eq!(
            DataPacket::decode(&data.encode()),
            Err(WireDecodeError::TimestampOutOfRange { us: edge + 1 })
        );
        let data = DataPacket {
            send_time_us: edge,
            ..sample_data()
        };
        assert_eq!(DataPacket::decode(&data.encode()), Ok(data));
        assert!(WireDecodeError::TimestampOutOfRange { us: 7 }
            .to_string()
            .contains("7 us"));
    }

    #[test]
    fn error_display() {
        let e = WireDecodeError::Truncated { need: 34, got: 5 };
        assert!(e.to_string().contains("need 34"));
    }
}
