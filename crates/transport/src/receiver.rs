//! The UDP receiver: timestamp and acknowledge every data packet.
//!
//! Mirrors the prototype's receiver application (§5): it is entirely
//! stateless per packet — decode, stamp with the local clock, echo an
//! ACK to the packet's source. The echoed fields (send time, sending
//! window) carry everything the sender-side algorithm needs, so the
//! receiver needs no per-flow state at all.

use crate::clock::WallClock;
use crate::io_batch::{batcher_for, IoMode, OutQueue};
use std::net::UdpSocket;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;
use verus_nettypes::packet::ACK_LEN;
use verus_nettypes::{AckPacket, DataPacket};

/// A running receiver thread.
pub struct ReceiverHandle {
    stop: Arc<AtomicBool>,
    received: Arc<AtomicU64>,
    bytes: Arc<AtomicU64>,
    thread: Option<JoinHandle<()>>,
    local_addr: std::net::SocketAddr,
}

/// The receiver factory.
pub struct Receiver;

impl Receiver {
    /// Spawns a receiver on `bind_addr` (e.g. `"127.0.0.1:0"`), ACKing
    /// every data packet with timestamps from `clock`.
    pub fn spawn(bind_addr: &str, clock: WallClock) -> std::io::Result<ReceiverHandle> {
        let socket = UdpSocket::bind(bind_addr)?;
        let local_addr = socket.local_addr()?;
        socket.set_read_timeout(Some(Duration::from_millis(20)))?;
        let stop = Arc::new(AtomicBool::new(false));
        let received = Arc::new(AtomicU64::new(0));
        let bytes = Arc::new(AtomicU64::new(0));
        let t_stop = Arc::clone(&stop);
        let t_received = Arc::clone(&received);
        let t_bytes = Arc::clone(&bytes);
        let thread = std::thread::Builder::new()
            .name("verus-receiver".into())
            .spawn(move || {
                let mut buf = [0u8; 65_536];
                while !t_stop.load(Ordering::Relaxed) { // ordering: advisory stop flag; the 20 ms read timeout bounds shutdown latency
                    match socket.recv_from(&mut buf) {
                        Ok((n, src)) => {
                            let Ok(pkt) = DataPacket::decode(&buf[..n]) else {
                                continue; // not a data packet; ignore
                            };
                            t_received.fetch_add(1, Ordering::Relaxed); // ordering: monotonic stat counter; nothing else depends on it
                            t_bytes.fetch_add(n as u64, Ordering::Relaxed); // ordering: monotonic stat counter; nothing else depends on it
                            let ack = AckPacket::for_packet(&pkt, clock.now_micros());
                            // Best effort: a dropped ACK looks like loss
                            // to the sender, which is correct behaviour.
                            let _ = socket.send_to(&ack.encode(), src);
                        }
                        Err(e)
                            if e.kind() == std::io::ErrorKind::WouldBlock
                                || e.kind() == std::io::ErrorKind::TimedOut =>
                        {
                            continue;
                        }
                        Err(_) => break,
                    }
                }
            })?;
        Ok(ReceiverHandle {
            stop,
            received,
            bytes,
            thread: Some(thread),
            local_addr,
        })
    }

    /// Spawns a receiver whose socket runs through the batched I/O
    /// plane ([`crate::io_batch`]): one `recvmmsg` ingests up to a
    /// batch of data packets, their ACKs go back out in one `sendmmsg`.
    /// Same wire behaviour as [`Self::spawn`] — this is the ACK peer
    /// for the sharded load server, where per-datagram syscalls on the
    /// receive side would dominate the measurement.
    pub fn spawn_batched(
        bind_addr: &str,
        clock: WallClock,
        mode: IoMode,
    ) -> std::io::Result<ReceiverHandle> {
        let socket = UdpSocket::bind(bind_addr)?;
        let local_addr = socket.local_addr()?;
        let mut io = batcher_for(socket, mode)?;
        let stop = Arc::new(AtomicBool::new(false));
        let received = Arc::new(AtomicU64::new(0));
        let bytes = Arc::new(AtomicU64::new(0));
        let t_stop = Arc::clone(&stop);
        let t_received = Arc::clone(&received);
        let t_bytes = Arc::clone(&bytes);
        let thread = std::thread::Builder::new()
            .name("verus-receiver-batched".into())
            .spawn(move || {
                let mut acks = OutQueue::new();
                loop {
                    if t_stop.load(Ordering::Relaxed) { // ordering: advisory stop flag; the idle sleep below bounds shutdown latency
                        break;
                    }
                    let mut drained = 0usize;
                    loop {
                        let got = io.recv_batch(&mut |raw, src| {
                            let Ok(pkt) = DataPacket::decode(raw) else {
                                return; // not a data packet; ignore
                            };
                            t_received.fetch_add(1, Ordering::Relaxed); // ordering: monotonic stat counter; nothing else depends on it
                            t_bytes.fetch_add(raw.len() as u64, Ordering::Relaxed); // ordering: monotonic stat counter; nothing else depends on it
                            AckPacket::for_packet(&pkt, clock.now_micros())
                                .write(acks.push(src, ACK_LEN));
                        });
                        let Ok(got) = got else { return };
                        drained += got.datagrams;
                        if !got.full {
                            break;
                        }
                    }
                    // Best effort: a refused ACK looks like loss to the
                    // sender, which is correct behaviour.
                    if !acks.is_empty() && io.send_batch(&mut acks).is_err() {
                        return;
                    }
                    if drained == 0 {
                        std::thread::sleep(Duration::from_micros(200));
                    }
                }
            })?;
        Ok(ReceiverHandle {
            stop,
            received,
            bytes,
            thread: Some(thread),
            local_addr,
        })
    }
}

impl ReceiverHandle {
    /// The bound address (useful with port 0).
    #[must_use]
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.local_addr
    }

    /// Packets received so far.
    #[must_use]
    pub fn received(&self) -> u64 {
        self.received.load(Ordering::Relaxed) // ordering: monotone counter snapshot; staleness is acceptable
    }

    /// A cloneable handle onto the live delivered-packet counter, for
    /// wiring into [`crate::EmulatorHandle::attach_delivered`] so the
    /// emulator's trace counters can report receiver-side deliveries
    /// next to its own forwarded tally.
    #[must_use]
    pub fn delivered_counter(&self) -> Arc<AtomicU64> {
        Arc::clone(&self.received)
    }

    /// Bytes received so far.
    #[must_use]
    pub fn bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed) // ordering: monotone counter snapshot; staleness is acceptable
    }

    /// Stops the receiver and joins its thread.
    pub fn stop(mut self) {
        self.stop.store(true, Ordering::Relaxed); // ordering: advisory flag; join() below is the synchronization
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for ReceiverHandle {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed); // ordering: advisory flag; join() below is the synchronization
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn receiver_acks_data_packets() {
        let clock = WallClock::new();
        let rx = Receiver::spawn("127.0.0.1:0", clock).unwrap();
        let sock = UdpSocket::bind("127.0.0.1:0").unwrap();
        sock.set_read_timeout(Some(Duration::from_secs(2))).unwrap();

        let pkt = DataPacket {
            flow: 1,
            seq: 42,
            send_time_us: clock.now_micros(),
            send_window: 7.0,
            payload_len: 100,
        };
        sock.send_to(&pkt.encode(), rx.local_addr()).unwrap();

        let mut buf = [0u8; 1500];
        let (n, _) = sock.recv_from(&mut buf).unwrap();
        let ack = AckPacket::decode(&buf[..n]).unwrap();
        assert_eq!(ack.seq, 42);
        assert_eq!(ack.flow, 1);
        assert_eq!(ack.echo_send_time_us, pkt.send_time_us);
        assert!((ack.send_window - 7.0).abs() < 1e-3);
        assert_eq!(rx.received(), 1);
        rx.stop();
    }

    #[test]
    fn batched_receiver_acks_on_both_backends() {
        for mode in [IoMode::Batched, IoMode::PerPacket] {
            let clock = WallClock::new();
            let rx = Receiver::spawn_batched("127.0.0.1:0", clock, mode).unwrap();
            let sock = UdpSocket::bind("127.0.0.1:0").unwrap();
            sock.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
            for seq in 0..10u64 {
                let pkt = DataPacket {
                    flow: 3,
                    seq,
                    send_time_us: clock.now_micros(),
                    send_window: 2.0,
                    payload_len: 0,
                };
                sock.send_to(&pkt.encode(), rx.local_addr()).unwrap();
            }
            let mut buf = [0u8; 1500];
            let mut seen = std::collections::BTreeSet::new();
            for _ in 0..10 {
                let (n, _) = sock.recv_from(&mut buf).unwrap();
                let ack = AckPacket::decode(&buf[..n]).unwrap();
                assert_eq!(ack.flow, 3);
                seen.insert(ack.seq);
            }
            assert_eq!(seen.len(), 10, "every sequence ACKed ({mode:?})");
            assert_eq!(rx.received(), 10);
            rx.stop();
        }
    }

    #[test]
    fn receiver_ignores_garbage() {
        let clock = WallClock::new();
        let rx = Receiver::spawn("127.0.0.1:0", clock).unwrap();
        let sock = UdpSocket::bind("127.0.0.1:0").unwrap();
        sock.set_read_timeout(Some(Duration::from_millis(200)))
            .unwrap();
        sock.send_to(b"not a verus packet", rx.local_addr()).unwrap();
        let mut buf = [0u8; 64];
        assert!(sock.recv_from(&mut buf).is_err(), "no ACK expected");
        assert_eq!(rx.received(), 0);
        rx.stop();
    }
}
