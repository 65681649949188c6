//! Batched UDP socket I/O — the syscall and kernel-stack amortization
//! layer.
//!
//! Per-packet `sendto`/`recvfrom` is the transport plane's dominant
//! cost at scale. It pays twice per 34-byte datagram: one user/kernel
//! crossing, and one trip through the kernel's UDP/IP stack. Linux
//! amortizes both, and [`MmsgIo`] uses both:
//!
//! * **Syscall batching.** `sendmmsg(2)` moves up to [`BATCH`] messages
//!   per call, `recvmmsg(2)` up to 16.
//! * **Segmentation offload.** One send message carries a whole run of
//!   consecutive queued datagrams that share destination and length,
//!   up to [`BATCH`] of them within one 65 507-byte IPv4 payload,
//!   tagged with a `UDP_SEGMENT` cmsg (GSO). The kernel carries the run
//!   through its stack as one packet. Receiving sockets enable
//!   `UDP_GRO`, so a run arrives as one message whose cmsg names the
//!   segment size, and the batcher splits it back in order; a message
//!   without that cmsg is one datagram. A kernel that refuses a
//!   segmented send (`EINVAL`/`EIO`/`EMSGSIZE`, e.g. with `SO_NO_CHECK`
//!   set) gets those datagrams again as plain messages. If they go
//!   through, that socket stops segmenting; if they fail too, the
//!   destination was at fault, segmenting stays on and the error is
//!   returned.
//!
//! Measured with perfbench's `udp_crowd` (1k Verus flows × 200
//! header-only packets over loopback, one shard, batched receiver) on a
//! 2-core x86-64 VM under Linux 6.18, 10 alternating pairs of 30 s
//! runs: CPU per ACKed packet fell from 5.48 µs (quartiles 5.23–5.63)
//! to 0.91 µs (0.87–0.96), 6.0×, lower in 10 of 10 pairs; system time
//! fell from 90 % to 34 % of CPU. Per layer (one 10 s traced run),
//! datagrams per syscall rose from 61 to 257, p99 epoch lateness fell
//! from 7.5 ms to 1 ms and goodput rose from 338k to 372k packets/s.
//!
//! Outbound datagrams queue in an [`OutQueue`]: one byte arena holding
//! them back to back, plus a `(destination, offset, length)` index. The
//! codec writes data packets and ACKs straight into the arena
//! (`DataPacket::write`, `AckPacket::write`), the mmsg path points its
//! iovecs into it, and a send empties the queue but keeps both
//! allocations. Each datagram used to be an owned `Vec<u8>` copied out
//! of a fresh encode buffer, two allocations per data packet and two per
//! ACK. A counting global allocator over two loopback crowds of 100
//! Verus flows (`tests/alloc_steady_state.rs`) measured 4.01 → 0.0045
//! allocations per further ACKed packet. On `udp_crowd` (same VM, 10
//! alternating pairs of 30 s runs, seed 1) CPU per ACKed packet fell
//! from 1.74 µs (quartiles 1.67–1.76) to 1.35 µs (1.33–1.39), −22 %,
//! lower in 10 of 10 pairs.
//!
//! [`IoBatcher`] hides the backend:
//!
//! * [`MmsgIo`] (Linux, 64-bit) drives the socket through hand-rolled
//!   `extern "C"` bindings to glibc — the workspace deliberately has no
//!   `libc` crate, and std links glibc anyway, so the symbols and
//!   `#[repr(C)]` structs are declared here (x86-64 layout, pinned by
//!   tests);
//! * [`PerPacketIo`] is the portable fallback: the exact same contract
//!   over one-datagram `send_to`/`recv_from` loops, so everything above
//!   this trait runs unchanged off-Linux — and so the batching speedup
//!   can be *measured* as batched-vs-fallback on the same machine.
//!
//! Both implementations count syscalls, messages and datagrams
//! ([`IoCounters`]); datagrams per syscall is the headline figure
//! (perfbench's `transport.io.pkts_per_syscall`, gated in CI), and
//! datagrams per message shows how much was coalesced. Sockets are
//! switched to non-blocking: pacing sleeps belong to the caller's timer
//! plane, not to read timeouts.
//!
//! The FFI module is the only `unsafe` in the workspace; the crate root
//! is `#![deny(unsafe_code)]` with a scoped `allow` here, and CI's Miri
//! job does not cover it — instead the fallback path provides a
//! behavioural oracle (the tier-1 load test runs both paths and
//! requires identical ledgers and byte-identical deterministic
//! snapshots).

use std::io;
use std::net::{SocketAddr, UdpSocket};

/// The batch size: messages per `sendmmsg`, datagrams per segmented
/// message, and the fallback's per-call packet budget.
pub const BATCH: usize = 64;

/// Largest datagram the per-packet receive path accepts without
/// truncation (the mmsg path takes 64 KiB). Paper packets are 1400-byte
/// payloads + 34-byte headers; 2 KiB leaves room.
pub const MAX_DATAGRAM: usize = 2048;

/// Which I/O backend to drive a socket with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoMode {
    /// `sendmmsg`/`recvmmsg` batches. On platforms without the syscalls
    /// this silently degrades to the fallback ([`IoBatcher::backend`]
    /// reports what actually runs).
    Batched,
    /// One datagram per syscall — the portable baseline.
    PerPacket,
}

impl IoMode {
    /// The best mode this platform supports.
    #[must_use]
    pub fn auto() -> Self {
        if cfg!(all(target_os = "linux", target_pointer_width = "64")) {
            IoMode::Batched
        } else {
            IoMode::PerPacket
        }
    }
}

/// The datagrams queued for one [`IoBatcher::send_batch`]: one byte
/// arena holding every queued datagram back to back, plus a
/// `(destination, offset, length)` index in send order. Callers write
/// each datagram straight into the arena ([`Self::push`]); a send
/// empties the queue but keeps both allocations, so once the first
/// batches have grown them a steady-state batch allocates nothing.
#[derive(Debug, Default)]
pub struct OutQueue {
    arena: Vec<u8>,
    index: Vec<Queued>,
}

/// Where one queued datagram lives in the arena, and where it goes.
#[derive(Debug, Clone, Copy)]
struct Queued {
    /// Destination address (batchers drive unconnected sockets).
    to: SocketAddr,
    at: usize,
    len: usize,
}

impl OutQueue {
    /// An empty queue; it allocates on the first push.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Queues a `len`-byte datagram for `to` and returns its bytes,
    /// zeroed, for the caller to write.
    pub fn push(&mut self, to: SocketAddr, len: usize) -> &mut [u8] {
        let at = self.arena.len();
        self.arena.resize(at + len, 0);
        self.index.push(Queued { to, at, len });
        &mut self.arena[at..]
    }

    /// Datagrams queued.
    #[must_use]
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether nothing is queued.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Drops every queued datagram, keeping the allocations.
    pub(crate) fn clear(&mut self) {
        self.arena.clear();
        self.index.clear();
    }

    /// The queued datagrams in send order: destination and wire bytes.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (SocketAddr, &[u8])> {
        self.index.iter().map(|q| (q.to, self.bytes(q)))
    }

    fn bytes(&self, q: &Queued) -> &[u8] {
        &self.arena[q.at..q.at + q.len]
    }
}

/// Syscall/datagram accounting, owned by the batcher's thread.
#[derive(Debug, Clone, Copy, Default)]
pub struct IoCounters {
    /// Send-side syscalls issued (`sendmmsg` or `send_to`).
    pub send_calls: u64,
    /// Receive-side syscalls issued, including the final empty poll of
    /// each drain (`recvmmsg` or `recv_from`).
    pub recv_calls: u64,
    /// Datagrams handed to the kernel.
    pub sent_pkts: u64,
    /// Datagrams read from the kernel.
    pub recvd_pkts: u64,
    /// Messages handed to the kernel: one per datagram, or one per
    /// segmented run of up to 64 datagrams.
    pub sent_msgs: u64,
    /// Messages read from the kernel: one per datagram, or one per run
    /// the kernel coalesced (GRO).
    pub recvd_msgs: u64,
    /// Datagrams the kernel refused (full socket buffer, transient
    /// errors). UDP semantics: indistinguishable from wire loss, so
    /// callers recover through their ordinary retransmission path.
    pub send_failed: u64,
}

impl IoCounters {
    /// Total syscalls across both directions.
    #[must_use]
    pub fn syscalls(&self) -> u64 {
        self.send_calls + self.recv_calls
    }

    /// Total datagrams moved across both directions.
    #[must_use]
    pub fn packets(&self) -> u64 {
        self.sent_pkts + self.recvd_pkts
    }

    /// Syscalls per datagram moved (`NaN`-free: 0 packets → 0.0).
    #[must_use]
    pub fn syscalls_per_packet(&self) -> f64 {
        let pkts = self.packets();
        if pkts == 0 {
            return 0.0;
        }
        self.syscalls() as f64 / pkts as f64
    }

    /// Field-wise sum, for aggregating per-shard counters.
    #[must_use]
    pub fn merged(&self, other: &IoCounters) -> IoCounters {
        IoCounters {
            send_calls: self.send_calls + other.send_calls,
            recv_calls: self.recv_calls + other.recv_calls,
            sent_pkts: self.sent_pkts + other.sent_pkts,
            recvd_pkts: self.recvd_pkts + other.recvd_pkts,
            sent_msgs: self.sent_msgs + other.sent_msgs,
            recvd_msgs: self.recvd_msgs + other.recvd_msgs,
            send_failed: self.send_failed + other.send_failed,
        }
    }
}

/// What one [`IoBatcher::recv_batch`] call moved.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Received {
    /// Datagrams handed to the sink.
    pub datagrams: usize,
    /// Every receive slot was used, so the socket may hold more:
    /// callers draining a backlog call again. The datagram count cannot
    /// tell, because one coalesced slot carries many datagrams.
    pub full: bool,
}

/// A socket driver moving datagrams in batches. One instance per
/// socket, owned by one thread.
pub trait IoBatcher: Send {
    /// The driven socket's bound address.
    ///
    /// # Errors
    /// Propagates `getsockname` failures.
    fn local_addr(&self) -> io::Result<SocketAddr>;

    /// Which backend actually runs: `"mmsg"` or `"per-packet"`.
    fn backend(&self) -> &'static str;

    /// Sends every queued datagram and leaves `out` empty, also when it
    /// returns an error. Datagrams the kernel refuses are dropped and
    /// counted ([`IoCounters::send_failed`]) — UDP loss semantics,
    /// recovered by retransmission. Returns how many datagrams were
    /// handed to the kernel.
    ///
    /// # Errors
    /// Propagates only hard socket errors (the socket is gone);
    /// `WouldBlock`-class conditions are absorbed into `send_failed`.
    fn send_batch(&mut self, out: &mut OutQueue) -> io::Result<usize>;

    /// Drains one batch of readable datagrams into `sink`, in arrival
    /// order. Callers loop while [`Received::full`] to drain a deeper
    /// backlog.
    ///
    /// # Errors
    /// Propagates only hard socket errors; an empty socket returns
    /// zero datagrams.
    fn recv_batch(
        &mut self,
        sink: &mut dyn FnMut(&[u8], SocketAddr),
    ) -> io::Result<Received>;

    /// Accounting snapshot.
    fn counters(&self) -> IoCounters;
}

/// Kernel socket buffer request (each direction) for batcher-driven
/// sockets. A shard multiplexing thousands of flows can burst far past
/// the ~208 KiB default before its loop drains; the kernel clamps the
/// request to `net.core.{r,w}mem_max`, and failures are ignored —
/// undersized buffers just surface as recoverable UDP loss.
const SOCKET_BUFFER_BYTES: i32 = 4 << 20;

/// Wraps `socket` in the batcher for `mode`. The socket is switched to
/// non-blocking — pacing belongs to the caller's timer plane. On Linux
/// the kernel buffers are grown (best-effort) to
/// [`SOCKET_BUFFER_BYTES`] for **both** backends, so batched-vs-fallback
/// comparisons isolate syscall batching, not buffer sizing.
///
/// # Errors
/// Propagates `set_nonblocking` failures.
pub fn batcher_for(socket: UdpSocket, mode: IoMode) -> io::Result<Box<dyn IoBatcher>> {
    socket.set_nonblocking(true)?;
    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    mmsg::tune_buffers(&socket, SOCKET_BUFFER_BYTES);
    match mode {
        #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
        IoMode::Batched => Ok(Box::new(mmsg::MmsgIo::new(socket))),
        #[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
        IoMode::Batched => Ok(Box::new(PerPacketIo::new(socket))),
        IoMode::PerPacket => Ok(Box::new(PerPacketIo::new(socket))),
    }
}

/// Whether an I/O error means "no data / try later" rather than a dead
/// socket.
fn is_transient(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut | io::ErrorKind::Interrupted
    )
}

/// The portable one-datagram-per-syscall fallback.
pub struct PerPacketIo {
    socket: UdpSocket,
    counters: IoCounters,
    buf: Box<[u8; MAX_DATAGRAM]>,
}

impl PerPacketIo {
    /// Wraps a (non-blocking) socket.
    #[must_use]
    pub fn new(socket: UdpSocket) -> Self {
        Self {
            socket,
            counters: IoCounters::default(),
            buf: Box::new([0u8; MAX_DATAGRAM]),
        }
    }

    /// Sends every datagram in `out`, in order; the queue itself is left
    /// to [`IoBatcher::send_batch`] to empty.
    fn send_queue(&mut self, out: &OutQueue) -> io::Result<usize> {
        let mut sent = 0usize;
        for (to, bytes) in out.iter() {
            self.counters.send_calls += 1;
            match self.socket.send_to(bytes, to) {
                Ok(_) => {
                    self.counters.sent_pkts += 1;
                    self.counters.sent_msgs += 1;
                    sent += 1;
                }
                Err(e) if is_transient(&e) => self.counters.send_failed += 1,
                Err(e) => return Err(e),
            }
        }
        Ok(sent)
    }
}

impl IoBatcher for PerPacketIo {
    fn local_addr(&self) -> io::Result<SocketAddr> {
        self.socket.local_addr()
    }

    fn backend(&self) -> &'static str {
        "per-packet"
    }

    fn send_batch(&mut self, out: &mut OutQueue) -> io::Result<usize> {
        let sent = self.send_queue(out);
        out.clear();
        sent
    }

    fn recv_batch(
        &mut self,
        sink: &mut dyn FnMut(&[u8], SocketAddr),
    ) -> io::Result<Received> {
        let mut got = 0usize;
        while got < BATCH {
            self.counters.recv_calls += 1;
            match self.socket.recv_from(&mut self.buf[..]) {
                Ok((n, src)) => {
                    self.counters.recvd_pkts += 1;
                    self.counters.recvd_msgs += 1;
                    got += 1;
                    sink(&self.buf[..n], src);
                }
                Err(e) if is_transient(&e) => break,
                Err(e) => return Err(e),
            }
        }
        Ok(Received {
            datagrams: got,
            full: got == BATCH,
        })
    }

    fn counters(&self) -> IoCounters {
        self.counters
    }
}

/// `sendmmsg`/`recvmmsg` bindings, UDP segmentation offload, and the
/// batcher built on them.
///
/// The workspace intentionally carries no `libc` dependency; std links
/// glibc, which exports every symbol used, so they are declared
/// directly. Struct layouts are the x86-64 Linux ABI (`#[repr(C)]`
/// reproduces glibc's padding); `layout_matches_abi` pins the sizes.
/// IPv4 only — the whole testbed runs on loopback — with a per-packet
/// fallback for any non-IPv4 destination.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
#[allow(unsafe_code)]
mod mmsg {
    use super::{is_transient, IoBatcher, IoCounters, OutQueue, Received, BATCH};
    use std::io;
    use std::net::{Ipv4Addr, SocketAddr, SocketAddrV4, UdpSocket};
    use std::ops::Range;
    use std::os::fd::AsRawFd;

    const AF_INET: u16 = 2;
    /// `SOL_SOCKET` on Linux.
    pub(super) const SOL_SOCKET: i32 = 1;
    /// `SO_SNDBUF` / `SO_RCVBUF` option names (Linux generic ABI).
    const SO_SNDBUF: i32 = 7;
    const SO_RCVBUF: i32 = 8;
    /// `SOL_UDP` (= `IPPROTO_UDP`) and its offload options.
    const SOL_UDP: i32 = 17;
    const UDP_SEGMENT: i32 = 103;
    const UDP_GRO: i32 = 104;
    /// The errnos with which a `UDP_SEGMENT` send is refused when the
    /// socket or route cannot offload it.
    const EIO: i32 = 5;
    const EINVAL: i32 = 22;
    const EMSGSIZE: i32 = 90;

    /// Largest UDP payload of one IPv4 datagram (65 535 − 20 − 8). A
    /// segmented message's whole payload must fit in it.
    const MAX_UDP_PAYLOAD: usize = 65_507;
    /// Message slots per `recvmmsg`. With GRO one slot holds up to 64
    /// datagrams, so 16 slots still drain 1024 datagrams per call.
    pub(super) const RECV_SLOTS: usize = 16;
    /// Bytes per receive slot: the largest coalesced IPv4 message. A
    /// smaller slot would truncate a GRO message and lose its tail.
    const RECV_SLOT_BYTES: usize = 1 << 16;
    /// `sizeof(struct cmsghdr)`: `size_t len; int level; int type;`.
    const CMSG_HDR: usize = 16;
    /// Control bytes per message; the one cmsg used takes 24.
    const CONTROL_BYTES: usize = 64;

    extern "C" {
        fn setsockopt(fd: i32, level: i32, optname: i32, optval: *const u8, optlen: u32) -> i32;
    }

    /// Sets an `int`-valued socket option; returns whether the kernel
    /// accepted it.
    pub(super) fn set_int(socket: &UdpSocket, level: i32, opt: i32, value: i32) -> bool {
        // SAFETY: `optval` points at a live i32 for the duration of
        // the call and `optlen` matches its size exactly.
        let rc = unsafe {
            setsockopt(
                socket.as_raw_fd(),
                level,
                opt,
                std::ptr::from_ref(&value).cast(),
                u32::try_from(std::mem::size_of::<i32>()).unwrap_or(4),
            )
        };
        rc == 0
    }

    /// Best-effort kernel buffer sizing, both directions. The kernel
    /// clamps the request to `net.core.{r,w}mem_max`; errors are
    /// swallowed because an undersized buffer is just UDP loss, which
    /// the transport already recovers from.
    pub fn tune_buffers(socket: &UdpSocket, bytes: i32) {
        for opt in [SO_RCVBUF, SO_SNDBUF] {
            let _ = set_int(socket, SOL_SOCKET, opt, bytes);
        }
    }

    #[repr(C)]
    #[derive(Clone, Copy)]
    struct SockAddrIn {
        family: u16,
        /// Big-endian on the wire, as the kernel expects.
        port_be: u16,
        /// Big-endian IPv4 address.
        addr_be: u32,
        zero: [u8; 8],
    }

    impl SockAddrIn {
        const ZEROED: SockAddrIn = SockAddrIn {
            family: 0,
            port_be: 0,
            addr_be: 0,
            zero: [0; 8],
        };

        fn from_v4(a: &SocketAddrV4) -> Self {
            SockAddrIn {
                family: AF_INET,
                port_be: a.port().to_be(),
                addr_be: u32::from(*a.ip()).to_be(),
                zero: [0; 8],
            }
        }

        fn to_socket_addr(self) -> Option<SocketAddr> {
            (self.family == AF_INET).then(|| {
                SocketAddr::V4(SocketAddrV4::new(
                    Ipv4Addr::from(u32::from_be(self.addr_be)),
                    u16::from_be(self.port_be),
                ))
            })
        }
    }

    #[repr(C)]
    struct IoVec {
        base: *mut u8,
        len: usize,
    }

    #[repr(C)]
    struct MsgHdr {
        name: *mut SockAddrIn,
        namelen: u32,
        iov: *mut IoVec,
        iovlen: usize,
        control: *mut u8,
        controllen: usize,
        flags: i32,
    }

    #[repr(C)]
    struct MMsgHdr {
        hdr: MsgHdr,
        len: u32,
    }

    /// One message's ancillary data, aligned like `struct cmsghdr`.
    #[repr(C, align(8))]
    #[derive(Clone, Copy)]
    struct Control([u8; CONTROL_BYTES]);

    impl Control {
        const ZEROED: Control = Control([0; CONTROL_BYTES]);

        /// Writes a `UDP_SEGMENT` cmsg telling the kernel to cut the
        /// message into `size`-byte datagrams; returns the bytes used
        /// (`CMSG_SPACE(sizeof(u16))`).
        fn set_segment(&mut self, size: u16) -> usize {
            let b = &mut self.0;
            b[..8].copy_from_slice(&(CMSG_HDR + 2).to_ne_bytes());
            b[8..12].copy_from_slice(&SOL_UDP.to_ne_bytes());
            b[12..16].copy_from_slice(&UDP_SEGMENT.to_ne_bytes());
            b[16..18].copy_from_slice(&size.to_ne_bytes());
            CMSG_HDR + 8
        }
    }

    /// The `UDP_GRO` segment size carried in a received control buffer,
    /// or `None` when that cmsg is missing, short or malformed.
    fn gro_size(control: &[u8]) -> Option<usize> {
        let mut rest = control;
        while rest.len() >= CMSG_HDR {
            let len = usize::from_ne_bytes(rest[..8].try_into().ok()?);
            let level = i32::from_ne_bytes(rest[8..12].try_into().ok()?);
            let kind = i32::from_ne_bytes(rest[12..16].try_into().ok()?);
            if len < CMSG_HDR || len > rest.len() {
                return None;
            }
            if level == SOL_UDP && kind == UDP_GRO {
                let data = rest[CMSG_HDR..len].get(..4)?;
                return usize::try_from(i32::from_ne_bytes(data.try_into().ok()?)).ok();
            }
            // CMSG_NXTHDR: the next header starts 8-aligned.
            rest = rest.get(len.next_multiple_of(8)..)?;
        }
        None
    }

    /// Splits one received message into the datagrams GRO coalesced
    /// into it: `gso_size`-byte segments, the last possibly shorter.
    /// Without a usable size (no or malformed cmsg, 0, or not below the
    /// message length) the message is one datagram. No segment is empty
    /// except the one datagram of a zero-length message.
    fn gro_split<'a>(msg: &'a [u8], control: &[u8]) -> impl Iterator<Item = &'a [u8]> {
        let step = gro_size(control)
            .filter(|&g| g > 0 && g < msg.len())
            .unwrap_or(msg.len());
        msg.chunks(step.max(1)).chain(msg.is_empty().then_some(msg))
    }

    /// Datagrams one segmented message may carry at `len` bytes each:
    /// at most [`BATCH`], with the whole payload in one IPv4 datagram.
    fn max_segments(len: usize) -> usize {
        match MAX_UDP_PAYLOAD.checked_div(len) {
            Some(n) => n.clamp(1, BATCH),
            None => 1,
        }
    }

    /// Datagrams in laid-out send messages: one per iovec.
    fn datagrams(hdrs: &[MMsgHdr]) -> usize {
        hdrs.iter().map(|h| h.hdr.iovlen).sum()
    }

    /// Whether a failed segmented send means "this socket cannot
    /// offload" (e.g. `SO_NO_CHECK` set, route MTU below the segment)
    /// rather than a dead socket.
    fn refuses_gso(e: &io::Error) -> bool {
        matches!(e.raw_os_error(), Some(EINVAL | EIO | EMSGSIZE))
    }

    extern "C" {
        fn sendmmsg(fd: i32, msgvec: *mut MMsgHdr, vlen: u32, flags: i32) -> i32;
        fn recvmmsg(
            fd: i32,
            msgvec: *mut MMsgHdr,
            vlen: u32,
            flags: i32,
            timeout: *mut u8,
        ) -> i32;
    }

    /// The batched driver: reusable address/control/iovec/header arrays
    /// so a steady-state batch allocates nothing.
    pub struct MmsgIo {
        socket: UdpSocket,
        counters: IoCounters,
        /// Whether sends coalesce runs with `UDP_SEGMENT`; latched off
        /// the first time the kernel refuses a segmented message whose
        /// datagrams then go through plain.
        gso: bool,
        /// Receive payload, [`RECV_SLOTS`] × [`RECV_SLOT_BYTES`]. Empty
        /// until the first receive, so it is allocated in the thread
        /// that drives the batcher, not in whichever thread built it.
        arena: Vec<u8>,
        addrs: Vec<SockAddrIn>,
        controls: Vec<Control>,
        iovecs: Vec<IoVec>,
        hdrs: Vec<MMsgHdr>,
    }

    // SAFETY: the raw pointers inside `iovecs`/`hdrs` are only ever
    // written and read within a single `send_batch`/`recv_batch` call on
    // the owning thread; between calls they are dangling-but-unused.
    // All pointed-to storage (`arena`, `addrs`, `controls`, caller
    // buffers) is heap-owned by the struct or outlives the call.
    unsafe impl Send for MmsgIo {}

    impl MmsgIo {
        pub fn new(socket: UdpSocket) -> Self {
            // Best effort: without GRO every message is one datagram,
            // which the receive path handles the same way.
            let _ = set_int(&socket, SOL_UDP, UDP_GRO, 1);
            Self {
                socket,
                counters: IoCounters::default(),
                gso: true,
                arena: Vec::new(),
                addrs: vec![SockAddrIn::ZEROED; BATCH],
                controls: vec![Control::ZEROED; BATCH],
                iovecs: Vec::with_capacity(BATCH),
                hdrs: Vec::with_capacity(BATCH),
            }
        }

        /// Lays out up to [`BATCH`] messages from the IPv4 prefix of
        /// `out`'s datagrams in `range`, one per maximal run of
        /// datagrams that share destination and length (capped by
        /// [`max_segments`], or 1 with GSO off). The iovecs point into
        /// the queue's arena.
        fn lay_out(&mut self, out: &OutQueue, range: Range<usize>) {
            self.iovecs.clear();
            self.hdrs.clear();
            let pkts = &out.index[range];
            let mut i = 0;
            while let Some(first) = pkts.get(i) {
                let SocketAddr::V4(to) = first.to else { break };
                if self.hdrs.len() == BATCH {
                    break;
                }
                let len = first.len;
                let gso_size = u16::try_from(len).ok().filter(|_| self.gso);
                let cap = gso_size.map_or(1, |_| max_segments(len));
                let run = pkts[i..]
                    .iter()
                    .take(cap)
                    .take_while(|p| p.to == first.to && p.len == len)
                    .count();
                let m = self.hdrs.len();
                self.addrs[m] = SockAddrIn::from_v4(&to);
                let controllen = match gso_size {
                    Some(size) if run > 1 => self.controls[m].set_segment(size),
                    _ => 0,
                };
                for p in &pkts[i..i + run] {
                    let bytes = out.bytes(p);
                    self.iovecs.push(IoVec {
                        base: bytes.as_ptr().cast_mut(),
                        len: bytes.len(),
                    });
                }
                self.hdrs.push(MMsgHdr {
                    hdr: MsgHdr {
                        name: std::ptr::null_mut(),
                        namelen: u32::try_from(std::mem::size_of::<SockAddrIn>())
                            .unwrap_or(16),
                        iov: std::ptr::null_mut(),
                        iovlen: run,
                        control: std::ptr::null_mut(),
                        controllen,
                        flags: 0,
                    },
                    len: 0,
                });
                i += run;
            }
            // Wire the pointers after the pushes: `Vec` growth above
            // would have invalidated earlier elements' addresses.
            let mut first_iov = 0;
            for (m, h) in self.hdrs.iter_mut().enumerate() {
                h.hdr.name = &mut self.addrs[m];
                h.hdr.iov = &mut self.iovecs[first_iov];
                if h.hdr.controllen > 0 {
                    h.hdr.control = self.controls[m].0.as_mut_ptr();
                }
                first_iov += h.hdr.iovlen;
            }
        }

        /// Sends the laid-out messages and returns how many datagrams
        /// they consumed (sent, or refused and counted in
        /// `send_failed`), plus the length of the run in the segmented
        /// message the kernel refused, if it refused one. The refused
        /// run and everything after it are not consumed.
        fn send_laid_out(&mut self) -> io::Result<(usize, Option<usize>)> {
            let mut done = 0usize;
            let mut m = 0usize;
            while m < self.hdrs.len() {
                let pending = &mut self.hdrs[m..];
                let vlen = u32::try_from(pending.len()).unwrap_or(0);
                self.counters.send_calls += 1;
                // SAFETY: `pending` holds `vlen` fully initialized
                // mmsghdr entries; every name/iov/control pointer
                // targets storage that outlives this call (`self.addrs`,
                // `self.iovecs`, `self.controls`, the caller's queue).
                let rc = unsafe {
                    sendmmsg(self.socket.as_raw_fd(), pending.as_mut_ptr(), vlen, 0)
                };
                // A partial send stops at the first message the kernel
                // refused; the next call reports why.
                let k = usize::try_from(rc).unwrap_or(0).min(self.hdrs.len() - m);
                if k == 0 {
                    let e = io::Error::last_os_error();
                    let run = self.hdrs[m].hdr.iovlen;
                    if run > 1 && refuses_gso(&e) {
                        return Ok((done, Some(run)));
                    }
                    if is_transient(&e) {
                        // Full socket buffer: UDP loss semantics.
                        let rest = datagrams(&self.hdrs[m..]);
                        self.counters.send_failed += rest as u64;
                        return Ok((done + rest, None));
                    }
                    return Err(e);
                }
                let n = datagrams(&self.hdrs[m..m + k]);
                self.counters.sent_msgs += k as u64;
                self.counters.sent_pkts += n as u64;
                done += n;
                m += k;
            }
            Ok((done, None))
        }

        /// Resends `run` datagrams from index `from`, a run the kernel
        /// refused to segment, as plain messages. GSO is latched off
        /// only if they go through: then the socket cannot offload. If
        /// they fail too, the destination is at fault (a port-0 address
        /// gives the same `EINVAL` either way), so GSO stays on and the
        /// error is returned.
        fn resend_refused_run(
            &mut self,
            out: &OutQueue,
            from: usize,
            run: usize,
        ) -> io::Result<usize> {
            self.gso = false;
            self.lay_out(out, from..from + run);
            let sent = self.send_laid_out();
            if sent.is_err() {
                self.gso = true;
            }
            sent.map(|(n, _)| n)
        }

        /// One datagram through `send_to`, for non-IPv4 destinations.
        fn send_plain(&mut self, to: SocketAddr, bytes: &[u8]) -> io::Result<()> {
            self.counters.send_calls += 1;
            match self.socket.send_to(bytes, to) {
                Ok(_) => {
                    self.counters.sent_msgs += 1;
                    self.counters.sent_pkts += 1;
                }
                Err(e) if is_transient(&e) => self.counters.send_failed += 1,
                Err(e) => return Err(e),
            }
            Ok(())
        }

        /// Sends every datagram in `out`, in order; the queue itself is
        /// left to [`IoBatcher::send_batch`] to empty.
        fn send_queue(&mut self, out: &OutQueue) -> io::Result<usize> {
            let before = self.counters.sent_pkts;
            let mut i = 0;
            while let Some(first) = out.index.get(i) {
                i += if first.to.is_ipv4() {
                    self.lay_out(out, i..out.index.len());
                    match self.send_laid_out()? {
                        (n, None) => n,
                        (n, Some(run)) => n + self.resend_refused_run(out, i + n, run)?,
                    }
                } else {
                    // Off the fast path; the testbed is IPv4-only.
                    self.send_plain(first.to, out.bytes(first))?;
                    1
                };
            }
            Ok(usize::try_from(self.counters.sent_pkts - before).unwrap_or(usize::MAX))
        }
    }

    impl IoBatcher for MmsgIo {
        fn local_addr(&self) -> io::Result<SocketAddr> {
            self.socket.local_addr()
        }

        fn backend(&self) -> &'static str {
            "mmsg"
        }

        fn send_batch(&mut self, out: &mut OutQueue) -> io::Result<usize> {
            let sent = self.send_queue(out);
            out.clear();
            sent
        }

        fn recv_batch(
            &mut self,
            sink: &mut dyn FnMut(&[u8], SocketAddr),
        ) -> io::Result<Received> {
            if self.arena.is_empty() {
                self.arena = vec![0u8; RECV_SLOTS * RECV_SLOT_BYTES];
            }
            self.iovecs.clear();
            self.hdrs.clear();
            for (slot, buf) in self.arena.chunks_exact_mut(RECV_SLOT_BYTES).enumerate() {
                self.addrs[slot] = SockAddrIn::ZEROED;
                self.iovecs.push(IoVec {
                    base: buf.as_mut_ptr(),
                    len: buf.len(),
                });
            }
            for slot in 0..RECV_SLOTS {
                self.hdrs.push(MMsgHdr {
                    hdr: MsgHdr {
                        name: &mut self.addrs[slot],
                        namelen: u32::try_from(std::mem::size_of::<SockAddrIn>())
                            .unwrap_or(16),
                        iov: &mut self.iovecs[slot],
                        iovlen: 1,
                        control: self.controls[slot].0.as_mut_ptr(),
                        controllen: CONTROL_BYTES,
                        flags: 0,
                    },
                    len: 0,
                });
            }
            let vlen = u32::try_from(RECV_SLOTS).unwrap_or(0);
            self.counters.recv_calls += 1;
            // SAFETY: `hdrs` holds `vlen` initialized entries whose
            // name/iov/control pointers target `self.addrs`,
            // `self.arena` and `self.controls`, all alive for the whole
            // call; the socket is non-blocking so a null timeout cannot
            // hang.
            let rc = unsafe {
                recvmmsg(
                    self.socket.as_raw_fd(),
                    self.hdrs.as_mut_ptr(),
                    vlen,
                    0,
                    std::ptr::null_mut(),
                )
            };
            if rc < 0 {
                let e = io::Error::last_os_error();
                if is_transient(&e) {
                    return Ok(Received::default());
                }
                return Err(e);
            }
            let got = usize::try_from(rc).unwrap_or(0).min(RECV_SLOTS);
            let mut datagrams = 0usize;
            for (slot, h) in self.hdrs[..got].iter().enumerate() {
                let n = usize::try_from(h.len).unwrap_or(0).min(RECV_SLOT_BYTES);
                let msg = &self.arena[slot * RECV_SLOT_BYTES..][..n];
                let control = &self.controls[slot].0[..h.hdr.controllen.min(CONTROL_BYTES)];
                let src = self.addrs[slot].to_socket_addr();
                for datagram in gro_split(msg, control) {
                    datagrams += 1;
                    if let Some(src) = src {
                        sink(datagram, src);
                    }
                }
            }
            self.counters.recvd_msgs += got as u64;
            self.counters.recvd_pkts += datagrams as u64;
            Ok(Received {
                datagrams,
                full: got == RECV_SLOTS,
            })
        }

        fn counters(&self) -> IoCounters {
            self.counters
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use rand::{Rng, SeedableRng};

        #[test]
        fn layout_matches_abi() {
            // glibc x86-64: sockaddr_in 16, iovec 16, msghdr 56,
            // mmsghdr 64. A drift here corrupts every batch.
            assert_eq!(std::mem::size_of::<SockAddrIn>(), 16);
            assert_eq!(std::mem::size_of::<IoVec>(), 16);
            assert_eq!(std::mem::size_of::<MsgHdr>(), 56);
            assert_eq!(std::mem::size_of::<MMsgHdr>(), 64);
            assert_eq!(std::mem::align_of::<Control>(), 8);
        }

        #[test]
        fn sockaddr_round_trips() {
            let v4 = SocketAddrV4::new(Ipv4Addr::new(127, 0, 0, 1), 47_123);
            let raw = SockAddrIn::from_v4(&v4);
            assert_eq!(raw.to_socket_addr(), Some(SocketAddr::V4(v4)));
            assert_eq!(SockAddrIn::ZEROED.to_socket_addr(), None);
        }

        #[test]
        fn segment_cap_keeps_the_message_in_one_ipv4_payload() {
            assert_eq!(max_segments(0), 1);
            assert_eq!(max_segments(34), BATCH);
            assert_eq!(max_segments(1434), 45);
            assert_eq!(max_segments(32_753), 2);
            assert_eq!(max_segments(32_754), 1);
            assert_eq!(max_segments(MAX_UDP_PAYLOAD + 1), 1);
            for len in 1..=MAX_UDP_PAYLOAD {
                assert!(max_segments(len) * len <= MAX_UDP_PAYLOAD);
            }
        }

        /// A control buffer holding one cmsg with `data` as payload.
        fn cmsg(level: i32, kind: i32, data: &[u8]) -> Vec<u8> {
            let mut b = Vec::new();
            b.extend_from_slice(&(CMSG_HDR + data.len()).to_ne_bytes());
            b.extend_from_slice(&level.to_ne_bytes());
            b.extend_from_slice(&kind.to_ne_bytes());
            b.extend_from_slice(data);
            b.resize(b.len().next_multiple_of(8), 0);
            b
        }

        fn gro(size: i32) -> Vec<u8> {
            cmsg(SOL_UDP, UDP_GRO, &size.to_ne_bytes())
        }

        /// The split's invariants for one message: the segments tile
        /// the buffer in order, none is empty unless the message is,
        /// and each has the expected length.
        fn check_split(msg: &[u8], control: &[u8], expect_step: Option<usize>) {
            let segs: Vec<&[u8]> = gro_split(msg, control).collect();
            let mut at = 0usize;
            for s in &segs {
                assert_eq!(s.as_ptr(), msg[at..].as_ptr(), "segments out of order");
                assert!(!s.is_empty() || msg.is_empty(), "empty segment");
                at += s.len();
            }
            assert_eq!(at, msg.len(), "segments do not tile the message");
            match expect_step {
                Some(g) => {
                    assert_eq!(segs.len(), msg.len().div_ceil(g));
                    assert!(segs[..segs.len() - 1].iter().all(|s| s.len() == g));
                    assert!(segs.last().is_some_and(|s| s.len() <= g));
                }
                None => assert_eq!(segs.len(), 1, "malformed metadata must mean one datagram"),
            }
        }

        #[test]
        fn gro_split_edge_sizes_at_every_length() {
            let buf = vec![0u8; MAX_UDP_PAYLOAD];
            let foreign = cmsg(0, 1, &[1; 4]); // SOL_IP/IP_TOS-shaped
            let short = cmsg(SOL_UDP, UDP_GRO, &[1, 0]);
            for len in 0..=MAX_UDP_PAYLOAD {
                let msg = &buf[..len];
                check_split(msg, &[], None);
                check_split(msg, &foreign, None);
                check_split(msg, &short, None);
                check_split(msg, &gro(0), None);
                check_split(msg, &gro(-1), None);
                let len_i = i32::try_from(len).expect("fits");
                check_split(msg, &gro(len_i), None);
                check_split(msg, &gro(len_i + 1), None);
            }
            // gso_size 1 yields `len` segments; sample the lengths.
            for len in (1..=2048).chain([MAX_UDP_PAYLOAD]) {
                check_split(&buf[..len], &gro(1), Some(1));
            }
        }

        #[test]
        fn gro_split_property_random_sizes_and_cmsg_layouts() {
            let buf = vec![0u8; MAX_UDP_PAYLOAD];
            let mut rng = rand::rngs::StdRng::seed_from_u64(0x6f72_6f67);
            for _ in 0..20_000 {
                let len = rng.gen_range(0..=MAX_UDP_PAYLOAD);
                let g = rng.gen_range(1..=MAX_UDP_PAYLOAD);
                let size = i32::try_from(g).expect("fits");
                let valid = (g < len).then_some(g);
                // The GRO cmsg alone, after a foreign cmsg, and garbled.
                check_split(&buf[..len], &gro(size), valid);
                let mut two = cmsg(0, 1, &[7; 4]);
                two.extend(gro(size));
                check_split(&buf[..len], &two, valid);
                // Cut short: only the alignment padding may go.
                let mut cut = gro(size);
                cut.truncate(rng.gen_range(0..cut.len()));
                let whole = cut.len() >= CMSG_HDR + 4;
                check_split(&buf[..len], &cut, valid.filter(|_| whole));
                let mut bad_len = gro(size);
                let claim = if rng.gen_bool(0.5) {
                    rng.gen_range(0..CMSG_HDR + 4)
                } else {
                    rng.gen::<usize>()
                };
                if claim < CMSG_HDR + 4 || claim > bad_len.len() {
                    bad_len[..8].copy_from_slice(&claim.to_ne_bytes());
                    check_split(&buf[..len], &bad_len, None);
                }
                let noise: Vec<u8> = (0..rng.gen_range(0..CONTROL_BYTES))
                    .map(|_| rng.gen())
                    .collect();
                let _ = gro_split(&buf[..len], &noise).count();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MMSG: bool = cfg!(all(target_os = "linux", target_pointer_width = "64"));

    fn pair() -> (UdpSocket, UdpSocket) {
        let a = UdpSocket::bind("127.0.0.1:0").expect("bind a");
        let b = UdpSocket::bind("127.0.0.1:0").expect("bind b");
        (a, b)
    }

    /// `len` bytes stamped with index `i`: the index up front, then a
    /// pattern that depends on it, so a swapped or torn datagram shows.
    fn stamped(i: usize, len: usize) -> Vec<u8> {
        let mut b: Vec<u8> = (0..len).map(|k| u8::try_from((i + k) % 251).unwrap_or(0)).collect();
        let idx = u32::try_from(i).expect("index fits").to_le_bytes();
        let head = len.min(4);
        b[..head].copy_from_slice(&idx[..head]);
        b
    }

    /// A queue of `bytes` datagrams, all for `to`.
    fn queue_to<'a>(to: SocketAddr, bytes: impl IntoIterator<Item = &'a Vec<u8>>) -> OutQueue {
        let mut q = OutQueue::new();
        for b in bytes {
            q.push(to, b.len()).copy_from_slice(b);
        }
        q
    }

    /// Receives until `n` datagrams arrived or two seconds passed;
    /// loopback delivery is fast but not instant.
    fn drain(rx: &mut dyn IoBatcher, n: usize) -> Vec<(Vec<u8>, SocketAddr)> {
        let mut got = Vec::new();
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(2);
        while got.len() < n && std::time::Instant::now() < deadline {
            let r = rx
                .recv_batch(&mut |bytes, src| got.push((bytes.to_vec(), src)))
                .expect("recv");
            if r.datagrams == 0 {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        }
        got
    }

    fn roundtrip(mode_tx: IoMode, mode_rx: IoMode) {
        let (a, b) = pair();
        let b_addr = b.local_addr().expect("addr");
        let mut tx = batcher_for(a, mode_tx).expect("tx batcher");
        let mut rx = batcher_for(b, mode_rx).expect("rx batcher");

        let n = 150usize; // > 2 full segmented messages
        let sent_bytes: Vec<Vec<u8>> = (0..n).map(|i| stamped(i, 64)).collect();
        let mut out = queue_to(b_addr, &sent_bytes);
        let sent = tx.send_batch(&mut out).expect("send");
        assert!(out.is_empty(), "send_batch must drain the queue");
        assert_eq!(sent, n, "loopback should take the whole burst");

        let got = drain(rx.as_mut(), n);
        assert_eq!(got.len(), n, "lost datagrams on loopback");
        for (i, (bytes, _)) in got.iter().enumerate() {
            assert_eq!(bytes, &sent_bytes[i], "datagram {i} out of order or corrupted");
        }
        let tx_local = tx.local_addr().expect("local");
        assert!(got.iter().all(|(_, src)| *src == tx_local), "src addr wrong");

        let tc = tx.counters();
        let rc = rx.counters();
        assert_eq!(tc.sent_pkts, n as u64);
        assert_eq!(rc.recvd_pkts, n as u64);
        assert_eq!(tc.send_failed, 0);
        match mode_tx {
            IoMode::Batched if MMSG => {
                assert_eq!(tx.backend(), "mmsg");
                assert_eq!(tc.sent_msgs, 3, "150 same-size pkts = 64+64+22 segments");
                assert_eq!(tc.send_calls, 1, "3 segmented messages → 1 sendmmsg");
            }
            _ => {
                assert_eq!(tc.send_calls, n as u64);
                assert_eq!(tc.sent_msgs, n as u64);
            }
        }
        if rx.backend() == "mmsg" && tx.backend() == "mmsg" {
            assert_eq!(rc.recvd_msgs, 3, "GRO hands each segmented message over whole");
        }
        if rx.backend() == "mmsg" {
            assert!(
                rc.recv_calls < n as u64 / 4,
                "batched recv used {} syscalls for {n} packets",
                rc.recv_calls
            );
        } else {
            assert_eq!(rc.recvd_msgs, n as u64, "the fallback reads one datagram per message");
        }
    }

    #[test]
    fn batched_roundtrip_moves_every_datagram() {
        roundtrip(IoMode::Batched, IoMode::Batched);
    }

    #[test]
    fn fallback_roundtrip_moves_every_datagram() {
        roundtrip(IoMode::PerPacket, IoMode::PerPacket);
    }

    #[test]
    fn mixed_modes_interoperate() {
        roundtrip(IoMode::Batched, IoMode::PerPacket);
        roundtrip(IoMode::PerPacket, IoMode::Batched);
    }

    #[test]
    fn runs_split_at_destination_length_and_size_cap() {
        let (a, b) = pair();
        let c = UdpSocket::bind("127.0.0.1:0").expect("bind c");
        let (b_addr, c_addr) = (b.local_addr().expect("b"), c.local_addr().expect("c"));
        let mut tx = batcher_for(a, IoMode::Batched).expect("tx");
        let mut rx_b = batcher_for(b, IoMode::Batched).expect("rx b");
        let mut rx_c = batcher_for(c, IoMode::Batched).expect("rx c");
        // (destination, length, count): 3 + 2 runs to b, 1 to c, then 4
        // more to b, then 40 at 2000 bytes (cap 32 per message) to c.
        let plan = [
            (b_addr, 64, 3),
            (b_addr, 30, 2),
            (c_addr, 64, 1),
            (b_addr, 64, 4),
            (c_addr, 2000, 40),
        ];
        let mut out = OutQueue::new();
        let (mut to_b, mut to_c) = (Vec::new(), Vec::new());
        for (to, len, count) in plan {
            for _ in 0..count {
                let bytes = stamped(out.len(), len);
                out.push(to, len).copy_from_slice(&bytes);
                (if to == b_addr { &mut to_b } else { &mut to_c }).push(bytes);
            }
        }
        let n = out.len();
        assert_eq!(tx.send_batch(&mut out).expect("send"), n);
        let tc = tx.counters();
        if MMSG {
            assert_eq!(tc.sent_msgs, 6, "3 | 2 | 1 | 4 | 32 + 8");
            assert_eq!(tc.send_calls, 1);
        }
        let got_b: Vec<Vec<u8>> = drain(rx_b.as_mut(), to_b.len()).into_iter().map(|g| g.0).collect();
        let got_c: Vec<Vec<u8>> = drain(rx_c.as_mut(), to_c.len()).into_iter().map(|g| g.0).collect();
        assert_eq!(got_b, to_b, "destination b: every datagram, in send order");
        assert_eq!(got_c, to_c, "destination c: every datagram, in send order");
    }

    /// A queue refilled with batches of the same shape reuses its arena
    /// and index: after the warm-up batch neither grows again, on
    /// either backend.
    #[test]
    fn queue_capacity_stops_growing_after_a_warm_up_batch() {
        for mode in [IoMode::Batched, IoMode::PerPacket] {
            let (a, b) = pair();
            let b_addr = b.local_addr().expect("addr");
            let mut tx = batcher_for(a, mode).expect("tx");
            let mut rx = batcher_for(b, mode).expect("rx");
            let mut out = OutQueue::new();
            let mut warm = None;
            for round in 0..10 {
                // Two lengths, like a shard's data packets and probes.
                for i in 0..100 {
                    let len = if i % 10 == 0 { 1434 } else { 38 };
                    out.push(b_addr, len)
                        .copy_from_slice(&stamped(round * 100 + i, len));
                }
                assert_eq!(tx.send_batch(&mut out).expect("send"), 100, "{mode:?}");
                assert!(out.is_empty(), "{mode:?}");
                let caps = (out.arena.capacity(), out.index.capacity());
                assert_eq!(
                    *warm.get_or_insert(caps),
                    caps,
                    "round {round} grew ({mode:?})"
                );
                assert_eq!(drain(rx.as_mut(), 100).len(), 100, "{mode:?}");
            }
        }
    }

    /// A hard send error (here `EINVAL` for destination port 0) is
    /// returned, and the queue is still left empty and reusable.
    #[test]
    fn queue_is_empty_after_a_send_that_fails_hard() {
        for mode in [IoMode::Batched, IoMode::PerPacket] {
            let (a, b) = pair();
            let b_addr = b.local_addr().expect("addr");
            let nowhere = SocketAddr::from(([127, 0, 0, 1], 0));
            let mut tx = batcher_for(a, mode).expect("tx");
            let mut rx = batcher_for(b, mode).expect("rx");
            let mut out = OutQueue::new();
            for i in 0..3 {
                out.push(nowhere, 64).copy_from_slice(&stamped(i, 64));
            }
            assert!(tx.send_batch(&mut out).is_err(), "{mode:?}");
            assert!(out.is_empty(), "{mode:?}");
            let good = stamped(7, 64);
            out.push(b_addr, good.len()).copy_from_slice(&good);
            assert_eq!(tx.send_batch(&mut out).expect("send"), 1, "{mode:?}");
            assert_eq!(
                drain(rx.as_mut(), 1),
                vec![(good, tx.local_addr().expect("local"))]
            );
        }
    }

    /// With `SO_NO_CHECK` set the kernel refuses every segmented send
    /// (`EINVAL`): the batcher must resend those datagrams plain, keep
    /// exact counters, and stop segmenting on that socket.
    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    #[test]
    fn gso_refusal_falls_back_to_plain_datagrams() {
        const SO_NO_CHECK: i32 = 11;
        let (a, b) = pair();
        assert!(mmsg::set_int(&a, mmsg::SOL_SOCKET, SO_NO_CHECK, 1), "SO_NO_CHECK");
        let b_addr = b.local_addr().expect("addr");
        let mut tx = batcher_for(a, IoMode::Batched).expect("tx");
        let mut rx = batcher_for(b, IoMode::Batched).expect("rx");
        let n = 150usize;
        let sent_bytes: Vec<Vec<u8>> = (0..2 * n).map(|i| stamped(i, 64)).collect();
        let burst = |range: std::ops::Range<usize>| queue_to(b_addr, &sent_bytes[range]);

        assert_eq!(tx.send_batch(&mut burst(0..n)).expect("send"), n);
        let tc = tx.counters();
        assert_eq!(tc.sent_pkts, n as u64);
        assert_eq!(tc.send_failed, 0);
        assert_eq!(tc.sent_msgs, n as u64, "after the refusal every datagram goes plain");
        assert_eq!(tc.send_calls, 1 + 3, "one refused call, then 64 + 64 + 22");

        // Latched: the next burst is laid out plain from the start.
        assert_eq!(tx.send_batch(&mut burst(n..2 * n)).expect("send"), n);
        let tc = tx.counters();
        assert_eq!(tc.send_calls, 4 + 3, "no second refusal");
        assert_eq!(tc.sent_msgs, 2 * n as u64);
        assert_eq!(tc.sent_pkts, 2 * n as u64);

        let got: Vec<Vec<u8>> = drain(rx.as_mut(), 2 * n).into_iter().map(|g| g.0).collect();
        assert_eq!(got, sent_bytes, "every datagram, in send order");
        assert_eq!(rx.counters().recvd_pkts, 2 * n as u64);
    }

    /// A run refused because its destination is bad (port 0 gives
    /// `EINVAL` segmented or not) is an error, not a sign that the
    /// socket cannot offload: GSO stays on for the next good run.
    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    #[test]
    fn bad_destination_does_not_latch_gso_off() {
        let (a, b) = pair();
        let b_addr = b.local_addr().expect("addr");
        let nowhere = SocketAddr::from(([127, 0, 0, 1], 0));
        let mut tx = batcher_for(a, IoMode::Batched).expect("tx");
        let mut rx = batcher_for(b, IoMode::Batched).expect("rx");
        let bad: Vec<Vec<u8>> = (0..3).map(|i| stamped(i, 64)).collect();
        assert!(tx.send_batch(&mut queue_to(nowhere, &bad)).is_err());
        assert_eq!(tx.counters().sent_pkts, 0);

        let good: Vec<Vec<u8>> = (0..BATCH).map(|i| stamped(i, 64)).collect();
        assert_eq!(tx.send_batch(&mut queue_to(b_addr, &good)).expect("send"), BATCH);
        let tc = tx.counters();
        assert_eq!(tc.sent_pkts, BATCH as u64);
        assert_eq!(tc.sent_msgs, 1, "the good run still goes out segmented");
        let got: Vec<Vec<u8>> = drain(rx.as_mut(), BATCH).into_iter().map(|g| g.0).collect();
        assert_eq!(got, good);
    }

    /// `full` reports that every receive slot was used. With GRO a slot
    /// carries a whole run, so the datagram count cannot say it.
    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    #[test]
    fn full_means_every_slot_was_used() {
        let (a, b) = pair();
        let b_addr = b.local_addr().expect("addr");
        let mut tx = batcher_for(a, IoMode::Batched).expect("tx");
        let mut rx = batcher_for(b, IoMode::Batched).expect("rx");
        // One more full run than there are slots.
        let n = (mmsg::RECV_SLOTS + 1) * BATCH;
        let mut out = queue_to(b_addr, &(0..n).map(|i| stamped(i, 64)).collect::<Vec<_>>());
        assert_eq!(tx.send_batch(&mut out).expect("send"), n);
        std::thread::sleep(std::time::Duration::from_millis(20));
        let first = rx.recv_batch(&mut |_, _| {}).expect("recv");
        assert_eq!(
            first,
            Received {
                datagrams: mmsg::RECV_SLOTS * BATCH,
                full: true
            }
        );
        let second = rx.recv_batch(&mut |_, _| {}).expect("recv");
        assert_eq!(
            second,
            Received {
                datagrams: BATCH,
                full: false
            }
        );
    }

    #[test]
    fn empty_socket_recv_returns_zero() {
        let (a, _b) = pair();
        let mut rx = batcher_for(a, IoMode::auto()).expect("batcher");
        let got = rx
            .recv_batch(&mut |_, _| panic!("nothing was sent"))
            .expect("recv");
        assert_eq!(got, Received::default());
        assert_eq!(rx.counters().recv_calls, 1, "the empty poll still counts");
    }

    #[test]
    fn auto_mode_picks_the_platform_best() {
        let (a, _b) = pair();
        let tx = batcher_for(a, IoMode::auto()).expect("batcher");
        if cfg!(all(target_os = "linux", target_pointer_width = "64")) {
            assert_eq!(tx.backend(), "mmsg");
        } else {
            assert_eq!(tx.backend(), "per-packet");
        }
    }

    #[test]
    fn syscalls_per_packet_is_nan_free() {
        assert_eq!(IoCounters::default().syscalls_per_packet(), 0.0);
        let c = IoCounters {
            send_calls: 2,
            recv_calls: 2,
            sent_pkts: 64,
            recvd_pkts: 64,
            sent_msgs: 1,
            recvd_msgs: 3,
            send_failed: 0,
        };
        assert!((c.syscalls_per_packet() - 4.0 / 128.0).abs() < 1e-12);
        let m = c.merged(&c);
        assert_eq!(m.packets(), 256);
        assert_eq!(m.syscalls(), 8);
        assert_eq!(m.sent_msgs + m.recvd_msgs, 8);
    }
}
