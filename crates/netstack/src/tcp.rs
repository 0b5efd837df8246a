//! The TCP protocol engine: a deterministic state machine.
//!
//! Pure state + packet-in/packets-out functions — no IO, no clocks of its
//! own (time is passed in, from the simulated clock). Covers the
//! three-way handshake, cumulative acknowledgement, out-of-order segment
//! reassembly, timeout retransmission with exponential backoff, RST
//! handling, and the FIN teardown handshake. Segments carry at most
//! [`MAX_PAYLOAD`] bytes.
//!
//! Hardened against an adversarial link (`crate::fault::FaultyLink`):
//!
//! - **RST window check** — a reset is honoured only when it is plausibly
//!   from the peer: `seq == rcv_nxt` in synchronized states, an ACK
//!   covering our SYN in `SynSent`, never in `Listen`. Blind RSTs are
//!   dropped.
//! - **ACK window check** — only ACKs in `(snd_una, snd_nxt]` retire
//!   in-flight data; stale duplicates and ghost ACKs beyond anything sent
//!   are counted and dropped.
//! - **Exponential RTO backoff with a retry budget** — each in-flight
//!   segment may be retransmitted at most [`MAX_RETRIES`] times, with the
//!   effective RTO doubling per backoff round (capped at
//!   `RTO << MAX_BACKOFF_SHIFT`); exhausting the budget moves the
//!   connection to a reportable failed-`Closed` state and stops all
//!   transmission.
//! - **TIME_WAIT expiry** — [`TIME_WAIT_NS`] after entering `TimeWait`
//!   the PCB transitions to `Closed` on its own `tick`, so socket layers
//!   can reap it.
//! - **Bounded reassembly** — the out-of-order buffer holds at most
//!   [`OOO_BUDGET`] segments, purges entries covered by cumulative
//!   advances, and never scans by smallest numeric key (which is wrong
//!   across sequence wraparound).
//!
//! Scaled for server duty:
//!
//! - **Real passive open** — [`TcpListener`] spawns one child PCB per
//!   peer into bounded SYN/accept queues ([`TcpListener::accept`] pops
//!   them FIFO), instead of mutating a lone PCB into the connection and
//!   silently ignoring every concurrent SYN.
//! - **Slow start / AIMD congestion control** — a cwnd-limited send
//!   window ([`INIT_CWND`] growing one segment per ACK below
//!   [`INIT_SSTHRESH`], additively above it, collapsing to one segment
//!   on RTO) gates a send buffer; `send` queues and emits what the
//!   window admits, ACK arrival flushes the rest.
//! - **Delayed ACKs** — a lone in-order segment waits up to
//!   [`DELAYED_ACK_NS`] for a piggyback or a second segment before a
//!   pure ACK is emitted from `tick`.
//!
//! Both the legacy and the modular socket layers drive this same engine;
//! the roadmap experiment varies only the interface around it.

use std::collections::{BTreeMap, VecDeque};

use crate::packet::{flags, proto, Packet, MAX_PAYLOAD};

/// TCP connection states (the classic diagram).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum TcpState {
    Closed,
    Listen,
    SynSent,
    SynRcvd,
    Established,
    FinWait1,
    FinWait2,
    CloseWait,
    LastAck,
    TimeWait,
}

/// Default retransmission timeout (simulated ns).
pub const DEFAULT_RTO_NS: u64 = 200_000_000;

/// Maximum retransmissions of a single segment before the connection is
/// declared failed.
pub const MAX_RETRIES: u32 = 8;

/// Cap on the exponential backoff: the effective RTO never exceeds
/// `rto_ns << MAX_BACKOFF_SHIFT`.
pub const MAX_BACKOFF_SHIFT: u32 = 6;

/// How long a PCB lingers in `TimeWait` before reaching `Closed` (the
/// 2×MSL analogue, in simulated ns).
pub const TIME_WAIT_NS: u64 = 4 * DEFAULT_RTO_NS;

/// Maximum segments buffered out of order; arrivals beyond the budget are
/// dropped (the sender retransmits them once the gap heals).
pub const OOO_BUDGET: usize = 64;

/// Initial congestion window (bytes): four full segments, the classic
/// RFC 3390-style initial window.
pub const INIT_CWND: u32 = 4 * MAX_PAYLOAD as u32;

/// Upper bound on the congestion window, bounding per-connection
/// retransmission-queue memory.
pub const MAX_CWND: u32 = 64 * MAX_PAYLOAD as u32;

/// Initial slow-start threshold: slow start doubles per RTT up to here,
/// then additive increase takes over.
pub const INIT_SSTHRESH: u32 = 32 * MAX_PAYLOAD as u32;

/// How long a lone in-order segment may wait before a pure ACK is sent
/// from `tick` (the delayed-ACK timer).
pub const DELAYED_ACK_NS: u64 = DEFAULT_RTO_NS / 8;

/// Default accept-backlog for a listener when the caller does not choose.
pub const DEFAULT_BACKLOG: usize = 128;

/// Per-connection event counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TcpCounters {
    /// Segments retransmitted after an RTO expiry.
    pub retransmits: u64,
    /// ACKs dropped for being outside `(snd_una, snd_nxt]` — stale
    /// duplicates and ghost ACKs for data never sent.
    pub dup_acks_dropped: u64,
    /// Segments accepted into the out-of-order buffer.
    pub ooo_buffered: u64,
    /// Out-of-order entries discarded: covered by a cumulative advance,
    /// or refused because the buffer was at budget.
    pub ooo_purged: u64,
    /// RST packets this endpoint emitted.
    pub resets_sent: u64,
    /// RST packets this endpoint accepted (blind RSTs are not counted;
    /// they are dropped).
    pub resets_received: u64,
    /// Pure ACKs flushed by the delayed-ACK timer in `tick`. ACKs that
    /// rode out immediately (second segment, out-of-order, FIN) or
    /// piggybacked on data are not counted here.
    pub delayed_acks: u64,
}

/// A segment awaiting acknowledgement.
#[derive(Debug, Clone)]
struct InFlight {
    seq: u32,
    data: Vec<u8>,
    /// The flags the segment was originally sent with — retransmissions
    /// reuse them verbatim instead of re-deriving (and mis-deriving) them
    /// from the current connection state.
    flags: u8,
    sent_at: u64,
    retries: u32,
}

impl InFlight {
    /// Sequence space the segment occupies (payload plus SYN/FIN).
    fn occupied(&self) -> u32 {
        self.data.len() as u32
            + u32::from(self.flags & flags::SYN != 0)
            + u32::from(self.flags & flags::FIN != 0)
    }
}

/// The TCP protocol control block.
#[derive(Debug)]
pub struct TcpPcb {
    /// Connection state.
    pub state: TcpState,
    /// Local port.
    pub local_port: u16,
    /// Remote port (0 until known).
    pub remote_port: u16,
    /// Next sequence number to send.
    pub snd_nxt: u32,
    /// Oldest unacknowledged sequence number.
    pub snd_una: u32,
    /// Next sequence number expected from the peer.
    pub rcv_nxt: u32,
    /// In-order received bytes, ready for the application.
    recv_ready: Vec<u8>,
    /// Out-of-order segments keyed by sequence number.
    ooo: BTreeMap<u32, Vec<u8>>,
    /// Unacknowledged segments for retransmission.
    in_flight: Vec<InFlight>,
    /// Bytes the application has submitted but the congestion window has
    /// not yet admitted to the wire.
    snd_buf: Vec<u8>,
    /// Congestion window (bytes of payload allowed in flight).
    pub cwnd: u32,
    /// Slow-start threshold: below it the window grows one segment per
    /// ACK (slow start), above it one segment per window (AIMD).
    pub ssthresh: u32,
    /// A FIN is owed but must sequence after everything in `snd_buf`.
    fin_pending: bool,
    /// An in-order segment arrived and its ACK is being delayed.
    ack_pending: bool,
    /// When the delayed ACK must go out (valid while `ack_pending`).
    ack_due: u64,
    /// Base retransmission timeout (doubled per backoff round).
    pub rto_ns: u64,
    /// Current backoff round: effective RTO is `rto_ns << backoff_shift`.
    backoff_shift: u32,
    /// When the `TimeWait` lingering ends (valid while in `TimeWait`).
    time_wait_until: u64,
    /// True once the connection died abnormally (retry budget exhausted
    /// or reset by the peer) rather than via an orderly FIN handshake.
    failed: bool,
    /// Event counters.
    pub counters: TcpCounters,
}

impl TcpPcb {
    /// A closed PCB bound to `local_port` with initial sequence `iss`.
    pub fn new(local_port: u16, iss: u32) -> TcpPcb {
        TcpPcb {
            state: TcpState::Closed,
            local_port,
            remote_port: 0,
            snd_nxt: iss,
            snd_una: iss,
            rcv_nxt: 0,
            recv_ready: Vec::new(),
            ooo: BTreeMap::new(),
            in_flight: Vec::new(),
            snd_buf: Vec::new(),
            cwnd: INIT_CWND,
            ssthresh: INIT_SSTHRESH,
            fin_pending: false,
            ack_pending: false,
            ack_due: 0,
            rto_ns: DEFAULT_RTO_NS,
            backoff_shift: 0,
            time_wait_until: 0,
            failed: false,
            counters: TcpCounters::default(),
        }
    }

    /// Passive open: adopt a peer's SYN and answer with a SYN-ACK. This
    /// is how [`TcpListener`] brings a freshly spawned child PCB into
    /// `SynRcvd` — a PCB never sits in `Listen` itself.
    pub fn accept_syn(&mut self, pkt: &Packet, now: u64) -> Vec<Packet> {
        if self.state != TcpState::Closed || pkt.flags & flags::SYN == 0 {
            return Vec::new();
        }
        self.remote_port = pkt.src_port;
        self.rcv_nxt = pkt.seq.wrapping_add(1);
        self.state = TcpState::SynRcvd;
        let synack = self.mk(flags::SYN | flags::ACK);
        self.track(self.snd_nxt, Vec::new(), flags::SYN | flags::ACK, now);
        self.snd_nxt = self.snd_nxt.wrapping_add(1);
        vec![synack]
    }

    /// True once the connection died abnormally: the retry budget ran out
    /// or the peer reset it. `Closed` + `!is_failed()` is an orderly end.
    pub fn is_failed(&self) -> bool {
        self.failed
    }

    /// True when the PCB is finished and the socket layer may reap it: it
    /// reached `Closed` after actually being connected (a fresh, never-used
    /// PCB is also `Closed` but not reapable).
    pub fn is_defunct(&self) -> bool {
        self.state == TcpState::Closed && (self.remote_port != 0 || self.failed)
    }

    /// The effective retransmission timeout under the current backoff.
    pub fn effective_rto(&self) -> u64 {
        self.rto_ns
            .saturating_mul(1u64 << self.backoff_shift.min(MAX_BACKOFF_SHIFT))
    }

    /// Every transition into `Closed` funnels here: retransmission state
    /// is cleared so a dead connection can never emit another segment.
    fn enter_closed(&mut self, failed: bool) {
        self.state = TcpState::Closed;
        self.in_flight.clear();
        self.counters.ooo_purged += self.ooo.len() as u64;
        self.ooo.clear();
        self.snd_buf.clear();
        self.fin_pending = false;
        self.ack_pending = false;
        self.failed |= failed;
    }

    fn mk(&self, fl: u8) -> Packet {
        Packet {
            proto: proto::TCP,
            flags: fl,
            src_port: self.local_port,
            dst_port: self.remote_port,
            seq: self.snd_nxt,
            ack: self.rcv_nxt,
            payload: Vec::new(),
        }
    }

    fn track(&mut self, seq: u32, data: Vec<u8>, fl: u8, now: u64) {
        self.in_flight.push(InFlight {
            seq,
            data,
            flags: fl,
            sent_at: now,
            retries: 0,
        });
    }

    /// Initiates a connection to `remote_port`; returns the SYN.
    pub fn connect(&mut self, remote_port: u16, now: u64) -> Packet {
        self.remote_port = remote_port;
        self.state = TcpState::SynSent;
        let syn = self.mk(flags::SYN);
        self.track(self.snd_nxt, Vec::new(), flags::SYN, now);
        self.snd_nxt = self.snd_nxt.wrapping_add(1); // SYN consumes one.
        syn
    }

    /// True when the application may submit data: connected and not yet
    /// half-closed by us. Socket layers use this (not an empty segment
    /// list, which also happens when the window is full) for ENOTCONN.
    pub fn can_send(&self) -> bool {
        matches!(self.state, TcpState::Established | TcpState::CloseWait) && !self.fin_pending
    }

    /// Payload bytes currently awaiting acknowledgement.
    fn bytes_in_flight(&self) -> usize {
        self.in_flight.iter().map(|s| s.data.len()).sum()
    }

    /// Bytes accepted from the application but not yet admitted to the
    /// wire by the congestion window.
    pub fn backlog_bytes(&self) -> usize {
        self.snd_buf.len()
    }

    /// Emits as much buffered data as the congestion window admits, then
    /// the deferred FIN once the buffer drains. Every segment carries the
    /// current cumulative ACK.
    fn flush_window(&mut self, now: u64) -> Vec<Packet> {
        if !matches!(
            self.state,
            TcpState::Established | TcpState::CloseWait | TcpState::FinWait1 | TcpState::LastAck
        ) {
            return Vec::new();
        }
        let mut out = Vec::new();
        while !self.snd_buf.is_empty() {
            let flight = self.bytes_in_flight();
            if flight >= self.cwnd as usize {
                break;
            }
            let room = (self.cwnd as usize - flight)
                .min(MAX_PAYLOAD)
                .min(self.snd_buf.len());
            let chunk: Vec<u8> = self.snd_buf.drain(..room).collect();
            let mut pkt = self.mk(flags::ACK);
            pkt.payload = chunk.clone();
            self.track(self.snd_nxt, chunk, flags::ACK, now);
            self.snd_nxt = self.snd_nxt.wrapping_add(room as u32);
            out.push(pkt);
        }
        if self.snd_buf.is_empty() && self.fin_pending {
            self.fin_pending = false;
            let fin = self.mk(flags::FIN | flags::ACK);
            self.track(self.snd_nxt, Vec::new(), flags::FIN | flags::ACK, now);
            self.snd_nxt = self.snd_nxt.wrapping_add(1); // FIN consumes one.
            out.push(fin);
        }
        if !out.is_empty() {
            // Everything emitted carries ack = rcv_nxt.
            self.ack_pending = false;
        }
        out
    }

    /// Queues `data` for transmission; returns the segments the
    /// congestion window admits right now (the rest follows from
    /// `on_packet`/`tick` as ACKs open the window).
    pub fn send(&mut self, data: &[u8], now: u64) -> Vec<Packet> {
        if !self.can_send() {
            return Vec::new();
        }
        self.snd_buf.extend_from_slice(data);
        self.flush_window(now)
    }

    /// Takes the bytes received in order so far.
    pub fn take_received(&mut self) -> Vec<u8> {
        std::mem::take(&mut self.recv_ready)
    }

    /// Bytes available without taking them.
    pub fn available(&self) -> usize {
        self.recv_ready.len()
    }

    /// Segments currently buffered out of order (tests, stats).
    pub fn ooo_len(&self) -> usize {
        self.ooo.len()
    }

    /// Begins an active close; returns the segments that can go now. The
    /// FIN sequences after everything buffered, so it may be deferred
    /// until ACKs drain the send buffer.
    pub fn close(&mut self, now: u64) -> Vec<Packet> {
        match self.state {
            TcpState::Established => self.state = TcpState::FinWait1,
            TcpState::CloseWait => self.state = TcpState::LastAck,
            TcpState::SynSent | TcpState::Listen | TcpState::Closed => {
                // Nothing to hand over: drop any in-flight SYN so a closed
                // socket never keeps retransmitting.
                self.enter_closed(false);
                return Vec::new();
            }
            _ => return Vec::new(),
        }
        self.fin_pending = true;
        self.flush_window(now)
    }

    /// Processes a cumulative ACK. Only values in `(snd_una, snd_nxt]`
    /// retire data; anything else is dropped (and counted) so a stale or
    /// forged ACK can never advance `snd_una` past data actually sent.
    /// Returns true when the ACK made forward progress.
    fn process_ack(&mut self, ack: u32) -> bool {
        if !seq_lt(self.snd_una, ack) {
            // Old news. A duplicate of the current edge while data is
            // outstanding is the classic dup-ack; either way, drop it.
            if !self.in_flight.is_empty() {
                self.counters.dup_acks_dropped += 1;
            }
            return false;
        }
        if seq_lt(self.snd_nxt, ack) {
            // Ghost ACK for bytes never sent: drop, never retire by it.
            self.counters.dup_acks_dropped += 1;
            return false;
        }
        let payload_retired = self
            .in_flight
            .iter()
            .filter(|seg| !seq_lt(ack, seg.seq.wrapping_add(seg.occupied())))
            .any(|seg| !seg.data.is_empty());
        self.in_flight
            .retain(|seg| seq_lt(ack, seg.seq.wrapping_add(seg.occupied())));
        self.snd_una = ack;
        // Forward progress: the path is alive again. Reset the backoff
        // and every surviving segment's retry count — the budget bounds
        // consecutive timeouts *without* progress, so a long stream
        // behind a head-of-line loss doesn't burn out its tail (RFC 6298
        // restarts the retransmission timer on each new ACK).
        self.backoff_shift = 0;
        for seg in &mut self.in_flight {
            seg.retries = 0;
        }
        // Congestion window growth: one segment per ACK in slow start,
        // one segment per window (additive increase) past ssthresh.
        // Only ACKs that retire payload count — SYN/FIN retirement says
        // nothing about the path's data capacity.
        if payload_retired {
            let mss = MAX_PAYLOAD as u32;
            if self.cwnd < self.ssthresh {
                self.cwnd = (self.cwnd + mss).min(MAX_CWND);
            } else {
                self.cwnd = (self.cwnd + (mss * mss / self.cwnd).max(1)).min(MAX_CWND);
            }
        }
        true
    }

    /// Delivers contiguous out-of-order entries and purges entries the
    /// cumulative advance has covered. Wrap-safe: entries are found by
    /// direct `rcv_nxt` lookup, never by smallest numeric key.
    fn drain_ooo(&mut self) {
        loop {
            if let Some(data) = self.ooo.remove(&self.rcv_nxt) {
                self.rcv_nxt = self.rcv_nxt.wrapping_add(data.len() as u32);
                self.recv_ready.extend_from_slice(&data);
                continue;
            }
            // Purge entries now behind rcv_nxt (a retransmission filled
            // the gap past them); deliver the unseen tail of a straddler.
            let mut advanced = false;
            let behind: Vec<u32> = self
                .ooo
                .keys()
                .copied()
                .filter(|&s| seq_lt(s, self.rcv_nxt))
                .collect();
            for s in behind {
                let data = self.ooo.remove(&s).expect("key just listed");
                let end = s.wrapping_add(data.len() as u32);
                if seq_lt(self.rcv_nxt, end) {
                    let skip = self.rcv_nxt.wrapping_sub(s) as usize;
                    self.recv_ready.extend_from_slice(&data[skip..]);
                    self.rcv_nxt = end;
                    advanced = true;
                }
                self.counters.ooo_purged += 1;
            }
            if !advanced {
                break;
            }
        }
    }

    fn absorb_payload(&mut self, seq: u32, payload: &[u8]) {
        if payload.is_empty() {
            return;
        }
        let end = seq.wrapping_add(payload.len() as u32);
        if seq == self.rcv_nxt {
            self.rcv_nxt = end;
            self.recv_ready.extend_from_slice(payload);
            self.drain_ooo();
        } else if seq_lt(self.rcv_nxt, seq) {
            if self.ooo.len() >= OOO_BUDGET && !self.ooo.contains_key(&seq) {
                // At budget: refuse, the sender will retransmit.
                self.counters.ooo_purged += 1;
                return;
            }
            if self.ooo.insert(seq, payload.to_vec()).is_none() {
                self.counters.ooo_buffered += 1;
            }
        } else if seq_lt(self.rcv_nxt, end) {
            // Straddles rcv_nxt: the head was already delivered, take the
            // tail.
            let skip = self.rcv_nxt.wrapping_sub(seq) as usize;
            self.recv_ready.extend_from_slice(&payload[skip..]);
            self.rcv_nxt = end;
            self.drain_ooo();
        }
        // Wholly old (duplicate) data is dropped.
    }

    /// True when an RST is acceptable in the current state — the defence
    /// against blind (off-path) resets.
    fn rst_acceptable(&self, pkt: &Packet) -> bool {
        match self.state {
            // A listener is not a connection; a reset cannot kill it.
            TcpState::Listen | TcpState::Closed => false,
            // No sequence sync yet: the RST must acknowledge our SYN.
            TcpState::SynSent => pkt.flags & flags::ACK != 0 && pkt.ack == self.snd_nxt,
            // Synchronized: the RST must sit exactly at the receive edge.
            _ => pkt.seq == self.rcv_nxt,
        }
    }

    /// Handles an incoming packet; returns the packets to send in response.
    pub fn on_packet(&mut self, pkt: &Packet, now: u64) -> Vec<Packet> {
        let mut out = Vec::new();
        if pkt.flags & flags::RST != 0 {
            if self.rst_acceptable(pkt) {
                self.counters.resets_received += 1;
                self.enter_closed(true);
            }
            return out;
        }
        match self.state {
            TcpState::Listen => {
                // A bare PCB never sits in Listen: passive opens go
                // through TcpListener, which spawns children via
                // accept_syn. Anything arriving here is dropped.
            }
            TcpState::SynSent => {
                if pkt.flags & (flags::SYN | flags::ACK) == flags::SYN | flags::ACK
                    && pkt.ack == self.snd_nxt
                {
                    self.rcv_nxt = pkt.seq.wrapping_add(1);
                    self.process_ack(pkt.ack);
                    self.state = TcpState::Established;
                    out.push(self.mk(flags::ACK));
                }
            }
            TcpState::SynRcvd => {
                // Only an ACK that covers our in-flight SYN-ACK completes
                // the handshake; a stale ACK (e.g. from an old connection)
                // must not conjure an Established connection.
                if pkt.flags & flags::ACK != 0 && pkt.ack == self.snd_nxt {
                    self.process_ack(pkt.ack);
                    self.state = TcpState::Established;
                    // Fall through into data handling for piggybacked data.
                    self.absorb_payload(pkt.seq, &pkt.payload);
                    if !pkt.payload.is_empty() {
                        out.push(self.mk(flags::ACK));
                    }
                } else if pkt.flags & flags::SYN != 0 && pkt.seq.wrapping_add(1) == self.rcv_nxt {
                    // The peer retransmitted its SYN: our SYN-ACK was lost.
                    // tick() will resend it; nothing to do here.
                }
            }
            TcpState::Established
            | TcpState::FinWait1
            | TcpState::FinWait2
            | TcpState::CloseWait
            | TcpState::LastAck
            | TcpState::TimeWait => {
                if pkt.flags & flags::ACK != 0 {
                    self.process_ack(pkt.ack);
                }
                let had_payload = !pkt.payload.is_empty();
                let in_order = had_payload && pkt.seq == self.rcv_nxt;
                self.absorb_payload(pkt.seq, &pkt.payload);
                if pkt.flags & flags::FIN != 0 && pkt.seq == self.rcv_nxt {
                    self.rcv_nxt = self.rcv_nxt.wrapping_add(1);
                    match self.state {
                        TcpState::Established => self.state = TcpState::CloseWait,
                        TcpState::FinWait1 | TcpState::FinWait2 => {
                            self.state = TcpState::TimeWait;
                            self.time_wait_until = now + TIME_WAIT_NS;
                        }
                        _ => {}
                    }
                    self.ack_pending = false;
                    out.push(self.mk(flags::ACK));
                } else if (had_payload && !in_order) || pkt.flags & (flags::FIN | flags::SYN) != 0 {
                    // Out-of-order, duplicate data, a duplicate FIN, or a
                    // retransmitted SYN/SYN-ACK (our handshake ACK was
                    // lost; without a re-ACK the peer's child PCB would
                    // sit in SynRcvd forever): re-ACK immediately so the
                    // sender heals instead of burning its retry budget.
                    self.ack_pending = false;
                    out.push(self.mk(flags::ACK));
                } else if in_order {
                    // Delayed ACK: every second in-order segment is ACKed
                    // at once, a lone one waits for the tick timer (or a
                    // piggyback below).
                    if self.ack_pending {
                        self.ack_pending = false;
                        out.push(self.mk(flags::ACK));
                    } else {
                        self.ack_pending = true;
                        self.ack_due = now + DELAYED_ACK_NS;
                    }
                }
                // The ACK may have opened the congestion window (or
                // retired the last data ahead of a deferred FIN): emit
                // what the window now admits. Flushed segments carry the
                // cumulative ACK, so they cancel a pending delayed ACK.
                out.extend(self.flush_window(now));
                // State progress driven by our FIN being acknowledged —
                // only once the FIN was actually sent (nothing buffered,
                // none pending) and everything in flight retired.
                if pkt.flags & flags::ACK != 0
                    && self.in_flight.is_empty()
                    && self.snd_buf.is_empty()
                    && !self.fin_pending
                {
                    match self.state {
                        TcpState::FinWait1 => self.state = TcpState::FinWait2,
                        TcpState::LastAck => self.enter_closed(false),
                        _ => {}
                    }
                }
            }
            TcpState::Closed => {
                self.counters.resets_sent += 1;
                out.push(rst_for(pkt, self.local_port));
            }
        }
        out
    }

    /// Timer processing: TIME_WAIT expiry, then timeout retransmission
    /// under exponential backoff. A segment that exhausts [`MAX_RETRIES`]
    /// fails the whole connection — it goes to `Closed` (reporting
    /// [`TcpPcb::is_failed`]) and transmission stops for good.
    pub fn tick(&mut self, now: u64) -> Vec<Packet> {
        if self.state == TcpState::TimeWait && now >= self.time_wait_until {
            self.enter_closed(false);
            return Vec::new();
        }
        if self.state == TcpState::Closed {
            return Vec::new();
        }
        let mut out = Vec::new();
        if self.ack_pending && now >= self.ack_due {
            self.ack_pending = false;
            self.counters.delayed_acks += 1;
            out.push(self.mk(flags::ACK));
        }
        let rto = self.effective_rto();
        let mut resent = false;
        for i in 0..self.in_flight.len() {
            if now.saturating_sub(self.in_flight[i].sent_at) < rto {
                continue;
            }
            if self.in_flight[i].retries >= MAX_RETRIES {
                // Retry budget exhausted: the path is declared dead.
                self.enter_closed(true);
                return Vec::new();
            }
            self.in_flight[i].retries += 1;
            self.in_flight[i].sent_at = now;
            self.counters.retransmits += 1;
            resent = true;
            let seg = &self.in_flight[i];
            out.push(Packet {
                proto: proto::TCP,
                flags: seg.flags,
                src_port: self.local_port,
                dst_port: self.remote_port,
                seq: seg.seq,
                ack: self.rcv_nxt,
                payload: seg.data.clone(),
            });
        }
        if resent {
            // A timeout signals congestion: multiplicative decrease.
            // Half the flight becomes the new threshold, the window
            // collapses to one segment and slow start restarts.
            let mss = MAX_PAYLOAD as u32;
            self.ssthresh = ((self.bytes_in_flight() / 2) as u32).max(2 * mss);
            self.cwnd = mss;
            if self.backoff_shift < MAX_BACKOFF_SHIFT {
                self.backoff_shift += 1;
            }
        }
        out.extend(self.flush_window(now));
        out
    }

    /// True when all submitted data has been sent and acknowledged.
    pub fn all_acked(&self) -> bool {
        self.in_flight.is_empty() && self.snd_buf.is_empty() && !self.fin_pending
    }
}

/// An RST answering `pkt`, acceptable to the peer whatever state it is
/// in: `seq` echoes the peer's own ACK (its view of our send edge) and
/// `ack` covers everything the offending segment occupied, so a SYN into
/// a dead port sees its SYN acknowledged (satisfying the `SynSent` RST
/// window check) and a retransmitting established peer sees `seq` at its
/// receive edge.
pub fn rst_for(pkt: &Packet, local_port: u16) -> Packet {
    let occupied = pkt.payload.len() as u32
        + u32::from(pkt.flags & flags::SYN != 0)
        + u32::from(pkt.flags & flags::FIN != 0);
    Packet {
        proto: proto::TCP,
        flags: flags::RST | flags::ACK,
        src_port: local_port,
        dst_port: pkt.src_port,
        seq: pkt.ack,
        ack: pkt.seq.wrapping_add(occupied),
        payload: Vec::new(),
    }
}

/// Serial-number "less than" for 32-bit sequence space.
fn seq_lt(a: u32, b: u32) -> bool {
    (b.wrapping_sub(a) as i32) > 0
}

/// Per-listener event counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ListenerStats {
    /// SYNs that reached the listener (new handshake attempts).
    pub syns_received: u64,
    /// Child PCBs spawned into the SYN queue.
    pub children_spawned: u64,
    /// SYNs dropped because the queues sat at the backlog limit (the
    /// peer's SYN retransmission retries later).
    pub backlog_drops: u64,
    /// Established children handed to the application via `accept`.
    pub accepted: u64,
    /// Children culled before accept: handshake retry budget exhausted,
    /// reset by the peer, or closed while queued.
    pub children_failed: u64,
    /// RSTs answering non-SYN segments that matched no child — stale
    /// traffic from dead connection incarnations.
    pub resets_sent: u64,
}

/// A real passive open: a listening endpoint that spawns one child
/// [`TcpPcb`] per peer into a bounded SYN/accept queue, instead of
/// mutating itself into the connection (the historical single-shot
/// behaviour, which silently ignored every concurrent SYN).
///
/// Children are keyed by remote port. They stay inside the listener —
/// absorbing handshake traffic, retransmitting their SYN-ACKs from
/// `tick`, even buffering early data — until [`TcpListener::accept`]
/// hands them to the application, FIFO in order of reaching
/// `Established`. The queue (SYN + accept together) is bounded by
/// `backlog`: excess SYNs are dropped silently, exactly like a full
/// listen queue, and heal via the peer's SYN retransmission once
/// `accept` frees a slot.
#[derive(Debug)]
pub struct TcpListener {
    /// The listening port.
    pub local_port: u16,
    backlog: usize,
    iss_base: u32,
    /// Children by remote port: SynRcvd (SYN queue) or Established but
    /// not yet accepted (accept queue).
    children: BTreeMap<u16, TcpPcb>,
    /// Remote ports whose child reached Established, in accept order.
    ready: VecDeque<u16>,
    /// Event counters.
    pub stats: ListenerStats,
}

impl TcpListener {
    /// A listener on `local_port` holding at most `backlog` children.
    /// `iss_base` seeds the per-connection ISS derivation.
    pub fn new(local_port: u16, backlog: usize, iss_base: u32) -> TcpListener {
        TcpListener {
            local_port,
            backlog: backlog.max(1),
            iss_base,
            children: BTreeMap::new(),
            ready: VecDeque::new(),
            stats: ListenerStats::default(),
        }
    }

    /// Children currently queued (SYN queue + accept queue).
    pub fn pending(&self) -> usize {
        self.children.len()
    }

    /// Established children awaiting `accept`.
    pub fn ready_len(&self) -> usize {
        self.ready.len()
    }

    /// The configured backlog limit.
    pub fn backlog(&self) -> usize {
        self.backlog
    }

    /// Deterministic per-connection ISS: an odd-multiplier walk of the
    /// sequence space keyed by the remote port, so simultaneous
    /// handshakes never collide on an ISS (and replays are exact).
    fn child_iss(&self, remote_port: u16) -> u32 {
        self.iss_base
            .wrapping_add((u32::from(remote_port)).wrapping_mul(0x9E37_79B9) | 1)
    }

    /// Queues `remote` for accept if its child just became established;
    /// culls it if it died. Returns true if the child was culled.
    fn promote_or_cull(&mut self, remote: u16) -> bool {
        let Some(child) = self.children.get(&remote) else {
            return false;
        };
        if child.state == TcpState::Closed {
            self.children.remove(&remote);
            self.ready.retain(|&r| r != remote);
            self.stats.children_failed += 1;
            return true;
        }
        if child.state != TcpState::SynRcvd && !self.ready.contains(&remote) {
            self.ready.push_back(remote);
        }
        false
    }

    /// Handles a packet addressed to the listening port: routes it to
    /// the matching child, spawns a child for a fresh SYN (backlog
    /// permitting), answers stale non-SYN traffic with an RST, and
    /// ignores RSTs that match no child — a listener is not a
    /// connection; a blind RST cannot kill it.
    pub fn on_packet(&mut self, pkt: &Packet, now: u64) -> Vec<Packet> {
        if let Some(child) = self.children.get_mut(&pkt.src_port) {
            let out = child.on_packet(pkt, now);
            self.promote_or_cull(pkt.src_port);
            return out;
        }
        if pkt.flags & flags::RST != 0 {
            return Vec::new();
        }
        if pkt.flags & flags::SYN != 0 {
            self.stats.syns_received += 1;
            if self.children.len() >= self.backlog {
                self.stats.backlog_drops += 1;
                return Vec::new();
            }
            let mut child = TcpPcb::new(self.local_port, self.child_iss(pkt.src_port));
            let out = child.accept_syn(pkt, now);
            self.children.insert(pkt.src_port, child);
            self.stats.children_spawned += 1;
            return out;
        }
        self.stats.resets_sent += 1;
        vec![rst_for(pkt, self.local_port)]
    }

    /// Pops the oldest established child, ready for its own fd and a
    /// slot in the connection table.
    pub fn accept(&mut self) -> Option<TcpPcb> {
        while let Some(remote) = self.ready.pop_front() {
            if let Some(child) = self.children.remove(&remote) {
                self.stats.accepted += 1;
                return Some(child);
            }
        }
        None
    }

    /// Timer processing for every queued child (SYN-ACK retransmission
    /// with the usual backoff and retry budget); culls children whose
    /// handshake died so a SYN flood cannot pin the queue forever.
    pub fn tick(&mut self, now: u64) -> Vec<Packet> {
        let mut out = Vec::new();
        let remotes: Vec<u16> = self.children.keys().copied().collect();
        for remote in remotes {
            if let Some(child) = self.children.get_mut(&remote) {
                out.extend(child.tick(now));
            }
            self.promote_or_cull(remote);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Delivers every packet in `pkts` to `dst`, returning responses.
    fn deliver(dst: &mut TcpPcb, pkts: Vec<Packet>, now: u64) -> Vec<Packet> {
        let mut out = Vec::new();
        for p in pkts {
            out.extend(dst.on_packet(&p, now));
        }
        out
    }

    /// Handshake through a real listener: the client PCB talks to a
    /// TcpListener, and the established child is popped via accept.
    fn established_pair() -> (TcpPcb, TcpPcb) {
        let mut a = TcpPcb::new(1000, 100);
        let mut l = TcpListener::new(80, 8, 9000);
        let syn = a.connect(80, 0);
        let synack = l.on_packet(&syn, 0);
        let ack = deliver(&mut a, synack, 0);
        for p in ack {
            l.on_packet(&p, 0);
        }
        let b = l.accept().expect("child established and accepted");
        assert_eq!(a.state, TcpState::Established);
        assert_eq!(b.state, TcpState::Established);
        assert_eq!(b.remote_port, 1000);
        (a, b)
    }

    #[test]
    fn three_way_handshake() {
        let (_a, _b) = established_pair();
    }

    #[test]
    fn data_transfer_with_ack() {
        let (mut a, mut b) = established_pair();
        let segs = a.send(b"hello tcp", 1);
        assert_eq!(segs.len(), 1);
        let acks = deliver(&mut b, segs, 1);
        assert!(acks.is_empty(), "a lone in-order segment delays its ACK");
        assert_eq!(b.take_received(), b"hello tcp");
        let acks = b.tick(1 + DELAYED_ACK_NS);
        assert_eq!(acks.len(), 1, "the delayed-ACK timer flushes it");
        assert_eq!(b.counters.delayed_acks, 1);
        deliver(&mut a, acks, 1);
        assert!(a.all_acked());
    }

    #[test]
    fn large_send_is_segmented() {
        let (mut a, mut b) = established_pair();
        let data = vec![7u8; MAX_PAYLOAD * 3 + 10];
        let segs = a.send(&data, 1);
        assert_eq!(segs.len(), 4, "within the initial window: all at once");
        let acks = deliver(&mut b, segs, 1);
        assert!(!acks.is_empty(), "every second segment is ACKed at once");
        assert_eq!(b.take_received(), data);
        deliver(&mut a, acks, 1);
        let acks = b.tick(1 + DELAYED_ACK_NS);
        deliver(&mut a, acks, 1);
        assert!(a.all_acked());
    }

    #[test]
    fn out_of_order_segments_reassemble() {
        let (mut a, mut b) = established_pair();
        let mut segs = a.send(&[vec![1u8; 100], vec![2u8; 100]].concat(), 1);
        // Deliver the second segment first... need two segments; 200 bytes
        // fits one segment, so send two separate chunks instead.
        assert_eq!(segs.len(), 1);
        let seg1 = segs.remove(0);
        let seg2 = a.send(&[3u8; 50], 1).remove(0);
        b.on_packet(&seg2, 1);
        assert_eq!(b.available(), 0, "gap: nothing delivered yet");
        b.on_packet(&seg1, 1);
        let got = b.take_received();
        assert_eq!(got.len(), 250);
        assert_eq!(&got[200..], &[3u8; 50][..]);
    }

    #[test]
    fn duplicate_segment_ignored() {
        let (mut a, mut b) = established_pair();
        let seg = a.send(b"once", 1).remove(0);
        b.on_packet(&seg, 1);
        b.on_packet(&seg, 1);
        assert_eq!(b.take_received(), b"once");
    }

    #[test]
    fn retransmission_after_timeout() {
        let (mut a, mut b) = established_pair();
        let segs = a.send(b"lost", 1);
        drop(segs); // The wire ate them.
        assert!(a.tick(1 + DEFAULT_RTO_NS / 2).is_empty(), "not yet");
        let rts = a.tick(1 + DEFAULT_RTO_NS);
        assert_eq!(rts.len(), 1);
        assert_eq!(a.counters.retransmits, 1);
        let now = 1 + DEFAULT_RTO_NS;
        deliver(&mut b, rts, now);
        assert_eq!(b.take_received(), b"lost");
        let acks = b.tick(now + DELAYED_ACK_NS);
        deliver(&mut a, acks, now + DELAYED_ACK_NS);
        assert!(a.all_acked());
    }

    #[test]
    fn fin_teardown_both_directions() {
        let (mut a, mut b) = established_pair();
        let mut fins = a.close(1);
        assert_eq!(fins.len(), 1, "nothing buffered: the FIN goes at once");
        let fin = fins.remove(0);
        assert_eq!(a.state, TcpState::FinWait1);
        let acks = b.on_packet(&fin, 1);
        assert_eq!(b.state, TcpState::CloseWait);
        deliver(&mut a, acks, 1);
        assert!(matches!(a.state, TcpState::FinWait2 | TcpState::TimeWait));
        let fin2 = b.close(2).remove(0);
        assert_eq!(b.state, TcpState::LastAck);
        let acks2 = a.on_packet(&fin2, 2);
        assert_eq!(a.state, TcpState::TimeWait);
        deliver(&mut b, acks2, 2);
        assert_eq!(b.state, TcpState::Closed);
        assert!(!b.is_failed(), "orderly close is not a failure");
    }

    /// The FIN must sequence after buffered data: closing with a full
    /// window defers the FIN until ACKs drain the send buffer.
    #[test]
    fn close_defers_fin_behind_buffered_data() {
        let (mut a, mut b) = established_pair();
        let data = vec![9u8; INIT_CWND as usize + 500];
        let segs = a.send(&data, 1);
        assert!(a.backlog_bytes() > 0, "window-limited: data buffered");
        let out = a.close(1);
        assert!(
            out.iter().all(|p| p.flags & flags::FIN == 0),
            "no FIN may overtake buffered data"
        );
        assert_eq!(a.state, TcpState::FinWait1);
        assert!(!a.can_send(), "no new data after close");
        // Drain: deliver everything, ACK it back, repeat until the FIN
        // arrives and both sides wind down.
        let mut now = 1u64;
        let mut wire: Vec<Packet> = segs.into_iter().chain(out).collect();
        let mut got = Vec::new();
        for _ in 0..20 {
            now += DELAYED_ACK_NS + 1;
            let to_a = deliver(&mut b, std::mem::take(&mut wire), now);
            got.extend(b.take_received());
            let mut back = deliver(&mut a, to_a, now);
            back.extend(a.tick(now));
            let mut to_a2 = deliver(&mut b, back, now);
            to_a2.extend(b.tick(now));
            wire.extend(deliver(&mut a, to_a2, now));
            if a.state == TcpState::FinWait2 || a.state == TcpState::TimeWait {
                break;
            }
        }
        got.extend(b.take_received());
        assert_eq!(got, data, "every buffered byte arrived before the FIN");
        assert!(
            matches!(a.state, TcpState::FinWait2 | TcpState::TimeWait),
            "FIN eventually sent and acknowledged, state {:?}",
            a.state
        );
        assert_eq!(b.state, TcpState::CloseWait);
    }

    #[test]
    fn rst_at_the_receive_edge_kills_connection() {
        let (mut a, _b) = established_pair();
        let mut rst = Packet::new(proto::TCP, 80, 1000);
        rst.flags = flags::RST;
        rst.seq = a.rcv_nxt;
        a.on_packet(&rst, 1);
        assert_eq!(a.state, TcpState::Closed);
        assert!(a.is_failed());
        assert_eq!(a.counters.resets_received, 1);
    }

    /// Regression (blind RST): an off-path attacker who does not know
    /// `rcv_nxt` cannot reset an established connection.
    #[test]
    fn blind_rst_with_wrong_seq_is_ignored() {
        let (mut a, _b) = established_pair();
        for bogus in [
            0u32,
            1,
            a.rcv_nxt.wrapping_add(1),
            a.rcv_nxt.wrapping_sub(1),
        ] {
            let mut rst = Packet::new(proto::TCP, 80, 1000);
            rst.flags = flags::RST;
            rst.seq = bogus;
            a.on_packet(&rst, 1);
            assert_eq!(a.state, TcpState::Established, "blind RST seq={bogus}");
        }
        assert_eq!(a.counters.resets_received, 0);
    }

    /// Regression (blind RST): a listener survives any RST — it is not a
    /// connection and must keep accepting new SYNs.
    #[test]
    fn rst_cannot_kill_a_listener() {
        let mut srv = TcpListener::new(80, 8, 9000);
        for seq in [0u32, 1, 12345] {
            let mut rst = Packet::new(proto::TCP, 99, 80);
            rst.flags = flags::RST;
            rst.seq = seq;
            assert!(srv.on_packet(&rst, 0).is_empty(), "RSTs are not answered");
            assert_eq!(srv.pending(), 0, "an RST never spawns a child");
        }
        // Still accepts a connection afterwards.
        let mut cli = TcpPcb::new(1000, 100);
        let syn = cli.connect(80, 0);
        assert_eq!(srv.on_packet(&syn, 0).len(), 1);
        assert_eq!(srv.pending(), 1, "child spawned into the SYN queue");
    }

    /// Regression (stale ACK in SynRcvd): an ACK that does not cover the
    /// child's in-flight SYN-ACK must not establish the connection.
    #[test]
    fn stale_ack_does_not_establish_from_syn_rcvd() {
        let mut srv = TcpListener::new(80, 8, 9000);
        let mut cli = TcpPcb::new(1000, 100);
        let syn = cli.connect(80, 0);
        let synack = srv.on_packet(&syn, 0).remove(0);
        assert_eq!(srv.pending(), 1);
        assert_eq!(srv.ready_len(), 0, "SynRcvd child is not yet acceptable");
        // ACK from an old incarnation: acknowledges nothing of the child's.
        let mut stale = Packet::new(proto::TCP, 1000, 80);
        stale.flags = flags::ACK;
        stale.ack = synack.seq; // covers the ISS, not the SYN-ACK
        stale.seq = synack.ack;
        srv.on_packet(&stale, 0);
        assert_eq!(srv.ready_len(), 0, "stale ACK must not establish");
        assert!(srv.accept().is_none());
        // The genuine ACK does.
        let mut good = Packet::new(proto::TCP, 1000, 80);
        good.flags = flags::ACK;
        good.ack = synack.seq.wrapping_add(1);
        good.seq = synack.ack;
        srv.on_packet(&good, 0);
        assert_eq!(srv.ready_len(), 1);
        let child = srv.accept().expect("established child");
        assert_eq!(child.state, TcpState::Established);
    }

    /// Regression (ghost ACK): an ACK beyond `snd_nxt` must not retire
    /// in-flight segments or advance `snd_una` past data actually sent.
    #[test]
    fn ghost_ack_beyond_snd_nxt_is_dropped() {
        let (mut a, _b) = established_pair();
        a.send(b"unacked payload", 1);
        let (una, nxt) = (a.snd_una, a.snd_nxt);
        let mut ghost = Packet::new(proto::TCP, 80, 1000);
        ghost.flags = flags::ACK;
        ghost.ack = nxt.wrapping_add(5000);
        ghost.seq = a.rcv_nxt;
        a.on_packet(&ghost, 1);
        assert_eq!(a.snd_una, una, "snd_una must not move past sent data");
        assert!(!a.all_acked(), "in-flight data must not be ghost-retired");
        assert_eq!(a.counters.dup_acks_dropped, 1);
        // The retransmission machinery still heals the stream.
        assert_eq!(a.tick(1 + DEFAULT_RTO_NS).len(), 1);
    }

    /// Regression (stale duplicate ACK): an ACK at or below `snd_una`
    /// while data is outstanding is dropped and counted.
    #[test]
    fn duplicate_ack_is_dropped_and_counted() {
        let (mut a, _b) = established_pair();
        a.send(b"data", 1);
        let mut dup = Packet::new(proto::TCP, 80, 1000);
        dup.flags = flags::ACK;
        dup.ack = a.snd_una;
        dup.seq = a.rcv_nxt;
        a.on_packet(&dup, 1);
        a.on_packet(&dup, 1);
        assert_eq!(a.counters.dup_acks_dropped, 2);
        assert!(!a.all_acked());
    }

    /// Regression (close in SynSent): closing a half-open socket must stop
    /// SYN retransmission — the old engine kept retransmitting the SYN
    /// (re-flagged SYN|ACK) from a closed socket forever.
    #[test]
    fn close_in_syn_sent_stops_retransmission() {
        let mut a = TcpPcb::new(1000, 100);
        a.connect(80, 0);
        assert!(a.close(1).is_empty());
        assert_eq!(a.state, TcpState::Closed);
        assert!(a.all_acked(), "in-flight SYN cleared on close");
        for round in 1..=20u64 {
            assert!(
                a.tick(round * DEFAULT_RTO_NS).is_empty(),
                "closed socket retransmitted at round {round}"
            );
        }
        assert_eq!(a.counters.retransmits, 0);
    }

    /// One listener, many concurrent handshakes: each SYN spawns its own
    /// child, accept pops them FIFO, and data flows per connection.
    #[test]
    fn listener_serves_concurrent_handshakes() {
        let mut srv = TcpListener::new(80, 8, 9000);
        let mut clients: Vec<TcpPcb> = (0..3).map(|i| TcpPcb::new(2000 + i, 100)).collect();
        // All three SYNs land before any handshake completes.
        let synacks: Vec<Packet> = clients
            .iter_mut()
            .map(|c| srv.on_packet(&c.connect(80, 0), 0).remove(0))
            .collect();
        assert_eq!(srv.pending(), 3, "three children in the SYN queue");
        assert_eq!(srv.ready_len(), 0);
        for (c, sa) in clients.iter_mut().zip(synacks) {
            for ack in c.on_packet(&sa, 0) {
                srv.on_packet(&ack, 0);
            }
            assert_eq!(c.state, TcpState::Established);
        }
        assert_eq!(srv.ready_len(), 3, "all three in the accept queue");
        for expected_remote in [2000u16, 2001, 2002] {
            let mut child = srv.accept().expect("accepted in FIFO order");
            assert_eq!(child.remote_port, expected_remote);
            // Each pair carries data independently.
            let cli = &mut clients[(expected_remote - 2000) as usize];
            let msg = vec![expected_remote as u8; 64];
            for seg in cli.send(&msg, 1) {
                child.on_packet(&seg, 1);
            }
            assert_eq!(child.take_received(), msg);
        }
        assert!(srv.accept().is_none());
        assert_eq!(srv.stats.accepted, 3);
        assert_eq!(srv.stats.children_spawned, 3);
    }

    /// The backlog bounds the queue: excess SYNs are dropped silently and
    /// heal via SYN retransmission once accept frees a slot.
    #[test]
    fn backlog_limit_drops_syns_until_accept_frees_a_slot() {
        let mut srv = TcpListener::new(80, 2, 9000);
        let mut c1 = TcpPcb::new(3001, 100);
        let mut c2 = TcpPcb::new(3002, 100);
        let mut c3 = TcpPcb::new(3003, 100);
        let sa1 = srv.on_packet(&c1.connect(80, 0), 0);
        let sa2 = srv.on_packet(&c2.connect(80, 0), 0);
        let dropped = srv.on_packet(&c3.connect(80, 0), 0);
        assert!(dropped.is_empty(), "backlog full: the third SYN is dropped");
        assert_eq!(srv.stats.backlog_drops, 1);
        assert_eq!(srv.pending(), 2);
        // First two complete; one is accepted, freeing a slot.
        for (c, sa) in [(&mut c1, sa1), (&mut c2, sa2)] {
            for p in sa {
                for ack in c.on_packet(&p, 0) {
                    srv.on_packet(&ack, 0);
                }
            }
        }
        assert!(srv.accept().is_some());
        // The third client's SYN-RTO retransmission now gets through.
        let rts = c3.tick(DEFAULT_RTO_NS);
        assert_eq!(rts.len(), 1, "SYN retransmitted");
        let sa3 = srv.on_packet(&rts[0], DEFAULT_RTO_NS);
        assert_eq!(sa3.len(), 1, "slot free: SYN-ACK answered");
        for ack in c3.on_packet(&sa3[0], DEFAULT_RTO_NS) {
            srv.on_packet(&ack, DEFAULT_RTO_NS);
        }
        assert_eq!(c3.state, TcpState::Established);
        assert_eq!(srv.ready_len(), 2);
    }

    /// Distinct remotes get distinct, deterministic ISS values.
    #[test]
    fn child_iss_is_seeded_per_connection() {
        let srv = TcpListener::new(80, 8, 9000);
        let mut seen = std::collections::BTreeSet::new();
        for remote in [1u16, 2, 3, 1000, 1001, 65535] {
            assert!(seen.insert(srv.child_iss(remote)), "ISS collision");
        }
        let again = TcpListener::new(80, 8, 9000);
        assert_eq!(
            srv.child_iss(1000),
            again.child_iss(1000),
            "derivation is deterministic for replay"
        );
    }

    /// A handshake that dies in the SYN queue (peer resets) is culled and
    /// never reaches the accept queue.
    #[test]
    fn reset_child_is_culled_from_the_syn_queue() {
        let mut srv = TcpListener::new(80, 8, 9000);
        let mut cli = TcpPcb::new(4000, 100);
        let synack = srv.on_packet(&cli.connect(80, 0), 0).remove(0);
        assert_eq!(srv.pending(), 1);
        // The client aborts: an in-window RST kills the child.
        let mut rst = Packet::new(proto::TCP, 4000, 80);
        rst.flags = flags::RST;
        rst.seq = synack.ack;
        srv.on_packet(&rst, 0);
        assert_eq!(srv.pending(), 0, "reset child culled");
        assert_eq!(srv.stats.children_failed, 1);
        assert!(srv.accept().is_none());
    }

    /// Stale non-SYN traffic that matches no child is answered with an
    /// RST the confused peer will actually accept.
    #[test]
    fn listener_resets_stale_segments_from_dead_incarnations() {
        let mut srv = TcpListener::new(80, 8, 9000);
        // An established peer from a dead incarnation retransmits data.
        let mut stale = Packet::new(proto::TCP, 5000, 80);
        stale.flags = flags::ACK;
        stale.seq = 7777;
        stale.ack = 1234;
        stale.payload = vec![1, 2, 3];
        let out = srv.on_packet(&stale, 0);
        assert_eq!(out.len(), 1);
        assert_ne!(out[0].flags & flags::RST, 0);
        assert_eq!(srv.stats.resets_sent, 1);
        assert_eq!(
            out[0].seq, stale.ack,
            "RST seq sits at the peer's receive edge"
        );
        assert_eq!(srv.pending(), 0, "no child conjured from stale traffic");
    }

    /// Regression (ooo purge): entries below `rcv_nxt` — covered by a
    /// retransmission that filled the gap — are purged on the cumulative
    /// advance instead of accumulating forever.
    #[test]
    fn covered_ooo_entries_are_purged() {
        let (mut a, mut b) = established_pair();
        let seg1 = a.send(&[1u8; 100], 1).remove(0);
        let seg2 = a.send(&[2u8; 100], 1).remove(0);
        let seg3 = a.send(&[3u8; 100], 1).remove(0);
        // seg2 and seg3 arrive out of order and are buffered.
        b.on_packet(&seg2, 1);
        b.on_packet(&seg3, 1);
        assert_eq!(b.ooo_len(), 2);
        assert_eq!(b.counters.ooo_buffered, 2);
        // The gap heals: everything drains, nothing lingers.
        b.on_packet(&seg1, 1);
        assert_eq!(b.ooo_len(), 0);
        assert_eq!(b.take_received().len(), 300);
        // A late retransmission of seg2 (wholly old) does not re-buffer.
        b.on_packet(&seg2, 2);
        assert_eq!(b.ooo_len(), 0);
    }

    /// Regression (ooo budget): the reassembly buffer is bounded; arrivals
    /// beyond the budget are refused, not hoarded.
    #[test]
    fn ooo_buffer_is_capped() {
        let (mut a, mut b) = established_pair();
        // One unsent head segment keeps everything after it out of order.
        let _head = a.send(&[0u8; 10], 1).remove(0);
        for i in 0..OOO_BUDGET + 8 {
            let seg = a.send(&[i as u8; 10], 1).remove(0);
            b.on_packet(&seg, 1);
        }
        assert_eq!(b.ooo_len(), OOO_BUDGET);
        assert!(b.counters.ooo_purged >= 8, "over-budget arrivals refused");
    }

    /// Tentpole: the RTO backs off exponentially and a segment that
    /// exhausts its retry budget fails the connection cleanly — no
    /// retransmission continues past `Closed`.
    #[test]
    fn retry_budget_exhaustion_fails_the_connection() {
        let (mut a, _b) = established_pair();
        a.send(b"into the void", 1);
        let mut now = 1u64;
        let mut rts = 0u64;
        let mut last_rto = 0u64;
        for _ in 0..MAX_RETRIES * 2 {
            let rto = a.effective_rto();
            assert!(rto >= last_rto, "backoff never shrinks without progress");
            last_rto = rto;
            now += rto;
            let pkts = a.tick(now);
            if a.state == TcpState::Closed {
                break;
            }
            rts += pkts.len() as u64;
        }
        assert_eq!(a.state, TcpState::Closed);
        assert!(a.is_failed(), "budget exhaustion is a reported failure");
        assert!(a.is_defunct());
        assert_eq!(rts, u64::from(MAX_RETRIES));
        assert_eq!(a.counters.retransmits, u64::from(MAX_RETRIES));
        // Dead means dead: no further transmission, ever.
        for i in 1..=10u64 {
            assert!(a.tick(now + i * DEFAULT_RTO_NS).is_empty());
        }
    }

    /// Tentpole: the backoff resets once an ACK makes forward progress.
    #[test]
    fn backoff_resets_on_forward_progress() {
        let (mut a, mut b) = established_pair();
        a.send(b"first", 1);
        let mut now = 1 + a.effective_rto();
        let rts = a.tick(now);
        assert!(a.effective_rto() > DEFAULT_RTO_NS, "backed off");
        deliver(&mut b, rts, now);
        now += DELAYED_ACK_NS;
        let acks = b.tick(now);
        deliver(&mut a, acks, now);
        assert_eq!(a.effective_rto(), DEFAULT_RTO_NS, "progress resets backoff");
    }

    /// Slow start doubles the window per round of ACKs; a timeout
    /// collapses it to one segment and halves the threshold.
    #[test]
    fn cwnd_slow_start_and_timeout_collapse() {
        let (mut a, mut b) = established_pair();
        assert_eq!(a.cwnd, INIT_CWND);
        let data = vec![5u8; 12 * MAX_PAYLOAD];
        let segs = a.send(&data, 1);
        assert_eq!(
            segs.len() * MAX_PAYLOAD,
            INIT_CWND as usize,
            "first burst is window-limited"
        );
        assert_eq!(a.backlog_bytes(), data.len() - INIT_CWND as usize);
        // ACKs grow the window one segment each and flush more data.
        let mut acks = deliver(&mut b, segs, 1);
        acks.extend(b.tick(1 + DELAYED_ACK_NS));
        let more = deliver(&mut a, acks, 1 + DELAYED_ACK_NS);
        assert!(a.cwnd > INIT_CWND, "slow start grew the window");
        assert!(!more.is_empty(), "ACKs flushed buffered data");
        // Silence: everything still in flight times out.
        let now = 2 + DELAYED_ACK_NS + a.effective_rto();
        let flight_before = a.cwnd;
        a.tick(now);
        assert_eq!(a.cwnd, MAX_PAYLOAD as u32, "collapse to one segment");
        assert!(
            a.ssthresh >= 2 * MAX_PAYLOAD as u32 && a.ssthresh < flight_before,
            "threshold halved to half the flight: {}",
            a.ssthresh
        );
    }

    /// The congestion window never exceeds its cap, bounding memory.
    #[test]
    fn cwnd_is_capped() {
        let (mut a, _b) = established_pair();
        a.ssthresh = MAX_CWND;
        a.cwnd = MAX_CWND - 1;
        // Retire a segment to trigger growth.
        let seg = a.send(&[1u8; 10], 1).remove(0);
        let mut ack = Packet::new(proto::TCP, 80, 1000);
        ack.flags = flags::ACK;
        ack.ack = seg.seq.wrapping_add(10);
        ack.seq = a.rcv_nxt;
        a.on_packet(&ack, 1);
        assert_eq!(a.cwnd, MAX_CWND);
    }

    /// Tentpole: TIME_WAIT expires via tick, so the PCB reaches `Closed`
    /// and can be reaped.
    #[test]
    fn time_wait_expires_to_closed() {
        let (mut a, mut b) = established_pair();
        let fin = a.close(1).remove(0);
        let acks = b.on_packet(&fin, 1);
        deliver(&mut a, acks, 1);
        let fin2 = b.close(2).remove(0);
        let acks2 = a.on_packet(&fin2, 2);
        deliver(&mut b, acks2, 2);
        assert_eq!(a.state, TcpState::TimeWait);
        assert!(a.tick(2 + TIME_WAIT_NS / 2).is_empty());
        assert_eq!(a.state, TcpState::TimeWait, "lingering");
        a.tick(2 + TIME_WAIT_NS + 1);
        assert_eq!(a.state, TcpState::Closed);
        assert!(!a.is_failed());
        assert!(a.is_defunct(), "reapable after expiry");
    }

    #[test]
    fn packet_to_closed_socket_gets_rst() {
        let mut closed = TcpPcb::new(7, 1);
        let mut probe = Packet::new(proto::TCP, 99, 7);
        probe.flags = flags::ACK;
        let out = closed.on_packet(&probe, 0);
        assert_eq!(out.len(), 1);
        assert_ne!(out[0].flags & flags::RST, 0);
        assert_eq!(closed.counters.resets_sent, 1);
    }

    #[test]
    fn retransmitted_segments_keep_their_original_flags() {
        // A queued child's SYN-ACK retransmits as a SYN-ACK from the
        // listener's tick, even after states move on.
        let mut srv = TcpListener::new(80, 8, 9000);
        let mut cli = TcpPcb::new(1000, 100);
        let syn = cli.connect(80, 0);
        srv.on_packet(&syn, 0);
        let rts = srv.tick(DEFAULT_RTO_NS);
        assert_eq!(rts.len(), 1);
        assert_eq!(rts[0].flags, flags::SYN | flags::ACK);
    }

    #[test]
    fn seq_comparison_wraps() {
        assert!(seq_lt(u32::MAX - 1, 2));
        assert!(seq_lt(1, 2));
        assert!(!seq_lt(2, 1));
    }

    #[test]
    fn reassembly_works_across_sequence_wraparound() {
        // Start the sender near the top of the sequence space so the
        // stream wraps; the old smallest-numeric-key drain scan wedged
        // here.
        let mut a = TcpPcb::new(1000, u32::MAX - 120);
        let mut l = TcpListener::new(80, 8, 9000);
        let syn = a.connect(80, 0);
        let synack = l.on_packet(&syn, 0);
        let ack = deliver(&mut a, synack, 0);
        for p in ack {
            l.on_packet(&p, 0);
        }
        let mut b = l.accept().expect("established child");
        let seg1 = a.send(&[1u8; 100], 1).remove(0);
        let seg2 = a.send(&[2u8; 100], 1).remove(0);
        let seg3 = a.send(&[3u8; 100], 1).remove(0);
        // seg2 (pre-wrap) and seg3 (post-wrap) buffer out of order; the
        // numeric BTreeMap order of their keys is inverted.
        b.on_packet(&seg3, 1);
        b.on_packet(&seg2, 1);
        assert_eq!(b.available(), 0);
        b.on_packet(&seg1, 1);
        let got = b.take_received();
        assert_eq!(got.len(), 300);
        assert_eq!(&got[..100], &[1u8; 100][..]);
        assert_eq!(&got[100..200], &[2u8; 100][..]);
        assert_eq!(&got[200..], &[3u8; 100][..]);
        assert_eq!(b.ooo_len(), 0);
    }

    #[test]
    fn send_before_established_is_dropped() {
        let mut a = TcpPcb::new(1, 0);
        assert!(a.send(b"nope", 0).is_empty());
    }
}
