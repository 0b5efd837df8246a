//! Property tests for the network stack: packet codec totality, the
//! TCP prefix-delivery specification under arbitrary wire behaviour, and
//! the adversarial-link soak that both socket-layer generations must
//! survive.

use std::sync::Arc;

use proptest::prelude::*;
use safer_kernel::core::modularity::Registry;
use safer_kernel::ksim::time::SimClock;
use safer_kernel::legacy::LegacyCtx;
use safer_kernel::netstack::fault::{FaultConfig, FaultyLink};
use safer_kernel::netstack::legacy_stack::LegacyStack;
use safer_kernel::netstack::modular_stack::{register_families, ModularStack};
use safer_kernel::netstack::packet::{flags, proto, Packet, HEADER_LEN, MAX_PAYLOAD};
use safer_kernel::netstack::spec::StreamChecker;
use safer_kernel::netstack::tcp::{TcpListener, TcpPcb, TcpState, DEFAULT_RTO_NS};
use safer_kernel::netstack::wire::{Side, Wire, WireFaults};
use sk_bench::net::NetStack;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Encode/decode is the identity on valid packets.
    #[test]
    fn packet_codec_roundtrips(
        p in (0u8..3, any::<u8>(), any::<u16>(), any::<u16>(), any::<u32>(), any::<u32>(),
              prop::collection::vec(any::<u8>(), 0..MAX_PAYLOAD))
            .prop_map(|(pr, fl, sp, dp, seq, ack, payload)| Packet {
                proto: [proto::TCP, proto::UDP, proto::AMP_CTRL][pr as usize],
                flags: fl,
                src_port: sp,
                dst_port: dp,
                seq,
                ack,
                payload,
            })
    ) {
        let bytes = p.encode();
        prop_assert_eq!(bytes.len(), HEADER_LEN + p.payload.len());
        prop_assert_eq!(Packet::decode(&bytes).unwrap(), p);
    }

    /// The decoder is total: arbitrary bytes never panic, they parse or
    /// error.
    #[test]
    fn packet_decoder_is_total(bytes in prop::collection::vec(any::<u8>(), 0..1200)) {
        let _ = Packet::decode(&bytes);
    }

    /// The TCP engines refine the stream specification under arbitrary
    /// loss and duplication rates: every delivery extends the prefix, and
    /// the connection either completes or fails cleanly (the retry budget
    /// is allowed to fire when the wire eats most frames).
    #[test]
    fn tcp_prefix_delivery_under_arbitrary_faults(
        seed in any::<u64>(),
        loss in 0.0f64..0.5,
        duplicate in 0.0f64..0.3,
        chunks in prop::collection::vec(prop::collection::vec(any::<u8>(), 1..800), 1..6),
    ) {
        let wire = Arc::new(Wire::with_faults(WireFaults { loss, duplicate }, seed));
        let mut a = TcpPcb::new(1000, 100);
        let mut listener = TcpListener::new(80, 8, 9000);
        let mut b: Option<TcpPcb> = None;
        wire.send(Side::A, &a.connect(80, 0));
        let mut chk = StreamChecker::new();
        let mut submitted = 0usize;
        let mut now = 0u64;
        for _round in 0..3000 {
            now += DEFAULT_RTO_NS / 4;
            while let Ok(Some(pkt)) = wire.recv(Side::B) {
                let responses = match b.as_mut() {
                    Some(pcb) => pcb.on_packet(&pkt, now),
                    None => listener.on_packet(&pkt, now),
                };
                for r in responses {
                    wire.send(Side::B, &r);
                }
            }
            if b.is_none() {
                b = listener.accept();
            }
            while let Ok(Some(pkt)) = wire.recv(Side::A) {
                for r in a.on_packet(&pkt, now) {
                    wire.send(Side::A, &r);
                }
            }
            if submitted < chunks.len() && a.state == TcpState::Established {
                chk.on_send(&chunks[submitted]);
                for p in a.send(&chunks[submitted], now) {
                    wire.send(Side::A, &p);
                }
                submitted += 1;
            }
            if let Some(pcb) = b.as_mut() {
                let got = pcb.take_received();
                if !got.is_empty() {
                    chk.on_deliver(&got);
                }
            }
            prop_assert!(chk.is_clean(), "{:?}", chk.violations());
            chk.model().check_invariant().map_err(TestCaseError::fail)?;
            if submitted == chunks.len() && chk.model().is_complete() && a.all_acked() {
                break;
            }
            if a.is_failed() || b.as_ref().is_some_and(|p| p.is_failed()) {
                break;
            }
            for p in a.tick(now) {
                wire.send(Side::A, &p);
            }
            let server_ticks = match b.as_mut() {
                Some(pcb) => pcb.tick(now),
                None => listener.tick(now),
            };
            for p in server_ticks {
                wire.send(Side::B, &p);
            }
        }
        prop_assert!(
            chk.model().is_complete()
                || a.is_failed()
                || b.as_ref().is_some_and(|p| p.is_failed()),
            "stream neither completed nor failed cleanly"
        );
    }

    /// RST at the receive edge kills the connection without violating the
    /// delivered-prefix property (nothing un-delivers). Blind RSTs with
    /// an out-of-window sequence number would be ignored, so the attack
    /// here is an in-window one.
    #[test]
    fn rst_never_unwinds_delivered_bytes(
        data in prop::collection::vec(any::<u8>(), 1..2000),
        rst_after in 0usize..3,
    ) {
        let wire = Arc::new(Wire::new());
        let mut a = TcpPcb::new(1000, 100);
        let mut listener = TcpListener::new(80, 8, 9000);
        let mut b: Option<TcpPcb> = None;
        wire.send(Side::A, &a.connect(80, 0));
        let mut chk = StreamChecker::new();
        let mut now = 0;
        let mut delivered_before_rst = 0usize;
        let mut rst_fired = false;
        for round in 0..20 {
            now += 1;
            while let Ok(Some(pkt)) = wire.recv(Side::B) {
                let responses = match b.as_mut() {
                    Some(pcb) => pcb.on_packet(&pkt, now),
                    None => listener.on_packet(&pkt, now),
                };
                for r in responses {
                    wire.send(Side::B, &r);
                }
            }
            if b.is_none() {
                b = listener.accept();
            }
            while let Ok(Some(pkt)) = wire.recv(Side::A) {
                for r in a.on_packet(&pkt, now) {
                    wire.send(Side::A, &r);
                }
            }
            if round == 1 {
                chk.on_send(&data);
                for p in a.send(&data, now) {
                    wire.send(Side::A, &p);
                }
            }
            if let Some(pcb) = b.as_mut() {
                let got = pcb.take_received();
                if !got.is_empty() {
                    chk.on_deliver(&got);
                }
                if round >= 2 + rst_after && !rst_fired {
                    let mut rst = Packet::new(proto::TCP, 1000, 80);
                    rst.flags = flags::RST;
                    rst.seq = pcb.rcv_nxt;
                    pcb.on_packet(&rst, now);
                    delivered_before_rst = chk.model().delivered;
                    rst_fired = true;
                }
            }
            prop_assert!(chk.is_clean());
        }
        // After the RST the receiver is dead; whatever was delivered stays
        // a valid prefix and never shrinks.
        let b = b.expect("handshake completed on the clean wire");
        prop_assert!(rst_fired);
        prop_assert!(chk.model().delivered >= delivered_before_rst);
        prop_assert_eq!(b.state, TcpState::Closed);
        prop_assert_eq!(b.counters.resets_received, 1);
    }
}

// ---------------------------------------------------------------------------
// The adversarial-link soak: both socket-layer generations over FaultyLink.
// ---------------------------------------------------------------------------

/// The soak outcome for one generation: what the checker saw.
struct SoakOutcome {
    complete: bool,
    client_failed: bool,
    server_failed: bool,
    violations: Vec<String>,
    retransmits: u64,
}

/// Drives one client/server pair over the adversarial link until the byte
/// stream completes, a side reports clean failure, or the round budget
/// runs out.
fn soak<C: NetStack, S: NetStack>(
    client: &C,
    server: &S,
    clock: &SimClock,
    chunks: &[Vec<u8>],
) -> SoakOutcome {
    let sfd = server.tcp_socket(80);
    server.listen(sfd);
    let cfd = client.tcp_socket(4000);
    client.connect(cfd, 80);

    let mut chk = StreamChecker::new();
    let mut submitted = 0usize;
    let mut complete = false;
    let mut client_failed = false;
    let mut server_failed = false;
    let mut conn: Option<u64> = None;
    for _round in 0..6000 {
        client.pump();
        server.pump();
        if conn.is_none() {
            conn = server.accept(sfd);
        }
        if submitted < chunks.len() && client.try_send(cfd, 80, &chunks[submitted]) {
            chk.on_send(&chunks[submitted]);
            submitted += 1;
        }
        if let Some(c) = conn {
            let got = server.recv(c);
            if !got.is_empty() {
                chk.on_deliver(&got);
            }
        }
        if submitted == chunks.len() && chk.model().is_complete() {
            complete = true;
            break;
        }
        client_failed = client.conn_failed(cfd);
        server_failed = conn.map(|c| server.conn_failed(c)).unwrap_or(false);
        if client_failed || server_failed {
            // Clean failure: the delivered prefix freezes here. Stop
            // pumping — straggler duplicates of pre-failure segments may
            // still be in flight, but no *new* bytes may appear.
            chk.on_connection_failed();
            break;
        }
        clock.advance(DEFAULT_RTO_NS / 2);
        client.tick();
        server.tick();
    }
    let retransmits = client.counters(cfd).retransmits;
    if client_failed {
        assert!(client.reap() >= 1, "failed client PCB must be reapable");
    }
    if server_failed {
        assert!(server.reap() >= 1, "failed server PCB must be reapable");
    }
    SoakOutcome {
        complete,
        client_failed,
        server_failed,
        violations: chk.violations().to_vec(),
        retransmits,
    }
}

fn assert_soak_outcome(out: &SoakOutcome, generation: &str) -> Result<(), TestCaseError> {
    prop_assert!(
        out.violations.is_empty(),
        "{generation}: prefix-delivery violated: {:?}",
        out.violations
    );
    prop_assert!(
        out.complete || out.client_failed || out.server_failed,
        "{generation}: stream neither completed nor failed cleanly \
         (retransmits so far: {})",
        out.retransmits
    );
    Ok(())
}

proptest! {
    // The soak runs two whole stacks per case; keep the case count modest.
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The tentpole soak: both socket-layer generations, pumping through a
    /// 20%-drop, duplicating, reordering, corrupting, delaying link, must
    /// deliver the byte stream exactly — or report a clean connection
    /// failure with the delivered prefix frozen. Never garbage, never
    /// silence.
    #[test]
    fn lossy_link_soak_both_generations(
        seed in any::<u64>(),
        chunks in prop::collection::vec(prop::collection::vec(any::<u8>(), 1..2500), 1..6),
    ) {
        let cfg = FaultConfig::adversarial(DEFAULT_RTO_NS / 4);

        // Generation 0: the legacy (void*-keyed) stack on both ends.
        let clock = Arc::new(SimClock::new());
        let link = Arc::new(FaultyLink::new(cfg, seed, Arc::clone(&clock)));
        let a = LegacyStack::new(LegacyCtx::new(), Side::A, link.clone(), Arc::clone(&clock));
        let b = LegacyStack::new(LegacyCtx::new(), Side::B, link.clone(), Arc::clone(&clock));
        let legacy_out = soak(&a, &b, &clock, &chunks);
        assert_soak_outcome(&legacy_out, "legacy")?;

        // Generation 1: the modular (typed-registry) stack on both ends,
        // over an identically-seeded link — same faults, same verdict.
        let clock = Arc::new(SimClock::new());
        let link = Arc::new(FaultyLink::new(cfg, seed, Arc::clone(&clock)));
        let registry = Arc::new(Registry::new());
        register_families(&registry).unwrap();
        // Lockdep rides along: both ends report into one enabled
        // acquires-after graph, and the soak must finish clean.
        let locks = safer_kernel::ksim::lock::LockRegistry::new();
        let a = ModularStack::with_lockdep(
            Arc::clone(&registry), Side::A, link.clone(), Arc::clone(&clock), Arc::clone(&locks));
        let b = ModularStack::with_lockdep(
            registry, Side::B, link.clone(), Arc::clone(&clock), Arc::clone(&locks));
        let modular_out = soak(&a, &b, &clock, &chunks);
        assert_soak_outcome(&modular_out, "modular")?;
        prop_assert!(
            locks.violations().is_empty(),
            "netstack soak must be lockdep-clean: {:?}",
            locks.violations()
        );

        // The engines are shared, the link is seeded: the two generations
        // must agree on the verdict for the same adversarial schedule.
        prop_assert_eq!(
            (legacy_out.complete, legacy_out.client_failed, legacy_out.server_failed),
            (modular_out.complete, modular_out.client_failed, modular_out.server_failed),
            "generations diverged on the same fault schedule"
        );
    }
}

/// Deterministic full-lifecycle check at the PCB level: handshake, data,
/// FIN/ACK teardown in both directions, TIME_WAIT expiry — both ends reach
/// `Closed` with nothing left in flight.
#[test]
fn full_lifecycle_reaches_closed_on_both_ends() {
    use safer_kernel::netstack::tcp::TIME_WAIT_NS;

    let wire = Arc::new(Wire::new());
    let mut a = TcpPcb::new(1000, 100);
    let mut listener = TcpListener::new(80, 8, 9000);
    let mut b: Option<TcpPcb> = None;
    wire.send(Side::A, &a.connect(80, 0));
    let mut now = 0u64;
    let mut b_done = false;
    for round in 0..60 {
        now += DEFAULT_RTO_NS / 4;
        while let Ok(Some(pkt)) = wire.recv(Side::B) {
            let responses = match b.as_mut() {
                Some(pcb) => pcb.on_packet(&pkt, now),
                None => listener.on_packet(&pkt, now),
            };
            for r in responses {
                wire.send(Side::B, &r);
            }
        }
        if b.is_none() {
            b = listener.accept();
        }
        while let Ok(Some(pkt)) = wire.recv(Side::A) {
            for r in a.on_packet(&pkt, now) {
                wire.send(Side::A, &r);
            }
        }
        if round == 2 {
            assert_eq!(a.state, TcpState::Established);
            for p in a.send(b"final words", now) {
                wire.send(Side::A, &p);
            }
        }
        if let Some(pcb) = b.as_mut() {
            if round == 6 {
                assert_eq!(pcb.take_received(), b"final words");
                // Active close from A; B responds, then closes its half.
                for fin in a.close(now) {
                    wire.send(Side::A, &fin);
                }
            }
            if !b_done && pcb.state == TcpState::CloseWait {
                for fin in pcb.close(now) {
                    wire.send(Side::B, &fin);
                }
                b_done = true;
            }
        }
        for p in a.tick(now) {
            wire.send(Side::A, &p);
        }
        let server_ticks = match b.as_mut() {
            Some(pcb) => pcb.tick(now),
            None => listener.tick(now),
        };
        for p in server_ticks {
            wire.send(Side::B, &p);
        }
        if a.state == TcpState::TimeWait && b.as_ref().is_some_and(|p| p.state == TcpState::Closed)
        {
            break;
        }
    }
    let b = b.expect("handshake completed");
    assert_eq!(b.state, TcpState::Closed, "passive closer fully closed");
    assert_eq!(a.state, TcpState::TimeWait, "active closer lingers");
    assert!(
        !a.is_failed() && !b.is_failed(),
        "orderly teardown, no failure"
    );
    // TIME_WAIT expires on the clock, not on traffic.
    now += TIME_WAIT_NS;
    assert!(a.tick(now).is_empty());
    assert_eq!(a.state, TcpState::Closed);
    assert!(a.is_defunct(), "expired PCB is reapable");
    assert_eq!(wire.in_flight(), 0, "no retransmission storm after close");
}

// ---------------------------------------------------------------------------
// Per-connection isolation under the sharded connection table.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// One adversarial peer on the listener — corrupting its flow,
    /// RST-blasting it with arbitrary sequence numbers, or SYN-flooding
    /// the listen port from unbound ports — must not wedge, slow, or
    /// corrupt its neighbors: every well-behaved connection on the same
    /// listener still delivers its exact byte stream, and the whole run
    /// stays lockdep-clean.
    #[test]
    fn adversarial_peer_cannot_wedge_neighbors(
        mode in 0u8..3,
        adv_seqs in prop::collection::vec(any::<u32>(), 4..12),
    ) {
        let clock = Arc::new(SimClock::new());
        let wire = Arc::new(Wire::new());
        let registry = Arc::new(Registry::new());
        register_families(&registry).unwrap();
        let locks = safer_kernel::ksim::lock::LockRegistry::new();
        let a = ModularStack::with_lockdep(
            Arc::clone(&registry), Side::A, wire.clone(), Arc::clone(&clock),
            Arc::clone(&locks));
        let b = ModularStack::with_lockdep(
            registry, Side::B, wire.clone(), Arc::clone(&clock),
            Arc::clone(&locks));
        let server = b.socket("tcp", 80).unwrap();
        b.listen(server).unwrap();

        // Four well-behaved neighbors, each with a distinct byte pattern,
        // plus the adversary's own (initially legitimate) connection.
        let neighbors: Vec<(u64, u16, Vec<u8>)> = (0..4u16)
            .map(|i| {
                let port = 6000 + i;
                let fd = a.socket("tcp", port).unwrap();
                a.connect(fd, 80).unwrap();
                (fd, port, vec![0x10 + i as u8; 3000])
            })
            .collect();
        let adv = a.socket("tcp", 6666).unwrap();
        a.connect(adv, 80).unwrap();

        let mut submitted = vec![false; neighbors.len()];
        let mut conns: Vec<u64> = Vec::new();
        let mut received: std::collections::BTreeMap<u64, Vec<u8>> =
            std::collections::BTreeMap::new();
        for round in 0..60usize {
            a.pump().unwrap();
            b.pump().unwrap();
            while let Some(c) = b.accept(server).unwrap() {
                conns.push(c);
            }
            // The adversary misbehaves mid-transfer.
            if round == 3 {
                for (i, &seq) in adv_seqs.iter().enumerate() {
                    let mut pkt = Packet::new(proto::TCP, 6666, 80);
                    pkt.seq = seq;
                    match mode {
                        0 => {
                            // Corrupting: garbage segments on its own flow.
                            pkt.flags = flags::ACK;
                            pkt.payload = vec![0xFF; 50];
                        }
                        1 => {
                            // RST blast with arbitrary sequence numbers.
                            pkt.flags = flags::RST;
                        }
                        _ => {
                            // SYN flood from unbound ports: half-open
                            // children that never complete.
                            pkt.flags = flags::SYN;
                            pkt.src_port = 40000 + i as u16;
                        }
                    }
                    wire.send(Side::A, &pkt);
                }
            }
            for (i, (fd, _, payload)) in neighbors.iter().enumerate() {
                if !submitted[i] && a.send(*fd, 80, payload).is_ok() {
                    submitted[i] = true;
                }
            }
            for &c in &conns {
                if let Ok(got) = b.recv(c) {
                    received.entry(c).or_default().extend(got);
                }
            }
            let done = neighbors.iter().all(|(_, _, payload)| {
                received
                    .values()
                    .any(|v| v.len() == payload.len() && v[0] == payload[0])
            });
            if done && submitted.iter().all(|&s| s) {
                break;
            }
            clock.advance(DEFAULT_RTO_NS / 2);
            a.tick();
            b.tick();
        }

        // Every neighbor's stream arrived exactly: right length, right
        // bytes, on its own connection — the adversary corrupted nothing.
        for (fd, port, payload) in &neighbors {
            prop_assert!(
                !a.conn_failed(*fd).unwrap(),
                "neighbor on port {port} was wedged (mode {mode})"
            );
            let matching: Vec<&Vec<u8>> = received
                .values()
                .filter(|v| !v.is_empty() && v[0] == payload[0])
                .collect();
            prop_assert_eq!(
                matching.len(), 1,
                "exactly one server conn carries port {}'s pattern", port
            );
            prop_assert_eq!(
                matching[0], payload,
                "port {}'s stream delivered byte-exact", port
            );
        }
        prop_assert!(
            locks.violations().is_empty(),
            "isolation run must stay lockdep-clean: {:?}",
            locks.violations()
        );
    }
}
