//! The adversarial link: seeded fault injection between two stacks.
//!
//! [`FaultyLink`] implements [`Link`] like the perfect [`crate::wire::Wire`]
//! but misbehaves on purpose — dropping, duplicating, reordering,
//! delaying, and corrupting frames under a seeded RNG, so every run is
//! reproducible from its seed. Both socket-layer generations pump through
//! the [`Link`] trait, which is the point: the TCP hardening (RTO backoff,
//! retry budgets, RST window checks, bounded reassembly) has to survive
//! this link, not the perfect one.
//!
//! Corruption composes with the packet checksum: a flipped bit makes
//! `Packet::decode` fail in `recv`, which consumes the frame and returns
//! an error — a *detected* loss the retransmission machinery heals,
//! never delivered garbage.

use parking_lot::Mutex;
use sk_ksim::errno::KResult;
use std::sync::Arc;

use crate::packet::Packet;
use crate::wire::{Link, LinkStats, Side};
use sk_ksim::scenario::{subsys, EngineStream, ScenarioEngine};
use sk_ksim::time::SimClock;

/// Fault probabilities and parameters, all independent per frame.
#[derive(Debug, Clone, Copy, Default)]
pub struct FaultConfig {
    /// Probability a frame is silently dropped.
    pub drop: f64,
    /// Probability a frame is queued twice.
    pub duplicate: f64,
    /// Probability a frame is swapped with the frame queued before it.
    pub reorder: f64,
    /// Probability one random bit of the encoded frame is flipped.
    pub corrupt: f64,
    /// Probability a frame is held back for [`FaultConfig::delay_ns`].
    pub delay: f64,
    /// How long a delayed frame is withheld (simulated ns).
    pub delay_ns: u64,
}

impl FaultConfig {
    /// The ISSUE's adversarial profile: 20% drop plus duplication and
    /// reordering — the soak-test link.
    pub fn adversarial(delay_ns: u64) -> FaultConfig {
        FaultConfig {
            drop: 0.20,
            duplicate: 0.10,
            reorder: 0.20,
            corrupt: 0.05,
            delay: 0.10,
            delay_ns,
        }
    }
}

/// A queued frame: the encoded bytes and the earliest simulated time the
/// receiver may see them.
struct Held {
    release_at: u64,
    frame: Vec<u8>,
}

struct FaultyInner {
    a_to_b: Vec<Held>,
    b_to_a: Vec<Held>,
    stats: LinkStats,
}

/// A duplex link with seeded, configurable fault injection.
///
/// All fault decisions are drawn from the engine's `link` stream, so a
/// link sharing a [`ScenarioEngine`] with a [`sk_ksim::block::FaultyDisk`]
/// replays from the *one* engine seed, and every injected fault lands in
/// the shared scenario trace.
pub struct FaultyLink {
    inner: Mutex<FaultyInner>,
    cfg: FaultConfig,
    clock: Arc<SimClock>,
    engine: Arc<ScenarioEngine>,
    stream: Arc<EngineStream>,
}

impl FaultyLink {
    /// A link with `cfg` faults, deterministic under `seed`. Delays are
    /// measured on `clock` — the same simulated clock the stacks tick on.
    ///
    /// Convenience for standalone use: wraps a private [`ScenarioEngine`]
    /// around `seed` + `clock`. To compose with other fault harnesses
    /// under one seed, build the engine yourself and use
    /// [`FaultyLink::on_engine`].
    pub fn new(cfg: FaultConfig, seed: u64, clock: Arc<SimClock>) -> FaultyLink {
        Self::on_engine(cfg, &ScenarioEngine::with_clock(seed, clock))
    }

    /// A link drawing its fault decisions from `engine`'s `link` stream
    /// and measuring delays on the engine's virtual clock.
    pub fn on_engine(cfg: FaultConfig, engine: &Arc<ScenarioEngine>) -> FaultyLink {
        FaultyLink {
            inner: Mutex::new(FaultyInner {
                a_to_b: Vec::new(),
                b_to_a: Vec::new(),
                stats: LinkStats::default(),
            }),
            cfg,
            clock: Arc::clone(engine.clock()),
            engine: Arc::clone(engine),
            stream: engine.stream(subsys::LINK),
        }
    }

    /// The scenario engine this link draws from.
    pub fn engine(&self) -> &Arc<ScenarioEngine> {
        &self.engine
    }

    /// Fault/traffic counters so far.
    pub fn stats(&self) -> LinkStats {
        self.inner.lock().stats
    }
}

fn side_tag(side: Side) -> &'static str {
    match side {
        Side::A => "A",
        Side::B => "B",
    }
}

impl Link for FaultyLink {
    fn send(&self, side: Side, pkt: &Packet) {
        let now = self.clock.now_ns();
        // Draw every fault decision from the engine stream *before*
        // taking the queue lock — decisions are a pure function of the
        // stream, queue mutation is a pure function of the decisions.
        // Draw order matches the pre-engine harness: drop, corrupt(+bit),
        // delay, duplicate, reorder.
        if self.stream.roll(self.cfg.drop) {
            self.stream.emit(format!("drop side={}", side_tag(side)));
            let inner = &mut *self.inner.lock();
            inner.stats.sent += 1;
            inner.stats.dropped += 1;
            return;
        }
        let mut frame = pkt.encode();
        let corrupted = if self.stream.roll(self.cfg.corrupt) {
            let bit = self.stream.gen_range(0..frame.len() * 8);
            frame[bit / 8] ^= 1 << (bit % 8);
            self.stream
                .emit(format!("corrupt side={} bit={bit}", side_tag(side)));
            true
        } else {
            false
        };
        let delayed = self.stream.roll(self.cfg.delay);
        let release_at = if delayed {
            self.stream.emit(format!(
                "delay side={} until={}",
                side_tag(side),
                now + self.cfg.delay_ns
            ));
            now + self.cfg.delay_ns
        } else {
            now
        };
        let dup = self.stream.roll(self.cfg.duplicate);
        if dup {
            self.stream
                .emit(format!("duplicate side={}", side_tag(side)));
        }
        let reorder = self.stream.roll(self.cfg.reorder);

        let inner = &mut *self.inner.lock();
        inner.stats.sent += 1;
        if corrupted {
            inner.stats.corrupted += 1;
        }
        if delayed {
            inner.stats.delayed += 1;
        }
        let queue = match side {
            Side::A => &mut inner.a_to_b,
            Side::B => &mut inner.b_to_a,
        };
        if dup {
            inner.stats.duplicated += 1;
            queue.push(Held {
                release_at,
                frame: frame.clone(),
            });
        }
        queue.push(Held { release_at, frame });
        if reorder && queue.len() >= 2 {
            inner.stats.reordered += 1;
            self.stream.emit(format!("reorder side={}", side_tag(side)));
            let n = queue.len();
            queue.swap(n - 1, n - 2);
        }
    }

    fn recv(&self, side: Side) -> KResult<Option<Packet>> {
        let now = self.clock.now_ns();
        let frame = {
            let inner = &mut *self.inner.lock();
            let queue = match side {
                Side::A => &mut inner.b_to_a,
                Side::B => &mut inner.a_to_b,
            };
            queue
                .iter()
                .position(|h| h.release_at <= now)
                .map(|i| queue.remove(i).frame)
        };
        match frame {
            Some(bytes) => Packet::decode(&bytes).map(Some),
            None => Ok(None),
        }
    }

    fn in_flight(&self) -> usize {
        let inner = self.inner.lock();
        inner.a_to_b.len() + inner.b_to_a.len()
    }

    fn link_stats(&self) -> LinkStats {
        self.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::proto;

    fn pkt(src: u16) -> Packet {
        let mut p = Packet::new(proto::UDP, src, 9);
        p.payload = vec![src as u8; 16];
        p
    }

    fn link(cfg: FaultConfig) -> (FaultyLink, Arc<SimClock>) {
        let clock = Arc::new(SimClock::new());
        (FaultyLink::new(cfg, 1, Arc::clone(&clock)), clock)
    }

    #[test]
    fn perfect_config_is_a_perfect_wire() {
        let (l, _) = link(FaultConfig::default());
        for s in 1..=3 {
            l.send(Side::A, &pkt(s));
        }
        for s in 1..=3 {
            assert_eq!(l.recv(Side::B).unwrap().unwrap().src_port, s);
        }
        assert_eq!(l.recv(Side::B).unwrap(), None);
        assert_eq!(l.stats().dropped, 0);
    }

    #[test]
    fn total_drop_loses_everything() {
        let (l, _) = link(FaultConfig {
            drop: 1.0,
            ..FaultConfig::default()
        });
        l.send(Side::A, &pkt(1));
        assert_eq!(l.recv(Side::B).unwrap(), None);
        assert_eq!(l.stats().dropped, 1);
    }

    #[test]
    fn duplication_doubles_frames() {
        let (l, _) = link(FaultConfig {
            duplicate: 1.0,
            ..FaultConfig::default()
        });
        l.send(Side::A, &pkt(1));
        assert!(l.recv(Side::B).unwrap().is_some());
        assert!(l.recv(Side::B).unwrap().is_some());
        assert!(l.recv(Side::B).unwrap().is_none());
        assert_eq!(l.stats().duplicated, 1);
    }

    #[test]
    fn reordering_swaps_adjacent_frames() {
        let (l, _) = link(FaultConfig {
            reorder: 1.0,
            ..FaultConfig::default()
        });
        l.send(Side::A, &pkt(1));
        l.send(Side::A, &pkt(2));
        // The second send swaps with the first: 2 arrives before 1.
        assert_eq!(l.recv(Side::B).unwrap().unwrap().src_port, 2);
        assert_eq!(l.recv(Side::B).unwrap().unwrap().src_port, 1);
        assert!(l.stats().reordered >= 1);
    }

    #[test]
    fn corruption_is_a_detected_loss_not_garbage() {
        let (l, _) = link(FaultConfig {
            corrupt: 1.0,
            ..FaultConfig::default()
        });
        l.send(Side::A, &pkt(1));
        // The checksum catches the flip: recv errors, the frame is gone.
        assert!(l.recv(Side::B).is_err());
        assert_eq!(l.recv(Side::B).unwrap(), None);
        assert_eq!(l.stats().corrupted, 1);
    }

    #[test]
    fn delayed_frames_wait_for_the_clock() {
        let (l, clock) = link(FaultConfig {
            delay: 1.0,
            delay_ns: 500,
            ..FaultConfig::default()
        });
        l.send(Side::A, &pkt(1));
        assert_eq!(l.recv(Side::B).unwrap(), None, "withheld");
        assert_eq!(l.in_flight(), 1);
        clock.advance(500);
        assert_eq!(l.recv(Side::B).unwrap().unwrap().src_port, 1);
    }

    #[test]
    fn delay_reorders_around_undelayed_frames() {
        let clock = Arc::new(SimClock::new());
        let l = FaultyLink::new(
            FaultConfig {
                delay: 0.5,
                delay_ns: 1000,
                ..FaultConfig::default()
            },
            3,
            Arc::clone(&clock),
        );
        for s in 1..=20 {
            l.send(Side::A, &pkt(s));
        }
        let mut first_batch = Vec::new();
        while let Ok(Some(p)) = l.recv(Side::B) {
            first_batch.push(p.src_port);
        }
        assert!(
            !first_batch.is_empty() && first_batch.len() < 20,
            "some frames held back: {first_batch:?}"
        );
        clock.advance(1000);
        let mut rest = 0;
        while let Ok(Some(_)) = l.recv(Side::B) {
            rest += 1;
        }
        assert_eq!(first_batch.len() + rest, 20);
    }

    #[test]
    fn engine_backed_link_replays_faults_and_trace_from_one_seed() {
        let run = || {
            let engine = ScenarioEngine::new(99);
            let l = FaultyLink::on_engine(FaultConfig::adversarial(100), &engine);
            for s in 1..=50 {
                l.send(Side::A, &pkt(s));
            }
            let mut got = Vec::new();
            loop {
                match l.recv(Side::B) {
                    Ok(Some(p)) => got.push(p.src_port),
                    Ok(None) => break,
                    Err(_) => got.push(0),
                }
            }
            (got, l.stats(), engine.trace_text())
        };
        let (a, b) = (run(), run());
        assert!(
            a.2.contains("[t=") && a.2.contains("link+"),
            "link faults must land in the shared trace: {}",
            a.2
        );
        assert_eq!(a, b);
    }

    #[test]
    fn seeded_runs_are_reproducible() {
        let run = || {
            let (l, _) = link(FaultConfig::adversarial(100));
            for s in 1..=50 {
                l.send(Side::A, &pkt(s));
            }
            let mut got = Vec::new();
            loop {
                match l.recv(Side::B) {
                    Ok(Some(p)) => got.push(p.src_port),
                    Ok(None) => break,
                    Err(_) => got.push(0),
                }
            }
            (got, l.stats())
        };
        assert_eq!(run(), run());
    }
}
