//! The composed-scenario corpus: cross-subsystem fault scenarios driven
//! from ONE `ScenarioEngine` seed each.
//!
//! Every harness in a scenario — the faulty disk, the faulty link, the
//! crash-point sampler, the workload schedule — draws from streams derived
//! from the single engine seed, and every injected fault lands in the
//! engine's shared trace. A failing scenario therefore replays exactly
//! from `SCENARIO=<name> SCENARIO_SEED=<seed>`, and the corpus runner
//! prints the failing seed plus the trace tail so CI failures arrive
//! with their own reproduction recipe.
//!
//! The scenarios compose faults the single-subsystem suites cannot
//! express: a crash sampled mid-checkpoint while a TCP retransmit storm
//! is in flight, disk EIO inside a ring batch commit with an fsync
//! watermark to honor, torn writes under log-pressure throttling, a
//! lossy link during a live cext4→rsfs migration.

use super::*;

use std::panic::{catch_unwind, AssertUnwindSafe};

use safer_kernel::core::spec::crash::{
    apply_barriers, judge_with_floor, sample_crash_image, CrashPolicy,
};
use safer_kernel::fs_safe::fsck;
use safer_kernel::ksim::block::{
    CrashDevice, DiskFaultConfig, FaultyDisk, PendingWrite, BLOCK_SIZE,
};
use safer_kernel::ksim::errno::Errno;
use safer_kernel::ksim::scenario::{subsys, ScenarioEngine};
use safer_kernel::ksim::time::SimClock;
use safer_kernel::netstack::fault::{FaultConfig as LinkFaultConfig, FaultyLink};
use safer_kernel::netstack::modular_stack::{register_families, ModularStack};
use safer_kernel::netstack::spec::StreamChecker;
use safer_kernel::netstack::tcp::{TcpListener, TcpPcb, TcpState, DEFAULT_RTO_NS};
use safer_kernel::netstack::wire::{Link, Side};
use safer_kernel::vfs::inode::FileType;
use safer_kernel::vfs::migrate::{MigratePhase, Migrator};
use safer_kernel::vfs::modular::{BatchOp, BatchReply};
use safer_kernel::vfs::ring::{Ring, RingReactor};

// ---------------------------------------------------------------------------
// Shared scenario plumbing
// ---------------------------------------------------------------------------

/// A scenario takes the engine (already seeded) and returns a verdict.
/// Panics inside a scenario are caught by the runner and reported with
/// the same seed + trace tail as a verdict failure.
pub type ScenarioFn = fn(&Arc<ScenarioEngine>) -> Result<(), String>;

/// The corpus: name → scenario. Every entry runs in CI across the sweep
/// seeds; `SCENARIO`/`SCENARIO_SEED` env vars replay one entry.
pub const CORPUS: &[(&str, ScenarioFn)] = &[
    (
        "crash_mid_checkpoint_retransmit_storm",
        crash_mid_checkpoint_retransmit_storm,
    ),
    (
        "eio_ring_batch_commit_fsync_watermark",
        eio_ring_batch_commit_fsync_watermark,
    ),
    (
        "torn_write_under_log_pressure",
        torn_write_under_log_pressure,
    ),
    ("lossy_link_during_migration", lossy_link_during_migration),
    ("hot_swap_under_faults", hot_swap_under_faults),
    ("net_scale_1k_lossy", net_scale_1k_lossy),
    ("eio_mid_checkpoint_recovery", eio_mid_checkpoint_recovery),
    ("corrupt_reads_remount_storm", corrupt_reads_remount_storm),
    ("multi_reactor_eio_swap", multi_reactor_eio_swap),
];

/// Seeds swept by the CI corpus run. A seed that ever fails gets pinned
/// as its own regression test (see the `pinned` module below) so reverts
/// of the corresponding fix fail loudly.
const SWEEP_SEEDS: &[u64] = &[1, 2, 3];

fn mount_image(
    img: &[u8],
    blocks: u64,
    mode: JournalMode,
) -> Result<(Rsfs, Arc<dyn BlockDevice>), String> {
    let scratch = Arc::new(RamDisk::new(blocks));
    scratch.restore(img).map_err(|e| format!("restore: {e}"))?;
    let dev: Arc<dyn BlockDevice> = scratch;
    let fs = Rsfs::mount(Arc::clone(&dev), mode)
        .map_err(|e| format!("crash image failed to mount: {e}"))?;
    Ok((fs, dev))
}

/// A TCP pair over an engine-backed faulty link, pumped in explicit
/// rounds so scenarios can interleave network traffic with disk work at
/// deterministic points.
struct NetPair {
    link: FaultyLink,
    clock: Arc<SimClock>,
    a: TcpPcb,
    listener: TcpListener,
    b: Option<TcpPcb>,
    chk: StreamChecker,
    chunks: Vec<Vec<u8>>,
    submitted: usize,
}

impl NetPair {
    fn new(engine: &Arc<ScenarioEngine>, cfg: LinkFaultConfig, chunks: Vec<Vec<u8>>) -> NetPair {
        let link = FaultyLink::on_engine(cfg, engine);
        let clock = Arc::clone(engine.clock());
        let mut a = TcpPcb::new(1000, 100);
        let listener = TcpListener::new(80, 8, 9000);
        link.send(Side::A, &a.connect(80, 0));
        NetPair {
            link,
            clock,
            a,
            listener,
            b: None,
            chk: StreamChecker::new(),
            chunks,
            submitted: 0,
        }
    }

    fn round(&mut self) {
        self.clock.advance(DEFAULT_RTO_NS / 4);
        let now = self.clock.now_ns();
        while let Ok(Some(pkt)) = self.link.recv(Side::B) {
            let responses = match self.b.as_mut() {
                Some(pcb) => pcb.on_packet(&pkt, now),
                None => self.listener.on_packet(&pkt, now),
            };
            for r in responses {
                self.link.send(Side::B, &r);
            }
        }
        if self.b.is_none() {
            self.b = self.listener.accept();
        }
        while let Ok(Some(pkt)) = self.link.recv(Side::A) {
            for r in self.a.on_packet(&pkt, now) {
                self.link.send(Side::A, &r);
            }
        }
        if self.submitted < self.chunks.len() && self.a.state == TcpState::Established {
            let chunk = self.chunks[self.submitted].clone();
            self.chk.on_send(&chunk);
            for p in self.a.send(&chunk, now) {
                self.link.send(Side::A, &p);
            }
            self.submitted += 1;
        }
        if let Some(pcb) = self.b.as_mut() {
            let got = pcb.take_received();
            if !got.is_empty() {
                self.chk.on_deliver(&got);
            }
        }
        for p in self.a.tick(now) {
            self.link.send(Side::A, &p);
        }
        let server_ticks = match self.b.as_mut() {
            Some(pcb) => pcb.tick(now),
            None => self.listener.tick(now),
        };
        for p in server_ticks {
            self.link.send(Side::B, &p);
        }
    }

    fn done(&self) -> bool {
        (self.submitted == self.chunks.len()
            && self.chk.model().is_complete()
            && self.a.all_acked())
            || self.a.is_failed()
            || self.b.as_ref().is_some_and(|p| p.is_failed())
    }

    /// Pumps until completion/clean failure or the round budget runs out,
    /// then renders the prefix-delivery verdict.
    fn finish(mut self, budget: usize) -> Result<(), String> {
        for _ in 0..budget {
            if self.done() {
                break;
            }
            self.round();
        }
        if !self.chk.is_clean() {
            return Err(format!(
                "net: prefix delivery violated: {:?}",
                self.chk.violations()
            ));
        }
        if !self.done() {
            return Err(format!(
                "net: stream neither completed nor failed cleanly \
                 (submitted {}/{}, retransmits {})",
                self.submitted,
                self.chunks.len(),
                self.a.counters.retransmits
            ));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Scenario 1: crash mid-checkpoint + retransmit storm
// ---------------------------------------------------------------------------

/// A journaled rsfs takes a workload while a TCP pair on the same engine
/// clock fights a 30%-drop retransmit storm. The engine picks a flush
/// interval — including the final checkpoint — and samples a torn crash
/// image there; recovery must land on the op history with a clean fsck,
/// and the byte stream must still complete or fail cleanly.
fn crash_mid_checkpoint_retransmit_storm(engine: &Arc<ScenarioEngine>) -> Result<(), String> {
    let ws = engine.stream(subsys::WORKLOAD);
    let crash_stream = engine.stream(subsys::CRASH);

    let mut net = NetPair::new(
        engine,
        LinkFaultConfig {
            drop: 0.30,
            duplicate: 0.10,
            reorder: 0.20,
            corrupt: 0.05,
            delay: 0.10,
            delay_ns: DEFAULT_RTO_NS / 4,
        },
        (0..4).map(|i| vec![i as u8 + 1; 700]).collect(),
    );

    let ram = Arc::new(RamDisk::new(2048));
    let crash_dev = Arc::new(CrashDevice::new(Arc::clone(&ram)));
    let dev: Arc<dyn BlockDevice> = Arc::clone(&crash_dev) as Arc<dyn BlockDevice>;
    Rsfs::mkfs(&dev, 128, 64).map_err(|e| format!("mkfs: {e}"))?;
    let fs = Rsfs::mount(dev, JournalMode::PerOp).map_err(|e| format!("mount: {e}"))?;
    let base = ram.snapshot();
    crash_dev.take_barriers();

    let root = fs.root_ino();
    let mut models = vec![fs.abstraction()];
    let mut live: Vec<String> = Vec::new();
    for k in 0..10u32 {
        match ws.gen_range(0..3u32) {
            0 if !live.is_empty() => {
                let name = &live[ws.gen_range(0..live.len())];
                let ino = fs.lookup(root, name).map_err(|e| format!("lookup: {e}"))?;
                let len = ws.gen_range(1..900usize);
                ws.emit(format!("op write {name} len={len}"));
                fs.write(ino, 0, &vec![k as u8; len])
                    .map_err(|e| format!("write: {e}"))?;
            }
            1 if live.len() > 1 => {
                let name = live.remove(ws.gen_range(0..live.len()));
                ws.emit(format!("op unlink {name}"));
                fs.unlink(root, &name).map_err(|e| format!("unlink: {e}"))?;
            }
            _ => {
                let name = format!("f{k}");
                ws.emit(format!("op create {name}"));
                fs.create(root, &name).map_err(|e| format!("create: {e}"))?;
                live.push(name);
            }
        }
        models.push(fs.abstraction());
        // The retransmit storm rages between every pair of fs ops.
        for _ in 0..6 {
            net.round();
        }
    }
    // The checkpoint the crash may land inside.
    fs.sync().map_err(|e| format!("sync: {e}"))?;

    let barriers = crash_dev.take_barriers();
    if barriers.is_empty() {
        return Err("no flush barriers recorded".into());
    }
    let idx = ws.gen_range(0..barriers.len());
    ws.emit(format!("crash at interval {idx}/{}", barriers.len()));
    let img = sample_crash_image(
        &apply_barriers(&base, &barriers[..idx], BLOCK_SIZE),
        &barriers[idx],
        BLOCK_SIZE,
        CrashPolicy::Torn,
        &crash_stream,
    );

    let (recovered, dev) = mount_image(&img, 2048, JournalMode::PerOp)?;
    let m = recovered.abstraction();
    if !models.contains(&m) {
        return Err(format!("crash image recovered off-history: {m:?}"));
    }
    let report = fsck(&*dev).map_err(|e| format!("fsck failed: {e}"))?;
    if !report.is_clean() {
        return Err(format!(
            "fsck findings on crash image: {:?}",
            report.findings
        ));
    }

    net.finish(4000)
}

// ---------------------------------------------------------------------------
// Scenario 2: EIO during ring batch commit + fsync watermark
// ---------------------------------------------------------------------------

/// A single submitter drives a mixed op stream through the typed ring
/// while the engine's disk stream injects transient write/flush EIO into
/// the journal underneath the reactor. Successful replies advance a
/// model history; successful fsyncs advance the durability watermark.
/// At the end the engine samples a crash image from the volatile cache:
/// recovery must land on the history at or above the watermark, and the
/// whole run must be lockdep-clean with every buffer returned.
fn eio_ring_batch_commit_fsync_watermark(engine: &Arc<ScenarioEngine>) -> Result<(), String> {
    let ws = engine.stream(subsys::WORKLOAD);
    let crash_stream = engine.stream(subsys::CRASH);

    let ram = Arc::new(RamDisk::new(4096));
    let crash_dev = Arc::new(CrashDevice::new(Arc::clone(&ram)));
    let faulty = Arc::new(FaultyDisk::on_engine(
        Arc::clone(&crash_dev),
        DiskFaultConfig::default(),
        engine,
    ));
    let dev: Arc<dyn BlockDevice> = Arc::clone(&faulty) as Arc<dyn BlockDevice>;
    Rsfs::mkfs(&dev, 256, 64).map_err(|e| format!("mkfs: {e}"))?;
    let fs = Arc::new(Rsfs::mount(dev, JournalMode::Async).map_err(|e| format!("mount: {e}"))?);
    let root = fs.root_ino();
    let base_file = fs
        .create(root, "base")
        .map_err(|e| format!("create base: {e}"))?;
    fs.sync().map_err(|e| format!("initial sync: {e}"))?;
    faulty.set_config(DiskFaultConfig {
        write_eio: 0.01,
        flush_eio: 0.005,
        ..DiskFaultConfig::default()
    });

    let ring = Arc::new(Ring::new(fs.lock_registry(), 16));
    let throttle = Arc::new(Rsfs::ring_throttle(&fs, 0.5));
    let reactor = RingReactor::spawn_pool(Arc::clone(&ring), fs.clone(), Some(throttle), 1);

    let mut models = vec![fs.abstraction()];
    let mut watermark = 0usize;
    let mut live: Vec<String> = Vec::new();
    let mut verdict = Ok(());
    for k in 0..80u32 {
        let pick = ws.gen_range(0..8u32);
        let (op, mutating, is_fsync) = match pick {
            0 => {
                let name = format!("r{k}");
                (BatchOp::Create { dir: root, name }, true, false)
            }
            1 if !live.is_empty() => {
                let name = live.remove(ws.gen_range(0..live.len()));
                (BatchOp::Unlink { dir: root, name }, true, false)
            }
            2..=4 => (
                BatchOp::Write {
                    ino: base_file,
                    off: ws.gen_range(0..4u64) * 1024,
                    data: vec![k as u8; 1024],
                },
                true,
                false,
            ),
            5 => (
                BatchOp::Read {
                    ino: base_file,
                    off: ws.gen_range(0..4u64) * 1024,
                    buf: vec![0u8; 1024],
                },
                false,
                false,
            ),
            _ => (BatchOp::Fsync { ino: base_file }, false, true),
        };
        let created = matches!(&op, BatchOp::Create { .. }).then(|| format!("r{k}"));
        let ticket = match ring.submit(op) {
            Ok(t) => t,
            Err(_) => {
                verdict = Err(format!("ring refused op {k} with depth available"));
                break;
            }
        };
        let mut reply = ring.wait(ticket).reply;
        let ok = reply.result().is_ok();
        if let Some(buf) = reply.take_buf() {
            if buf.len() != 1024 {
                verdict = Err(format!("op {k}: buffer came back resized to {}", buf.len()));
                break;
            }
        } else if matches!(reply, BatchReply::Write { .. } | BatchReply::Read { .. }) {
            verdict = Err(format!("op {k}: buffer lost"));
            break;
        }
        if ok {
            if let Some(name) = created {
                live.push(name);
            }
            if mutating {
                models.push(fs.abstraction());
            }
            if is_fsync {
                watermark = models.len() - 1;
                ws.emit(format!("fsync watermark={watermark}"));
            }
        }
    }
    reactor.into_iter().for_each(RingReactor::join);

    let stats = ring.stats();
    if stats.submitted != stats.completed {
        return Err(format!(
            "accepted SQEs without CQEs: {} submitted, {} completed",
            stats.submitted, stats.completed
        ));
    }
    verdict?;

    let aborted = fs.journal().is_some_and(|j| j.is_aborted());
    if !aborted {
        let m = fs.abstraction();
        if m != *models.last().unwrap() {
            return Err("live state diverged from the successful-op model".into());
        }
    }

    // Power-cut now: sample one reachable image from the volatile cache.
    let base = ram.snapshot();
    let pending = faulty.inner().pending_writes();
    let img = sample_crash_image(
        &base,
        &pending,
        BLOCK_SIZE,
        CrashPolicy::Prefixes,
        &crash_stream,
    );
    let (recovered, dev) = mount_image(&img, 4096, JournalMode::Async)?;
    let m = recovered.abstraction();
    judge_with_floor(&models, watermark, &m).map_err(|why| format!("crash image: {why}"))?;
    let report = fsck(&*dev).map_err(|e| format!("fsck failed: {e}"))?;
    if !report.is_clean() {
        return Err(format!(
            "fsck findings on crash image: {:?}",
            report.findings
        ));
    }

    let violations = fs.lock_registry().violations();
    if !violations.is_empty() {
        return Err(format!("lockdep findings: {violations:?}"));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Scenario 3: torn writes under log-pressure throttling
// ---------------------------------------------------------------------------

/// A deliberately tiny journal keeps log pressure high so the op path
/// runs leader-duty commits, while the disk stream silently tears a
/// fraction of writes — the hardware breaking its sector-atomicity
/// contract without a power cut. Then the power cut happens anyway.
/// The promise under betrayal is structural: the crash image mounts or
/// refuses cleanly, fsck terminates, recovery never panics or wedges —
/// and if no tear was actually injected, recovery is exact.
fn torn_write_under_log_pressure(engine: &Arc<ScenarioEngine>) -> Result<(), String> {
    let ws = engine.stream(subsys::WORKLOAD);
    let crash_stream = engine.stream(subsys::CRASH);

    let ram = Arc::new(RamDisk::new(2048));
    let crash_dev = Arc::new(CrashDevice::new(Arc::clone(&ram)));
    let faulty = Arc::new(FaultyDisk::on_engine(
        Arc::clone(&crash_dev),
        DiskFaultConfig::default(),
        engine,
    ));
    let dev: Arc<dyn BlockDevice> = Arc::clone(&faulty) as Arc<dyn BlockDevice>;
    // 16 journal blocks: a handful of fat writes fills the log and forces
    // the throttling path (leader-duty commits on the op path).
    Rsfs::mkfs(&dev, 128, 16).map_err(|e| format!("mkfs: {e}"))?;
    let fs = Rsfs::mount(dev, JournalMode::Async).map_err(|e| format!("mount: {e}"))?;
    let root = fs.root_ino();
    let mut models = vec![fs.abstraction()];
    faulty.set_config(DiskFaultConfig {
        torn_write: 0.08,
        ..DiskFaultConfig::default()
    });

    let mut live: Vec<String> = Vec::new();
    let mut max_pressure = 0.0f32;
    for k in 0..40u32 {
        let r = if live.is_empty() || ws.gen_range(0..3u32) == 0 {
            let name = format!("f{k}");
            let r = fs.create(root, &name).map(|_| ());
            if r.is_ok() {
                live.push(name);
            }
            r
        } else {
            let name = &live[ws.gen_range(0..live.len())];
            let len = ws.gen_range(256..2800usize);
            fs.lookup(root, name)
                .and_then(|ino| fs.write(ino, 0, &vec![k as u8; len]))
                .map(|_| ())
        };
        if let Some(j) = fs.journal() {
            let p = j.log_pressure();
            if p > max_pressure {
                max_pressure = p;
                if p > 0.5 {
                    ws.emit(format!("log_pressure {p:.2}"));
                }
            }
        }
        match r {
            Ok(()) => models.push(fs.abstraction()),
            // Sticky EROFS after a detected failure is a legal outcome;
            // the state must simply stop changing.
            Err(_) if fs.abstraction() == *models.last().unwrap() => {}
            Err(e) => {
                return Err(format!("failed op {k} ({e}) mutated the live state"));
            }
        }
    }

    // Power cut with the cache full — no sync.
    let tears = faulty.injected().torn_writes;
    ws.emit(format!("power cut, {tears} torn writes injected"));
    let base = ram.snapshot();
    let pending = crash_dev.pending_writes();
    let img = sample_crash_image(
        &base,
        &pending,
        BLOCK_SIZE,
        CrashPolicy::Prefixes,
        &crash_stream,
    );
    drop(fs);

    match mount_image(&img, 2048, JournalMode::Async) {
        Ok((recovered, dev)) => {
            let report = fsck(&*dev).map_err(|e| format!("fsck failed: {e}"))?;
            if tears == 0 {
                let m = recovered.abstraction();
                if !models.contains(&m) {
                    return Err(format!(
                        "no tears injected, yet recovery is off-history: {m:?}"
                    ));
                }
                if !report.is_clean() {
                    return Err(format!(
                        "no tears injected, yet fsck found: {:?}",
                        report.findings
                    ));
                }
            }
            // With tears the image may be arbitrarily damaged; mounting and
            // a terminating fsck (clean or with findings) is the contract.
        }
        // A clean mount refusal on a torn image is acceptable...
        Err(why) if tears > 0 => {
            ws.emit(format!("mount refused: {why}"));
        }
        // ...but with no tears injected the image is an ordinary crash
        // image and must mount.
        Err(why) => return Err(why),
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Scenario 4: lossy link during migration
// ---------------------------------------------------------------------------

/// The mid-workload migration soak with a TCP retransmit fight running on
/// the same engine: a cext4→rsfs hot swap at half-time while an
/// adversarial link drops a quarter of all frames. The tree, the model,
/// and the implementation must agree after the swap and at the end; the
/// byte stream must complete or fail cleanly; lockdep stays clean.
fn lossy_link_during_migration(engine: &Arc<ScenarioEngine>) -> Result<(), String> {
    let ws = engine.stream(subsys::WORKLOAD);

    let mut net = NetPair::new(
        engine,
        LinkFaultConfig {
            drop: 0.25,
            duplicate: 0.10,
            reorder: 0.15,
            corrupt: 0.05,
            delay: 0.10,
            delay_ns: DEFAULT_RTO_NS / 4,
        },
        (0..3).map(|i| vec![0x40 + i as u8; 900]).collect(),
    );

    let legacy = make_cext4();
    let registry = Registry::new();
    registry
        .register::<dyn FileSystem>(FS_INTERFACE, "cext4", Arc::clone(&legacy))
        .map_err(|e| format!("register: {e:?}"))?;
    let locks = safer_kernel::ksim::lock::LockRegistry::new();
    let vfs = Vfs::mount_with_lockdep(&registry, Arc::clone(&locks))
        .map_err(|e| format!("vfs mount: {e}"))?;
    let mut model = FsModel::new();
    // The workload RNG derives from the engine seed through the workload
    // stream, so the whole scenario still replays from the one seed.
    let mut rng = StdRng::seed_from_u64(ws.gen_u64());

    for step in 0..60 {
        model = random_op(&vfs, model, &mut rng);
        net.round();
        net.round();
        if step == 29 {
            ws.emit("migrate cext4 -> rsfs".to_string());
            let report = Migrator::new(&vfs, &registry)
                .swap("rsfs", make_rsfs())
                .map_err(|e| format!("swap: {e:?}"))?;
            ws.emit(format!(
                "swap done files={} dirs={} bytes={}",
                report.copied_files, report.copied_dirs, report.copied_bytes
            ));
            if vfs.abstraction() != model {
                return Err("post-swap state diverged from the model".into());
            }
        }
    }
    model
        .check_invariant()
        .map_err(|e| format!("model invariant: {e}"))?;
    if vfs.abstraction() != model {
        return Err("final state diverged from the model".into());
    }
    if vfs.fs_handle().swap_count() != 1 {
        return Err(format!(
            "expected 1 swap, saw {}",
            vfs.fs_handle().swap_count()
        ));
    }
    let violations = locks.violations();
    if !violations.is_empty() {
        return Err(format!("lockdep findings: {violations:?}"));
    }
    net.finish(4000)
}

// ---------------------------------------------------------------------------
// Scenario 4c: hot swap under faults — the CI swap-under-load soak entry
// ---------------------------------------------------------------------------

/// Two live generation swaps (cext4 → rsfs → cext4) through the
/// [`Migrator`] while a transient-EIO disk backs the safe generation and
/// a lossy link runs a TCP fight on the same engine. The faults land
/// *mid-handoff*: the forward copy writes through the faulty disk, and
/// the backward quiesce drains the faulty generation's journal through
/// it. A handoff that hits EIO must abort cleanly — old generation still
/// authoritative, live state untouched — and a bounded retry must land
/// both swaps. Handoff phases go through the engine's `swap` stream, so
/// `SCENARIO=hot_swap_under_faults SCENARIO_SEED=<n>` replays the whole
/// dance byte-identically, aborts included.
fn hot_swap_under_faults(engine: &Arc<ScenarioEngine>) -> Result<(), String> {
    let ws = engine.stream(subsys::WORKLOAD);
    let sw = engine.stream(subsys::SWAP);

    let mut net = NetPair::new(
        engine,
        LinkFaultConfig {
            drop: 0.20,
            duplicate: 0.05,
            reorder: 0.10,
            corrupt: 0.05,
            delay: 0.10,
            delay_ns: DEFAULT_RTO_NS / 4,
        },
        (0..3).map(|i| vec![0x60 + i as u8; 700]).collect(),
    );

    let legacy = make_cext4();
    let registry = Registry::new();
    registry
        .register::<dyn FileSystem>(FS_INTERFACE, "cext4", Arc::clone(&legacy))
        .map_err(|e| format!("register: {e:?}"))?;
    let locks = safer_kernel::ksim::lock::LockRegistry::new();
    let vfs = Vfs::mount_with_lockdep(&registry, Arc::clone(&locks))
        .map_err(|e| format!("vfs mount: {e}"))?;
    let mut model = FsModel::new();
    let mut rng = StdRng::seed_from_u64(ws.gen_u64());

    // Phase 1: build up state on the legacy generation.
    for _ in 0..20 {
        model = random_op(&vfs, model, &mut rng);
        net.round();
    }

    // Forward swap. The target rsfs is mounted clean, then its disk goes
    // hot — so every EIO fires inside the handoff (tree copy, final
    // commit), never during mkfs/mount. Each attempt gets a fresh
    // target: a failed copy leaves scribbles behind, and a failed commit
    // may leave a sticky journal abort.
    let mut forward_landed = false;
    for attempt in 0..8u32 {
        let ram = Arc::new(RamDisk::new(8192));
        {
            let dev: Arc<dyn BlockDevice> = Arc::clone(&ram) as Arc<dyn BlockDevice>;
            Rsfs::mkfs(&dev, 512, 64).map_err(|e| format!("mkfs: {e}"))?;
        }
        let faulty = Arc::new(FaultyDisk::on_engine(
            Arc::clone(&ram),
            DiskFaultConfig::default(),
            engine,
        ));
        let next: Arc<dyn FileSystem> = Arc::new(
            Rsfs::mount(
                Arc::clone(&faulty) as Arc<dyn BlockDevice>,
                JournalMode::PerOp,
            )
            .map_err(|e| format!("mount: {e}"))?,
        );
        faulty.set_config(DiskFaultConfig {
            write_eio: 0.004,
            flush_eio: 0.002,
            ..DiskFaultConfig::default()
        });
        let pre = vfs.abstraction();
        match Migrator::new(&vfs, &registry)
            .with_observer(|p: MigratePhase| sw.emit(format!("fwd a{attempt} {p:?}")))
            .swap("rsfs", next)
        {
            Ok(report) => {
                sw.emit(format!(
                    "fwd landed a{attempt} files={} dirs={} bytes={}",
                    report.copied_files, report.copied_dirs, report.copied_bytes
                ));
                forward_landed = true;
            }
            Err(e) => {
                sw.emit(format!("fwd abort a{attempt} {e:?}"));
                if vfs.fs_handle().impl_name() != "cext4" {
                    return Err("aborted swap left a half-switched generation".into());
                }
                if vfs.abstraction() != pre {
                    return Err("aborted swap mutated the live state".into());
                }
                net.round();
            }
        }
        if forward_landed {
            break;
        }
    }
    if !forward_landed {
        return Err("forward swap never landed within 8 attempts".into());
    }
    if vfs.abstraction() != model {
        return Err("post-forward-swap state diverged from the model".into());
    }

    // The safe generation's disk stays hot while the link keeps
    // fighting; the workload pauses (its generation would see EIO), the
    // network does not.
    for _ in 0..6 {
        net.round();
    }

    // Backward swap (rollback direction): now the *old* generation is
    // the faulty one, so the EIO risk sits in quiesce — the journal
    // drain and checkpoint write through the faulty disk.
    let mut back_landed = false;
    for attempt in 0..8u32 {
        let next = make_cext4();
        let pre = vfs.abstraction();
        match Migrator::new(&vfs, &registry)
            .with_observer(|p: MigratePhase| sw.emit(format!("back a{attempt} {p:?}")))
            .swap("cext4", next)
        {
            Ok(report) => {
                sw.emit(format!(
                    "back landed a{attempt} files={} dirs={}",
                    report.copied_files, report.copied_dirs
                ));
                back_landed = true;
            }
            Err(e) => {
                sw.emit(format!("back abort a{attempt} {e:?}"));
                if vfs.fs_handle().impl_name() != "rsfs" {
                    return Err("aborted rollback left a half-switched generation".into());
                }
                if vfs.abstraction() != pre {
                    return Err("aborted rollback mutated the live state".into());
                }
                net.round();
            }
        }
        if back_landed {
            break;
        }
    }
    if !back_landed {
        return Err("backward swap never landed within 8 attempts".into());
    }

    // Phase 2: the workload resumes on the rolled-back generation and
    // the model must still track exactly.
    for _ in 0..20 {
        model = random_op(&vfs, model, &mut rng);
        net.round();
    }
    model
        .check_invariant()
        .map_err(|e| format!("model invariant: {e}"))?;
    if vfs.abstraction() != model {
        return Err("final state diverged from the model".into());
    }
    if vfs.fs_handle().swap_count() != 2 {
        return Err(format!(
            "aborted attempts must not count as swaps: saw {}",
            vfs.fs_handle().swap_count()
        ));
    }
    if vfs.gate().swaps() != 2 {
        return Err(format!(
            "gate counted {} swaps, expected 2",
            vfs.gate().swaps()
        ));
    }
    let violations = locks.violations();
    if !violations.is_empty() {
        return Err(format!("lockdep findings: {violations:?}"));
    }
    net.finish(4000)
}

// ---------------------------------------------------------------------------
// Scenario 4b: server-scale accept path — 1k connections over a lossy link
// ---------------------------------------------------------------------------

/// One listener, a thousand concurrent clients, a lossy link, one seed.
/// Clients connect in staggered waves (the accept queue must absorb the
/// bursts without dropping handshakes it admitted), each pushes one
/// payload, and the verdict demands every connection is accepted, every
/// byte arrives, no client conn fails, and the sharded demux stays
/// lockdep-clean end to end. This is the CI `net-scale` soak entry:
/// `SCENARIO=net_scale_1k_lossy SCENARIO_SEED=<n>` replays it exactly.
fn net_scale_1k_lossy(engine: &Arc<ScenarioEngine>) -> Result<(), String> {
    const CONNS: usize = 1000;
    const WAVE: usize = 250;
    const PAYLOAD: usize = 200;

    let ws = engine.stream(subsys::WORKLOAD);
    let link = Arc::new(FaultyLink::on_engine(
        LinkFaultConfig {
            drop: 0.05,
            duplicate: 0.02,
            reorder: 0.05,
            corrupt: 0.01,
            delay: 0.05,
            delay_ns: DEFAULT_RTO_NS / 4,
        },
        engine,
    ));
    let clock = Arc::clone(engine.clock());
    let registry = Arc::new(Registry::new());
    register_families(&registry).map_err(|e| format!("register: {e:?}"))?;
    let locks = safer_kernel::ksim::lock::LockRegistry::new();
    let a = ModularStack::with_lockdep(
        Arc::clone(&registry),
        Side::A,
        link.clone(),
        Arc::clone(&clock),
        Arc::clone(&locks),
    );
    let b = ModularStack::with_lockdep(
        registry,
        Side::B,
        link.clone(),
        Arc::clone(&clock),
        Arc::clone(&locks),
    );

    let server = b
        .socket("tcp", 80)
        .map_err(|e| format!("server socket: {e}"))?;
    b.listen_backlog(server, CONNS)
        .map_err(|e| format!("listen: {e}"))?;

    let mut clients: Vec<u64> = Vec::with_capacity(CONNS);
    let mut submitted = vec![false; CONNS];
    let mut got: Vec<usize> = Vec::new();
    let mut conns: Vec<u64> = Vec::new();
    let mut delivered = 0usize;

    for _round in 0..600 {
        // Staggered connect wave: the accept queue sees bursts, not a
        // trickle, so backlog handling is actually exercised.
        for _ in 0..WAVE {
            let i = clients.len();
            if i >= CONNS {
                break;
            }
            let port = 2000 + i as u16;
            let fd = a.socket("tcp", port).map_err(|e| format!("socket: {e}"))?;
            a.connect(fd, 80).map_err(|e| format!("connect {i}: {e}"))?;
            clients.push(fd);
        }
        a.pump().map_err(|e| format!("client pump: {e}"))?;
        b.pump().map_err(|e| format!("server pump: {e}"))?;
        while let Some(c) = b.accept(server).map_err(|e| format!("accept: {e}"))? {
            conns.push(c);
            got.push(0);
        }
        for (i, &fd) in clients.iter().enumerate() {
            if !submitted[i] && a.send(fd, 80, &[(i % 251) as u8; PAYLOAD]).is_ok() {
                submitted[i] = true;
            }
        }
        for (slot, &c) in conns.iter().enumerate() {
            if let Ok(data) = b.recv(c) {
                got[slot] += data.len();
                delivered += data.len();
            }
        }
        if delivered == CONNS * PAYLOAD && conns.len() == CONNS {
            break;
        }
        clock.advance(DEFAULT_RTO_NS / 2);
        a.tick();
        b.tick();
    }

    let failed = clients
        .iter()
        .filter(|&&fd| a.conn_failed(fd).unwrap_or(false))
        .count();
    ws.emit(format!(
        "net_scale: accepted={} delivered={delivered} failed={failed}",
        conns.len()
    ));
    if conns.len() != CONNS {
        return Err(format!("accepted {}/{CONNS} connections", conns.len()));
    }
    if failed != 0 {
        return Err(format!("{failed} client connections failed"));
    }
    if delivered != CONNS * PAYLOAD {
        return Err(format!("delivered {delivered}/{} bytes", CONNS * PAYLOAD));
    }
    if let Some(short) = got.iter().position(|&g| g != PAYLOAD) {
        return Err(format!(
            "connection {short} delivered {} of {PAYLOAD} bytes",
            got[short]
        ));
    }
    let violations = locks.violations();
    if !violations.is_empty() {
        return Err(format!("lockdep findings: {violations:?}"));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Scenario 5: transient EIO across commit + checkpoint, then recovery
// ---------------------------------------------------------------------------

/// Per-op journaling with transient write/flush EIO armed across the
/// whole run, periodic checkpoints included. Failed ops must leave the
/// live state untouched; checkpoints must stay retryable; and whatever
/// the journal's fate — healthy or sticky-EROFS abort — the durable
/// state must recover onto the successful-op history at or above the
/// last successful sync.
fn eio_mid_checkpoint_recovery(engine: &Arc<ScenarioEngine>) -> Result<(), String> {
    let ws = engine.stream(subsys::WORKLOAD);

    let ram = Arc::new(RamDisk::new(2048));
    let faulty = Arc::new(FaultyDisk::on_engine(
        Arc::clone(&ram),
        DiskFaultConfig::default(),
        engine,
    ));
    let dev: Arc<dyn BlockDevice> = Arc::clone(&faulty) as Arc<dyn BlockDevice>;
    Rsfs::mkfs(&dev, 128, 64).map_err(|e| format!("mkfs: {e}"))?;
    let fs =
        Rsfs::mount(Arc::clone(&dev), JournalMode::PerOp).map_err(|e| format!("mount: {e}"))?;
    let root = fs.root_ino();
    let mut models = vec![fs.abstraction()];
    let mut floor = 0usize;
    faulty.set_config(DiskFaultConfig {
        write_eio: 0.015,
        flush_eio: 0.01,
        ..DiskFaultConfig::default()
    });

    let mut live: Vec<String> = Vec::new();
    for k in 0..40u32 {
        let r = match ws.gen_range(0..3u32) {
            0 if !live.is_empty() => {
                let name = &live[ws.gen_range(0..live.len())];
                let len = ws.gen_range(1..1200usize);
                fs.lookup(root, name)
                    .and_then(|ino| fs.write(ino, 0, &vec![k as u8; len]))
                    .map(|_| ())
            }
            1 if live.len() > 1 => {
                let idx = ws.gen_range(0..live.len());
                let name = live[idx].clone();
                let r = fs.unlink(root, &name).map(|_| ());
                if r.is_ok() {
                    live.remove(idx);
                }
                r
            }
            _ => {
                let name = format!("f{k}");
                let r = fs.create(root, &name).map(|_| ());
                if r.is_ok() {
                    live.push(name);
                }
                r
            }
        };
        match r {
            Ok(()) => models.push(fs.abstraction()),
            Err(e) => {
                if fs.abstraction() != *models.last().unwrap() {
                    return Err(format!("failed op {k} ({e}) mutated the live state"));
                }
            }
        }
        if k % 10 == 9 {
            // Checkpoint under fire: EIO here must be retryable, and a
            // success establishes a durability floor.
            for attempt in 0..3 {
                match fs.sync() {
                    Ok(()) => {
                        floor = models.len() - 1;
                        ws.emit(format!("sync ok attempt={attempt} floor={floor}"));
                        break;
                    }
                    Err(e) => ws.emit(format!("sync attempt={attempt} failed: {e}")),
                }
            }
        }
    }

    let aborted = fs.journal().is_some_and(|j| j.is_aborted());
    faulty.set_config(DiskFaultConfig::default());
    if !aborted {
        // Faults disarmed: the retryable paths must now go through.
        fs.sync()
            .map_err(|e| format!("post-run sync with no faults: {e}"))?;
        if fs.abstraction() != *models.last().unwrap() {
            return Err("healthy journal, but live state diverged from the model".into());
        }
        let report = fsck(&*dev).map_err(|e| format!("fsck failed: {e}"))?;
        if !report.is_clean() {
            return Err(format!("fsck findings: {:?}", report.findings));
        }
    } else {
        ws.emit("journal aborted; remounting".to_string());
        drop(fs);
        let recovered = Rsfs::mount(Arc::clone(&dev), JournalMode::PerOp)
            .map_err(|e| format!("remount: {e}"))?;
        let m = recovered.abstraction();
        judge_with_floor(&models, floor, &m).map_err(|why| format!("remount: {why}"))?;
        let report = fsck(&*dev).map_err(|e| format!("fsck failed: {e}"))?;
        if !report.is_clean() {
            return Err(format!("fsck findings after abort: {:?}", report.findings));
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Scenario 6: corrupt reads during a remount storm
// ---------------------------------------------------------------------------

/// Bitrot on the read path while the file system is repeatedly mounted,
/// walked, checked, and dropped. Corruption is transient (the medium is
/// intact; reads lie), so every storm iteration must either mount and
/// walk without panicking or refuse cleanly — and once the lying stops,
/// the original state must come back exactly.
fn corrupt_reads_remount_storm(engine: &Arc<ScenarioEngine>) -> Result<(), String> {
    let ws = engine.stream(subsys::WORKLOAD);

    let ram = Arc::new(RamDisk::new(2048));
    let faulty = Arc::new(FaultyDisk::on_engine(
        Arc::clone(&ram),
        DiskFaultConfig::default(),
        engine,
    ));
    let dev: Arc<dyn BlockDevice> = Arc::clone(&faulty) as Arc<dyn BlockDevice>;
    Rsfs::mkfs(&dev, 128, 64).map_err(|e| format!("mkfs: {e}"))?;
    let expected = {
        let fs =
            Rsfs::mount(Arc::clone(&dev), JournalMode::PerOp).map_err(|e| format!("mount: {e}"))?;
        let root = fs.root_ino();
        let d = fs.mkdir(root, "d").map_err(|e| format!("mkdir: {e}"))?;
        for k in 0..6u32 {
            let ino = fs
                .create(if k % 2 == 0 { root } else { d }, &format!("f{k}"))
                .map_err(|e| format!("create: {e}"))?;
            fs.write(ino, 0, &vec![k as u8; 700])
                .map_err(|e| format!("write: {e}"))?;
        }
        fs.sync().map_err(|e| format!("sync: {e}"))?;
        fs.abstraction()
    };

    faulty.set_config(DiskFaultConfig {
        read_corrupt: 0.03,
        read_eio: 0.01,
        ..DiskFaultConfig::default()
    });
    for round in 0..6u32 {
        match Rsfs::mount(Arc::clone(&dev), JournalMode::PerOp) {
            Ok(fs) => {
                // Walk the tree; errors from lying reads are fine, hangs
                // and panics are not.
                let mut stack = vec![fs.root_ino()];
                let mut seen = std::collections::HashSet::new();
                let mut steps = 0usize;
                while let Some(dir) = stack.pop() {
                    if !seen.insert(dir) {
                        continue;
                    }
                    steps += 1;
                    if steps > 10_000 {
                        return Err(format!("round {round}: tree walk did not terminate"));
                    }
                    if let Ok(entries) = fs.readdir(dir) {
                        for e in entries {
                            match fs.getattr(e.ino) {
                                Ok(attr) if attr.ftype == FileType::Directory => stack.push(e.ino),
                                Ok(attr) => {
                                    let mut buf = vec![0u8; attr.size as usize];
                                    let _ = fs.read(e.ino, 0, &mut buf);
                                }
                                Err(_) => {}
                            }
                        }
                    }
                }
                ws.emit(format!("round {round}: mounted, walked {steps} dirs"));
            }
            Err(e) => {
                ws.emit(format!("round {round}: clean mount refusal ({e})"));
            }
        }
        // fsck under bitrot must terminate: clean, findings, or EIO.
        match fsck(&*dev) {
            Ok(_) | Err(_) => {}
        }
    }

    faulty.set_config(DiskFaultConfig::default());
    let fs = Rsfs::mount(Arc::clone(&dev), JournalMode::PerOp)
        .map_err(|e| format!("clean remount after the storm: {e}"))?;
    if fs.abstraction() != expected {
        return Err("transient read corruption left a permanent state change".into());
    }
    let report = fsck(&*dev).map_err(|e| format!("fsck failed: {e}"))?;
    if !report.is_clean() {
        return Err(format!(
            "fsck findings after the storm: {:?}",
            report.findings
        ));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Scenario 9: a 4-reactor pool under transient EIO while a hot swap quiesces
// ---------------------------------------------------------------------------

/// Four work-stealing reactors drain one ring while the live
/// generation's disk throws transient write/flush EIO and a hot swap
/// tries to quiesce through it. The workload keeps exactly one op in
/// flight, so even with four racing reactors the device-op order — and
/// therefore every engine-drawn fault — is deterministic and the trace
/// replays byte-identically.
///
/// In async journal mode the staging path touches no device, so every
/// workload op must succeed even with faults hot; the EIO window lands
/// precisely where this scenario aims it: inside the swap's quiesce
/// (journal drain + checkpoint through the faulty disk). Two outcomes
/// are legal per seed, both deterministic: the swap lands within eight
/// attempts (then the copied tree must match the mirror and a clean
/// phase 2 must see zero failed ops), or a record-write EIO sticky-
/// aborts generation 1 and every attempt must refuse cleanly —
/// generation unchanged, nothing half-switched.
fn multi_reactor_eio_swap(engine: &Arc<ScenarioEngine>) -> Result<(), String> {
    let ws = engine.stream(subsys::WORKLOAD);
    let sw = engine.stream(subsys::SWAP);

    // Generation 1 on a faulty disk; faults stay off through mkfs,
    // mount, and the base-file prefill so initial state is clean.
    let ram = Arc::new(RamDisk::new(8192));
    let faulty = Arc::new(FaultyDisk::on_engine(
        Arc::clone(&ram),
        DiskFaultConfig::default(),
        engine,
    ));
    let dev: Arc<dyn BlockDevice> = Arc::clone(&faulty) as Arc<dyn BlockDevice>;
    Rsfs::mkfs(&dev, 512, 64).map_err(|e| format!("mkfs: {e}"))?;
    let gen1 = Arc::new(Rsfs::mount(dev, JournalMode::Async).map_err(|e| format!("mount: {e}"))?);
    let registry = Registry::new();
    registry
        .register::<dyn FileSystem>(
            FS_INTERFACE,
            "rsfs",
            Arc::clone(&gen1) as Arc<dyn FileSystem>,
        )
        .map_err(|e| format!("register: {e:?}"))?;
    let locks = safer_kernel::ksim::lock::LockRegistry::new();
    let vfs =
        Vfs::mount_with_lockdep(&registry, Arc::clone(&locks)).map_err(|e| format!("vfs: {e}"))?;
    let root = gen1.root_ino();
    let base = gen1
        .create(root, "base")
        .map_err(|e| format!("create base: {e}"))?;
    let mut base_img = vec![0u8; 4096];
    gen1.write(base, 0, &base_img)
        .map_err(|e| format!("prefill base: {e}"))?;
    gen1.sync().map_err(|e| format!("initial sync: {e}"))?;

    let ring = Arc::new(Ring::new(&locks, 16));
    let pool = RingReactor::spawn_gated_pool(
        Arc::clone(&ring),
        vfs.fs_handle().clone(),
        vfs.gate(),
        None,
        4,
    );

    faulty.set_config(DiskFaultConfig {
        write_eio: 0.05,
        flush_eio: 0.02,
        ..DiskFaultConfig::default()
    });

    // One op in flight at a time: submit, then wait, so the four
    // reactors race only for the claim, never for device order.
    let one = |op: BatchOp| -> Result<BatchReply, String> {
        let ticket = ring
            .submit(op)
            .map_err(|op| format!("ring refused {op:?} while live"))?;
        Ok(ring.wait(ticket).reply)
    };

    // Phase 1: mixed traffic with the EIO window open. Async staging
    // never reaches the device, so every op must succeed.
    let mut live: Vec<u32> = Vec::new();
    for k in 0..40u32 {
        let pick = ws.gen_range(0..8u32);
        let reply = match pick {
            0..=2 => {
                live.push(k);
                one(BatchOp::Create {
                    dir: root,
                    name: format!("r{k}"),
                })?
            }
            3 if !live.is_empty() => {
                let gone = live.remove(ws.gen_range(0..live.len() as u32) as usize);
                one(BatchOp::Unlink {
                    dir: root,
                    name: format!("r{gone}"),
                })?
            }
            4 | 5 => {
                let off = (k % 4) as usize * 1024;
                base_img[off..off + 1024].fill(k as u8);
                one(BatchOp::Write {
                    ino: base,
                    off: off as u64,
                    data: vec![k as u8; 1024],
                })?
            }
            _ => one(BatchOp::Read {
                ino: base,
                off: u64::from(ws.gen_range(0..4u32)) * 1024,
                buf: vec![0u8; 1024],
            })?,
        };
        if let Err(e) = reply.result() {
            // One legal failure: the staging op itself ran a log-pressure
            // commit, the record write EIO'd, and the journal sticky-
            // aborted — from then on mutations report EROFS. Anything
            // else is a real bug.
            if e == Errno::EROFS && gen1.journal().is_some_and(|j| j.is_aborted()) {
                ws.emit(format!("op {k}: pressure commit EIO'd, journal aborted"));
                break;
            }
            return Err(format!("phase-1 op {k} failed under async staging: {e}"));
        }
    }

    // The hot swap: quiesce drains the journal and checkpoints through
    // the faulty disk — this is where the EIO lands. Each attempt gets
    // a fresh, clean target.
    let pre = vfs.abstraction();
    let mut landed = false;
    for attempt in 0..8u32 {
        let ram2 = Arc::new(RamDisk::new(8192));
        {
            let d: Arc<dyn BlockDevice> = Arc::clone(&ram2) as Arc<dyn BlockDevice>;
            Rsfs::mkfs(&d, 512, 64).map_err(|e| format!("mkfs2: {e}"))?;
        }
        let next: Arc<dyn FileSystem> = Arc::new(
            Rsfs::mount(ram2 as Arc<dyn BlockDevice>, JournalMode::Async)
                .map_err(|e| format!("mount2: {e}"))?,
        );
        match Migrator::new(&vfs, &registry)
            .with_ring(&ring)
            .with_observer(|p: MigratePhase| sw.emit(format!("a{attempt} {p:?}")))
            .swap("rsfs2", next)
        {
            Ok(report) => {
                sw.emit(format!(
                    "landed a{attempt} files={} dirs={} bytes={}",
                    report.copied_files, report.copied_dirs, report.copied_bytes
                ));
                landed = true;
                break;
            }
            Err(e) => {
                sw.emit(format!("abort a{attempt} {e:?}"));
                if vfs.fs_handle().impl_name() != "rsfs" {
                    return Err("aborted swap left a half-switched generation".into());
                }
                if vfs.abstraction() != pre {
                    return Err("aborted swap mutated the live state".into());
                }
            }
        }
    }

    if landed {
        // Faults die with the detached generation; everything after the
        // swap runs on the clean target and must be flawless.
        let handle = vfs.fs_handle().get();
        let root2 = handle.root_ino();
        let base2 = handle
            .lookup(root2, "base")
            .map_err(|e| format!("base lost in transfer: {e}"))?;
        for &k in &live {
            handle
                .lookup(root2, &format!("r{k}"))
                .map_err(|e| format!("r{k} lost in transfer: {e}"))?;
        }
        for c in 0..4usize {
            match one(BatchOp::Read {
                ino: base2,
                off: (c * 1024) as u64,
                buf: vec![0u8; 1024],
            })? {
                BatchReply::Read { result, buf } => {
                    result.map_err(|e| format!("post-swap read chunk {c}: {e}"))?;
                    if buf != base_img[c * 1024..(c + 1) * 1024] {
                        return Err(format!("base chunk {c} transferred wrong"));
                    }
                }
                other => return Err(format!("read came back as {other:?}")),
            }
        }
        // Phase 2: the reactor pool keeps serving the new generation;
        // zero failed ops, fsync included (the clean journal flushes).
        for k in 100..120u32 {
            let reply = match ws.gen_range(0..4u32) {
                0 => one(BatchOp::Create {
                    dir: root2,
                    name: format!("r{k}"),
                })?,
                1 => one(BatchOp::Write {
                    ino: base2,
                    off: u64::from(k % 4) * 1024,
                    data: vec![k as u8; 1024],
                })?,
                2 => one(BatchOp::Fsync { ino: base2 })?,
                _ => one(BatchOp::Read {
                    ino: base2,
                    off: u64::from(k % 4) * 1024,
                    buf: vec![0u8; 1024],
                })?,
            };
            if let Err(e) = reply.result() {
                return Err(format!(
                    "phase-2 op {k} failed on the clean generation: {e}"
                ));
            }
        }
        if vfs.fs_handle().swap_count() != 1 || vfs.gate().swaps() != 1 {
            return Err("swap landed but the counters disagree".into());
        }
    } else {
        // Deterministic alternate outcome: a record-write EIO during
        // quiesce sticky-aborted generation 1. The loop above already
        // proved every attempt refused cleanly; record which door this
        // seed took so the trace documents it.
        if !gen1.journal().is_some_and(|j| j.is_aborted()) {
            return Err("swap never landed yet the journal is healthy".into());
        }
        sw.emit("gen1 sticky-aborted; swap refused cleanly on all attempts".to_string());
    }

    for r in pool {
        r.join();
    }
    let stats = ring.stats();
    if stats.submitted != stats.completed {
        return Err(format!(
            "accepted SQEs without CQEs: {} submitted, {} completed",
            stats.submitted, stats.completed
        ));
    }
    let violations = locks.violations();
    if !violations.is_empty() {
        return Err(format!("lockdep findings: {violations:?}"));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// The corpus runner + replay/determinism tests
// ---------------------------------------------------------------------------

fn panic_text(p: Box<dyn std::any::Any + Send>) -> String {
    p.downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| p.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "opaque panic payload".into())
}

/// Runs one scenario at one seed. Every run prints a `SCENARIO-TRACE`
/// line (trace length and hash, verdict) so two builds' traces compare
/// with one `diff`; on failure it also prints the verdict, the exact
/// replay command, and the trace tail.
fn run_one(name: &str, f: ScenarioFn, seed: u64) -> Result<(), String> {
    let engine = ScenarioEngine::new(seed);
    let verdict = match catch_unwind(AssertUnwindSafe(|| f(&engine))) {
        Ok(v) => v,
        Err(p) => Err(format!("panic: {}", panic_text(p))),
    };
    let mut hasher = std::hash::DefaultHasher::new();
    std::hash::Hash::hash(&engine.trace_text(), &mut hasher);
    eprintln!(
        "SCENARIO-TRACE {name} seed={seed} len={} hash={:016x} ok={}",
        engine.trace_len(),
        std::hash::Hasher::finish(&hasher),
        verdict.is_ok()
    );
    if let Err(why) = &verdict {
        eprintln!("SCENARIO-FAIL scenario={name} seed={seed}");
        eprintln!("  verdict: {why}");
        eprintln!(
            "  replay: SCENARIO={name} SCENARIO_SEED={seed} \
             cargo test --test soak scenarios::scenario_corpus -- --nocapture"
        );
        eprintln!("  trace tail ({} events total):", engine.trace_len());
        eprintln!("{}", engine.trace_tail(40));
    }
    verdict
}

/// The CI corpus sweep: every scenario across the sweep seeds. Override
/// with `SCENARIO=<name>` and/or `SCENARIO_SEED=<seed>` to replay one
/// failure — the trace is byte-identical run to run (proved below).
#[test]
fn scenario_corpus() {
    let only = std::env::var("SCENARIO").ok();
    let seed_override = std::env::var("SCENARIO_SEED")
        .ok()
        .map(|s| s.parse::<u64>().expect("SCENARIO_SEED must be a u64"));
    let seeds: Vec<u64> = seed_override.map_or_else(|| SWEEP_SEEDS.to_vec(), |s| vec![s]);

    let mut failures = Vec::new();
    for (name, f) in CORPUS {
        if only.as_deref().is_some_and(|o| !name.contains(o)) {
            continue;
        }
        for &seed in &seeds {
            if run_one(name, *f, seed).is_err() {
                failures.push(format!("{name} seed={seed}"));
            }
        }
    }
    assert!(
        failures.is_empty(),
        "scenario corpus failures (replay each with SCENARIO/SCENARIO_SEED): {failures:?}"
    );
}

/// Satellite: seed-unification. One engine seed drives the disk stream,
/// the link stream, and the crash sampler at once, and two runs with the
/// same seed produce byte-identical combined traces.
#[test]
fn one_seed_drives_disk_link_and_crash_byte_identically() {
    let run = || {
        let engine = ScenarioEngine::new(0xABCD);
        let disk = FaultyDisk::on_engine(
            RamDisk::new(32),
            DiskFaultConfig {
                write_eio: 0.2,
                torn_write: 0.3,
                read_corrupt: 0.2,
                ..DiskFaultConfig::default()
            },
            &engine,
        );
        let link = FaultyLink::on_engine(LinkFaultConfig::adversarial(100), &engine);
        let crash_stream = engine.stream(subsys::CRASH);
        let block = vec![7u8; BLOCK_SIZE];
        let mut outcomes = Vec::new();
        let mut p = safer_kernel::netstack::packet::Packet::new(
            safer_kernel::netstack::packet::proto::UDP,
            1,
            2,
        );
        p.payload = vec![9u8; 64];
        for i in 0..32u64 {
            outcomes.push(disk.write_block(i % 32, &block).is_ok());
            link.send(Side::A, &p);
            let mut buf = vec![0u8; BLOCK_SIZE];
            outcomes.push(disk.read_block(i % 32, &mut buf).is_ok());
        }
        let pending = vec![PendingWrite {
            blkno: 3,
            data: vec![1u8; BLOCK_SIZE],
        }];
        let img = sample_crash_image(
            &vec![0u8; 32 * BLOCK_SIZE],
            &pending,
            BLOCK_SIZE,
            CrashPolicy::Torn,
            &crash_stream,
        );
        (outcomes, img, engine.trace_text())
    };
    let (a, b) = (run(), run());
    // All three subsystems appear in the one trace...
    for tag in ["disk+", "link+", "crash+"] {
        assert!(a.2.contains(tag), "missing {tag} events in:\n{}", a.2);
    }
    // ...and the trace (plus every outcome) is byte-identical.
    assert_eq!(a, b);
}

/// Satellite: trace replay. Every corpus scenario, re-run from the same
/// engine seed, reproduces the identical event trace AND verdict —
/// determinism itself is under test, cross-subsystem.
#[test]
fn every_scenario_replays_trace_and_verdict_byte_identically() {
    for (name, f) in CORPUS {
        let run = || {
            let engine = ScenarioEngine::new(0x5EED);
            let verdict = catch_unwind(AssertUnwindSafe(|| f(&engine)))
                .unwrap_or_else(|p| Err(format!("panic: {}", panic_text(p))));
            (
                format!("{verdict:?}"),
                engine.trace_len(),
                engine.trace_text(),
            )
        };
        let (a, b) = (run(), run());
        assert_eq!(a.0, b.0, "{name}: verdict diverged between identical seeds");
        assert_eq!(
            (a.1, &a.2),
            (b.1, &b.2),
            "{name}: trace diverged between identical seeds"
        );
    }
}

// ---------------------------------------------------------------------------
// Pinned regressions: bugs the corpus surfaced, fixed in product code.
// Each carries the exact seed that found it so a revert fails loudly.
// ---------------------------------------------------------------------------

/// Bug found by `eio_mid_checkpoint_recovery` seeds 1 and 3: a failed
/// per-op commit publishes its block images into shared cache buffers
/// before journal durability. The rollback path invalidated its blocks,
/// but `invalidate_blocks` spares Delay-pinned buffers — so any block
/// *also* pinned by an earlier committed-but-uncheckpointed transaction
/// (inode table, bitmaps, the parent directory: the common case) kept
/// the failed op's content, and the op's mutation stayed visible to
/// readers despite the EIO it returned.
///
/// This is the deterministic distillation: op 1 commits and stays
/// uncheckpointed (pinning the shared metadata blocks), op 2's journal
/// record write EIOs. The failed create must vanish from the live state.
/// Fix: `Txn::commit`'s failure path now restores still-pinned buffers
/// to the journal's newest committed image (`Journal::committed_image`).
#[test]
fn pinned_failed_commit_must_not_clobber_blocks_pinned_by_earlier_txns() {
    let engine = ScenarioEngine::new(0x0B06);
    let faulty = Arc::new(FaultyDisk::on_engine(
        Arc::new(RamDisk::new(512)),
        DiskFaultConfig::default(),
        &engine,
    ));
    let dev: Arc<dyn BlockDevice> = Arc::clone(&faulty) as Arc<dyn BlockDevice>;
    Rsfs::mkfs(&dev, 64, 32).unwrap();
    let fs = Rsfs::mount(Arc::clone(&dev), JournalMode::PerOp).unwrap();
    let root = fs.root_ino();

    // Op 1: committed but never checkpointed — its Delay pins on the
    // inode bitmap, inode table, and root directory blocks stay held.
    fs.create(root, "alpha").unwrap();
    let pre = fs.abstraction();

    // Op 2: the very next device write is its journal record — EIO.
    faulty.fail_nth_write(0);
    let err = fs.create(root, "beta");
    assert!(err.is_err(), "create under a failed record write must fail");

    // The failed op shares every metadata block with op 1, so none of
    // its published images could be invalidated — they must have been
    // rolled back to op 1's committed images instead.
    assert!(
        fs.lookup(root, "beta").is_err(),
        "failed create is visible in the live directory"
    );
    assert_eq!(
        fs.abstraction(),
        pre,
        "failed commit mutated the live state"
    );
}

/// PINNED: SCENARIO=multi_reactor_eio_swap SCENARIO_SEED=3 — the seed
/// where the swap's first quiesce attempt EIOs (clean refusal: state
/// intact, generation unswitched) and the retry lands, so one run
/// exercises the whole contract: 4 work-stealing reactors stay coherent
/// through a failed and then a successful SwapGate handshake, the copied
/// tree matches the mirror, and phase 2 sees zero failed ops.
#[test]
fn pinned_multi_reactor_eio_swap_seed_3() {
    run_one("multi_reactor_eio_swap", multi_reactor_eio_swap, 3).unwrap();
}

/// PINNED: SCENARIO=eio_mid_checkpoint_recovery SCENARIO_SEED=1 — first
/// seed that surfaced the shared-pin rollback bug (trace: `disk+30
/// write_eio blk=2010`, a journal record write; op 4's create stayed
/// visible after its EIO).
#[test]
fn pinned_eio_mid_checkpoint_recovery_seed_1() {
    run_one(
        "eio_mid_checkpoint_recovery",
        eio_mid_checkpoint_recovery,
        1,
    )
    .unwrap();
}

/// PINNED: SCENARIO=eio_mid_checkpoint_recovery SCENARIO_SEED=3 — same
/// bug reached through the other door: two syncs succeed, then a flush
/// EIO (`disk+186 flush_eio`) fails the commit *barrier* rather than the
/// record write, exercising the rollback after a durable-looking write.
#[test]
fn pinned_eio_mid_checkpoint_recovery_seed_3() {
    run_one(
        "eio_mid_checkpoint_recovery",
        eio_mid_checkpoint_recovery,
        3,
    )
    .unwrap();
}

/// PINNED: SCENARIO=corrupt_reads_remount_storm SCENARIO_SEED=153 — a
/// read-time bit flip leaves an inode with a block pointer near 2^20;
/// fsck's ownership walk used to index the one-block bitmap with it and
/// panic. A pointer past `total_blocks` is now an unallocated-block
/// finding.
#[test]
fn pinned_corrupt_reads_remount_storm_seed_153() {
    run_one(
        "corrupt_reads_remount_storm",
        corrupt_reads_remount_storm,
        153,
    )
    .unwrap();
}
