//! Integration: module-by-module replacement under a live workload — the
//! paper's §3 roadmap as an executable scenario.
//!
//! The swaps here go through [`Migrator`], the live-replacement protocol
//! (quiesce → transfer → resume), not a bare registry replace: the tests
//! assert **zero failed operations** across handoffs, not merely "no
//! panic", and pin the two hazards the protocol exists to close — ring
//! SQEs completing against a retired generation, and a crash image
//! sampled right after the switch losing the pre-swap durable prefix.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;

use proptest::prelude::*;
use safer_kernel::core::modularity::Registry;
use safer_kernel::core::spec::crash::judge_with_floor;
use safer_kernel::core::spec::Refines;
use safer_kernel::fs_legacy::{cext4_ops, BugKnobs, Cext4};
use safer_kernel::fs_safe::rsfs::{JournalMode, Rsfs};
use safer_kernel::ksim::block::{BlockDevice, CrashDevice, RamDisk};
use safer_kernel::ksim::lock::LockRegistry;
use safer_kernel::legacy::LegacyCtx;
use safer_kernel::vfs::migrate::{copy_tree, MigratePhase, Migrator};
use safer_kernel::vfs::modular::{fs_abstraction, BatchOp, FileSystem};
use safer_kernel::vfs::path::{Vfs, FS_INTERFACE};
use safer_kernel::vfs::ring::{Ring, RingReactor};
use safer_kernel::vfs::shim::LegacyFsAdapter;

fn make_cext4() -> (Arc<dyn FileSystem>, LegacyCtx) {
    let dev: Arc<dyn BlockDevice> = Arc::new(RamDisk::new(4096));
    Cext4::mkfs(&dev, 256).unwrap();
    let ctx = LegacyCtx::new();
    let fs = Arc::new(Cext4::mount(dev, ctx.clone(), Arc::new(BugKnobs::none())).unwrap());
    (
        Arc::new(LegacyFsAdapter::new(Arc::new(cext4_ops(fs)), ctx.clone())) as Arc<dyn FileSystem>,
        ctx,
    )
}

fn make_rsfs() -> Arc<dyn FileSystem> {
    let dev: Arc<dyn BlockDevice> = Arc::new(RamDisk::new(4096));
    Rsfs::mkfs(&dev, 256, 64).unwrap();
    Arc::new(Rsfs::mount(dev, JournalMode::PerOp).unwrap()) as Arc<dyn FileSystem>
}

#[test]
fn hot_swap_preserves_the_tree_and_the_workload() {
    let (legacy, _ctx) = make_cext4();
    let registry = Registry::new();
    registry
        .register::<dyn FileSystem>(FS_INTERFACE, "cext4", Arc::clone(&legacy))
        .unwrap();
    let vfs = Vfs::mount(&registry).unwrap();

    // Phase 1 workload.
    vfs.mkdir("/data").unwrap();
    for i in 0..20 {
        vfs.create(&format!("/data/f{i}")).unwrap();
        vfs.write_file(&format!("/data/f{i}"), 0, format!("item {i}").as_bytes())
            .unwrap();
    }
    let before = vfs.abstraction();

    // Live swap: the migrator quiesces, transfers, and resumes in one
    // protocol — no manual copy, no dcache clear.
    let report = Migrator::new(&vfs, &registry)
        .swap("rsfs", make_rsfs())
        .unwrap();
    assert_eq!(report.copied_files, 20);
    assert_eq!(report.copied_dirs, 1);
    assert!(report.copied_bytes > 0);

    // The tree is intact through the same Vfs.
    assert_eq!(vfs.abstraction(), before, "migration preserved the tree");
    assert_eq!(vfs.fs_handle().impl_name(), "rsfs");
    assert_eq!(vfs.fs_handle().swap_count(), 1);
    assert_eq!(vfs.gate().swaps(), 1);

    // Phase 2 workload continues.
    for i in 20..40 {
        vfs.create(&format!("/data/f{i}")).unwrap();
    }
    assert_eq!(vfs.readdir("/data").unwrap().len(), 40);
    assert_eq!(vfs.read_file("/data/f3").unwrap(), b"item 3");
}

#[test]
fn swap_back_and_forth_is_symmetric() {
    let (legacy, _ctx) = make_cext4();
    let registry = Registry::new();
    registry
        .register::<dyn FileSystem>(FS_INTERFACE, "cext4", Arc::clone(&legacy))
        .unwrap();
    let vfs = Vfs::mount(&registry).unwrap();
    vfs.create("/on-legacy").unwrap();

    // Forward migration.
    Migrator::new(&vfs, &registry)
        .swap("rsfs", make_rsfs())
        .unwrap();
    vfs.create("/on-rsfs").unwrap();

    // Backward migration (rollback): a fresh legacy instance becomes the
    // target; the migrator moves the accumulated state back.
    let (legacy2, _ctx2) = make_cext4();
    Migrator::new(&vfs, &registry)
        .swap("cext4", legacy2)
        .unwrap();

    assert_eq!(vfs.fs_handle().swap_count(), 2);
    assert!(vfs.stat("/on-legacy").is_ok());
    assert!(vfs.stat("/on-rsfs").is_ok());
}

#[test]
fn fsync_is_a_durability_point_in_both_generations() {
    // Generation 0: cext4 behind the shim. fsync must cross the legacy
    // boundary through the ops-table slot, and a missing path must be
    // refused before anything reaches the file system.
    let dev: Arc<dyn BlockDevice> = Arc::new(RamDisk::new(4096));
    Cext4::mkfs(&dev, 256).unwrap();
    let ctx = LegacyCtx::new();
    let cfs = Arc::new(Cext4::mount(dev, ctx.clone(), Arc::new(BugKnobs::none())).unwrap());
    let adapter = Arc::new(LegacyFsAdapter::new(Arc::new(cext4_ops(cfs)), ctx));
    let registry = Registry::new();
    registry
        .register::<dyn FileSystem>(
            FS_INTERFACE,
            "cext4",
            Arc::clone(&adapter) as Arc<dyn FileSystem>,
        )
        .unwrap();
    let vfs = Vfs::mount(&registry).unwrap();

    vfs.create("/durable").unwrap();
    vfs.write_file("/durable", 0, b"fsync me").unwrap();
    let before = adapter.boundary().stats().crossings();
    vfs.fsync_path("/durable").unwrap();
    assert!(
        adapter.boundary().stats().crossings() > before,
        "fsync crossed the legacy boundary"
    );
    assert!(vfs.fsync_path("/ghost").is_err());

    // Generation 1: rsfs in async-commit mode. The same VFS call must now
    // land on the modular fsync and force the running transaction out.
    let rdev: Arc<dyn BlockDevice> = Arc::new(RamDisk::new(4096));
    Rsfs::mkfs(&rdev, 256, 64).unwrap();
    let rsfs = Arc::new(Rsfs::mount(rdev, JournalMode::Async).unwrap());
    Migrator::new(&vfs, &registry)
        .swap("rsfs", Arc::clone(&rsfs) as Arc<dyn FileSystem>)
        .unwrap();

    vfs.create("/async-file").unwrap();
    vfs.write_file("/async-file", 0, b"staged then fsynced")
        .unwrap();
    let j = rsfs.journal().unwrap();
    assert!(j.staged_ops() > 0, "async mode stages, it does not commit");
    let batches_before = j.stats().batches;
    vfs.fsync_path("/async-file").unwrap();
    assert!(
        j.stats().batches > batches_before,
        "fsync forced a journal commit"
    );
    assert_eq!(j.staged_ops(), 0, "the running transaction drained");
    assert_eq!(
        vfs.read_file("/async-file").unwrap(),
        b"staged then fsynced"
    );
    assert_eq!(vfs.read_file("/durable").unwrap(), b"fsync me");
}

#[test]
fn concurrent_readers_survive_the_swap() {
    let (legacy, _ctx) = make_cext4();
    let registry = Arc::new(Registry::new());
    registry
        .register::<dyn FileSystem>(FS_INTERFACE, "cext4", Arc::clone(&legacy))
        .unwrap();
    let vfs = Arc::new(Vfs::mount(&registry).unwrap());
    vfs.create("/shared").unwrap();
    vfs.write_file("/shared", 0, b"stable content").unwrap();

    let stop = Arc::new(AtomicBool::new(false));
    let mut readers = Vec::new();
    for _ in 0..4 {
        let vfs = Arc::clone(&vfs);
        let stop = Arc::clone(&stop);
        // Each reader returns (successful reads, failed ops): the test
        // asserts the second number is zero, not just absence of panics.
        readers.push(thread::spawn(move || {
            let mut reads = 0u64;
            let mut failed = 0u64;
            while !stop.load(Ordering::Relaxed) {
                match vfs.read_file("/shared") {
                    Ok(data) => {
                        assert_eq!(data, b"stable content");
                        reads += 1;
                    }
                    Err(_) => failed += 1,
                }
            }
            (reads, failed)
        }));
    }

    // Swap while the readers hammer the handle. The gate makes this
    // exact: every read lands wholly before the blackout or wholly after
    // the resume, and the dcache is rekeyed (not guessed at) before the
    // gate reopens — no sleeps, no "luck of inode numbering".
    let report = Migrator::new(&vfs, &registry)
        .swap("rsfs", make_rsfs())
        .unwrap();
    std::thread::sleep(std::time::Duration::from_millis(20));
    stop.store(true, Ordering::Relaxed);
    let (mut total, mut failed) = (0u64, 0u64);
    for r in readers {
        let (reads, fails) = r.join().unwrap();
        total += reads;
        failed += fails;
    }
    assert!(total > 0, "readers made progress");
    assert_eq!(failed, 0, "zero failed ops across the swap");
    assert!(report.blackout_ns > 0);
    assert_eq!(vfs.fs_handle().impl_name(), "rsfs");
}

#[test]
fn open_descriptors_survive_the_swap_with_position_and_flags() {
    let (legacy, _ctx) = make_cext4();
    let registry = Registry::new();
    registry
        .register::<dyn FileSystem>(FS_INTERFACE, "cext4", legacy)
        .unwrap();
    let vfs = Vfs::mount(&registry).unwrap();

    vfs.create("/log").unwrap();
    vfs.write_file("/log", 0, b"0123456789").unwrap();
    let fd = vfs.open("/log").unwrap();
    let mut buf = [0u8; 4];
    assert_eq!(vfs.read(fd, &mut buf).unwrap(), 4);
    assert_eq!(&buf, b"0123");

    // A descriptor whose file is unlinked before the swap has no name in
    // the transferred tree: it cannot be carried and must turn into an
    // honest EBADF, never a silent handle onto the retired generation.
    vfs.create("/doomed").unwrap();
    let orphan = vfs.open("/doomed").unwrap();
    vfs.unlink("/doomed").unwrap();

    let report = Migrator::new(&vfs, &registry)
        .swap("rsfs", make_rsfs())
        .unwrap();
    assert_eq!(report.remapped_fds, 1);
    assert_eq!(report.dropped_fds, 1);

    // Position carried across the generation handoff.
    assert_eq!(vfs.read(fd, &mut buf).unwrap(), 4);
    assert_eq!(&buf, b"4567");
    assert_eq!(vfs.write(fd, b"XY").unwrap(), 2);
    assert_eq!(vfs.read_file("/log").unwrap(), b"01234567XY");

    assert!(vfs.read(orphan, &mut buf).is_err());
}

/// The ISSUE 9 acceptance scenario: an 8-thread mixed workload observes
/// zero failed ops across two back-to-back generation swaps (forward to
/// rsfs, then back to a fresh cext4), lockdep clean.
#[test]
fn eight_thread_workload_sees_zero_failed_ops_across_two_swaps() {
    let (legacy, _ctx) = make_cext4();
    let registry = Arc::new(Registry::new());
    registry
        .register::<dyn FileSystem>(FS_INTERFACE, "cext4", legacy)
        .unwrap();
    let locks = LockRegistry::new();
    let vfs = Arc::new(Vfs::mount_with_lockdep(&registry, Arc::clone(&locks)).unwrap());

    let stop = Arc::new(AtomicBool::new(false));
    let mut workers = Vec::new();
    for t in 0..8u64 {
        let vfs = Arc::clone(&vfs);
        let stop = Arc::clone(&stop);
        workers.push(thread::spawn(move || {
            // Mixed ops over a bounded per-thread namespace (16 files
            // each — 128 total stays well inside both generations'
            // inode budgets). Every error is a failed op.
            let dir = format!("/t{t}");
            let mut failed = 0u64;
            let mut ops = 0u64;
            if vfs.mkdir(&dir).is_err() {
                failed += 1;
            }
            let mut i = 0u64;
            let mut x = t << 32 | 1;
            while !stop.load(Ordering::Relaxed) {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let f = format!("{dir}/f{}", i % 16);
                let r = if i < 16 {
                    // Populate the namespace first, so every later op
                    // targets a file that must exist — any error after
                    // this point is a real failed op.
                    vfs.create(&f).map(|_| ())
                } else {
                    match x % 5 {
                        0 => vfs.stat(&f).map(|_| ()),
                        1 => vfs
                            .write_file(&f, 0, format!("t{t} gen {i}").as_bytes())
                            .map(|_| ()),
                        2 => vfs.read_file(&f).map(|_| ()),
                        3 => vfs.readdir(&dir).map(|_| ()),
                        _ => vfs.stat(&dir).map(|_| ()),
                    }
                };
                if r.is_err() {
                    failed += 1;
                }
                ops += 1;
                i += 1;
            }
            (ops, failed)
        }));
    }

    // Let the workload establish itself, then two live swaps
    // back-to-back, opposite directions, while all 8 threads run.
    std::thread::sleep(std::time::Duration::from_millis(30));
    let r1 = Migrator::new(&vfs, &registry)
        .swap("rsfs", make_rsfs())
        .unwrap();
    let (legacy2, _ctx2) = make_cext4();
    let r2 = Migrator::new(&vfs, &registry)
        .swap("cext4", legacy2)
        .unwrap();
    std::thread::sleep(std::time::Duration::from_millis(30));
    stop.store(true, Ordering::Relaxed);

    let (mut ops, mut failed) = (0u64, 0u64);
    for w in workers {
        let (o, f) = w.join().unwrap();
        ops += o;
        failed += f;
    }
    assert!(ops > 0, "workload made progress");
    assert_eq!(failed, 0, "zero failed ops across both swaps");
    assert_eq!(vfs.fs_handle().swap_count(), 2);
    assert_eq!(vfs.gate().swaps(), 2);
    assert_eq!(vfs.fs_handle().impl_name(), "cext4");
    assert!(r1.blackout_ns > 0 && r2.blackout_ns > 0);
    let violations = locks.violations();
    assert!(violations.is_empty(), "lockdep findings: {violations:?}");
}

/// Revert-fails regression for the ring-reactor swap hazard: the plain
/// reactor captures one `Arc<dyn FileSystem>` at spawn, so SQEs
/// submitted after a swap would execute against the retired generation —
/// visible through the VFS as files that were acknowledged but do not
/// exist. The gated reactor dispatches through the interface handle
/// under the swap gate; queued pre-swap SQEs are drained by the migrator
/// against the old generation before transfer.
#[test]
fn post_swap_sqes_complete_against_the_new_generation() {
    let (legacy, _ctx) = make_cext4();
    let registry = Registry::new();
    registry
        .register::<dyn FileSystem>(FS_INTERFACE, "cext4", legacy)
        .unwrap();
    let vfs = Vfs::mount(&registry).unwrap();
    let locks = LockRegistry::new_disabled();
    let ring = Arc::new(Ring::new(&locks, 8));
    let reactor = RingReactor::spawn_gated_pool(
        Arc::clone(&ring),
        vfs.fs_handle().clone(),
        vfs.gate(),
        None,
        1,
    );

    // Pre-swap SQEs: whether the reactor or the migrator's drain
    // processes them, their effects must cross with the tree.
    let root = vfs.resolve("/").unwrap();
    let mut tickets = Vec::new();
    for i in 0..4 {
        tickets.push(
            ring.submit(BatchOp::Create {
                dir: root,
                name: format!("pre{i}"),
            })
            .unwrap(),
        );
    }

    let report = Migrator::new(&vfs, &registry)
        .with_ring(&ring)
        .swap("rsfs", make_rsfs())
        .unwrap();
    for t in tickets {
        assert!(ring.wait(t).reply.result().is_ok(), "pre-swap SQE failed");
    }

    // Post-swap SQEs must land on the new generation: the VFS resolves
    // through the swapped slot, so an acknowledged create that the VFS
    // cannot stat means the reactor wrote to the retired generation.
    let root = vfs.resolve("/").unwrap();
    for i in 0..4 {
        let t = ring
            .submit(BatchOp::Create {
                dir: root,
                name: format!("post{i}"),
            })
            .unwrap();
        assert!(ring.wait(t).reply.result().is_ok(), "post-swap SQE failed");
    }
    reactor.into_iter().for_each(RingReactor::join);

    for i in 0..4 {
        assert!(
            vfs.stat(&format!("/pre{i}")).is_ok(),
            "pre-swap SQE effect lost in transfer"
        );
        assert!(
            vfs.stat(&format!("/post{i}")).is_ok(),
            "post-swap SQE completed against a retired generation"
        );
    }
    let stats = ring.stats();
    assert_eq!(stats.submitted, stats.completed);
    // Whoever processed the pre-swap SQEs — the parked reactor or the
    // migrator's drain — nothing may be counted twice or lost.
    assert_eq!(stats.submitted, 8);
    let _ = report;
}

/// The ISSUE 10 acceptance scenario: a 4-reactor work-stealing pool
/// stays live across two back-to-back generation swaps while 8 clients
/// hammer the ring, and not one op fails. Every reactor parks outside
/// its shared gate hold, so the migrator finds the whole pool idle,
/// drains queued SQEs itself against the old generation, and the pool
/// resumes against the new one — the single-reactor SwapGate handshake,
/// unchanged, covering N reactors.
#[test]
fn four_reactor_pool_sees_zero_failed_ops_across_two_swaps() {
    let registry = Arc::new(Registry::new());
    registry
        .register::<dyn FileSystem>(FS_INTERFACE, "rsfs", make_rsfs())
        .unwrap();
    let locks = LockRegistry::new();
    let vfs = Arc::new(Vfs::mount_with_lockdep(&registry, Arc::clone(&locks)).unwrap());
    let ring = Arc::new(Ring::new(&locks, 64));
    let pool = RingReactor::spawn_gated_pool(
        Arc::clone(&ring),
        vfs.fs_handle().clone(),
        vfs.gate(),
        None,
        4,
    );

    // Every generation in this chain is rsfs, so the root inode number
    // is the same constant throughout and name-based create/unlink
    // pairs are self-contained across swaps: a file created before the
    // blackout is carried by the tree walk, and its unlink lands by
    // name on whichever generation is current.
    let root = vfs.resolve("/").unwrap();
    let stop = Arc::new(AtomicBool::new(false));
    let mut clients = Vec::new();
    for t in 0..8u64 {
        let ring = Arc::clone(&ring);
        let stop = Arc::clone(&stop);
        clients.push(thread::spawn(move || {
            let (mut ops, mut failed) = (0u64, 0u64);
            let mut i = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let name = format!("t{t}c{i}");
                for op in [
                    BatchOp::Create {
                        dir: root,
                        name: name.clone(),
                    },
                    BatchOp::Unlink { dir: root, name },
                ] {
                    match ring.submit(op) {
                        Ok(ticket) => {
                            if ring.wait(ticket).reply.result().is_err() {
                                failed += 1;
                            }
                            ops += 1;
                        }
                        // Ring shut down — only happens after `stop`.
                        Err(_) => return (ops, failed),
                    }
                }
                i += 1;
            }
            (ops, failed)
        }));
    }

    std::thread::sleep(std::time::Duration::from_millis(30));
    let r1 = Migrator::new(&vfs, &registry)
        .with_ring(&ring)
        .swap("rsfs2", make_rsfs())
        .unwrap();
    let r2 = Migrator::new(&vfs, &registry)
        .with_ring(&ring)
        .swap("rsfs3", make_rsfs())
        .unwrap();
    std::thread::sleep(std::time::Duration::from_millis(30));
    stop.store(true, Ordering::Relaxed);

    let (mut ops, mut failed) = (0u64, 0u64);
    for c in clients {
        let (o, f) = c.join().unwrap();
        ops += o;
        failed += f;
    }
    for r in pool {
        r.join();
    }
    assert!(ops > 0, "clients made progress");
    assert_eq!(failed, 0, "zero failed ops across both swaps");
    let stats = ring.stats();
    assert_eq!(
        stats.submitted, stats.completed,
        "no SQE lost or duplicated"
    );
    assert_eq!(vfs.fs_handle().swap_count(), 2);
    assert!(r1.blackout_ns > 0 && r2.blackout_ns > 0);
    let violations = locks.violations();
    assert!(violations.is_empty(), "lockdep findings: {violations:?}");
}

/// Crash-contract regression across a swap: a power cut right after the
/// switch must recover the pre-swap durable prefix from the *new*
/// device. The migrator quiesces the incoming generation before the
/// registry replace, so the fsync watermark established on the old
/// generation is honored by the new one from the first instant it is
/// authoritative. Without that step (the pre-protocol swap), the new
/// generation in async-commit mode holds the whole transferred tree in
/// volatile state and this test's worst-case crash image recovers an
/// empty file system — below the watermark.
#[test]
fn crash_after_swap_recovers_the_pre_swap_durable_prefix() {
    let (legacy, _ctx) = make_cext4();
    let registry = Registry::new();
    registry
        .register::<dyn FileSystem>(FS_INTERFACE, "cext4", legacy)
        .unwrap();
    let vfs = Vfs::mount(&registry).unwrap();

    // Workload with a durability point: models[watermark] is the state
    // fsync promised to keep.
    let mut models = vec![vfs.abstraction()];
    for i in 0..6 {
        vfs.create(&format!("/f{i}")).unwrap();
        vfs.write_file(&format!("/f{i}"), 0, format!("payload {i}").as_bytes())
            .unwrap();
        models.push(vfs.abstraction());
    }
    vfs.fsync_path("/f5").unwrap();
    let watermark = models.len() - 1;

    // Incoming generation: rsfs in async-commit mode on a device with a
    // volatile write cache — the adversarial setup, since nothing it
    // does is durable until something commits and flushes.
    let ram = Arc::new(RamDisk::new(4096));
    {
        let dev: Arc<dyn BlockDevice> = Arc::clone(&ram) as Arc<dyn BlockDevice>;
        Rsfs::mkfs(&dev, 256, 64).unwrap();
    }
    let crashdev = Arc::new(CrashDevice::new(Arc::clone(&ram)));
    let next: Arc<dyn FileSystem> = Arc::new(
        Rsfs::mount(
            Arc::clone(&crashdev) as Arc<dyn BlockDevice>,
            JournalMode::Async,
        )
        .unwrap(),
    );

    Migrator::new(&vfs, &registry).swap("rsfs", next).unwrap();

    // Power cut, worst case: the volatile cache is lost entirely. What
    // the backing store holds is exactly what the handoff made durable.
    let img = ram.snapshot();
    let scratch = Arc::new(RamDisk::new(4096));
    scratch.restore(&img).unwrap();
    let recovered = Rsfs::mount(scratch as Arc<dyn BlockDevice>, JournalMode::Async).unwrap();
    let m = fs_abstraction(&recovered);
    judge_with_floor(&models, watermark, &m)
        .expect("post-swap crash image must hold the pre-swap durable prefix");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Under live writers, the abstraction captured at the moment the
    /// old generation quiesces equals the new generation's abstraction
    /// when transfer completes: state transfer is exact, and the gate
    /// excludes every mutation from the handoff window.
    #[test]
    fn live_writer_abstractions_agree_across_the_swap(seed in 0u64..64) {
        let (legacy, _ctx) = make_cext4();
        let registry = Arc::new(Registry::new());
        registry
            .register::<dyn FileSystem>(FS_INTERFACE, "cext4", legacy)
            .unwrap();
        let vfs = Arc::new(Vfs::mount(&registry).unwrap());
        vfs.mkdir("/w").unwrap();

        let stop = Arc::new(AtomicBool::new(false));
        let mut writers = Vec::new();
        for t in 0..3u64 {
            let vfs = Arc::clone(&vfs);
            let stop = Arc::clone(&stop);
            writers.push(thread::spawn(move || {
                let mut x = seed.wrapping_mul(0x9e3779b97f4a7c15) ^ (t << 17) | 1;
                let mut failed = 0u64;
                let mut i = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    let f = format!("/w/t{t}f{}", i % 8);
                    let r = if i < 8 {
                        vfs.create(&f).map(|_| ())
                    } else if x % 2 == 0 {
                        vfs.write_file(&f, 0, &x.to_le_bytes()).map(|_| ())
                    } else {
                        vfs.read_file(&f).map(|_| ())
                    };
                    if r.is_err() && i >= 8 {
                        failed += 1;
                    }
                    i += 1;
                }
                failed
            }));
        }
        std::thread::sleep(std::time::Duration::from_millis(5));

        let next = make_rsfs();
        let next_probe = Arc::clone(&next);
        let old_probe = vfs.fs_handle().get();
        let mut at_quiesce = None;
        let mut at_transfer = None;
        let report = Migrator::new(&vfs, &registry)
            .with_observer(|phase| match phase {
                // The gate is closed in both phases: the old generation
                // is frozen, so these two walks see the exact state the
                // transfer moved.
                MigratePhase::Quiesced => at_quiesce = Some(fs_abstraction(&*old_probe)),
                MigratePhase::Transferred => at_transfer = Some(fs_abstraction(&*next_probe)),
                MigratePhase::Resumed => {}
            })
            .swap("rsfs", next)
            .unwrap();

        std::thread::sleep(std::time::Duration::from_millis(5));
        stop.store(true, Ordering::Relaxed);
        let mut failed = 0u64;
        for w in writers {
            failed += w.join().unwrap();
        }

        prop_assert_eq!(failed, 0, "writers saw failed ops across the swap");
        let a = at_quiesce.expect("observer saw Quiesced");
        let b = at_transfer.expect("observer saw Transferred");
        prop_assert_eq!(a, b, "pre/post-swap abstractions diverged");
        prop_assert!(report.copied_files >= 8);
    }
}

#[test]
fn failed_swap_aborts_cleanly_and_the_workload_continues() {
    let (legacy, _ctx) = make_cext4();
    let registry = Registry::new();
    registry
        .register::<dyn FileSystem>(FS_INTERFACE, "cext4", legacy)
        .unwrap();
    let vfs = Vfs::mount(&registry).unwrap();
    vfs.create("/keep").unwrap();
    vfs.write_file("/keep", 0, b"still here").unwrap();

    // A target that already holds a colliding name makes the transfer
    // fail mid-walk; the migrator must abort with the old generation
    // authoritative and the gate reopened.
    let next = make_rsfs();
    next.create(next.root_ino(), "keep").unwrap();
    assert!(Migrator::new(&vfs, &registry).swap("rsfs", next).is_err());

    assert_eq!(vfs.fs_handle().impl_name(), "cext4");
    assert_eq!(vfs.fs_handle().swap_count(), 0);
    assert_eq!(vfs.read_file("/keep").unwrap(), b"still here");
    vfs.create("/after-abort").unwrap();
    assert!(vfs.stat("/after-abort").is_ok());
}

#[test]
fn promoted_copy_tree_matches_the_old_behavior() {
    // `copy_tree` used to live in this file; the promoted version must
    // still move a nested tree faithfully and now also return the inode
    // map the migrator rekeys caches with.
    let (legacy, _ctx) = make_cext4();
    let a = legacy;
    a.mkdir(a.root_ino(), "d").unwrap();
    let d = a.lookup(a.root_ino(), "d").unwrap();
    let f = a.create(d, "f").unwrap();
    a.write(f, 0, b"deep").unwrap();
    let b = make_rsfs();
    let map = copy_tree(&*a, &*b, a.root_ino(), b.root_ino()).unwrap();
    assert_eq!(map.len(), 3, "root, d, f");
    let nd = b.lookup(b.root_ino(), "d").unwrap();
    let nf = b.lookup(nd, "f").unwrap();
    assert_eq!(map.get(&d), Some(&nd));
    assert_eq!(map.get(&f), Some(&nf));
    let mut buf = [0u8; 4];
    assert_eq!(b.read(nf, 0, &mut buf).unwrap(), 4);
    assert_eq!(&buf, b"deep");
}
