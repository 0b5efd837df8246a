//! Soak: a long randomized workload across the whole stack, with the
//! implementation hot-swapped back and forth *mid-workload* while the
//! model keeps tracking — the paper's incremental world in one test.

mod scenarios;

use std::sync::Arc;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use safer_kernel::core::modularity::Registry;
use safer_kernel::core::spec::Refines;
use safer_kernel::fs_legacy::{cext4_ops, BugKnobs, Cext4};
use safer_kernel::fs_safe::rsfs::{JournalMode, Rsfs};
use safer_kernel::ksim::block::{BlockDevice, RamDisk};
use safer_kernel::legacy::LegacyCtx;
use safer_kernel::vfs::migrate::Migrator;
use safer_kernel::vfs::modular::FileSystem;
use safer_kernel::vfs::path::{Vfs, FS_INTERFACE};
use safer_kernel::vfs::shim::LegacyFsAdapter;
use safer_kernel::vfs::spec::FsModel;

fn make_cext4() -> Arc<dyn FileSystem> {
    let dev: Arc<dyn BlockDevice> = Arc::new(RamDisk::new(8192));
    Cext4::mkfs(&dev, 512).unwrap();
    let ctx = LegacyCtx::new();
    let fs = Arc::new(Cext4::mount(dev, ctx.clone(), Arc::new(BugKnobs::none())).unwrap());
    Arc::new(LegacyFsAdapter::new(Arc::new(cext4_ops(fs)), ctx))
}

fn make_rsfs() -> Arc<dyn FileSystem> {
    let dev: Arc<dyn BlockDevice> = Arc::new(RamDisk::new(8192));
    Rsfs::mkfs(&dev, 512, 64).unwrap();
    Arc::new(Rsfs::mount(dev, JournalMode::PerOp).unwrap())
}

/// One random op against both the VFS and the model; results must agree.
fn random_op(vfs: &Vfs, model: FsModel, rng: &mut StdRng) -> FsModel {
    let dirs = ["", "/d0", "/d1"];
    let dir = dirs[rng.gen_range(0..dirs.len())];
    let name = format!("f{}", rng.gen_range(0..12));
    let path = format!("{dir}/{name}");
    let norm = safer_kernel::vfs::spec::normalize(&path).unwrap();
    match rng.gen_range(0..7) {
        0 => {
            let sys = vfs.create(&path);
            let spec = model.create(&norm);
            assert_eq!(sys.is_ok(), spec.is_ok(), "create {path}");
            spec.unwrap_or(model)
        }
        1 => {
            let data: Vec<u8> = (0..rng.gen_range(1..400)).map(|_| rng.gen()).collect();
            let off = rng.gen_range(0..2000u64);
            let sys = vfs.write_file(&path, off, &data);
            let spec = model.write(&norm, off, &data);
            assert_eq!(sys.is_ok(), spec.is_ok(), "write {path}");
            spec.unwrap_or(model)
        }
        2 => {
            let sys = vfs.unlink(&path);
            let spec = model.unlink(&norm);
            assert_eq!(sys.is_ok(), spec.is_ok(), "unlink {path}");
            spec.unwrap_or(model)
        }
        3 => {
            let d = format!("/d{}", rng.gen_range(0..2));
            let sys = vfs.mkdir(&d);
            let spec = model.mkdir(&d);
            assert_eq!(sys.is_ok(), spec.is_ok(), "mkdir {d}");
            spec.unwrap_or(model)
        }
        4 => {
            let to = format!(
                "{}/g{}",
                dirs[rng.gen_range(0..dirs.len())],
                rng.gen_range(0..12)
            );
            let to_norm = safer_kernel::vfs::spec::normalize(&to).unwrap();
            let sys = vfs.rename(&path, &to);
            let spec = model.rename(&norm, &to_norm);
            assert_eq!(sys.is_ok(), spec.is_ok(), "rename {path} -> {to}");
            spec.unwrap_or(model)
        }
        5 => {
            let size = rng.gen_range(0..3000u64);
            let sys = vfs.truncate(&path, size);
            let spec = model.truncate(&norm, size);
            assert_eq!(sys.is_ok(), spec.is_ok(), "truncate {path}");
            spec.unwrap_or(model)
        }
        _ => {
            let sys = vfs.read_file(&path);
            let spec = model.read(&norm, 0, usize::MAX / 2);
            assert_eq!(sys.is_ok(), spec.is_ok(), "read {path}");
            if let (Ok(a), Ok(b)) = (&sys, &spec) {
                assert_eq!(a, b, "read {path} content");
            }
            model
        }
    }
}

/// Async-commit soak: four op threads stage into the running transaction
/// while a live kupdate-style timer thread concurrently drives
/// `commit_running` + `checkpoint_all`, with the file system's own lockdep
/// registry watching every acquisition. The timer path must add no
/// acquires-after edges that close a cycle — the same guarantee the
/// per-op path already proves — and the final tree must be exactly the
/// surviving files.
#[test]
fn async_commit_soak_with_live_timer_is_lockdep_clean() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::thread;

    let dev: Arc<dyn BlockDevice> = Arc::new(RamDisk::new(8192));
    Rsfs::mkfs(&dev, 512, 64).unwrap();
    let fs = Arc::new(Rsfs::mount(dev, JournalMode::Async).unwrap());
    let locks = Arc::clone(fs.lock_registry());

    // The ksim workqueue runs inline under a SimClock and cannot race, so
    // the soak uses a real thread as the kupdate stand-in: its lock
    // acquisitions genuinely interleave with op staging and fsync.
    let stop = Arc::new(AtomicBool::new(false));
    let timer = {
        let fs = Arc::clone(&fs);
        let stop = Arc::clone(&stop);
        thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                fs.commit_running().unwrap();
                if let Some(j) = fs.journal() {
                    j.checkpoint_all().unwrap();
                }
                thread::yield_now();
            }
        })
    };

    let mut workers = Vec::new();
    for t in 0..4u32 {
        let fs = Arc::clone(&fs);
        workers.push(thread::spawn(move || {
            let root = fs.root_ino();
            for i in 0..60u32 {
                let name = format!("t{t}-f{i}");
                let ino = fs.create(root, &name).unwrap();
                fs.write(ino, 0, format!("payload {t}/{i}").as_bytes())
                    .unwrap();
                if i % 8 == 7 {
                    fs.fsync(ino).unwrap();
                }
                if i % 16 == 15 {
                    fs.unlink(root, &name).unwrap();
                }
            }
        }));
    }
    for w in workers {
        w.join().unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    timer.join().unwrap();
    fs.sync().unwrap();

    // Each thread created 60 files and unlinked 3 (i = 15, 31, 47).
    assert_eq!(fs.readdir(fs.root_ino()).unwrap().len(), 4 * 57);
    let stats = fs.journal().unwrap().stats();
    assert!(stats.stages > 0, "ops must stage, not sync-commit");
    assert!(stats.batches > 0, "the timer/fsync path must commit");
    assert!(
        locks.violations().is_empty(),
        "async commit soak must be lockdep-clean: {:?}",
        locks.violations()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// 300 random ops with 3 hot swaps in the middle; the tree, the model,
    /// and the implementation agree at every step and at the end.
    #[test]
    fn soak_with_mid_workload_migrations(seed in any::<u64>()) {
        let legacy = make_cext4();
        let registry = Registry::new();
        registry
            .register::<dyn FileSystem>(FS_INTERFACE, "cext4", Arc::clone(&legacy))
            .unwrap();
        // Lockdep rides along on the VFS layer (the mounted file systems
        // run their own enabled registries internally).
        let locks = safer_kernel::ksim::lock::LockRegistry::new();
        let vfs = Vfs::mount_with_lockdep(&registry, Arc::clone(&locks)).unwrap();
        let mut model = FsModel::new();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut on_safe = false;

        for step in 0..300 {
            model = random_op(&vfs, model, &mut rng);
            if step % 100 == 99 {
                // Migrate to the other generation, mid-workload, through
                // the live-replacement protocol.
                let next: Arc<dyn FileSystem> = if on_safe { make_cext4() } else { make_rsfs() };
                let impl_name: &'static str = if on_safe { "cext4" } else { "rsfs" };
                Migrator::new(&vfs, &registry).swap(impl_name, next).unwrap();
                on_safe = !on_safe;
                prop_assert_eq!(vfs.abstraction(), model.clone(), "post-swap step {}", step);
            }
        }
        model.check_invariant().expect("model invariant");
        prop_assert_eq!(vfs.abstraction(), model);
        prop_assert_eq!(vfs.fs_handle().swap_count(), 3);
        prop_assert!(
            locks.violations().is_empty(),
            "migration soak must be lockdep-clean: {:?}",
            locks.violations()
        );
    }
}

/// Ring soak, the CI configuration: 8 clients push a mixed
/// create/write/read/fsync/unlink stream through one typed ring whose
/// reactor feeds an async-mode rsfs over a `FaultyDisk` injecting
/// transient write/flush EIO — with the lockdep registry live across
/// the whole submit/reactor/journal path. Ops are allowed to fail (the
/// journal may even abort to EROFS mid-run); what must hold is the
/// structural contract: every accepted SQE completes, every moved-in
/// buffer comes back, and the run produces zero lock-order findings.
#[test]
fn ring_soak_over_transient_eio_is_lockdep_clean() {
    use safer_kernel::ksim::block::{DiskFaultConfig, FaultyDisk};
    use safer_kernel::vfs::modular::{BatchOp, BatchReply};
    use safer_kernel::vfs::ring::{Ring, RingReactor};

    const CLIENTS: u64 = 8;
    const OPS_EACH: u64 = 200;
    let ram = Arc::new(RamDisk::new(8192));
    let faulty = Arc::new(FaultyDisk::new(
        Arc::clone(&ram),
        DiskFaultConfig::default(),
        0x51_50_4B,
    ));
    let dev: Arc<dyn BlockDevice> = Arc::clone(&faulty) as Arc<dyn BlockDevice>;
    Rsfs::mkfs(&dev, 512, 64).unwrap();
    let fs = Arc::new(Rsfs::mount(dev, JournalMode::Async).unwrap());
    let root = fs.root_ino();
    let bases: Vec<u64> = (0..CLIENTS)
        .map(|c| fs.create(root, &format!("base{c}")).unwrap())
        .collect();
    fs.sync().unwrap();
    // Faults go live only after the formatted, mounted state exists.
    faulty.set_config(DiskFaultConfig {
        write_eio: 0.002,
        flush_eio: 0.001,
        ..DiskFaultConfig::default()
    });

    let ring = Arc::new(Ring::new(fs.lock_registry(), 64));
    let throttle = Arc::new(Rsfs::ring_throttle(&fs, 0.5));
    let reactor = RingReactor::spawn_pool(Arc::clone(&ring), fs.clone(), Some(throttle), 1);

    let handles: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let ring = Arc::clone(&ring);
            let base = bases[c as usize];
            std::thread::spawn(move || {
                let mut write_bufs = 0u64;
                let mut returned = 0u64;
                for k in 0..OPS_EACH {
                    let op = match k % 8 {
                        0 => BatchOp::Create {
                            dir: 1,
                            name: format!("c{c}k{k}"),
                        },
                        4 => BatchOp::Unlink {
                            dir: 1,
                            name: format!("c{c}k{}", k - 4),
                        },
                        7 => BatchOp::Fsync { ino: base },
                        2 | 6 => BatchOp::Read {
                            ino: base,
                            off: (k % 4) * 1024,
                            buf: vec![0u8; 1024],
                        },
                        _ => {
                            write_bufs += 1;
                            BatchOp::Write {
                                ino: base,
                                off: (k % 4) * 1024,
                                data: vec![c as u8; 1024],
                            }
                        }
                    };
                    let ticket = ring.submit(op).expect("ring live during soak");
                    // Window 1: the soak is about fault interleavings,
                    // not throughput.
                    match ring.wait(ticket).reply {
                        BatchReply::Write { buf, .. } => {
                            assert_eq!(buf.len(), 1024, "write buffer came back resized");
                            returned += 1;
                        }
                        BatchReply::Read { buf, .. } => {
                            assert_eq!(buf.len(), 1024, "read buffer came back resized");
                        }
                        _ => {}
                    }
                }
                assert_eq!(returned, write_bufs, "a write buffer leaked");
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    reactor.into_iter().for_each(RingReactor::join);

    let stats = ring.stats();
    assert_eq!(
        stats.submitted, stats.completed,
        "accepted SQEs without CQEs"
    );
    assert_eq!(stats.submitted, CLIENTS * OPS_EACH);
    let violations = fs.lock_registry().violations();
    assert!(violations.is_empty(), "lockdep findings: {violations:#?}");
}
