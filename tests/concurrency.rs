//! Integration: shared-memory concurrency (§4.4's "Concurrent Verified
//! Components").
//!
//! The paper notes that layering concurrency on top of a single-threaded
//! verification can be done safely — e.g. "outsourcing a side-effect-free
//! computation by passing a reference to an immutable data structure is a
//! meta-logically safe extension of a sequential verification result."
//! These tests exercise exactly that pattern: many threads hammer the file
//! systems and the stacks; afterwards the *sequentially verified*
//! refinement relation is checked on the quiesced state.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;

use safer_kernel::core::spec::Refines;
use safer_kernel::fs_legacy::{cext4_ops, BugKnobs, Cext4};
use safer_kernel::fs_safe::rsfs::{JournalMode, Rsfs};
use safer_kernel::ksim::block::{BlockDevice, RamDisk};
use safer_kernel::legacy::LegacyCtx;
use safer_kernel::vfs::modular::{fs_abstraction, FileSystem};
use safer_kernel::vfs::shim::LegacyFsAdapter;
use safer_kernel::vfs::spec::FsModel;

fn concurrent_workload(fs: Arc<dyn FileSystem>, threads: usize, files_per_thread: usize) {
    let mut handles = Vec::new();
    for t in 0..threads {
        let fs = Arc::clone(&fs);
        handles.push(thread::spawn(move || {
            let root = fs.root_ino();
            for i in 0..files_per_thread {
                let name = format!("t{t}f{i}");
                let ino = fs.create(root, &name).expect("create");
                let payload = vec![(t * 16 + i) as u8; 500 + i * 37];
                fs.write(ino, 0, &payload).expect("write");
                let mut buf = vec![0u8; payload.len()];
                let n = fs.read(ino, 0, &mut buf).expect("read");
                assert_eq!(&buf[..n], &payload[..], "t{t} f{i} read-back");
                if i % 3 == 0 {
                    fs.unlink(root, &name).expect("unlink");
                }
            }
        }));
    }
    for h in handles {
        h.join().expect("worker");
    }
}

/// The expected quiesced model: every thread's surviving files.
fn expected_model(threads: usize, files_per_thread: usize) -> FsModel {
    let mut model = FsModel::new();
    for t in 0..threads {
        for i in 0..files_per_thread {
            if i % 3 == 0 {
                continue;
            }
            let path = format!("/t{t}f{i}");
            let payload = vec![(t * 16 + i) as u8; 500 + i * 37];
            model = model
                .create(&path)
                .unwrap()
                .write(&path, 0, &payload)
                .unwrap();
        }
    }
    model
}

#[test]
fn rsfs_survives_concurrent_writers_and_still_refines() {
    let dev: Arc<dyn BlockDevice> = Arc::new(RamDisk::new(8192));
    Rsfs::mkfs(&dev, 256, 64).unwrap();
    let fs = Arc::new(Rsfs::mount(Arc::clone(&dev), JournalMode::PerOp).unwrap());
    concurrent_workload(Arc::clone(&fs) as Arc<dyn FileSystem>, 4, 12);
    assert_eq!(fs.abstraction(), expected_model(4, 12));
    assert!(
        fs.lock_registry().violations().is_empty(),
        "no discipline violations under concurrency"
    );
    // And the on-disk state is structurally sound.
    fs.sync().unwrap();
    let report = safer_kernel::fs_safe::fsck(&*dev).unwrap();
    assert!(report.is_clean(), "{:?}", report.findings);
}

/// The storage-hot-path stress test: eight writers hammer the journaled
/// fs, then every layer's accounting must reconcile — the quiesced state
/// refines the model (no lost updates), per-shard cache stats sum to the
/// aggregate, the journal batched at least as tightly as it committed,
/// and the checkpointed image is fsck-clean.
#[test]
fn rsfs_eight_thread_stress_stats_consistent_no_lost_updates() {
    const THREADS: usize = 8;
    const FILES: usize = 16;
    let dev: Arc<dyn BlockDevice> = Arc::new(RamDisk::new(16384));
    Rsfs::mkfs(&dev, 512, 128).unwrap();
    let fs = Arc::new(Rsfs::mount(Arc::clone(&dev), JournalMode::PerOp).unwrap());
    concurrent_workload(Arc::clone(&fs) as Arc<dyn FileSystem>, THREADS, FILES);

    // No lost updates: the quiesced state is exactly the model.
    assert_eq!(fs.abstraction(), expected_model(THREADS, FILES));
    assert!(fs.lock_registry().violations().is_empty());

    // Stats consistency: shard counters sum to the aggregate snapshot
    // (taken quiesced, so no in-flight increments can skew it).
    let total = fs.cache().stats();
    let per_shard = fs.cache().shard_stats();
    assert!(per_shard.len() > 1, "cache is striped");
    assert_eq!(per_shard.iter().map(|s| s.hits).sum::<u64>(), total.hits);
    assert_eq!(
        per_shard.iter().map(|s| s.misses).sum::<u64>(),
        total.misses
    );
    assert_eq!(
        per_shard.iter().map(|s| s.writebacks).sum::<u64>(),
        total.writebacks
    );
    assert_eq!(
        per_shard.iter().map(|s| s.evictions).sum::<u64>(),
        total.evictions
    );
    assert!(total.hits + total.misses > 0);
    assert!(
        fs.cache().validate_all().is_empty(),
        "buffer flags stay legal"
    );

    // Journal accounting: every mutating op committed; group commit never
    // needs more batches than commits; everything journaled got sequenced.
    let js = fs.journal().unwrap().stats();
    let min_ops = (THREADS * FILES * 2) as u64; // create + write, at least
    assert!(js.commits >= min_ops, "commits {} < {min_ops}", js.commits);
    assert!(js.batches <= js.commits);
    assert!(js.blocks_journaled >= js.commits);

    // Quiesce fully and check the on-disk image.
    fs.sync().unwrap();
    assert_eq!(fs.journal().unwrap().pending_checkpoints(), 0);
    let report = safer_kernel::fs_safe::fsck(&*dev).unwrap();
    assert!(report.is_clean(), "{:?}", report.findings);
}

/// Journaled blocks reach home only through the checkpoint, even while
/// another thread keeps syncing the cache. One thread creates, writes
/// and unlinks files for about a second; a second loops `sync_all`,
/// whose every pass races the publishes and pin releases. A publish that
/// dirtied a buffer before pinning it, or a writeback that decided in
/// one critical section and snapshotted in another, let that pass write
/// a journaled image home (under `PerOp`, before its record was even
/// durable); any such write shows in `writebacks`.
#[test]
fn concurrent_sync_all_never_writes_journaled_homes() {
    use std::sync::atomic::AtomicBool;
    use std::time::{Duration, Instant};
    for mode in [JournalMode::PerOp, JournalMode::Async] {
        let dev: Arc<dyn BlockDevice> = Arc::new(RamDisk::new(1024));
        Rsfs::mkfs(&dev, 128, 64).unwrap();
        let fs = Arc::new(Rsfs::mount(dev, mode).unwrap());
        let done = Arc::new(AtomicBool::new(false));
        let syncer = {
            let (fs, done) = (Arc::clone(&fs), Arc::clone(&done));
            thread::spawn(move || {
                while !done.load(Ordering::Relaxed) {
                    fs.cache().sync_all().unwrap();
                }
            })
        };
        let root = fs.root_ino();
        let until = Instant::now() + Duration::from_secs(1);
        let mut ops = 0u64;
        while Instant::now() < until {
            let name = format!("f{}", ops % 16);
            let ino = fs.create(root, &name).unwrap();
            assert_eq!(fs.write(ino, 0, b"journal").unwrap(), 7);
            fs.unlink(root, &name).unwrap();
            ops += 1;
        }
        done.store(true, Ordering::Relaxed);
        syncer.join().unwrap();
        assert_eq!(
            fs.cache().stats().writebacks,
            0,
            "{mode:?}: cache writeback wrote a journaled home ({ops} op triples)"
        );
    }
}

/// Eight threads increment disjoint byte slots of the same shared blocks
/// through a deliberately tiny cache, so hits, misses, evictions and
/// writebacks all interleave. Dirtiness transfers to in-flight IO at
/// snapshot time — if any update were lost the final counts would be
/// short.
#[test]
fn buffer_cache_concurrent_increments_lose_no_updates() {
    const THREADS: usize = 8;
    const INCS: usize = 300;
    const HOT_BLOCKS: u64 = 16;
    let dev: Arc<dyn BlockDevice> = Arc::new(RamDisk::new(64));
    let cache = Arc::new(safer_kernel::ksim::buffer::BufferCache::with_shards(
        Arc::clone(&dev),
        8, // capacity < working set: constant eviction + writeback churn
        4,
    ));
    let mut handles = Vec::new();
    for t in 0..THREADS {
        let cache = Arc::clone(&cache);
        handles.push(thread::spawn(move || {
            for i in 0..INCS {
                let blk = (i as u64 * 3) % HOT_BLOCKS;
                let buf = cache.bread(blk).expect("bread");
                buf.write(|d| d[t] = d[t].wrapping_add(1));
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    cache.sync_all().unwrap();

    // Replay the visit sequence to get the expected per-block count.
    let mut expected = [0u8; HOT_BLOCKS as usize];
    for i in 0..INCS {
        expected[((i as u64 * 3) % HOT_BLOCKS) as usize] += 1;
    }
    for blk in 0..HOT_BLOCKS {
        let mut out = vec![0u8; 4096];
        dev.read_block(blk, &mut out).unwrap();
        for (t, slot) in out.iter().take(THREADS).enumerate() {
            assert_eq!(
                *slot, expected[blk as usize],
                "block {blk} slot {t}: lost update"
            );
        }
    }
    let s = cache.stats();
    assert!(s.evictions > 0, "the cache actually churned");
    assert!(s.writebacks > 0);
}

#[test]
fn cext4_survives_concurrent_writers_and_still_refines() {
    let dev: Arc<dyn BlockDevice> = Arc::new(RamDisk::new(8192));
    Cext4::mkfs(&dev, 256).unwrap();
    let ctx = LegacyCtx::new();
    let fs = Arc::new(Cext4::mount(dev, ctx.clone(), Arc::new(BugKnobs::none())).unwrap());
    let adapter: Arc<dyn FileSystem> =
        Arc::new(LegacyFsAdapter::new(Arc::new(cext4_ops(fs)), ctx.clone()));
    concurrent_workload(Arc::clone(&adapter), 4, 12);
    assert_eq!(fs_abstraction(&*adapter), expected_model(4, 12));
    // The legacy idiom's unlocked i_size updates *are* recorded under
    // concurrency — the §4.3 exposure the safe version doesn't have.
    ctx.import_lock_violations("concurrency-test");
    assert!(
        ctx.ledger.count(safer_kernel::legacy::BugClass::DataRace) > 0,
        "the maybe-protected i_size shows up under load"
    );
}

/// The migration interleaving test: seeded concurrent writers hammer the
/// legacy generation through the VFS, the implementation is hot-swapped to
/// the safe generation, and readers verify every file — with lockdep live
/// on every registry in the system. At the end there must be zero
/// *ordering* findings (inversions, transitive cycles, held-across-I/O,
/// same-class rank breaks) anywhere. The legacy idiom's unlocked-`i_size`
/// accesses are expected and excluded: they are the §4.3 exposure, not an
/// ordering bug.
#[test]
fn hot_swap_under_load_is_ordering_clean_across_generations() {
    use safer_kernel::core::modularity::Registry;
    use safer_kernel::ksim::lock::{LockRegistry, Violation};
    use safer_kernel::vfs::path::{Vfs, FS_INTERFACE};

    fn ordering_findings(reg: &LockRegistry) -> Vec<Violation> {
        reg.violations()
            .into_iter()
            .filter(|v| !matches!(v, Violation::UnlockedFieldAccess { .. }))
            .collect()
    }

    for seed in [3u64, 17, 4242] {
        // Mount the legacy generation behind the VFS, lockdep enabled at
        // every layer: the VFS dcache registry, cext4's context registry,
        // and (after the swap) rsfs's internal registry.
        let dev: Arc<dyn BlockDevice> = Arc::new(RamDisk::new(8192));
        Cext4::mkfs(&dev, 512).unwrap();
        let ctx = LegacyCtx::new();
        let cext4 = Arc::new(Cext4::mount(dev, ctx.clone(), Arc::new(BugKnobs::none())).unwrap());
        let legacy: Arc<dyn FileSystem> = Arc::new(LegacyFsAdapter::new(
            Arc::new(cext4_ops(cext4)),
            ctx.clone(),
        ));
        let registry = Registry::new();
        registry
            .register::<dyn FileSystem>(FS_INTERFACE, "cext4", legacy)
            .unwrap();
        let vfs_locks = LockRegistry::new();
        let vfs = Arc::new(Vfs::mount_with_lockdep(&registry, Arc::clone(&vfs_locks)).unwrap());

        let payload = move |t: u64, i: u64| -> Vec<u8> {
            vec![
                (seed + t * 8 + i) as u8;
                64 + ((seed as usize).wrapping_mul(37) + i as usize * 53) % 300
            ]
        };

        // Phase 1: seeded writers interleave on the legacy generation.
        // Each thread visits its files in a seed-dependent xorshift order,
        // so different seeds exercise different interleavings.
        let mut writers = Vec::new();
        for t in 0..4u64 {
            let vfs = Arc::clone(&vfs);
            writers.push(thread::spawn(move || {
                let mut x = seed ^ (t << 32) | 1;
                let mut left: Vec<u64> = (0..8).collect();
                while !left.is_empty() {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    let i = left.swap_remove((x % left.len() as u64) as usize);
                    let path = format!("/t{t}f{i}");
                    vfs.create(&path).expect("create");
                    vfs.write_file(&path, 0, &payload(t, i)).expect("write");
                }
            }));
        }
        for w in writers {
            w.join().unwrap();
        }

        // Hot swap: copy the quiesced tree into the safe generation.
        let dev2: Arc<dyn BlockDevice> = Arc::new(RamDisk::new(8192));
        Rsfs::mkfs(&dev2, 512, 64).unwrap();
        let rsfs = Arc::new(Rsfs::mount(dev2, JournalMode::PerOp).unwrap());
        let current = vfs.fs_handle().get();
        let next: Arc<dyn FileSystem> = Arc::clone(&rsfs) as Arc<dyn FileSystem>;
        for entry in current.readdir(current.root_ino()).unwrap() {
            let attr = current.getattr(entry.ino).unwrap();
            let mut data = vec![0u8; attr.size as usize];
            let n = current.read(entry.ino, 0, &mut data).unwrap();
            data.truncate(n);
            let nf = next.create(next.root_ino(), &entry.name).unwrap();
            next.write(nf, 0, &data).unwrap();
        }
        registry
            .replace::<dyn FileSystem>(FS_INTERFACE, "rsfs", next)
            .unwrap();
        vfs.dcache().clear();

        // Phase 2: concurrent readers verify every migrated file on the
        // safe generation (and write a little more to keep locks hot).
        let mut readers = Vec::new();
        for t in 0..4u64 {
            let vfs = Arc::clone(&vfs);
            readers.push(thread::spawn(move || {
                for i in 0..8u64 {
                    let got = vfs.read_file(&format!("/t{t}f{i}")).expect("read");
                    assert_eq!(got, payload(t, i), "t{t}f{i} survived the migration");
                }
                let extra = format!("/t{t}g0");
                vfs.create(&extra).expect("create post-swap");
                vfs.write_file(&extra, 0, &payload(t, 99))
                    .expect("write post-swap");
            }));
        }
        for r in readers {
            r.join().unwrap();
        }

        // Lockdep observed real classes at every layer...
        assert!(vfs_locks.class_count() > 0, "dcache classes registered");
        assert!(
            rsfs.lock_registry().class_count() > 0,
            "rsfs classes registered"
        );
        // ...and none of them produced an ordering finding.
        assert!(
            ordering_findings(&vfs_locks).is_empty(),
            "vfs layer (seed {seed}): {:?}",
            ordering_findings(&vfs_locks)
        );
        assert!(
            ordering_findings(rsfs.lock_registry()).is_empty(),
            "rsfs (seed {seed}): {:?}",
            ordering_findings(rsfs.lock_registry())
        );
        assert!(
            ordering_findings(&ctx.locks).is_empty(),
            "cext4 ctx (seed {seed}): {:?}",
            ordering_findings(&ctx.locks)
        );
    }
}

#[test]
fn concurrent_readers_share_immutable_state() {
    // The paper's "meta-logically safe extension": one writer quiesces,
    // then many readers fan out over shared immutable state.
    let dev: Arc<dyn BlockDevice> = Arc::new(RamDisk::new(4096));
    Rsfs::mkfs(&dev, 128, 64).unwrap();
    let fs = Arc::new(Rsfs::mount(dev, JournalMode::None).unwrap());
    let root = fs.root_ino();
    let ino = fs.create(root, "shared").unwrap();
    let payload: Vec<u8> = (0..20_000).map(|i| (i % 251) as u8).collect();
    fs.write(ino, 0, &payload).unwrap();

    let total_reads = Arc::new(AtomicU64::new(0));
    let mut handles = Vec::new();
    for _ in 0..8 {
        let fs = Arc::clone(&fs);
        let payload = payload.clone();
        let total = Arc::clone(&total_reads);
        handles.push(thread::spawn(move || {
            for _ in 0..50 {
                let mut buf = vec![0u8; payload.len()];
                let n = fs.read(ino, 0, &mut buf).expect("read");
                assert_eq!(&buf[..n], &payload[..]);
                total.fetch_add(1, Ordering::Relaxed);
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(total_reads.load(Ordering::Relaxed), 400);
}

#[test]
fn netstack_sessions_from_multiple_threads() {
    use safer_kernel::core::modularity::Registry;
    use safer_kernel::ksim::time::SimClock;
    use safer_kernel::netstack::modular_stack::{register_families, ModularStack};
    use safer_kernel::netstack::wire::{Side, Wire};

    let registry = Arc::new(Registry::new());
    register_families(&registry).unwrap();
    let wire = Arc::new(Wire::new());
    let clock = Arc::new(SimClock::new());
    let a = Arc::new(ModularStack::new(
        Arc::clone(&registry),
        Side::A,
        wire.clone(),
        Arc::clone(&clock),
    ));
    let b = Arc::new(ModularStack::new(registry, Side::B, wire, clock));

    // One listener; the accept queue absorbs all four concurrent
    // handshakes and hands back a per-connection socket for each.
    let server = b.socket("tcp", 80).unwrap();
    b.listen_backlog(server, 8).unwrap();

    // Clients connect and send from worker threads; a pump thread drives
    // both stacks.
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let pump = {
        let a = Arc::clone(&a);
        let b = Arc::clone(&b);
        let stop = Arc::clone(&stop);
        thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                a.pump().unwrap();
                b.pump().unwrap();
                thread::yield_now();
            }
        })
    };
    let mut workers = Vec::new();
    for t in 0..4u16 {
        let a = Arc::clone(&a);
        workers.push(thread::spawn(move || {
            let c = a.socket("tcp", 4000 + t).unwrap();
            a.connect(c, 80).unwrap();
            // Retry sends until the handshake completes.
            let msg = format!("worker {t}");
            for _ in 0..10_000 {
                if a.send(c, 80, msg.as_bytes()).is_ok() {
                    return;
                }
                thread::yield_now();
            }
            panic!("worker {t} never connected");
        }));
    }
    for w in workers {
        w.join().unwrap();
    }
    // Let the last data packets drain, accepting children as they land.
    let mut conns: Vec<u64> = Vec::new();
    for _ in 0..100 {
        a.pump().unwrap();
        b.pump().unwrap();
        while let Some(c) = b.accept(server).unwrap() {
            conns.push(c);
        }
    }
    stop.store(true, Ordering::Relaxed);
    pump.join().unwrap();

    assert_eq!(conns.len(), 4, "every worker's handshake was accepted");
    let mut got: Vec<String> = conns
        .iter()
        .map(|&c| String::from_utf8(b.recv(c).unwrap()).unwrap())
        .collect();
    got.sort();
    assert_eq!(got, vec!["worker 0", "worker 1", "worker 2", "worker 3"]);
}
