//! Integration: the typed submission/completion ring over the VFS.
//!
//! Four contracts under test:
//!
//! - **one body per op** — the same op sequence applied per call and
//!   through ring batches gives equal replies and equal final trees;
//! - **ownership round-trip** — every buffer a client moves into the
//!   ring comes back exactly once in its CQE, on success and on failure
//!   (including a poisoned/EROFS journal), across arbitrary submitter
//!   interleavings;
//! - **structural backpressure** — a slow disk blocks *submitters* on a
//!   full ring (and stalls reactor admission on journal log pressure)
//!   instead of ballooning the running transaction, with lockdep clean
//!   across the reactor path;
//! - **CQE crash contract** — ops acknowledged through the ring obey the
//!   token-order-prefix + fsync-watermark contract: recovery lands on a
//!   chunk-boundary prefix of the submission order that includes
//!   everything an fsync SQE covered.
//!
//! Plus **no lost wakeups**: the ring signals a condvar only when its
//! parked count says someone waits there, so every client of a
//! many-client, shallow-ring stress must finish under a watchdog, and a
//! shutdown must release every parked submitter and waiter.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use proptest::prelude::*;
use safer_kernel::core::spec::crash::{crash_images, judge_with_floor, CrashPolicy};
use safer_kernel::core::spec::Refines;
use safer_kernel::fs_safe::layout::MAX_FILE_SIZE;
use safer_kernel::fs_safe::rsfs::{JournalMode, Rsfs};
use safer_kernel::ksim::block::{
    BlockDevice, CrashDevice, DeviceStats, DiskFaultConfig, FaultyDisk, PendingWrite, RamDisk,
    BLOCK_SIZE,
};
use safer_kernel::ksim::errno::KResult;
use safer_kernel::vfs::modular::{BatchOp, BatchReply, FileSystem};
use safer_kernel::vfs::ring::{Ring, RingReactor, RingThrottle};
use safer_kernel::vfs::MemFs;

fn mount_over_faulty(blocks: u64, mode: JournalMode) -> (Arc<FaultyDisk<Arc<RamDisk>>>, Arc<Rsfs>) {
    let ram = Arc::new(RamDisk::new(blocks));
    let faulty = Arc::new(FaultyDisk::new(
        Arc::clone(&ram),
        DiskFaultConfig::default(),
        7,
    ));
    let dev: Arc<dyn BlockDevice> = Arc::clone(&faulty) as Arc<dyn BlockDevice>;
    Rsfs::mkfs(&dev, 128, 64).unwrap();
    let fs = Arc::new(Rsfs::mount(dev, mode).unwrap());
    (faulty, fs)
}

/// A write buffer tagged so the round-trip check can match submissions
/// to returns: client id and sequence in the first bytes.
fn tagged_buf(client: u64, seq: u64) -> Vec<u8> {
    let mut b = vec![0u8; 512];
    b[0..8].copy_from_slice(&client.to_le_bytes());
    b[8..16].copy_from_slice(&seq.to_le_bytes());
    b
}

fn buf_tag(b: &[u8]) -> (u64, u64) {
    (
        u64::from_le_bytes(b[0..8].try_into().unwrap()),
        u64::from_le_bytes(b[8..16].try_into().unwrap()),
    )
}

/// Deterministic single-reactor check: a mixed batch through the rsfs
/// batch-staging path matches per-call semantics, and a failing op rolls
/// back alone while its neighbors commit.
#[test]
fn mixed_batch_matches_per_call_semantics() {
    let (_faulty, fs) = mount_over_faulty(2048, JournalMode::Async);
    let root = fs.root_ino();
    let ring = Arc::new(Ring::new(fs.lock_registry(), 32));

    let t1 = ring
        .submit(BatchOp::Create {
            dir: root,
            name: "a".into(),
        })
        .unwrap();
    // Duplicate create: must fail with EEXIST *inside* the batch without
    // poisoning its neighbors.
    let t2 = ring
        .submit(BatchOp::Create {
            dir: root,
            name: "a".into(),
        })
        .unwrap();
    let t3 = ring
        .submit(BatchOp::Create {
            dir: root,
            name: "b".into(),
        })
        .unwrap();
    assert_eq!(ring.drain_once(&*fs), 3);

    let ino_a = match ring.wait(t1).reply {
        BatchReply::Create(Ok(ino)) => ino,
        other => panic!("create a: {other:?}"),
    };
    assert!(matches!(
        ring.wait(t2).reply,
        BatchReply::Create(Err(safer_kernel::ksim::errno::Errno::EEXIST))
    ));
    assert!(matches!(ring.wait(t3).reply, BatchReply::Create(Ok(_))));

    // Write then read in the same batch: the read must observe the
    // write through the chunk overlay.
    let tw = ring
        .submit(BatchOp::Write {
            ino: ino_a,
            off: 0,
            data: b"through the overlay".to_vec(),
        })
        .unwrap();
    let tr = ring
        .submit(BatchOp::Read {
            ino: ino_a,
            off: 0,
            buf: vec![0u8; 19],
        })
        .unwrap();
    let tu = ring
        .submit(BatchOp::Unlink {
            dir: root,
            name: "b".into(),
        })
        .unwrap();
    assert_eq!(ring.drain_once(&*fs), 3);
    match ring.wait(tw).reply {
        BatchReply::Write { result, buf } => {
            assert_eq!(result, Ok(19));
            assert_eq!(&buf, b"through the overlay");
        }
        other => panic!("write: {other:?}"),
    }
    match ring.wait(tr).reply {
        BatchReply::Read { result, buf } => {
            assert_eq!(result, Ok(19));
            assert_eq!(&buf, b"through the overlay");
        }
        other => panic!("read: {other:?}"),
    }
    assert!(matches!(ring.wait(tu).reply, BatchReply::Unlink(Ok(()))));

    // State agrees with the per-call view.
    assert_eq!(fs.lookup(root, "a"), Ok(ino_a));
    assert!(fs.lookup(root, "b").is_err());
    assert_eq!(fs.getattr(ino_a).unwrap().size, 19);
    assert!(fs.lock_registry().violations().is_empty());
}

/// Names for the per-call vs batch check: a pool of four, so creates
/// collide, then invalid ones (`EINVAL`, `ENAMETOOLONG`).
fn eq_name(i: usize) -> String {
    match i {
        0..=11 => ["a", "b", "c", "d"][i % 4].to_string(),
        12 => String::new(),
        13 => "x/y".into(),
        14 => "..".into(),
        _ => "n".repeat(300),
    }
}

/// Offsets for the per-call vs batch check; the last is past the
/// maximum file size (`EFBIG`, even for an empty write).
const EQ_OFFS: [u64; 5] = [0, 100, 4000, 5000, MAX_FILE_SIZE + 1];

/// One op of the per-call vs batch check, as plain data so the same
/// sequence can be replayed on two mounts.
#[derive(Debug, Clone)]
enum EqOp {
    Create {
        dir: u64,
        name: usize,
    },
    Unlink {
        dir: u64,
        name: usize,
    },
    Write {
        ino: u64,
        off: usize,
        len: usize,
        fill: u8,
    },
    Read {
        ino: u64,
        off: usize,
        len: usize,
    },
    Fsync {
        ino: u64,
    },
}

impl EqOp {
    fn to_batch(&self) -> BatchOp {
        match *self {
            EqOp::Create { dir, name } => BatchOp::Create {
                dir,
                name: eq_name(name),
            },
            EqOp::Unlink { dir, name } => BatchOp::Unlink {
                dir,
                name: eq_name(name),
            },
            EqOp::Write {
                ino,
                off,
                len,
                fill,
            } => BatchOp::Write {
                ino,
                off: EQ_OFFS[off],
                data: vec![fill; [0, 1, 300, 5000][len]],
            },
            EqOp::Read { ino, off, len } => BatchOp::Read {
                ino,
                off: EQ_OFFS[off],
                buf: vec![0u8; [0, 64, 6000][len]],
            },
            EqOp::Fsync { ino } => BatchOp::Fsync { ino },
        }
    }
}

/// Ops aimed at every error arm: directories and files as parents
/// (`ENOTDIR`), the mkdir'd directory as a file (`EISDIR`), never- or
/// no-longer-allocated inode numbers (`ENOENT`), and out-of-range ones
/// (`EINVAL`).
fn eq_op() -> impl Strategy<Value = EqOp> {
    (
        0u8..11,
        prop_oneof![Just(1u64), Just(2), 0u64..8],
        prop_oneof![
            Just(3u64),
            Just(4),
            2u64..8,
            2u64..8,
            2u64..8,
            Just(0),
            Just(500)
        ],
        0usize..16,
        0usize..EQ_OFFS.len(),
        0usize..4,
        any::<u8>(),
    )
        .prop_map(|(kind, dir, ino, name, off, len, fill)| match kind {
            0..=2 => EqOp::Create { dir, name },
            3..=4 => EqOp::Unlink { dir, name },
            5..=7 => EqOp::Write {
                ino,
                off,
                len,
                fill,
            },
            8..=9 => EqOp::Read {
                ino,
                off,
                len: len % 3,
            },
            _ => EqOp::Fsync { ino },
        })
}

/// Applies `op` through the per-call `FileSystem` methods, shaped as the
/// reply the batch path gives.
fn apply_per_call(fs: &Rsfs, op: BatchOp) -> BatchReply {
    match op {
        BatchOp::Create { dir, name } => BatchReply::Create(fs.create(dir, &name)),
        BatchOp::Unlink { dir, name } => BatchReply::Unlink(fs.unlink(dir, &name)),
        BatchOp::Write { ino, off, data } => BatchReply::Write {
            result: fs.write(ino, off, &data),
            buf: data,
        },
        BatchOp::Read { ino, off, mut buf } => {
            let result = fs.read(ino, off, &mut buf);
            BatchReply::Read { result, buf }
        }
        BatchOp::Fsync { ino } => BatchReply::Fsync(fs.fsync(ino)),
    }
}

/// A fresh mount with a directory `d` (inode 2) and a file `f` (inode 3)
/// under the root.
fn eq_mount(mode: JournalMode) -> Arc<Rsfs> {
    let (_faulty, fs) = mount_over_faulty(2048, mode);
    assert_eq!(fs.mkdir(1, "d"), Ok(2));
    assert_eq!(fs.create(1, "f"), Ok(3));
    assert_eq!(fs.write(3, 0, b"seed"), Ok(4));
    fs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The batch path and the per-call path are one set of op bodies:
    /// the same op sequence, applied per call on one mount and cut into
    /// ring batches at random points on another, gives equal replies
    /// (results and read bytes) and equal final trees, under every
    /// journal mode.
    #[test]
    fn batch_and_per_call_paths_agree(
        ops in prop::collection::vec(eq_op(), 1..48),
        cuts in prop::collection::vec(any::<bool>(), 48),
    ) {
        for mode in [JournalMode::None, JournalMode::PerOp, JournalMode::Async] {
            let per_call = eq_mount(mode);
            let batched = eq_mount(mode);
            let ring = Ring::new(batched.lock_registry(), 64);
            // (op index, ticket, per-call reply) of the open batch.
            let mut open = Vec::new();
            for (i, op) in ops.iter().enumerate() {
                let want = apply_per_call(&per_call, op.to_batch());
                open.push((i, ring.submit(op.to_batch()).unwrap(), want));
                if cuts[i] || i + 1 == ops.len() {
                    prop_assert_eq!(ring.drain_once(&*batched), open.len());
                    for (j, t, want) in open.drain(..) {
                        let got = ring.wait(t).reply;
                        prop_assert_eq!(
                            format!("{got:?}"),
                            format!("{want:?}"),
                            "{:?} op {}: {:?}", mode, j, ops[j]
                        );
                    }
                }
            }
            prop_assert_eq!(batched.abstraction(), per_call.abstraction(), "{:?}", mode);
            prop_assert!(batched.lock_registry().violations().is_empty());
        }
    }
}

/// A poisoned (aborted, EROFS) journal fails CQEs cleanly: buffers come
/// back, nothing is acknowledged, and later submissions are refused.
/// PerOp mode makes the chunk commit itself touch the device, so the
/// armed fault aborts the journal mid-chunk and every already-staged
/// reply in the chunk must be rewritten to the commit error.
#[test]
fn poisoned_journal_fails_cqes_without_leaking_buffers() {
    let (faulty, fs) = mount_over_faulty(2048, JournalMode::PerOp);
    let root = fs.root_ino();
    let ring = Arc::new(Ring::new(fs.lock_registry(), 64));
    let ino = fs.create(root, "f").unwrap();
    fs.sync().unwrap();

    // Fail the next device write: the first journal record write aborts
    // the journal, and every op staged behind it is refused with EROFS.
    faulty.fail_nth_write(0);

    let mut tickets = Vec::new();
    for seq in 0..8u64 {
        tickets.push(
            ring.submit(BatchOp::Write {
                ino,
                off: seq * 512,
                data: tagged_buf(1, seq),
            })
            .unwrap(),
        );
    }
    let tf = ring.submit(BatchOp::Fsync { ino }).unwrap();
    ring.drain_once(&*fs);

    // The fsync hit the armed write fault: it must report the failure.
    assert!(
        matches!(ring.wait(tf).reply, BatchReply::Fsync(Err(_))),
        "fsync over a failing journal record must not claim durability"
    );
    // Every write buffer comes back, tagged as submitted; results are
    // failures (the chunk never became durable) — no silent acks, no
    // leaked buffers.
    let mut seen = Vec::new();
    for t in tickets {
        match ring.wait(t).reply {
            BatchReply::Write { result, buf } => {
                assert!(result.is_err(), "acked a write in an aborted chunk");
                seen.push(buf_tag(&buf));
            }
            other => panic!("write reply: {other:?}"),
        }
    }
    seen.sort_unstable();
    assert_eq!(seen, (0..8u64).map(|s| (1, s)).collect::<Vec<_>>());

    // Later submissions against the sticky-EROFS journal also fail
    // cleanly with the buffer returned.
    let t = ring
        .submit(BatchOp::Write {
            ino,
            off: 0,
            data: tagged_buf(2, 0),
        })
        .unwrap();
    ring.drain_once(&*fs);
    match ring.wait(t).reply {
        BatchReply::Write { result, buf } => {
            assert!(result.is_err());
            assert_eq!(buf_tag(&buf), (2, 0));
        }
        other => panic!("reply: {other:?}"),
    }
    assert!(fs.journal().unwrap().is_aborted());
    assert!(fs.lock_registry().violations().is_empty());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Ownership round-trip under arbitrary interleavings: N submitter
    /// threads race a reactor; every buffer moved into the ring returns
    /// exactly once, whether its op succeeded, failed individually, or
    /// was refused by a journal that aborted mid-run.
    #[test]
    fn buffer_ownership_round_trips_exactly_once(
        clients in 2usize..5,
        ops_per_client in 4u64..16,
        depth in prop_oneof![Just(1usize), Just(8), Just(32)],
        fail_write_at in prop_oneof![Just(None), (5u64..40).prop_map(Some)],
    ) {
        let (faulty, fs) = mount_over_faulty(4096, JournalMode::Async);
        let root = fs.root_ino();
        let ring = Arc::new(Ring::new(fs.lock_registry(), depth));
        let fs_dyn: Arc<dyn FileSystem> = Arc::clone(&fs) as Arc<dyn FileSystem>;
        let relieve_fs = Arc::clone(&fs);
        let pressure_fs = Arc::clone(&fs);
        let reactor = RingReactor::spawn_pool(
            Arc::clone(&ring),
            fs_dyn,
            Some(Arc::new(RingThrottle {
                pressure: Box::new(move || {
                    pressure_fs.journal().map_or(0.0, |j| j.log_pressure())
                }),
                relieve: Box::new(move || {
                    let _ = relieve_fs.commit_running();
                    let _ = relieve_fs.checkpoint(usize::MAX);
                }),
                threshold: 0.5,
            })),
            1,
        );
        if let Some(n) = fail_write_at {
            faulty.fail_nth_write(n);
        }

        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let ring = Arc::clone(&ring);
                std::thread::spawn(move || {
                    let client = c as u64;
                    let mut returned = Vec::new();
                    let mut read_bufs = 0usize;
                    let mut tickets = Vec::new();
                    for seq in 0..ops_per_client {
                        // A mixed, per-client-deterministic op stream.
                        match seq % 5 {
                            0 => tickets.push(ring.submit(BatchOp::Create {
                                dir: 1,
                                name: format!("c{client}s{seq}"),
                            })),
                            1 | 2 => tickets.push(ring.submit(BatchOp::Write {
                                ino: 1 + 1, // may or may not exist; failure is fine
                                off: (client * ops_per_client + seq) * 512,
                                data: tagged_buf(client, seq),
                            })),
                            3 => tickets.push(ring.submit(BatchOp::Read {
                                ino: 2,
                                off: 0,
                                buf: vec![0u8; 256],
                            })),
                            _ => tickets.push(ring.submit(BatchOp::Fsync { ino: 1 })),
                        }
                    }
                    for t in tickets {
                        let t = t.expect("ring not shut down during the run");
                        match ring.wait(t).reply {
                            BatchReply::Write { buf, .. } => returned.push(buf_tag(&buf)),
                            BatchReply::Read { buf, .. } => {
                                assert_eq!(buf.len(), 256, "read buffer resized");
                                read_bufs += 1;
                            }
                            _ => {}
                        }
                    }
                    (client, returned, read_bufs)
                })
            })
            .collect();

        let mut all_returned = Vec::new();
        let mut total_reads = 0usize;
        for h in handles {
            let (client, returned, reads) = h.join().unwrap();
            // This client's write buffers: one per write it submitted,
            // each tagged with its own id — exactly-once, no swaps.
            let mut expect: Vec<(u64, u64)> = (0..ops_per_client)
                .filter(|s| s % 5 == 1 || s % 5 == 2)
                .map(|s| (client, s))
                .collect();
            let mut got = returned.clone();
            expect.sort_unstable();
            got.sort_unstable();
            prop_assert_eq!(got, expect, "client {} buffer set", client);
            all_returned.extend(returned);
            total_reads += reads;
        }
        let writes_per_client =
            (0..ops_per_client).filter(|s| s % 5 == 1 || s % 5 == 2).count();
        let reads_per_client = (0..ops_per_client).filter(|s| s % 5 == 3).count();
        prop_assert_eq!(all_returned.len(), clients * writes_per_client);
        prop_assert_eq!(total_reads, clients * reads_per_client);

        reactor.into_iter().for_each(RingReactor::join);
        let stats = ring.stats();
        prop_assert_eq!(stats.submitted, stats.completed, "every SQE got a CQE");
        prop_assert!(fs.lock_registry().violations().is_empty(),
            "lockdep: {:?}", fs.lock_registry().violations());
        let _ = root;
    }
}

/// Structural backpressure: with a slow disk behind the journal, client
/// threads block on the full ring and the reactor stalls admission on
/// log pressure — the running transaction stays bounded — while lockdep
/// stays clean across the whole submit/reactor/relieve path.
#[test]
fn slow_disk_backpressure_blocks_submitters() {
    let ram = Arc::new(RamDisk::new(4096));
    let faulty = Arc::new(FaultyDisk::new(
        Arc::clone(&ram),
        DiskFaultConfig::default(),
        11,
    ));
    let dev: Arc<dyn BlockDevice> = Arc::clone(&faulty) as Arc<dyn BlockDevice>;
    Rsfs::mkfs(&dev, 128, 64).unwrap();
    let fs = Arc::new(Rsfs::mount(dev, JournalMode::Async).unwrap());
    let root = fs.root_ino();
    let ino = fs.create(root, "pressure").unwrap();
    fs.sync().unwrap();
    // Now make every device write slow: journal records and checkpoints
    // crawl, so relief takes real time and admission must stall.
    faulty.set_config(DiskFaultConfig {
        write_delay_ns: 100_000,
        ..DiskFaultConfig::default()
    });

    let ring = Arc::new(Ring::new(fs.lock_registry(), 8));
    let fs_dyn: Arc<dyn FileSystem> = Arc::clone(&fs) as Arc<dyn FileSystem>;
    let relieve_fs = Arc::clone(&fs);
    let pressure_fs = Arc::clone(&fs);
    let reactor = RingReactor::spawn_pool(
        Arc::clone(&ring),
        fs_dyn,
        Some(Arc::new(RingThrottle {
            pressure: Box::new(move || pressure_fs.journal().map_or(0.0, |j| j.log_pressure())),
            relieve: Box::new(move || {
                let _ = relieve_fs.commit_running();
                let _ = relieve_fs.checkpoint(usize::MAX);
            }),
            threshold: 0.25,
        })),
        1,
    );

    let done = Arc::new(AtomicBool::new(false));
    // Sample journal pressure while the clients run: the running
    // transaction must stay bounded by the stage-path ceiling — growth
    // lands in *blocked submitters*, not staged state.
    let sampler = {
        let fs = Arc::clone(&fs);
        let done = Arc::clone(&done);
        std::thread::spawn(move || {
            let mut max_pressure = 0.0f32;
            while !done.load(Ordering::Relaxed) {
                if let Some(j) = fs.journal() {
                    max_pressure = max_pressure.max(j.log_pressure());
                }
                std::thread::sleep(std::time::Duration::from_micros(200));
            }
            max_pressure
        })
    };

    let clients: Vec<_> = (0..6u64)
        .map(|c| {
            let ring = Arc::clone(&ring);
            std::thread::spawn(move || {
                let mut tickets = Vec::new();
                for seq in 0..24u64 {
                    tickets.push(
                        ring.submit(BatchOp::Write {
                            ino: 2,
                            off: ((c * 24 + seq) % 32) * 512,
                            data: tagged_buf(c, seq),
                        })
                        .unwrap(),
                    );
                }
                for t in tickets {
                    let cqe = ring.wait(t);
                    assert!(matches!(cqe.reply, BatchReply::Write { .. }));
                }
            })
        })
        .collect();
    for c in clients {
        c.join().unwrap();
    }
    done.store(true, Ordering::Relaxed);
    let max_pressure = sampler.join().unwrap();
    reactor.into_iter().for_each(RingReactor::join);

    let stats = ring.stats();
    assert!(
        stats.sq_full_blocks > 0,
        "144 submissions over a depth-8 ring on a slow disk never blocked a submitter"
    );
    assert!(
        stats.throttle_stalls > 0,
        "log pressure never stalled reactor admission"
    );
    // The stage path force-commits at fraction 1.0, so staged state is
    // structurally bounded: pressure can never run away past the ceiling.
    assert!(
        max_pressure <= 1.25,
        "running transaction outgrew its ceiling: {max_pressure}"
    );
    assert!(
        fs.lock_registry().violations().is_empty(),
        "lockdep: {:?}",
        fs.lock_registry().violations()
    );
    let _ = ino;
}

/// Captures the pending-write set at each flush barrier (local copy of
/// the crash_recovery harness tap).
struct Tap {
    inner: Arc<CrashDevice<Arc<RamDisk>>>,
    intervals: Mutex<Vec<Vec<PendingWrite>>>,
}

impl BlockDevice for Tap {
    fn num_blocks(&self) -> u64 {
        self.inner.num_blocks()
    }
    fn block_size(&self) -> usize {
        self.inner.block_size()
    }
    fn read_block(&self, blkno: u64, buf: &mut [u8]) -> KResult<()> {
        self.inner.read_block(blkno, buf)
    }
    fn write_block(&self, blkno: u64, buf: &[u8]) -> KResult<()> {
        self.inner.write_block(blkno, buf)
    }
    fn flush(&self) -> KResult<()> {
        self.intervals.lock().push(self.inner.pending_writes());
        self.inner.flush()
    }
    fn stats(&self) -> DeviceStats {
        self.inner.stats()
    }
}

/// CQE crash contract: drive the async_fsync watermark schedule entirely
/// through ring SQEs (fsync as an SQE, acting as the durability point)
/// and enumerate crash images. Every recovered state must be a valid
/// prefix of the submission order, and images cut at or after the fsync
/// barrier must include everything the fsync covered.
#[test]
fn ring_acked_ops_obey_the_fsync_watermark_contract() {
    let ram = Arc::new(RamDisk::new(2048));
    let crash = Arc::new(CrashDevice::new(Arc::clone(&ram)));
    let tap = Arc::new(Tap {
        inner: crash,
        intervals: Mutex::new(Vec::new()),
    });
    let tap_dyn: Arc<dyn BlockDevice> = Arc::clone(&tap) as Arc<dyn BlockDevice>;
    Rsfs::mkfs(&tap_dyn, 128, 64).unwrap();
    let fs = Rsfs::mount(tap_dyn, JournalMode::Async).unwrap();
    let root = fs.root_ino();
    let ring = Ring::new(fs.lock_registry(), 32);

    let base = ram.snapshot();
    tap.intervals.lock().clear();

    // Chunked submission order: [create f1, write f1] — fsync SQE —
    // [create f2, write f2] — sync. Each drained batch chunk is one
    // journal member, so recovered states are chunk-boundary prefixes.
    let mut models = vec![fs.abstraction()];
    let t1 = ring
        .submit(BatchOp::Create {
            dir: root,
            name: "f1".into(),
        })
        .unwrap();
    let f1_data = b"must survive the ring fsync".to_vec();
    let t2 = ring
        .submit(BatchOp::Write {
            ino: 2,
            off: 0,
            data: f1_data.clone(),
        })
        .unwrap();
    ring.drain_once(&fs);
    let f1 = match ring.wait(t1).reply {
        BatchReply::Create(Ok(ino)) => ino,
        other => panic!("create f1: {other:?}"),
    };
    assert!(matches!(
        ring.wait(t2).reply,
        BatchReply::Write { result: Ok(_), .. }
    ));
    models.push(fs.abstraction());
    let watermark = models.len() - 1;
    assert!(
        tap.intervals.lock().is_empty(),
        "ring staging reached the device before the durability point"
    );

    // The durability point, as an SQE.
    let tf = ring.submit(BatchOp::Fsync { ino: f1 }).unwrap();
    ring.drain_once(&fs);
    assert!(matches!(ring.wait(tf).reply, BatchReply::Fsync(Ok(()))));
    let n_fsync = tap.intervals.lock().len();
    assert!(n_fsync > 0, "fsync SQE must flush the running transaction");

    let t3 = ring
        .submit(BatchOp::Create {
            dir: root,
            name: "f2".into(),
        })
        .unwrap();
    let t4 = ring
        .submit(BatchOp::Write {
            ino: 3,
            off: 0,
            data: b"after the barrier".to_vec(),
        })
        .unwrap();
    ring.drain_once(&fs);
    assert!(matches!(ring.wait(t3).reply, BatchReply::Create(Ok(_))));
    assert!(matches!(
        ring.wait(t4).reply,
        BatchReply::Write { result: Ok(_), .. }
    ));
    models.push(fs.abstraction());
    fs.sync().unwrap();

    let mut intervals = tap.intervals.lock().clone();
    intervals.push(tap.inner.pending_writes());

    let mut checked = 0;
    let mut post_fsync = 0;
    let mut failures = Vec::new();
    let mut applied = base;
    for (idx, interval) in intervals.iter().enumerate() {
        let floor = if idx >= n_fsync { watermark } else { 0 };
        for (i, img) in crash_images(&applied, interval, BLOCK_SIZE, CrashPolicy::Subsets)
            .into_iter()
            .enumerate()
        {
            checked += 1;
            if floor > 0 {
                post_fsync += 1;
            }
            let scratch = Arc::new(RamDisk::new(2048));
            scratch.restore(&img).unwrap();
            let scratch_dyn: Arc<dyn BlockDevice> = scratch;
            match Rsfs::mount(Arc::clone(&scratch_dyn), JournalMode::Async) {
                Ok(recovered) => {
                    let m = recovered.abstraction();
                    if let Err(why) = judge_with_floor(&models, floor, &m) {
                        failures.push(format!("interval {idx} image {i}: {why}"));
                    }
                    match safer_kernel::fs_safe::fsck(&*scratch_dyn) {
                        Ok(r) if r.is_clean() => {}
                        Ok(r) => failures
                            .push(format!("interval {idx} image {i}: fsck {:?}", r.findings)),
                        Err(e) => {
                            failures.push(format!("interval {idx} image {i}: fsck failed {e}"))
                        }
                    }
                }
                Err(e) => failures.push(format!("interval {idx} image {i}: mount failed {e}")),
            }
        }
        for w in interval {
            let off = w.blkno as usize * BLOCK_SIZE;
            applied[off..off + BLOCK_SIZE].copy_from_slice(&w.data);
        }
    }
    assert!(checked >= 10, "checked {checked}");
    assert!(post_fsync >= 5, "post-fsync images {post_fsync}");
    assert!(failures.is_empty(), "{failures:?}");
}

/// Runs `f` on its own thread and fails if it has not returned within
/// `secs`: a lost wakeup shows up as a hang, not as a wrong answer. A
/// panic inside `f` is passed on as it is.
fn under_watchdog<T: Send + 'static>(
    secs: u64,
    what: &str,
    f: impl FnOnce() -> T + Send + 'static,
) -> T {
    let (tx, rx) = std::sync::mpsc::channel();
    let worker = std::thread::spawn(move || {
        let out = f();
        let _ = tx.send(());
        out
    });
    if let Err(std::sync::mpsc::RecvTimeoutError::Timeout) =
        rx.recv_timeout(std::time::Duration::from_secs(secs))
    {
        panic!("{what}: no progress in {secs} s (lost wakeup?)");
    }
    worker
        .join()
        .unwrap_or_else(|p| std::panic::resume_unwind(p))
}

/// 32 clients each run 2k submit-then-wait round trips through a
/// depth-1 and a depth-4 ring drained by 2 reactors. At these depths
/// every submitter, reactor and waiter parks over and over, so a wake
/// the parked counts skipped by mistake strands a thread.
#[test]
fn shallow_rings_lose_no_wakeups() {
    for depth in [1, 4] {
        let fs = Arc::new(MemFs::new());
        let ino = fs.create(fs.root_ino(), "f").unwrap();
        let ring = Arc::new(Ring::new(
            &safer_kernel::ksim::lock::LockRegistry::new_disabled(),
            depth,
        ));
        let fs_dyn: Arc<dyn FileSystem> = fs;
        let reactors = RingReactor::spawn_pool(Arc::clone(&ring), fs_dyn, None, 2);
        let r = Arc::clone(&ring);
        under_watchdog(120, &format!("depth {depth}"), move || {
            let clients: Vec<_> = (0..32u64)
                .map(|c| {
                    let ring = Arc::clone(&r);
                    std::thread::spawn(move || {
                        for seq in 0..2000u64 {
                            let t = ring
                                .submit(BatchOp::Write {
                                    ino,
                                    off: c * 512,
                                    data: tagged_buf(c, seq),
                                })
                                .unwrap();
                            match ring.wait(t).reply {
                                BatchReply::Write { result: Ok(_), buf } => {
                                    assert_eq!(buf_tag(&buf), (c, seq));
                                }
                                other => panic!("client {c} op {seq}: {other:?}"),
                            }
                        }
                    })
                })
                .collect();
            for c in clients {
                c.join().unwrap();
            }
        });
        drop(reactors);
        let stats = ring.stats();
        assert_eq!(stats.submitted, 64_000);
        assert_eq!(stats.completed, 64_000);
    }
}

/// Shutdown while submitters are parked on a full queue and clients are
/// parked waiting for CQEs: every parked submitter gets its op back, the
/// residual queue still completes, and every buffer returns exactly once.
#[test]
fn shutdown_releases_parked_submitters_and_waiters_with_their_buffers() {
    let fs = MemFs::new();
    let ino = fs.create(fs.root_ino(), "f").unwrap();
    let ring = Arc::new(Ring::new(
        &safer_kernel::ksim::lock::LockRegistry::new_disabled(),
        2,
    ));
    let clients: Vec<_> = (0..6u64)
        .map(|c| {
            let ring = Arc::clone(&ring);
            std::thread::spawn(move || {
                let op = BatchOp::Write {
                    ino,
                    off: c * 512,
                    data: tagged_buf(c, 0),
                };
                match ring.submit(op) {
                    Ok(t) => match ring.wait(t).reply {
                        BatchReply::Write { buf, .. } => buf_tag(&buf),
                        other => panic!("client {c}: {other:?}"),
                    },
                    Err(BatchOp::Write { data, .. }) => buf_tag(&data),
                    Err(other) => panic!("client {c}: refused {other:?}"),
                }
            })
        })
        .collect();
    // Two submissions fill the queue and the other four park on it.
    // The pause gives the two accepted clients time to park in `wait`;
    // the checks below hold whether or not they got there first.
    while ring.stats().sq_full_blocks < 4 {
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    std::thread::sleep(std::time::Duration::from_millis(20));
    ring.shutdown();
    let r = Arc::clone(&ring);
    let mut tags = under_watchdog(60, "shutdown", move || {
        assert_eq!(r.drain_once(&fs), 2, "accepted SQEs still complete");
        clients
            .into_iter()
            .map(|c| c.join().unwrap())
            .collect::<Vec<_>>()
    });
    tags.sort_unstable();
    assert_eq!(tags, (0..6u64).map(|c| (c, 0)).collect::<Vec<_>>());
    let stats = ring.stats();
    assert_eq!((stats.submitted, stats.completed), (2, 2));
}
