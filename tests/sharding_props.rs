//! Property-based contracts for the sharded op lock: striping must be
//! invisible. The sharded build and the global-lock build (one stripe)
//! run the same seeded workload and must produce identical abstract
//! state before and after recovery; the sharded build must preserve the
//! async fsync-watermark crash contract; and multi-inode operations must
//! keep acquiring their stripes in ascending index order (lockdep's
//! same-class rank check turns a reverted sort into a recorded
//! violation, not a flaky deadlock).

use std::sync::Arc;

use proptest::prelude::*;
use safer_kernel::core::spec::crash::{barrier_images, judge_with_floor, CrashPolicy};
use safer_kernel::core::spec::Refines;
use safer_kernel::fs_safe::rsfs::{JournalMode, Rsfs, DEFAULT_OP_STRIPES};
use safer_kernel::ksim::block::{BlockDevice, CrashDevice, RamDisk, BLOCK_SIZE};
use safer_kernel::ksim::errno::KResult;
use safer_kernel::ksim::lock::{LockRegistry, Violation};
use safer_kernel::vfs::modular::FileSystem;

/// One step of the seeded workload. File indices map to a small fixed
/// universe split across two directories, so rename crosses directories
/// (two op-lock stripes) about half the time and name collisions are
/// frequent.
#[derive(Debug, Clone)]
enum Op {
    Create(u8),
    Write(u8, u8, u16),
    Unlink(u8),
    Rename(u8, u8),
    Fsync(u8),
    Sync,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let file = 0u8..6;
    prop_oneof![
        file.clone().prop_map(Op::Create),
        (file.clone(), any::<u8>(), 0u16..3000).prop_map(|(f, b, o)| Op::Write(f, b, o)),
        file.clone().prop_map(Op::Unlink),
        (file.clone(), 0u8..6).prop_map(|(a, b)| Op::Rename(a, b)),
        file.prop_map(Op::Fsync),
        Just(Op::Sync),
    ]
}

/// Workspace: root plus two directories; file `i` lives in `dirs[i % 2]`.
struct Space {
    fs: Rsfs,
    dirs: [u64; 2],
}

impl Space {
    fn dir(&self, f: u8) -> u64 {
        self.dirs[(f % 2) as usize]
    }

    fn name(f: u8) -> String {
        format!("f{f}")
    }

    /// Applies one op, returning a device-independent outcome summary so
    /// two builds can be compared step by step.
    fn apply(&self, op: &Op) -> Result<(), i32> {
        let as_code = |r: KResult<()>| r.map_err(|e| e as i32);
        match op {
            Op::Create(f) => as_code(self.fs.create(self.dir(*f), &Self::name(*f)).map(|_| ())),
            Op::Write(f, byte, off) => {
                let ino = match self.fs.lookup(self.dir(*f), &Self::name(*f)) {
                    Ok(i) => i,
                    Err(e) => return Err(e as i32),
                };
                as_code(
                    self.fs
                        .write(ino, u64::from(*off), &[*byte; 96])
                        .map(|_| ()),
                )
            }
            Op::Unlink(f) => as_code(self.fs.unlink(self.dir(*f), &Self::name(*f))),
            Op::Rename(a, b) => as_code(self.fs.rename(
                self.dir(*a),
                &Self::name(*a),
                self.dir(*b),
                &Self::name(*b),
            )),
            Op::Fsync(f) => {
                let ino = match self.fs.lookup(self.dir(*f), &Self::name(*f)) {
                    Ok(i) => i,
                    Err(e) => return Err(e as i32),
                };
                as_code(self.fs.fsync(ino))
            }
            Op::Sync => as_code(self.fs.sync()),
        }
    }
}

fn mount_space(dev: Arc<dyn BlockDevice>, stripes: usize) -> Space {
    Rsfs::mkfs(&dev, 256, 64).unwrap();
    let fs = Rsfs::mount_with_stripes(
        Arc::clone(&dev),
        JournalMode::Async,
        LockRegistry::new(),
        stripes,
    )
    .unwrap();
    let root = fs.root_ino();
    let dirs = [fs.mkdir(root, "da").unwrap(), fs.mkdir(root, "db").unwrap()];
    Space { fs, dirs }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The sharded build and the global-lock build are observationally
    /// identical: same per-op outcomes, same abstract state, and — after
    /// a sync and a recovery remount — same post-recovery state.
    #[test]
    fn sharded_and_global_lock_builds_agree(
        ops in prop::collection::vec(op_strategy(), 1..32)
    ) {
        let dev_s: Arc<dyn BlockDevice> = Arc::new(RamDisk::new(8192));
        let dev_g: Arc<dyn BlockDevice> = Arc::new(RamDisk::new(8192));
        let sharded = mount_space(Arc::clone(&dev_s), DEFAULT_OP_STRIPES);
        let global = mount_space(Arc::clone(&dev_g), 1);

        for (i, op) in ops.iter().enumerate() {
            let rs = sharded.apply(op);
            let rg = global.apply(op);
            prop_assert_eq!(&rs, &rg, "step {}: {:?}", i, op);
        }
        prop_assert_eq!(sharded.fs.abstraction(), global.fs.abstraction());

        // Post-recovery equality: sync both, drop the mounts, remount
        // (which always runs journal recovery) and compare again.
        sharded.fs.sync().unwrap();
        global.fs.sync().unwrap();
        drop(sharded);
        drop(global);
        let rs = Rsfs::mount(dev_s, JournalMode::Async).unwrap();
        let rg = Rsfs::mount(dev_g, JournalMode::Async).unwrap();
        prop_assert_eq!(rs.abstraction(), rg.abstraction());
    }

    /// The fsync-watermark crash contract survives sharding: for every
    /// crash image cut at or after the schedule's last fsync barrier,
    /// recovery lands on a history prefix that includes everything the
    /// fsync made durable.
    #[test]
    fn sharded_build_preserves_fsync_watermark(
        prefix in prop::collection::vec(op_strategy(), 1..10),
        suffix in prop::collection::vec(op_strategy(), 1..6),
    ) {
        let ram = Arc::new(RamDisk::new(2048));
        let crash = Arc::new(CrashDevice::new(Arc::clone(&ram)));
        let dev: Arc<dyn BlockDevice> = Arc::clone(&crash) as Arc<dyn BlockDevice>;
        Rsfs::mkfs(&dev, 128, 64).unwrap();
        let fs = Rsfs::mount_with_stripes(
            dev,
            JournalMode::Async,
            LockRegistry::new(),
            DEFAULT_OP_STRIPES,
        )
        .unwrap();
        let root = fs.root_ino();
        let dirs = [fs.mkdir(root, "da").unwrap(), fs.mkdir(root, "db").unwrap()];
        fs.sync().unwrap();
        let space = Space { fs, dirs };

        let base = ram.snapshot();
        crash.take_barriers();

        let mut models = vec![space.fs.abstraction()];
        for op in &prefix {
            let _ = space.apply(op);
            models.push(space.fs.abstraction());
        }
        // The durability point under test: everything up to here must
        // survive any crash at or after this barrier.
        let anchor = space.fs.create(space.dirs[0], "anchor").unwrap();
        models.push(space.fs.abstraction());
        space.fs.write(anchor, 0, b"pinned by fsync").unwrap();
        models.push(space.fs.abstraction());
        let watermark = models.len() - 1;
        space.fs.fsync(anchor).unwrap();
        let mut barriers = crash.take_barriers();
        let n_fsync = barriers.len();
        prop_assert!(n_fsync > 0, "fsync must flush the running transaction");

        for op in &suffix {
            let _ = space.apply(op);
            models.push(space.fs.abstraction());
        }
        space.fs.sync().unwrap();

        barriers.extend(crash.take_barriers());
        barriers.push(crash.pending_writes());

        for (k, i, img) in barrier_images(&base, &barriers, BLOCK_SIZE, CrashPolicy::Prefixes) {
            let floor = if k >= n_fsync { watermark } else { 0 };
            let scratch = Arc::new(RamDisk::new(2048));
            scratch.restore(&img).unwrap();
            let recovered = Rsfs::mount(scratch, JournalMode::Async)
                .map_err(|e| TestCaseError::fail(format!("interval {k} image {i}: mount {e:?}")))?;
            let m = recovered.abstraction();
            if let Err(why) = judge_with_floor(&models, floor, &m) {
                return Err(TestCaseError::fail(format!("interval {k} image {i}: {why}")));
            }
        }
    }
}

/// Revert-fails guard for the ascending stripe acquisition in
/// `Txn::begin`: cross-directory renames in *both* directions mean some
/// rename's (olddir, newdir) stripe pair arrives in descending index
/// order, so if the ascending sort were removed, the blocking same-class
/// acquisition would violate lockdep's strictly-increasing-rank rule and
/// land here as a `SameClassNesting` finding — deterministically, without
/// having to hit the actual ABBA deadlock window.
#[test]
fn cross_directory_renames_acquire_stripes_in_ascending_order() {
    let dev: Arc<dyn BlockDevice> = Arc::new(RamDisk::new(8192));
    Rsfs::mkfs(&dev, 256, 64).unwrap();
    let registry = LockRegistry::new();
    let fs = Arc::new(
        Rsfs::mount_with_stripes(
            dev,
            JournalMode::Async,
            Arc::clone(&registry),
            DEFAULT_OP_STRIPES,
        )
        .unwrap(),
    );
    let root = fs.root_ino();
    // Eight directories spread over the stripe hash: every ordered pair
    // is exercised below, so both ascending and descending (olddir,
    // newdir) stripe pairs occur many times.
    let dirs: Vec<u64> = (0..8)
        .map(|d| fs.mkdir(root, &format!("d{d}")).unwrap())
        .collect();
    for (d, &dir) in dirs.iter().enumerate() {
        fs.create(dir, &format!("seed{d}")).unwrap();
    }

    // Deterministic single-threaded sweep: rename a file from every
    // directory into every other and back. Each hop holds both
    // directories' stripes in one transaction.
    for a in 0..dirs.len() {
        for b in 0..dirs.len() {
            if a == b {
                continue;
            }
            fs.rename(dirs[a], &format!("seed{a}"), dirs[b], "hop")
                .unwrap();
            fs.rename(dirs[b], "hop", dirs[a], &format!("seed{a}"))
                .unwrap();
        }
    }

    // Concurrent opposing traffic: pairs of threads rename between the
    // same two directories in opposite directions. Unordered blocking
    // acquisition would be an ABBA deadlock; ordered acquisition makes
    // this complete and leaves the lockdep graph clean.
    let mut workers = Vec::new();
    for t in 0..4usize {
        let fs = Arc::clone(&fs);
        let (da, db) = (dirs[t], dirs[(t + 4) % 8]);
        workers.push(std::thread::spawn(move || {
            let (src, dst) = if t % 2 == 0 { (da, db) } else { (db, da) };
            let name = format!("w{t}");
            fs.create(src, &name).unwrap();
            for _ in 0..64 {
                fs.rename(src, &name, dst, &name).unwrap();
                fs.rename(dst, &name, src, &name).unwrap();
            }
        }));
    }
    for w in workers {
        w.join().unwrap();
    }

    let findings: Vec<Violation> = registry
        .violations()
        .into_iter()
        .filter(|v| !matches!(v, Violation::UnlockedFieldAccess { .. }))
        .collect();
    assert!(findings.is_empty(), "lockdep findings: {findings:?}");
}
