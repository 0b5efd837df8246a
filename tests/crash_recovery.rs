//! Integration: crash consistency of the journaled file system, checked
//! exhaustively across crash points and adversarially with device faults.

use std::sync::Arc;

use proptest::prelude::*;
use safer_kernel::core::spec::crash::{barrier_images, judge_with_floor, CrashPolicy};
use safer_kernel::core::spec::Refines;
use safer_kernel::fs_safe::journal::{Journal, RecoveryOutcome};
use safer_kernel::fs_safe::rsfs::{JournalMode, Rsfs};
use safer_kernel::ksim::block::{BlockDevice, CrashDevice, RamDisk, BLOCK_SIZE};
use safer_kernel::vfs::modular::FileSystem;
use safer_kernel::vfs::spec::FsModel;

struct Harness {
    ram: Arc<RamDisk>,
    crash: Arc<CrashDevice<Arc<RamDisk>>>,
    fs: Rsfs,
}

fn harness_with(mode: JournalMode) -> Harness {
    let ram = Arc::new(RamDisk::new(2048));
    let crash = Arc::new(CrashDevice::new(Arc::clone(&ram)));
    let dev: Arc<dyn BlockDevice> = Arc::clone(&crash) as Arc<dyn BlockDevice>;
    Rsfs::mkfs(&dev, 128, 64).unwrap();
    let fs = Rsfs::mount(dev, mode).unwrap();
    Harness { ram, crash, fs }
}

fn harness() -> Harness {
    harness_with(JournalMode::PerOp)
}

/// Recovers one crash image (journal replay runs inside mount), judges
/// the recovered model with `judge`, and requires the image to be
/// structurally sound; every complaint lands in `failures`, prefixed
/// with `at`.
fn recover_and_judge(
    img: &[u8],
    mode: JournalMode,
    at: &str,
    failures: &mut Vec<String>,
    judge: impl FnOnce(&FsModel) -> Result<(), String>,
) {
    let scratch = Arc::new(RamDisk::new(2048));
    scratch.restore(img).unwrap();
    let scratch_dyn: Arc<dyn BlockDevice> = scratch;
    match Rsfs::mount(Arc::clone(&scratch_dyn), mode) {
        Ok(recovered) => {
            if let Err(why) = judge(&recovered.abstraction()) {
                failures.push(format!("{at}: {why}"));
            }
            match safer_kernel::fs_safe::fsck(&*scratch_dyn) {
                Ok(r) if r.is_clean() => {}
                Ok(r) => failures.push(format!("{at}: fsck findings {:?}", r.findings)),
                Err(e) => failures.push(format!("{at}: fsck failed {e}")),
            }
        }
        Err(e) => failures.push(format!("{at}: mount failed {e}")),
    }
}

/// Snapshot → op → enumerate crash points → recover each → judge against
/// the operation's pre/post models.
fn run_op_and_check(
    h: &Harness,
    op: impl FnOnce(&Rsfs),
    policy: CrashPolicy,
) -> (usize, Vec<String>) {
    let pre = h.fs.abstraction();
    let base = h.ram.snapshot();
    h.crash.take_barriers();
    op(&h.fs);
    let post = h.fs.abstraction();
    let barriers = h.crash.take_barriers();

    let mut checked = 0;
    let mut failures = Vec::new();
    for (k, i, img) in barrier_images(&base, &barriers, BLOCK_SIZE, policy) {
        checked += 1;
        let at = format!("interval {k} image {i}");
        recover_and_judge(&img, JournalMode::PerOp, &at, &mut failures, |m| {
            if *m == pre || *m == post {
                Ok(())
            } else {
                Err(format!("neither pre nor post: {m:?}"))
            }
        });
    }
    (checked, failures)
}

#[test]
fn create_is_atomic_across_all_prefix_crashes() {
    let h = harness();
    let (checked, failures) = run_op_and_check(
        &h,
        |fs| {
            fs.create(fs.root_ino(), "atomic").unwrap();
        },
        CrashPolicy::Prefixes,
    );
    assert!(checked >= 5, "checked {checked}");
    assert!(failures.is_empty(), "{failures:?}");
}

#[test]
fn overwrite_is_atomic_across_all_prefix_crashes() {
    let h = harness();
    let ino = h.fs.create(h.fs.root_ino(), "f").unwrap();
    h.fs.write(ino, 0, b"old-old-old-old").unwrap();
    let (checked, failures) = run_op_and_check(
        &h,
        |fs| {
            fs.write(ino, 0, b"NEW-NEW-NEW-NEW").unwrap();
        },
        CrashPolicy::Prefixes,
    );
    assert!(checked >= 5, "checked {checked}");
    assert!(failures.is_empty(), "{failures:?}");
}

#[test]
fn rename_is_atomic_even_under_write_reordering() {
    let h = harness();
    h.fs.create(h.fs.root_ino(), "src").unwrap();
    let (checked, failures) = run_op_and_check(
        &h,
        |fs| {
            fs.rename(fs.root_ino(), "src", fs.root_ino(), "dst")
                .unwrap();
        },
        CrashPolicy::Subsets,
    );
    assert!(checked >= 16, "checked {checked}");
    assert!(failures.is_empty(), "{failures:?}");
}

#[test]
fn unlink_is_atomic_across_subset_crashes() {
    let h = harness();
    let ino = h.fs.create(h.fs.root_ino(), "doomed").unwrap();
    h.fs.write(ino, 0, &vec![7u8; 5000]).unwrap();
    let (checked, failures) = run_op_and_check(
        &h,
        |fs| {
            fs.unlink(fs.root_ino(), "doomed").unwrap();
        },
        CrashPolicy::Subsets,
    );
    assert!(checked >= 16, "checked {checked}");
    assert!(failures.is_empty(), "{failures:?}");
}

#[test]
fn multi_op_sequence_each_op_atomic() {
    let h = harness();
    // Check a chain of operations, each against its own pre/post pair.
    type FsOp = Box<dyn Fn(&Rsfs)>;
    let ops: Vec<FsOp> = vec![
        Box::new(|fs: &Rsfs| {
            fs.mkdir(fs.root_ino(), "dir").unwrap();
        }),
        Box::new(|fs: &Rsfs| {
            let d = fs.lookup(fs.root_ino(), "dir").unwrap();
            fs.create(d, "f").unwrap();
        }),
        Box::new(|fs: &Rsfs| {
            let d = fs.lookup(fs.root_ino(), "dir").unwrap();
            let f = fs.lookup(d, "f").unwrap();
            fs.write(f, 0, b"chained").unwrap();
        }),
    ];
    let mut total = 0;
    for op in ops {
        let (checked, failures) = run_op_and_check(&h, |fs| op(fs), CrashPolicy::Prefixes);
        assert!(failures.is_empty(), "{failures:?}");
        total += checked;
    }
    assert!(total >= 15, "checked {total}");
}

#[test]
fn journal_discards_commit_corrupted_by_bitrot() {
    // Adversarial: corrupt the journaled payload after commit, rewind the
    // journal superblock, and verify recovery refuses to replay garbage.
    let ram = Arc::new(RamDisk::new(2048));
    let dev: Arc<dyn BlockDevice> = Arc::clone(&ram) as Arc<dyn BlockDevice>;
    Rsfs::mkfs(&dev, 128, 64).unwrap();
    let fs = Rsfs::mount(Arc::clone(&dev), JournalMode::PerOp).unwrap();
    fs.create(fs.root_ino(), "x").unwrap();
    fs.sync().unwrap(); // checkpoint: homes durable, jsb tail advanced
    drop(fs);
    // Journal geometry from the layout: last 64 blocks, jsb first.
    let jstart = 2048 - 64;
    // Rewind the jsb (tail_seq and tail_off) to claim the checkpointed
    // txn is still pending, as if the crash hit before the tail advanced.
    let mut jsb = vec![0u8; BLOCK_SIZE];
    dev.read_block(jstart, &mut jsb).unwrap();
    let seq = u64::from_le_bytes(jsb[4..12].try_into().unwrap());
    jsb[4..12].copy_from_slice(&(seq - 1).to_le_bytes());
    jsb[12..20].copy_from_slice(&0u64.to_le_bytes());
    ram.write_block(jstart, &jsb).unwrap();
    // Corrupt the journaled payload.
    let mut payload = vec![0u8; BLOCK_SIZE];
    ram.read_block(jstart + 2, &mut payload).unwrap();
    payload[17] ^= 0xFF;
    ram.write_block(jstart + 2, &payload).unwrap();
    let outcome = Journal::recover(&dev, jstart, 64).unwrap();
    assert_eq!(outcome, RecoveryOutcome::DiscardedTorn);
    // And the file system still mounts, with the committed state intact
    // (the home blocks were already checkpointed before the corruption).
    let fs = Rsfs::mount(dev, JournalMode::PerOp).unwrap();
    assert!(fs.lookup(fs.root_ino(), "x").is_ok());
}

#[test]
fn multiblock_write_is_atomic_across_torn_sector_crashes() {
    // Torn policy: the crash may land mid-write, leaving only the first k
    // sectors of a block. The journal's record format must make every
    // such image recover to pre or post — never a half-replayed write.
    let h = harness();
    let ino = h.fs.create(h.fs.root_ino(), "torn").unwrap();
    h.fs.write(ino, 0, &vec![0xAAu8; 3 * BLOCK_SIZE]).unwrap();
    h.fs.sync().unwrap();
    let (checked, failures) = run_op_and_check(
        &h,
        |fs| {
            fs.write(ino, 0, &vec![0x55u8; 3 * BLOCK_SIZE]).unwrap();
        },
        CrashPolicy::Torn,
    );
    // Each pending write contributes sectors_per_block images, so a
    // multi-block commit yields far more crash points than Prefixes.
    assert!(checked >= 30, "checked {checked}");
    assert!(failures.is_empty(), "{failures:?}");
}

/// Runs a commit→checkpoint schedule on a fresh rsfs and enumerates
/// `policy` crash images at every flush barrier, judging each recovered
/// state against the set of models the schedule passed through.
fn rsfs_schedule_and_check(policy: CrashPolicy) -> (usize, Vec<String>) {
    let h = harness();
    let base = h.ram.snapshot();
    h.crash.take_barriers();
    let root = h.fs.root_ino();

    let mut models = vec![h.fs.abstraction()];
    let ino = h.fs.create(root, "sched").unwrap();
    models.push(h.fs.abstraction());
    h.fs.write(ino, 0, b"commit then checkpoint").unwrap();
    models.push(h.fs.abstraction());
    // The checkpoint: homes written, tail advanced. Crashing inside it
    // must still recover the full history (the log replays idempotently).
    h.fs.sync().unwrap();
    let barriers = h.crash.take_barriers();
    assert!(
        barriers.len() >= 3,
        "expected commit, commit, checkpoint barriers, got {}",
        barriers.len()
    );

    let mut checked = 0;
    let mut failures = Vec::new();
    for (k, i, img) in barrier_images(&base, &barriers, BLOCK_SIZE, policy) {
        checked += 1;
        let at = format!("interval {k} image {i}");
        recover_and_judge(&img, JournalMode::PerOp, &at, &mut failures, |m| {
            if models.contains(m) {
                Ok(())
            } else {
                Err(format!("off-history state {m:?}"))
            }
        });
    }
    (checked, failures)
}

#[test]
fn rsfs_commit_then_checkpoint_schedule_subsets() {
    let (checked, failures) = rsfs_schedule_and_check(CrashPolicy::Subsets);
    assert!(checked >= 32, "checked {checked}");
    assert!(failures.is_empty(), "{failures:?}");
}

#[test]
fn rsfs_commit_then_checkpoint_schedule_torn() {
    let (checked, failures) = rsfs_schedule_and_check(CrashPolicy::Torn);
    assert!(checked >= 30, "checked {checked}");
    assert!(failures.is_empty(), "{failures:?}");
}

/// Async-commit schedule with an fsync in the middle: stage two ops, fsync
/// (the durability barrier), stage two more, then sync. Every crash image
/// cut from an interval at or after the fsync barrier must recover to a
/// history prefix that *includes* the fsync'd data — the refined contract
/// the async pipeline promises — while earlier images may land anywhere on
/// the history. Returns (checked, post_fsync_checked, failures).
fn async_fsync_schedule_and_check(policy: CrashPolicy) -> (usize, usize, Vec<String>) {
    let h = harness_with(JournalMode::Async);
    let base = h.ram.snapshot();
    h.crash.take_barriers();
    let root = h.fs.root_ino();

    let mut models = vec![h.fs.abstraction()];
    let f1 = h.fs.create(root, "f1").unwrap();
    models.push(h.fs.abstraction());
    h.fs.write(f1, 0, b"must survive fsync").unwrap();
    models.push(h.fs.abstraction());
    let watermark = models.len() - 1;
    // Staging alone must not have touched the device: the op path is
    // decoupled from durability.
    let mut barriers = h.crash.take_barriers();
    assert!(
        barriers.is_empty(),
        "async staging reached the device before the durability point"
    );
    h.fs.fsync(f1).unwrap();
    barriers.extend(h.crash.take_barriers());
    let n_fsync = barriers.len();
    assert!(n_fsync > 0, "fsync must flush the running transaction");

    let f2 = h.fs.create(root, "f2").unwrap();
    models.push(h.fs.abstraction());
    h.fs.write(f2, 0, b"after the barrier").unwrap();
    models.push(h.fs.abstraction());
    h.fs.sync().unwrap(); // commit the second running txn and checkpoint

    barriers.extend(h.crash.take_barriers());
    barriers.push(h.crash.pending_writes());

    let mut checked = 0;
    let mut post_fsync = 0;
    let mut failures = Vec::new();
    for (k, i, img) in barrier_images(&base, &barriers, BLOCK_SIZE, policy) {
        // Intervals at or after the fsync barrier start from a base where
        // everything fsync flushed is durable: the watermark applies.
        let floor = if k >= n_fsync { watermark } else { 0 };
        checked += 1;
        if floor > 0 {
            post_fsync += 1;
        }
        let at = format!("interval {k} image {i}");
        recover_and_judge(&img, JournalMode::Async, &at, &mut failures, |m| {
            judge_with_floor(&models, floor, m)
        });
    }
    (checked, post_fsync, failures)
}

#[test]
fn async_fsync_watermark_holds_across_prefix_crashes() {
    let (checked, post_fsync, failures) = async_fsync_schedule_and_check(CrashPolicy::Prefixes);
    assert!(checked >= 10, "checked {checked}");
    assert!(post_fsync >= 5, "post-fsync images {post_fsync}");
    assert!(failures.is_empty(), "{failures:?}");
}

#[test]
fn async_fsync_watermark_holds_across_subset_crashes() {
    let (checked, post_fsync, failures) = async_fsync_schedule_and_check(CrashPolicy::Subsets);
    assert!(checked >= 32, "checked {checked}");
    assert!(post_fsync >= 16, "post-fsync images {post_fsync}");
    assert!(failures.is_empty(), "{failures:?}");
}

#[test]
fn async_fsync_watermark_holds_across_torn_sector_crashes() {
    let (checked, post_fsync, failures) = async_fsync_schedule_and_check(CrashPolicy::Torn);
    assert!(checked >= 20, "checked {checked}");
    assert!(post_fsync >= 10, "post-fsync images {post_fsync}");
    assert!(failures.is_empty(), "{failures:?}");
}

/// Revert-fails guard for the watermark schedule: simulate a broken
/// pipeline whose fsync claims the durability point without committing
/// the running transaction. A crash right after the claimed fsync then
/// recovers to the pre-staging state, and the judge must refuse that
/// image — if this test ever finds the judge accepting it, the suite
/// above has lost its power to catch fsync'd-data loss.
#[test]
fn watermark_judge_catches_an_fsync_that_does_not_commit() {
    let h = harness_with(JournalMode::Async);
    let base = h.ram.snapshot();
    h.crash.take_barriers();
    let root = h.fs.root_ino();

    let mut models = vec![h.fs.abstraction()];
    let f1 = h.fs.create(root, "f1").unwrap();
    models.push(h.fs.abstraction());
    h.fs.write(f1, 0, b"claimed durable, never committed")
        .unwrap();
    models.push(h.fs.abstraction());
    let watermark = models.len() - 1;

    // The revert under test: the durability point is claimed (watermark
    // recorded) but `commit_running` never runs — no journal record, no
    // barrier, nothing pending in the write cache.
    assert!(h.crash.take_barriers().is_empty());
    assert!(h.crash.pending_writes().is_empty());

    // Crash now: the device still holds the pre-staging image.
    let scratch = Arc::new(RamDisk::new(2048));
    scratch.restore(&base).unwrap();
    let scratch_dyn: Arc<dyn BlockDevice> = scratch;
    let recovered = Rsfs::mount(scratch_dyn, JournalMode::Async).unwrap();
    let why = judge_with_floor(&models, watermark, &recovered.abstraction())
        .expect_err("the judge accepted an image that lost fsync'd data");
    assert!(why.contains("watermark"), "{why}");
}

/// cext4 has no journal, so post-crash images cannot be held to the
/// pre/post-model judgement — the baseline promise is only that a crash
/// image either mounts and a bounded, cycle-guarded tree walk
/// terminates, or is refused with a clean errno (no panic, no loop).
fn cext4_recovers_or_refuses(img: &[u8]) -> Result<(), String> {
    use safer_kernel::fs_legacy::{BugKnobs, Cext4};
    use safer_kernel::legacy::LegacyCtx;

    let scratch = Arc::new(RamDisk::new(2048));
    scratch.restore(img).unwrap();
    let dev: Arc<dyn BlockDevice> = scratch;
    let fs = match Cext4::mount(dev, LegacyCtx::new(), Arc::new(BugKnobs::none())) {
        Ok(fs) => fs,
        Err(_) => return Ok(()), // clean refusal: acceptable for the baseline
    };
    let mut seen = std::collections::HashSet::new();
    let mut stack = vec![fs.root_ino()];
    let mut steps = 0usize;
    while let Some(dir) = stack.pop() {
        if !seen.insert(dir) {
            continue;
        }
        steps += 1;
        if steps > 10_000 {
            return Err("tree walk did not terminate".into());
        }
        // Errors while walking a corrupt tree are fine; hangs are not.
        if let Ok(entries) = fs.readdir_inner(dir) {
            for (_, ino) in entries {
                stack.push(ino);
            }
        }
    }
    Ok(())
}

#[test]
fn cext4_commit_then_sync_schedule_subsets_never_wedges() {
    use safer_kernel::fs_legacy::{BugKnobs, Cext4};
    use safer_kernel::legacy::LegacyCtx;

    let ram = Arc::new(RamDisk::new(2048));
    let crash = Arc::new(CrashDevice::new(Arc::clone(&ram)));
    let dev: Arc<dyn BlockDevice> = Arc::clone(&crash) as Arc<dyn BlockDevice>;
    Cext4::mkfs(&dev, 128).unwrap();
    let base = ram.snapshot();
    crash.take_barriers();
    let fs = Cext4::mount(dev, LegacyCtx::new(), Arc::new(BugKnobs::none())).unwrap();

    // The legacy analogue of commit→checkpoint: mutate, sync, mutate, sync.
    let root = fs.root_ino();
    let p = fs.create_errptr(root, "a", 0o100644).check().unwrap();
    let a = fs
        .ctx()
        .vp_take::<safer_kernel::vfs::inode::InodeNo>(p, "test")
        .unwrap();
    fs.write_range(a, 0, &vec![1u8; BLOCK_SIZE + 17]).unwrap();
    fs.sync_inner().unwrap();
    let p = fs.create_errptr(root, "b", 0o100644).check().unwrap();
    let _ = fs
        .ctx()
        .vp_take::<safer_kernel::vfs::inode::InodeNo>(p, "test");
    fs.sync_inner().unwrap();
    let barriers = crash.take_barriers();
    assert!(!barriers.is_empty());

    let mut checked = 0;
    let mut failures = Vec::new();
    for (k, i, img) in barrier_images(&base, &barriers, BLOCK_SIZE, CrashPolicy::Subsets) {
        checked += 1;
        if let Err(why) = cext4_recovers_or_refuses(&img) {
            failures.push(format!("interval {k} image {i}: {why}"));
        }
    }
    assert!(checked >= 16, "checked {checked}");
    assert!(failures.is_empty(), "{failures:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Property: any single mutating operation, chosen and parameterized
    /// randomly, is crash-atomic across all prefix crash points.
    #[test]
    fn random_single_op_is_crash_atomic(
        which in 0u8..5,
        name in "[a-z]{1,8}",
        data in prop::collection::vec(any::<u8>(), 1..300),
        off in 0u64..4096,
    ) {
        let h = harness();
        // Seed state so unlink/rename/truncate have something to act on.
        let seeded = h.fs.create(h.fs.root_ino(), "seed").unwrap();
        h.fs.write(seeded, 0, b"seed-content").unwrap();

        let (checked, failures) = run_op_and_check(
            &h,
            |fs| {
                let root = fs.root_ino();
                match which {
                    0 => {
                        fs.create(root, &name).unwrap();
                    }
                    1 => {
                        fs.mkdir(root, &name).unwrap();
                    }
                    2 => {
                        fs.write(seeded, off, &data).unwrap();
                    }
                    3 => {
                        fs.rename(root, "seed", root, &name).unwrap();
                    }
                    _ => {
                        fs.unlink(root, "seed").unwrap();
                    }
                }
            },
            CrashPolicy::Prefixes,
        );
        prop_assert!(checked > 0);
        prop_assert!(failures.is_empty(), "{:?}", failures);
    }

    /// Property: with checkpoints deferred (no sync), a crash at *every*
    /// write prefix — including mid-way through a group-commit record —
    /// recovers to exactly some prefix of the operation history: the
    /// journal replays every durably committed transaction in sequence
    /// order and discards the torn tail, never yielding a state outside
    /// the op chain.
    #[test]
    fn deferred_group_commits_recover_to_an_op_prefix(
        plan in prop::collection::vec((0u8..3, 1usize..400), 3..7),
    ) {
        let h = harness();
        let base = h.ram.snapshot();
        h.crash.take_barriers();
        let root = h.fs.root_ino();
        let mut models = vec![h.fs.abstraction()];
        let mut live: Vec<String> = Vec::new();
        for (k, (kind, len)) in plan.iter().enumerate() {
            match kind {
                1 if !live.is_empty() => {
                    let name = &live[k % live.len()];
                    let ino = h.fs.lookup(root, name).unwrap();
                    h.fs.write(ino, 0, &vec![k as u8; *len]).unwrap();
                }
                2 if !live.is_empty() => {
                    let name = live.remove(k % live.len());
                    h.fs.unlink(root, &name).unwrap();
                }
                _ => {
                    let name = format!("f{k}");
                    h.fs.create(root, &name).unwrap();
                    live.push(name);
                }
            }
            models.push(h.fs.abstraction());
        }
        // Deliberately NO sync(): every transaction sits committed but
        // un-checkpointed, so recovery must replay a multi-txn journal.
        let mut barriers = h.crash.take_barriers();
        barriers.push(h.crash.pending_writes());

        let mut checked = 0usize;
        let mut last_img = None;
        for (_, _, img) in barrier_images(&base, &barriers, BLOCK_SIZE, CrashPolicy::Prefixes) {
            checked += 1;
            let scratch = Arc::new(RamDisk::new(2048));
            scratch.restore(&img).unwrap();
            let scratch_dyn: Arc<dyn BlockDevice> = scratch;
            let recovered = Rsfs::mount(Arc::clone(&scratch_dyn), JournalMode::PerOp)
                .expect("mount after crash");
            let m = recovered.abstraction();
            prop_assert!(
                models.contains(&m),
                "recovered state is not a prefix of the op history: {m:?}"
            );
            let report = safer_kernel::fs_safe::fsck(&*scratch_dyn).unwrap();
            prop_assert!(report.is_clean(), "{:?}", report.findings);
            last_img = Some(img);
        }
        prop_assert!(checked >= plan.len(), "only {checked} crash points");
        // The final crash point (everything durable) must recover the
        // complete history — the committed prefix is ALL of it.
        let full = last_img.expect("at least one crash image");
        let scratch = Arc::new(RamDisk::new(2048));
        scratch.restore(&full).unwrap();
        let scratch_dyn: Arc<dyn BlockDevice> = scratch;
        let recovered = Rsfs::mount(scratch_dyn, JournalMode::PerOp).unwrap();
        prop_assert!(recovered.abstraction() == *models.last().unwrap());
    }

    /// Property: under the async pipeline, a random op plan with an fsync
    /// at a random position recovers — at every prefix crash point — to a
    /// history prefix, and every crash point at or after the fsync barrier
    /// recovers to a prefix that includes the fsync'd watermark state.
    #[test]
    fn async_random_plan_with_fsync_respects_the_watermark(
        plan in prop::collection::vec((0u8..3, 1usize..300), 3..7),
        fsync_pick in 0usize..6,
    ) {
        let h = harness_with(JournalMode::Async);
        let base = h.ram.snapshot();
        h.crash.take_barriers();
        let mut barriers = Vec::new();
        let root = h.fs.root_ino();
        let mut models = vec![h.fs.abstraction()];
        let mut live: Vec<String> = Vec::new();
        let fsync_at = fsync_pick % plan.len();
        let mut watermark = 0usize;
        let mut n_fsync = 0usize;
        for (k, (kind, len)) in plan.iter().enumerate() {
            match kind {
                1 if !live.is_empty() => {
                    let name = &live[k % live.len()];
                    let ino = h.fs.lookup(root, name).unwrap();
                    h.fs.write(ino, 0, &vec![k as u8; *len]).unwrap();
                }
                2 if !live.is_empty() => {
                    let name = live.remove(k % live.len());
                    h.fs.unlink(root, &name).unwrap();
                }
                _ => {
                    let name = format!("f{k}");
                    h.fs.create(root, &name).unwrap();
                    live.push(name);
                }
            }
            models.push(h.fs.abstraction());
            if k == fsync_at {
                // The durability barrier: everything staged so far must
                // survive any later crash.
                h.fs.fsync(root).unwrap();
                watermark = models.len() - 1;
                barriers.extend(h.crash.take_barriers());
                n_fsync = barriers.len();
            }
        }
        prop_assert!(n_fsync > 0, "fsync produced no flush barrier");
        barriers.extend(h.crash.take_barriers());
        barriers.push(h.crash.pending_writes());

        let mut checked = 0usize;
        for (k, _, img) in barrier_images(&base, &barriers, BLOCK_SIZE, CrashPolicy::Prefixes) {
            let floor = if k >= n_fsync { watermark } else { 0 };
            checked += 1;
            let scratch = Arc::new(RamDisk::new(2048));
            scratch.restore(&img).unwrap();
            let scratch_dyn: Arc<dyn BlockDevice> = scratch;
            let recovered = Rsfs::mount(Arc::clone(&scratch_dyn), JournalMode::Async)
                .expect("mount after crash");
            let m = recovered.abstraction();
            prop_assert!(
                judge_with_floor(&models, floor, &m).is_ok(),
                "interval {k}: {:?} (plan {plan:?} fsync_at {fsync_at} n_fsync {n_fsync} interval_lens {:?})",
                judge_with_floor(&models, floor, &m),
                barriers.iter().map(|iv| iv.len()).collect::<Vec<_>>()
            );
            let report = safer_kernel::fs_safe::fsck(&*scratch_dyn).unwrap();
            prop_assert!(report.is_clean(), "{:?}", report.findings);
        }
        prop_assert!(checked > 0);
    }
}
