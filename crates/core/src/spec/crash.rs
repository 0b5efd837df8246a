//! Exhaustive crash-schedule enumeration.
//!
//! A crash specification ("recovers to the last synced version given any
//! crash", §4.4) is only checkable if the checker can enumerate what the
//! disk may look like after power failure. The `CrashDevice` in `sk-ksim`
//! exposes the volatile write cache; this module turns (durable image +
//! pending writes) into the set of possible post-crash images:
//!
//! - [`CrashPolicy::Prefixes`] models a cache that drains in FIFO order:
//!   the crash may cut the sequence at any point (n + 1 images).
//! - [`CrashPolicy::Subsets`] models a reordering cache: any subset of the
//!   pending writes may have reached media, with later writes to the same
//!   block still winning among those applied (2^n images; n is capped
//!   because this is exhaustive, not sampled).
//! - [`CrashPolicy::Torn`] models sector-atomic hardware: like `Prefixes`,
//!   but the write the crash lands on may itself be cut at any sector
//!   boundary — only its first k sectors reach media. This is the schedule
//!   that catches on-disk formats relying on whole-block atomicity.
//!
//! The journal's correctness argument in `sk-fs-safe` is exactly that under
//! *all three* policies every reachable image recovers to an allowed model.
//!
//! A workload spans many flush barriers. The `CrashDevice` logs the
//! pending set at every barrier, and [`barrier_images`] is the one walk
//! over that log: the crash images of each interval, each cut over the
//! image the earlier intervals left durable.

use sk_ksim::block::{PendingWrite, SECTOR_SIZE};
use sk_ksim::scenario::EngineStream;

/// Which crash schedules to enumerate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashPolicy {
    /// Writes drain in order; a crash truncates the sequence.
    Prefixes,
    /// Writes may reorder arbitrarily; a crash keeps any subset.
    Subsets,
    /// Writes drain in order, and the write the crash interrupts may be
    /// torn at any [`SECTOR_SIZE`] boundary: every prefix image plus, for
    /// each pending write, one image per partial sector count
    /// (`(n+1) + n·(sectors_per_block − 1)` images).
    Torn,
}

/// Upper bound on pending writes for [`CrashPolicy::Subsets`] (2^16 images).
pub const MAX_SUBSET_PENDING: usize = 16;

/// Writes `writes` (in order) over `img`.
fn write_over<'a>(
    img: &mut [u8],
    writes: impl IntoIterator<Item = &'a PendingWrite>,
    block_size: usize,
) {
    for w in writes {
        let off = w.blkno as usize * block_size;
        img[off..off + block_size].copy_from_slice(&w.data);
    }
}

/// Applies `writes` (in order) to a copy of `base` and returns it.
fn apply<'a>(
    base: &[u8],
    writes: impl IntoIterator<Item = &'a PendingWrite>,
    block_size: usize,
) -> Vec<u8> {
    let mut img = base.to_vec();
    write_over(&mut img, writes, block_size);
    img
}

/// The image once every write of `barriers` has reached media: `base`
/// with each interval applied in order. A sampled checker uses it to
/// build the durable state that its chosen interval starts from.
pub fn apply_barriers(base: &[u8], barriers: &[Vec<PendingWrite>], block_size: usize) -> Vec<u8> {
    apply(base, barriers.iter().flatten(), block_size)
}

/// Walks every post-crash image of a barrier log, in order.
///
/// `barriers` is the log `CrashDevice::take_barriers` returns: entry `k`
/// holds the writes pending when the `k`-th flush began. A checker that
/// also crashes with writes still cached appends `pending_writes()` as a
/// last interval. A crash inside interval `k` finds `base` with every
/// write of `barriers[..k]` durable, plus whatever `policy` lets reach
/// media of `barriers[k]`. The walk yields `(k, i, image)` for the `i`-th
/// [`crash_images`] image of interval `k`. It is lazy, one interval at a
/// time, so a judge that stops at its first failure stops the walk.
///
/// # Panics
///
/// As [`crash_images`], when the walk reaches an interval too large for
/// [`CrashPolicy::Subsets`].
pub fn barrier_images<'a>(
    base: &[u8],
    barriers: &'a [Vec<PendingWrite>],
    block_size: usize,
    policy: CrashPolicy,
) -> impl Iterator<Item = (usize, usize, Vec<u8>)> + 'a {
    let mut durable = base.to_vec();
    barriers.iter().enumerate().flat_map(move |(k, interval)| {
        let images = crash_images(&durable, interval, block_size, policy);
        write_over(&mut durable, interval, block_size);
        images
            .into_iter()
            .enumerate()
            .map(move |(i, img)| (k, i, img))
    })
}

/// Enumerates every post-crash disk image reachable from `base` with the
/// given `pending` cache under `policy`.
///
/// # Panics
///
/// Panics if `policy` is [`CrashPolicy::Subsets`] and more than
/// [`MAX_SUBSET_PENDING`] writes are pending — the checker is exhaustive by
/// design and refuses to silently sample.
pub fn crash_images(
    base: &[u8],
    pending: &[PendingWrite],
    block_size: usize,
    policy: CrashPolicy,
) -> Vec<Vec<u8>> {
    match policy {
        CrashPolicy::Prefixes => (0..=pending.len())
            .map(|n| apply(base, &pending[..n], block_size))
            .collect(),
        CrashPolicy::Torn => {
            // Sector-atomic prefixes: the cut write lands partially.
            let spb = (block_size / SECTOR_SIZE).max(1);
            let mut images = Vec::new();
            for n in 0..=pending.len() {
                images.push(apply(base, &pending[..n], block_size));
                // The (n+1)-th write is the one the crash interrupts: apply
                // its first k sectors over the prefix, for every proper k.
                if let Some(cut) = pending.get(n) {
                    for k in 1..spb {
                        let mut img = images.last().unwrap().clone();
                        let off = cut.blkno as usize * block_size;
                        let bytes = k * SECTOR_SIZE;
                        img[off..off + bytes].copy_from_slice(&cut.data[..bytes]);
                        images.push(img);
                    }
                }
            }
            images
        }
        CrashPolicy::Subsets => {
            assert!(
                pending.len() <= MAX_SUBSET_PENDING,
                "refusing to enumerate 2^{} crash images; bound the workload",
                pending.len()
            );
            let n = pending.len();
            (0u32..(1 << n))
                .map(|mask| {
                    let applied = pending
                        .iter()
                        .enumerate()
                        .filter(|(i, _)| mask & (1 << i) != 0)
                        .map(|(_, w)| w);
                    apply(base, applied, block_size)
                })
                .collect()
        }
    }
}

/// Samples *one* post-crash image reachable under `policy`, drawing the
/// crash point from a scenario-engine stream.
///
/// This is the composed-scenario counterpart of [`crash_images`]: where
/// exhaustive enumeration checks a harness in isolation, a soak scenario
/// crashes at an engine-chosen point *while* other subsystems are mid-fault,
/// and the whole run replays from the one engine seed. The chosen crash
/// point is logged to the shared trace so a failing image can be read
/// straight off the trace tail.
///
/// Unlike exhaustive [`CrashPolicy::Subsets`], the sampled form accepts up
/// to 64 pending writes (one mask draw), since sampling never enumerates.
pub fn sample_crash_image(
    base: &[u8],
    pending: &[PendingWrite],
    block_size: usize,
    policy: CrashPolicy,
    stream: &EngineStream,
) -> Vec<u8> {
    match policy {
        CrashPolicy::Prefixes => {
            let n = stream.gen_range(0..=pending.len());
            stream.emit(format!("crash prefixes cut={n}/{}", pending.len()));
            apply(base, &pending[..n], block_size)
        }
        CrashPolicy::Torn => {
            let spb = (block_size / SECTOR_SIZE).max(1);
            let n = stream.gen_range(0..=pending.len());
            let mut img = apply(base, &pending[..n], block_size);
            // The (n+1)-th write is the one the crash interrupts; draw how
            // many of its sectors reach media (0 = none, i.e. plain prefix).
            // The sector draw happens whenever a cut write exists so the
            // stream offset depends only on (len, n), not on data content.
            if let Some(cut) = pending.get(n) {
                let k = stream.gen_range(0..spb);
                stream.emit(format!(
                    "crash torn cut={n}/{} blk={} sectors={k}/{spb}",
                    pending.len(),
                    cut.blkno
                ));
                if k > 0 {
                    let off = cut.blkno as usize * block_size;
                    let bytes = k * SECTOR_SIZE;
                    img[off..off + bytes].copy_from_slice(&cut.data[..bytes]);
                }
            } else {
                stream.emit(format!("crash torn cut={n}/{} (full drain)", pending.len()));
            }
            img
        }
        CrashPolicy::Subsets => {
            assert!(
                pending.len() <= 64,
                "subset sampling draws one 64-bit mask; bound the workload"
            );
            let mask = if pending.is_empty() {
                0
            } else if pending.len() == 64 {
                stream.gen_u64()
            } else {
                stream.gen_u64() & ((1u64 << pending.len()) - 1)
            };
            stream.emit(format!("crash subsets mask={mask:#x} of={}", pending.len()));
            let applied = pending
                .iter()
                .enumerate()
                .filter(|(i, _)| mask & (1u64 << i) != 0)
                .map(|(_, w)| w);
            apply(base, applied, block_size)
        }
    }
}

/// Judges a recovered state against the fsync-refined crash contract.
///
/// With an async commit pipeline the promise is no longer "pre or post of
/// the in-flight op" but "some prefix of the op history **at or after the
/// last durability barrier**": `models` is the chronological state history,
/// `floor` is the watermark index established by the barrier (0 when the
/// crash point precedes every barrier), and recovery must land on
/// `models[floor..]`. Landing below the floor means fsync'd data vanished;
/// landing off-history means recovery invented a state.
pub fn judge_with_floor<M: PartialEq + core::fmt::Debug>(
    models: &[M],
    floor: usize,
    recovered: &M,
) -> Result<(), String> {
    // A history may revisit a state (create then unlink), so the recovered
    // state is judged against *any* matching index, newest first.
    match models.iter().rposition(|m| m == recovered) {
        Some(i) if i >= floor => Ok(()),
        Some(i) => Err(format!(
            "recovered to model {i}, below the durability watermark {floor}: \
             fsync'd data is missing"
        )),
        None => Err(format!("off-history state {recovered:?}")),
    }
}

/// Result of driving a crash-consistency check over every enumerated image.
#[derive(Debug, Default, Clone)]
pub struct CrashReport {
    /// Number of post-crash images examined.
    pub images_checked: usize,
    /// Human-readable descriptions of images whose recovery violated the
    /// crash specification.
    pub failures: Vec<String>,
}

impl CrashReport {
    /// True if every image recovered to an allowed state.
    pub fn is_clean(&self) -> bool {
        self.failures.is_empty()
    }

    /// Checks every image with `recover_and_judge`, which returns
    /// `Ok(())` when the recovered state satisfies the crash spec and
    /// `Err(description)` otherwise.
    pub fn run(
        images: Vec<Vec<u8>>,
        mut recover_and_judge: impl FnMut(usize, &[u8]) -> Result<(), String>,
    ) -> CrashReport {
        let mut report = CrashReport::default();
        for (i, img) in images.iter().enumerate() {
            report.images_checked += 1;
            if let Err(why) = recover_and_judge(i, img) {
                report.failures.push(format!("image {i}: {why}"));
            }
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w(blkno: u64, fill: u8, bs: usize) -> PendingWrite {
        PendingWrite {
            blkno,
            data: vec![fill; bs],
        }
    }

    #[test]
    fn prefixes_enumerates_n_plus_one_images() {
        let bs = 4;
        let base = vec![0u8; 3 * bs];
        let pending = vec![w(0, 1, bs), w(1, 2, bs), w(2, 3, bs)];
        let images = crash_images(&base, &pending, bs, CrashPolicy::Prefixes);
        assert_eq!(images.len(), 4);
        assert_eq!(images[0], base, "zero writes applied");
        assert_eq!(images[1][0], 1);
        assert_eq!(images[1][bs], 0, "second write not yet applied");
        assert_eq!(images[3][2 * bs], 3, "full prefix applied");
    }

    #[test]
    fn subsets_enumerates_power_set() {
        let bs = 2;
        let base = vec![0u8; 2 * bs];
        let pending = vec![w(0, 1, bs), w(1, 2, bs)];
        let images = crash_images(&base, &pending, bs, CrashPolicy::Subsets);
        assert_eq!(images.len(), 4);
        // One of the images must have block 1 written but not block 0 —
        // the reordering the prefix policy can't produce.
        assert!(images.iter().any(|img| img[0] == 0 && img[bs] == 2));
    }

    #[test]
    fn later_write_to_same_block_wins_in_subsets() {
        let bs = 2;
        let base = vec![0u8; bs];
        let pending = vec![w(0, 1, bs), w(0, 2, bs)];
        let images = crash_images(&base, &pending, bs, CrashPolicy::Subsets);
        // Mask 0b11 applies both in order: final value 2.
        assert!(images.iter().any(|img| img[0] == 2));
        // No image can have "1 over 2": applying in order forbids it only
        // for the both-applied case; the {first-only} subset legitimately
        // yields 1.
        assert!(images.iter().any(|img| img[0] == 1));
        assert!(images.iter().any(|img| img[0] == 0));
    }

    #[test]
    fn torn_enumerates_prefixes_plus_sector_cuts() {
        let bs = 2 * SECTOR_SIZE;
        let base = vec![0u8; 2 * bs];
        let pending = vec![w(0, 1, bs), w(1, 2, bs)];
        let images = crash_images(&base, &pending, bs, CrashPolicy::Torn);
        // (n+1) prefixes + n·(spb−1) torn variants = 3 + 2·1.
        assert_eq!(images.len(), 5);
        // Every prefix image is present…
        for img in crash_images(&base, &pending, bs, CrashPolicy::Prefixes) {
            assert!(images.contains(&img));
        }
        // …plus the half-applied first write: sector 0 new, sector 1 old.
        assert!(images.iter().any(|img| {
            img[..SECTOR_SIZE].iter().all(|&b| b == 1)
                && img[SECTOR_SIZE..bs].iter().all(|&b| b == 0)
        }));
        // No image tears *inside* a sector.
        for img in &images {
            for blk in img.chunks(bs) {
                for sector in blk.chunks(SECTOR_SIZE) {
                    assert!(sector.iter().all(|&b| b == sector[0]));
                }
            }
        }
    }

    #[test]
    fn torn_with_single_sector_blocks_degenerates_to_prefixes() {
        let bs = 4; // smaller than a sector: whole-block atomic
        let base = vec![0u8; 2 * bs];
        let pending = vec![w(0, 1, bs), w(1, 2, bs)];
        assert_eq!(
            crash_images(&base, &pending, bs, CrashPolicy::Torn),
            crash_images(&base, &pending, bs, CrashPolicy::Prefixes)
        );
    }

    #[test]
    #[should_panic(expected = "refusing to enumerate")]
    fn subsets_refuses_unbounded_pending() {
        let bs = 1;
        let base = vec![0u8; 32];
        let pending: Vec<PendingWrite> = (0..17).map(|i| w(i, 1, bs)).collect();
        let _ = crash_images(&base, &pending, bs, CrashPolicy::Subsets);
    }

    #[test]
    fn floor_judge_enforces_the_watermark() {
        let models = vec![0u32, 1, 2, 3];
        // Above or at the floor: allowed.
        assert!(judge_with_floor(&models, 2, &2).is_ok());
        assert!(judge_with_floor(&models, 2, &3).is_ok());
        // No barrier yet: any history prefix is allowed.
        assert!(judge_with_floor(&models, 0, &0).is_ok());
        // Below the floor: the fsync'd data went missing.
        let why = judge_with_floor(&models, 2, &1).unwrap_err();
        assert!(why.contains("watermark 2"), "{why}");
        // Off-history: recovery invented a state.
        let why = judge_with_floor(&models, 0, &9).unwrap_err();
        assert!(why.contains("off-history"), "{why}");
        // A revisited state (create then unlink back to empty) matches its
        // newest occurrence, so it satisfies a floor at that index.
        let looped = vec![0u32, 1, 0];
        assert!(judge_with_floor(&looped, 2, &0).is_ok());
        assert!(judge_with_floor(&looped, 2, &1).is_err());
    }

    #[test]
    fn sampled_images_are_members_of_the_exhaustive_set() {
        use sk_ksim::scenario::ScenarioEngine;
        let bs = 2 * SECTOR_SIZE;
        let base = vec![0u8; 4 * bs];
        let pending = vec![w(0, 1, bs), w(1, 2, bs), w(2, 3, bs)];
        for policy in [
            CrashPolicy::Prefixes,
            CrashPolicy::Torn,
            CrashPolicy::Subsets,
        ] {
            let all = crash_images(&base, &pending, bs, policy);
            let engine = ScenarioEngine::new(7);
            let stream = engine.stream("crash");
            for _ in 0..32 {
                let img = sample_crash_image(&base, &pending, bs, policy, &stream);
                assert!(
                    all.contains(&img),
                    "{policy:?}: sampled an image the exhaustive set cannot reach"
                );
            }
            assert!(engine.trace_text().contains("crash"));
        }
    }

    #[test]
    fn sampled_images_replay_from_the_engine_seed() {
        use sk_ksim::scenario::ScenarioEngine;
        let bs = 2 * SECTOR_SIZE;
        let base = vec![9u8; 4 * bs];
        let pending = vec![w(1, 4, bs), w(3, 5, bs)];
        let run = |policy| {
            let engine = ScenarioEngine::new(0xC4A5);
            let stream = engine.stream("crash");
            let imgs: Vec<Vec<u8>> = (0..16)
                .map(|_| sample_crash_image(&base, &pending, bs, policy, &stream))
                .collect();
            (imgs, engine.trace_text())
        };
        for policy in [
            CrashPolicy::Prefixes,
            CrashPolicy::Torn,
            CrashPolicy::Subsets,
        ] {
            assert_eq!(run(policy), run(policy));
        }
    }

    #[test]
    fn barrier_walk_matches_the_hand_loop() {
        let bs = 2 * SECTOR_SIZE;
        let base = vec![0u8; 4 * bs];
        // Three intervals: two writes, an empty barrier, then a rewrite
        // of a block the first interval already made durable.
        let barriers = vec![
            vec![w(0, 1, bs), w(1, 2, bs)],
            vec![],
            vec![w(1, 3, bs), w(2, 4, bs), w(3, 5, bs)],
        ];
        for policy in [
            CrashPolicy::Prefixes,
            CrashPolicy::Subsets,
            CrashPolicy::Torn,
        ] {
            // The walk every checker used to write out by hand.
            let mut want = Vec::new();
            let mut applied = base.clone();
            for (k, interval) in barriers.iter().enumerate() {
                for (i, img) in crash_images(&applied, interval, bs, policy)
                    .into_iter()
                    .enumerate()
                {
                    want.push((k, i, img));
                }
                for w in interval {
                    let off = w.blkno as usize * bs;
                    applied[off..off + bs].copy_from_slice(&w.data);
                }
            }
            let got: Vec<_> = barrier_images(&base, &barriers, bs, policy).collect();
            assert_eq!(got, want, "{policy:?}");
            assert_eq!(applied, apply_barriers(&base, &barriers, bs));
        }
        // The empty barrier still counts as an interval: its one image is
        // the state the first interval left durable.
        let got: Vec<_> = barrier_images(&base, &barriers, bs, CrashPolicy::Prefixes).collect();
        assert_eq!(got.iter().filter(|(k, _, _)| *k == 1).count(), 1);
        // Stopping early never builds a later interval's images: a
        // Subsets walk stops before the interval it would refuse.
        let mut huge = barriers.clone();
        huge.push((0..17).map(|i| w(i % 4, 6, bs)).collect());
        let first = barrier_images(&base, &huge, bs, CrashPolicy::Subsets).next();
        assert_eq!(first.map(|(k, i, _)| (k, i)), Some((0, 0)));
    }

    #[test]
    fn crash_report_collects_failures() {
        let images = vec![vec![0u8], vec![1u8], vec![2u8]];
        let report = CrashReport::run(images, |_, img| {
            if img[0] == 1 {
                Err("bad state".into())
            } else {
                Ok(())
            }
        });
        assert_eq!(report.images_checked, 3);
        assert_eq!(report.failures.len(), 1);
        assert!(!report.is_clean());
        assert!(report.failures[0].contains("image 1"));
    }
}
