//! Crash consistency, exhaustively checked (§4.4).
//!
//! "A crash-safe file system can be modeled as a map of path strings to
//! file content bytes that is guaranteed to recover to the last synced
//! version given any crash."
//!
//! This example runs rsfs on a crash-capturing device, performs one
//! mutating operation, and enumerates **every** moment power could have
//! failed during it: the journal's commit protocol issues flush barriers,
//! so the write sequence divides into barrier intervals, and within each
//! interval any prefix of the writes may have reached the medium. Every
//! resulting disk image is recovered (journal replay runs inside `mount`)
//! and its abstraction checked to be either the pre-op or the post-op
//! model — never a torn in-between.
//!
//! ```text
//! cargo run --example crash_consistency
//! ```

use std::sync::Arc;

use safer_kernel::core::spec::crash::{barrier_images, CrashPolicy, CrashReport};
use safer_kernel::core::spec::Refines;
use safer_kernel::fs_safe::rsfs::{JournalMode, Rsfs};
use safer_kernel::ksim::block::{BlockDevice, CrashDevice, RamDisk, BLOCK_SIZE};
use safer_kernel::vfs::modular::FileSystem;

fn main() {
    // rsfs on a crash device over a RAM disk we can snapshot. The crash
    // device logs the pending write set at every flush barrier, so the
    // example can replay each barrier interval's prefixes afterwards.
    let ram = Arc::new(RamDisk::new(2048));
    let crash = Arc::new(CrashDevice::new(Arc::clone(&ram)));
    let dev: Arc<dyn BlockDevice> = Arc::clone(&crash) as Arc<dyn BlockDevice>;
    Rsfs::mkfs(&dev, 128, 64).expect("mkfs");

    let fs = Rsfs::mount(dev, JournalMode::PerOp).expect("mount");
    let root = fs.root_ino();
    let f = fs.create(root, "ledger").expect("create");
    fs.write(f, 0, b"balance=100").expect("write");
    let pre_model = fs.abstraction();
    let base_image = ram.snapshot();
    crash.take_barriers(); // Only watch the operation under test.
    println!(
        "pre-crash state: {:?}",
        pre_model.files.keys().collect::<Vec<_>>()
    );

    // The operation under test: an overwrite that must be atomic,
    // followed by the sync that checkpoints the journaled record home
    // (checkpointing is deferred, so the home-block writes only happen
    // here — the claim is "recovers to the last *synced* version").
    fs.write(f, 0, b"balance=042").expect("write");
    fs.sync().expect("sync");
    let post_model = fs.abstraction();
    let barriers = crash.take_barriers();
    let total_writes: usize = barriers.iter().map(|i| i.len()).sum();
    println!(
        "the operation issued {} device writes across {} flush barriers",
        total_writes,
        barriers.len()
    );

    // Enumerate every crash point: each barrier interval contributes its
    // prefixes over the state left by fully-applied earlier intervals.
    let all_images: Vec<Vec<u8>> =
        barrier_images(&base_image, &barriers, BLOCK_SIZE, CrashPolicy::Prefixes)
            .map(|(_, _, img)| img)
            .collect();
    println!("enumerating {} crash points...", all_images.len());

    let report = CrashReport::run(all_images, |i, img| {
        let scratch = Arc::new(RamDisk::new(2048));
        scratch.restore(img).map_err(|e| e.to_string())?;
        let scratch_dyn: Arc<dyn BlockDevice> = scratch;
        // Journal recovery runs inside mount, exactly as at boot.
        let recovered = Rsfs::mount(scratch_dyn, JournalMode::PerOp).map_err(|e| e.to_string())?;
        let model = recovered.abstraction();
        if model == pre_model || model == post_model {
            Ok(())
        } else {
            Err(format!(
                "crash point {i} recovered to neither pre nor post state: {model:?}"
            ))
        }
    });

    println!(
        "checked {} crash images: {}",
        report.images_checked,
        if report.is_clean() {
            "every one recovers to the pre-op or the committed post-op state"
        } else {
            "FAILURES FOUND"
        }
    );
    for failure in &report.failures {
        println!("  {failure}");
    }
    assert!(report.is_clean());
    assert!(
        report.images_checked > 5,
        "the enumeration must be nontrivial"
    );
    println!(
        "journal stats: {:?}",
        fs.journal().expect("journaled").stats()
    );
}
