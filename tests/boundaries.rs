//! Integration: the safe/unverified boundary machinery working together —
//! ownership contracts across a shim, axiomatic device models underneath a
//! verified-style module, and the ledger seeing everything.

use std::sync::Arc;

use safer_kernel::core::ownership::{Access, ContractTracker, Owned};
use safer_kernel::core::shim::Boundary;
use safer_kernel::core::spec::AxiomaticDevice;
use safer_kernel::fs_safe::rsfs::{JournalMode, Rsfs};
use safer_kernel::ksim::block::{BlockDevice, DiskFaultConfig, FaultyDisk, RamDisk};
use safer_kernel::ksim::errno::Errno;
use safer_kernel::legacy::{BugClass, BugLedger, LegacyCtx};
use safer_kernel::vfs::modular::FileSystem;
use safer_kernel::vfs::shim::{export_legacy, LegacyFsAdapter};

#[test]
fn safe_fs_runs_on_an_axiomatically_checked_device() {
    // A verified-style module must state its assumptions about the block
    // layer; the axiomatic wrapper checks them at runtime. rsfs on top of
    // an honest device never trips an axiom.
    let axio = Arc::new(AxiomaticDevice::new(
        Arc::new(RamDisk::new(2048)) as Arc<dyn BlockDevice>
    ));
    let dev: Arc<dyn BlockDevice> = Arc::clone(&axio) as Arc<dyn BlockDevice>;
    Rsfs::mkfs(&dev, 128, 64).unwrap();
    let fs = Rsfs::mount(dev, JournalMode::PerOp).unwrap();
    let root = fs.root_ino();
    let f = fs.create(root, "file").unwrap();
    fs.write(f, 0, &vec![9u8; 10_000]).unwrap();
    let mut buf = vec![0u8; 10_000];
    fs.read(f, 0, &mut buf).unwrap();
    fs.unlink(root, "file").unwrap();
    assert!(axio.is_clean(), "axioms: {:?}", axio.violations());
}

#[test]
fn axioms_catch_a_corrupting_device_under_the_fs() {
    // The same module on hardware that corrupts reads: the axiomatic
    // model is what distinguishes "the verified fs is buggy" from "the
    // substrate broke its contract" (§4.4's diagnosis problem).
    let faulty = FaultyDisk::new(
        Arc::new(RamDisk::new(2048)) as Arc<dyn BlockDevice>,
        DiskFaultConfig {
            read_corrupt: 0.3,
            ..DiskFaultConfig::default()
        },
        1234,
    );
    let axio = Arc::new(AxiomaticDevice::new(faulty));
    let dev: Arc<dyn BlockDevice> = Arc::clone(&axio) as Arc<dyn BlockDevice>;
    Rsfs::mkfs(&dev, 128, 64).unwrap();
    // Mount may or may not succeed depending on which blocks rot; either
    // way, any read-back mismatch must be attributed to the device.
    if let Ok(fs) = Rsfs::mount(dev, JournalMode::None) {
        let root = fs.root_ino();
        for i in 0..10 {
            let _ = fs.create(root, &format!("f{i}"));
            if let Ok(ino) = fs.lookup(root, &format!("f{i}")) {
                let _ = fs.write(ino, 0, &vec![i as u8; 5000]);
                let mut buf = vec![0u8; 5000];
                let _ = fs.read(ino, 0, &mut buf);
            }
        }
    }
    assert!(
        !axio.is_clean(),
        "30% corruption must trip the read-after-write axiom"
    );
    assert!(axio
        .violations()
        .iter()
        .all(|v| v.axiom == "A1" || v.axiom == "A2"));
}

#[test]
fn ownership_contract_enforced_across_a_legacy_boundary() {
    // A buffer crosses from a safe caller to a "legacy" callee module.
    // The shim registers the loan with the tracker; the legacy side's
    // accesses are validated dynamically (§4.3's restricted sharing for
    // unverified code).
    let ledger = Arc::new(BugLedger::new());
    let tracker = Arc::new(ContractTracker::with_ledger(Arc::clone(&ledger)));
    let boundary = Boundary::with_tracker("safe->legacy", Arc::clone(&tracker));

    // Model 2: exclusive loan to the legacy module for the call duration.
    let mut buffer = Owned::new(vec![0u8; 64]);
    let obj = tracker.register("caller");
    tracker.lend_exclusive(obj, "caller", "legacy_module");

    // During the loan, the caller must not touch it...
    assert!(!tracker.access(obj, "caller", Access::Read));
    // ...while the callee mutates through the boundary.
    let r = boundary.cross_checked(
        |t| t.access(obj, "legacy_module", Access::Write),
        || {
            buffer.lend_exclusive()[0] = 42;
            Ok(())
        },
    );
    assert_eq!(r, Ok(()));
    tracker.return_exclusive(obj, "legacy_module");
    assert!(tracker.access(obj, "caller", Access::Read));
    assert_eq!(buffer[0], 42);

    // A rogue late access by the legacy module is refused at the boundary
    // and lands in the same ledger as the memory-safety detections.
    let r: Result<(), Errno> =
        boundary.cross_checked(|t| t.access(obj, "legacy_module", Access::Write), || Ok(()));
    assert_eq!(r, Err(Errno::EACCES));
    assert_eq!(boundary.stats().validation_failures(), 1);
    assert_eq!(
        ledger.count(BugClass::DataRace),
        2,
        "caller-during-loan + rogue access"
    );
}

#[test]
fn double_shim_roundtrip_preserves_behaviour() {
    // Safe fs → legacy ops table → modular adapter: two marshalling shims.
    // Everything still behaves identically to the direct path.
    let dev: Arc<dyn BlockDevice> = Arc::new(RamDisk::new(2048));
    Rsfs::mkfs(&dev, 128, 64).unwrap();
    let direct: Arc<dyn FileSystem> =
        Arc::new(Rsfs::mount(Arc::clone(&dev), JournalMode::None).unwrap());
    let ctx = LegacyCtx::new();
    let ops = Arc::new(export_legacy(Arc::clone(&direct), &ctx));
    let shimmed = LegacyFsAdapter::new(ops, ctx.clone());

    let root = shimmed.root_ino();
    let f = shimmed.create(root, "through-two-shims").unwrap();
    assert_eq!(shimmed.write(f, 3, b"abc").unwrap(), 3);
    let mut buf = vec![0u8; 6];
    assert_eq!(shimmed.read(f, 0, &mut buf).unwrap(), 6);
    assert_eq!(&buf, b"\0\0\0abc");
    let attr = shimmed.getattr(f).unwrap();
    assert_eq!(attr.size, 6);
    let entries = shimmed.readdir(root).unwrap();
    assert_eq!(entries.len(), 1);
    assert_eq!(entries[0].name, "through-two-shims");
    shimmed
        .rename(root, "through-two-shims", root, "renamed")
        .unwrap();
    shimmed
        .truncate(shimmed.lookup(root, "renamed").unwrap(), 2)
        .unwrap();
    shimmed.unlink(root, "renamed").unwrap();
    assert_eq!(shimmed.lookup(root, "renamed"), Err(Errno::ENOENT));
    shimmed.sync().unwrap();
    let stat = shimmed.statfs().unwrap();
    assert!(stat.blocks_free > 0);

    // Both marshalling directions ran; crossings were counted.
    assert!(shimmed.boundary().stats().crossings() >= 10);
    // The shim freed every ERR_PTR carrier it took; no leaks.
    assert_eq!(ctx.arena.live_count(), 0, "shim leaked marshalling objects");
    assert!(ctx.ledger.is_clean());
}

#[test]
fn errptr_marshalling_errors_cross_faithfully() {
    let dev: Arc<dyn BlockDevice> = Arc::new(RamDisk::new(2048));
    Rsfs::mkfs(&dev, 128, 64).unwrap();
    let direct: Arc<dyn FileSystem> =
        Arc::new(Rsfs::mount(Arc::clone(&dev), JournalMode::None).unwrap());
    let ctx = LegacyCtx::new();
    let ops = Arc::new(export_legacy(Arc::clone(&direct), &ctx));
    let shimmed = LegacyFsAdapter::new(ops, ctx);

    let root = shimmed.root_ino();
    assert_eq!(shimmed.lookup(root, "missing"), Err(Errno::ENOENT));
    assert_eq!(shimmed.getattr(9999), Err(Errno::EINVAL));
    shimmed.create(root, "x").unwrap();
    assert_eq!(shimmed.create(root, "x"), Err(Errno::EEXIST));
    assert_eq!(shimmed.rmdir(root, "x"), Err(Errno::ENOTDIR));
}
