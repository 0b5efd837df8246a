//! The bug catalog: one representative, runnable bug per CWE class of the
//! paper's corpus, with the mechanism that instantiates and evaluates it.

use std::sync::Arc;

use sk_cvedb::Prevention;
use sk_ksim::errno::Errno;
use sk_ksim::time::SimClock;
use sk_legacy::{BugClass, LegacyCtx};
use sk_netstack::legacy_stack::{LegacyStack, OP_AMP_MOVE};
use sk_netstack::modular_stack::{register_families, ModularStack};
use sk_netstack::packet::{proto, Packet};
use sk_netstack::wire::{Side, Wire};

use crate::pipelines::{run_legacy, run_safe, run_spec_checked, RunOutcome};
use crate::semantic::{SemanticBug, SemanticFaultFs};

/// How a spec instantiates its bug and evaluates the pipelines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mechanism {
    /// A cext4 bug knob; manifestation counted as `class` detector events.
    LegacyFsKnob {
        /// Knob name (see `sk_fs_legacy::BugKnobs`).
        knob: &'static str,
        /// The detector class that counts as manifestation.
        class: BugClass,
    },
    /// The §4.1 coupling: generic poll casting UDP protinfo to TCP state.
    LegacyNetPoll,
    /// The CVE-2020-12351 analogue: crafted AMP packet mis-casts a channel.
    LegacyNetAmp,
    /// A semantic bug injected around the safe file system.
    Semantic(SemanticBug),
    /// CWE-190: wrapping size arithmetic bypassing a bounds check.
    NumericWrap,
    /// CWE-200: an interface that exposes internal state the spec doesn't
    /// constrain.
    InfoLeak,
    /// CWE-264: a missing permission model — a design flaw no checker in
    /// the roadmap sees.
    DesignFlaw,
    /// CWE-330: predictable initial sequence numbers.
    WeakEntropy,
    /// CWE-459: crash consistency — without a journal, a crash during
    /// writeback leaves a state that is neither the previous nor the new
    /// synced version. Type/ownership safety does not help (the
    /// un-journaled safe fs tears identically); only the crash
    /// *specification* — checked by enumeration or a refinement crash
    /// step — names the bug.
    CrashLoss,
}

/// One catalog entry.
#[derive(Debug, Clone, Copy)]
pub struct BugSpec {
    /// Short name.
    pub name: &'static str,
    /// The CWE this spec represents.
    pub cwe: &'static str,
    /// The prevention category the paper's §2 mapping assigns.
    pub expected: Prevention,
    /// How to instantiate and evaluate it.
    pub mechanism: Mechanism,
}

/// The full catalog.
pub fn catalog() -> Vec<BugSpec> {
    use Mechanism::*;
    vec![
        BugSpec {
            name: "uaf_inode_private",
            cwe: "CWE-416",
            expected: Prevention::TypeOwnership,
            mechanism: LegacyFsKnob {
                knob: "uaf_inode_private",
                class: BugClass::UseAfterFree,
            },
        },
        BugSpec {
            name: "deref_errptr_lookup",
            cwe: "CWE-476",
            expected: Prevention::TypeOwnership,
            mechanism: LegacyFsKnob {
                knob: "deref_errptr_lookup",
                class: BugClass::ErrPtrDeref,
            },
        },
        BugSpec {
            name: "wrong_cast_write_end",
            cwe: "CWE-787",
            expected: Prevention::TypeOwnership,
            mechanism: LegacyFsKnob {
                knob: "wrong_cast_write_end",
                class: BugClass::TypeConfusion,
            },
        },
        BugSpec {
            name: "amp_type_confusion",
            cwe: "CWE-787",
            expected: Prevention::TypeOwnership,
            mechanism: LegacyNetAmp,
        },
        BugSpec {
            name: "off_by_one_dirent",
            cwe: "CWE-125",
            expected: Prevention::TypeOwnership,
            mechanism: LegacyFsKnob {
                knob: "off_by_one_dirent",
                class: BugClass::OutOfBounds,
            },
        },
        BugSpec {
            name: "racy_truncate",
            cwe: "CWE-362",
            expected: Prevention::TypeOwnership,
            mechanism: LegacyFsKnob {
                knob: "racy_truncate",
                class: BugClass::DataRace,
            },
        },
        BugSpec {
            name: "reversed_double_lock",
            cwe: "CWE-667",
            expected: Prevention::TypeOwnership,
            mechanism: LegacyFsKnob {
                knob: "reversed_double_lock",
                class: BugClass::LockInversion,
            },
        },
        BugSpec {
            name: "double_free_fsdata",
            cwe: "CWE-415",
            expected: Prevention::TypeOwnership,
            mechanism: LegacyFsKnob {
                knob: "double_free_fsdata",
                class: BugClass::DoubleFree,
            },
        },
        BugSpec {
            name: "leak_fsdata",
            cwe: "CWE-401",
            expected: Prevention::TypeOwnership,
            mechanism: LegacyFsKnob {
                knob: "leak_fsdata",
                class: BugClass::MemoryLeak,
            },
        },
        BugSpec {
            name: "poll_assumes_tcp",
            cwe: "CWE-843",
            expected: Prevention::TypeOwnership,
            mechanism: LegacyNetPoll,
        },
        // Functional-correctness class.
        BugSpec {
            name: "write_ignores_offset",
            cwe: "CWE-20",
            expected: Prevention::Functional,
            mechanism: Semantic(SemanticBug::WriteIgnoresOffset),
        },
        BugSpec {
            name: "rename_drops_target",
            cwe: "CWE-840",
            expected: Prevention::Functional,
            mechanism: Semantic(SemanticBug::RenameDropsTarget),
        },
        BugSpec {
            name: "truncate_rounds_up",
            cwe: "CWE-682",
            expected: Prevention::Functional,
            mechanism: Semantic(SemanticBug::TruncateRoundsUp),
        },
        BugSpec {
            name: "unlink_leaves_entry",
            cwe: "CWE-459",
            expected: Prevention::Functional,
            mechanism: Semantic(SemanticBug::UnlinkLeavesEntry),
        },
        BugSpec {
            name: "rmdir_ignores_nonempty",
            cwe: "CWE-269",
            expected: Prevention::Functional,
            mechanism: Semantic(SemanticBug::RmdirIgnoresNonempty),
        },
        BugSpec {
            name: "crash_tears_synced_write",
            cwe: "CWE-459",
            expected: Prevention::Functional,
            mechanism: CrashLoss,
        },
        // The residual 23%.
        BugSpec {
            name: "attr_info_leak",
            cwe: "CWE-200",
            expected: Prevention::Other,
            mechanism: InfoLeak,
        },
        BugSpec {
            name: "wrapping_size_math",
            cwe: "CWE-190",
            expected: Prevention::Other,
            mechanism: NumericWrap,
        },
        BugSpec {
            name: "missing_permission_model",
            cwe: "CWE-264",
            expected: Prevention::Other,
            mechanism: DesignFlaw,
        },
        BugSpec {
            name: "predictable_isn",
            cwe: "CWE-330",
            expected: Prevention::Other,
            mechanism: WeakEntropy,
        },
    ]
}

/// Picks the catalog spec for a corpus CWE; `salt` rotates among specs
/// that share a CWE.
pub fn spec_for_cwe(cwe: &str, salt: u64) -> Option<BugSpec> {
    let matching: Vec<BugSpec> = catalog().into_iter().filter(|s| s.cwe == cwe).collect();
    if matching.is_empty() {
        return None;
    }
    Some(matching[(salt as usize) % matching.len()])
}

// --- mechanism evaluations -------------------------------------------------

fn legacy_net_pair() -> (LegacyStack, LegacyStack) {
    let wire = Arc::new(Wire::new());
    let clock = Arc::new(SimClock::new());
    (
        LegacyStack::new(LegacyCtx::new(), Side::A, wire.clone(), Arc::clone(&clock)),
        LegacyStack::new(LegacyCtx::new(), Side::B, wire, clock),
    )
}

fn modular_net() -> ModularStack {
    let registry = Arc::new(sk_core::modularity::Registry::new());
    register_families(&registry).expect("register families");
    let wire = Arc::new(Wire::new());
    let clock = Arc::new(SimClock::new());
    ModularStack::new(registry, Side::A, wire, clock)
}

/// Evaluates the legacy (baseline) pipeline for a spec.
pub fn eval_baseline(spec: &BugSpec, seed: u64) -> RunOutcome {
    match spec.mechanism {
        Mechanism::LegacyFsKnob { knob, class } => run_legacy(knob, class, seed),
        Mechanism::NumericWrap => {
            // The wrap only triggers at extreme offsets; drive it directly.
            let out = run_legacy("wrapping_size_math", BugClass::IntegerOverflow, seed);
            if out.class_events > 0 {
                return out;
            }
            // The standard workload doesn't reach the wrap; use the
            // dedicated huge-offset probe.
            overflow_probe_legacy(seed)
        }
        Mechanism::LegacyNetPoll => {
            let (a, _b) = legacy_net_pair();
            let s = a
                .socket(proto::UDP, 1000 + (seed % 100) as u16)
                .expect("socket");
            let _ = a.poll(s);
            RunOutcome {
                class_events: a.ctx().ledger.count(BugClass::TypeConfusion),
                leaks: 0,
                state_correct: false, // poll returned a bogus answer
                refinement_violations: 0,
            }
        }
        Mechanism::LegacyNetAmp => {
            let (a, _b) = legacy_net_pair();
            a.create_l2cap_channel(0x40, 672);
            a.create_amp_channel(0x41, 1);
            let mut evil = Packet::new(proto::AMP_CTRL, 1, 1);
            evil.payload = vec![OP_AMP_MOVE, 0x40, 0x00, (seed % 256) as u8];
            let _ = a.handle_ctrl_packet(&evil);
            RunOutcome {
                class_events: a.ctx().ledger.count(BugClass::TypeConfusion),
                leaks: 0,
                state_correct: false,
                refinement_violations: 0,
            }
        }
        Mechanism::Semantic(bug) => {
            // "Baseline" for a semantic bug is the same wrong logic in the
            // legacy world — state divergence with nothing detecting it.
            run_safe(move |fs| Box::new(SemanticFaultFs::new(fs, bug)), seed)
        }
        Mechanism::InfoLeak => info_leak_probe(),
        Mechanism::DesignFlaw => design_flaw_probe(seed),
        Mechanism::WeakEntropy => weak_entropy_probe(),
        Mechanism::CrashLoss => crash_loss_probe_legacy(seed),
    }
}

/// Evaluates the type+ownership (safe implementation) pipeline.
pub fn eval_safe(spec: &BugSpec, seed: u64) -> RunOutcome {
    match spec.mechanism {
        Mechanism::LegacyFsKnob { .. } => run_safe(|fs| Box::new(fs), seed),
        Mechanism::NumericWrap => overflow_probe_safe(seed),
        Mechanism::LegacyNetPoll => {
            let a = modular_net();
            let s = a.socket("udp", 1000 + (seed % 100) as u16).expect("socket");
            let ok = a.poll(s) == Ok(false);
            RunOutcome {
                class_events: 0,
                leaks: 0,
                state_correct: ok,
                refinement_violations: 0,
            }
        }
        Mechanism::LegacyNetAmp => {
            let a = modular_net();
            a.create_l2cap_channel(0x40, 672);
            a.create_amp_channel(0x41, 1);
            let mut evil = Packet::new(proto::AMP_CTRL, 1, 1);
            evil.payload = vec![OP_AMP_MOVE, 0x40, 0x00, (seed % 256) as u8];
            let refused = a.handle_ctrl_packet(&evil) == Err(Errno::EPROTO);
            RunOutcome {
                class_events: 0,
                leaks: 0,
                state_correct: refused,
                refinement_violations: 0,
            }
        }
        Mechanism::Semantic(bug) => {
            run_safe(move |fs| Box::new(SemanticFaultFs::new(fs, bug)), seed)
        }
        Mechanism::InfoLeak => info_leak_probe(),
        Mechanism::DesignFlaw => design_flaw_probe(seed),
        Mechanism::WeakEntropy => weak_entropy_probe(),
        // Type/ownership safety alone buys no crash consistency: the
        // un-journaled rsfs tears exactly like cext4.
        Mechanism::CrashLoss => crash_loss_probe_safe(seed),
    }
}

/// Evaluates the functional-correctness pipeline.
pub fn eval_spec_checked(spec: &BugSpec, seed: u64) -> RunOutcome {
    match spec.mechanism {
        Mechanism::Semantic(bug) => {
            run_spec_checked(move |fs| Box::new(SemanticFaultFs::new(fs, bug)), seed)
        }
        Mechanism::CrashLoss => crash_loss_probe_spec_checked(seed),
        // Memory-safety classes never reach this pipeline (already
        // prevented); the residual classes run the checker and stay clean —
        // which *is* the measurement: the spec does not constrain them.
        _ => run_spec_checked(|fs| Box::new(fs), seed),
    }
}

// --- residual-category probes ------------------------------------------------

/// CWE-190 on the legacy side: offsets near `u64::MAX` wrap past the
/// bounds check and are detected as `IntegerOverflow` by the substrate.
fn overflow_probe_legacy(seed: u64) -> RunOutcome {
    use sk_fs_legacy::{BugKnobs, Cext4};
    use sk_ksim::block::{BlockDevice, RamDisk};
    let dev: Arc<dyn BlockDevice> = Arc::new(RamDisk::new(512));
    Cext4::mkfs(&dev, 64).expect("mkfs");
    let ctx = LegacyCtx::new();
    let knobs = Arc::new(BugKnobs::none());
    knobs.set("wrapping_size_math", true);
    let fs = Cext4::mount(dev, ctx.clone(), knobs).expect("mount");
    let e = fs.create_errptr(fs.root_ino(), "f", 1);
    let ino = e
        .check()
        .ok()
        .and_then(|p| ctx.vp_take::<u64>(p, "study"))
        .unwrap_or(0);
    let _ = fs.write_range(ino, u64::MAX - 2 - (seed % 8), b"xyz");
    RunOutcome {
        class_events: ctx.ledger.count(BugClass::IntegerOverflow),
        leaks: 0,
        state_correct: false,
        refinement_violations: 0,
    }
}

/// The same probe against rsfs: checked arithmetic refuses with
/// `EOVERFLOW` and the state is untouched. (Prevented — but by the
/// *optional* overflow-check discipline, not by type/ownership safety; the
/// study still files CWE-190 under "other", as the paper does, and reports
/// this as the "mandatory overflow checks" sub-finding of §2.)
fn overflow_probe_safe(seed: u64) -> RunOutcome {
    use sk_fs_safe::rsfs::{JournalMode, Rsfs};
    use sk_ksim::block::{BlockDevice, RamDisk};
    use sk_vfs::modular::FileSystem;
    let dev: Arc<dyn BlockDevice> = Arc::new(RamDisk::new(1024));
    Rsfs::mkfs(&dev, 64, 64).expect("mkfs");
    let fs = Rsfs::mount(dev, JournalMode::PerOp).expect("mount");
    let ino = fs.create(fs.root_ino(), "f").expect("create");
    let refused = matches!(
        fs.write(ino, u64::MAX - 2 - (seed % 8), b"xyz"),
        Err(Errno::EOVERFLOW) | Err(Errno::EFBIG)
    );
    RunOutcome {
        class_events: 0,
        leaks: 0,
        state_correct: refused && fs.getattr(ino).map(|a| a.size == 0).unwrap_or(false),
        refinement_violations: 0,
    }
}

/// CWE-200: `getattr` exposes the kernel-internal operation counter
/// through `mtime_ns` — observable, unconstrained by the model.
fn info_leak_probe() -> RunOutcome {
    use sk_fs_safe::rsfs::{JournalMode, Rsfs};
    use sk_ksim::block::{BlockDevice, RamDisk};
    use sk_vfs::modular::FileSystem;
    let dev: Arc<dyn BlockDevice> = Arc::new(RamDisk::new(1024));
    Rsfs::mkfs(&dev, 64, 64).expect("mkfs");
    let fs = Rsfs::mount(dev, JournalMode::None).expect("mount");
    let a = fs.create(fs.root_ino(), "a").expect("create");
    let b = fs.create(fs.root_ino(), "b").expect("create");
    let ta = fs.getattr(a).expect("attr").mtime_ns;
    let tb = fs.getattr(b).expect("attr").mtime_ns;
    // The leak: internal op ordering is recoverable from public attrs.
    let leaks_internal_state = tb > ta;
    RunOutcome {
        class_events: 0,
        leaks: 0,
        state_correct: !leaks_internal_state,
        refinement_violations: 0,
    }
}

/// CWE-264: any caller may unlink any file — there is no permission model
/// to violate, which is itself the flaw.
fn design_flaw_probe(seed: u64) -> RunOutcome {
    use sk_fs_safe::rsfs::{JournalMode, Rsfs};
    use sk_ksim::block::{BlockDevice, RamDisk};
    use sk_vfs::modular::FileSystem;
    let dev: Arc<dyn BlockDevice> = Arc::new(RamDisk::new(1024));
    Rsfs::mkfs(&dev, 64, 64).expect("mkfs");
    let fs = Rsfs::mount(dev, JournalMode::None).expect("mount");
    let name = format!("victim{seed}");
    fs.create(fs.root_ino(), &name).expect("create");
    // "Another user" deletes it; nothing refuses.
    let unauthorized_delete_succeeded = fs.unlink(fs.root_ino(), &name).is_ok();
    RunOutcome {
        class_events: 0,
        leaks: 0,
        state_correct: !unauthorized_delete_succeeded,
        refinement_violations: 0,
    }
}

// --- crash-consistency probes (CWE-459) --------------------------------------

use sk_core::spec::crash::{barrier_images, CrashPolicy};
use sk_ksim::block::{BlockDevice, CrashDevice, PendingWrite, RamDisk, BLOCK_SIZE};
use sk_vfs::modular::FileSystem;

/// A crash device over a RAM disk whose durable image the probes
/// snapshot through `inner()`.
fn crash_device() -> (Arc<CrashDevice<Arc<RamDisk>>>, Arc<dyn BlockDevice>) {
    let crash = Arc::new(CrashDevice::new(Arc::new(RamDisk::new(1024))));
    let dyn_dev: Arc<dyn BlockDevice> = Arc::clone(&crash) as Arc<dyn BlockDevice>;
    (crash, dyn_dev)
}

/// The two-version crash scenario: a two-block file is written and
/// synced (version 1), then overwritten and synced again. Returns the
/// durable image as of version 1, the barrier log of the second
/// sync, and both payloads.
#[allow(clippy::type_complexity)]
fn crash_schedule(
    fs: &dyn FileSystem,
    crash: &CrashDevice<Arc<RamDisk>>,
    seed: u64,
) -> (Vec<u8>, Vec<Vec<PendingWrite>>, Vec<u8>, Vec<u8>) {
    let v1 = vec![seed as u8; 2 * BLOCK_SIZE];
    let v2 = vec![!(seed as u8); 2 * BLOCK_SIZE];
    let root = fs.root_ino();
    let ino = fs.create(root, "cf").expect("create");
    fs.write(ino, 0, &v1).expect("write v1");
    fs.sync().expect("sync v1");
    let base = crash.inner().snapshot();
    crash.take_barriers();
    fs.write(ino, 0, &v2).expect("write v2");
    fs.sync().expect("sync v2");
    (base, crash.take_barriers(), v1, v2)
}

/// Enumerates every prefix crash image of the second sync and returns
/// the first whose recovered file content is *neither* synced version —
/// the torn state the crash spec forbids. `reread` mounts an image and
/// returns the file's content (`None` = unreadable, which also counts).
fn find_torn_image(
    base: &[u8],
    barriers: &[Vec<PendingWrite>],
    v1: &[u8],
    v2: &[u8],
    reread: impl Fn(&[u8]) -> Option<Vec<u8>>,
) -> Option<Vec<u8>> {
    barrier_images(base, barriers, BLOCK_SIZE, CrashPolicy::Prefixes)
        .map(|(_, _, img)| img)
        .find(|img| !matches!(reread(img), Some(content) if content == v1 || content == v2))
}

fn reread_rsfs_none(img: &[u8]) -> Option<Vec<u8>> {
    use sk_fs_safe::rsfs::{JournalMode, Rsfs};
    let ram = Arc::new(RamDisk::new(1024));
    ram.restore(img).ok()?;
    let dev: Arc<dyn BlockDevice> = ram;
    let fs = Rsfs::mount(dev, JournalMode::None).ok()?;
    let ino = fs.lookup(fs.root_ino(), "cf").ok()?;
    let mut buf = vec![0u8; 4 * BLOCK_SIZE];
    let n = fs.read(ino, 0, &mut buf).ok()?;
    buf.truncate(n);
    Some(buf)
}

/// CWE-459 on the legacy side: cext4 has no journal, so a crash during
/// writeback can land *between* the two synced versions — a state the
/// crash specification forbids, with no detector class to count it.
fn crash_loss_probe_legacy(seed: u64) -> RunOutcome {
    use sk_fs_legacy::{cext4_ops, BugKnobs, Cext4};
    use sk_vfs::shim::LegacyFsAdapter;
    let (crash, dev) = crash_device();
    Cext4::mkfs(&dev, 128).expect("mkfs");
    let ctx = LegacyCtx::new();
    let fs = Arc::new(Cext4::mount(dev, ctx.clone(), Arc::new(BugKnobs::none())).expect("mount"));
    let adapter = LegacyFsAdapter::new(Arc::new(cext4_ops(fs)), ctx);
    let (base, barriers, v1, v2) = crash_schedule(&adapter, &crash, seed);
    let torn = find_torn_image(&base, &barriers, &v1, &v2, |img| {
        let ram = Arc::new(RamDisk::new(1024));
        ram.restore(img).ok()?;
        let dev: Arc<dyn BlockDevice> = ram;
        let ctx = LegacyCtx::new();
        let fs = Arc::new(Cext4::mount(dev, ctx.clone(), Arc::new(BugKnobs::none())).ok()?);
        let adapter = LegacyFsAdapter::new(Arc::new(cext4_ops(fs)), ctx);
        let ino = adapter.lookup(adapter.root_ino(), "cf").ok()?;
        let mut buf = vec![0u8; 4 * BLOCK_SIZE];
        let n = adapter.read(ino, 0, &mut buf).ok()?;
        buf.truncate(n);
        Some(buf)
    })
    .is_some();
    RunOutcome {
        class_events: 0,
        leaks: 0,
        state_correct: !torn,
        refinement_violations: 0,
    }
}

/// The same probe against the *un-journaled* safe fs: memory safety is
/// irrelevant to crash consistency, so the tear manifests identically —
/// which is exactly why this class files under Functional.
fn crash_loss_probe_safe(seed: u64) -> RunOutcome {
    use sk_fs_safe::rsfs::{JournalMode, Rsfs};
    let (crash, dev) = crash_device();
    Rsfs::mkfs(&dev, 128, 64).expect("mkfs");
    let fs = Rsfs::mount(dev, JournalMode::None).expect("mount");
    let (base, barriers, v1, v2) = crash_schedule(&fs, &crash, seed);
    let torn = find_torn_image(&base, &barriers, &v1, &v2, reread_rsfs_none).is_some();
    RunOutcome {
        class_events: 0,
        leaks: 0,
        state_correct: !torn,
        refinement_violations: 0,
    }
}

/// The crash spec as a checkable refinement step: the checker drives the
/// un-journaled fs to version 2, crashes it mid-sync onto the worst
/// enumerated image, recovers, and requires the recovered abstraction to
/// be one of the two synced versions. The torn image is the recorded
/// counterexample. (The journaled rsfs passes this same step — that is
/// `tests/crash_recovery.rs`.)
fn crash_loss_probe_spec_checked(seed: u64) -> RunOutcome {
    use sk_core::spec::{RefinementChecker, Refines};
    use sk_fs_safe::rsfs::{JournalMode, Rsfs};
    use sk_vfs::spec::FsModel;

    struct CrashSys {
        fs: Option<Rsfs>,
    }
    impl Refines<FsModel> for CrashSys {
        fn abstraction(&self) -> FsModel {
            self.fs.as_ref().expect("mounted").abstraction()
        }
    }

    let (crash, dev) = crash_device();
    Rsfs::mkfs(&dev, 128, 64).expect("mkfs");
    let fs = Rsfs::mount(dev, JournalMode::None).expect("mount");

    let v1 = vec![seed as u8; 2 * BLOCK_SIZE];
    let v2 = vec![!(seed as u8); 2 * BLOCK_SIZE];
    // Setup (not under test): reach synced version 1, then stage v2.
    let ino = fs.create(fs.root_ino(), "cf").expect("create");
    fs.write(ino, 0, &v1).expect("write v1");
    fs.sync().expect("sync v1");
    let mut sys = CrashSys { fs: Some(fs) };
    let model_v1 = sys.abstraction();
    let base = crash.inner().snapshot();
    crash.take_barriers();
    sys.fs
        .as_ref()
        .unwrap()
        .write(ino, 0, &v2)
        .expect("write v2");

    let mut chk: RefinementChecker<FsModel> = RefinementChecker::new();
    chk.step(
        &mut sys,
        "crash_during_sync",
        |s| {
            let fs = s.fs.take().expect("mounted");
            fs.sync().expect("sync v2");
            drop(fs);
            let img = find_torn_image(&base, &crash.take_barriers(), &v1, &v2, reread_rsfs_none)
                .unwrap_or_else(|| crash.inner().snapshot());
            let ram2 = Arc::new(RamDisk::new(1024));
            ram2.restore(&img).expect("restore");
            let dev2: Arc<dyn BlockDevice> = ram2;
            s.fs = Some(Rsfs::mount(dev2, JournalMode::None).expect("remount"));
        },
        // The crash spec: recovery yields a synced version — the one
        // before the interrupted sync, or the one it was writing.
        |pre, post, _| *post == *pre || *post == model_v1,
    );
    RunOutcome {
        class_events: 0,
        leaks: 0,
        state_correct: chk.is_clean(),
        refinement_violations: chk.violations().len(),
    }
}

/// CWE-330: initial sequence numbers increment by a fixed stride — an
/// off-path attacker who saw one ISS can predict the next. Measured by
/// observing two SYNs on the wire.
fn weak_entropy_probe() -> RunOutcome {
    let wire = Arc::new(Wire::new());
    let clock = Arc::new(SimClock::new());
    let a = LegacyStack::new(LegacyCtx::new(), Side::A, wire.clone(), clock);
    let s1 = a.socket(proto::TCP, 10).expect("socket");
    let s2 = a.socket(proto::TCP, 11).expect("socket");
    a.connect(s1, 80).expect("connect");
    a.connect(s2, 80).expect("connect");
    let syn1 = wire.recv(Side::B).expect("frame").expect("syn1");
    let syn2 = wire.recv(Side::B).expect("frame").expect("syn2");
    // The ISS generator Weyl-steps a counter salted with nothing but
    // public inputs — port and link side. Zero entropy: an off-path
    // attacker who saw one SYN (seq + source port on the wire) computes
    // the next connection's ISS exactly. Memory safety is indifferent
    // to this; only a randomized ISS would close it.
    let port_salt = u32::from(syn2.src_port)
        .wrapping_sub(u32::from(syn1.src_port))
        .wrapping_mul(0x85EB_CA6B);
    let predicted = syn1.seq.wrapping_add(0x9E37_79B9).wrapping_add(port_salt);
    let predictable = syn2.seq == predicted;
    RunOutcome {
        class_events: 0,
        leaks: 0,
        state_correct: !predictable,
        refinement_violations: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_covers_every_corpus_cwe() {
        for (cwe, _) in sk_cvedb::dataset::CWE_MIX {
            assert!(
                spec_for_cwe(cwe, 0).is_some(),
                "no spec for corpus CWE {cwe}"
            );
        }
    }

    #[test]
    fn catalog_expectations_match_cvedb_mapping_for_memory_classes() {
        for spec in catalog() {
            let mapped = sk_cvedb::categorize_cwe(spec.cwe);
            assert_eq!(
                mapped, spec.expected,
                "{}: catalog says {:?}, cvedb mapping says {:?}",
                spec.name, spec.expected, mapped
            );
        }
    }

    #[test]
    fn cwe_rotation_is_stable() {
        let a = spec_for_cwe("CWE-787", 0).unwrap();
        let b = spec_for_cwe("CWE-787", 1).unwrap();
        let a2 = spec_for_cwe("CWE-787", 0).unwrap();
        assert_eq!(a.name, a2.name);
        assert_ne!(a.name, b.name, "two specs share CWE-787");
    }

    #[test]
    fn baseline_manifests_for_every_spec() {
        for spec in catalog() {
            let out = eval_baseline(&spec, 11);
            assert!(
                out.manifested(),
                "{}: baseline must manifest, got {out:?}",
                spec.name
            );
        }
    }

    #[test]
    fn safe_pipeline_stops_exactly_the_memory_classes() {
        for spec in catalog() {
            let out = eval_safe(&spec, 12);
            match spec.expected {
                Prevention::TypeOwnership => {
                    assert!(
                        !out.manifested(),
                        "{}: safe pipeline must prevent, got {out:?}",
                        spec.name
                    );
                }
                Prevention::Functional => {
                    assert!(
                        out.manifested(),
                        "{}: semantic bug must slip through, got {out:?}",
                        spec.name
                    );
                }
                Prevention::Other => {
                    // CWE-190 is special: rsfs's optional ovf discipline
                    // refuses it; the rest still manifest.
                    if spec.cwe != "CWE-190" {
                        assert!(out.manifested(), "{}: should survive", spec.name);
                    }
                }
            }
        }
    }

    #[test]
    fn spec_pipeline_catches_exactly_the_functional_classes() {
        for spec in catalog() {
            let out = eval_spec_checked(&spec, 13);
            match spec.expected {
                Prevention::Functional => assert!(
                    out.refinement_violations > 0,
                    "{}: checker must produce a counterexample",
                    spec.name
                ),
                _ => assert_eq!(
                    out.refinement_violations, 0,
                    "{}: checker stays clean",
                    spec.name
                ),
            }
        }
    }
}
