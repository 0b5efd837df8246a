//! # sk-bench — benchmark harness and figure reproduction
//!
//! Binaries (one per paper artifact; see DESIGN.md §4 for the index):
//!
//! - `fig1_landscape` — Figure 1: the safety-vs-LoC landscape, with this
//!   workspace's own crates measured from source and placed on it.
//! - `fig2_bugs` — Figure 2a/2b/2c from the calibrated CVE dataset.
//! - `tab_categorization` — the §2 42/35/23 CVE categorization.
//! - `tab_prevention_study` — the same split, measured empirically by
//!   running every bug class through the roadmap pipelines.
//!
//! Criterion benches (`benches/`):
//!
//! - `interface_overhead` — the cost ladder of the roadmap steps.
//! - `ownership_models` — the three §4.3 sharing models vs copying
//!   message passing.
//! - `fs_throughput` — cext4 vs rsfs vs rsfs+journal per operation.
//! - `netstack_overhead` — legacy vs modular socket layer.
//! - `shim_overhead` — operations crossing 0/1/2 shim boundaries.
//!
//! Library modules shared by `bench_report` and the test suites:
//!
//! - [`mix`] — each workload defined once, with its checks;
//! - [`net`] — the socket-layer adapter over both netstack generations.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod mix;
pub mod net;

use std::path::Path;
use std::sync::Arc;

use sk_fs_legacy::{cext4_ops, BugKnobs, Cext4};
use sk_fs_safe::rsfs::{JournalMode, Rsfs};
use sk_ksim::block::{BlockDevice, RamDisk};
use sk_legacy::LegacyCtx;
use sk_vfs::shim::LegacyFsAdapter;

/// Builds a freshly formatted rsfs.
///
/// Mounted with a *disabled* lock registry: throughput benches measure
/// the uninstrumented hot path. The lockdep sections of `bench_report`
/// build their own enabled mounts.
pub fn make_rsfs(mode: JournalMode, blocks: u64) -> Rsfs {
    let dev: Arc<dyn BlockDevice> = Arc::new(RamDisk::new(blocks));
    // A quarter-device log keeps the async pipeline off the pressure
    // threshold and out of wrap-forced checkpoints for the bench
    // workloads; the per-op rows see the same format.
    Rsfs::mkfs(&dev, 1024, (blocks / 4).max(64) as u32).expect("mkfs");
    Rsfs::mount_with_registry(dev, mode, sk_ksim::lock::LockRegistry::new_disabled())
        .expect("mount")
}

/// Builds a freshly formatted cext4 behind the legacy→modular shim.
pub fn make_cext4_adapter(blocks: u64) -> LegacyFsAdapter {
    let dev: Arc<dyn BlockDevice> = Arc::new(RamDisk::new(blocks));
    Cext4::mkfs(&dev, 1024).expect("mkfs");
    let ctx = LegacyCtx::new();
    let fs = Arc::new(Cext4::mount(dev, ctx.clone(), Arc::new(BugKnobs::none())).expect("mount"));
    LegacyFsAdapter::new(Arc::new(cext4_ops(fs)), ctx)
}

/// Counts non-empty, non-comment-only lines of `.rs` files under `dir`.
pub fn count_loc(dir: &Path) -> std::io::Result<u64> {
    let mut total = 0u64;
    if dir.is_file() {
        if dir.extension().map(|e| e == "rs").unwrap_or(false) {
            let text = std::fs::read_to_string(dir)?;
            total += text
                .lines()
                .filter(|l| {
                    let t = l.trim();
                    !t.is_empty() && !t.starts_with("//")
                })
                .count() as u64;
        }
        return Ok(total);
    }
    if dir.is_dir() {
        for entry in std::fs::read_dir(dir)? {
            let entry = entry?;
            total += count_loc(&entry.path())?;
        }
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sk_vfs::modular::FileSystem;

    #[test]
    fn fixtures_build_and_serve() {
        let rs = make_rsfs(JournalMode::PerOp, 1024);
        let ino = rs.create(rs.root_ino(), "x").unwrap();
        assert!(rs.getattr(ino).is_ok());
        let cx = make_cext4_adapter(1024);
        let ino = cx.create(cx.root_ino(), "y").unwrap();
        assert!(cx.getattr(ino).is_ok());
    }

    #[test]
    fn loc_counter_counts_this_crate() {
        let here = Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
        let loc = count_loc(&here).unwrap();
        assert!(loc > 50, "got {loc}");
    }
}
