//! `swap-mixed`: the hot-swap mix across live generation swaps.
//!
//! The calls are those of `bench_report`'s hot-swap measurement
//! (DESIGN.md §17; EXPERIMENTS.md, blackout table): workers call the VFS
//! on two directories of 24 files of 256 bytes, each call drawn by a
//! xorshift step — an 8-byte overwrite at offset 0 one time in four, a
//! stat one time in four, a whole-file read otherwise. Here `WORKERS`
//! closed-loop workers run it while the migrator replaces the file
//! system under the VFS every `SWAP_EVERY`, alternating between the
//! legacy generation (cext4 behind the shim) and rsfs in per-op journal
//! mode. A call that arrives during a swap waits at the gate, so its
//! latency includes the blackout as a caller sees it; a blackout stalls
//! only the calls in flight, so it shows in throughput and in the
//! per-layer blackout share more than in p99.
//!
//! Checks: every read returns 256 bytes whose tail past the 8-byte head
//! is still the initial fill, and every stat reports 256 bytes. Each
//! worker remembers the last head it wrote to each file; at the end a
//! file's head must be one of those (the initial fill if nobody wrote
//! it), so a write lost across a swap fails the run unless another
//! worker's later write covered it.

use std::sync::Arc;
use std::time::{Duration, Instant};

use sk_core::modularity::Registry;
use sk_fs_safe::rsfs::JournalMode;
use sk_ksim::block::{BlockDevice, DeviceStats};
use sk_vfs::migrate::Migrator;
use sk_vfs::modular::FileSystem;
use sk_vfs::path::{Vfs, FS_INTERFACE};

use crate::layers::{self, C};
use crate::report::{Outcome, Window};
use crate::sys::{self, Rng};
use crate::{sleep_until, Plan};

const DIRS: usize = 2;
const FILES_PER_DIR: usize = 24;
const FILES: usize = DIRS * FILES_PER_DIR;
const FILE_LEN: usize = 256;
const HEAD: usize = 8;
const FILL: u8 = 0xA5;
const WORKERS: usize = 2;
const SWAP_EVERY: Duration = Duration::from_millis(250);
const GEN_BLOCKS: u64 = 8192;
const GEN_INODES: u32 = 1024;

struct System {
    registry: Registry,
    vfs: Arc<Vfs>,
    dev: Arc<dyn BlockDevice>,
}

fn path(file: usize) -> String {
    format!("/d{}/f{}", file / FILES_PER_DIR, file % FILES_PER_DIR)
}

/// Generation `i` of the chain and its disk: even ones legacy, odd ones
/// rsfs.
fn generation(i: u64) -> (&'static str, Arc<dyn FileSystem>, Arc<dyn BlockDevice>) {
    if i.is_multiple_of(2) {
        let (fs, dev) = sys::cext4(GEN_BLOCKS, GEN_INODES);
        ("cext4", sys::interface(fs), dev)
    } else {
        let (fs, dev) = sys::rsfs(GEN_BLOCKS, GEN_INODES, JournalMode::PerOp);
        ("rsfs", sys::interface(fs), dev)
    }
}

fn setup() -> System {
    let registry = Registry::new();
    let (name, fs, dev) = generation(0);
    registry
        .register::<dyn FileSystem>(FS_INTERFACE, name, fs)
        .expect("register first generation");
    let vfs = Arc::new(Vfs::mount(&registry).expect("mount vfs"));
    for d in 0..DIRS {
        vfs.mkdir(&format!("/d{d}")).expect("mkdir");
    }
    for f in 0..FILES {
        vfs.create(&path(f)).expect("create");
        vfs.write_file(&path(f), 0, &[FILL; FILE_LEN])
            .expect("write");
    }
    vfs.sync().expect("sync");
    System { registry, vfs, dev }
}

struct Worker {
    lats: Vec<u32>,
    attempted: u64,
    failed: u64,
    /// The head this worker last wrote to each file.
    last: Vec<Option<[u8; HEAD]>>,
}

/// One worker; `x` seeds its xorshift stream.
fn worker(vfs: Arc<Vfs>, mut x: u64, window: Window) -> Worker {
    let mut w = Worker {
        lats: Vec::new(),
        attempted: 0,
        failed: 0,
        last: vec![None; FILES],
    };
    while Instant::now() < window.to {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let file = (x % DIRS as u64) as usize * FILES_PER_DIR + (x >> 8) as usize % FILES_PER_DIR;
        let path = path(file);
        let t0 = Instant::now();
        let ok = match x % 4 {
            0 => {
                let head = x.to_le_bytes();
                w.last[file] = Some(head);
                vfs.write_file(&path, 0, &head) == Ok(HEAD)
            }
            1 => vfs.stat(&path).is_ok_and(|a| a.size == FILE_LEN as u64),
            _ => vfs
                .read_file(&path)
                .is_ok_and(|d| d.len() == FILE_LEN && d[HEAD..].iter().all(|&b| b == FILL)),
        };
        window.record(&mut w.lats, t0, Instant::now());
        w.attempted += 1;
        if !ok {
            w.failed += 1;
        }
    }
    w
}

/// Every file keeps its length and fill, and its head is some worker's
/// last write to it.
fn state_ok(s: &System, workers: &[Worker]) -> bool {
    (0..FILES).all(|f| {
        let Ok(d) = s.vfs.read_file(&path(f)) else {
            return false;
        };
        if d.len() != FILE_LEN || d[HEAD..].iter().any(|&b| b != FILL) {
            return false;
        }
        let heads: Vec<[u8; HEAD]> = workers.iter().filter_map(|w| w.last[f]).collect();
        if heads.is_empty() {
            d[..HEAD] == [FILL; HEAD]
        } else {
            heads.iter().any(|h| d[..HEAD] == h[..])
        }
    })
}

/// Device counters over every generation so far: the disks a swap
/// retired, plus the one serving now.
struct DevTally {
    retired: DeviceStats,
    current: Arc<dyn BlockDevice>,
}

impl DevTally {
    fn total(&self) -> DeviceStats {
        let now = self.current.stats();
        DeviceStats {
            reads: self.retired.reads + now.reads,
            writes: self.retired.writes + now.writes,
            flushes: self.retired.flushes + now.flushes,
            ..DeviceStats::default()
        }
    }

    fn retire(&mut self, next: Arc<dyn BlockDevice>) {
        self.retired = self.total();
        self.current = next;
    }
}

/// Runs the workload.
pub fn run(plan: &Plan) -> Outcome {
    let (s, setup_s) = plan.set_up(setup, drop);
    let traced = layers::on();
    let start = Instant::now();
    let window = plan.window_from(start);
    let handles: Vec<_> = (0..WORKERS)
        .map(|id| {
            let vfs = Arc::clone(&s.vfs);
            let x = Rng::new(plan.seed, 200 + id as u64).next() | 1;
            std::thread::spawn(move || worker(vfs, x, window))
        })
        .collect();

    // The swapper: the next generation is formatted ahead of its swap,
    // outside the blackout, as an operator would stage it.
    let gate = s.vfs.gate();
    let mut devs = DevTally {
        retired: DeviceStats::default(),
        current: Arc::clone(&s.dev),
    };
    let kept = |devs: &DevTally| {
        let mut kept = layers::device(devs.total()).to_vec();
        kept.extend([
            (C::Swaps, gate.swaps()),
            (C::SwapBlocked, gate.blocked_ops()),
        ]);
        kept
    };
    let mut swap_failures = 0u64;
    let mut before = None;
    let mut next_swap = start + SWAP_EVERY;
    let mut gen = 1u64;
    loop {
        let (name, next, next_dev) = generation(gen);
        sleep_until(next_swap);
        let now = Instant::now();
        if now >= window.to {
            break;
        }
        if before.is_none() && now >= window.from {
            before = Some(layers::snapshot(&kept(&devs)));
        }
        match Migrator::new(&s.vfs, &s.registry).swap(name, next) {
            Ok(report) => {
                if traced && before.is_some() {
                    layers::add(C::SwapBlackoutNs, report.blackout_ns);
                }
                devs.retire(next_dev);
                gen += 1;
            }
            Err(_) => swap_failures += 1,
        }
        next_swap += SWAP_EVERY;
    }
    let after = layers::snapshot(&kept(&devs));
    let layers = after.since(&before.unwrap_or(after));
    let workers: Vec<Worker> = handles
        .into_iter()
        .map(|h| h.join().expect("worker thread"))
        .collect();
    let ok = gen > 1 && state_ok(&s, &workers);
    Outcome {
        attempted: workers.iter().map(|w| w.attempted).sum(),
        failed: workers.iter().map(|w| w.failed).sum::<u64>() + swap_failures,
        state_ok: ok,
        lats_ns: workers.into_iter().flat_map(|w| w.lats).collect(),
        window: plan.window,
        setup_s,
        layers,
        reactors: 0,
        requests: 0,
    }
}
