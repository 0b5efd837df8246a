//! Benchmark report: measures the lock-striped buffer cache, the
//! sharded dcache, group commit, and vectored IO (`BENCH_storage.json`),
//! plus both socket-layer generations over clean and adversarial links
//! (`BENCH_net.json`), for EXPERIMENTS.md.
//!
//! Usage: `bench_report [--shards 1,8] [--threads N] [--out PATH]
//! [--net-out PATH]`
//!
//! Two kinds of numbers, clearly separated in the output:
//!
//! - **wall-clock** (`*_wall_ns`, `ops_per_sec`): real multi-threaded
//!   execution, the contention ablation — shard counts from `--shards`
//!   run the identical workload on one cache;
//! - **simulated** (`*_sim_ns`): deterministic device-model time from
//!   [`sk_ksim::time::SimClock`], which isolates seek/transfer effects
//!   (group-commit barrier counts, vectored-extent coalescing) from
//!   host noise.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use serde_json::Value;
use sk_bench::mix::{ring, swap};
use sk_bench::{make_cext4_adapter, make_rsfs};
use sk_fs_safe::rsfs::{JournalMode, Rsfs};
use sk_ksim::block::{BlockDevice, RamDisk, BLOCK_SIZE};
use sk_ksim::buffer::BufferCache;
use sk_ksim::time::SimClock;
use sk_vfs::dcache::Dcache;
use sk_vfs::modular::FileSystem;
use sk_vfs::ring::{Ring, RingReactor};

fn obj(pairs: Vec<(&str, Value)>) -> Value {
    Value::Object(
        pairs
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect::<BTreeMap<String, Value>>(),
    )
}

fn num(n: f64) -> Value {
    Value::Number(n)
}

/// Minimum wall time over `runs` repetitions. For short benchmarks every
/// perturbation (scheduler preemption, a neighbouring build) only ever
/// *adds* time, so the minimum is the lowest-variance estimator of the
/// code's own cost; a median of few samples still swings by 30% run to
/// run on a shared machine.
///
/// Every row in the report stamps which estimator produced it (and, for
/// the slow-flush sections, the modelled device flush latency): numbers
/// from different estimators are not comparable run to run, and an
/// unstamped row is exactly how a stale "140k" ends up next to a fresh
/// "132k" in the prose with no way to tell which methodology moved.
fn best_wall_ns(runs: usize, mut f: impl FnMut()) -> u64 {
    (0..runs)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_nanos() as u64
        })
        .min()
        .expect("at least one run")
}

/// Runs `op(thread, i)` for `i` in `0..ops` on each of `threads`
/// threads at once; returns the best wall time of three rounds.
fn run_threads(threads: usize, ops: usize, op: impl Fn(usize, usize) + Sync) -> u64 {
    best_wall_ns(3, || {
        std::thread::scope(|s| {
            for t in 0..threads {
                let op = &op;
                s.spawn(move || (0..ops).for_each(|i| op(t, i)));
            }
        });
    })
}

/// Blocks and names every thread of a `shared` variant reads: the
/// hot-swap mix's pattern, where every call decodes an inode from one
/// inode-table block and walks the same two directory dentries.
const SHARED_KEYS: usize = 32;

/// Ops per thread in a `shared` variant: enough that a round lasts tens
/// of milliseconds, so thread start-up does not swamp a cost of ~100 ns.
const SHARED_OPS: usize = 200_000;

/// Metadata-churn workload over one shared buffer cache, repeated for
/// each shard count: every op is a `getblk` miss (insert + LRU eviction
/// under the shard's exclusive lock) on a per-thread block range. This is
/// the path a create/delete storm drives; with one stripe all threads
/// serialize on a single write lock, with N stripes they don't.
fn bench_buffer_cache(shard_counts: &[usize], threads: usize) -> Value {
    const OPS_PER_THREAD: usize = 6_000;
    const RANGE_PER_THREAD: u64 = 512;
    let mut rows = Vec::new();
    for &shards in shard_counts {
        // Three variants per shard count. "evicting": capacity far below
        // the working set, so every op inserts and evicts under the
        // shard's write lock — the lock-contention worst case.
        // "resident": capacity covers the working set and a warm-up pass
        // pre-faults it, so the steady state is all hits — the read-lock
        // fast path. "shared": every thread `bread`s the same 32 cached
        // blocks and reads a byte, at 1 thread and at `threads`, so the
        // pair shows whether a hit writes lines the threads share.
        let variants = [
            ("evicting", threads),
            ("resident", threads),
            ("shared", 1),
            ("shared", threads),
        ];
        for (variant, threads) in variants {
            let blocks = match variant {
                "shared" => SHARED_KEYS as u64,
                _ => threads as u64 * RANGE_PER_THREAD,
            };
            let dev: Arc<dyn BlockDevice> = Arc::new(RamDisk::new(blocks + 8));
            let capacity = match variant {
                "evicting" => 64,
                _ => blocks as usize + 64,
            };
            let cache = BufferCache::with_shards(dev, capacity, shards);
            if variant != "evicting" {
                for blk in 0..blocks {
                    cache.bread(blk).unwrap();
                }
            }
            let ops = match variant {
                "shared" => SHARED_OPS,
                _ => OPS_PER_THREAD,
            };
            let wall_ns = run_threads(threads, ops, |t, i| {
                let buf = if variant == "shared" {
                    cache.bread((i * 13 + t) as u64 % blocks).unwrap()
                } else {
                    let base = t as u64 * RANGE_PER_THREAD;
                    cache.getblk(base + (i as u64 % RANGE_PER_THREAD)).unwrap()
                };
                std::hint::black_box(buf.read(|d| d[0]));
            });
            let total_ops = (threads * ops) as f64;
            let s = cache.stats();
            rows.push(obj(vec![
                ("estimator", Value::String("min-of-3".into())),
                ("variant", Value::String(variant.to_string())),
                ("shards", num(shards as f64)),
                ("threads", num(threads as f64)),
                ("capacity", num(capacity as f64)),
                ("total_ops", num(total_ops)),
                ("wall_ns", num(wall_ns as f64)),
                ("ops_per_sec", num(total_ops / (wall_ns as f64 / 1e9))),
                ("hits", num(s.hits as f64)),
                ("misses", num(s.misses as f64)),
                ("evictions", num(s.evictions as f64)),
            ]));
            println!(
                "buffer_cache shards={shards} {variant:<8}: {:>8.0}k ops/s ({} threads, \
                 {} hits / {} misses)",
                total_ops / (wall_ns as f64 / 1e9) / 1e3,
                threads,
                s.hits,
                s.misses
            );
        }
    }
    Value::Array(rows)
}

/// Same ablation for the dcache: path-component lookups are short
/// critical sections on a Mutex, so striping is the whole ballgame.
/// "private": each thread looks up 32 names in its own directory.
/// "shared": every thread looks up the same 32 names in one directory,
/// at 1 thread and at `threads`.
fn bench_dcache(shard_counts: &[usize], threads: usize) -> Value {
    const OPS_PER_THREAD: usize = 20_000;
    let names: Vec<String> = (0..SHARED_KEYS).map(|i| format!("n{i}")).collect();
    let mut rows = Vec::new();
    for &shards in shard_counts {
        for (variant, threads) in [("private", threads), ("shared", 1), ("shared", threads)] {
            let dirs = if variant == "shared" { 1 } else { threads };
            let dcache = Dcache::with_shards(dirs * SHARED_KEYS, shards);
            for dir in 0..dirs as u64 {
                for (i, name) in names.iter().enumerate() {
                    dcache.insert(dir, name, dir * 100 + i as u64);
                }
            }
            let ops = if variant == "shared" {
                SHARED_OPS
            } else {
                OPS_PER_THREAD
            };
            let wall_ns = run_threads(threads, ops, |t, i| {
                let dir = if variant == "shared" { 0 } else { t as u64 };
                let name = &names[(i * 13) % SHARED_KEYS];
                std::hint::black_box(dcache.get(dir, name));
            });
            let total_ops = (threads * ops) as f64;
            rows.push(obj(vec![
                ("estimator", Value::String("min-of-3".into())),
                ("variant", Value::String(variant.to_string())),
                ("shards", num(shards as f64)),
                ("threads", num(threads as f64)),
                ("total_ops", num(total_ops)),
                ("wall_ns", num(wall_ns as f64)),
                ("ops_per_sec", num(total_ops / (wall_ns as f64 / 1e9))),
            ]));
            println!(
                "dcache       shards={shards} {variant:<8}: {:>8.0}k ops/s ({} threads)",
                total_ops / (wall_ns as f64 / 1e9) / 1e3,
                threads
            );
        }
    }
    Value::Array(rows)
}

/// Single-threaded ops/sec per file system — the fs_throughput series
/// (cext4 vs rsfs vs rsfs+journal) in report form.
fn bench_fs_throughput() -> Value {
    const FILES: usize = 128;
    let payload = vec![0xA5u8; 1024];
    let mut rows = Vec::new();
    // The async row ends each run with an fsync so its number includes
    // the deferred commit cost — it is not allowed to win by leaving the
    // running transaction in memory. fsync (commit, no checkpoint) is the
    // durability level the per-op rows pay on every single op.
    let mut run = |label: &str, fs: &dyn FileSystem, fsync_at_end: bool| {
        let root = fs.root_ino();
        // 7 repetitions: the fs rows are short enough that a stray
        // scheduler hiccup would otherwise dominate a short sample.
        let wall_ns = best_wall_ns(7, || {
            for i in 0..FILES {
                let name = format!("f{i}");
                let ino = fs.create(root, &name).unwrap();
                fs.write(ino, 0, &payload).unwrap();
                let mut out = vec![0u8; 1024];
                fs.read(ino, 0, &mut out).unwrap();
                fs.unlink(root, &name).unwrap();
            }
            if fsync_at_end {
                fs.fsync(root).unwrap();
            }
        });
        let ops = (FILES * 4) as f64;
        rows.push(obj(vec![
            ("estimator", Value::String("min-of-7".into())),
            ("device", Value::String("ramdisk".into())),
            ("fs", Value::String(label.to_string())),
            ("ops", num(ops)),
            ("wall_ns", num(wall_ns as f64)),
            ("ops_per_sec", num(ops / (wall_ns as f64 / 1e9))),
        ]));
        println!(
            "fs_throughput {label:<18}: {:>8.1}k ops/s",
            ops / (wall_ns as f64 / 1e9) / 1e3
        );
    };
    run("cext4", &make_cext4_adapter(4096), false);
    run("rsfs", &make_rsfs(JournalMode::None, 4096), false);
    run("rsfs+journal", &make_rsfs(JournalMode::PerOp, 4096), false);
    run(
        "rsfs+journal-async",
        &make_rsfs(JournalMode::Async, 4096),
        true,
    );
    Value::Array(rows)
}

/// Forwarding device whose `flush` costs real wall time — the storage
/// barrier a commit record pays on actual hardware. Group commit exists
/// to amortize exactly this.
struct SlowFlushDevice {
    inner: Arc<RamDisk>,
    flush_cost: std::time::Duration,
}

impl BlockDevice for SlowFlushDevice {
    fn num_blocks(&self) -> u64 {
        self.inner.num_blocks()
    }
    fn block_size(&self) -> usize {
        self.inner.block_size()
    }
    fn read_block(&self, blkno: u64, buf: &mut [u8]) -> sk_ksim::errno::KResult<()> {
        self.inner.read_block(blkno, buf)
    }
    fn write_block(&self, blkno: u64, buf: &[u8]) -> sk_ksim::errno::KResult<()> {
        self.inner.write_block(blkno, buf)
    }
    fn read_blocks(&self, start: u64, count: usize, buf: &mut [u8]) -> sk_ksim::errno::KResult<()> {
        self.inner.read_blocks(start, count, buf)
    }
    fn write_blocks(&self, start: u64, count: usize, buf: &[u8]) -> sk_ksim::errno::KResult<()> {
        self.inner.write_blocks(start, count, buf)
    }
    fn flush(&self) -> sk_ksim::errno::KResult<()> {
        std::thread::sleep(self.flush_cost);
        self.inner.flush()
    }
    fn stats(&self) -> sk_ksim::block::DeviceStats {
        self.inner.stats()
    }
}

/// A fresh rsfs in journal mode `mode` on a RAM disk whose flush
/// barrier costs 50µs.
fn slow_flush_rsfs(mode: JournalMode) -> Rsfs {
    let dev: Arc<dyn BlockDevice> = Arc::new(SlowFlushDevice {
        inner: Arc::new(RamDisk::new(8192)),
        flush_cost: std::time::Duration::from_micros(50),
    });
    Rsfs::mkfs(&dev, 1024, 128).expect("mkfs");
    Rsfs::mount(dev, mode).expect("mount")
}

/// Group commit under concurrency: T threads write disjoint files through
/// one journaled rsfs on a device with a 50µs flush barrier. Reports both
/// wall time and the journal's own accounting — `batches < commits` is
/// the merge working; `barriers` tracks batches, not commits, which is
/// the whole point.
fn bench_group_commit(thread_counts: &[usize]) -> Value {
    const WRITES_PER_THREAD: usize = 48;
    let mut rows = Vec::new();
    for &threads in thread_counts {
        let fs = Arc::new(slow_flush_rsfs(JournalMode::PerOp));
        let root = fs.root_ino();
        let inos: Vec<u64> = (0..threads)
            .map(|t| fs.create(root, &format!("t{t}")).unwrap())
            .collect();
        let before = fs.journal().unwrap().stats();
        let payload = vec![0x5Au8; 512];
        let t0 = Instant::now();
        let mut handles = Vec::new();
        for &ino in &inos {
            let fs = Arc::clone(&fs);
            let payload = payload.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..WRITES_PER_THREAD {
                    fs.write(ino, (i * 512) as u64, &payload).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let wall_ns = t0.elapsed().as_nanos() as u64;
        let after = fs.journal().unwrap().stats();
        let commits = after.commits - before.commits;
        let batches = after.batches - before.batches;
        let barriers = after.barriers - before.barriers;
        let ns_per_commit = wall_ns as f64 / commits.max(1) as f64;
        rows.push(obj(vec![
            ("estimator", Value::String("single-run".into())),
            ("flush_cost_us", num(50.0)),
            ("threads", num(threads as f64)),
            ("commits", num(commits as f64)),
            ("batches", num(batches as f64)),
            ("merge_factor", num(commits as f64 / batches.max(1) as f64)),
            ("barriers", num(barriers as f64)),
            ("wall_ns", num(wall_ns as f64)),
            ("ns_per_commit", num(ns_per_commit)),
        ]));
        println!(
            "group_commit threads={threads}: {commits} commits in {batches} batches \
             (merge ×{:.2}, {barriers} barriers, {:.0} µs/commit)",
            commits as f64 / batches.max(1) as f64,
            ns_per_commit / 1e3
        );
    }
    Value::Array(rows)
}

/// Commit-latency ablation for the async pipeline: the identical
/// create+write sequence on a device with a 50µs flush barrier, once in
/// per-op mode (every op pays the barrier before returning) and once in
/// async mode (ops stage into the running transaction; the only barriers
/// are log-pressure commits and the final fsync). The row records both
/// the op-path latency and the price of the durability point itself.
fn bench_async_commit() -> Value {
    const OPS: usize = 192;
    let mut rows = Vec::new();
    for (label, mode) in [
        ("per-op", JournalMode::PerOp),
        ("async", JournalMode::Async),
    ] {
        // Min-of-7 like every other fs row (a fresh fs per repetition —
        // the workload is a create storm, so it cannot re-run in place);
        // the reported fsync cost and journal accounting come from the
        // same repetition that produced the minimum, so the row stays
        // internally consistent.
        let mut best: Option<(u64, u64, sk_fs_safe::journal::JournalStats)> = None;
        for _ in 0..7 {
            let fs = slow_flush_rsfs(mode);
            let root = fs.root_ino();
            let payload = vec![0x5Au8; 256];
            let t0 = Instant::now();
            let mut last = root;
            for i in 0..OPS {
                let ino = fs.create(root, &format!("f{i}")).unwrap();
                fs.write(ino, 0, &payload).unwrap();
                last = ino;
            }
            let op_wall_ns = t0.elapsed().as_nanos() as u64;
            let t1 = Instant::now();
            fs.fsync(last).unwrap();
            let fsync_ns = t1.elapsed().as_nanos() as u64;
            let stats = fs.journal().unwrap().stats();
            if best.as_ref().is_none_or(|(w, _, _)| op_wall_ns < *w) {
                best = Some((op_wall_ns, fsync_ns, stats));
            }
        }
        let (op_wall_ns, fsync_ns, stats) = best.expect("at least one repetition");
        let total_ops = (OPS * 2) as f64;
        let ns_per_op = op_wall_ns as f64 / total_ops;
        rows.push(obj(vec![
            ("estimator", Value::String("min-of-7".into())),
            ("flush_cost_us", num(50.0)),
            ("mode", Value::String(label.to_string())),
            ("ops", num(total_ops)),
            ("op_path_wall_ns", num(op_wall_ns as f64)),
            ("ns_per_op", num(ns_per_op)),
            ("fsync_ns", num(fsync_ns as f64)),
            ("barriers", num(stats.barriers as f64)),
            ("batches", num(stats.batches as f64)),
            ("stages", num(stats.stages as f64)),
            ("pressure_commits", num(stats.pressure_commits as f64)),
        ]));
        println!(
            "async_commit {label:<7}: {:.1} µs/op on the op path, fsync {:.0} µs \
             ({} barriers, {} batches, {} staged, {} pressure commits)",
            ns_per_op / 1e3,
            fsync_ns as f64 / 1e3,
            stats.barriers,
            stats.batches,
            stats.stages,
            stats.pressure_commits
        );
    }
    Value::Array(rows)
}

fn latency_row(mut lats_ns: Vec<u64>) -> (f64, f64, f64) {
    lats_ns.sort_unstable();
    let pick = |q: f64| lats_ns[((lats_ns.len() - 1) as f64 * q) as usize] as f64 / 1e3;
    let mean = lats_ns.iter().sum::<u64>() as f64 / lats_ns.len() as f64 / 1e3;
    (pick(0.5), pick(0.99), mean)
}

/// The tentpole measurement: typed submission/completion rings vs
/// per-call ingestion — the [`sk_bench::mix::ring`] mix from 128
/// concurrent clients, swept over reactors × ring depth, every reply
/// and every client's end state checked. The per-call row runs the same
/// 128 threads calling the `FileSystem` methods directly: that is the
/// baseline the ring has to beat. Every row is min-of-7 (the ring and
/// reactor pool stay up across repetitions) with the percentiles of the
/// repetition that produced the minimum; see
/// [`sk_bench::mix::ring::drive`]. Any failed op fails the report with
/// a nonzero exit, after every row is printed.
fn bench_ring_throughput(reactor_counts: &[usize], depths: &[usize]) -> Value {
    const CLIENTS: usize = 128;
    const OPS_EACH: u64 = 64;
    const RUNS: usize = 7;
    const SEED: u64 = 1;
    let total_ops = CLIENTS as f64 * OPS_EACH as f64;
    let setup = || {
        let fs = Arc::new(make_rsfs(JournalMode::Async, 16384));
        let fs_dyn: Arc<dyn FileSystem> = Arc::clone(&fs) as Arc<dyn FileSystem>;
        let clients = ring::setup(&*fs_dyn, CLIENTS, SEED).expect("set up ring clients");
        (fs, fs_dyn, clients)
    };
    // The fields every row shares; returns them with ops/s, p50 and p99.
    let row = |mode: &str, s: ring::Sample| {
        let ops_per_sec = total_ops / (s.wall_ns as f64 / 1e9);
        let (p50_us, p99_us, mean_us) = latency_row(s.lats_ns);
        let fields = vec![
            ("estimator", Value::String("min-of-7".into())),
            ("device", Value::String("ramdisk".into())),
            ("mode", Value::String(mode.into())),
            ("clients", num(CLIENTS as f64)),
            ("ops", num(total_ops)),
            ("wall_ns", num(s.wall_ns as f64)),
            ("ops_per_sec", num(ops_per_sec)),
            ("p50_us", num(p50_us)),
            ("p99_us", num(p99_us)),
            ("mean_us", num(mean_us)),
            ("failed_ops", num(s.failed_ops as f64)),
        ];
        (fields, ops_per_sec, p50_us, p99_us)
    };
    let mut rows = Vec::new();
    let mut failed_ops = 0;

    // Per-call baseline: direct trait calls, one thread per client.
    let (_, fs, clients) = setup();
    let s = ring::drive(&fs, &ring::Submit::PerCall, &clients, OPS_EACH, RUNS);
    let failed = s.failed_ops;
    failed_ops += failed;
    let (fields, baseline_ops_per_sec, _, p99_us) = row("per-call", s);
    rows.push(obj(fields));
    println!(
        "ring_throughput per-call : {:>8.1}k ops/s, p99 {p99_us:.0} µs ({CLIENTS} clients, \
         {failed} failed)",
        baseline_ops_per_sec / 1e3
    );

    for &reactors in reactor_counts {
        for &depth in depths {
            let (rsfs, fs, clients) = setup();
            let ring = Arc::new(Ring::new(rsfs.lock_registry(), depth));
            let throttle = Arc::new(Rsfs::ring_throttle(&rsfs, 0.8));
            let pool = RingReactor::spawn_pool(
                Arc::clone(&ring),
                Arc::clone(&fs),
                Some(throttle),
                reactors,
            );
            let submit = ring::Submit::Ring(Arc::clone(&ring));
            let s = ring::drive(&fs, &submit, &clients, OPS_EACH, RUNS);
            for r in pool {
                r.join();
            }
            let failed = s.failed_ops;
            failed_ops += failed;
            let (mut fields, ops_per_sec, p50_us, p99_us) = row("ring", s);
            // Ring counters accumulate over all repetitions; the batch
            // grain is a property of the configuration, not of one run.
            let stats = ring.stats();
            let avg_batch = stats.completed as f64 / stats.batches.max(1) as f64;
            fields.extend([
                ("reactors", num(reactors as f64)),
                ("depth", num(depth as f64)),
                ("vs_per_call", num(ops_per_sec / baseline_ops_per_sec)),
                ("batches", num(stats.batches as f64)),
                ("avg_batch_ops", num(avg_batch)),
                ("sq_full_blocks", num(stats.sq_full_blocks as f64)),
                ("throttle_stalls", num(stats.throttle_stalls as f64)),
            ]);
            rows.push(obj(fields));
            println!(
                "ring_throughput reactors={reactors} depth={depth:<4}: {:>8.1}k ops/s \
                 (×{:.2} vs per-call), p50 {p50_us:.0} µs, p99 {p99_us:.0} µs, \
                 avg batch {avg_batch:.1} ops, {failed} failed",
                ops_per_sec / 1e3,
                ops_per_sec / baseline_ops_per_sec
            );
        }
    }
    if failed_ops > 0 {
        eprintln!("ring_throughput: {failed_ops} failed ops; the rows time a broken run");
        std::process::exit(1);
    }
    Value::Array(rows)
}

/// Vectored IO on a seeking device, in deterministic simulated time: 64
/// scattered single-block writes vs the same bytes as one coalesced
/// extent via `write_blocks`.
fn bench_vectored_io() -> Value {
    let scattered_sim_ns = {
        let clock = Arc::new(SimClock::new());
        let mut disk = RamDisk::with_geometry(512, BLOCK_SIZE, Arc::clone(&clock));
        disk.set_seek_model(1_000);
        let payload = vec![7u8; BLOCK_SIZE];
        let t0 = clock.now_ns();
        for i in 0..64u64 {
            // Alternate ends of the disk: every write pays a seek.
            let blk = if i % 2 == 0 { i } else { 400 + i };
            disk.write_block(blk, &payload).unwrap();
        }
        clock.now_ns() - t0
    };
    let coalesced_sim_ns = {
        let clock = Arc::new(SimClock::new());
        let mut disk = RamDisk::with_geometry(512, BLOCK_SIZE, Arc::clone(&clock));
        disk.set_seek_model(1_000);
        let payload = vec![7u8; BLOCK_SIZE * 64];
        let t0 = clock.now_ns();
        disk.write_blocks(8, 64, &payload).unwrap();
        clock.now_ns() - t0
    };
    println!(
        "vectored_io: scattered {scattered_sim_ns} ns sim, coalesced {coalesced_sim_ns} ns sim \
         (×{:.1})",
        scattered_sim_ns as f64 / coalesced_sim_ns.max(1) as f64
    );
    obj(vec![
        ("scattered_sim_ns", num(scattered_sim_ns as f64)),
        ("coalesced_sim_ns", num(coalesced_sim_ns as f64)),
        (
            "speedup",
            num(scattered_sim_ns as f64 / coalesced_sim_ns.max(1) as f64),
        ),
    ])
}

/// Blackout-window measurement for the live-replacement protocol: for
/// each workload thread count, the [`sk_bench::mix::swap`] mix hammers
/// the VFS while two back-to-back
/// [`Migrator`](sk_vfs::migrate::Migrator) swaps run (cext4 → rsfs,
/// then rsfs → a fresh cext4). Reported per row: the gate-closed window
/// in µs per swap (single-shot wall clock — a swap is not repeatable on
/// the same state), ops completed, and `failed_ops`, which the drift
/// gate pins to zero: a blackout is a *stall*, never an error. A call
/// fails on an error or on a wrong length, tail or size, and a failed
/// end-of-run state check counts once more. Workload seeds derive from
/// the one stamped engine seed.
fn bench_hot_swap(thread_counts: &[usize]) -> Value {
    use sk_core::modularity::Registry;
    use sk_ksim::scenario::{subsys, ScenarioEngine};
    use sk_vfs::migrate::Migrator;
    use sk_vfs::path::{Vfs, FS_INTERFACE};

    const ENGINE_SEED: u64 = 42;

    let mut rows = Vec::new();
    for &threads in thread_counts {
        let engine = ScenarioEngine::new(ENGINE_SEED);
        let ws = engine.stream(subsys::WORKLOAD);

        let registry = Registry::new();
        registry
            .register::<dyn FileSystem>(
                FS_INTERFACE,
                "cext4",
                Arc::new(make_cext4_adapter(8192)) as Arc<dyn FileSystem>,
            )
            .expect("register");
        let vfs = Arc::new(Vfs::mount(&registry).expect("mount vfs"));
        swap::populate(&vfs).expect("populate");

        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let mut workers = Vec::new();
        for _ in 0..threads {
            let vfs = Arc::clone(&vfs);
            let stop = Arc::clone(&stop);
            let mut w = swap::Worker::new(ws.gen_u64() | 1);
            workers.push(std::thread::spawn(move || {
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    w.call(&vfs);
                }
                w
            }));
        }

        std::thread::sleep(std::time::Duration::from_millis(10));
        let fwd = Migrator::new(&vfs, &registry)
            .swap("rsfs", Arc::new(make_rsfs(JournalMode::PerOp, 8192)))
            .expect("forward swap");
        std::thread::sleep(std::time::Duration::from_millis(10));
        let back = Migrator::new(&vfs, &registry)
            .swap(
                "cext4",
                Arc::new(make_cext4_adapter(8192)) as Arc<dyn FileSystem>,
            )
            .expect("backward swap");
        std::thread::sleep(std::time::Duration::from_millis(10));
        stop.store(true, std::sync::atomic::Ordering::Relaxed);

        let workers: Vec<swap::Worker> = workers.into_iter().map(|w| w.join().unwrap()).collect();
        let ops: u64 = workers.iter().map(|w| w.ops).sum();
        let failed = workers.iter().map(|w| w.failed).sum::<u64>()
            + u64::from(!swap::state_ok(&vfs, &workers));
        let us = |ns: u64| ns as f64 / 1_000.0;
        rows.push(obj(vec![
            ("threads", num(threads as f64)),
            ("swaps", num(2.0)),
            ("ops_completed", num(ops as f64)),
            ("failed_ops", num(failed as f64)),
            ("blackout_us_forward", num(us(fwd.blackout_ns))),
            ("blackout_us_backward", num(us(back.blackout_ns))),
            (
                "blackout_us_max",
                num(us(fwd.blackout_ns.max(back.blackout_ns))),
            ),
            (
                "blocked_ops",
                num((fwd.blocked_ops + back.blocked_ops) as f64),
            ),
            (
                "copied_files",
                num((fwd.copied_files + back.copied_files) as f64),
            ),
            (
                "remapped_dentries",
                num((fwd.remapped_dentries + back.remapped_dentries) as f64),
            ),
        ]));
        println!(
            "hot_swap threads={threads}: blackout fwd {:.0}us / back {:.0}us, \
             {ops} ops, {failed} failed",
            us(fwd.blackout_ns),
            us(back.blackout_ns)
        );
    }
    obj(vec![
        ("engine_seed", num(ENGINE_SEED as f64)),
        ("estimator", Value::String("single_shot_wall".into())),
        ("per_threads", Value::Array(rows)),
    ])
}

/// The lockdep section: the eight-writer storage stress re-run with the
/// whole-system lock registry live (buffer shards, journal classes, the
/// per-op lock, inode locks), reporting the acquires-after graph the run
/// built, the cycle count, and the top contended classes. Any ordering
/// finding fails the report with a nonzero exit — this is the CI gate
/// against new lock-order bugs on the storage hot path.
fn bench_lockdep(threads: usize) -> Value {
    const FILES_PER_THREAD: usize = 24;
    let dev: Arc<dyn BlockDevice> = Arc::new(RamDisk::new(16384));
    Rsfs::mkfs(&dev, 1024, 128).expect("mkfs");
    let fs = Arc::new(Rsfs::mount(dev, JournalMode::PerOp).expect("mount"));
    let root = fs.root_ino();
    let t0 = Instant::now();
    let mut handles = Vec::new();
    for t in 0..threads {
        let fs = Arc::clone(&fs);
        handles.push(std::thread::spawn(move || {
            for i in 0..FILES_PER_THREAD {
                let name = format!("t{t}f{i}");
                let ino = fs.create(root, &name).unwrap();
                fs.write(ino, 0, &vec![(t + i) as u8; 700]).unwrap();
                let mut buf = vec![0u8; 700];
                fs.read(ino, 0, &mut buf).unwrap();
                if i % 2 == 0 {
                    fs.unlink(root, &name).unwrap();
                }
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    fs.sync().unwrap();
    let wall_ns = t0.elapsed().as_nanos() as u64;

    let reg = fs.lock_registry();
    let violations = reg.violations();
    let mut stats = reg.class_stats();
    stats.sort_by_key(|s| std::cmp::Reverse((s.contended, s.acquisitions)));
    let top: Vec<Value> = stats
        .iter()
        .take(5)
        .map(|s| {
            obj(vec![
                ("class", Value::String(s.name.to_string())),
                ("acquisitions", num(s.acquisitions as f64)),
                ("contended", num(s.contended as f64)),
                ("held_ns", num(s.held_ns as f64)),
            ])
        })
        .collect();
    let edges: Vec<Value> = reg
        .edges()
        .iter()
        .map(|(a, b)| Value::String(format!("{a} -> {b}")))
        .collect();
    println!(
        "lockdep: {} classes, {} edges, {} cycles, {} violations ({threads} threads)",
        reg.class_count(),
        edges.len(),
        reg.cycles_found(),
        violations.len(),
    );
    for s in stats.iter().take(5) {
        println!(
            "  contention {:<14} {:>8} acq {:>6} contended {:>12} ns held",
            s.name, s.acquisitions, s.contended, s.held_ns
        );
    }
    if !violations.is_empty() {
        eprintln!("lockdep violations on the storage hot path: {violations:#?}");
        std::process::exit(1);
    }
    obj(vec![
        ("threads", num(threads as f64)),
        ("files_per_thread", num(FILES_PER_THREAD as f64)),
        ("wall_ns", num(wall_ns as f64)),
        ("classes", num(reg.class_count() as f64)),
        ("edges_observed", num(edges.len() as f64)),
        ("cycles_found", num(reg.cycles_found() as f64)),
        ("violations", num(violations.len() as f64)),
        ("acquires_after_edges", Value::Array(edges)),
        ("top_contention", Value::Array(top)),
    ])
}

/// The §4.4 crash-consistency check in report form: a fixed
/// create→write→sync schedule runs on each file-system generation over a
/// `CrashDevice`; every flush-barrier interval is exploded into
/// post-crash images under each
/// [`CrashPolicy`](sk_core::spec::crash::CrashPolicy) and every image is
/// recovered and judged. The same section exercises the disk fault
/// model: injected-fault counters (`io_errors`, `torn_writes`,
/// `corrupt_reads`) from an adversarial
/// [`FaultyDisk`](sk_ksim::block::FaultyDisk) run, and the journal's
/// abort behavior when a commit record write fails.
mod crashbench {
    use super::{num, obj, Value};
    use sk_core::spec::crash::{barrier_images, CrashPolicy};
    use sk_core::spec::Refines;
    use sk_fs_legacy::{BugKnobs, Cext4};
    use sk_fs_safe::rsfs::{JournalMode, Rsfs};
    use sk_ksim::block::{
        BlockDevice, CrashDevice, DiskFaultConfig, FaultyDisk, RamDisk, BLOCK_SIZE,
    };
    use sk_ksim::errno::Errno;
    use sk_legacy::LegacyCtx;
    use sk_vfs::modular::FileSystem;
    use std::sync::Arc;

    fn policy_name(p: CrashPolicy) -> &'static str {
        match p {
            CrashPolicy::Prefixes => "prefixes",
            CrashPolicy::Subsets => "subsets",
            CrashPolicy::Torn => "torn",
        }
    }

    /// rsfs judge: the image must mount, recover to a state the schedule
    /// passed through, and pass fsck.
    fn judge_rsfs(img: &[u8], models: &[sk_vfs::spec::FsModel]) -> Result<(), String> {
        let scratch = Arc::new(RamDisk::new(2048));
        scratch.restore(img).map_err(|e| e.to_string())?;
        let dev: Arc<dyn BlockDevice> = scratch;
        let fs = Rsfs::mount(Arc::clone(&dev), JournalMode::PerOp).map_err(|e| e.to_string())?;
        let m = fs.abstraction();
        if !models.contains(&m) {
            return Err("off-history state".into());
        }
        let report = sk_fs_safe::fsck(&*dev).map_err(|e| e.to_string())?;
        if report.is_clean() {
            Ok(())
        } else {
            Err(format!("{:?}", report.findings))
        }
    }

    /// cext4 judge (no journal, so a weak promise): the image either
    /// mounts and a bounded cycle-guarded walk terminates, or is refused
    /// with a clean errno.
    fn judge_cext4(img: &[u8]) -> Result<(), String> {
        let scratch = Arc::new(RamDisk::new(2048));
        scratch.restore(img).map_err(|e| e.to_string())?;
        let dev: Arc<dyn BlockDevice> = scratch;
        let fs = match Cext4::mount(dev, LegacyCtx::new(), Arc::new(BugKnobs::none())) {
            Ok(fs) => fs,
            Err(_) => return Ok(()),
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
            if let Ok(entries) = fs.readdir_inner(dir) {
                for (_, ino) in entries {
                    stack.push(ino);
                }
            }
        }
        Ok(())
    }

    /// One enumeration row: formats a fresh crash-recording device with
    /// `mkfs`, runs `schedule` on it, then explodes every barrier
    /// interval the schedule left under `policy` and judges each image
    /// with the judge `schedule` returned.
    fn enumerate<J: Fn(&[u8]) -> Result<(), String>>(
        fs: &str,
        policy: CrashPolicy,
        mkfs: impl FnOnce(&Arc<dyn BlockDevice>),
        schedule: impl FnOnce(Arc<dyn BlockDevice>) -> J,
    ) -> Value {
        let ram = Arc::new(RamDisk::new(2048));
        let crash = Arc::new(CrashDevice::new(Arc::clone(&ram)));
        let dev: Arc<dyn BlockDevice> = Arc::clone(&crash) as Arc<dyn BlockDevice>;
        mkfs(&dev);
        let base = ram.snapshot();
        crash.take_barriers();
        let judge = schedule(dev);
        let barriers = crash.take_barriers();
        let (mut checked, mut failures) = (0, 0);
        for (_, _, img) in barrier_images(&base, &barriers, BLOCK_SIZE, policy) {
            checked += 1;
            failures += usize::from(judge(&img).is_err());
        }
        println!(
            "crash_consistency {fs:<12} {:<8}: {checked} images, {failures} failures",
            policy_name(policy)
        );
        obj(vec![
            ("fs", Value::String(fs.into())),
            ("policy", Value::String(policy_name(policy).into())),
            ("barrier_intervals", num(barriers.len() as f64)),
            ("images_checked", num(checked as f64)),
            ("recovery_failures", num(failures as f64)),
        ])
    }

    pub fn bench_crash_consistency() -> Value {
        let policies = [
            CrashPolicy::Prefixes,
            CrashPolicy::Subsets,
            CrashPolicy::Torn,
        ];
        let mut rows = Vec::new();

        for policy in policies {
            // rsfs+journal: create → write → sync (commit, commit,
            // checkpoint barriers), judged against the op history.
            rows.push(enumerate(
                "rsfs+journal",
                policy,
                |dev| Rsfs::mkfs(dev, 128, 64).expect("mkfs"),
                |dev| {
                    let fs = Rsfs::mount(dev, JournalMode::PerOp).expect("mount");
                    let mut models = vec![fs.abstraction()];
                    let ino = fs.create(fs.root_ino(), "bench").unwrap();
                    models.push(fs.abstraction());
                    fs.write(ino, 0, &vec![0x5Au8; BLOCK_SIZE + 100]).unwrap();
                    models.push(fs.abstraction());
                    fs.sync().unwrap();
                    move |img: &[u8]| judge_rsfs(img, &models)
                },
            ));
            // cext4: the same schedule shape, held to the weak judge.
            rows.push(enumerate(
                "cext4",
                policy,
                |dev| Cext4::mkfs(dev, 128).expect("mkfs"),
                |dev| {
                    let fs = Cext4::mount(dev, LegacyCtx::new(), Arc::new(BugKnobs::none()))
                        .expect("mount");
                    let root = fs.root_ino();
                    let p = fs.create_errptr(root, "bench", 0o100644).check().unwrap();
                    let ino = fs
                        .ctx()
                        .vp_take::<sk_vfs::inode::InodeNo>(p, "bench")
                        .unwrap();
                    fs.write_range(ino, 0, &vec![0x5Au8; BLOCK_SIZE + 100])
                        .unwrap();
                    fs.sync_inner().unwrap();
                    judge_cext4
                },
            ));
        }

        // Adversarial disk-fault soak: raw FaultyDisk IO at the
        // adversarial rates, reporting the injected-fault counters.
        let faulty = FaultyDisk::new(RamDisk::new(256), DiskFaultConfig::adversarial(), 0xD15C);
        let payload = vec![0xA5u8; BLOCK_SIZE];
        let mut ok_ops = 0u64;
        let mut failed_ops = 0u64;
        for i in 0..2_000u64 {
            let blk = i % 256;
            let r = if i % 3 == 0 {
                let mut buf = vec![0u8; BLOCK_SIZE];
                faulty.read_block(blk, &mut buf)
            } else if i % 17 == 0 {
                faulty.flush()
            } else {
                faulty.write_block(blk, &payload)
            };
            match r {
                Ok(()) => ok_ops += 1,
                Err(_) => failed_ops += 1,
            }
        }
        let inj = faulty.injected();
        println!(
            "disk_faults: {ok_ops} ok / {failed_ops} failed ops, {} EIO, {} torn, {} corrupt",
            inj.io_errors, inj.torn_writes, inj.corrupt_reads
        );
        let disk_faults = obj(vec![
            ("ops_ok", num(ok_ops as f64)),
            ("ops_failed", num(failed_ops as f64)),
            ("injected_io_errors", num(inj.io_errors as f64)),
            ("injected_torn_writes", num(inj.torn_writes as f64)),
            ("injected_corrupt_reads", num(inj.corrupt_reads as f64)),
        ]);

        // Journal abort under a mid-commit write error: the op fails, the
        // journal wedges read-only, and remount recovers the prefix.
        let faulty = Arc::new(FaultyDisk::new(
            RamDisk::new(1024),
            DiskFaultConfig::default(),
            7,
        ));
        let dev: Arc<dyn BlockDevice> = Arc::clone(&faulty) as Arc<dyn BlockDevice>;
        Rsfs::mkfs(&dev, 128, 64).expect("mkfs");
        let fs = Rsfs::mount(Arc::clone(&dev), JournalMode::PerOp).expect("mount");
        fs.create(fs.root_ino(), "a").unwrap();
        faulty.fail_nth_write(0);
        let op_failed = fs.create(fs.root_ino(), "b").is_err();
        let aborted = fs.journal().map(|j| j.is_aborted()).unwrap_or(false);
        let erofs = fs.create(fs.root_ino(), "c") == Err(Errno::EROFS);
        drop(fs);
        let fs = Rsfs::mount(dev, JournalMode::PerOp).expect("remount");
        let recovered = fs.lookup(fs.root_ino(), "a").is_ok()
            && fs.lookup(fs.root_ino(), "b") == Err(Errno::ENOENT);
        println!(
            "journal_abort: op_failed={op_failed} aborted={aborted} erofs={erofs} \
             remount_recovered={recovered}"
        );
        let journal_abort = obj(vec![
            ("op_failed", Value::Bool(op_failed)),
            ("journal_aborted", Value::Bool(aborted)),
            ("subsequent_op_erofs", Value::Bool(erofs)),
            ("remount_recovers_prefix", Value::Bool(recovered)),
        ]);

        obj(vec![
            ("enumeration", Value::Array(rows)),
            ("disk_faults", disk_faults),
            ("journal_abort", journal_abort),
        ])
    }
}

/// The netstack soak in report form: one socket-layer generation pushes a
/// fixed byte stream over a link profile; the row records how hard the
/// TCP hardening had to work to get it across.
mod netbench {
    use super::{num, obj, Value};
    use sk_bench::net::NetStack;
    use sk_core::modularity::Registry;
    use sk_ksim::scenario::ScenarioEngine;
    use sk_ksim::time::SimClock;
    use sk_legacy::LegacyCtx;
    use sk_netstack::fault::{FaultConfig, FaultyLink};
    use sk_netstack::legacy_stack::LegacyStack;
    use sk_netstack::modular_stack::{register_families, ModularStack};
    use sk_netstack::tcp::DEFAULT_RTO_NS;
    use sk_netstack::wire::Side;
    use std::sync::Arc;
    use std::time::Instant;

    // Large enough that the clean run takes ~10ms of wall time: the
    // CI drift gate compares wall-clock throughput against the
    // committed baseline, and sub-millisecond samples are pure noise.
    const STREAM_BYTES: usize = 2 * 1024 * 1024;
    const CHUNK: usize = 4096;
    const SEED: u64 = 42;
    const GENERATIONS: [&str; 2] = ["legacy", "modular"];

    /// Both ends of one socket-layer generation over their own
    /// engine-seeded link: the stamped engine seed replays the exact
    /// fault schedule of any row.
    struct Pair {
        client: Box<dyn NetStack>,
        server: Box<dyn NetStack>,
        clock: Arc<SimClock>,
        link: Arc<FaultyLink>,
    }

    fn pair(generation: &str, cfg: FaultConfig) -> Pair {
        let clock = Arc::new(SimClock::new());
        let engine = ScenarioEngine::with_clock(SEED, Arc::clone(&clock));
        let link = Arc::new(FaultyLink::on_engine(cfg, &engine));
        let (client, server): (Box<dyn NetStack>, Box<dyn NetStack>) = if generation == "legacy" {
            let side = |side| LegacyStack::new(LegacyCtx::new(), side, link.clone(), clock.clone());
            (Box::new(side(Side::A)), Box::new(side(Side::B)))
        } else {
            let registry = Arc::new(Registry::new());
            register_families(&registry).unwrap();
            let side =
                |side| ModularStack::new(registry.clone(), side, link.clone(), clock.clone());
            (Box::new(side(Side::A)), Box::new(side(Side::B)))
        };
        Pair {
            client,
            server,
            clock,
            link,
        }
    }

    fn drive(generation: &str, profile: &str, cfg: FaultConfig) -> Value {
        let Pair {
            client,
            server,
            clock,
            link,
        } = pair(generation, cfg);
        let sfd = server.tcp_socket(80);
        server.listen(sfd);
        let cfd = client.tcp_socket(5000);
        client.connect(cfd, 80);

        let chunk: Vec<u8> = (0..CHUNK).map(|i| (i * 31) as u8).collect();
        let mut conn: Option<u64> = None;
        let mut submitted = 0usize;
        let mut delivered = 0usize;
        let mut rounds = 0u64;
        let mut failed = false;
        let t0 = Instant::now();
        for round in 0..200_000u64 {
            rounds = round + 1;
            client.pump();
            server.pump();
            if conn.is_none() {
                conn = server.accept(sfd);
            }
            if submitted < STREAM_BYTES && client.try_send(cfd, 80, &chunk) {
                submitted += chunk.len();
            }
            if let Some(c) = conn {
                delivered += server.recv(c).len();
            }
            if delivered >= STREAM_BYTES {
                break;
            }
            if client.conn_failed(cfd) || conn.is_some_and(|c| server.conn_failed(c)) {
                failed = true;
                break;
            }
            clock.advance(DEFAULT_RTO_NS / 4);
            client.tick();
            server.tick();
        }
        let wall_ns = t0.elapsed().as_nanos() as u64;
        let c = client.counters(cfd);
        let s = conn.map(|c| server.counters(c)).unwrap_or_default();
        let ls = link.stats();
        println!(
            "netstack {generation:<7} {profile:<7}: {delivered} B in {rounds} rounds, \
             {:.1} MB/s wall, {} retx, {} link drops{}",
            delivered as f64 / (wall_ns as f64 / 1e9) / 1e6,
            c.retransmits,
            ls.dropped,
            if failed { ", FAILED" } else { "" }
        );
        obj(vec![
            ("generation", Value::String(generation.to_string())),
            ("link", Value::String(profile.to_string())),
            ("drop_rate", num(cfg.drop)),
            ("bytes", num(delivered as f64)),
            ("rounds", num(rounds as f64)),
            ("wall_ns", num(wall_ns as f64)),
            (
                "throughput_mb_s",
                num(delivered as f64 / (wall_ns as f64 / 1e9) / 1e6),
            ),
            ("retransmits", num(c.retransmits as f64)),
            ("dup_acks_dropped", num(c.dup_acks_dropped as f64)),
            ("ooo_buffered", num(s.ooo_buffered as f64)),
            ("ooo_purged", num(s.ooo_purged as f64)),
            ("link_sent", num(ls.sent as f64)),
            ("link_dropped", num(ls.dropped as f64)),
            ("link_duplicated", num(ls.duplicated as f64)),
            ("link_reordered", num(ls.reordered as f64)),
            ("link_corrupted", num(ls.corrupted as f64)),
            ("engine_seed", num(link.engine().seed() as f64)),
            ("engine_trace_events", num(link.engine().trace_len() as f64)),
            ("completed", Value::Bool(!failed)),
        ])
    }

    /// Verdict of one many-connection run, compared across generations.
    struct ManyOutcome {
        accepted: usize,
        failed: usize,
        delivered: usize,
        row: Value,
    }

    const MANY_PAYLOAD: usize = 1000; // one full segment per connection
    const WAVE: usize = 500; // connects launched per round

    /// Server-scale driver: `conns` concurrent clients against ONE
    /// listener, staggered connect waves, one segment of payload each.
    /// All latency/throughput figures are SIM time (deterministic under
    /// the engine seed); wall_ns is the host-side cost of the run and is
    /// the only nondeterministic field.
    fn drive_many(
        generation: &str,
        (profile, cfg): (&str, FaultConfig),
        conns: usize,
    ) -> ManyOutcome {
        let Pair {
            client,
            server,
            clock,
            link,
        } = pair(generation, cfg);
        let sfd = server.tcp_socket(80);
        server.listen_backlog(sfd, conns);
        let payload: Vec<u8> = (0..MANY_PAYLOAD).map(|i| (i * 13) as u8).collect();

        let mut launched = 0usize;
        let mut clients: Vec<u64> = Vec::with_capacity(conns);
        let mut connect_ns: Vec<u64> = Vec::with_capacity(conns);
        // Clients whose handshake has not completed (send not yet accepted).
        let mut pending: Vec<usize> = Vec::new();
        let mut handshake_ns: Vec<u64> = Vec::with_capacity(conns);
        let mut failed = 0usize;
        // Accepted server-side connections still short of the full payload.
        let mut active: Vec<(u64, usize)> = Vec::new();
        let mut accepted = 0usize;
        let mut last_accept_ns = 0u64;
        let mut delivered = 0usize;
        let mut done = 0usize;

        let t0 = Instant::now();
        for _round in 0..6000u64 {
            // Staggered connect wave: client ports 2000.. are unique.
            for _ in 0..WAVE {
                if launched >= conns {
                    break;
                }
                let fd = client.tcp_socket(2000 + launched as u16);
                client.connect(fd, 80);
                clients.push(fd);
                connect_ns.push(clock.now_ns());
                pending.push(launched);
                launched += 1;
            }
            client.pump();
            server.pump();
            while let Some(c) = server.accept(sfd) {
                active.push((c, 0));
                accepted += 1;
                last_accept_ns = clock.now_ns();
            }
            // One payload per client, submitted as soon as the handshake
            // completes (the first accepted send marks completion).
            pending.retain(|&i| {
                if client.conn_failed(clients[i]) {
                    failed += 1;
                    return false;
                }
                if client.try_send(clients[i], 80, &payload) {
                    handshake_ns.push(clock.now_ns() - connect_ns[i]);
                    return false;
                }
                true
            });
            active.retain_mut(|(c, got)| {
                let data = server.recv(*c);
                *got += data.len();
                delivered += data.len();
                if *got >= MANY_PAYLOAD {
                    done += 1;
                    return false;
                }
                true
            });
            if launched == conns && pending.is_empty() && done + failed >= conns {
                break;
            }
            clock.advance(DEFAULT_RTO_NS / 2);
            client.tick();
            server.tick();
        }
        let wall_ns = t0.elapsed().as_nanos() as u64;
        let sim_ns = clock.now_ns().max(1);
        handshake_ns.sort_unstable();
        let pct = |p: usize| -> f64 {
            if handshake_ns.is_empty() {
                return 0.0;
            }
            let idx = (handshake_ns.len() * p / 100).min(handshake_ns.len() - 1);
            handshake_ns[idx] as f64
        };
        let conns_per_sec = if last_accept_ns > 0 {
            accepted as f64 / (last_accept_ns as f64 / 1e9)
        } else {
            0.0
        };
        let goodput = delivered as f64 / (sim_ns as f64 / 1e9) / 1e6;
        let completed = done == conns && failed == 0;
        let ls = link.stats();
        println!(
            "netstack {generation:<7} {profile:<7} {conns:>6} conns: \
             {accepted} accepted, {done} complete, {failed} failed, \
             {conns_per_sec:.0} conns/s, p99 handshake {:.1} ms, \
             {goodput:.1} MB/s goodput (sim), {:.2}s wall",
            pct(99) / 1e6,
            wall_ns as f64 / 1e9,
        );
        let row = obj(vec![
            ("generation", Value::String(generation.to_string())),
            ("link", Value::String(profile.to_string())),
            ("drop_rate", num(cfg.drop)),
            ("conns", num(conns as f64)),
            ("accepted", num(accepted as f64)),
            ("completed_conns", num(done as f64)),
            ("failed_conns", num(failed as f64)),
            ("bytes", num(delivered as f64)),
            ("conns_per_sec_sim", num(conns_per_sec)),
            ("handshake_p50_ns", num(pct(50))),
            ("handshake_p99_ns", num(pct(99))),
            ("goodput_mb_s_sim", num(goodput)),
            ("sim_ns", num(sim_ns as f64)),
            ("wall_ns", num(wall_ns as f64)),
            ("link_sent", num(ls.sent as f64)),
            ("link_dropped", num(ls.dropped as f64)),
            ("engine_seed", num(link.engine().seed() as f64)),
            ("engine_trace_events", num(link.engine().trace_len() as f64)),
            ("completed", Value::Bool(completed)),
        ]);
        ManyOutcome {
            accepted,
            failed,
            delivered,
            row,
        }
    }

    /// Server-scale sections: {1k, 10k} connections × {0, 5, 20}% loss,
    /// both generations per cell under the same engine seed. The verdict
    /// tuple (accepted, failed, delivered) must agree across generations
    /// for every cell — a divergence is stamped into the row and printed.
    pub fn bench_many(conn_counts: &[usize]) -> Value {
        let profiles = [
            ("clean", FaultConfig::default()),
            (
                "lossy5",
                FaultConfig {
                    drop: 0.05,
                    ..FaultConfig::default()
                },
            ),
            (
                "lossy20",
                FaultConfig {
                    drop: 0.20,
                    ..FaultConfig::default()
                },
            ),
        ];
        let mut rows = Vec::new();
        for &conns in conn_counts {
            if conns == 0 {
                continue;
            }
            for (name, cfg) in profiles {
                let [legacy, modular] =
                    GENERATIONS.map(|generation| drive_many(generation, (name, cfg), conns));
                let verdicts_match = (legacy.accepted, legacy.failed, legacy.delivered)
                    == (modular.accepted, modular.failed, modular.delivered);
                if !verdicts_match {
                    println!(
                        "  !! generations diverged at {conns} conns / {name}: \
                         legacy ({}, {}, {}) vs modular ({}, {}, {})",
                        legacy.accepted,
                        legacy.failed,
                        legacy.delivered,
                        modular.accepted,
                        modular.failed,
                        modular.delivered
                    );
                }
                for mut outcome in [legacy, modular] {
                    if let Value::Object(ref mut map) = outcome.row {
                        map.insert("verdicts_match".to_string(), Value::Bool(verdicts_match));
                    }
                    rows.push(outcome.row);
                }
            }
        }
        Value::Array(rows)
    }

    /// Both generations × {clean, lossy20} — the adversarial profile is
    /// the soak link from `tests/netstack_props.rs`.
    pub fn bench_netstack() -> Value {
        let profiles = [
            ("clean", FaultConfig::default()),
            ("lossy20", FaultConfig::adversarial(DEFAULT_RTO_NS / 4)),
        ];
        let mut rows = Vec::new();
        for (name, cfg) in profiles {
            for generation in GENERATIONS {
                rows.push(drive(generation, name, cfg));
            }
        }
        Value::Array(rows)
    }
}

struct Args {
    shards: Vec<usize>,
    threads: usize,
    out: String,
    net_out: String,
    lockdep_only: bool,
    net_only: bool,
    ring_only: bool,
    net_conns: Vec<usize>,
}

fn parse_args() -> Args {
    let mut args_out = Args {
        shards: vec![1usize, 8],
        threads: 8,
        out: "BENCH_storage.json".to_string(),
        net_out: "BENCH_net.json".to_string(),
        lockdep_only: false,
        net_only: false,
        ring_only: false,
        net_conns: vec![1000, 10_000],
    };
    let args: Vec<String> = std::env::args().collect();
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--lockdep" => {
                args_out.lockdep_only = true;
                i += 1;
            }
            "--net-only" => {
                args_out.net_only = true;
                i += 1;
            }
            "--ring-only" => {
                args_out.ring_only = true;
                i += 1;
            }
            "--shards" if i + 1 < args.len() => {
                args_out.shards = args[i + 1]
                    .split(',')
                    .filter_map(|s| s.trim().parse().ok())
                    .collect();
                i += 2;
            }
            "--threads" if i + 1 < args.len() => {
                args_out.threads = args[i + 1].parse().unwrap_or(8);
                i += 2;
            }
            // Connection counts for the server-scale sections; `--net-conns 0`
            // skips them (CI uses this for the fast drift check).
            "--net-conns" if i + 1 < args.len() => {
                args_out.net_conns = args[i + 1]
                    .split(',')
                    .filter_map(|s| s.trim().parse().ok())
                    .filter(|&n| n > 0)
                    .collect();
                i += 2;
            }
            "--out" if i + 1 < args.len() => {
                args_out.out = args[i + 1].clone();
                i += 2;
            }
            "--net-out" if i + 1 < args.len() => {
                args_out.net_out = args[i + 1].clone();
                i += 2;
            }
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
    }
    args_out
}

fn write_net_report(net_out: &str, net_conns: &[usize]) {
    println!("== netstack benchmark report ==\n");
    let net_report = obj(vec![
        (
            "meta",
            obj(vec![
                ("stream_bytes", num((128 * 1024) as f64)),
                // The scenario-engine seed every link row runs under;
                // replaying with this seed reproduces the exact fault
                // schedule (see DESIGN.md §15).
                ("engine_seed", num(42.0)),
            ]),
        ),
        ("soak", netbench::bench_netstack()),
        ("many_conns", netbench::bench_many(net_conns)),
    ]);
    let json = serde_json::to_string(&net_report).expect("serialize");
    std::fs::write(net_out, &json).expect("write net report");
    println!("\nwrote {net_out}");
}

fn main() {
    let Args {
        shards,
        threads,
        out,
        net_out,
        lockdep_only,
        net_only,
        ring_only,
        net_conns,
    } = parse_args();
    if lockdep_only {
        // CI mode: just the lockdep stress — exits nonzero on any
        // ordering finding, prints the graph summary.
        println!("== lockdep stress ({threads} threads) ==\n");
        bench_lockdep(threads);
        return;
    }
    if net_only {
        // CI mode: regenerate only the netstack report (the bench-drift
        // check compares its single-stream rows against the committed
        // baseline).
        write_net_report(&net_out, &net_conns);
        return;
    }
    if ring_only {
        // CI mode: just the reactors × depth ring sweep — the drift
        // check reads its rows from the written report; everything else
        // in the file is omitted so the step stays fast.
        println!("== ring throughput sweep ==\n");
        let report = obj(vec![(
            "ring_throughput",
            bench_ring_throughput(&[1, 2, 4, 8], &[32, 256, 1024]),
        )]);
        let json = serde_json::to_string(&report).expect("serialize");
        std::fs::write(&out, &json).expect("write report");
        println!("\nwrote {out}");
        return;
    }
    println!("== storage-path benchmark report (shards {shards:?}, {threads} threads) ==\n");

    // Verify rsfs state survives the concurrent group-commit run: a quick
    // correctness canary so throughput numbers are never from a broken fs.
    {
        let fs = Arc::new(make_rsfs(JournalMode::PerOp, 4096));
        let ino = fs.create(fs.root_ino(), "canary").unwrap();
        fs.write(ino, 0, b"canary").unwrap();
        let mut buf = vec![0u8; 6];
        assert_eq!(fs.read(ino, 0, &mut buf).unwrap(), 6);
        assert_eq!(&buf, b"canary");
    }

    let report = obj(vec![
        (
            "meta",
            obj(vec![
                ("threads", num(threads as f64)),
                // The host and build every wall-clock row ran on: rows
                // from different hosts or profiles are not comparable.
                (
                    "available_parallelism",
                    num(std::thread::available_parallelism().map_or(0, |n| n.get()) as f64),
                ),
                (
                    "profile",
                    Value::String(
                        if cfg!(debug_assertions) {
                            "debug"
                        } else {
                            "release"
                        }
                        .into(),
                    ),
                ),
                (
                    "shard_counts",
                    Value::Array(shards.iter().map(|&s| num(s as f64)).collect()),
                ),
            ]),
        ),
        ("buffer_cache_scaling", bench_buffer_cache(&shards, threads)),
        ("dcache_scaling", bench_dcache(&shards, threads)),
        ("fs_throughput", bench_fs_throughput()),
        ("group_commit", bench_group_commit(&[1, threads.max(2)])),
        ("async_commit", bench_async_commit()),
        (
            "ring_throughput",
            bench_ring_throughput(&[1, 2, 4, 8], &[32, 256, 1024]),
        ),
        ("vectored_io", bench_vectored_io()),
        ("crash_consistency", crashbench::bench_crash_consistency()),
        ("hot_swap", bench_hot_swap(&[1, 2, 4, 8])),
        ("lockdep", bench_lockdep(threads)),
    ]);

    let json = serde_json::to_string(&report).expect("serialize");
    std::fs::write(&out, &json).expect("write report");
    println!("\nwrote {out}\n");

    write_net_report(&net_out, &net_conns);
}
