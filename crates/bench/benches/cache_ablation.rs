//! Ablation — the caching design choices DESIGN.md calls out.
//!
//! Two knobs the kernel-side layers add on top of the file systems:
//!
//! - **dentry cache**: path resolution of a 4-deep path with the dcache
//!   warm versus deliberately cleared before every walk;
//! - **buffer cache capacity**: a random-read workload over a 64-block
//!   file with the cache sized to hold 1/4, 1/2, and 2× the working set —
//!   the crossover from miss-dominated to hit-dominated is the shape to
//!   look for.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sk_core::modularity::Registry;
use sk_fs_safe::rsfs::{JournalMode, Rsfs};
use sk_ksim::block::{BlockDevice, RamDisk};
use sk_ksim::buffer::BufferCache;
use sk_vfs::modular::FileSystem;
use sk_vfs::path::{Vfs, FS_INTERFACE};

fn bench_dcache(c: &mut Criterion) {
    let mut group = c.benchmark_group("cache_ablation/dcache");
    group.sample_size(30);
    group.warm_up_time(std::time::Duration::from_millis(200));
    group.measurement_time(std::time::Duration::from_millis(800));

    let dev: Arc<dyn BlockDevice> = Arc::new(RamDisk::new(4096));
    Rsfs::mkfs(&dev, 256, 64).expect("mkfs");
    let fs = Rsfs::mount(dev, JournalMode::None).expect("mount");
    let registry = Registry::new();
    registry
        .register::<dyn FileSystem>(FS_INTERFACE, "rsfs", Arc::new(fs) as Arc<dyn FileSystem>)
        .expect("register");
    let vfs = Vfs::mount(&registry).expect("vfs");
    vfs.mkdir("/a").unwrap();
    vfs.mkdir("/a/b").unwrap();
    vfs.mkdir("/a/b/c").unwrap();
    vfs.create("/a/b/c/leaf").unwrap();

    group.bench_function("warm", |b| {
        b.iter(|| vfs.resolve(std::hint::black_box("/a/b/c/leaf")).unwrap())
    });
    group.bench_function("cold", |b| {
        b.iter(|| {
            vfs.dcache().clear();
            vfs.resolve(std::hint::black_box("/a/b/c/leaf")).unwrap()
        })
    });
    group.finish();
}

fn bench_buffer_capacity(c: &mut Criterion) {
    let mut group = c.benchmark_group("cache_ablation/buffer_capacity");
    group.sample_size(20);
    group.warm_up_time(std::time::Duration::from_millis(200));
    group.measurement_time(std::time::Duration::from_millis(800));

    // Working set: 64 blocks touched in a fixed pseudo-random order.
    let order: Vec<u64> = (0..256u64).map(|i| (i * 37) % 64).collect();
    for capacity in [16usize, 32, 128] {
        group.bench_with_input(
            BenchmarkId::from_parameter(capacity),
            &capacity,
            |b, &cap| {
                let dev: Arc<dyn BlockDevice> = Arc::new(RamDisk::new(128));
                let cache = BufferCache::new(dev, cap);
                let mut sink = 0u64;
                b.iter(|| {
                    for &blk in &order {
                        let buf = cache.bread(blk).unwrap();
                        sink = sink.wrapping_add(buf.read(|d| u64::from(d[0])));
                    }
                    std::hint::black_box(sink)
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_dcache, bench_buffer_capacity);
criterion_main!(benches);
