//! # sk-ksim — simulated kernel substrate
//!
//! This crate is the "hardware and core-kernel" substrate that the rest of
//! the workspace runs on. The paper ("An Incremental Path Towards a Safer OS
//! Kernel", HotOS '21) targets the real Linux kernel; since we reproduce its
//! roadmap in an offline, deterministic setting, this crate supplies the
//! pieces of Linux the roadmap's modules interact with:
//!
//! - [`block`]: block devices — a RAM disk, one fault-injecting wrapper
//!   ([`block::FaultyDisk`]), and a crash-capturing wrapper that models a
//!   volatile write cache so that crash-consistency checking can enumerate
//!   every crash point.
//! - [`buffer`]: a buffer cache with Linux's `buffer_head` state flags (the
//!   paper's §4.4 uses `buffer_head`'s sixteen flags as its motivating
//!   example of complex interface semantics) and flag-combination validation.
//! - [`kalloc`]: a kernel object arena with generational handles. This is the
//!   mechanism that lets the `sk-legacy` crate *detect* use-after-free and
//!   double-free instead of committing them.
//! - [`lock`]: lock primitives with discipline tracking — lock-order
//!   recording and "which lock protects this field" contracts, modelling the
//!   paper's §4.3 `i_lock`/`i_size` example.
//! - [`percpu`]: thread-sharded counters, the statistics primitive of
//!   the lock registry and the buffer cache.
//! - [`time`]: a simulated clock used by the latency model and the netstack.
//! - [`klog`]: a ring-buffer kernel log.
//! - [`lanehash`]: the word-speed lane checksum shared by the network
//!   frame and the journal record.
//! - [`errno`]: Linux-style error numbers shared by every crate.
//!
//! Everything here is deterministic: fault injection and latency use seeded
//! RNGs, and the clock only advances when told to.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod block;
pub mod buffer;
pub mod errno;
pub mod kalloc;
pub mod klog;
pub mod lanehash;
pub mod lock;
pub mod percpu;
pub mod scenario;
pub mod time;
pub mod workqueue;

pub use block::{BlockDevice, CrashDevice, RamDisk};
pub use buffer::{BufferCache, BufferHead, BufferState};
pub use errno::{Errno, KResult};
pub use kalloc::{Arena, ObjRef};
pub use lock::{KLock, LockRegistry};
pub use scenario::{EngineStream, ScenarioEngine, TraceEvent};
pub use time::SimClock;
pub use workqueue::{Flusher, WorkQueue};
