//! # sk-fs-safe — "rsfs", the roadmap file system
//!
//! The Safe-Rust, journaled, refinement-checked file system that the
//! incremental roadmap replaces cext4 with (the workspace's analogue of
//! Bento's Rust file systems loaded into Linux):
//!
//! - **Steps 1–3**: implements `sk_vfs::modular::FileSystem` — registered
//!   behind the Step-1 registry, no `void *` anywhere, errors as
//!   `KResult`, arguments in the three ownership-sharing models, checked
//!   arithmetic throughout (`sk_core::typesafe::ovf`).
//! - **Journal** ([`journal`]): a jbd2-style write-ahead journal. Every
//!   mutating operation's block writes are staged in a transaction; commit
//!   writes descriptor + payload + checksummed commit record into the
//!   journal area, flushes, checkpoints to home locations, flushes, then
//!   retires the transaction. Recovery replays any committed-but-not-
//!   retired transaction; torn/uncommitted tails are discarded.
//! - **Step 4** ([`rsfs`] + `sk_core::spec`): `Rsfs` implements
//!   `Refines<FsModel>`; every operation's relation is checked against the
//!   abstract model in the test suite, and the crash checker enumerates
//!   every crash point of every transaction and verifies recovery lands on
//!   an allowed model ("recovers to the last synced version", §4.4).
//!
//! - **fsck** ([`fsck`](mod@fsck)): the static half of the specification — seven
//!   well-formedness invariants of the on-disk image, run over every
//!   recovered crash image in the test suite.
//!
//! The on-disk format ([`layout`]) extends the bitmap-FS family with a
//! journal region at the end of the device.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fsck;
pub mod journal;
pub mod layout;
pub mod rsfs;

pub use fsck::{fsck, FsckReport};
pub use journal::{Journal, JournalStats};
pub use rsfs::Rsfs;
