//! Axiomatic models of unverified components (§4.4).
//!
//! "The boundary must provide assumptions (axioms) about the behavior of
//! the unverified module. … In the case of block I/O, the data structure
//! `buffer_head` may be abstracted away, and the axioms can be defined in
//! terms of bytes."
//!
//! [`AxiomaticDevice`] wraps an *unverified* block device in exactly that
//! model: a map from block numbers to the bytes last written (plus the
//! first-observed contents of blocks read before ever being written). The
//! axioms checked on every operation:
//!
//! - **A1 (read-after-write)**: a read returns the bytes most recently
//!   written to that block.
//! - **A2 (stability)**: a block never written since first observed keeps
//!   its first-observed contents.
//! - **A3 (geometry)**: `num_blocks`/`block_size` never change.
//!
//! A verified module "will appear buggy if either the block I/O layer is
//! buggy or the model erroneous" — so violations are recorded, not
//! panicked, and surface in the boundary's diagnostics. Running the
//! workspace's fault-injecting `FaultyDisk` with read corruption on under
//! this wrapper makes A1/A2 fire, demonstrating the axioms catching a
//! faulty substrate.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;
use sk_ksim::block::{BlockDevice, DeviceStats};
use sk_ksim::errno::KResult;

/// A recorded axiom violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AxiomViolation {
    /// Which axiom failed ("A1", "A2", "A3").
    pub axiom: &'static str,
    /// The block involved.
    pub blkno: u64,
    /// Description of the mismatch.
    pub what: String,
}

struct ModelState {
    /// Expected contents per block (written or first observed).
    expected: HashMap<u64, Vec<u8>>,
    /// Blocks whose entry came from a write (A1) vs first read (A2).
    written: HashMap<u64, bool>,
    violations: Vec<AxiomViolation>,
    geometry: (u64, usize),
}

/// Wraps an unverified device in the runtime-checked axiomatic model.
pub struct AxiomaticDevice<D> {
    inner: D,
    model: Mutex<ModelState>,
}

impl<D: BlockDevice> AxiomaticDevice<D> {
    /// Wraps `inner`; the model starts empty (no assumptions about prior
    /// contents).
    pub fn new(inner: D) -> Self {
        let geometry = (inner.num_blocks(), inner.block_size());
        AxiomaticDevice {
            inner,
            model: Mutex::new(ModelState {
                expected: HashMap::new(),
                written: HashMap::new(),
                violations: Vec::new(),
                geometry,
            }),
        }
    }

    /// The wrapped device.
    pub fn inner(&self) -> &D {
        &self.inner
    }

    /// All recorded axiom violations.
    pub fn violations(&self) -> Vec<AxiomViolation> {
        self.model.lock().violations.clone()
    }

    /// True if no axiom has been observed to fail.
    pub fn is_clean(&self) -> bool {
        self.model.lock().violations.is_empty()
    }

    /// Forgets the model's expectations (after an external event the model
    /// cannot see, e.g. restoring a snapshot under crash checking).
    pub fn reset_model(&self) {
        let mut m = self.model.lock();
        m.expected.clear();
        m.written.clear();
    }

    fn check_geometry(&self) {
        let mut m = self.model.lock();
        let now = (self.inner.num_blocks(), self.inner.block_size());
        if now != m.geometry {
            let expected = m.geometry;
            m.violations.push(AxiomViolation {
                axiom: "A3",
                blkno: 0,
                what: format!("geometry changed from {expected:?} to {now:?}"),
            });
            m.geometry = now;
        }
    }
}

impl<D: BlockDevice> BlockDevice for AxiomaticDevice<D> {
    fn num_blocks(&self) -> u64 {
        self.inner.num_blocks()
    }

    fn block_size(&self) -> usize {
        self.inner.block_size()
    }

    fn read_block(&self, blkno: u64, buf: &mut [u8]) -> KResult<()> {
        self.check_geometry();
        self.inner.read_block(blkno, buf)?;
        let mut m = self.model.lock();
        match m.expected.get(&blkno) {
            Some(expected) => {
                if expected != buf {
                    let axiom = if m.written.get(&blkno).copied().unwrap_or(false) {
                        "A1"
                    } else {
                        "A2"
                    };
                    m.violations.push(AxiomViolation {
                        axiom,
                        blkno,
                        what: "read returned bytes differing from the model".into(),
                    });
                    // Re-baseline so one corruption is one violation, not a
                    // violation on every subsequent read.
                    let data = buf.to_vec();
                    m.expected.insert(blkno, data);
                }
            }
            None => {
                // First observation of this block: record as baseline (A2).
                m.expected.insert(blkno, buf.to_vec());
                m.written.insert(blkno, false);
            }
        }
        Ok(())
    }

    fn write_block(&self, blkno: u64, buf: &[u8]) -> KResult<()> {
        self.check_geometry();
        self.inner.write_block(blkno, buf)?;
        let mut m = self.model.lock();
        m.expected.insert(blkno, buf.to_vec());
        m.written.insert(blkno, true);
        Ok(())
    }

    fn flush(&self) -> KResult<()> {
        self.inner.flush()
    }

    fn stats(&self) -> DeviceStats {
        self.inner.stats()
    }
}

// Allow wrapping shared devices.
impl<D: BlockDevice> AxiomaticDevice<Arc<D>> {
    /// Convenience: wraps a shared device.
    pub fn over(inner: Arc<D>) -> Self {
        AxiomaticDevice::new(inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sk_ksim::block::{DiskFaultConfig, FaultyDisk, RamDisk, BLOCK_SIZE};

    #[test]
    fn honest_device_satisfies_axioms() {
        let d = AxiomaticDevice::new(RamDisk::new(4));
        let data = vec![7u8; BLOCK_SIZE];
        d.write_block(1, &data).unwrap();
        let mut out = vec![0u8; BLOCK_SIZE];
        d.read_block(1, &mut out).unwrap();
        d.read_block(2, &mut out).unwrap(); // First-observe a clean block.
        d.read_block(2, &mut out).unwrap(); // Stable.
        d.flush().unwrap();
        assert!(d.is_clean(), "{:?}", d.violations());
    }

    #[test]
    fn corrupting_device_violates_a1() {
        let cfg = DiskFaultConfig {
            read_corrupt: 1.0,
            ..DiskFaultConfig::default()
        };
        let d = AxiomaticDevice::new(FaultyDisk::new(RamDisk::new(4), cfg, 11));
        let data = vec![0u8; BLOCK_SIZE];
        d.write_block(0, &data).unwrap();
        let mut out = vec![0u8; BLOCK_SIZE];
        d.read_block(0, &mut out).unwrap(); // Corrupted on the way back.
        let v = d.violations();
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].axiom, "A1");
        assert_eq!(v[0].blkno, 0);
    }

    #[test]
    fn out_of_band_mutation_violates_a2() {
        let ram = Arc::new(RamDisk::new(4));
        let d = AxiomaticDevice::new(Arc::clone(&ram));
        let mut out = vec![0u8; BLOCK_SIZE];
        d.read_block(3, &mut out).unwrap(); // Baseline: zeros.
                                            // Mutate behind the model's back.
        let sneaky = vec![9u8; BLOCK_SIZE];
        ram.write_block(3, &sneaky).unwrap();
        d.read_block(3, &mut out).unwrap();
        let v = d.violations();
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].axiom, "A2");
    }

    #[test]
    fn one_corruption_one_violation() {
        let ram = Arc::new(RamDisk::new(4));
        let d = AxiomaticDevice::new(Arc::clone(&ram));
        let data = vec![1u8; BLOCK_SIZE];
        d.write_block(0, &data).unwrap();
        let sneaky = vec![2u8; BLOCK_SIZE];
        ram.write_block(0, &sneaky).unwrap();
        let mut out = vec![0u8; BLOCK_SIZE];
        d.read_block(0, &mut out).unwrap();
        d.read_block(0, &mut out).unwrap();
        d.read_block(0, &mut out).unwrap();
        assert_eq!(d.violations().len(), 1, "re-baselined after first report");
    }

    #[test]
    fn reset_model_forgets_expectations() {
        let ram = Arc::new(RamDisk::new(4));
        let d = AxiomaticDevice::new(Arc::clone(&ram));
        let data = vec![1u8; BLOCK_SIZE];
        d.write_block(0, &data).unwrap();
        let other = vec![2u8; BLOCK_SIZE];
        ram.write_block(0, &other).unwrap();
        d.reset_model();
        let mut out = vec![0u8; BLOCK_SIZE];
        d.read_block(0, &mut out).unwrap();
        assert!(d.is_clean(), "after reset the new content is the baseline");
    }
}
