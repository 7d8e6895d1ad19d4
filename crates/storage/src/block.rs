//! Block devices: the storage abstraction under the SD card and FAT32.

use rvcap_sim::state::{StateBlob, StateError, StateValue};
use rvcap_sim::PagedBytes;

/// Block (sector) size in bytes. SD cards and FAT32 both use 512.
pub const BLOCK_SIZE: usize = 512;

/// A fixed-geometry block device.
pub trait BlockDevice {
    /// Number of addressable blocks.
    fn num_blocks(&self) -> u64;

    /// Read block `lba` into `buf`.
    ///
    /// Panics on an out-of-range LBA: callers (SD command layer,
    /// FAT32) validate ranges, so an OOB access is a bug, not an I/O
    /// error.
    fn read_block(&mut self, lba: u64, buf: &mut [u8; BLOCK_SIZE]);

    /// Write `buf` to block `lba`.
    fn write_block(&mut self, lba: u64, buf: &[u8; BLOCK_SIZE]);

    /// Capacity in bytes.
    fn capacity_bytes(&self) -> u64 {
        self.num_blocks() * BLOCK_SIZE as u64
    }

    /// Checkpoint the device contents. The default declares the device
    /// unsnapshottable (`None`), which makes any enclosing
    /// [`crate::SdCard`] checkpoint fail loudly rather than silently
    /// dropping the medium.
    fn save_state(&self) -> Option<StateValue> {
        None
    }

    /// Inverse of [`BlockDevice::save_state`].
    fn restore_state(&mut self, v: &StateValue) -> Result<(), StateError> {
        let _ = v;
        Err(StateError::Unsupported {
            component: "block-device".into(),
        })
    }
}

/// An in-memory block device (the simulated SD card's flash array),
/// kept in a copy-on-write [`PagedBytes`] store: blocks never written
/// cost nothing, and a checkpoint shares the written ones.
#[derive(Debug, Clone)]
pub struct MemBlockDevice {
    blocks: PagedBytes,
    reads: u64,
    writes: u64,
}

impl MemBlockDevice {
    /// A zero-filled device of `num_blocks` blocks.
    pub fn new(num_blocks: u64) -> Self {
        MemBlockDevice {
            blocks: PagedBytes::new(num_blocks as usize * BLOCK_SIZE),
            reads: 0,
            writes: 0,
        }
    }

    /// A device sized in mebibytes (convenience for tests/examples).
    pub fn with_mib(mib: u64) -> Self {
        MemBlockDevice::new(mib * 1024 * 1024 / BLOCK_SIZE as u64)
    }

    /// Lifetime block reads (I/O accounting for benches).
    pub fn reads(&self) -> u64 {
        self.reads
    }

    /// Lifetime block writes.
    pub fn writes(&self) -> u64 {
        self.writes
    }
}

impl BlockDevice for MemBlockDevice {
    fn num_blocks(&self) -> u64 {
        (self.blocks.len() / BLOCK_SIZE) as u64
    }

    fn read_block(&mut self, lba: u64, buf: &mut [u8; BLOCK_SIZE]) {
        self.blocks.read(lba as usize * BLOCK_SIZE, buf);
        self.reads += 1;
    }

    fn write_block(&mut self, lba: u64, buf: &[u8; BLOCK_SIZE]) {
        self.blocks.write(lba as usize * BLOCK_SIZE, buf);
        self.writes += 1;
    }

    fn save_state(&self) -> Option<StateValue> {
        let mut b = StateBlob::new("storage.mem_block", 2);
        b.put_paged("blocks", self.blocks.clone());
        b.put_u64("reads", self.reads);
        b.put_u64("writes", self.writes);
        Some(StateValue::Blob(Box::new(b)))
    }

    fn restore_state(&mut self, v: &StateValue) -> Result<(), StateError> {
        let b = v.as_blob("storage.mem_block")?;
        b.expect("storage.mem_block", 2)?;
        let blocks = b.get_paged("blocks")?;
        if blocks.len() != self.blocks.len() {
            return Err(b.structure_error(format!(
                "device size mismatch: instance {} bytes, state {}",
                self.blocks.len(),
                blocks.len()
            )));
        }
        self.blocks = blocks.clone();
        self.reads = b.get_u64("reads")?;
        self.writes = b.get_u64("writes")?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry() {
        let d = MemBlockDevice::with_mib(1);
        assert_eq!(d.num_blocks(), 2048);
        assert_eq!(d.capacity_bytes(), 1024 * 1024);
    }

    #[test]
    fn read_write_round_trip() {
        let mut d = MemBlockDevice::new(4);
        let mut block = [0u8; BLOCK_SIZE];
        block[0] = 0xAB;
        block[511] = 0xCD;
        d.write_block(2, &block);
        let mut back = [0u8; BLOCK_SIZE];
        d.read_block(2, &mut back);
        assert_eq!(back, block);
        // Neighbours untouched.
        d.read_block(1, &mut back);
        assert_eq!(back, [0u8; BLOCK_SIZE]);
        assert_eq!(d.writes(), 1);
    }

    #[test]
    fn checkpoint_shares_blocks_and_restores_them() {
        let mut d = MemBlockDevice::with_mib(1);
        d.write_block(5, &[0xAB; BLOCK_SIZE]);
        let saved = d.save_state().unwrap();
        d.write_block(5, &[0xCD; BLOCK_SIZE]);
        d.write_block(900, &[1; BLOCK_SIZE]);
        d.restore_state(&saved).unwrap();
        let mut back = [0u8; BLOCK_SIZE];
        d.read_block(5, &mut back);
        assert_eq!(back, [0xAB; BLOCK_SIZE], "a later write leaked");
        d.read_block(900, &mut back);
        assert_eq!(back, [0; BLOCK_SIZE]);
        let pages = saved
            .as_blob("t")
            .unwrap()
            .get_paged("blocks")
            .unwrap()
            .resident_pages();
        assert_eq!(pages, 1, "only the written block's page is held");
    }

    #[test]
    fn restore_rejects_another_size_and_old_versions() {
        let saved = MemBlockDevice::new(8).save_state().unwrap();
        assert!(matches!(
            MemBlockDevice::new(9).restore_state(&saved),
            Err(StateError::Structure { .. })
        ));
        let v1 = StateValue::Blob(Box::new(StateBlob::new("storage.mem_block", 1)));
        assert!(matches!(
            MemBlockDevice::new(8).restore_state(&v1),
            Err(StateError::VersionMismatch { got: 1, .. })
        ));
    }

    #[test]
    #[should_panic]
    fn oob_read_panics() {
        let mut d = MemBlockDevice::new(2);
        let mut buf = [0u8; BLOCK_SIZE];
        d.read_block(2, &mut buf);
    }
}
