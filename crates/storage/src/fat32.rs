//! A minimalist FAT32 implementation.
//!
//! Matches the scope the paper describes (§III-A): reading, writing
//! and overwriting files. Concretely:
//!
//! * real on-disk FAT32 layout: BPB with `0x55AA` signature, two FAT
//!   copies kept in sync, data region in cluster chains, root
//!   directory as a normal cluster chain;
//! * 8.3 names in the root directory (no long file names, no
//!   subdirectories — the paper's bitstream store is a flat
//!   directory of `.pbit` files);
//! * `format`, `mount`, `create`, `read`, `overwrite`, `delete`,
//!   `list`, plus chunked [`Fat32Volume::read_into`] used by the
//!   drivers to stage a file into DDR block by block.

use crate::block::{BlockDevice, BLOCK_SIZE};

/// End-of-chain marker (any value ≥ 0x0FFFFFF8).
const EOC: u32 = 0x0FFF_FFFF;
/// FAT entries are 28-bit; the top nibble is reserved.
const FAT_MASK: u32 = 0x0FFF_FFFF;
/// Sectors per cluster used by [`Fat32Volume::format`].
const SECTORS_PER_CLUSTER: u32 = 8;
/// Reserved sectors before the first FAT.
const RESERVED_SECTORS: u32 = 32;
/// Directory entry size.
const DIRENT_SIZE: usize = 32;

/// Filesystem errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FsError {
    /// Volume has no/invalid FAT32 boot sector.
    NotFat32,
    /// File name is not a valid 8.3 name.
    BadName(String),
    /// File not found.
    NotFound(String),
    /// File already exists.
    Exists(String),
    /// No free clusters left.
    VolumeFull,
    /// Root directory has no free entry and cannot grow.
    DirectoryFull,
    /// Device too small to format.
    DeviceTooSmall,
    /// Corrupt cluster chain (cycle or out-of-range entry).
    CorruptChain(u32),
}

impl std::fmt::Display for FsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FsError::NotFat32 => write!(f, "not a FAT32 volume"),
            FsError::BadName(n) => write!(f, "invalid 8.3 name: {n}"),
            FsError::NotFound(n) => write!(f, "file not found: {n}"),
            FsError::Exists(n) => write!(f, "file already exists: {n}"),
            FsError::VolumeFull => write!(f, "no free clusters"),
            FsError::DirectoryFull => write!(f, "root directory full"),
            FsError::DeviceTooSmall => write!(f, "device too small for FAT32"),
            FsError::CorruptChain(c) => write!(f, "corrupt cluster chain at {c}"),
        }
    }
}

impl std::error::Error for FsError {}

/// Volume geometry parsed from (or written to) the BPB.
#[derive(Debug, Clone, Copy)]
struct Geometry {
    sectors_per_cluster: u32,
    reserved_sectors: u32,
    num_fats: u32,
    fat_sectors: u32,
    total_sectors: u32,
    root_cluster: u32,
}

impl Geometry {
    fn fat_start(&self, fat: u32) -> u32 {
        self.reserved_sectors + fat * self.fat_sectors
    }

    fn data_start(&self) -> u32 {
        self.reserved_sectors + self.num_fats * self.fat_sectors
    }

    fn cluster_count(&self) -> u32 {
        (self.total_sectors - self.data_start()) / self.sectors_per_cluster
    }

    fn cluster_bytes(&self) -> usize {
        self.sectors_per_cluster as usize * BLOCK_SIZE
    }

    /// First sector of a data cluster (clusters start at 2).
    fn cluster_sector(&self, cluster: u32) -> u32 {
        self.data_start() + (cluster - 2) * self.sectors_per_cluster
    }

    /// Highest valid cluster number.
    fn max_cluster(&self) -> u32 {
        self.cluster_count() + 1
    }
}

/// A mounted FAT32 volume over a block device.
pub struct Fat32Volume<D: BlockDevice> {
    dev: D,
    geo: Geometry,
    /// Next-free search hint (like FSInfo's next-free field).
    free_hint: u32,
}

/// A directory listing entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileInfo {
    /// File name in `NAME.EXT` form.
    pub name: String,
    /// Size in bytes.
    pub size: u32,
    /// First cluster of the chain.
    pub first_cluster: u32,
}

impl<D: BlockDevice> Fat32Volume<D> {
    // ------------------------------------------------------------------
    // Format & mount
    // ------------------------------------------------------------------

    /// Create a fresh FAT32 filesystem on `dev` and mount it.
    pub fn format(mut dev: D) -> Result<Self, FsError> {
        let total_sectors = u32::try_from(dev.num_blocks()).map_err(|_| FsError::DeviceTooSmall)?;
        if total_sectors < 1024 {
            return Err(FsError::DeviceTooSmall);
        }
        // Solve FAT size: each FAT sector maps 128 clusters.
        // data = total - reserved - 2*fat ; clusters = data / spc ;
        // fat must cover clusters + 2 entries.
        let mut fat_sectors = 1u32;
        loop {
            let data = total_sectors - RESERVED_SECTORS - 2 * fat_sectors;
            let clusters = data / SECTORS_PER_CLUSTER;
            let needed = (clusters + 2).div_ceil(128);
            if needed <= fat_sectors {
                break;
            }
            fat_sectors = needed;
        }
        let geo = Geometry {
            sectors_per_cluster: SECTORS_PER_CLUSTER,
            reserved_sectors: RESERVED_SECTORS,
            num_fats: 2,
            fat_sectors,
            total_sectors,
            root_cluster: 2,
        };

        // Boot sector / BPB.
        let mut bpb = [0u8; BLOCK_SIZE];
        bpb[0] = 0xEB; // jump
        bpb[1] = 0x58;
        bpb[2] = 0x90;
        bpb[3..11].copy_from_slice(b"RVCAP1.0"); // OEM
        bpb[11..13].copy_from_slice(&(BLOCK_SIZE as u16).to_le_bytes());
        bpb[13] = SECTORS_PER_CLUSTER as u8;
        bpb[14..16].copy_from_slice(&(RESERVED_SECTORS as u16).to_le_bytes());
        bpb[16] = 2; // num FATs
                     // root entries (0 for FAT32), total16 (0), media, fatsz16 (0)
        bpb[21] = 0xF8;
        bpb[32..36].copy_from_slice(&total_sectors.to_le_bytes());
        bpb[36..40].copy_from_slice(&fat_sectors.to_le_bytes());
        bpb[44..48].copy_from_slice(&geo.root_cluster.to_le_bytes());
        bpb[82..90].copy_from_slice(b"FAT32   ");
        bpb[510] = 0x55;
        bpb[511] = 0xAA;
        dev.write_block(0, &bpb);

        // Zero both FATs.
        let zero = [0u8; BLOCK_SIZE];
        for fat in 0..2 {
            for s in 0..fat_sectors {
                dev.write_block((geo.fat_start(fat) + s) as u64, &zero);
            }
        }
        let mut vol = Fat32Volume {
            dev,
            geo,
            free_hint: 3,
        };
        // Reserved entries 0 and 1, root dir cluster chain (single
        // cluster, zeroed).
        vol.set_fat(0, 0x0FFF_FFF8)?;
        vol.set_fat(1, EOC)?;
        vol.set_fat(geo.root_cluster, EOC)?;
        vol.zero_cluster(geo.root_cluster);
        Ok(vol)
    }

    /// Mount an existing FAT32 volume.
    pub fn mount(mut dev: D) -> Result<Self, FsError> {
        let mut bpb = [0u8; BLOCK_SIZE];
        dev.read_block(0, &mut bpb);
        if bpb[510] != 0x55 || bpb[511] != 0xAA {
            return Err(FsError::NotFat32);
        }
        let bytes_per_sector = u16::from_le_bytes([bpb[11], bpb[12]]) as usize;
        if bytes_per_sector != BLOCK_SIZE {
            return Err(FsError::NotFat32);
        }
        let fat_sectors = u32::from_le_bytes([bpb[36], bpb[37], bpb[38], bpb[39]]);
        if fat_sectors == 0 {
            return Err(FsError::NotFat32); // FAT12/16, not 32
        }
        let geo = Geometry {
            sectors_per_cluster: bpb[13] as u32,
            reserved_sectors: u16::from_le_bytes([bpb[14], bpb[15]]) as u32,
            num_fats: bpb[16] as u32,
            fat_sectors,
            total_sectors: u32::from_le_bytes([bpb[32], bpb[33], bpb[34], bpb[35]]),
            root_cluster: u32::from_le_bytes([bpb[44], bpb[45], bpb[46], bpb[47]]),
        };
        if geo.sectors_per_cluster == 0 || geo.num_fats == 0 {
            return Err(FsError::NotFat32);
        }
        // The cluster arithmetic trusts the geometry, so reject any
        // that is impossible: the data region, with at least one
        // cluster, must lie inside `total_sectors`, which must fit on
        // the device; the FAT must map every cluster; and the root
        // directory must start on one.
        let data_end = geo
            .num_fats
            .checked_mul(geo.fat_sectors)
            .and_then(|fats| fats.checked_add(geo.reserved_sectors))
            .and_then(|data| data.checked_add(geo.sectors_per_cluster));
        if data_end.is_none_or(|end| end > geo.total_sectors)
            || u64::from(geo.total_sectors) > dev.num_blocks()
        {
            return Err(FsError::NotFat32);
        }
        // FAT entries 0..=max_cluster, four bytes each.
        let fat_entries = u64::from(geo.fat_sectors) * (BLOCK_SIZE / 4) as u64;
        if fat_entries <= u64::from(geo.max_cluster())
            || !(2..=geo.max_cluster()).contains(&geo.root_cluster)
        {
            return Err(FsError::NotFat32);
        }
        Ok(Fat32Volume {
            dev,
            geo,
            free_hint: 3,
        })
    }

    /// Release the underlying device.
    pub fn into_device(self) -> D {
        self.dev
    }

    /// Borrow the underlying device.
    pub fn device(&self) -> &D {
        &self.dev
    }

    /// Mutably borrow the underlying device.
    pub fn device_mut(&mut self) -> &mut D {
        &mut self.dev
    }

    // ------------------------------------------------------------------
    // FAT access
    // ------------------------------------------------------------------

    fn fat_entry(&mut self, cluster: u32) -> Result<u32, FsError> {
        if cluster > self.geo.max_cluster() {
            return Err(FsError::CorruptChain(cluster));
        }
        let byte = cluster as u64 * 4;
        let sector = self.geo.fat_start(0) as u64 + byte / BLOCK_SIZE as u64;
        let off = (byte % BLOCK_SIZE as u64) as usize;
        let mut buf = [0u8; BLOCK_SIZE];
        self.dev.read_block(sector, &mut buf);
        Ok(u32::from_le_bytes([buf[off], buf[off + 1], buf[off + 2], buf[off + 3]]) & FAT_MASK)
    }

    fn set_fat(&mut self, cluster: u32, value: u32) -> Result<(), FsError> {
        if cluster > self.geo.max_cluster() {
            return Err(FsError::CorruptChain(cluster));
        }
        let byte = cluster as u64 * 4;
        let off = (byte % BLOCK_SIZE as u64) as usize;
        // Keep both FAT copies in sync.
        for fat in 0..self.geo.num_fats {
            let sector = self.geo.fat_start(fat) as u64 + byte / BLOCK_SIZE as u64;
            let mut buf = [0u8; BLOCK_SIZE];
            self.dev.read_block(sector, &mut buf);
            buf[off..off + 4].copy_from_slice(&(value & FAT_MASK).to_le_bytes());
            self.dev.write_block(sector, &buf);
        }
        Ok(())
    }

    /// Claim the first free cluster at or after the hint, wrapping
    /// around the whole data region `2..=max_cluster`.
    fn alloc_cluster(&mut self) -> Result<u32, FsError> {
        let max = self.geo.max_cluster();
        let next = |c: u32| if c >= max { 2 } else { c + 1 };
        let start = self.free_hint.clamp(2, max);
        let mut c = start;
        loop {
            if self.fat_entry(c)? == 0 {
                self.set_fat(c, EOC)?;
                self.free_hint = next(c);
                return Ok(c);
            }
            c = next(c);
            if c == start {
                return Err(FsError::VolumeFull);
            }
        }
    }

    fn free_chain(&mut self, first: u32) -> Result<(), FsError> {
        let mut c = first;
        let mut hops = 0u32;
        while (2..0x0FFF_FFF8).contains(&c) {
            let next = self.fat_entry(c)?;
            self.set_fat(c, 0)?;
            c = next;
            hops += 1;
            if hops > self.geo.cluster_count() {
                return Err(FsError::CorruptChain(c));
            }
        }
        Ok(())
    }

    /// Walk a chain collecting cluster numbers.
    fn chain(&mut self, first: u32) -> Result<Vec<u32>, FsError> {
        let mut out = Vec::new();
        let mut c = first;
        while (2..0x0FFF_FFF8).contains(&c) {
            out.push(c);
            if out.len() as u32 > self.geo.cluster_count() {
                return Err(FsError::CorruptChain(c));
            }
            c = self.fat_entry(c)?;
        }
        Ok(out)
    }

    fn zero_cluster(&mut self, cluster: u32) {
        let zero = [0u8; BLOCK_SIZE];
        let s0 = self.geo.cluster_sector(cluster);
        for s in 0..self.geo.sectors_per_cluster {
            self.dev.write_block((s0 + s) as u64, &zero);
        }
    }

    // ------------------------------------------------------------------
    // Directory handling (root only)
    // ------------------------------------------------------------------

    /// Iterate root-directory entries as (cluster, sector, offset, raw).
    fn scan_root<F>(&mut self, mut f: F) -> Result<(), FsError>
    where
        F: FnMut(u64, usize, &[u8; DIRENT_SIZE]) -> bool,
    {
        for cluster in self.chain(self.geo.root_cluster)? {
            let s0 = self.geo.cluster_sector(cluster) as u64;
            for s in 0..self.geo.sectors_per_cluster as u64 {
                let mut buf = [0u8; BLOCK_SIZE];
                self.dev.read_block(s0 + s, &mut buf);
                for e in 0..BLOCK_SIZE / DIRENT_SIZE {
                    let mut raw = [0u8; DIRENT_SIZE];
                    raw.copy_from_slice(&buf[e * DIRENT_SIZE..(e + 1) * DIRENT_SIZE]);
                    if !f(s0 + s, e * DIRENT_SIZE, &raw) {
                        return Ok(());
                    }
                }
            }
        }
        Ok(())
    }

    fn find_entry(&mut self, name83: &[u8; 11]) -> Result<Option<(u64, usize, FileInfo)>, FsError> {
        let mut found = None;
        self.scan_root(|sector, off, raw| {
            if raw[0] == 0x00 {
                return false; // end of directory
            }
            if raw[0] == 0xE5 || raw[11] & 0x08 != 0 {
                return true; // deleted or volume label
            }
            if &raw[0..11] == name83 {
                found = Some((sector, off, parse_dirent(raw)));
                return false;
            }
            true
        })?;
        Ok(found)
    }

    fn write_dirent(&mut self, sector: u64, off: usize, raw: &[u8; DIRENT_SIZE]) {
        let mut buf = [0u8; BLOCK_SIZE];
        self.dev.read_block(sector, &mut buf);
        buf[off..off + DIRENT_SIZE].copy_from_slice(raw);
        self.dev.write_block(sector, &buf);
    }

    /// Find a free root-directory slot, growing the root chain if
    /// needed.
    fn free_slot(&mut self) -> Result<(u64, usize), FsError> {
        let mut slot = None;
        self.scan_root(|sector, off, raw| {
            if raw[0] == 0x00 || raw[0] == 0xE5 {
                slot = Some((sector, off));
                return false;
            }
            true
        })?;
        if let Some(s) = slot {
            return Ok(s);
        }
        // Root directory full: extend the chain by one cluster.
        let chain = self.chain(self.geo.root_cluster)?;
        let last = *chain.last().expect("root chain is never empty");
        let new = self.alloc_cluster()?;
        self.set_fat(last, new)?;
        self.zero_cluster(new);
        Ok((self.geo.cluster_sector(new) as u64, 0))
    }

    // ------------------------------------------------------------------
    // Public file API
    // ------------------------------------------------------------------

    /// List files in the root directory.
    pub fn list(&mut self) -> Result<Vec<FileInfo>, FsError> {
        let mut out = Vec::new();
        self.scan_root(|_, _, raw| {
            if raw[0] == 0x00 {
                return false;
            }
            if raw[0] != 0xE5 && raw[11] & 0x08 == 0 {
                out.push(parse_dirent(raw));
            }
            true
        })?;
        Ok(out)
    }

    /// Size of a file in bytes.
    pub fn file_size(&mut self, name: &str) -> Result<u32, FsError> {
        let n = name_to_83(name)?;
        self.find_entry(&n)?
            .map(|(_, _, info)| info.size)
            .ok_or_else(|| FsError::NotFound(name.to_string()))
    }

    /// Read a whole file.
    pub fn read(&mut self, name: &str) -> Result<Vec<u8>, FsError> {
        let n = name_to_83(name)?;
        let (_, _, info) = self
            .find_entry(&n)?
            .ok_or_else(|| FsError::NotFound(name.to_string()))?;
        let mut out = Vec::with_capacity(info.size as usize);
        self.read_into(&info, |chunk| out.extend_from_slice(chunk))?;
        Ok(out)
    }

    /// Stream a file's contents in cluster-sized chunks through `sink`
    /// — the shape the drivers use to copy SD → DDR without building
    /// the file in one allocation.
    pub fn read_into(
        &mut self,
        info: &FileInfo,
        mut sink: impl FnMut(&[u8]),
    ) -> Result<(), FsError> {
        if info.size == 0 {
            return Ok(());
        }
        let mut remaining = info.size as usize;
        for cluster in self.chain(info.first_cluster)? {
            let s0 = self.geo.cluster_sector(cluster) as u64;
            for s in 0..self.geo.sectors_per_cluster as u64 {
                if remaining == 0 {
                    return Ok(());
                }
                let mut buf = [0u8; BLOCK_SIZE];
                self.dev.read_block(s0 + s, &mut buf);
                let take = remaining.min(BLOCK_SIZE);
                sink(&buf[..take]);
                remaining -= take;
            }
        }
        if remaining > 0 {
            return Err(FsError::CorruptChain(info.first_cluster));
        }
        Ok(())
    }

    /// Create a new file. Fails if it exists.
    pub fn create(&mut self, name: &str, data: &[u8]) -> Result<(), FsError> {
        let n = name_to_83(name)?;
        if self.find_entry(&n)?.is_some() {
            return Err(FsError::Exists(name.to_string()));
        }
        let first = self.write_data(data)?;
        let (sector, off) = self.free_slot()?;
        let raw = make_dirent(&n, first, data.len() as u32);
        self.write_dirent(sector, off, &raw);
        Ok(())
    }

    /// Replace an existing file's contents (the paper's "overwriting"
    /// case — updating a stored partial bitstream in place).
    pub fn overwrite(&mut self, name: &str, data: &[u8]) -> Result<(), FsError> {
        let n = name_to_83(name)?;
        let (sector, off, info) = self
            .find_entry(&n)?
            .ok_or_else(|| FsError::NotFound(name.to_string()))?;
        if info.first_cluster >= 2 {
            self.free_chain(info.first_cluster)?;
        }
        let first = self.write_data(data)?;
        let raw = make_dirent(&n, first, data.len() as u32);
        self.write_dirent(sector, off, &raw);
        Ok(())
    }

    /// Create or overwrite.
    pub fn write(&mut self, name: &str, data: &[u8]) -> Result<(), FsError> {
        match self.overwrite(name, data) {
            Err(FsError::NotFound(_)) => self.create(name, data),
            other => other,
        }
    }

    /// Delete a file.
    pub fn delete(&mut self, name: &str) -> Result<(), FsError> {
        let n = name_to_83(name)?;
        let (sector, off, info) = self
            .find_entry(&n)?
            .ok_or_else(|| FsError::NotFound(name.to_string()))?;
        if info.first_cluster >= 2 {
            self.free_chain(info.first_cluster)?;
        }
        let mut raw = make_dirent(&n, 0, 0);
        raw[0] = 0xE5;
        self.write_dirent(sector, off, &raw);
        Ok(())
    }

    /// Free clusters remaining.
    pub fn free_clusters(&mut self) -> Result<u32, FsError> {
        let mut free = 0;
        for c in 2..=self.geo.max_cluster() {
            if self.fat_entry(c)? == 0 {
                free += 1;
            }
        }
        Ok(free)
    }

    /// Allocate a chain and write `data` into it; returns the first
    /// cluster (0 for empty data).
    fn write_data(&mut self, data: &[u8]) -> Result<u32, FsError> {
        if data.is_empty() {
            return Ok(0);
        }
        let cb = self.geo.cluster_bytes();
        let needed = data.len().div_ceil(cb);
        let mut first = 0u32;
        let mut prev = 0u32;
        for i in 0..needed {
            let c = match self.alloc_cluster() {
                Ok(c) => c,
                Err(e) => {
                    // Roll back the partial chain so a failed write
                    // does not leak clusters.
                    if first != 0 {
                        self.free_chain(first)?;
                    }
                    return Err(e);
                }
            };
            if i == 0 {
                first = c;
            } else {
                self.set_fat(prev, c)?;
            }
            prev = c;
            let chunk = &data[i * cb..((i + 1) * cb).min(data.len())];
            let s0 = self.geo.cluster_sector(c) as u64;
            for (si, part) in chunk.chunks(BLOCK_SIZE).enumerate() {
                let mut buf = [0u8; BLOCK_SIZE];
                buf[..part.len()].copy_from_slice(part);
                self.dev.write_block(s0 + si as u64, &buf);
            }
        }
        Ok(first)
    }
}

/// Convert `NAME.EXT` to the on-disk 11-byte 8.3 form.
fn name_to_83(name: &str) -> Result<[u8; 11], FsError> {
    let bad = || FsError::BadName(name.to_string());
    let upper = name.to_ascii_uppercase();
    let (stem, ext) = match upper.split_once('.') {
        Some((s, e)) => (s, e),
        None => (upper.as_str(), ""),
    };
    if stem.is_empty() || stem.len() > 8 || ext.len() > 3 {
        return Err(bad());
    }
    let valid = |s: &str| {
        s.bytes()
            .all(|b| b.is_ascii_alphanumeric() || b"_-~!#$%&".contains(&b))
    };
    if !valid(stem) || !valid(ext) || ext.contains('.') || stem.contains('.') {
        return Err(bad());
    }
    let mut out = [b' '; 11];
    out[..stem.len()].copy_from_slice(stem.as_bytes());
    out[8..8 + ext.len()].copy_from_slice(ext.as_bytes());
    Ok(out)
}

/// Convert the on-disk form back to `NAME.EXT`.
fn name_from_83(raw: &[u8]) -> String {
    let stem: String = raw[..8]
        .iter()
        .take_while(|&&b| b != b' ')
        .map(|&b| b as char)
        .collect();
    let ext: String = raw[8..11]
        .iter()
        .take_while(|&&b| b != b' ')
        .map(|&b| b as char)
        .collect();
    if ext.is_empty() {
        stem
    } else {
        format!("{stem}.{ext}")
    }
}

fn parse_dirent(raw: &[u8; DIRENT_SIZE]) -> FileInfo {
    let hi = u16::from_le_bytes([raw[20], raw[21]]) as u32;
    let lo = u16::from_le_bytes([raw[26], raw[27]]) as u32;
    FileInfo {
        name: name_from_83(&raw[0..11]),
        size: u32::from_le_bytes([raw[28], raw[29], raw[30], raw[31]]),
        first_cluster: (hi << 16) | lo,
    }
}

fn make_dirent(name83: &[u8; 11], first_cluster: u32, size: u32) -> [u8; DIRENT_SIZE] {
    let mut raw = [0u8; DIRENT_SIZE];
    raw[0..11].copy_from_slice(name83);
    raw[11] = 0x20; // archive
    raw[20..22].copy_from_slice(&((first_cluster >> 16) as u16).to_le_bytes());
    raw[26..28].copy_from_slice(&(first_cluster as u16).to_le_bytes());
    raw[28..32].copy_from_slice(&size.to_le_bytes());
    raw
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::MemBlockDevice;
    use proptest::prelude::*;

    fn volume() -> Fat32Volume<MemBlockDevice> {
        Fat32Volume::format(MemBlockDevice::with_mib(8)).unwrap()
    }

    #[test]
    fn format_and_mount() {
        let vol = volume();
        let dev = vol.into_device();
        let mut vol2 = Fat32Volume::mount(dev).unwrap();
        assert!(vol2.list().unwrap().is_empty());
    }

    #[test]
    fn mount_rejects_blank_device() {
        assert_eq!(
            Fat32Volume::mount(MemBlockDevice::with_mib(1)).err(),
            Some(FsError::NotFat32)
        );
    }

    /// A formatted 8 MiB volume's device with the little-endian `u32`
    /// BPB field at `offset` overwritten by `value`.
    fn patched_bpb(offset: usize, value: u32) -> MemBlockDevice {
        let mut dev = volume().into_device();
        let mut bpb = [0u8; BLOCK_SIZE];
        dev.read_block(0, &mut bpb);
        bpb[offset..offset + 4].copy_from_slice(&value.to_le_bytes());
        dev.write_block(0, &bpb);
        dev
    }

    #[test]
    fn mount_rejects_zero_total_sectors() {
        assert_eq!(
            Fat32Volume::mount(patched_bpb(32, 0)).err(),
            Some(FsError::NotFat32)
        );
    }

    #[test]
    fn mount_rejects_total_sectors_past_the_device() {
        // 9 MiB of sectors on the 8 MiB device.
        assert_eq!(
            Fat32Volume::mount(patched_bpb(32, 9 * 2048)).err(),
            Some(FsError::NotFat32)
        );
    }

    #[test]
    fn mount_rejects_root_cluster_outside_the_data_region() {
        assert_eq!(
            Fat32Volume::mount(patched_bpb(44, 0)).err(),
            Some(FsError::NotFat32)
        );
    }

    #[test]
    fn mount_rejects_a_fat_too_small_for_its_clusters() {
        // One FAT sector maps 128 clusters; the volume has ~2000.
        assert_eq!(
            Fat32Volume::mount(patched_bpb(36, 1)).err(),
            Some(FsError::NotFat32)
        );
    }

    #[test]
    fn one_cluster_volume_reports_volume_full() {
        // 74 sectors leave one data cluster after the 64 reserved and
        // FAT sectors: the root directory's, so nothing is free.
        let mut vol = Fat32Volume::mount(patched_bpb(32, 74)).unwrap();
        assert_eq!(vol.create("A.BIN", &[1]), Err(FsError::VolumeFull));
        assert!(vol.list().unwrap().is_empty());
    }

    #[test]
    fn create_read_round_trip() {
        let mut vol = volume();
        let data: Vec<u8> = (0..10_000u32).map(|i| (i % 251) as u8).collect();
        vol.create("SOBEL.PBI", &data).unwrap();
        assert_eq!(vol.read("SOBEL.PBI").unwrap(), data);
        assert_eq!(vol.file_size("sobel.pbi").unwrap(), 10_000);
    }

    #[test]
    fn names_are_case_insensitive_8_3() {
        let mut vol = volume();
        vol.create("Median.Bit", b"x").unwrap();
        assert!(vol.read("MEDIAN.BIT").is_ok());
        assert_eq!(vol.list().unwrap()[0].name, "MEDIAN.BIT");
    }

    #[test]
    fn bad_names_rejected() {
        let mut vol = volume();
        for bad in ["", "WAYTOOLONGNAME.BIT", "X.LONG", "A B.TXT", "A.B.C"] {
            assert!(
                matches!(vol.create(bad, b"d"), Err(FsError::BadName(_))),
                "{bad} should be invalid"
            );
        }
    }

    #[test]
    fn duplicate_create_rejected() {
        let mut vol = volume();
        vol.create("A.BIN", b"1").unwrap();
        assert_eq!(
            vol.create("A.BIN", b"2"),
            Err(FsError::Exists("A.BIN".into()))
        );
    }

    #[test]
    fn overwrite_replaces_content_and_frees_old_chain() {
        let mut vol = volume();
        let big = vec![0xAAu8; 100_000];
        vol.create("F.BIN", &big).unwrap();
        let free_after_create = vol.free_clusters().unwrap();
        let small = vec![0x55u8; 100];
        vol.overwrite("F.BIN", &small).unwrap();
        assert_eq!(vol.read("F.BIN").unwrap(), small);
        assert!(
            vol.free_clusters().unwrap() > free_after_create,
            "old chain must be freed"
        );
    }

    #[test]
    fn overwrite_missing_file_errors() {
        let mut vol = volume();
        assert!(matches!(
            vol.overwrite("NO.BIN", b"x"),
            Err(FsError::NotFound(_))
        ));
    }

    #[test]
    fn write_is_create_or_overwrite() {
        let mut vol = volume();
        vol.write("W.BIN", b"one").unwrap();
        vol.write("W.BIN", b"two").unwrap();
        assert_eq!(vol.read("W.BIN").unwrap(), b"two");
        assert_eq!(vol.list().unwrap().len(), 1);
    }

    #[test]
    fn delete_frees_space_and_entry() {
        let mut vol = volume();
        let before = vol.free_clusters().unwrap();
        vol.create("D.BIN", &vec![1u8; 50_000]).unwrap();
        vol.delete("D.BIN").unwrap();
        assert!(matches!(vol.read("D.BIN"), Err(FsError::NotFound(_))));
        assert_eq!(vol.free_clusters().unwrap(), before);
        // The slot is reusable.
        vol.create("E.BIN", b"x").unwrap();
        assert_eq!(vol.list().unwrap().len(), 1);
    }

    #[test]
    fn empty_file_round_trip() {
        let mut vol = volume();
        vol.create("EMPTY.TXT", b"").unwrap();
        assert_eq!(vol.read("EMPTY.TXT").unwrap(), Vec::<u8>::new());
        assert_eq!(vol.file_size("EMPTY.TXT").unwrap(), 0);
    }

    #[test]
    fn many_files_grow_root_directory() {
        let mut vol = volume();
        // One cluster of root dir holds 4096/32 = 128 entries; write more.
        for i in 0..200 {
            vol.create(&format!("F{i}.BIN"), &[i as u8]).unwrap();
        }
        assert_eq!(vol.list().unwrap().len(), 200);
        assert_eq!(vol.read("F137.BIN").unwrap(), vec![137u8]);
    }

    #[test]
    fn volume_full_is_reported_and_rolls_back() {
        let mut vol = Fat32Volume::format(MemBlockDevice::new(1100)).unwrap();
        let free = vol.free_clusters().unwrap();
        let too_big = vec![0u8; (free as usize + 2) * 4096];
        assert_eq!(vol.create("BIG.BIN", &too_big), Err(FsError::VolumeFull));
        // All clusters rolled back.
        assert_eq!(vol.free_clusters().unwrap(), free);
    }

    #[test]
    fn paper_bitstream_file_staging() {
        // The paper's exact use: store a 650 892-byte partial
        // bitstream and stream it back cluster-wise.
        let mut vol = volume();
        let pbit: Vec<u8> = (0..650_892u32).map(|i| (i * 7 % 256) as u8).collect();
        vol.create("GAUSS.PBI", &pbit).unwrap();
        let info = vol
            .list()
            .unwrap()
            .into_iter()
            .find(|f| f.name == "GAUSS.PBI")
            .unwrap();
        let mut streamed = Vec::new();
        vol.read_into(&info, |chunk| streamed.extend_from_slice(chunk))
            .unwrap();
        assert_eq!(streamed, pbit);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn prop_create_read_round_trip(data in proptest::collection::vec(any::<u8>(), 0..20_000)) {
            let mut vol = volume();
            vol.create("P.BIN", &data).unwrap();
            prop_assert_eq!(vol.read("P.BIN").unwrap(), data);
        }

        #[test]
        fn prop_overwrite_sequence_keeps_last(
            writes in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..8192), 1..6)
        ) {
            let mut vol = volume();
            for w in &writes {
                vol.write("SEQ.BIN", w).unwrap();
            }
            prop_assert_eq!(&vol.read("SEQ.BIN").unwrap(), writes.last().unwrap());
            // Exactly one directory entry regardless of rewrites.
            prop_assert_eq!(vol.list().unwrap().len(), 1);
        }

        #[test]
        fn prop_remount_preserves_files(data in proptest::collection::vec(any::<u8>(), 1..4096)) {
            let mut vol = volume();
            vol.create("KEEP.BIN", &data).unwrap();
            let dev = vol.into_device();
            let mut vol2 = Fat32Volume::mount(dev).unwrap();
            prop_assert_eq!(vol2.read("KEEP.BIN").unwrap(), data);
        }
    }

    /// Model-based test: a random interleaving of create / overwrite /
    /// delete / read operations must behave exactly like a HashMap.
    mod model_based {
        // The parent tests module already imports the proptest prelude.
        use super::*;
        use std::collections::HashMap;

        #[derive(Debug, Clone)]
        enum Op {
            Create(u8, Vec<u8>),
            Overwrite(u8, Vec<u8>),
            Write(u8, Vec<u8>),
            Delete(u8),
            Read(u8),
        }

        fn arb_op() -> impl Strategy<Value = Op> {
            let name = 0u8..5; // five possible files
            let data = proptest::collection::vec(any::<u8>(), 0..3000);
            prop_oneof![
                (name.clone(), data.clone()).prop_map(|(n, d)| Op::Create(n, d)),
                (name.clone(), data.clone()).prop_map(|(n, d)| Op::Overwrite(n, d)),
                (name.clone(), data).prop_map(|(n, d)| Op::Write(n, d)),
                name.clone().prop_map(Op::Delete),
                name.prop_map(Op::Read),
            ]
        }

        fn fname(n: u8) -> String {
            format!("FILE{n}.BIN")
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(24))]
            #[test]
            fn prop_matches_reference_model(ops in proptest::collection::vec(arb_op(), 1..24)) {
                let mut vol = Fat32Volume::format(MemBlockDevice::with_mib(8)).unwrap();
                let mut model: HashMap<String, Vec<u8>> = HashMap::new();
                for op in ops {
                    match op {
                        Op::Create(n, data) => {
                            let name = fname(n);
                            let r = vol.create(&name, &data);
                            if let std::collections::hash_map::Entry::Vacant(e) = model.entry(name) {
                                prop_assert!(r.is_ok());
                                e.insert(data);
                            } else {
                                prop_assert!(matches!(r, Err(FsError::Exists(_))));
                            }
                        }
                        Op::Overwrite(n, data) => {
                            let name = fname(n);
                            let r = vol.overwrite(&name, &data);
                            if let std::collections::hash_map::Entry::Occupied(mut e) = model.entry(name) {
                                prop_assert!(r.is_ok());
                                e.insert(data);
                            } else {
                                prop_assert!(matches!(r, Err(FsError::NotFound(_))));
                            }
                        }
                        Op::Write(n, data) => {
                            let name = fname(n);
                            prop_assert!(vol.write(&name, &data).is_ok());
                            model.insert(name, data);
                        }
                        Op::Delete(n) => {
                            let name = fname(n);
                            let r = vol.delete(&name);
                            prop_assert_eq!(r.is_ok(), model.remove(&name).is_some());
                        }
                        Op::Read(n) => {
                            let name = fname(n);
                            match model.get(&name) {
                                Some(data) => {
                                    let got = vol.read(&name);
                                    prop_assert!(got.is_ok());
                                    prop_assert_eq!(&got.unwrap(), data);
                                }
                                None => prop_assert!(matches!(
                                    vol.read(&name),
                                    Err(FsError::NotFound(_))
                                )),
                            }
                        }
                    }
                }
                // Final state: directory listing matches the model.
                let listed: HashMap<String, u32> = vol
                    .list()
                    .unwrap()
                    .into_iter()
                    .map(|f| (f.name, f.size))
                    .collect();
                prop_assert_eq!(listed.len(), model.len());
                for (name, data) in &model {
                    prop_assert_eq!(listed.get(name).copied(), Some(data.len() as u32));
                }
                // And the volume survives a remount.
                let dev = vol.into_device();
                let mut vol2 = Fat32Volume::mount(dev).unwrap();
                for (name, data) in &model {
                    prop_assert_eq!(&vol2.read(name).unwrap(), data);
                }
            }
        }
    }
}
