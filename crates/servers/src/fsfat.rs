//! FAT16 on-disk format, its [`FatVolume`] mount plan, and `mkfs.fat`.
//!
//! Fig. 5 of the paper shows *two* file servers — the native MFS and a FAT
//! server — both recovering transparently from block-driver failures. This
//! module provides a compact but real FAT16 layout (boot sector with BPB,
//! one FAT, a fixed root directory, cluster chains) and serves it through
//! the same [`crate::mfs::FileServer`] as the native format, so the second
//! file server shares the first one's recovery code rather than a copy.
//!
//! ```text
//! LBA 0                boot sector (BPB + 0xAA55)
//! LBA 1..1+F           the FAT (16-bit entries)
//! LBA 1+F..1+F+R       root directory (32-byte entries)
//! LBA 1+F+R..          data area (cluster 2 onward)
//! ```

use phoenix_hw::disk::{synth_sector, DiskModel, SECTOR};
use phoenix_simcore::digest::Sha1;

use crate::mfs::{MountStep, Volume};

/// Sectors per cluster used by `mkfs_fat`.
pub const SECTORS_PER_CLUSTER: u8 = 4;
/// Root directory entries.
pub const ROOT_ENTRIES: usize = 64;
/// End-of-chain marker.
pub const EOC: u16 = 0xFFFF;

/// Parsed BIOS parameter block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bpb {
    /// Bytes per sector (must be 512 here).
    pub bytes_per_sector: u16,
    /// Sectors per cluster.
    pub sectors_per_cluster: u8,
    /// Reserved sectors before the FAT.
    pub reserved_sectors: u16,
    /// Number of FATs.
    pub num_fats: u8,
    /// Root directory entries.
    pub root_entries: u16,
    /// Total sectors on the volume.
    pub total_sectors: u16,
    /// Sectors per FAT.
    pub fat_size: u16,
}

impl Bpb {
    /// First sector of the FAT.
    pub fn fat_start(&self) -> u64 {
        u64::from(self.reserved_sectors)
    }

    /// First sector of the root directory.
    pub fn root_start(&self) -> u64 {
        self.fat_start() + u64::from(self.num_fats) * u64::from(self.fat_size)
    }

    /// Sectors occupied by the root directory.
    pub fn root_sectors(&self) -> u64 {
        (u64::from(self.root_entries) * 32).div_ceil(SECTOR as u64)
    }

    /// First sector of the data area (cluster 2).
    pub fn data_start(&self) -> u64 {
        self.root_start() + self.root_sectors()
    }

    /// First sector of a data cluster (clusters start at 2).
    pub fn cluster_lba(&self, cluster: u16) -> u64 {
        self.data_start() + u64::from(cluster - 2) * u64::from(self.sectors_per_cluster)
    }

    /// Serializes into a 512-byte boot sector.
    pub fn encode(&self) -> Vec<u8> {
        let mut s = vec![0u8; SECTOR];
        s[0] = 0xEB; // jmp short
        s[1] = 0x3C;
        s[2] = 0x90;
        s[3..11].copy_from_slice(b"PHXFAT  ");
        s[11..13].copy_from_slice(&self.bytes_per_sector.to_le_bytes());
        s[13] = self.sectors_per_cluster;
        s[14..16].copy_from_slice(&self.reserved_sectors.to_le_bytes());
        s[16] = self.num_fats;
        s[17..19].copy_from_slice(&self.root_entries.to_le_bytes());
        s[19..21].copy_from_slice(&self.total_sectors.to_le_bytes());
        s[21] = 0xF8; // media descriptor: fixed disk
        s[22..24].copy_from_slice(&self.fat_size.to_le_bytes());
        s[510] = 0x55;
        s[511] = 0xAA;
        s
    }

    /// Parses a boot sector; `None` when the signature or geometry is
    /// invalid.
    pub fn decode(raw: &[u8]) -> Option<Bpb> {
        if raw.len() < SECTOR || raw[510] != 0x55 || raw[511] != 0xAA {
            return None;
        }
        let bpb = Bpb {
            bytes_per_sector: u16::from_le_bytes([raw[11], raw[12]]),
            sectors_per_cluster: raw[13],
            reserved_sectors: u16::from_le_bytes([raw[14], raw[15]]),
            num_fats: raw[16],
            root_entries: u16::from_le_bytes([raw[17], raw[18]]),
            total_sectors: u16::from_le_bytes([raw[19], raw[20]]),
            fat_size: u16::from_le_bytes([raw[22], raw[23]]),
        };
        if bpb.bytes_per_sector != SECTOR as u16
            || bpb.sectors_per_cluster == 0
            || bpb.num_fats == 0
        {
            return None;
        }
        Some(bpb)
    }
}

/// A root-directory entry (8.3 name).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DirEntry {
    /// File name, already joined as `NAME.EXT` (lowercased).
    pub name: String,
    /// First cluster of the chain.
    pub first_cluster: u16,
    /// Size in bytes.
    pub size: u32,
}

/// Encodes an 8.3 directory entry.
///
/// # Panics
///
/// Panics if the name does not fit 8.3.
pub fn encode_dirent(e: &DirEntry) -> [u8; 32] {
    let mut out = [0u8; 32];
    let (base, ext) = match e.name.split_once('.') {
        Some((b, x)) => (b, x),
        None => (e.name.as_str(), ""),
    };
    assert!(
        base.len() <= 8 && ext.len() <= 3,
        "name must fit 8.3: {}",
        e.name
    );
    let mut name83 = [b' '; 11];
    for (i, b) in base.bytes().enumerate() {
        name83[i] = b.to_ascii_uppercase();
    }
    for (i, b) in ext.bytes().enumerate() {
        name83[8 + i] = b.to_ascii_uppercase();
    }
    out[..11].copy_from_slice(&name83);
    out[11] = 0x20; // ATTR_ARCHIVE: a regular file
    out[26..28].copy_from_slice(&e.first_cluster.to_le_bytes());
    out[28..32].copy_from_slice(&e.size.to_le_bytes());
    out
}

/// Decodes a directory entry; `None` for free/deleted slots.
pub fn decode_dirent(raw: &[u8]) -> Option<DirEntry> {
    if raw.len() < 32 || raw[0] == 0 || raw[0] == 0xE5 {
        return None;
    }
    let base = String::from_utf8_lossy(&raw[0..8])
        .trim_end()
        .to_lowercase();
    let ext = String::from_utf8_lossy(&raw[8..11])
        .trim_end()
        .to_lowercase();
    let name = if ext.is_empty() {
        base
    } else {
        format!("{base}.{ext}")
    };
    Some(DirEntry {
        name,
        first_cluster: u16::from_le_bytes([raw[26], raw[27]]),
        size: u32::from_le_bytes([raw[28], raw[29], raw[30], raw[31]]),
    })
}

/// A mounted file: directory entry plus its resolved cluster chain.
#[derive(Debug, Clone)]
struct FatFile {
    entry: DirEntry,
    /// Cluster chain in order.
    chain: Vec<u16>,
}

/// FAT16 as a read-only [`Volume`] for the file server: boot sector →
/// FAT → root directory, with each file's cluster chain resolved at
/// mount time so serving works from memory like MFS's extents.
#[derive(Debug, Default)]
pub struct FatVolume {
    bpb: Option<Bpb>,
    fat: Vec<u16>,
    files: Vec<FatFile>,
}

impl FatVolume {
    /// Bytes per cluster.
    fn cluster_bytes(bpb: &Bpb) -> u64 {
        u64::from(bpb.sectors_per_cluster) * SECTOR as u64
    }

    /// The cluster chain starting at `first`, cut short if it loops.
    fn chain(&self, first: u16) -> Vec<u16> {
        let mut chain = Vec::new();
        let mut c = first;
        while c != EOC && c >= 2 && chain.len() <= self.fat.len() {
            chain.push(c);
            c = self.fat.get(usize::from(c)).copied().unwrap_or(EOC);
        }
        chain
    }
}

impl Volume for FatVolume {
    const KEY: &'static str = "fat";
    const WRITABLE: bool = false;

    fn mount_step(&mut self, step: u8, data: &[u8]) -> MountStep {
        if step == 0 {
            let Some(bpb) = Bpb::decode(data) else {
                return MountStep::Bad("bad FAT boot sector");
            };
            let next = MountStep::Read {
                lba: bpb.fat_start(),
                sectors: u64::from(bpb.fat_size),
            };
            self.bpb = Some(bpb);
            return next;
        }
        let Some(bpb) = self.bpb.as_ref() else {
            return MountStep::Bad("mount lost BPB");
        };
        if step == 1 {
            self.fat = data
                .chunks_exact(2)
                .map(|c| u16::from_le_bytes([c[0], c[1]]))
                .collect();
            return MountStep::Read {
                lba: bpb.root_start(),
                sectors: bpb.root_sectors(),
            };
        }
        self.files = data
            .chunks_exact(32)
            .filter_map(decode_dirent)
            .map(|entry| FatFile {
                chain: self.chain(entry.first_cluster),
                entry,
            })
            .collect();
        MountStep::Done(self.files.len())
    }

    fn lookup(&self, name: &str) -> Option<(usize, u64)> {
        let name = name.to_lowercase();
        let idx = self.files.iter().position(|f| f.entry.name == name)?;
        Some((idx, u64::from(self.files[idx].entry.size)))
    }

    fn file_size(&self, file: usize) -> Option<u64> {
        self.files.get(file).map(|f| u64::from(f.entry.size))
    }

    fn locate(&self, file: usize, offset: u64) -> Option<(u64, usize)> {
        let (bpb, f) = (self.bpb.as_ref()?, self.files.get(file)?);
        if offset >= u64::from(f.entry.size) {
            return None;
        }
        let cluster_bytes = Self::cluster_bytes(bpb);
        let cluster = *f.chain.get((offset / cluster_bytes) as usize)?;
        let within = offset % cluster_bytes;
        Some((
            bpb.cluster_lba(cluster) + within / SECTOR as u64,
            (within % SECTOR as u64) as usize,
        ))
    }

    /// Sequentially allocated clusters merge into one long run.
    fn contiguous_sectors_at(&self, file: usize, offset: u64) -> u64 {
        let (Some(bpb), Some(f)) = (self.bpb.as_ref(), self.files.get(file)) else {
            return 0;
        };
        let cluster_bytes = Self::cluster_bytes(bpb);
        let first = (offset / cluster_bytes) as usize;
        let Some(run) = f.chain.get(first..).filter(|run| !run.is_empty()) else {
            return 0;
        };
        let clusters = 1 + run
            .windows(2)
            .take_while(|w| u32::from(w[1]) == u32::from(w[0]) + 1)
            .count() as u64;
        let sector_in_cluster = (offset % cluster_bytes) / SECTOR as u64;
        clusters * u64::from(bpb.sectors_per_cluster) - sector_in_cluster
    }
}

/// What `mkfs_fat` should put in a file.
#[derive(Debug, Clone)]
pub enum FatContent {
    /// The disk's deterministic base pattern (free to create).
    Synthetic {
        /// Size in bytes.
        size: u32,
    },
    /// Explicit bytes.
    Bytes(Vec<u8>),
}

/// A file for `mkfs_fat`.
#[derive(Debug, Clone)]
pub struct FatFileSpec {
    /// 8.3 file name (e.g. `"big.bin"`).
    pub name: String,
    /// Content.
    pub content: FatContent,
}

/// Formats `disk` as FAT16 with the given files (sequential cluster
/// chains). Returns the BPB and directory entries created.
///
/// # Panics
///
/// Panics if the files do not fit.
pub fn mkfs_fat(disk: &mut DiskModel, files: &[FatFileSpec]) -> (Bpb, Vec<DirEntry>) {
    let total = disk.sectors().min(u64::from(u16::MAX)) as u16;
    // FAT sizing: one u16 per cluster, clusters ≈ total / spc.
    let clusters = total / u16::from(SECTORS_PER_CLUSTER);
    let fat_size = (u32::from(clusters) * 2).div_ceil(SECTOR as u32) as u16;
    let bpb = Bpb {
        bytes_per_sector: SECTOR as u16,
        sectors_per_cluster: SECTORS_PER_CLUSTER,
        reserved_sectors: 1,
        num_fats: 1,
        root_entries: ROOT_ENTRIES as u16,
        total_sectors: total,
        fat_size,
    };
    let cluster_bytes = u32::from(SECTORS_PER_CLUSTER) * SECTOR as u32;
    let mut fat = vec![0u16; usize::from(clusters) + 2];
    fat[0] = 0xFFF8; // media descriptor chain head
    fat[1] = EOC;
    let mut next_cluster: u16 = 2;
    let mut dirents = Vec::new();
    for spec in files {
        let size = match &spec.content {
            FatContent::Synthetic { size } => *size,
            FatContent::Bytes(b) => b.len() as u32,
        };
        let n_clusters = size.div_ceil(cluster_bytes).max(1) as u16;
        let first = next_cluster;
        assert!(
            usize::from(next_cluster + n_clusters) <= fat.len(),
            "disk too small for {}",
            spec.name
        );
        // Sequential chain: c -> c+1 -> ... -> EOC.
        for c in first..first + n_clusters {
            fat[usize::from(c)] = if c + 1 < first + n_clusters {
                c + 1
            } else {
                EOC
            };
        }
        if let FatContent::Bytes(bytes) = &spec.content {
            let base = bpb.cluster_lba(first);
            for (i, chunk) in bytes.chunks(SECTOR).enumerate() {
                let mut sector = chunk.to_vec();
                sector.resize(SECTOR, 0);
                assert!(disk.write(base + i as u64, &sector));
            }
        }
        dirents.push(DirEntry {
            name: spec.name.clone(),
            first_cluster: first,
            size,
        });
        next_cluster += n_clusters;
    }
    // Write metadata: boot sector, FAT, root directory.
    assert!(disk.write(0, &bpb.encode()));
    let mut fat_bytes = Vec::with_capacity(fat.len() * 2);
    for e in &fat {
        fat_bytes.extend_from_slice(&e.to_le_bytes());
    }
    for (i, chunk) in fat_bytes.chunks(SECTOR).enumerate() {
        let mut sector = chunk.to_vec();
        sector.resize(SECTOR, 0);
        assert!(disk.write(bpb.fat_start() + i as u64, &sector));
    }
    let mut root = vec![0u8; usize::from(bpb.root_entries) * 32];
    for (i, e) in dirents.iter().enumerate() {
        root[i * 32..(i + 1) * 32].copy_from_slice(&encode_dirent(e));
    }
    for (i, chunk) in root.chunks(SECTOR).enumerate() {
        assert!(disk.write(bpb.root_start() + i as u64, chunk));
    }
    (bpb, dirents)
}

/// SHA-1 a reader should observe for a *synthetic* FAT file created by
/// [`mkfs_fat`] on a disk seeded with `disk_seed`.
pub fn expected_sha1_fat(disk_seed: u64, bpb: &Bpb, entry: &DirEntry) -> String {
    let mut h = Sha1::new();
    let base = bpb.cluster_lba(entry.first_cluster);
    let mut remaining = u64::from(entry.size);
    let mut sector_index = 0u64;
    while remaining > 0 {
        let sector = synth_sector(disk_seed, base + sector_index);
        let take = remaining.min(SECTOR as u64) as usize;
        h.update(&sector[..take]);
        remaining -= take as u64;
        sector_index += 1;
    }
    h.finish_hex()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bpb_roundtrip() {
        let bpb = Bpb {
            bytes_per_sector: 512,
            sectors_per_cluster: 4,
            reserved_sectors: 1,
            num_fats: 1,
            root_entries: 64,
            total_sectors: 8192,
            fat_size: 8,
        };
        assert_eq!(Bpb::decode(&bpb.encode()), Some(bpb));
        assert_eq!(Bpb::decode(&vec![0u8; 512]), None, "no signature");
    }

    #[test]
    fn dirent_roundtrip_and_names() {
        let e = DirEntry {
            name: "big.bin".to_string(),
            first_cluster: 5,
            size: 123_456,
        };
        assert_eq!(decode_dirent(&encode_dirent(&e)), Some(e));
        let noext = DirEntry {
            name: "readme".to_string(),
            first_cluster: 2,
            size: 9,
        };
        assert_eq!(decode_dirent(&encode_dirent(&noext)), Some(noext));
        assert_eq!(decode_dirent(&[0u8; 32]), None, "free slot");
    }

    #[test]
    #[should_panic(expected = "8.3")]
    fn long_names_rejected() {
        let _ = encode_dirent(&DirEntry {
            name: "waytoolongname.bin".to_string(),
            first_cluster: 2,
            size: 0,
        });
    }

    #[test]
    fn mkfs_layout_is_consistent() {
        let mut disk = DiskModel::new(8192, 3);
        let (bpb, dirents) = mkfs_fat(
            &mut disk,
            &[
                FatFileSpec {
                    name: "hello.txt".to_string(),
                    content: FatContent::Bytes(b"hello fat".to_vec()),
                },
                FatFileSpec {
                    name: "big.bin".to_string(),
                    content: FatContent::Synthetic { size: 1_000_000 },
                },
            ],
        );
        // Boot sector parses back.
        let parsed = Bpb::decode(&disk.read(0).unwrap()).unwrap();
        assert_eq!(parsed, bpb);
        // Root dir holds both entries.
        let root = disk.read(bpb.root_start()).unwrap();
        let e0 = decode_dirent(&root[0..32]).unwrap();
        let e1 = decode_dirent(&root[32..64]).unwrap();
        assert_eq!(e0.name, "hello.txt");
        assert_eq!(e1.name, "big.bin");
        assert_eq!(e1.size, 1_000_000);
        // FAT chain of big.bin is sequential and ends in EOC.
        let mut fat_bytes = Vec::new();
        for i in 0..u64::from(bpb.fat_size) {
            fat_bytes.extend(disk.read(bpb.fat_start() + i).unwrap());
        }
        let entry_of = |c: u16| {
            let off = usize::from(c) * 2;
            u16::from_le_bytes([fat_bytes[off], fat_bytes[off + 1]])
        };
        assert_eq!(entry_of(e0.first_cluster), EOC, "1-cluster file");
        let mut c = e1.first_cluster;
        let mut hops = 0;
        while entry_of(c) != EOC {
            assert_eq!(entry_of(c), c + 1, "sequential chain");
            c += 1;
            hops += 1;
            assert!(hops < 1000);
        }
        let cluster_bytes = 4 * 512;
        assert_eq!(
            hops + 1,
            1_000_000_u32.div_ceil(cluster_bytes),
            "chain length"
        );
        // Explicit content landed in the data area.
        let data = disk.read(bpb.cluster_lba(e0.first_cluster)).unwrap();
        assert_eq!(&data[..9], b"hello fat");
        assert_eq!(dirents.len(), 2);
    }

    #[test]
    fn expected_sha1_matches_manual_walk() {
        let seed = 77;
        let mut disk = DiskModel::new(4096, seed);
        let (bpb, dirents) = mkfs_fat(
            &mut disk,
            &[FatFileSpec {
                name: "f.bin".to_string(),
                content: FatContent::Synthetic { size: 5000 },
            }],
        );
        let want = expected_sha1_fat(seed, &bpb, &dirents[0]);
        let mut h = Sha1::new();
        let base = bpb.cluster_lba(dirents[0].first_cluster);
        let mut left = 5000usize;
        let mut i = 0;
        while left > 0 {
            let s = disk.read(base + i).unwrap();
            let take = left.min(512);
            h.update(&s[..take]);
            left -= take;
            i += 1;
        }
        assert_eq!(h.finish_hex(), want);
    }
}
