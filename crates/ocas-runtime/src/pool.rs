//! A page-granular buffer pool over one backing file.
//!
//! Every read and write the [`FileBackend`](crate::FileBackend) issues goes
//! through a pool: fixed-size page frames cached in memory, least recently
//! used eviction, pinned pages that may not be evicted, and dirty pages
//! written back lazily (on eviction or [`BufferPool::flush`]). This is the
//! real-I/O counterpart of the storage simulator's free RAM level: the pool
//! is the "memory" of the hierarchy, the backing file is the device.

use ocas_storage::StorageError;
use std::collections::{BTreeMap, BTreeSet};
use std::fs::File;
use std::io::{Read, Seek, SeekFrom, Write};

/// FNV-1a over a page's bytes — the per-page write-back checksum. Cheap,
/// deterministic, and sensitive to the half-page tears fault injection
/// produces.
fn page_checksum(data: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in data {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Cumulative pool statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Page accesses served from a resident frame.
    pub hits: u64,
    /// Page accesses that had to load the page from the file.
    pub misses: u64,
    /// Frames reclaimed to make room.
    pub evictions: u64,
    /// Dirty pages written back to the file.
    pub write_backs: u64,
    /// Write-backs deliberately torn by fault injection (half the page
    /// persisted, full-intent checksum recorded).
    pub torn_injected: u64,
    /// Checksum mismatches detected when re-loading a page from the file.
    pub checksum_failures: u64,
}

#[derive(Debug)]
struct Frame {
    page: u64,
    data: Vec<u8>,
    dirty: bool,
    pins: u32,
    /// Logical time of the last access (LRU stamp).
    last_use: u64,
}

/// The pool: `frames` page-sized buffers fronting one backing file.
pub struct BufferPool {
    file: File,
    page_bytes: usize,
    capacity: usize,
    frames: Vec<Frame>,
    /// page number → frame index.
    table: BTreeMap<u64, usize>,
    /// Logical clock stamping frame accesses.
    now: u64,
    stats: PoolStats,
    /// `O_DIRECT` mode: page loads and write-backs go through a 512-byte
    /// aligned staging buffer (direct I/O requires aligned memory, offsets
    /// and lengths; page offsets are aligned by construction).
    direct: bool,
    staging: Vec<u8>,
    /// Device name, for typed error context (`CorruptPage`).
    label: String,
    /// Checksum of the *intended* content of every page ever written back,
    /// verified when the page is next loaded from the file — the detector
    /// for torn write-backs.
    checksums: BTreeMap<u64, u64>,
    /// Absolute write-back indices scheduled to tear (fault injection):
    /// those write-backs persist only the first half of the page while
    /// still recording the full-intent checksum.
    torn: BTreeSet<u64>,
}

impl std::fmt::Debug for BufferPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BufferPool")
            .field("page_bytes", &self.page_bytes)
            .field("capacity", &self.capacity)
            .field("resident", &self.table.len())
            .field("stats", &self.stats)
            .finish()
    }
}

fn io_err(e: std::io::Error) -> StorageError {
    StorageError::Io(e.to_string())
}

impl BufferPool {
    /// Builds a pool of `capacity` frames of `page_bytes` each over `file`.
    pub fn new(file: File, page_bytes: usize, capacity: usize) -> BufferPool {
        BufferPool {
            file,
            page_bytes: page_bytes.max(1),
            capacity: capacity.max(1),
            frames: Vec::new(),
            table: BTreeMap::new(),
            now: 0,
            stats: PoolStats::default(),
            direct: false,
            staging: Vec::new(),
            label: String::new(),
            checksums: BTreeMap::new(),
            torn: BTreeSet::new(),
        }
    }

    /// Names the pool's device for typed error context, builder-style.
    pub fn with_label(mut self, label: &str) -> BufferPool {
        self.label = label.to_string();
        self
    }

    /// Marks the backing file as opened with `O_DIRECT`, builder-style:
    /// page I/O then goes through an aligned staging buffer. The caller
    /// guarantees `page_bytes` is a multiple of 512.
    pub fn with_direct(mut self, direct: bool) -> BufferPool {
        self.direct = direct;
        if direct {
            self.staging = vec![0u8; self.page_bytes + 511];
        }
        self
    }

    /// True when the pool runs in direct-I/O mode.
    pub fn is_direct(&self) -> bool {
        self.direct
    }

    /// The 512-byte-aligned window of the staging buffer.
    fn staging_range(&self) -> std::ops::Range<usize> {
        let off = self.staging.as_ptr().align_offset(512);
        off..off + self.page_bytes
    }

    /// Pool statistics so far.
    pub fn stats(&self) -> PoolStats {
        self.stats
    }

    fn load_page(&mut self, page: u64) -> Result<usize, StorageError> {
        self.now += 1;
        if let Some(&f) = self.table.get(&page) {
            self.stats.hits += 1;
            self.frames[f].last_use = self.now;
            return Ok(f);
        }
        self.stats.misses += 1;
        let mut data = vec![0u8; self.page_bytes];
        self.file
            .seek(SeekFrom::Start(page * self.page_bytes as u64))
            .map_err(io_err)?;
        // Direct I/O reads into the aligned staging window, buffered I/O
        // straight into the frame. Short reads past EOF leave the tail
        // zeroed: device files grow only as pages are written back.
        let buf = if self.direct {
            let range = self.staging_range();
            &mut self.staging[range]
        } else {
            &mut data[..]
        };
        let mut filled = 0;
        while filled < buf.len() {
            match self.file.read(&mut buf[filled..]).map_err(io_err)? {
                0 => break,
                n => filled += n,
            }
        }
        // The staging buffer is reused across pages: zero the unfilled tail
        // instead of leaking the previous page's bytes.
        buf[filled..].fill(0);
        if self.direct {
            data.copy_from_slice(&self.staging[self.staging_range()]);
        }
        // A page that was ever written back must match its recorded
        // checksum: a mismatch means the write-back was torn (or the file
        // corrupted behind the pool) and must surface as a typed error
        // rather than a wrong answer. The page is not admitted.
        if let Some(&want) = self.checksums.get(&page) {
            if page_checksum(&data) != want {
                self.stats.checksum_failures += 1;
                return Err(StorageError::CorruptPage {
                    device: self.label.clone(),
                    page,
                });
            }
        }
        let frame = Frame {
            page,
            data,
            dirty: false,
            pins: 0,
            last_use: self.now,
        };
        let f = if self.frames.len() < self.capacity {
            self.frames.push(frame);
            self.frames.len() - 1
        } else {
            // Least recently used unpinned frame.
            let victim = (0..self.frames.len())
                .filter(|&f| self.frames[f].pins == 0)
                .min_by_key(|&f| self.frames[f].last_use)
                .ok_or_else(|| StorageError::Io("all buffer-pool pages pinned".to_string()))?;
            self.stats.evictions += 1;
            self.write_back(victim)?;
            self.table.remove(&self.frames[victim].page);
            self.frames[victim] = frame;
            victim
        };
        self.table.insert(page, f);
        Ok(f)
    }

    fn write_back(&mut self, frame: usize) -> Result<(), StorageError> {
        if !self.frames[frame].dirty {
            return Ok(());
        }
        let page = self.frames[frame].page;
        // The checksum records the *intent* — the full frame content —
        // even when injection tears the physical write below, so the tear
        // is detected when the page is next loaded.
        self.checksums
            .insert(page, page_checksum(&self.frames[frame].data));
        let tear = self.torn.remove(&self.stats.write_backs);
        let take = if tear {
            self.stats.torn_injected += 1;
            // Direct I/O needs 512-aligned lengths; align the tear down
            // (possibly to zero — a fully lost write-back).
            if self.direct {
                self.page_bytes / 2 / 512 * 512
            } else {
                self.page_bytes / 2
            }
        } else {
            self.page_bytes
        };
        if take > 0 {
            self.file
                .seek(SeekFrom::Start(page * self.page_bytes as u64))
                .map_err(io_err)?;
            let src = if self.direct {
                let range = self.staging_range();
                self.staging[range.clone()].copy_from_slice(&self.frames[frame].data);
                &self.staging[range]
            } else {
                &self.frames[frame].data[..]
            };
            self.file.write_all(&src[..take]).map_err(io_err)?;
        }
        self.frames[frame].dirty = false;
        self.stats.write_backs += 1;
        Ok(())
    }

    /// Schedules the `at`-th *upcoming* write-back to tear: it persists
    /// only the first half of its page while recording the full-intent
    /// checksum, so the corruption is silent until the page is re-read.
    pub fn schedule_torn(&mut self, at: u64) {
        self.torn.insert(self.stats.write_backs + at);
    }

    /// Reads `buf.len()` bytes at `offset` through the pool.
    pub fn read(&mut self, offset: u64, buf: &mut [u8]) -> Result<(), StorageError> {
        let pb = self.page_bytes as u64;
        let mut done = 0usize;
        while done < buf.len() {
            let pos = offset + done as u64;
            let page = pos / pb;
            let within = (pos % pb) as usize;
            let take = (buf.len() - done).min(self.page_bytes - within);
            let f = self.load_page(page)?;
            buf[done..done + take].copy_from_slice(&self.frames[f].data[within..within + take]);
            done += take;
        }
        Ok(())
    }

    /// Writes `data` at `offset` through the pool (dirty pages are written
    /// back on eviction or [`flush`](BufferPool::flush)).
    pub fn write(&mut self, offset: u64, data: &[u8]) -> Result<(), StorageError> {
        let pb = self.page_bytes as u64;
        let mut done = 0usize;
        while done < data.len() {
            let pos = offset + done as u64;
            let page = pos / pb;
            let within = (pos % pb) as usize;
            let take = (data.len() - done).min(self.page_bytes - within);
            let f = self.load_page(page)?;
            self.frames[f].data[within..within + take].copy_from_slice(&data[done..done + take]);
            self.frames[f].dirty = true;
            done += take;
        }
        Ok(())
    }

    /// Pins the pages covering `[offset, offset + len)`: they stay resident
    /// until unpinned. Returns the number of pages pinned. On failure no
    /// page stays pinned — pins taken before the failing page are rolled
    /// back, so an error path cannot leak pinned frames.
    pub fn pin(&mut self, offset: u64, len: u64) -> Result<u64, StorageError> {
        let pb = self.page_bytes as u64;
        let first = offset / pb;
        let last = (offset + len.max(1) - 1) / pb;
        for page in first..=last {
            match self.load_page(page) {
                Ok(f) => self.frames[f].pins += 1,
                Err(e) => {
                    if page > first {
                        self.unpin(first * pb, (page - first) * pb);
                    }
                    return Err(e);
                }
            }
        }
        Ok(last - first + 1)
    }

    /// Unpins the pages covering `[offset, offset + len)`.
    pub fn unpin(&mut self, offset: u64, len: u64) {
        let pb = self.page_bytes as u64;
        let first = offset / pb;
        let last = (offset + len.max(1) - 1) / pb;
        for page in first..=last {
            if let Some(&f) = self.table.get(&page) {
                self.frames[f].pins = self.frames[f].pins.saturating_sub(1);
            }
        }
    }

    /// Writes every dirty page back to the file and syncs it.
    pub fn flush(&mut self) -> Result<(), StorageError> {
        for f in 0..self.frames.len() {
            self.write_back(f)?;
        }
        self.file.sync_data().map_err(io_err)
    }

    /// Number of frames currently holding at least one pin.
    pub fn pinned_frames(&self) -> u64 {
        self.frames.iter().filter(|f| f.pins > 0).count() as u64
    }

    /// Drops every pin (error-path cleanup: RAII guards call this so a
    /// failed run can never leave the pool jammed).
    pub fn unpin_all(&mut self) {
        for f in &mut self.frames {
            f.pins = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_pool(capacity: usize) -> BufferPool {
        let dir = std::env::temp_dir().join(format!(
            "ocas-pool-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("{capacity}.bin"));
        let file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)
            .unwrap();
        file.set_len(1 << 20).unwrap();
        BufferPool::new(file, 64, capacity)
    }

    #[test]
    fn read_back_what_was_written() {
        let mut p = temp_pool(8);
        let data: Vec<u8> = (0..300).map(|i| (i % 251) as u8).collect();
        p.write(100, &data).unwrap();
        let mut buf = vec![0u8; 300];
        p.read(100, &mut buf).unwrap();
        assert_eq!(buf, data);
    }

    #[test]
    fn dirty_pages_survive_eviction() {
        let mut p = temp_pool(2);
        // Write 8 pages through a 2-frame pool, forcing write-backs.
        for page in 0u64..8 {
            p.write(page * 64, &[page as u8 + 1; 64]).unwrap();
        }
        assert!(p.stats().evictions >= 6, "{:?}", p.stats());
        assert!(p.stats().write_backs >= 6, "{:?}", p.stats());
        // Every page reads back intact (from file or frame).
        for page in 0u64..8 {
            let mut buf = [0u8; 64];
            p.read(page * 64, &mut buf).unwrap();
            assert_eq!(buf, [page as u8 + 1; 64], "page {page}");
        }
    }

    #[test]
    fn hits_and_misses_are_counted() {
        let mut p = temp_pool(4);
        let mut buf = [0u8; 64];
        p.read(0, &mut buf).unwrap();
        p.read(0, &mut buf).unwrap();
        p.read(64, &mut buf).unwrap();
        let s = p.stats();
        assert_eq!((s.misses, s.hits), (2, 1));
    }

    #[test]
    fn lru_keeps_the_hot_page() {
        let mut p = temp_pool(2);
        let mut buf = [0u8; 64];
        p.read(0, &mut buf).unwrap(); // page 0
        p.read(64, &mut buf).unwrap(); // page 1
        p.read(0, &mut buf).unwrap(); // touch page 0
        p.read(128, &mut buf).unwrap(); // page 2 evicts page 1 (LRU)
        let before = p.stats().misses;
        p.read(0, &mut buf).unwrap(); // page 0 still resident
        assert_eq!(p.stats().misses, before);
        p.read(64, &mut buf).unwrap(); // page 1 was evicted
        assert_eq!(p.stats().misses, before + 1);
    }

    #[test]
    fn pinned_pages_are_never_evicted() {
        let mut p = temp_pool(2);
        p.write(0, &[9u8; 64]).unwrap();
        p.pin(0, 64).unwrap();
        let mut buf = [0u8; 64];
        p.read(64, &mut buf).unwrap();
        p.read(128, &mut buf).unwrap(); // must evict page 1, not pinned page 0
        let before = p.stats().misses;
        p.read(0, &mut buf).unwrap();
        assert_eq!(p.stats().misses, before, "pinned page stayed resident");
        assert_eq!(buf, [9u8; 64]);
        // With every frame pinned, loading a third page must fail, and
        // unpinning must clear the jam.
        p.pin(64, 64).unwrap_or(0);
        // Frames: page 0 (pinned), page 64's page (pinned).
        let jam = p.read(4096, &mut buf);
        assert!(matches!(jam, Err(StorageError::Io(_))), "{jam:?}");
        p.unpin(0, 64);
        assert!(p.read(4096, &mut buf).is_ok());
    }

    #[test]
    fn torn_write_back_detected_as_corrupt_page() {
        let mut p = temp_pool(2).with_label("HDD");
        // Dirty page 0 with content whose halves differ, tear its
        // write-back, then force it out and back in.
        let mut content = [0xAAu8; 64];
        content[32..].fill(0xBB);
        p.write(0, &content).unwrap();
        p.schedule_torn(0);
        let mut buf = [0u8; 64];
        p.read(64, &mut buf).unwrap();
        p.read(128, &mut buf).unwrap(); // evicts page 0, torn write-back
        assert_eq!(p.stats().torn_injected, 1);
        let err = p.read(0, &mut buf).unwrap_err();
        assert!(
            matches!(err, StorageError::CorruptPage { ref device, page }
                if device == "HDD" && page == 0),
            "{err:?}"
        );
        assert_eq!(p.stats().checksum_failures, 1);
    }

    #[test]
    fn clean_write_backs_verify_on_reload() {
        let mut p = temp_pool(2).with_label("HDD");
        let content = [0x5Au8; 64];
        p.write(0, &content).unwrap();
        let mut buf = [0u8; 64];
        p.read(64, &mut buf).unwrap();
        p.read(128, &mut buf).unwrap(); // evicts page 0 (clean write-back)
        p.read(0, &mut buf).unwrap(); // reload verifies the checksum
        assert_eq!(buf, content);
        assert_eq!(p.stats().checksum_failures, 0);
    }

    #[test]
    fn failed_pin_rolls_back_partial_pins() {
        // 2 frames, one already pinned: pinning a 2-page span pins its
        // first page, then fails loading the second (every frame pinned)
        // — the partial pin must be rolled back.
        let mut p = temp_pool(2);
        p.pin(0, 64).unwrap();
        assert_eq!(p.pinned_frames(), 1);
        let err = p.pin(64, 128);
        assert!(err.is_err());
        // Only the original pin remains; the failed span left none.
        assert_eq!(p.pinned_frames(), 1, "failed pin leaked a pin");
        p.unpin(0, 64);
        assert_eq!(p.pinned_frames(), 0);
    }

    #[test]
    fn unpin_all_clears_a_jam() {
        let mut p = temp_pool(2);
        p.pin(0, 64).unwrap();
        p.pin(64, 64).unwrap();
        let mut buf = [0u8; 64];
        assert!(p.read(4096, &mut buf).is_err());
        p.unpin_all();
        assert_eq!(p.pinned_frames(), 0);
        assert!(p.read(4096, &mut buf).is_ok());
    }

    #[test]
    fn flush_persists_dirty_pages() {
        let mut p = temp_pool(8);
        p.write(10, b"hello pool").unwrap();
        assert_eq!(p.stats().write_backs, 0);
        p.flush().unwrap();
        assert!(p.stats().write_backs >= 1);
        // A second flush has nothing left to do.
        let wb = p.stats().write_backs;
        p.flush().unwrap();
        assert_eq!(p.stats().write_backs, wb);
    }
}
