//! The real-I/O storage backend: one temp file per hierarchy device, each
//! fronted by a page-granular [`BufferPool`], implementing the engine's
//! [`StorageBackend`] seam with per-device I/O counters that mirror the
//! simulator's [`DeviceStats`].

use crate::pool::{BufferPool, PoolStats};
use ocas_hierarchy::Hierarchy;
use ocas_storage::fault::{FaultKind, FaultOp, FaultPlan, FaultState, RetryPolicy};
use ocas_storage::{DeviceStats, FileId, RecoveryCounters, StorageBackend, StorageError};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// How wall-clock timing relates to the physical disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TimingMode {
    /// Default: I/O goes through the OS page cache; `wall_seconds` on
    /// workloads smaller than free RAM mostly measures `memcpy`.
    #[default]
    Buffered,
    /// fsync-bounded timing: device files are opened with `O_DIRECT` where
    /// the platform allows (Linux, 512-byte-aligned pages, a filesystem
    /// that supports it — probed at startup, silently falling back to
    /// buffered I/O elsewhere), and [`FileBackend::flush`] — write-back +
    /// fsync — charges the clock, so `wall_seconds` reflects the disk
    /// rather than the kernel's RAM.
    DiskBounded,
}

/// Buffer-pool configuration shared by every device of a backend.
#[derive(Debug, Clone, Copy)]
pub struct PoolConfig {
    /// Page size in bytes (0 = use each device's hierarchy `pagesize`).
    pub page_bytes: usize,
    /// Frames per device pool.
    pub frames: usize,
    /// Timing mode (buffered page-cache I/O vs fsync/`O_DIRECT`-bounded).
    pub timing: TimingMode,
}

impl Default for PoolConfig {
    fn default() -> PoolConfig {
        PoolConfig {
            page_bytes: 0,
            frames: 256,
            timing: TimingMode::Buffered,
        }
    }
}

/// Tries to reopen `path` for direct I/O and probes one aligned read; any
/// failure (unsupported platform, filesystem, or page geometry) returns
/// `None` and the caller stays on buffered I/O.
#[cfg(target_os = "linux")]
fn try_direct_open(path: &Path, page: usize) -> Option<std::fs::File> {
    use std::os::unix::fs::{FileExt, OpenOptionsExt};
    if page % 512 != 0 {
        return None;
    }
    #[cfg(any(target_arch = "aarch64", target_arch = "arm"))]
    const O_DIRECT: i32 = 0o200000;
    #[cfg(not(any(target_arch = "aarch64", target_arch = "arm")))]
    const O_DIRECT: i32 = 0o40000;
    let file = std::fs::OpenOptions::new()
        .read(true)
        .write(true)
        .custom_flags(O_DIRECT)
        .open(path)
        .ok()?;
    let mut probe = vec![0u8; page + 511];
    let off = probe.as_ptr().align_offset(512);
    file.read_at(&mut probe[off..off + page], 0).ok()?;
    Some(file)
}

#[cfg(not(target_os = "linux"))]
fn try_direct_open(_path: &Path, _page: usize) -> Option<std::fs::File> {
    None
}

#[derive(Debug, Clone)]
struct FileMeta {
    device: usize,
    offset: u64,
    len: u64,
}

struct DeviceFile {
    name: String,
    pool: BufferPool,
    stats: DeviceStats,
    /// Next byte position a purely sequential request would start at —
    /// a request elsewhere counts as a seek, mirroring the HDD simulator.
    position: u64,
    /// Pool statistics as of the last emitted obs counter sample, so
    /// tracing emits per-request deltas (only read while tracing).
    obs_pool: PoolStats,
}

impl DeviceFile {
    /// Records one charged request as a wall-clock span on this device's
    /// track, plus counter deltas for any buffer-pool activity it caused.
    fn obs_request(&mut self, name: &'static str, start: f64, dur: f64, bytes: u64, seek: bool) {
        if !ocas_obs::enabled() {
            return;
        }
        ocas_obs::span(
            ocas_obs::Clock::Wall,
            &format!("dev:{}", self.name),
            name,
            start,
            dur,
            &[("bytes", bytes as f64), ("seeks", u64::from(seek) as f64)],
        );
        let s = self.pool.stats();
        let track = format!("pool:{}", self.name);
        for (counter, cur, prev) in [
            ("hits", s.hits, self.obs_pool.hits),
            ("misses", s.misses, self.obs_pool.misses),
            ("evictions", s.evictions, self.obs_pool.evictions),
            ("write_backs", s.write_backs, self.obs_pool.write_backs),
        ] {
            if cur > prev {
                ocas_obs::counter(
                    ocas_obs::Clock::Wall,
                    &track,
                    counter,
                    start + dur,
                    (cur - prev) as f64,
                );
            }
        }
        self.obs_pool = s;
    }
}

/// Fault-injection state interposed on the backend's real syscall paths
/// ([`FileBackend::read_into`], the write path, and allocation): the plan
/// is consulted per attempt, transients are retried under the policy with
/// backoff charged to the wall-accounted clock.
#[derive(Debug)]
struct Injector {
    state: FaultState,
    policy: RetryPolicy,
}

/// The real-I/O backend: files on disk, wall-clock accounting.
///
/// Every device of the hierarchy's storage tree maps to one backing file
/// inside a per-backend temp directory; engine file extents are
/// bump-allocated ranges of those files, exactly like the simulator's
/// extent allocator — so a plan executed here issues the same `(device,
/// offset, len)` request stream as on [`ocas_storage::StorageSim`], but
/// each request moves real bytes through the device's buffer pool.
///
/// The backend is built for **faithful-scale** runs (real rows, real
/// bytes). Simulated-mode plans model multi-terabyte transfers; pointing
/// one at a `FileBackend` would faithfully write that much filler.
pub struct FileBackend {
    dir: PathBuf,
    timing: TimingMode,
    devices: Vec<DeviceFile>,
    device_by_name: BTreeMap<String, usize>,
    capacity: Vec<u64>,
    allocated: Vec<u64>,
    files: Vec<FileMeta>,
    clock_seconds: f64,
    scratch: Vec<u8>,
    injector: Option<Injector>,
    /// Degradations recorded via `note_degradation` (kept even without an
    /// injector: genuine `Full` conditions degrade too).
    recovery: RecoveryCounters,
    /// Alternate spill device the out-of-core algorithms fail over to
    /// when a spill device runs out of space.
    spill_fallback: Option<String>,
}

impl std::fmt::Debug for FileBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FileBackend")
            .field("dir", &self.dir)
            .field("devices", &self.device_by_name)
            .field("files", &self.files.len())
            .field("clock_seconds", &self.clock_seconds)
            .finish()
    }
}

fn io_err(e: std::io::Error) -> StorageError {
    StorageError::Io(e.to_string())
}

static BACKEND_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

impl FileBackend {
    /// Builds a backend in a fresh temp directory (removed on drop).
    pub fn from_hierarchy(h: &Hierarchy, cfg: PoolConfig) -> Result<FileBackend, StorageError> {
        let seq = BACKEND_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("ocas-runtime-{}-{seq}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(io_err)?;
        let mut devices = Vec::new();
        let mut device_by_name = BTreeMap::new();
        let mut capacity = Vec::new();
        for id in h.ids() {
            let props = h.node(id);
            let path = dir.join(format!("{}.dev", props.name));
            let file = std::fs::OpenOptions::new()
                .read(true)
                .write(true)
                .create(true)
                .truncate(true)
                .open(&path)
                .map_err(io_err)?;
            let page = if cfg.page_bytes > 0 {
                cfg.page_bytes
            } else {
                props.pagesize.clamp(1, 1 << 20) as usize
            };
            // Disk-bounded timing: swap in an O_DIRECT handle when the
            // platform grants one for this page geometry and filesystem.
            let (file, direct) = if cfg.timing == TimingMode::DiskBounded {
                match try_direct_open(&path, page) {
                    Some(f) => (f, true),
                    None => (file, false),
                }
            } else {
                (file, false)
            };
            device_by_name.insert(props.name.clone(), devices.len());
            capacity.push(props.size);
            devices.push(DeviceFile {
                name: props.name.clone(),
                pool: BufferPool::new(file, page, cfg.frames)
                    .with_direct(direct)
                    .with_label(&props.name),
                stats: DeviceStats::default(),
                position: 0,
                obs_pool: PoolStats::default(),
            });
        }
        let n = devices.len();
        Ok(FileBackend {
            dir,
            timing: cfg.timing,
            devices,
            device_by_name,
            capacity,
            allocated: vec![0; n],
            files: Vec::new(),
            clock_seconds: 0.0,
            scratch: Vec::new(),
            injector: None,
            recovery: RecoveryCounters::default(),
            spill_fallback: None,
        })
    }

    /// The backend's temp directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Interposes `plan` on the backend's real I/O paths, builder-style:
    /// every charged read/write/alloc attempt consumes one per-device
    /// request index and may fail per the plan; transients are retried
    /// under `policy` with backoff charged to the clock.
    pub fn with_faults(mut self, plan: FaultPlan, policy: RetryPolicy) -> FileBackend {
        self.injector = Some(Injector {
            state: FaultState::new(plan),
            policy,
        });
        self
    }

    /// Names an alternate spill device for ENOSPC fail-over,
    /// builder-style. The out-of-core algorithms consult this when a
    /// spill allocation keeps failing after shrinking.
    pub fn with_spill_fallback(mut self, device: &str) -> FileBackend {
        self.spill_fallback = Some(device.to_string());
        self
    }

    /// The configured ENOSPC fail-over device, if any.
    pub fn spill_fallback(&self) -> Option<&str> {
        self.spill_fallback.as_deref()
    }

    /// Total pages currently pinned across every device pool.
    pub fn pinned_pages(&self) -> u64 {
        self.devices.iter().map(|d| d.pool.pinned_frames()).sum()
    }

    /// Every device's allocation watermark, in device order: the marks
    /// [`rollback`](FileBackend::rollback) returns to.
    pub(crate) fn watermarks(&self) -> Vec<u64> {
        self.allocated.clone()
    }

    /// Error-path cleanup of a failed native run: drops every pin and
    /// truncates each device to its mark from
    /// [`watermarks`](FileBackend::watermarks), releasing the run's spill
    /// and output extents.
    pub(crate) fn rollback(&mut self, marks: &[u64]) {
        for d in &mut self.devices {
            d.pool.unpin_all();
        }
        for (allocated, mark) in self.allocated.iter_mut().zip(marks) {
            *allocated = (*allocated).min(*mark);
        }
    }

    /// Runs one charged request of `len` bytes against device index `d`
    /// through the fault-injection and retry machinery; a backend without
    /// an injector goes straight to `attempt`. `attempt(backend, take)`
    /// issues the real request for `take` bytes — short-transfer faults
    /// re-issue with half the length (charging the partial work) before
    /// failing the attempt transiently.
    fn faulted_io<T>(
        &mut self,
        d: usize,
        op: FaultOp,
        len: u64,
        mut attempt: impl FnMut(&mut FileBackend, u64) -> Result<T, StorageError>,
    ) -> Result<T, StorageError> {
        let Some(mut inj) = self.injector.take() else {
            return attempt(self, len);
        };
        let device = self.devices[d].name.clone();
        let mut try_no = 0u32;
        let out = loop {
            let (idx, fault) =
                inj.state
                    .on_request(&device, op, ocas_obs::Clock::Wall, self.clock_seconds);
            match fault {
                Some(FaultKind::Latency(extra)) => self.clock_seconds += extra,
                Some(FaultKind::TornWriteBack) => self.devices[d].pool.schedule_torn(0),
                _ => {}
            }
            match fault {
                None | Some(FaultKind::Latency(_) | FaultKind::TornWriteBack) => {
                    let out = attempt(self, len);
                    if out.is_ok() && try_no > 0 {
                        inj.state.counters.retry_successes += 1;
                    }
                    break out;
                }
                Some(FaultKind::NoSpace) => {
                    break Err(StorageError::NoSpace {
                        device: device.clone(),
                        requested: len,
                    });
                }
                Some(FaultKind::ShortRead | FaultKind::ShortWrite)
                    if len > 1 && op != FaultOp::Alloc =>
                {
                    // Move (and charge) half the request, then fail this
                    // attempt; the retry re-issues the full idempotent
                    // request.
                    if let Err(e) = attempt(self, len / 2) {
                        break Err(e);
                    }
                }
                Some(_) => {}
            }
            let transient = StorageError::Transient {
                device: device.clone(),
                op: op.name(),
                request: idx,
            };
            try_no += 1;
            if try_no >= inj.policy.max_attempts {
                inj.state.counters.gave_up += 1;
                break Err(transient);
            }
            self.clock_seconds += inj.policy.backoff_for(try_no - 1);
            inj.state
                .note_retry(&device, ocas_obs::Clock::Wall, self.clock_seconds);
        };
        self.injector = Some(inj);
        out
    }

    fn alloc_raw(&mut self, d: usize, device: &str, len: u64) -> Result<FileId, StorageError> {
        if self.allocated[d] + len > self.capacity[d] {
            return Err(StorageError::Full(device.to_string()));
        }
        let offset = self.allocated[d];
        self.allocated[d] += len;
        let id = FileId(self.files.len());
        self.files.push(FileMeta {
            device: d,
            offset,
            len,
        });
        Ok(id)
    }

    fn device_idx(&self, device: &str) -> Result<usize, StorageError> {
        self.device_by_name
            .get(device)
            .copied()
            .ok_or_else(|| StorageError::UnknownDevice(device.to_string()))
    }

    /// Looks up a file's extent; a stale or foreign id is a typed error,
    /// not a panic (the trait returns `Result` — callers propagate).
    fn meta(&self, file: FileId) -> Result<&FileMeta, StorageError> {
        self.files
            .get(file.0)
            .ok_or(StorageError::UnknownFile(file.0))
    }

    fn check(&self, file: FileId, offset: u64, len: u64) -> Result<(), StorageError> {
        let m = self.meta(file)?;
        if offset + len > m.len {
            return Err(StorageError::OutOfBounds {
                file: file.0,
                end: offset + len,
                len: m.len,
            });
        }
        Ok(())
    }

    /// Charged read of real bytes into `buf` — the data path the
    /// out-of-core algorithms use. Subject to fault injection when the
    /// backend was built [`with_faults`](FileBackend::with_faults).
    pub fn read_into(
        &mut self,
        file: FileId,
        offset: u64,
        buf: &mut [u8],
    ) -> Result<(), StorageError> {
        self.request(file, offset, buf.len(), FaultOp::Read, |pool, pos, take| {
            pool.read(pos, &mut buf[..take])
        })
    }

    fn write_impl(&mut self, file: FileId, offset: u64, data: &[u8]) -> Result<(), StorageError> {
        self.request(
            file,
            offset,
            data.len(),
            FaultOp::Write,
            |pool, pos, take| pool.write(pos, &data[..take]),
        )
    }

    /// One charged read or write of `len` bytes at `offset` of `file`,
    /// through [`faulted_io`](FileBackend::faulted_io). `io(pool, pos, take)`
    /// moves the first `take` bytes at device position `pos`; a
    /// short-transfer fault calls it with `take < len`.
    fn request(
        &mut self,
        file: FileId,
        offset: u64,
        len: usize,
        op: FaultOp,
        mut io: impl FnMut(&mut BufferPool, u64, usize) -> Result<(), StorageError>,
    ) -> Result<(), StorageError> {
        self.check(file, offset, len as u64)?;
        let m = self.meta(file)?.clone();
        self.faulted_io(m.device, op, len as u64, |b, take| {
            b.charge(&m, offset, take as usize, op, &mut io)
        })
    }

    /// Moves `len` bytes through `io` and charges them to the device of
    /// `m`: seek and byte counters, busy time, the clock and an obs span.
    fn charge(
        &mut self,
        m: &FileMeta,
        offset: u64,
        len: usize,
        op: FaultOp,
        io: &mut impl FnMut(&mut BufferPool, u64, usize) -> Result<(), StorageError>,
    ) -> Result<(), StorageError> {
        let pos = m.offset + offset;
        let w0 = ocas_obs::wall_now();
        let t0 = Instant::now();
        let d = &mut self.devices[m.device];
        let seek = pos != d.position;
        if seek {
            d.stats.seeks += 1;
        }
        io(&mut d.pool, pos, len)?;
        d.position = pos + len as u64;
        if op == FaultOp::Write {
            d.stats.bytes_written += len as u64;
        } else {
            d.stats.bytes_read += len as u64;
        }
        let dt = t0.elapsed().as_secs_f64();
        d.stats.busy_seconds += dt;
        d.obs_request(op.name(), w0, dt, len as u64, seek);
        self.clock_seconds += dt;
        Ok(())
    }

    /// Charged read of `count` tuples of `width` 8-byte columns starting
    /// at tuple `row_offset`, decoded straight into a flat batch through
    /// the backend's reusable scratch buffer — the block-read path of the
    /// out-of-core algorithms (no per-block, per-row or per-column
    /// allocation).
    pub fn read_rows(
        &mut self,
        file: FileId,
        row_offset: u64,
        count: u64,
        width: usize,
        out: &mut ocas_engine::RowBuf,
    ) -> Result<(), StorageError> {
        let tb = width as u64 * 8;
        self.with_scratch((count * tb) as usize, |b, buf| {
            b.read_into(file, row_offset * tb, buf)?;
            out.decode_into(buf);
            Ok(())
        })
    }

    /// Uncharged tuple read — [`read_rows`](FileBackend::read_rows) for the
    /// harvest path (no clock, no counters, no seek).
    pub fn peek_rows(
        &mut self,
        file: FileId,
        row_offset: u64,
        count: u64,
        width: usize,
        out: &mut ocas_engine::RowBuf,
    ) -> Result<(), StorageError> {
        let tb = width as u64 * 8;
        self.with_scratch((count * tb) as usize, |b, buf| {
            b.peek(file, row_offset * tb, buf)?;
            out.decode_into(buf);
            Ok(())
        })
    }

    /// Lends `f` the first `len` bytes of the reusable scratch buffer.
    fn with_scratch<T>(
        &mut self,
        len: usize,
        f: impl FnOnce(&mut FileBackend, &mut [u8]) -> Result<T, StorageError>,
    ) -> Result<T, StorageError> {
        if self.scratch.len() < len {
            self.scratch.resize(len, 0);
        }
        let mut buf = std::mem::take(&mut self.scratch);
        let r = f(self, &mut buf[..len]);
        self.scratch = buf;
        r
    }

    /// Uncharged read of real bytes — the harvest path for pulling results
    /// back out after a measured run (no clock, no counters, no seek).
    pub fn peek(&mut self, file: FileId, offset: u64, buf: &mut [u8]) -> Result<(), StorageError> {
        self.check(file, offset, buf.len() as u64)?;
        let m = self.meta(file)?.clone();
        self.devices[m.device].pool.read(m.offset + offset, buf)
    }

    /// Pins the pages backing `[offset, offset+len)` of `file` so the pool
    /// cannot evict them (hot block buffers).
    pub fn pin(&mut self, file: FileId, offset: u64, len: u64) -> Result<(), StorageError> {
        self.check(file, offset, len)?;
        let m = self.meta(file)?.clone();
        self.devices[m.device].pool.pin(m.offset + offset, len)?;
        Ok(())
    }

    /// Releases a [`pin`](FileBackend::pin). Cleanup path: a stale id is
    /// ignored rather than panicking.
    pub fn unpin(&mut self, file: FileId, offset: u64, len: u64) {
        if let Some(m) = self.files.get(file.0).cloned() {
            self.devices[m.device].pool.unpin(m.offset + offset, len);
        }
    }

    /// Writes every pool's dirty pages back and syncs the files. In
    /// disk-bounded timing mode the write-back + fsync time is charged to
    /// the clock and the device (it *is* disk time); buffered mode leaves
    /// it uncharged, mirroring a page-cache-backed run.
    pub fn flush(&mut self) -> Result<(), StorageError> {
        let charge = self.timing == TimingMode::DiskBounded;
        for d in &mut self.devices {
            let t0 = Instant::now();
            d.pool.flush()?;
            if charge {
                let dt = t0.elapsed().as_secs_f64();
                d.stats.busy_seconds += dt;
                self.clock_seconds += dt;
            }
        }
        Ok(())
    }

    /// True when at least one device pool runs on an `O_DIRECT` handle.
    pub fn any_direct(&self) -> bool {
        self.devices.iter().any(|d| d.pool.is_direct())
    }

    /// Aggregated buffer-pool statistics per device.
    pub fn pool_stats(&self) -> Vec<(String, PoolStats)> {
        self.devices
            .iter()
            .map(|d| (d.name.clone(), d.pool.stats()))
            .collect()
    }

    /// Per-device I/O statistics, in hierarchy order.
    pub fn all_device_stats(&self) -> Vec<(String, DeviceStats)> {
        self.devices
            .iter()
            .map(|d| (d.name.clone(), d.stats))
            .collect()
    }
}

impl Drop for FileBackend {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

impl StorageBackend for FileBackend {
    fn alloc(&mut self, device: &str, len: u64) -> Result<FileId, StorageError> {
        let d = self.device_idx(device)?;
        self.faulted_io(d, FaultOp::Alloc, len, |b, _| b.alloc_raw(d, device, len))
    }

    fn read(&mut self, file: FileId, offset: u64, len: u64) -> Result<(), StorageError> {
        // Accounting read: really fetch the bytes (through the pool, off
        // the file) into a scratch buffer, in bounded chunks.
        for at in (offset..offset + len).step_by(1 << 20) {
            let chunk = (offset + len - at).min(1 << 20) as usize;
            self.with_scratch(chunk, |b, buf| b.read_into(file, at, buf))?;
        }
        Ok(())
    }

    fn write(&mut self, file: FileId, offset: u64, len: u64) -> Result<(), StorageError> {
        // Accounting write: move that many real filler bytes.
        for at in (offset..offset + len).step_by(1 << 20) {
            let chunk = (offset + len - at).min(1 << 20) as usize;
            self.with_scratch(chunk, |b, buf| b.write_impl(file, at, buf))?;
        }
        Ok(())
    }

    fn write_bytes(&mut self, file: FileId, offset: u64, data: &[u8]) -> Result<(), StorageError> {
        self.write_impl(file, offset, data)
    }

    fn materialize(&mut self, file: FileId, offset: u64, data: &[u8]) -> Result<(), StorageError> {
        self.check(file, offset, data.len() as u64)?;
        let m = self.meta(file)?.clone();
        // Through the pool (cache coherence) but uncharged and without
        // disturbing the sequential-position seek accounting.
        self.devices[m.device].pool.write(m.offset + offset, data)
    }

    fn charge_cpu(&mut self, _seconds: f64) {
        // Real backends measure wall time; modeled CPU would double-count.
    }

    fn charge_penalty(&mut self, seconds: f64) {
        // Fault-handling penalties (backoff, latency spikes) land on the
        // I/O-accounted clock even on the real backend — they model time
        // the device was unavailable, not CPU work.
        self.clock_seconds += seconds;
    }

    fn clock(&self) -> f64 {
        self.clock_seconds
    }

    fn obs_clock(&self) -> ocas_obs::Clock {
        ocas_obs::Clock::Wall
    }

    fn len(&self, file: FileId) -> u64 {
        self.files.get(file.0).map(|m| m.len).unwrap_or(0)
    }

    fn device_of(&self, file: FileId) -> &str {
        match self.files.get(file.0) {
            Some(m) => &self.devices[m.device].name,
            None => "?",
        }
    }

    fn device_stats(&self, device: &str) -> Option<DeviceStats> {
        self.device_by_name
            .get(device)
            .map(|d| self.devices[*d].stats)
    }

    fn truncate_device(&mut self, device: &str, mark: u64) -> Result<(), StorageError> {
        let d = self.device_idx(device)?;
        self.allocated[d] = self.allocated[d].min(mark);
        Ok(())
    }

    fn watermark(&self, device: &str) -> Option<u64> {
        self.device_by_name.get(device).map(|d| self.allocated[*d])
    }

    fn recovery_counters(&self) -> Option<RecoveryCounters> {
        let mut c = self.recovery;
        if let Some(inj) = &self.injector {
            c.merge(&inj.state.counters);
        }
        for d in &self.devices {
            c.corrupt_pages_detected += d.pool.stats().checksum_failures;
        }
        if c == RecoveryCounters::default() && self.injector.is_none() {
            return None;
        }
        Some(c)
    }

    fn note_degradation(&mut self, device: &str, what: &'static str) {
        self.recovery.note_degradation(what);
        if ocas_obs::enabled() {
            ocas_obs::counter(
                ocas_obs::Clock::Wall,
                &format!("degrade:{device}"),
                what,
                self.clock_seconds,
                1.0,
            );
        }
    }

    fn schedule_torn_write_back(&mut self, device: &str, at: u64) -> bool {
        match self.device_by_name.get(device) {
            Some(&d) => {
                self.devices[d].pool.schedule_torn(at);
                true
            }
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ocas_hierarchy::presets;

    fn backend() -> FileBackend {
        let h = presets::hdd_ram(1 << 25);
        FileBackend::from_hierarchy(&h, PoolConfig::default()).unwrap()
    }

    #[test]
    fn bytes_round_trip_through_real_files() {
        let mut b = backend();
        let f = b.alloc("HDD", 4096).unwrap();
        let data: Vec<u8> = (0..4096u32).map(|i| (i % 241) as u8).collect();
        b.write_bytes(f, 0, &data).unwrap();
        b.flush().unwrap();
        // The bytes are really on disk.
        use std::io::Read;
        let path = b.dir().join("HDD.dev");
        let mut on_disk = vec![0u8; 4096];
        std::fs::File::open(&path)
            .unwrap()
            .read_exact(&mut on_disk)
            .unwrap();
        assert_eq!(on_disk, data);
        let mut buf = vec![0u8; 4096];
        b.read_into(f, 0, &mut buf).unwrap();
        assert_eq!(buf, data);
    }

    #[test]
    fn device_files_hold_written_pages_not_capacity() {
        let h = presets::hdd_ram(1 << 25);
        let hdd = h.node(h.by_name("HDD").unwrap());
        assert!(hdd.size >= 1 << 40, "the HDD is a 1 TiB device");
        let page = hdd.pagesize;
        let mut b = backend();
        let f = b.alloc("HDD", page).unwrap();
        b.write_bytes(f, 0, &vec![7u8; page as usize]).unwrap();
        b.flush().unwrap();
        let mut devices = 0;
        for entry in std::fs::read_dir(b.dir()).unwrap() {
            let path = entry.unwrap().path();
            if path.extension().is_some_and(|e| e == "dev") {
                let len = std::fs::metadata(&path).unwrap().len();
                assert!(len <= page, "{path:?} is {len} bytes");
                devices += 1;
            }
        }
        assert_eq!(devices, 2, "one file per device");
    }

    #[test]
    fn counters_mirror_device_stats() {
        let mut b = backend();
        let f = b.alloc("HDD", 1 << 16).unwrap();
        b.write(f, 0, 1 << 16).unwrap();
        b.read(f, 0, 1 << 16).unwrap();
        // Jump back: a second read from 0 is a seek.
        b.read(f, 0, 4096).unwrap();
        let s = b.device_stats("HDD").unwrap();
        assert_eq!(s.bytes_written, 1 << 16);
        assert_eq!(s.bytes_read, (1 << 16) + 4096);
        assert!(s.seeks >= 2, "write→read jump and read→read jump: {s:?}");
        assert!(b.clock() > 0.0);
        assert!(s.busy_seconds > 0.0);
    }

    #[test]
    fn materialize_is_uncharged() {
        let mut b = backend();
        let f = b.alloc("HDD", 1024).unwrap();
        b.materialize(f, 0, &[5u8; 1024]).unwrap();
        assert_eq!(b.clock(), 0.0);
        let s = b.device_stats("HDD").unwrap();
        assert_eq!((s.bytes_read, s.bytes_written), (0, 0));
        let mut buf = [0u8; 16];
        b.read_into(f, 100, &mut buf).unwrap();
        assert_eq!(buf, [5u8; 16]);
    }

    #[test]
    fn alloc_bounds_and_capacity() {
        let mut b = backend();
        let f = b.alloc("HDD", 100).unwrap();
        assert!(matches!(
            b.read(f, 64, 100),
            Err(StorageError::OutOfBounds { .. })
        ));
        assert!(matches!(
            b.alloc("nope", 1),
            Err(StorageError::UnknownDevice(_))
        ));
        assert!(matches!(
            b.alloc("RAM", 1 << 40),
            Err(StorageError::Full(_))
        ));
        // truncate_device reuses scratch space.
        let mark = StorageBackend::watermark(&b, "HDD").unwrap();
        b.alloc("HDD", 1 << 20).unwrap();
        b.truncate_device("HDD", mark).unwrap();
        assert_eq!(StorageBackend::watermark(&b, "HDD"), Some(mark));
    }

    #[test]
    fn unknown_file_is_typed_not_panic() {
        let mut b = backend();
        let stale = ocas_storage::FileId(999);
        assert!(matches!(
            b.read_into(stale, 0, &mut [0u8; 8]),
            Err(StorageError::UnknownFile(999))
        ));
        assert!(matches!(
            b.write_bytes(stale, 0, &[0u8; 8]),
            Err(StorageError::UnknownFile(999))
        ));
        assert_eq!(StorageBackend::len(&b, stale), 0);
        assert_eq!(b.device_of(stale), "?");
        b.unpin(stale, 0, 8); // cleanup path: silently ignored
    }

    #[test]
    fn injected_transient_retries_on_real_files() {
        use ocas_storage::{FaultKind, FaultOp, FaultPlan, RetryPolicy};
        let h = presets::hdd_ram(1 << 25);
        let plan = FaultPlan::new().with("HDD", FaultOp::Write, 1, FaultKind::Transient);
        let mut b = FileBackend::from_hierarchy(&h, PoolConfig::default())
            .unwrap()
            .with_faults(plan, RetryPolicy::default());
        let f = b.alloc("HDD", 4096).unwrap();
        let data: Vec<u8> = (0..4096u32).map(|i| (i % 13) as u8).collect();
        // alloc = HDD request 0; this write fires the fault, retries, and
        // the data still lands intact.
        b.write_bytes(f, 0, &data).unwrap();
        let mut buf = vec![0u8; 4096];
        b.read_into(f, 0, &mut buf).unwrap();
        assert_eq!(buf, data);
        let c = b.recovery_counters().unwrap();
        assert_eq!(c.transient_faults, 1);
        assert_eq!(c.retry_successes, 1);
        // Backoff was charged to the wall-accounted clock.
        assert!(b.clock() >= 0.001);
    }

    #[test]
    fn injected_no_space_is_typed_and_leaves_capacity() {
        use ocas_storage::{FaultKind, FaultOp, FaultPlan, RetryPolicy};
        let h = presets::hdd_ram(1 << 25);
        let plan = FaultPlan::new().with("HDD", FaultOp::Alloc, 1, FaultKind::NoSpace);
        let mut b = FileBackend::from_hierarchy(&h, PoolConfig::default())
            .unwrap()
            .with_faults(plan, RetryPolicy::default());
        b.alloc("HDD", 1024).unwrap();
        let before = StorageBackend::watermark(&b, "HDD").unwrap();
        let err = b.alloc("HDD", 2048).unwrap_err();
        assert!(
            matches!(err, StorageError::NoSpace { ref device, requested }
                if device == "HDD" && requested == 2048)
        );
        assert_eq!(StorageBackend::watermark(&b, "HDD"), Some(before));
        // The next (degraded) attempt consumes a later index and works.
        b.alloc("HDD", 2048).unwrap();
    }

    #[test]
    fn injected_torn_write_back_detected_end_to_end() {
        use ocas_storage::{FaultKind, FaultOp, FaultPlan, RetryPolicy};
        let h = presets::hdd_ram(1 << 25);
        // Small pool so the torn page is evicted and must be re-read.
        let cfg = PoolConfig {
            frames: 2,
            ..PoolConfig::default()
        };
        let plan = FaultPlan::new().with("HDD", FaultOp::Write, 1, FaultKind::TornWriteBack);
        let mut b = FileBackend::from_hierarchy(&h, cfg)
            .unwrap()
            .with_faults(plan, RetryPolicy::default());
        let page = 4096u64;
        let f = b.alloc("HDD", 8 * page).unwrap();
        let mut data = vec![0x11u8; page as usize];
        data[page as usize / 2..].fill(0x22);
        // Request 1 schedules the tear; the write itself succeeds.
        b.write_bytes(f, 0, &data).unwrap();
        // Push the page out through a 2-frame pool and pull it back in.
        for i in 1..6u64 {
            b.write_bytes(f, i * page, &data).unwrap();
        }
        let mut buf = vec![0u8; page as usize];
        let got = (0..8u64)
            .map(|i| b.read_into(f, i * page, &mut buf))
            .find(|r| r.is_err());
        let err = got
            .expect("torn page must surface on some re-read")
            .unwrap_err();
        assert!(
            matches!(err, StorageError::CorruptPage { ref device, .. } if device == "HDD"),
            "{err:?}"
        );
        let c = b.recovery_counters().unwrap();
        assert_eq!(c.torn_write_backs, 1);
        assert!(c.corrupt_pages_detected >= 1);
    }

    #[test]
    fn temp_dir_removed_on_drop() {
        let dir;
        {
            let b = backend();
            dir = b.dir().to_path_buf();
            assert!(dir.exists());
        }
        assert!(!dir.exists(), "temp dir {dir:?} should be cleaned up");
    }
}
