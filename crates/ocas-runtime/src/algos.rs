//! Genuinely out-of-core algorithm implementations over the real backend.
//!
//! The engine's faithful mode computes results in memory and *accounts* the
//! out-of-core I/O; these implementations do the opposite of a shortcut:
//! the 2ᵏ-way external merge-sort really forms sorted runs on the scratch
//! device and merges them `fan_in` at a time through bounded buffers, the
//! GRACE hash join really spills partition files and joins co-buckets read
//! back from disk, and the streaming templates (merge passes, column zips,
//! duplicate removal) advance bounded per-input cursors — **no template
//! materializes its input**. Every byte they touch flows through the
//! [`FileBackend`]'s buffer pools onto actual temp files, and every
//! tuple-holding buffer is metered: [`AlgoRun::peak_resident_bytes`] is the
//! high-water mark of resident tuple memory, which stays bounded by the
//! configured buffers regardless of input cardinality. [`run`] maps a plan
//! to its algorithm.

use crate::backend::FileBackend;
use ocas_engine::{ExecError, JoinPred, MergeKind, Output, Plan, Relation, RowBuf};
use ocas_storage::{FileId, StorageBackend, StorageError};
use std::collections::BTreeMap;

/// Runs `plan` with its native out-of-core algorithm over `rels` (plan
/// relation indices refer to that slice). Plans without one — the
/// nested-loop joins and aggregation, which stream through the generic
/// executor — return `Ok(None)`.
///
/// On failure the backend is left clean: every pin is released and every
/// device is truncated to its allocation watermark at entry, so a failed
/// run leaves no spill extents or pinned frames behind. On success the
/// outputs stay behind, to be harvested after the measured window.
pub fn run(
    fb: &mut FileBackend,
    rels: &[Relation],
    plan: &Plan,
) -> Result<Option<AlgoRun>, ExecError> {
    // A bad relation index fails here, before anything is allocated.
    let rel = |i: usize| rels.get(i).ok_or(ExecError::BadRelation(i));
    let marks = fb.watermarks();
    let result = match plan {
        Plan::ExternalSort {
            input,
            fan_in,
            b_in,
            b_out,
            scratch,
            output,
        } => external_sort(fb, rel(*input)?, *fan_in, *b_in, *b_out, scratch, output),
        Plan::GraceJoin {
            left,
            right,
            partitions,
            buffer_bytes,
            spill,
            pred,
            output,
        } => grace_join(
            fb,
            rel(*left)?,
            rel(*right)?,
            *partitions,
            *buffer_bytes,
            spill,
            matches!(pred, JoinPred::Cross),
            output,
        ),
        Plan::MergePass {
            left,
            right,
            kind,
            b_in,
            output,
        } => merge_pass(fb, rel(*left)?, rel(*right)?, *kind, *b_in, output),
        Plan::ColumnZip {
            columns,
            b_in,
            output,
        } => {
            let cols = columns
                .iter()
                .map(|c| rel(*c))
                .collect::<Result<Vec<_>, _>>()?;
            column_zip(fb, &cols, *b_in, output)
        }
        Plan::DedupSorted {
            input,
            b_in,
            output,
        } => dedup_sorted(fb, rel(*input)?, *b_in, output),
        Plan::BnlJoin { .. } | Plan::NaiveJoin { .. } | Plan::Aggregate { .. } => return Ok(None),
    };
    match result {
        Ok(run) => Ok(Some(run)),
        Err(e) => {
            fb.rollback(&marks);
            Err(e)
        }
    }
}

fn check_width(rel: &Relation) -> Result<usize, ExecError> {
    let w = rel.width as usize;
    if w == 0 || rel.tuple_bytes != w as u64 * 8 {
        return Err(ExecError::BadParameter(
            "real algorithms need 8-byte columns",
        ));
    }
    Ok(w)
}

/// Spill allocation that degrades gracefully on capacity exhaustion
/// instead of failing the whole run: extents shrink by halving where the
/// caller can live with smaller pieces, and once even single-tuple extents
/// no longer fit the allocator fails over (once) to the backend's
/// configured alternate spill device. Every degradation is recorded via
/// [`FileBackend`]'s `note_degradation` so it lands in the recovery
/// counters and the obs `degrade:*` tracks.
struct SpillAlloc {
    device: String,
    fallback: Option<String>,
    failed_over: bool,
}

impl SpillAlloc {
    fn new(fb: &FileBackend, device: &str) -> SpillAlloc {
        SpillAlloc {
            device: device.to_string(),
            fallback: fb.spill_fallback().map(str::to_string),
            failed_over: false,
        }
    }

    /// Switches to the alternate spill device, or gives up with the
    /// original capacity error when there is none (or it is already in
    /// use).
    fn fail_over(&mut self, fb: &mut FileBackend, e: StorageError) -> Result<(), ExecError> {
        match &self.fallback {
            Some(to) if !self.failed_over && *to != self.device => {
                fb.note_degradation(&self.device, "failover");
                self.device = to.clone();
                self.failed_over = true;
                Ok(())
            }
            _ => Err(e.into()),
        }
    }

    /// Allocates one contiguous extent (merged runs must stay contiguous,
    /// so shrinking is not an option — only failover).
    fn alloc(&mut self, fb: &mut FileBackend, len: u64) -> Result<FileId, ExecError> {
        loop {
            match fb.alloc(&self.device, len) {
                Ok(f) => return Ok(f),
                Err(e) if e.is_capacity() => self.fail_over(fb, e)?,
                Err(e) => return Err(e.into()),
            }
        }
    }

    /// Writes `bytes` (whole `tb`-byte tuples) as one or more spill
    /// extents, returning `(file, bytes)` per extent in row order. On
    /// capacity exhaustion the extent size halves — a contiguous slice of
    /// a sorted batch is still a sorted run, a slice of a bucket buffer is
    /// still bucket-pure — and when single-tuple extents no longer fit it
    /// fails over to the alternate device.
    fn spill_rows(
        &mut self,
        fb: &mut FileBackend,
        bytes: &[u8],
        tb: u64,
    ) -> Result<Vec<(FileId, u64)>, ExecError> {
        let rows = bytes.len() as u64 / tb;
        let mut out = Vec::new();
        let mut start = 0u64;
        let mut chunk = rows;
        while start < rows {
            let n = chunk.min(rows - start);
            match fb.alloc(&self.device, n * tb) {
                Ok(f) => {
                    fb.write_bytes(
                        f,
                        0,
                        &bytes[(start * tb) as usize..((start + n) * tb) as usize],
                    )?;
                    out.push((f, n * tb));
                    start += n;
                }
                Err(e) if e.is_capacity() => {
                    if chunk > 1 {
                        chunk /= 2;
                        fb.note_degradation(&self.device, "shrink");
                    } else {
                        self.fail_over(fb, e)?;
                        // Fresh device: go back to full-size extents.
                        chunk = rows;
                    }
                }
                Err(e) => return Err(e.into()),
            }
        }
        Ok(out)
    }
}

/// What one native out-of-core execution produced.
#[derive(Debug)]
pub struct AlgoRun {
    /// Collected output rows. Only populated for [`Output::Discard`] runs
    /// (the verification path); device-bound runs leave this empty and are
    /// harvested from [`AlgoRun::out_extents`] after the measured window.
    pub output: RowBuf,
    /// Rows emitted.
    pub rows: u64,
    /// Extents written on the output device, in emission order, as
    /// `(file, bytes)` — the uncharged harvest path.
    pub out_extents: Vec<(FileId, u64)>,
    /// Output width in columns (for harvest decoding).
    pub out_width: usize,
    /// High-water mark of resident tuple bytes across every working buffer
    /// (input cursors, bucket staging, run buffers, the output staging
    /// buffer, and — for `Discard` runs — the collected rows).
    pub peak_resident_bytes: u64,
}

/// Tracks the high-water mark of resident tuple bytes.
#[derive(Debug, Default)]
struct MemGauge {
    peak: u64,
}

impl MemGauge {
    /// Records an observation of the current resident total.
    fn note(&mut self, bytes: u64) {
        self.peak = self.peak.max(bytes);
    }
}

/// A buffered output writer: rows are encoded into a `buffer_bytes` staging
/// buffer and flushed to fresh extents on the output device (sequential,
/// the bump allocator keeps flushes contiguous). `Discard` outputs skip the
/// device but collect the rows for verification.
struct RealSink {
    output: Output,
    buffer: Vec<u8>,
    cap: usize,
    rows: u64,
    width: usize,
    collected: RowBuf,
    collect: bool,
    extents: Vec<(FileId, u64)>,
}

impl RealSink {
    fn new(output: &Output, width: usize, tuple_bytes: u64) -> RealSink {
        let cap = match output {
            Output::ToDevice { buffer_bytes, .. } => (*buffer_bytes).max(tuple_bytes) as usize,
            Output::Discard => 0,
        };
        RealSink {
            output: output.clone(),
            buffer: Vec::with_capacity(cap),
            cap,
            rows: 0,
            width,
            collected: RowBuf::new(width),
            collect: matches!(output, Output::Discard),
            extents: Vec::new(),
        }
    }

    /// Resident staging bytes (collected rows count only on the
    /// verification path, where collection is the point).
    fn resident_bytes(&self) -> u64 {
        (self.buffer.len() + self.collected.len() * self.width * 8) as u64
    }

    fn encode_row(&mut self, row: &[i64]) {
        for col in row {
            self.buffer.extend_from_slice(&col.to_le_bytes());
        }
    }

    fn emit(&mut self, fb: &mut FileBackend, row: &[i64]) -> Result<(), ExecError> {
        self.emit_concat(fb, row, &[])
    }

    /// Emits the join row `a ++ b` without materializing it first.
    fn emit_concat(&mut self, fb: &mut FileBackend, a: &[i64], b: &[i64]) -> Result<(), ExecError> {
        self.rows += 1;
        if let Output::ToDevice { .. } = self.output {
            self.encode_row(a);
            self.encode_row(b);
            if self.buffer.len() >= self.cap {
                self.flush(fb)?;
            }
        }
        if self.collect {
            self.collected.push_concat(a, b);
        }
        Ok(())
    }

    fn flush(&mut self, fb: &mut FileBackend) -> Result<(), ExecError> {
        if self.buffer.is_empty() {
            return Ok(());
        }
        if let Output::ToDevice { device, .. } = &self.output {
            let f = fb.alloc(device, self.buffer.len() as u64)?;
            fb.write_bytes(f, 0, &self.buffer)?;
            self.extents.push((f, self.buffer.len() as u64));
            self.buffer.clear();
        }
        Ok(())
    }

    fn finish(mut self, fb: &mut FileBackend, gauge: MemGauge) -> Result<AlgoRun, ExecError> {
        self.flush(fb)?;
        Ok(AlgoRun {
            output: self.collected,
            rows: self.rows,
            out_extents: self.extents,
            out_width: self.width,
            peak_resident_bytes: gauge.peak,
        })
    }
}

/// One sorted run on the scratch device.
struct RunFile {
    file: FileId,
    card: u64,
}

/// A buffered cursor over the tuples of one file region (a sorted run, an
/// input relation, a column): refills a `b_in`-tuple flat batch on demand
/// through the backend's scratch buffer — bounded memory per cursor.
struct RunReader {
    file: FileId,
    card: u64,
    width: usize,
    next: u64,
    buf: RowBuf,
    pos: usize,
    b_in: u64,
}

impl RunReader {
    fn new(file: FileId, card: u64, width: usize, b_in: u64) -> RunReader {
        RunReader {
            file,
            card,
            width,
            next: 0,
            buf: RowBuf::new(width),
            pos: 0,
            b_in: b_in.max(1),
        }
    }

    fn over(rel: &Relation, width: usize, b_in: u64) -> RunReader {
        RunReader::new(rel.file, rel.card, width, b_in)
    }

    /// Resident buffer bytes.
    fn resident_bytes(&self) -> u64 {
        (self.buf.len() * self.width * 8) as u64
    }

    /// Refills the buffer if it is exhausted and tuples remain on disk.
    fn ensure(&mut self, fb: &mut FileBackend) -> Result<(), ExecError> {
        if self.pos >= self.buf.len() && self.next < self.card {
            let take = self.b_in.min(self.card - self.next);
            self.buf.clear();
            fb.read_rows(self.file, self.next, take, self.width, &mut self.buf)?;
            self.pos = 0;
            self.next += take;
        }
        Ok(())
    }

    /// The buffered head row, by reference (no I/O — call `ensure` first).
    fn head(&self) -> Option<&[i64]> {
        if self.pos < self.buf.len() {
            Some(self.buf.row(self.pos))
        } else {
            None
        }
    }

    /// Steps past the buffered head row.
    fn advance(&mut self) {
        self.pos += 1;
    }
}

/// Runs a real 2ᵏ-way external merge-sort: sorted run formation on the
/// scratch device, then `fan_in`-way merge passes with `b_in`-tuple input
/// buffers and a `b_out`-tuple output buffer, finally streaming the sorted
/// result to `output`.
#[allow(clippy::too_many_arguments)]
fn external_sort(
    fb: &mut FileBackend,
    input: &Relation,
    fan_in: u64,
    b_in: u64,
    b_out: u64,
    scratch: &str,
    output: &Output,
) -> Result<AlgoRun, ExecError> {
    let width = check_width(input)?;
    let tb = input.tuple_bytes;
    let fan_in = fan_in.max(2);
    let (b_in, b_out) = (b_in.max(1), b_out.max(1));
    let mut gauge = MemGauge::default();

    // Run formation under the merge's memory footprint: fan_in input
    // buffers plus the output buffer. A sorted batch normally becomes one
    // run; under capacity pressure the spill allocator splits it into
    // several smaller (still sorted) runs or fails over devices.
    let mut spill = SpillAlloc::new(fb, scratch);
    let run_tuples = (fan_in * b_in + b_out).max(1);
    let mut runs: Vec<RunFile> = Vec::new();
    let mut batch = RowBuf::new(width);
    let mut encode_buf: Vec<u8> = Vec::new();
    let mut at = 0u64;
    while at < input.card {
        let take = run_tuples.min(input.card - at);
        batch.clear();
        fb.read_rows(input.file, at, take, width, &mut batch)?;
        batch.sort();
        encode_buf.clear();
        batch.encode_into(8, &mut encode_buf);
        gauge.note(take * tb * 2); // batch + its encoding
        for (file, bytes) in spill.spill_rows(fb, &encode_buf, tb)? {
            runs.push(RunFile {
                file,
                card: bytes / tb,
            });
        }
        at += take;
    }

    // Merge passes: fan_in runs at a time until one run remains.
    while runs.len() > 1 {
        let mut next: Vec<RunFile> = Vec::new();
        for group in runs.chunks(fan_in as usize) {
            if group.len() == 1 {
                next.push(RunFile {
                    file: group[0].file,
                    card: group[0].card,
                });
                continue;
            }
            let total: u64 = group.iter().map(|r| r.card).sum();
            let merged = spill.alloc(fb, (total * tb).max(1))?;
            let mut readers: Vec<RunReader> = group
                .iter()
                .map(|r| RunReader::new(r.file, r.card, width, b_in))
                .collect();
            let mut out_buf = RowBuf::with_capacity(width, b_out as usize);
            let mut written = 0u64;
            loop {
                // Refill exhausted buffers, then pick the smallest head by
                // reference (no copies on this hot path; first reader wins
                // ties, keeping the merge stable).
                for r in readers.iter_mut() {
                    r.ensure(fb)?;
                }
                let mut best: Option<usize> = None;
                for (i, r) in readers.iter().enumerate() {
                    if let Some(head) = r.head() {
                        let better = match best {
                            Some(b) => head < readers[b].head().expect("best has a head"),
                            None => true,
                        };
                        if better {
                            best = Some(i);
                        }
                    }
                }
                let Some(i) = best else { break };
                out_buf.push(readers[i].head().expect("ensured head"));
                readers[i].advance();
                if out_buf.len() as u64 >= b_out {
                    encode_buf.clear();
                    out_buf.encode_into(8, &mut encode_buf);
                    fb.write_bytes(merged, written * tb, &encode_buf)?;
                    written += out_buf.len() as u64;
                    gauge.note(
                        readers.iter().map(RunReader::resident_bytes).sum::<u64>()
                            + 2 * out_buf.len() as u64 * tb,
                    );
                    out_buf.clear();
                }
            }
            if !out_buf.is_empty() {
                encode_buf.clear();
                out_buf.encode_into(8, &mut encode_buf);
                fb.write_bytes(merged, written * tb, &encode_buf)?;
                written += out_buf.len() as u64;
                out_buf.clear();
            }
            debug_assert_eq!(written, total);
            next.push(RunFile {
                file: merged,
                card: total,
            });
        }
        runs = next;
    }

    // Stream the final run to the output destination.
    let mut sink = RealSink::new(output, width, tb);
    if let Some(last) = runs.first() {
        match output {
            Output::ToDevice { device, .. } => {
                let out_file = fb.alloc(device, (last.card * tb).max(1))?;
                let chunk = b_out.max(1);
                let mut bytes: Vec<u8> = Vec::new();
                let mut at = 0u64;
                while at < last.card {
                    let take = chunk.min(last.card - at);
                    bytes.resize((take * tb) as usize, 0);
                    fb.read_into(last.file, at * tb, &mut bytes[..(take * tb) as usize])?;
                    fb.write_bytes(out_file, at * tb, &bytes[..(take * tb) as usize])?;
                    gauge.note(take * tb);
                    at += take;
                }
                sink.rows = last.card;
                sink.extents.push((out_file, last.card * tb));
            }
            Output::Discard => {
                // Verification path: stream the run into the collected rows.
                let mut reader = RunReader::new(last.file, last.card, width, b_out);
                loop {
                    reader.ensure(fb)?;
                    let Some(row) = reader.head() else { break };
                    sink.collected.push(row);
                    sink.rows += 1;
                    reader.advance();
                }
            }
        }
    }
    sink.finish(fb, gauge)
}

/// One side's partition files after the GRACE partition pass.
struct Partitions {
    /// Spilled extents per bucket, in spill order.
    extents: Vec<Vec<(FileId, u64)>>,
}

fn partition_side(
    fb: &mut FileBackend,
    rel: &Relation,
    partitions: u64,
    buffer_bytes: u64,
    spill: &mut SpillAlloc,
    gauge: &mut MemGauge,
) -> Result<Partitions, ExecError> {
    let width = check_width(rel)?;
    let tb = rel.tuple_bytes;
    let block = (buffer_bytes / tb).max(1);
    let per_bucket_buf = (buffer_bytes / partitions.max(1)).max(tb);
    let mut buckets: Vec<Vec<u8>> = vec![Vec::new(); partitions as usize];
    let mut parts = Partitions {
        extents: vec![Vec::new(); partitions as usize],
    };
    let mut batch = RowBuf::new(width);
    let mut at = 0u64;
    while at < rel.card {
        let take = block.min(rel.card - at);
        batch.clear();
        fb.read_rows(rel.file, at, take, width, &mut batch)?;
        for row in batch.iter() {
            let key = row.first().copied().unwrap_or(0);
            // Same bucket function as the simulator and the OCAL
            // `hashPartition` definition: identical bucket contents.
            let b = (ocal::stable_hash(&ocal::Value::Int(key)) % partitions) as usize;
            for col in row {
                buckets[b].extend_from_slice(&col.to_le_bytes());
            }
            if buckets[b].len() as u64 >= per_bucket_buf {
                parts.extents[b].extend(spill.spill_rows(fb, &buckets[b], tb)?);
                buckets[b].clear();
            }
        }
        gauge.note((take * tb) + buckets.iter().map(|b| b.len() as u64).sum::<u64>());
        at += take;
    }
    for (b, buf) in buckets.iter().enumerate() {
        if !buf.is_empty() {
            parts.extents[b].extend(spill.spill_rows(fb, buf, tb)?);
        }
    }
    Ok(parts)
}

fn read_bucket(
    fb: &mut FileBackend,
    extents: &[(FileId, u64)],
    width: usize,
    out: &mut RowBuf,
) -> Result<(), ExecError> {
    out.clear();
    for (file, bytes) in extents {
        let rows = *bytes / (width as u64 * 8);
        fb.read_rows(*file, 0, rows, width, out)?;
    }
    Ok(())
}

/// Runs a real GRACE hash join: both relations are hash-partitioned into
/// `partitions` spill files on the `spill` device, then each co-bucket pair
/// is read back and joined in memory (build an index over the left batch,
/// probe with the right), results flowing through a buffered writer to
/// `output`.
#[allow(clippy::too_many_arguments)]
fn grace_join(
    fb: &mut FileBackend,
    left: &Relation,
    right: &Relation,
    partitions: u64,
    buffer_bytes: u64,
    spill: &str,
    cross: bool,
    output: &Output,
) -> Result<AlgoRun, ExecError> {
    let lw = check_width(left)?;
    let rw = check_width(right)?;
    let partitions = partitions.max(1);
    let mut gauge = MemGauge::default();
    // One allocator across both sides: a failover triggered while
    // partitioning the left relation sticks for the right one.
    let mut alloc = SpillAlloc::new(fb, spill);
    let lparts = partition_side(fb, left, partitions, buffer_bytes, &mut alloc, &mut gauge)?;
    let rparts = partition_side(fb, right, partitions, buffer_bytes, &mut alloc, &mut gauge)?;

    let mut sink = RealSink::new(output, lw + rw, left.tuple_bytes + right.tuple_bytes);
    let mut lb = RowBuf::new(lw);
    let mut rb = RowBuf::new(rw);
    for b in 0..partitions as usize {
        read_bucket(fb, &lparts.extents[b], lw, &mut lb)?;
        read_bucket(fb, &rparts.extents[b], rw, &mut rb)?;
        gauge.note((lb.len() * lw * 8 + rb.len() * rw * 8) as u64 + sink.resident_bytes());
        if cross {
            for y in rb.iter() {
                for x in lb.iter() {
                    sink.emit_concat(fb, x, y)?;
                }
            }
        } else {
            let mut table: BTreeMap<i64, Vec<u32>> = BTreeMap::new();
            for (n, row) in lb.iter().enumerate() {
                table.entry(row[0]).or_default().push(n as u32);
            }
            for y in rb.iter() {
                if let Some(matches) = table.get(&y[0]) {
                    for x in matches {
                        sink.emit_concat(fb, lb.row(*x as usize), y)?;
                    }
                }
            }
        }
    }
    sink.finish(fb, gauge)
}

/// Runs a real streaming merge pass over two sorted relations: two bounded
/// `b_in`-tuple cursors advance through the inputs, the [`MergeKind`]
/// logic emits incrementally — resident memory is two input buffers plus
/// the output staging buffer, independent of input cardinality.
fn merge_pass(
    fb: &mut FileBackend,
    left: &Relation,
    right: &Relation,
    kind: MergeKind,
    b_in: u64,
    output: &Output,
) -> Result<AlgoRun, ExecError> {
    let lw = check_width(left)?;
    let rw = check_width(right)?;
    if lw != rw {
        return Err(ExecError::BadParameter("merge inputs must share a width"));
    }
    let mut gauge = MemGauge::default();
    let mut a = RunReader::over(left, lw, b_in.max(1));
    let mut b = RunReader::over(right, rw, b_in.max(1));
    let mut sink = RealSink::new(output, lw, left.tuple_bytes);
    // The last emitted row (set-union dedup), in a reused buffer.
    let mut last: Vec<i64> = Vec::new();
    let mut have_last = false;
    let mut vm_row: [i64; 2];

    loop {
        a.ensure(fb)?;
        b.ensure(fb)?;
        gauge.note(a.resident_bytes() + b.resident_bytes() + sink.resident_bytes());
        let (ha, hb) = (a.head(), b.head());
        match kind {
            MergeKind::MultisetUnionSorted | MergeKind::SetUnion => {
                let take_a = match (ha, hb) {
                    (None, None) => break,
                    (Some(_), None) => true,
                    (None, Some(_)) => false,
                    (Some(x), Some(y)) => x <= y,
                };
                let row = if take_a {
                    a.head().expect("checked")
                } else {
                    b.head().expect("checked")
                };
                if kind == MergeKind::MultisetUnionSorted || !have_last || last != row {
                    sink.emit(fb, row)?;
                    if kind == MergeKind::SetUnion {
                        last.clear();
                        last.extend_from_slice(row);
                        have_last = true;
                    }
                }
                if take_a {
                    a.advance();
                } else {
                    b.advance();
                }
            }
            MergeKind::MultisetUnionVm => match (ha, hb) {
                (None, None) => break,
                (Some(x), Some(y)) if x[0] == y[0] => {
                    vm_row = [x[0], x[1] + y[1]];
                    sink.emit(fb, &vm_row)?;
                    a.advance();
                    b.advance();
                }
                (Some(x), y) if y.is_none() || x[0] < y.expect("some")[0] => {
                    sink.emit(fb, x)?;
                    a.advance();
                }
                _ => {
                    sink.emit(fb, hb.expect("remaining side"))?;
                    b.advance();
                }
            },
            MergeKind::MultisetDiffSorted => match (ha, hb) {
                (None, _) => break,
                (Some(x), Some(y)) if y < x => b.advance(),
                (Some(x), Some(y)) if y == x => {
                    a.advance();
                    b.advance();
                }
                (Some(x), _) => {
                    sink.emit(fb, x)?;
                    a.advance();
                }
            },
            MergeKind::MultisetDiffVm => match (ha, hb) {
                (None, _) => break,
                (Some(x), Some(y)) if y[0] < x[0] => b.advance(),
                (Some(x), Some(y)) if y[0] == x[0] => {
                    let m = x[1] - y[1];
                    if m > 0 {
                        vm_row = [x[0], m];
                        sink.emit(fb, &vm_row)?;
                    }
                    a.advance();
                    b.advance();
                }
                (Some(x), _) => {
                    sink.emit(fb, x)?;
                    a.advance();
                }
            },
        }
    }
    sink.finish(fb, gauge)
}

/// Runs a real column-store read: one bounded cursor per column advances in
/// lock-step, zipping rows through a reused scratch tuple — resident
/// memory is `columns.len()` input buffers plus the output staging buffer.
fn column_zip(
    fb: &mut FileBackend,
    columns: &[&Relation],
    b_in: u64,
    output: &Output,
) -> Result<AlgoRun, ExecError> {
    if columns.is_empty() {
        return Err(ExecError::BadParameter("column zip needs columns"));
    }
    let widths: Vec<usize> = columns
        .iter()
        .map(|c| check_width(c))
        .collect::<Result<_, _>>()?;
    let out_width: usize = widths.iter().sum();
    let card = columns.iter().map(|c| c.card).min().unwrap_or(0);
    let out_bytes: u64 = columns.iter().map(|c| c.tuple_bytes).sum();
    let mut gauge = MemGauge::default();
    let mut readers: Vec<RunReader> = columns
        .iter()
        .zip(&widths)
        .map(|(c, w)| {
            let mut r = RunReader::over(c, *w, b_in.max(1));
            r.card = card; // zip stops at the shortest column
            r
        })
        .collect();
    let mut sink = RealSink::new(output, out_width, out_bytes);
    let mut zipped: Vec<i64> = Vec::with_capacity(out_width);
    for _ in 0..card {
        zipped.clear();
        for r in readers.iter_mut() {
            r.ensure(fb)?;
            zipped.extend_from_slice(r.head().expect("within card"));
            r.advance();
        }
        sink.emit(fb, &zipped)?;
        gauge.note(
            readers.iter().map(RunReader::resident_bytes).sum::<u64>() + sink.resident_bytes(),
        );
    }
    sink.finish(fb, gauge)
}

/// Runs a real streaming duplicate removal over a sorted relation: one
/// bounded cursor, one remembered row — resident memory is a single input
/// buffer plus the output staging buffer.
fn dedup_sorted(
    fb: &mut FileBackend,
    input: &Relation,
    b_in: u64,
    output: &Output,
) -> Result<AlgoRun, ExecError> {
    let width = check_width(input)?;
    let mut gauge = MemGauge::default();
    let mut reader = RunReader::over(input, width, b_in.max(1));
    let mut sink = RealSink::new(output, width, input.tuple_bytes);
    let mut last: Vec<i64> = Vec::new();
    let mut have_last = false;
    loop {
        reader.ensure(fb)?;
        let Some(row) = reader.head() else { break };
        if !have_last || last != row {
            sink.emit(fb, row)?;
            last.clear();
            last.extend_from_slice(row);
            have_last = true;
        }
        reader.advance();
        gauge.note(reader.resident_bytes() + sink.resident_bytes());
    }
    sink.finish(fb, gauge)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PoolConfig;
    use ocas_engine::RelSpec;
    use ocas_hierarchy::presets;

    fn backend_with(specs: &[RelSpec]) -> (FileBackend, Vec<Relation>) {
        let h = presets::hdd_ram(1 << 22);
        let mut fb = FileBackend::from_hierarchy(&h, PoolConfig::default()).unwrap();
        let rels = specs
            .iter()
            .enumerate()
            .map(|(i, s)| Relation::create(&mut fb, s, true, i as u64).unwrap())
            .collect();
        (fb, rels)
    }

    #[test]
    fn plans_without_a_native_algorithm_return_none() {
        let (mut fb, rels) =
            backend_with(&[RelSpec::ints("A", "HDD", 50), RelSpec::ints("B", "HDD", 50)]);
        let plans = [
            Plan::BnlJoin {
                outer: 0,
                inner: 1,
                k1: 8,
                k2: 8,
                tiling: None,
                pred: JoinPred::KeyEq,
                order_inputs: false,
                output: Output::Discard,
            },
            Plan::NaiveJoin {
                outer: 0,
                inner: 1,
                pred: JoinPred::KeyEq,
                output: Output::Discard,
            },
            Plan::Aggregate { input: 0, b_in: 8 },
        ];
        for plan in &plans {
            assert!(
                run(&mut fb, &rels, plan).unwrap().is_none(),
                "{}",
                plan.name()
            );
        }
    }

    #[test]
    fn out_of_range_relation_is_a_bad_relation() {
        let (mut fb, rels) = backend_with(&[RelSpec::ints("A", "HDD", 50)]);
        let plans = [
            (
                Plan::DedupSorted {
                    input: 3,
                    b_in: 8,
                    output: Output::Discard,
                },
                3,
            ),
            (
                Plan::ColumnZip {
                    columns: vec![0, 1],
                    b_in: 8,
                    output: Output::Discard,
                },
                1,
            ),
        ];
        for (plan, bad) in &plans {
            let err = run(&mut fb, &rels, plan);
            assert!(
                matches!(err, Err(ExecError::BadRelation(i)) if i == *bad),
                "{err:?}"
            );
        }
    }

    #[test]
    fn narrow_columns_are_a_bad_parameter() {
        let mut spec = RelSpec::ints("N", "HDD", 50);
        spec.col_bytes = 4;
        let (mut fb, rels) = backend_with(&[spec]);
        let mark = fb.watermark("HDD");
        let plan = Plan::ExternalSort {
            input: 0,
            fan_in: 2,
            b_in: 8,
            b_out: 8,
            scratch: "HDD".into(),
            output: Output::Discard,
        };
        let err = run(&mut fb, &rels, &plan);
        assert!(matches!(err, Err(ExecError::BadParameter(_))), "{err:?}");
        assert_eq!(fb.watermark("HDD"), mark);
        assert_eq!(fb.pinned_pages(), 0);
    }
}
