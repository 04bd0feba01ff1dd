//! `StorageSim::read_run` / `write_run` charge exactly what the same
//! requests issued one by one charge: identical seeks, erases and bytes on
//! every device, and seconds equal up to float summation order.

use ocas_hierarchy::presets;
use ocas_storage::{FileId, StorageSim};
use proptest::prelude::*;

const DEVICES: [&str; 3] = ["HDD", "SSD", "RAM"];
const FILE_LEN: u64 = 64 << 20;
const PAGE: u64 = 4096;

/// Two simulators with identical layouts: per device, a pad of `pad`
/// bytes (so file bases need not be page-aligned) and then one file.
fn twins(pad: u64) -> [(StorageSim, Vec<FileId>); 2] {
    let h = presets::hdd_flash_ram(1 << 30);
    [0, 1].map(|_| {
        let mut sm = StorageSim::from_hierarchy(&h);
        let files = DEVICES
            .iter()
            .map(|d| {
                sm.alloc(d, pad).unwrap();
                sm.alloc(d, FILE_LEN).unwrap()
            })
            .collect();
        (sm, files)
    })
}

/// A request unit: whole pages, 24-byte tuples (which do not divide a
/// page), 16-byte tuples, any length, or empty requests.
fn unit(class: u64, draw: u64) -> u64 {
    match class % 5 {
        0 => PAGE * (1 + draw % 8),
        1 => 24 * (1 + draw % 200),
        2 => 16 * (1 + draw % 4),
        3 => 1 + draw % 9000,
        _ => 0,
    }
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-12 * a.abs().max(b.abs())
}

fn assert_same(run: &StorageSim, each: &StorageSim, step: usize) {
    for d in DEVICES {
        let (r, e) = (run.device_stats(d).unwrap(), each.device_stats(d).unwrap());
        assert_eq!(
            (r.seeks, r.erases, r.bytes_read, r.bytes_written),
            (e.seeks, e.erases, e.bytes_read, e.bytes_written),
            "{d} stats diverged after op {step}"
        );
        assert!(
            close(r.busy_seconds, e.busy_seconds),
            "{d} busy seconds {} vs {} after op {step}",
            r.busy_seconds,
            e.busy_seconds
        );
    }
    assert!(
        close(run.clock(), each.clock()),
        "clock {} vs {} after op {step}",
        run.clock(),
        each.clock()
    );
}

/// Issues one run on `sm`, either as a run or request by request.
fn issue(sm: &mut StorageSim, runs: bool, write: bool, f: FileId, at: u64, unit: u64, n: u64) {
    match (runs, write) {
        (true, false) => sm.read_run(f, at, unit, n).unwrap(),
        (true, true) => sm.write_run(f, at, unit, n).unwrap(),
        (false, _) => {
            for j in 0..n {
                let off = at + j * unit;
                if write {
                    sm.write(f, off, unit).unwrap();
                } else {
                    sm.read(f, off, unit).unwrap();
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn runs_charge_like_their_requests(
        pad in 0u64..10_000,
        ops in proptest::collection::vec(
            (0u64..1 << 40, 0u64..1 << 40, 0u64..1 << 40, 0u64..1 << 40),
            1..40,
        ),
    ) {
        let [(mut run, files), (mut each, _)] = twins(pad);
        // Where the last request on each device ended: two ops in three
        // start just before it, inside the head's read-ahead window.
        let mut ends = [0u64; 3];
        for (step, &(sel, u, at, n)) in ops.iter().enumerate() {
            let dev = (sel % 3) as usize;
            let f = files[dev];
            let write = (sel / 3) % 2 == 1;
            let unit = unit(u, u >> 8);
            let count = if n % 5 == 0 { 1 } else { 1 + (n >> 3) % 300 };
            let start = |len: u64| {
                let off = match (at >> 30) % 3 {
                    0 => at % FILE_LEN,
                    1 => ends[dev].saturating_sub(at % (2 * PAGE)),
                    // The device page boundary at or one page before the
                    // last end (file bases sit `pad` bytes in).
                    _ => (((pad + ends[dev]) / PAGE).saturating_sub(at % 2) * PAGE)
                        .saturating_sub(pad),
                };
                off.min(FILE_LEN - len)
            };
            match (sel / 6) % 3 {
                // A single request: leaves the head (or the open erase
                // block) somewhere the next run may or may not start.
                0 => {
                    let off = start(unit);
                    for sm in [&mut run, &mut each] {
                        issue(sm, false, write, f, off, unit, 1);
                    }
                    ends[dev] = off + unit;
                }
                // A run.
                1 => {
                    let off = start(unit * count);
                    issue(&mut run, true, write, f, off, unit, count);
                    issue(&mut each, false, write, f, off, unit, count);
                    ends[dev] = off + unit * count;
                }
                // The output sink's wrap at the end of its extent: a run
                // up to the end, one buffer split across the wrap, and a
                // run from the start.
                _ => {
                    let unit = unit.max(1);
                    let cursor = FILE_LEN - (at % (count * unit)) - 1;
                    let fit = (FILE_LEN - cursor) / unit;
                    let tail = (FILE_LEN - cursor) % unit;
                    for (sm, runs) in [(&mut run, true), (&mut each, false)] {
                        issue(sm, runs, true, f, cursor, unit, fit);
                        if tail > 0 {
                            sm.write(f, cursor + fit * unit, tail).unwrap();
                            sm.write(f, 0, unit - tail).unwrap();
                        }
                        issue(sm, runs, true, f, (unit - tail) % unit, unit, count);
                    }
                    ends[dev] = (unit - tail) % unit + unit * count;
                }
            }
            assert_same(&run, &each, step);
        }
    }
}

#[test]
fn forward_hdd_read_run_costs_its_page_rounded_span() {
    let [(mut sm, files), _] = twins(0);
    // 2^16 reads of one 24-byte tuple: 384 pages, no seek.
    sm.read_run(files[0], 0, 24, 1 << 16).unwrap();
    let s = sm.device_stats("HDD").unwrap();
    assert_eq!(
        (s.seeks, s.bytes_read),
        (0, (24u64 << 16).div_ceil(PAGE) * PAGE)
    );
}

#[test]
fn misaligned_page_unit_hdd_write_run_seeks_per_request() {
    let [(mut sm, files), _] = twins(100);
    sm.write_run(files[0], 0, PAGE, 10).unwrap();
    let s = sm.device_stats("HDD").unwrap();
    // The first request starts in page 0, where the head is. Each request
    // spans two pages and every later one starts inside the previous
    // one's last page, so it moves the head back.
    assert_eq!((s.seeks, s.bytes_written), (9, 10 * 2 * PAGE));
}
