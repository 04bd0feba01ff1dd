//! Cross-backend equivalence: the same faithful plan, executed on the
//! device simulator and on real temp files, must produce identical outputs
//! and issue the same request stream (equal read/write byte totals).
//!
//! The property tests use a hierarchy with `pagesize = 1` so the
//! simulator's page rounding is the identity and its byte counters are
//! directly comparable with the real backend's raw request totals.

use ocas_engine::{CpuModel, Executor, JoinPred, MergeKind, Mode, Output, Plan, RelSpec, Relation};
use ocas_hierarchy::{CostPair, DeviceKind, EdgeCosts, Hierarchy, NodeProps, Rat};
use ocas_runtime::{FileBackend, PoolConfig, Runtime};
use ocas_storage::{StorageBackend, StorageSim};
use proptest::prelude::*;

/// RAM + HDD with byte-granular pages (no page rounding in the simulator).
fn unit_page_hierarchy() -> Hierarchy {
    let mut h =
        Hierarchy::new(NodeProps::new("RAM", 1 << 26, DeviceKind::Ram).with_pagesize(1)).unwrap();
    h.add_child(
        "RAM",
        NodeProps::new("HDD", 1 << 32, DeviceKind::Hdd).with_pagesize(1),
        EdgeCosts::symmetric(CostPair::new(
            Rat::millis(15),
            Rat::new(1, 30 * 1024 * 1024),
        )),
    )
    .unwrap();
    h
}

/// `(read, written)` byte totals of one backend's HDD device.
type ByteTotals = (u64, u64);
/// Outputs and byte totals of the simulated and the real execution.
type BothRuns = (
    ocas_engine::RowBuf,
    ocas_engine::RowBuf,
    ByteTotals,
    ByteTotals,
);

/// Runs `plan` faithfully on both backends over identical relations and
/// returns `(sim outputs, real outputs, sim bytes, real bytes)`.
fn run_both(plan: &Plan, specs: &[RelSpec], seed: u64) -> BothRuns {
    let h = unit_page_hierarchy();

    let sm = StorageSim::from_hierarchy(&h);
    let mut sim = Executor::new(sm, Mode::Faithful, CpuModel::disabled());
    for (i, spec) in specs.iter().enumerate() {
        let rel = Relation::create(&mut sim.sm, spec, true, seed + i as u64).unwrap();
        sim.add_relation(rel);
    }
    let sim_stats = sim.run(plan).expect("simulated run");
    let sim_dev = StorageSim::device_stats(&sim.sm, "HDD").unwrap();

    let fb = FileBackend::from_hierarchy(
        &h,
        PoolConfig {
            page_bytes: 4096,
            frames: 64,
            ..PoolConfig::default()
        },
    )
    .unwrap();
    let mut real = Executor::new(fb, Mode::Faithful, CpuModel::disabled());
    for (i, spec) in specs.iter().enumerate() {
        let rel = Relation::create(&mut real.sm, spec, true, seed + i as u64).unwrap();
        real.add_relation(rel);
    }
    let real_stats = real.run(plan).expect("real run");
    let real_dev = StorageBackend::device_stats(&real.sm, "HDD").unwrap();

    (
        sim_stats.output.unwrap_or_default(),
        real_stats.output.unwrap_or_default(),
        (sim_dev.bytes_read, sim_dev.bytes_written),
        (real_dev.bytes_read, real_dev.bytes_written),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn bnl_join_same_output_and_bytes_on_both_backends(
        cards in (20u64..140, 10u64..90),
        blocks in (1u64..48, 1u64..48),
        key_range in 5u64..40,
        seed in 0u64..1000,
    ) {
        let specs = [
            RelSpec::pairs("R", "HDD", cards.0).with_key_range(key_range),
            RelSpec::pairs("S", "HDD", cards.1).with_key_range(key_range),
        ];
        let plan = Plan::BnlJoin {
            outer: 0,
            inner: 1,
            k1: blocks.0,
            k2: blocks.1,
            tiling: None,
            pred: JoinPred::KeyEq,
            order_inputs: false,
            output: Output::ToDevice { device: "HDD".into(), buffer_bytes: 512 },
        };
        let (sim_out, real_out, sim_bytes, real_bytes) = run_both(&plan, &specs, seed);
        prop_assert_eq!(sim_out, real_out);
        prop_assert_eq!(sim_bytes, real_bytes);
    }

    #[test]
    fn grace_join_same_output_and_bytes_on_both_backends(
        cards in (30u64..120, 20u64..80),
        partitions in 1u64..9,
        seed in 0u64..1000,
    ) {
        let specs = [
            RelSpec::pairs("R", "HDD", cards.0).with_key_range(25),
            RelSpec::pairs("S", "HDD", cards.1).with_key_range(25),
        ];
        let plan = Plan::GraceJoin {
            left: 0,
            right: 1,
            partitions,
            buffer_bytes: 1 << 10,
            spill: "HDD".into(),
            pred: JoinPred::KeyEq,
            output: Output::ToDevice { device: "HDD".into(), buffer_bytes: 256 },
        };
        let (sim_out, real_out, sim_bytes, real_bytes) = run_both(&plan, &specs, seed);
        prop_assert_eq!(sim_out, real_out);
        prop_assert_eq!(sim_bytes, real_bytes);
    }

    #[test]
    fn merge_and_sort_same_output_and_bytes_on_both_backends(
        cards in (20u64..120, 20u64..120),
        b_in in 4u64..64,
        seed in 0u64..1000,
    ) {
        let specs = [
            RelSpec::ints("A", "HDD", cards.0).sorted(),
            RelSpec::ints("B", "HDD", cards.1).sorted(),
        ];
        let plan = Plan::MergePass {
            left: 0,
            right: 1,
            kind: MergeKind::MultisetUnionSorted,
            b_in,
            output: Output::ToDevice { device: "HDD".into(), buffer_bytes: 256 },
        };
        let (sim_out, real_out, sim_bytes, real_bytes) = run_both(&plan, &specs, seed);
        prop_assert_eq!(sim_out, real_out);
        prop_assert_eq!(sim_bytes, real_bytes);

        let sort_specs = [RelSpec::ints("L", "HDD", cards.0)];
        let sort = Plan::ExternalSort {
            input: 0,
            fan_in: 4,
            b_in,
            b_out: 2 * b_in,
            scratch: "HDD".into(),
            output: Output::ToDevice { device: "HDD".into(), buffer_bytes: 256 },
        };
        let (sim_out, real_out, sim_bytes, real_bytes) = run_both(&sort, &sort_specs, seed);
        prop_assert_eq!(sim_out, real_out);
        prop_assert_eq!(sim_bytes, real_bytes);
    }
}

#[test]
fn real_grace_join_is_correct_and_matches_simulator() {
    let h = unit_page_hierarchy();
    let rt = Runtime::new(h);
    let specs = [
        RelSpec::pairs("R", "HDD", 400).with_key_range(60),
        RelSpec::pairs("S", "HDD", 250).with_key_range(60),
    ];
    let plan = Plan::GraceJoin {
        left: 0,
        right: 1,
        partitions: 8,
        buffer_bytes: 1 << 12,
        spill: "HDD".into(),
        pred: JoinPred::KeyEq,
        output: Output::ToDevice {
            device: "HDD".into(),
            buffer_bytes: 1 << 10,
        },
    };
    let report = rt.run_plan(&plan, &specs, 3).unwrap();
    assert!(
        report.outputs_match(),
        "real ({} rows) vs simulated ({} rows)",
        report.output.len(),
        report.sim_output.len()
    );
    // Brute-force ground truth over the same generated rows.
    let h = unit_page_hierarchy();
    let mut sm = StorageSim::from_hierarchy(&h);
    let r = Relation::create(&mut sm, &specs[0], true, 3).unwrap();
    let s = Relation::create(&mut sm, &specs[1], true, 4).unwrap();
    let (rbuf, sbuf) = (r.collect_rows().unwrap(), s.collect_rows().unwrap());
    let mut expect = Vec::new();
    for x in rbuf.iter() {
        for y in sbuf.iter() {
            if x[0] == y[0] {
                let mut row = x.to_vec();
                row.extend_from_slice(y);
                expect.push(row);
            }
        }
    }
    let mut got = report.output.to_rows();
    got.sort();
    expect.sort();
    assert_eq!(got, expect);
    // Partitions really spilled: the spill device saw both write passes.
    let (_, hdd) = report
        .real_devices
        .iter()
        .find(|(n, _)| n == "HDD")
        .unwrap()
        .clone();
    let input_bytes = 400 * 16 + 250 * 16;
    assert!(
        hdd.bytes_written >= input_bytes,
        "partition pass must write both relations: {hdd:?}"
    );
    assert!(report.wall_seconds > 0.0);
    assert!(report.sim_seconds > 0.0);
}

#[test]
fn real_external_sort_is_correct_and_matches_simulator() {
    let h = unit_page_hierarchy();
    let rt = Runtime::new(h);
    let specs = [RelSpec::ints("L", "HDD", 3000)];
    let plan = Plan::ExternalSort {
        input: 0,
        fan_in: 4,
        b_in: 32,
        b_out: 64,
        scratch: "HDD".into(),
        output: Output::ToDevice {
            device: "HDD".into(),
            buffer_bytes: 1 << 10,
        },
    };
    let report = rt.run_plan(&plan, &specs, 11).unwrap();
    assert_eq!(report.output.len(), 3000);
    assert!(report.output.is_sorted(), "sorted");
    assert!(report.outputs_match());
    // With runs of 4*32+64 = 192 tuples, 3000 tuples form 16 runs and need
    // two 4-way merge levels: scratch traffic far exceeds the input size.
    let (_, hdd) = report
        .real_devices
        .iter()
        .find(|(n, _)| n == "HDD")
        .unwrap()
        .clone();
    assert!(
        hdd.bytes_written > 2 * 3000 * 8,
        "runs + merge levels really hit the scratch device: {hdd:?}"
    );
    // The buffer pools did real paging work.
    let pool_misses: u64 = report.pools.iter().map(|(_, p)| p.misses).sum();
    assert!(pool_misses > 0);
}

#[test]
fn lru_pool_under_eviction_pressure_produces_correct_results() {
    let rt = Runtime::new(unit_page_hierarchy()).with_pool(PoolConfig {
        page_bytes: 256,
        frames: 8, // tiny pool: constant eviction pressure
        ..PoolConfig::default()
    });
    let specs = [RelSpec::ints("L", "HDD", 500)];
    let plan = Plan::ExternalSort {
        input: 0,
        fan_in: 2,
        b_in: 16,
        b_out: 16,
        scratch: "HDD".into(),
        output: Output::Discard,
    };
    let report = rt.run_plan(&plan, &specs, 7).unwrap();
    assert!(report.output.is_sorted(), "sorted");
    assert_eq!(report.output.len(), 500, "cardinality");
    let evictions: u64 = report.pools.iter().map(|(_, p)| p.evictions).sum();
    assert!(evictions > 0, "must be under eviction pressure");
}

/// Streamed creation writes the backing file per block; the bytes on
/// disk must be identical to what the legacy whole-relation encode +
/// single materialize produced — across sortedness, widths and narrow
/// `col_bytes` (the satellite check for the per-block
/// `encode_into`/`materialize` setup path).
#[test]
fn streamed_creation_writes_byte_identical_files_to_the_legacy_path() {
    use ocas_engine::GenMode;
    use std::io::Read;
    let cases = [
        (false, 1u32, 8u32, 0u64), // unsorted ints, default key range
        (true, 1, 8, 97),          // sorted ints
        (true, 2, 8, 40),          // sorted pairs (lexicographic)
        (true, 1, 1, 50),          // sorted narrow columns
        (false, 3, 4, 33),         // wide tuples, 4-byte columns
    ];
    for (sorted, width, col_bytes, key_range) in cases {
        let read_dev = |mode: GenMode| -> Vec<u8> {
            let h = unit_page_hierarchy();
            let mut fb = FileBackend::from_hierarchy(&h, PoolConfig::default()).unwrap();
            let mut spec = RelSpec::pairs("R", "HDD", 3_000)
                .with_key_range(key_range)
                // Small budget: many per-block materialize calls.
                .with_cache_bytes(512 * u64::from(width) * 8);
            spec.width = width;
            spec.col_bytes = col_bytes;
            spec.sorted = sorted;
            let rel = Relation::create_with(&mut fb, &spec, mode, 7).unwrap();
            fb.flush().unwrap();
            let mut bytes = vec![0u8; rel.bytes() as usize];
            std::fs::File::open(fb.dir().join("HDD.dev"))
                .unwrap()
                .read_exact(&mut bytes)
                .unwrap();
            bytes
        };
        assert_eq!(
            read_dev(GenMode::Streamed),
            read_dev(GenMode::Materialized),
            "sorted={sorted} width={width} col_bytes={col_bytes} key_range={key_range}"
        );
    }
}

/// Narrow-column regression: a faithful plan over 1-byte columns must land
/// on disk in the documented on-disk format (`col_bytes` LE bytes per
/// column), matching how `Relation::create` materializes inputs — not as
/// truncated 8-byte columns.
#[test]
fn narrow_column_output_uses_the_on_disk_tuple_format() {
    let h = unit_page_hierarchy();
    let fb = FileBackend::from_hierarchy(&h, PoolConfig::default()).unwrap();
    let mut ex = Executor::new(fb, Mode::Faithful, CpuModel::disabled());
    let mut spec = RelSpec::ints("L", "HDD", 64).sorted().with_key_range(40);
    spec.col_bytes = 1;
    let rel = Relation::create(&mut ex.sm, &spec, true, 5).unwrap();
    let input_bytes = rel.bytes();
    let rows = rel.collect_rows().unwrap();
    let li = ex.add_relation(rel);
    let stats = ex
        .run(&Plan::DedupSorted {
            input: li,
            b_in: 16,
            output: Output::ToDevice {
                device: "HDD".into(),
                buffer_bytes: 8,
            },
        })
        .unwrap();
    let out_rows = stats.output.unwrap();
    let mut expect = rows;
    expect.dedup();
    assert_eq!(out_rows, expect);
    // The sink's extent starts right after the input allocation (bump
    // allocator); its bytes must be each value's low byte in order.
    ex.sm.flush().unwrap();
    use std::io::{Read, Seek, SeekFrom};
    let path = ex.sm.dir().join("HDD.dev");
    let mut f = std::fs::File::open(path).unwrap();
    f.seek(SeekFrom::Start(input_bytes)).unwrap();
    let mut got = vec![0u8; out_rows.len()];
    f.read_exact(&mut got).unwrap();
    let want: Vec<u8> = out_rows.iter().map(|r| r[0].to_le_bytes()[0]).collect();
    assert_eq!(got, want, "on-disk bytes are col_bytes-wide LE columns");
}
