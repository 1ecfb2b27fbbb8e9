//! Differential harness for the DSD pipeline.
//!
//! Production runs one update pipeline (serial twin/diff, grouped v2
//! wire batches, compiled conversion plans). Three axes check it:
//! whole clusters must converge to the same authoritative GThV on a
//! clean and on a faulty fabric, and with one home shard or three; and
//! one release's worth of updates must land byte-identically through
//! production and through the reference oracles (v1 `pack_batch` and
//! per-update `convert_scalar_run`) — and, on a homogeneous pair,
//! through the tag-free `baseline` page DSM.

use hdsm::apps::workload::{paper_pairs, PlatformPair, SyncMode};
use hdsm::apps::{jacobi, lu, matmul, sor};
use hdsm::dsd::cluster::{ClusterBuilder, FaultConfig, TimingConfig, TopologyConfig};
use hdsm::net::FaultPlan;
use std::time::Duration;

/// The fault-plan axis: a clean fabric and a mildly hostile one (drops,
/// duplicates and reorders all at once — enough to force retransmissions
/// and out-of-order application on every run).
fn fault_plans() -> [Option<FaultPlan>; 2] {
    [
        None,
        Some(
            FaultPlan::seeded(0xD1FF)
                .drop(0.03)
                .duplicate(0.03)
                .reorder(0.03),
        ),
    ]
}

/// Shard count for the whole suite: CI runs it at `HDSM_SHARDS=1` and
/// `HDSM_SHARDS=3`, so every comparison also holds under a sharded home.
/// Defaults to the classic single home.
fn shards_from_env() -> u32 {
    std::env::var("HDSM_SHARDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1)
}

/// Workload size: edge `n`, init seed and (jacobi/sor) sweeps.
type Size = (usize, u64, usize);

/// One workload on a two-worker cluster over `pair` with the home service
/// sharded `shards` ways, on a clean or faulty fabric; returns the final
/// authoritative bytes and the oracle verdict.
fn run_workload(
    name: &str,
    pair: &PlatformPair,
    plan: &Option<FaultPlan>,
    shards: u32,
    (n, seed, sweeps): Size,
) -> (Vec<u8>, bool) {
    let mut b = ClusterBuilder::new()
        .home(pair.home.clone())
        .worker(pair.home.clone())
        .worker(pair.remote.clone())
        .locks(1)
        .barriers(2)
        .topology(TopologyConfig {
            shards,
            ..Default::default()
        });
    if let Some(plan) = plan {
        b = b
            .timing(TimingConfig {
                retry_base: Some(Duration::from_millis(10)),
                lease: Some(Duration::from_secs(5)),
                recv_deadline: Some(Duration::from_secs(30)),
                ..Default::default()
            })
            .faults(FaultConfig {
                plan: Some(plan.clone()),
            });
    }
    match name {
        "jacobi" => {
            let o = b
                .gthv(jacobi::gthv_def(n))
                .init(move |g| jacobi::init(g, n, seed))
                .run(move |c, i| jacobi::run_worker(c, i, n, sweeps))
                .unwrap();
            (
                o.final_gthv.space().raw().to_vec(),
                jacobi::verify(&o.final_gthv, n, seed, sweeps),
            )
        }
        "sor" => {
            let o = b
                .gthv(sor::gthv_def(n))
                .init(move |g| sor::init(g, n, seed))
                .run(move |c, i| sor::run_worker(c, i, n, sweeps))
                .unwrap();
            (
                o.final_gthv.space().raw().to_vec(),
                sor::verify(&o.final_gthv, n, seed, sweeps),
            )
        }
        "matmul" => {
            let o = b
                .gthv(matmul::gthv_def(n))
                .init(move |g| matmul::init(g, n, seed))
                .run(move |c, i| matmul::run_worker(c, i, n, SyncMode::Barrier))
                .unwrap();
            (
                o.final_gthv.space().raw().to_vec(),
                matmul::verify(&o.final_gthv, n, seed),
            )
        }
        "lu" => {
            let o = b
                .gthv(lu::gthv_def(n))
                .init(move |g| lu::init(g, n, seed))
                .run(move |c, i| lu::run_worker(c, i, n))
                .unwrap();
            (
                o.final_gthv.space().raw().to_vec(),
                lu::verify(&o.final_gthv, n, seed),
            )
        }
        other => panic!("unknown workload {other}"),
    }
}

/// Run one workload across every paper pair × fault plan: every run must
/// verify, and the faulty fabric must converge to the clean fabric's
/// bytes.
fn assert_faults_change_nothing(name: &str, size: Size) {
    for pair in paper_pairs() {
        let runs: Vec<(Vec<u8>, bool)> = fault_plans()
            .iter()
            .map(|plan| run_workload(name, &pair, plan, shards_from_env(), size))
            .collect();
        for (p, (bytes, ok)) in runs.iter().enumerate() {
            assert!(ok, "{name} failed verification on {} plan {p}", pair.label);
            assert_eq!(
                bytes, &runs[0].0,
                "{name} GThV on plan {p} diverged from the clean fabric on {}",
                pair.label
            );
        }
    }
}

#[test]
fn jacobi_faulty_fabric_is_byte_identical_to_clean() {
    assert_faults_change_nothing("jacobi", (10, 11, 3));
}

#[test]
fn sor_faulty_fabric_is_byte_identical_to_clean() {
    assert_faults_change_nothing("sor", (10, 13, 2));
}

#[test]
fn matmul_faulty_fabric_is_byte_identical_to_clean() {
    assert_faults_change_nothing("matmul", (10, 17, 0));
}

#[test]
fn lu_faulty_fabric_is_byte_identical_to_clean() {
    assert_faults_change_nothing("lu", (8, 19, 0));
}

/// The sharding axis is a pure routing change: partitioning entries,
/// locks and barriers across three home shards must reproduce the exact
/// authoritative bytes of the classic single-home run — on a clean fabric
/// and under drops/duplicates/reorders alike. Runs on the heterogeneous
/// SL pair so every grant also crosses a representation boundary.
#[test]
fn three_shard_home_is_byte_identical_to_single_home() {
    let pair = &paper_pairs()[2];
    for (p, plan) in fault_plans().iter().enumerate() {
        for name in ["jacobi", "sor", "matmul", "lu"] {
            let (one, ok1) = run_workload(name, pair, plan, 1, (10, 29, 2));
            let (three, ok3) = run_workload(name, pair, plan, 3, (10, 29, 2));
            assert!(ok1, "{name} failed to verify at shards=1 on plan {p}");
            assert!(ok3, "{name} failed to verify at shards=3 on plan {p}");
            assert_eq!(
                one, three,
                "{name} shards=3 GThV diverged from shards=1 on plan {p}"
            );
        }
    }
}

/// Per-shard traffic must be visible end to end: NetStats attributes
/// bytes to each shard's endpoint, and the obs cluster report renders
/// the shard-utilization table from the `cluster.shards` gauge.
#[test]
fn sharded_run_reports_per_shard_traffic() {
    use hdsm::obs::Recorder;
    let recorder = Recorder::enabled();
    let (n, seed) = (10usize, 31u64);
    let pair = &paper_pairs()[2];
    let outcome = ClusterBuilder::new()
        .home(pair.home.clone())
        .worker(pair.home.clone())
        .worker(pair.remote.clone())
        .locks(1)
        .barriers(2)
        .topology(TopologyConfig {
            shards: 3,
            ..Default::default()
        })
        .obs(recorder.clone())
        .gthv(matmul::gthv_def(n))
        .init(move |g| matmul::init(g, n, seed))
        .run(move |c, i| matmul::run_worker(c, i, n, SyncMode::Barrier))
        .unwrap();
    assert!(matmul::verify(&outcome.final_gthv, n, seed));
    // Every shard terminated something: NetStats saw bytes to each of
    // the three shard endpoints (ranks 0..3).
    let snap = outcome.obs.expect("recorder was enabled");
    for shard in 0..3u32 {
        let row = snap
            .net_by_dest
            .iter()
            .find(|r| r.dst == shard)
            .unwrap_or_else(|| panic!("no traffic attributed to shard {shard}"));
        assert!(row.bytes > 0, "shard {shard} received zero bytes");
    }
    let report = snap.report();
    assert!(
        report.contains("-- shard utilization --"),
        "cluster report must carry the shard table:\n{report}"
    );
    assert!(report.contains("-- traffic by destination --"));
}

/// The reference oracle for update application: per-update
/// `convert_scalar_run` straight into the shared region, with no plan
/// cache and no memcpy shortcut. Pointer runs have no plan to check: they
/// take the production unswizzling path.
fn apply_oracle(gthv: &mut hdsm::dsd::gthv::GthvInstance, ups: &[hdsm::tags::wire::WireUpdate]) {
    use hdsm::dsd::update::apply_update;
    use hdsm::tags::convert::{convert_scalar_run, ConversionStats};
    use hdsm::tags::tag::TagItem;
    let mut stats = ConversionStats::default();
    let local = gthv.platform().endian;
    for u in ups {
        let row = gthv.table().row(u.entry).expect("entry").clone();
        let src_size = match u.tag.0.as_slice() {
            [TagItem::Scalar { size, .. }, TagItem::Padding { bytes: 0 }] => *size,
            _ => {
                apply_update(gthv, u, &mut stats).expect("pointer run");
                continue;
            }
        };
        let count = u.tag.element_count();
        let mut native = vec![0u8; (u64::from(row.size) * count) as usize];
        convert_scalar_run(
            &u.data,
            src_size,
            u.endian,
            &mut native,
            row.size,
            local,
            row.kind.class(),
            count,
            &mut stats,
        )
        .expect("convert");
        let addr = row.addr + u.elem_offset * u64::from(row.size);
        gthv.space_mut()
            .write_untracked(addr, &native)
            .expect("in range");
    }
}

/// Cross-implementation axis: on every paper pair, one release of each
/// kernel's initial state must land byte-identically through the
/// production pipeline (v2 wire, compiled plans) and through the
/// reference oracles (v1 wire, per-update `convert_scalar_run`); on the
/// homogeneous pairs both must also reproduce exactly what the tag-free
/// `baseline` page DSM propagates.
#[test]
fn dsd_both_modes_match_baseline_page_dsm() {
    use hdsm::dsd::baseline::{apply_raw_diffs, extract_raw_diffs, pack_raw, unpack_raw};
    use hdsm::dsd::gthv::GthvInstance;
    use hdsm::dsd::runs::abstract_diffs;
    use hdsm::dsd::update::{apply_batch, extract_updates};
    use hdsm::memory::diff::diff_pages;
    use hdsm::tags::convert::ConversionStats;
    use hdsm::tags::wire::{pack_batch, pack_batch_fast, unpack_batch};

    let seed = 23u64;
    for pair in paper_pairs() {
        for (name, def) in [
            ("jacobi", jacobi::gthv_def(12)),
            ("sor", sor::gthv_def(12)),
            ("matmul", matmul::gthv_def(12)),
            ("lu", lu::gthv_def(12)),
        ] {
            // The releasing worker sits on the remote platform; the
            // updates land on the home platform.
            let mut src = GthvInstance::new(def.clone(), pair.remote.clone());
            src.space_mut().protect_all();
            match name {
                "jacobi" => jacobi::init(&mut src, 12, seed),
                "sor" => sor::init(&mut src, 12, seed),
                "matmul" => matmul::init(&mut src, 12, seed),
                _ => lu::init(&mut src, 12, seed),
            }
            let runs = diff_pages(src.space());
            let ups = extract_updates(&src, &abstract_diffs(src.table(), &runs)).unwrap();
            assert!(!ups.is_empty(), "{name}: init must dirty the structure");

            // Production: grouped v2 wire, compiled plans.
            let mut via_dsd = GthvInstance::new(def.clone(), pair.home.clone());
            let mut stats = ConversionStats::default();
            apply_batch(
                &mut via_dsd,
                &unpack_batch(pack_batch_fast(&ups)).unwrap(),
                &mut stats,
            )
            .unwrap();

            // Oracle: v1 wire, per-update conversion.
            let mut via_oracle = GthvInstance::new(def.clone(), pair.home.clone());
            apply_oracle(&mut via_oracle, &unpack_batch(pack_batch(&ups)).unwrap());
            assert_eq!(
                via_dsd.space().raw(),
                via_oracle.space().raw(),
                "{name} on {}: DSD pipeline vs reference oracle",
                pair.label
            );

            if pair.remote.homogeneous_with(&pair.home) {
                // Baseline page DSM: raw byte diffs, no tags, no conversion.
                let mut via_baseline = GthvInstance::new(def, pair.home.clone());
                let raw = unpack_raw(pack_raw(&extract_raw_diffs(&src))).unwrap();
                apply_raw_diffs(&mut via_baseline, src.platform(), &raw).unwrap();
                assert_eq!(
                    via_dsd.space().raw(),
                    via_baseline.space().raw(),
                    "{name} on {}: DSD pipeline vs baseline page DSM",
                    pair.label
                );
            }
        }
    }
}
