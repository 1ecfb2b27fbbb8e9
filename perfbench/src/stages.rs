//! Stage replay: the cases of the criterion benches in
//! `crates/bench/benches/` (pipeline, convert, baseline, migrate), run
//! through the library's public functions on one release of the
//! workload, at the workload's size and platform pair. Each row is the
//! median per-call time of the stage.

use crate::stats::median;
use crate::workloads::{dirty_release, Workload};
use hdsm_apps::matmul;
use hdsm_apps::workload::block_rows;
use hdsm_core::baseline::{apply_raw_diffs, extract_raw_diffs, pack_raw, unpack_raw};
use hdsm_core::gthv::GthvInstance;
use hdsm_core::runs::{coalesce, map_runs};
use hdsm_core::update::{apply_batch, extract_updates};
use hdsm_memory::diff::diff_pages;
use hdsm_migthread::packfmt::{pack_state, unpack_state};
use hdsm_platform::endian::Endianness;
use hdsm_platform::scalar::ScalarClass;
use hdsm_platform::spec::PlatformSpec;
use hdsm_tags::convert::{convert_scalar_run, ConversionStats};
use hdsm_tags::wire::{pack_batch_fast, unpack_batch};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Samples per stage; each sample times a batch of calls long enough to
/// read well above the clock's resolution.
const SAMPLES: usize = 15;
const MIN_BATCH: Duration = Duration::from_micros(500);

/// Median per-call seconds of `f` over inputs built by `make`, which runs
/// outside the timed region.
fn per_call<I, T>(mut make: impl FnMut() -> I, mut f: impl FnMut(I) -> T) -> f64 {
    let t = Instant::now();
    black_box(f(make()));
    let one = t.elapsed().max(Duration::from_nanos(50));
    let batch = (MIN_BATCH.as_nanos() / one.as_nanos()).clamp(1, 10_000) as usize;
    let mut per = Vec::with_capacity(SAMPLES);
    for _ in 0..SAMPLES {
        let inputs: Vec<I> = (0..batch).map(|_| make()).collect();
        let t = Instant::now();
        for i in inputs {
            black_box(f(i));
        }
        per.push(t.elapsed().as_secs_f64() / batch as f64);
    }
    median(&per)
}

/// Time every stage on one release of `w`; returns `(metric, seconds)` rows
/// plus the migration image size.
pub fn replay(w: Workload, seed: u64) -> (Vec<(&'static str, f64)>, u64) {
    let (src, receiver) = dirty_release(w, seed);
    let mut rows = Vec::new();

    // Pipeline bench: t_index, t_tag, t_pack, t_unpack, t_conv stages.
    let runs = diff_pages(src.space());
    rows.push((
        "memory.diff_pages_s",
        per_call(|| (), |_| diff_pages(src.space())),
    ));
    let mapped = map_runs(src.table(), &runs);
    rows.push((
        "runs.map_runs_s",
        per_call(|| (), |_| map_runs(src.table(), &runs)),
    ));
    rows.push(("runs.coalesce_s", per_call(|| mapped.clone(), coalesce)));
    let ranges = coalesce(mapped);
    let extract = |_| extract_updates(&src, &ranges).expect("extract");
    rows.push(("update.extract_updates_s", per_call(|| (), extract)));
    let ups = extract(());
    rows.push((
        "wire.pack_batch_fast_s",
        per_call(|| (), |_| pack_batch_fast(&ups)),
    ));
    let packed = pack_batch_fast(&ups);
    let unpack = |b| unpack_batch(b).expect("unpack");
    rows.push(("wire.unpack_batch_s", per_call(|| packed.clone(), unpack)));
    let decoded = unpack(packed.clone());
    let mut dst = GthvInstance::new(src.def().clone(), receiver.clone());
    let mut stats = ConversionStats::default();
    let apply = per_call(
        || (),
        |_| apply_batch(&mut dst, &decoded, &mut stats).expect("apply"),
    );
    rows.push(("update.apply_batch_s", apply));

    // Convert bench: one receiver-makes-right run over the main entry.
    let (size, class, count) = match w {
        Workload::LockMix => (4u32, ScalarClass::Signed, 64u64),
        _ => (8u32, ScalarClass::Float, (w.edge() * w.edge()) as u64),
    };
    let bytes: Vec<u8> = (0..size as u64 * count).map(|i| (i % 251) as u8).collect();
    let mut out = vec![0u8; bytes.len()];
    let convert = per_call(
        || (),
        |_| {
            let mut st = ConversionStats::default();
            convert_scalar_run(
                &bytes,
                size,
                Endianness::Little,
                &mut out,
                size,
                Endianness::Big,
                class,
                count,
                &mut st,
            )
            .expect("convert")
        },
    );
    rows.push(("convert.scalar_run_s", convert));

    // Baseline bench: the homogeneous raw page DSM on the same release.
    let mut homo = GthvInstance::new(src.def().clone(), src.platform().clone());
    let raw = per_call(
        || (),
        |_| {
            let diffs = extract_raw_diffs(&src);
            let back = unpack_raw(pack_raw(&diffs)).expect("raw unpack");
            apply_raw_diffs(&mut homo, src.platform(), &back).expect("raw apply")
        },
    );
    rows.push(("baseline.raw_page_dsm_s", raw));

    // Migrate bench: a matmul worker's start state, sender → receiver.
    let sender = PlatformSpec::linux_x86();
    let n = w.edge();
    let state = matmul::start_state(&sender, n, block_rows(n, 1, 3));
    let image = pack_state(&state);
    let declared = matmul::declared_state(&receiver);
    rows.push((
        "migthread.pack_state_s",
        per_call(|| (), |_| pack_state(&state)),
    ));
    let unpack_s = per_call(
        || (),
        |_| unpack_state(&image, &receiver, &declared).expect("unpack_state"),
    );
    rows.push(("migthread.unpack_state_s", unpack_s));
    (rows, image.bytes.len() as u64)
}
