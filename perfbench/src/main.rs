//! End-to-end and per-layer benchmark of the heterogeneous DSD.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <sor_sl|lu_sl|lock_mix> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs the workload on the seeded sim fabric repeatedly for `--seconds`
//! (after one warm-up run and two runs with the allocator counting, which
//! give the heap and allocation numbers), verifies every run against its
//! oracle, and
//! prints as its last stdout line one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones; with `--trace 1` untraced and traced
//! runs alternate, and the metrics are the per-layer ones: Eq. 1 layers,
//! counters, the wall ledger of the median traced run, the tracing
//! overhead and the stage replay. `BENCHMARK.json` lists both sets and
//! says which end-to-end metric each layer should move.
//!
//! Exact counters (messages, bytes, virtual time, updates, allocations)
//! must repeat bit for bit across the runs of one seed; otherwise the
//! result is marked incorrect.

mod alloc;
mod stages;
mod stats;
mod workloads;

use stats::{describe, median, quantile};
use std::fmt::Write as _;
use std::time::{Duration, Instant};
use workloads::{run_once, Mode, Sample, Workload};

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Smallest number of timed runs, whatever `--seconds` says: the
/// exactness gate needs repeats.
const MIN_RUNS: usize = 3;

/// Runs with the allocator counting, before the timed ones: enough for
/// the exactness gate on `alloc.count`.
const COUNTED_RUNS: usize = 2;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse::<u64>().map_err(bad)?),
            "--trace" => trace = Some(value.parse::<u8>().map_err(bad)? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// Seconds the hypervisor has stolen from `cpu` since boot (`/proc/stat`,
/// eighth value of the `cpuN` line, in USER_HZ = 100 ticks per second).
fn steal_s(cpu: usize) -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let line = stat
        .lines()
        .find(|l| l.starts_with(&format!("cpu{cpu} ")))?;
    let ticks: u64 = line.split_whitespace().nth(8)?.parse().ok()?;
    Some(ticks as f64 / 100.0)
}

fn read_trimmed(path: &str) -> Option<String> {
    std::fs::read_to_string(path)
        .ok()
        .map(|s| s.trim().to_string())
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Restrict the process to the lowest-numbered CPU it may run on; threads
/// spawned afterwards inherit the mask. Returns that CPU, or `None` if the
/// kernel refused.
///
/// The sim fabric runs one actor at a time and hands the token from thread
/// to thread. On a 2-vCPU VM whose host is overcommitted, hand-offs to the
/// other vCPU wait for the hypervisor to run it: with both vCPUs in use,
/// steal time rose from ~1% to 10-30% and LU's wall (n=255) swung between
/// 2.9 s and 4.4 s, against 1.6-1.8 s pinned in the same minute. Pinned, the diff's
/// helper count (`available_parallelism`) is 1, so it scans serially.
fn pin_to_one_cpu() -> Option<usize> {
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    // 1024 bits, the size of glibc's `cpu_set_t`.
    let mut mask = [0u64; 16];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a writable buffer of exactly `size` bytes, and pid 0
    // names the calling thread.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let cpu = (0..size * 8).find(|c| mask[c / 64] >> (c % 64) & 1 == 1)?;
    let mut one = [0u64; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable buffer of exactly `size` bytes, and pid 0
    // names the calling thread.
    (unsafe { sched_setaffinity(0, size, one.as_ptr()) } == 0).then_some(cpu)
}

/// Machine fingerprint: cores, CPU model, cache sizes, toolchain, source
/// revision, the CPU the run is pinned to, fabric and seed.
fn fingerprint(args: &Args, nproc: usize, pinned: Option<usize>) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let mut caches = Vec::new();
    for i in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
        let (Some(level), Some(kind), Some(size)) = (
            read_trimmed(&format!("{dir}/level")),
            read_trimmed(&format!("{dir}/type")),
            read_trimmed(&format!("{dir}/size")),
        ) else {
            continue;
        };
        if level != "1" {
            caches.push(format!("L{level} {kind} {size}"));
        }
    }
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    let rev = read_trimmed(".git/HEAD")
        .and_then(|head| match head.strip_prefix("ref: ") {
            Some(r) => read_trimmed(&format!(".git/{r}")),
            None => Some(head),
        })
        .unwrap_or_else(|| "unknown (not a git checkout)".into());
    format!(
        "{{\"nproc\": {nproc}, \"cpu\": {}, \"caches\": {}, \"rustc\": {}, \"git_rev\": {}, \
         \"pinned_cpu\": {}, \"fabric\": \"sim\", \"seed\": {}, \"workload\": {}}}",
        json_str(&cpu),
        json_str(&caches.join(", ")),
        json_str(&rustc),
        json_str(&rev),
        pinned.map_or("null".into(), |c| c.to_string()),
        args.seed,
        json_str(args.workload.name()),
    )
}

/// A metric row for the final JSON object.
struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
}

fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

type Key = (&'static str, fn(&Sample) -> u64);

/// Counters every run of one seed must repeat exactly.
const PROTOCOL_KEYS: [Key; 4] = [
    ("net_msgs", |s| s.net_msgs),
    ("net_bytes", |s| s.net_bytes),
    ("modelled_s", |s| s.modelled_us),
    ("core.updates_sent", |s| s.costs().updates_sent),
];

/// The allocation count, which the counted runs must repeat exactly.
const ALLOC_KEY: [Key; 1] = [("alloc.count", |s| s.alloc_count)];

/// Exactness gate: returns the names of `keys` on which `runs` differ.
fn inexact(runs: &[&Sample], keys: &[Key]) -> Vec<&'static str> {
    keys.iter()
        .filter(|(_, k)| runs.windows(2).any(|w| k(w[0]) != k(w[1])))
        .map(|(n, _)| *n)
        .collect()
}

fn of(runs: &[&Sample], f: impl Fn(&Sample) -> f64) -> Vec<f64> {
    runs.iter().map(|s| f(s)).collect()
}

const MB: f64 = 1024.0 * 1024.0;

/// Quantile of the timed repeats that a timing metric reports: the 10th
/// percentile (the 90th for a rate, where higher is better).
///
/// Every repeat of a seed does the same work (the exactness gate checks
/// its counts bit for bit), so the differences between repeats are time
/// the host added. On a shared VM that time comes in bursts that slow a
/// varying share of a run's repeats: in one ten-seed set of lu_sl, the
/// per-run median of the repeats spread 12.5% (quartile distance over
/// median) and their 10th percentile 2.1%. The median, quartiles, a tail
/// percentile and the sample count are printed beside each metric.
const TIMING_Q: f64 = 0.1;

fn end_to_end(runs: &[&Sample], counted: &[&Sample]) -> Vec<Metric> {
    let first = runs[0];
    // Rows reported with the quantile they report, or `None` for rows
    // printed for reading only: on the kernels teardown is ~1 ms of
    // thread wake-ups whose spread across runs is far wider than any
    // bound; the traced run reports it in the ledger.
    let rows: [(&'static str, &'static str, Vec<f64>, Option<f64>); 7] = [
        ("wall_s", "s", of(runs, |s| s.wall), Some(TIMING_Q)),
        ("setup_s", "s", of(runs, |s| s.setup), Some(TIMING_Q)),
        ("teardown_s", "s", of(runs, |s| s.teardown), None),
        (
            "c_share_s",
            "s",
            of(runs, |s| s.costs().c_share().as_secs_f64()),
            Some(TIMING_Q),
        ),
        (
            "peak_heap_mb",
            "MB",
            of(counted, |s| s.peak_heap as f64 / MB),
            Some(0.5),
        ),
        (
            "sync_ops_per_s",
            "1/s",
            of(runs, |s| s.sync_ops as f64 / s.body),
            Some(1.0 - TIMING_Q),
        ),
        ("body_s", "s", of(runs, |s| s.body), None),
    ];
    let mut out = Vec::new();
    for (name, unit, xs, q) in rows {
        println!("{}", describe(name, unit, &xs));
        if let Some(q) = q {
            out.push(metric(name, unit, quantile(&xs, q)));
        }
    }
    out.push(metric(
        "modelled_s",
        "sim_s",
        first.modelled_us as f64 * 1e-6,
    ));
    out.push(metric("net_msgs", "count", first.net_msgs as f64));
    out.push(metric("net_bytes", "B", first.net_bytes as f64));
    out
}

/// The traced run whose wall is the median of the traced runs: its
/// ledger is reported whole, so its rows sum to its wall exactly.
fn median_run<'a>(runs: &[&'a Sample]) -> &'a Sample {
    let mut v = runs.to_vec();
    v.sort_by(|a, b| a.wall.total_cmp(&b.wall));
    v[(v.len() - 1) / 2]
}

fn per_layer(
    args: &Args,
    plain: &[&Sample],
    counted: &[&Sample],
    traced: &[&Sample],
    probe: Option<&Sample>,
) -> Vec<Metric> {
    let p = plain[0];
    let med = |runs: &[&Sample], f: fn(&Sample) -> f64| median(&of(runs, f));
    let mut out = vec![
        metric(
            "eq1.t_index_s",
            "s",
            med(plain, |s| s.costs().t_index.as_secs_f64()),
        ),
        metric(
            "eq1.t_tag_s",
            "s",
            med(plain, |s| s.costs().t_tag.as_secs_f64()),
        ),
        metric(
            "eq1.t_pack_s",
            "s",
            med(plain, |s| s.costs().t_pack.as_secs_f64()),
        ),
        metric(
            "eq1.t_unpack_s",
            "s",
            med(plain, |s| s.costs().t_unpack.as_secs_f64()),
        ),
        metric(
            "eq1.t_conv_s",
            "s",
            med(plain, |s| s.costs().t_conv.as_secs_f64()),
        ),
        metric(
            "home.c_share_s",
            "s",
            med(plain, |s| s.home_costs.c_share().as_secs_f64()),
        ),
    ];

    // Wall ledger of the median traced run: wall = setup + workers' Eq. 1
    // share + workers' compute + other + teardown. "Other" is the named
    // residual: home shards, placement engine, sim hand-offs and any
    // worker wall spent off its own thread (the parallel diff's helpers).
    let t = median_run(traced);
    let worker_cpu: f64 = t.worker_cpu.iter().sum();
    let worker_eq1: f64 = t
        .worker_costs
        .iter()
        .map(|c| c.c_share().as_secs_f64())
        .sum();
    let other = t.wall - t.setup - t.teardown - worker_cpu;
    println!(
        "ledger {} (median traced run, seconds):",
        args.workload.name()
    );
    println!("  wall            {:.6}", t.wall);
    println!("  setup           {:.6}", t.setup);
    for (i, (cpu, c)) in t.worker_cpu.iter().zip(&t.worker_costs).enumerate() {
        let eq1 = c.c_share().as_secs_f64();
        println!(
            "  rank {}          cpu {:.6} = eq1 {:.6} + compute {:.6}",
            i + 1,
            cpu,
            eq1,
            cpu - eq1
        );
    }
    println!("  workers eq1     {worker_eq1:.6}");
    println!("  workers compute {:.6}", worker_cpu - worker_eq1);
    println!(
        "  other           {other:.6} (home c_share {:.6})",
        t.home_costs.c_share().as_secs_f64()
    );
    println!("  teardown        {:.6}", t.teardown);
    out.extend([
        metric("ledger.wall_s", "s", t.wall),
        metric("ledger.setup_s", "s", t.setup),
        metric("ledger.worker_cpu_s", "s", worker_cpu),
        metric("ledger.worker_eq1_s", "s", worker_eq1),
        metric("ledger.worker_compute_s", "s", worker_cpu - worker_eq1),
        metric("ledger.other_s", "s", other),
        metric("ledger.teardown_s", "s", t.teardown),
        metric(
            "trace.overhead_s",
            "s",
            med(traced, |s| s.wall) - med(plain, |s| s.wall),
        ),
    ]);

    let (stage_rows, image_bytes) = stages::replay(args.workload, args.seed);
    for (name, secs) in stage_rows {
        out.push(metric(name, "s", secs));
    }
    out.push(metric("migthread.image_bytes", "B", image_bytes as f64));

    let c = p.costs();
    let acquire_us: Vec<f64> = traced
        .iter()
        .flat_map(|s| s.acquire_us.iter().copied())
        .collect();
    if !acquire_us.is_empty() {
        println!("{}", describe("sync.acquire_us", "us", &acquire_us));
    }
    out.extend([
        metric(
            "tags.scalars_converted",
            "count",
            p.conv.scalars_converted as f64,
        ),
        metric(
            "tags.scalars_swapped",
            "count",
            p.conv.scalars_swapped as f64,
        ),
        metric("tags.memcpy_bytes", "B", p.conv.memcpy_bytes as f64),
        metric("core.updates_sent", "count", c.updates_sent as f64),
        metric("core.updates_applied", "count", c.updates_applied as f64),
        metric("core.bytes_sent", "B", c.bytes_sent as f64),
        metric("core.bytes_applied", "B", c.bytes_applied as f64),
        metric("net.update_bytes", "B", p.update_bytes as f64),
        metric("net.control_bytes", "B", p.control_bytes as f64),
        metric("net.wire_time_s", "sim_s", p.wire_time),
        metric("net.retransmits", "count", p.retransmits as f64),
        metric("sync.acquire_s", "s", med(traced, |s| s.acquire)),
        metric("sync.release_s", "s", med(traced, |s| s.release)),
        metric(
            "sync.barrier_s",
            "sim_s",
            probe.map_or(0.0, |s| s.barrier_sim),
        ),
        metric("sync.acquire_p50_us", "us", quantile(&acquire_us, 0.5)),
        metric("sync.acquire_p99_us", "us", quantile(&acquire_us, 0.99)),
        metric("client.rehost_s", "s", med(traced, |s| s.rehost)),
        metric("placement.rehomes", "count", p.rehomes as f64),
        metric(
            "placement.remote_update_bytes",
            "B",
            p.remote_update_bytes as f64,
        ),
        metric("obs.snapshot_s", "s", med(traced, |s| s.snapshot)),
        metric("obs.events_recorded", "count", p.events_recorded as f64),
        metric("obs.events_dropped", "count", p.events_dropped as f64),
        metric("alloc.count", "count", counted[0].alloc_count as f64),
        metric("alloc.bytes", "B", med(counted, |s| s.alloc_bytes as f64)),
        metric(
            "alloc.retained_mb",
            "MB",
            med(counted, |s| s.retained as f64 / MB),
        ),
    ]);
    out
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <sor_sl|lu_sl|lock_mix> --seed <n> \
                 --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let pinned = pin_to_one_cpu();
    println!("fingerprint {}", fingerprint(&args, nproc, pinned));

    let w = args.workload;
    // One warm-up run, verified but not measured, then the counted runs.
    let mut all: Vec<(Mode, Sample)> = vec![(Mode::Plain, run_once(w, args.seed, Mode::Plain))];
    for _ in 0..COUNTED_RUNS {
        all.push((Mode::Counted, run_once(w, args.seed, Mode::Counted)));
    }
    let budget = Duration::from_secs(args.seconds);
    let steal0 = pinned.and_then(steal_s);
    let t0 = Instant::now();
    let min_runs = if args.trace { 2 * MIN_RUNS } else { MIN_RUNS };
    let mut measured = 0;
    while measured < min_runs || t0.elapsed() < budget {
        let mode = if args.trace && measured % 2 == 1 {
            Mode::Traced
        } else {
            Mode::Plain
        };
        all.push((mode, run_once(w, args.seed, mode)));
        measured += 1;
    }
    // Host noise: time the hypervisor ran something else on our CPU.
    if let (Some(cpu), Some(a), Some(b)) = (pinned, steal0, pinned.and_then(steal_s)) {
        println!(
            "host steal on cpu{cpu} during the timed runs: {:.2} s of {:.2} s",
            b - a,
            t0.elapsed().as_secs_f64()
        );
    }
    let probe =
        (args.trace && w != Workload::LockMix).then(|| run_once(w, args.seed, Mode::ObsProbe));

    let of_mode = |mode: Mode| -> Vec<&Sample> {
        all[1..]
            .iter()
            .filter(|(m, _)| *m == mode)
            .map(|(_, s)| s)
            .collect()
    };
    let (plain, counted, traced) = (
        of_mode(Mode::Plain),
        of_mode(Mode::Counted),
        of_mode(Mode::Traced),
    );
    for (i, (mode, s)) in all.iter().enumerate() {
        println!(
            "run {i:>3} {mode:?}: wall {:.6} setup {:.6} teardown {:.6} c_share {:.6} ok {}",
            s.wall,
            s.setup,
            s.teardown,
            s.costs().c_share().as_secs_f64(),
            s.ok()
        );
    }
    let every = all.iter().map(|(_, s)| s).chain(probe.as_ref());
    let (mut attempted, mut failed, mut correct) = (0u64, 0u64, true);
    for s in every {
        attempted += s.sync_ops + 1;
        failed += s.failed;
        if let Some(e) = &s.error {
            eprintln!("perfbench: run failed: {e}");
        }
        correct &= s.ok();
    }
    let untraced: Vec<&Sample> = plain.iter().chain(&counted).copied().collect();
    for (label, runs, keys) in [
        ("untraced", &untraced, &PROTOCOL_KEYS[..]),
        ("traced", &traced, &PROTOCOL_KEYS[..]),
        ("counted", &counted, &ALLOC_KEY[..]),
    ] {
        let bad = inexact(runs, keys);
        if !bad.is_empty() {
            eprintln!(
                "perfbench: {label} repeats of seed {} differ in {bad:?}",
                args.seed
            );
            correct = false;
        }
    }
    if !correct {
        eprintln!("perfbench: {failed} of {attempted} operations failed or did not repeat");
    }

    println!(
        "{} seed {}: {} timed + {} counted + {} traced runs",
        w.name(),
        args.seed,
        plain.len(),
        counted.len(),
        traced.len()
    );
    let metrics = if args.trace {
        per_layer(&args, &plain, &counted, &traced, probe.as_ref())
    } else {
        end_to_end(&plain, &counted)
    };
    let mut json = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            json,
            "{sep}{}: {{\"value\": {value}, \"unit\": {}}}",
            json_str(m.name),
            json_str(m.unit)
        );
    }
    json.push_str("}}");
    println!("{json}");
}
