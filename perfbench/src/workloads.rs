//! The three workloads and one measured cluster run of each.
//!
//! Every run uses the seeded sim fabric (`FabricMode::Sim`), so exactly
//! one actor runs at a time and the message, byte, update, allocation and
//! virtual-time counts are a pure function of the seed. The wire is the
//! modelled paper-era interconnect (`NetConfig::default()`): it costs no
//! wall time, only virtual time.

use crate::alloc;
use hdsm_apps::workload::{block_rows, paper_pairs};
use hdsm_apps::{lu, sor};
use hdsm_core::client::{DsdClient, DsdError};
use hdsm_core::cluster::{ClusterBuilder, TopologyConfig, WorkerInfo};
use hdsm_core::costs::CostBreakdown;
use hdsm_core::gthv::{GthvDef, GthvInstance};
use hdsm_core::{LockId, PlacementPolicy};
use hdsm_net::{FabricMode, MsgKind, NetConfig};
use hdsm_obs::{EventKind, Recorder};
use hdsm_platform::ctype::StructBuilder;
use hdsm_platform::scalar::ScalarKind;
use hdsm_platform::spec::{Platform, PlatformSpec};
use hdsm_tags::convert::ConversionStats;
use std::time::{Duration, Instant};

/// Grid edge for `sor_sl`: the paper's largest size.
pub const SOR_N: usize = 255;
/// Matrix edge for `lu_sl`: one of the paper's sizes (99 to 255) whose
/// working set, the home copy plus three worker copies and their twins
/// (~7 × 152 KB), fits a 2 MiB L2. At 255 (~7 × 520 KB) every step streams
/// through the host's shared L3, and the wall followed the other tenants'
/// load: run medians ranged 1.0-1.44 s within minutes, against 0.16-0.24 s
/// at 128 in the same minutes.
pub const LU_N: usize = 138;
/// Red-black sweeps in `sor_sl`.
pub const SOR_SWEEPS: usize = 4;
/// Lock-serialized rounds per `lock_mix` worker.
pub const LOCK_ROUNDS: usize = 300;
/// Elements of `hot` that rank 1 rewrites every `lock_mix` round.
pub const HOT_SLICE: u64 = 32;
/// Elements of `lock_mix`'s `hot` array: rank 1's slice, then one
/// private slot per reading rank.
const HOT_LEN: usize = 64;
/// The SPARC worker of `lock_mix` re-hosts every this many rounds.
pub const REHOST_EVERY: usize = 100;
/// `lock_mix` workers.
const LOCK_WORKERS: usize = 4;

/// `lock_mix` entry ids. With two shards, entry `e` starts on shard
/// `e % 2` and lock `l` on shard `l % 2`: `hot` (shard 1) is written
/// under lock 0 (shard 0), so its updates start out off the lock's shard.
const TALLY: u32 = 0;
const HOT: u32 = 1;
const L_HOT: LockId = LockId::new(0);
const L_TALLY: LockId = LockId::new(1);

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Red-black SOR, n=255, SL pair: many tiny strided updates.
    SorSl,
    /// LU, n=138, SL pair: few large updates, one barrier per step.
    LuSl,
    /// Lock-serialized rounds on two shards with re-hosting and
    /// heat-driven placement: protocol-bound, little data.
    LockMix,
}

impl Workload {
    /// Parse a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "sor_sl" => Some(Workload::SorSl),
            "lu_sl" => Some(Workload::LuSl),
            "lock_mix" => Some(Workload::LockMix),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SorSl => "sor_sl",
            Workload::LuSl => "lu_sl",
            Workload::LockMix => "lock_mix",
        }
    }

    /// Synchronisation operations one run performs: barrier calls on the
    /// kernels, acquire/release pairs on `lock_mix`.
    pub fn sync_ops(self) -> u64 {
        let ops = match self {
            Workload::SorSl => 3 * (1 + 2 * SOR_SWEEPS),
            Workload::LuSl => 3 * LU_N,
            Workload::LockMix => LOCK_WORKERS * 2 * LOCK_ROUNDS,
        };
        ops as u64
    }

    /// Edge of the main shared array: the SOR grid, the LU matrix, or
    /// `lock_mix`'s `hot` array.
    pub fn edge(self) -> usize {
        match self {
            Workload::SorSl => SOR_N,
            Workload::LuSl => LU_N,
            Workload::LockMix => HOT_LEN,
        }
    }
}

/// How a run is instrumented.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// End-to-end timing: only body entry/exit stamps.
    Plain,
    /// `Plain` with the allocator counting: allocations, peak and
    /// retained heap.
    Counted,
    /// Adds the benchmark's spans: per-worker on-CPU time and the lock,
    /// release and re-host calls, plus a timed `Recorder::snapshot`.
    Traced,
    /// Arms a recorder on the kernels to read their barrier spans.
    ObsProbe,
}

/// What one worker body reports back.
#[derive(Debug, Default)]
struct Body {
    start: Option<Instant>,
    end: Option<Instant>,
    modelled_us: u64,
    cpu_ns: u64,
    acquire_ns: Vec<u64>,
    release_ns: u64,
    rehost_ns: u64,
    violations: u64,
}

/// Everything measured in one cluster run.
#[derive(Debug, Default)]
pub struct Sample {
    /// `run()` call to return.
    pub wall: f64,
    /// `run()` call until the last worker enters its body.
    pub setup: f64,
    /// Last body exit until `run()` returns.
    pub teardown: f64,
    /// Last body entry to last body exit.
    pub body: f64,
    /// Eq. 1 costs per worker.
    pub worker_costs: Vec<CostBreakdown>,
    /// Eq. 1 costs of the home shards.
    pub home_costs: CostBreakdown,
    /// Conversion counters, workers plus home.
    pub conv: ConversionStats,
    /// Messages on the fabric.
    pub net_msgs: u64,
    /// Bytes on the fabric.
    pub net_bytes: u64,
    /// Bytes of update-carrying messages.
    pub update_bytes: u64,
    /// Bytes of control messages.
    pub control_bytes: u64,
    /// Modelled wire time summed over messages, virtual seconds.
    pub wire_time: f64,
    /// Retransmitted messages.
    pub retransmits: u64,
    /// Bytes of `UpdateFlush` traffic (updates sent to a shard other than
    /// the released lock's).
    pub remote_update_bytes: u64,
    /// Largest worker virtual clock at body exit, µs.
    pub modelled_us: u64,
    /// Counted: allocations made by the run.
    pub alloc_count: u64,
    /// Counted: bytes those allocations requested.
    pub alloc_bytes: u64,
    /// Counted: peak live heap over live-at-start.
    pub peak_heap: i64,
    /// Counted: live heap after the outcome and recorder are dropped,
    /// minus before.
    pub retained: i64,
    /// Synchronisation operations attempted.
    pub sync_ops: u64,
    /// Failed operations: a failed run counts all its sync ops, a failed
    /// verification one, each inconsistent read one.
    pub failed: u64,
    /// Entries re-homed by the placement engine.
    pub rehomes: u64,
    /// Events recorded / dropped by the recorder (0 when it is off).
    pub events_recorded: u64,
    /// See `events_recorded`.
    pub events_dropped: u64,
    /// Traced: one `Recorder::snapshot` call, seconds.
    pub snapshot: f64,
    /// Traced: each worker's on-CPU seconds inside its body.
    pub worker_cpu: Vec<f64>,
    /// Traced: every lock acquire's latency, µs.
    pub acquire_us: Vec<f64>,
    /// Traced: seconds in `acquire` / `release` / `rehost`, all workers.
    pub acquire: f64,
    /// See `acquire`.
    pub release: f64,
    /// See `acquire`.
    pub rehost: f64,
    /// Probe: virtual seconds inside barrier spans, all workers.
    pub barrier_sim: f64,
    /// Why the run failed, if it did.
    pub error: Option<String>,
}

impl Sample {
    /// Eq. 1 costs summed over workers and home.
    pub fn costs(&self) -> CostBreakdown {
        let mut c: CostBreakdown = self.worker_costs.iter().sum();
        c += &self.home_costs;
        c
    }

    /// Did every operation of the run succeed and verify?
    pub fn ok(&self) -> bool {
        self.error.is_none() && self.failed == 0
    }
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// On-CPU nanoseconds of the calling thread (`/proc/thread-self/schedstat`,
/// first field). Read into a stack buffer so the reading allocates nothing.
fn thread_cpu_ns() -> u64 {
    use std::io::Read;
    let mut buf = [0u8; 96];
    let n = std::fs::File::open("/proc/thread-self/schedstat")
        .and_then(|mut f| f.read(&mut buf))
        .unwrap_or(0);
    buf[..n]
        .split(|b| *b == b' ')
        .next()
        .and_then(|s| std::str::from_utf8(s).ok())
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(0)
}

fn sim_seed(seed: u64) -> u64 {
    // splitmix64 finaliser: the fabric's seed differs from the input seed.
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn topology(shards: u32, seed: u64) -> TopologyConfig {
    TopologyConfig {
        shards,
        fabric: FabricMode::Sim {
            seed: sim_seed(seed),
        },
        ..Default::default()
    }
}

/// The SL pair in the paper's placement: one worker on the home platform
/// (Solaris/SPARC), two on the remote one (Linux/x86).
fn sl_cluster(def: GthvDef, seed: u64) -> ClusterBuilder {
    let pair = &paper_pairs()[2];
    ClusterBuilder::new()
        .gthv(def)
        .home(pair.home.clone())
        .worker(pair.home.clone())
        .worker(pair.remote.clone())
        .worker(pair.remote.clone())
        .barriers(1)
        .topology(topology(1, seed))
        .net(NetConfig::default())
}

/// `lock_mix`'s shared structure.
pub fn lock_mix_def() -> GthvDef {
    GthvDef::new(
        StructBuilder::new("GThV_lock_mix")
            .array("tally", ScalarKind::Int, 8)
            .array("hot", ScalarKind::Int, HOT_LEN)
            .build()
            .expect("lock_mix struct"),
    )
    .expect("valid def")
}

/// `lock_mix`'s value of `hot[e]` after round `r` of rank 1.
pub fn hot_value(seed: u64, r: usize, e: u64) -> i128 {
    ((seed % 9973) as i128 + r as i128 + 1) * (e as i128 + 1)
}

/// One `lock_mix` worker body (see `BENCHMARK.json` for the pattern).
fn lock_mix_body(
    c: &mut DsdClient,
    info: &WorkerInfo,
    seed: u64,
    traced: bool,
    body: &mut Body,
) -> Result<(), DsdError> {
    let me = info.index as u64;
    let mut on_sparc = info.platform.name == PlatformSpec::solaris_sparc().name;
    let mut last_seen: i128 = -1;
    for r in 0..LOCK_ROUNDS {
        if info.index == 1 && r > 0 && r % REHOST_EVERY == 0 {
            let to = if on_sparc {
                PlatformSpec::linux_x86()
            } else {
                PlatformSpec::solaris_sparc()
            };
            let t = Instant::now();
            c.rehost(to)?;
            body.rehost_ns += t.elapsed().as_nanos() as u64;
            on_sparc = !on_sparc;
        }
        acquire(c, L_HOT, traced, body)?;
        if info.index == 0 {
            for e in 0..HOT_SLICE {
                c.write_int(HOT, e, hot_value(seed, r, e))?;
            }
        } else if r % 4 == 3 {
            c.write_int(HOT, HOT_SLICE + me, r as i128 + 1)?;
        } else {
            // Under the lock the slice is one round's snapshot, never
            // older than the last one this rank saw.
            let first = c.read_int(HOT, 0)?;
            let round = if first == 0 {
                -1
            } else {
                first - hot_value(seed, 0, 0)
            };
            let mut consistent = round >= last_seen;
            for e in 1..HOT_SLICE {
                let want = if round < 0 {
                    0
                } else {
                    first * (e as i128 + 1)
                };
                consistent &= c.read_int(HOT, e)? == want;
            }
            body.violations += u64::from(!consistent);
            last_seen = last_seen.max(round);
        }
        release(c, L_HOT, traced, body)?;
        acquire(c, L_TALLY, traced, body)?;
        let t = c.read_int(TALLY, me)?;
        c.write_int(TALLY, me, t + 1)?;
        release(c, L_TALLY, traced, body)?;
    }
    Ok(())
}

fn acquire(c: &mut DsdClient, l: LockId, traced: bool, body: &mut Body) -> Result<(), DsdError> {
    let t = traced.then(Instant::now);
    c.acquire(l)?;
    if let Some(t) = t {
        body.acquire_ns.push(t.elapsed().as_nanos() as u64);
    }
    Ok(())
}

fn release(c: &mut DsdClient, l: LockId, traced: bool, body: &mut Body) -> Result<(), DsdError> {
    let t = traced.then(Instant::now);
    c.release(l)?;
    if let Some(t) = t {
        body.release_ns += t.elapsed().as_nanos() as u64;
    }
    Ok(())
}

/// Closed-form final state of `lock_mix`: slot ownership is disjoint, so
/// it does not depend on the schedule.
fn lock_mix_verify(g: &GthvInstance, seed: u64) -> bool {
    let last_private = (0..LOCK_ROUNDS)
        .rev()
        .find(|r| r % 4 == 3)
        .map_or(0, |r| r + 1);
    let hot_ok = (0..HOT_SLICE)
        .all(|e| g.read_int(HOT, e).ok() == Some(hot_value(seed, LOCK_ROUNDS - 1, e)));
    let private_ok = (1..LOCK_WORKERS as u64)
        .all(|i| g.read_int(HOT, HOT_SLICE + i).ok() == Some(last_private as i128));
    let tally_ok =
        (0..LOCK_WORKERS as u64).all(|i| g.read_int(TALLY, i).ok() == Some(LOCK_ROUNDS as i128));
    hot_ok && private_ok && tally_ok
}

fn lock_mix_cluster(seed: u64, recorder: Recorder) -> ClusterBuilder {
    ClusterBuilder::new()
        .gthv(lock_mix_def())
        .worker(PlatformSpec::linux_x86())
        .worker(PlatformSpec::solaris_sparc())
        .worker(PlatformSpec::linux_x86())
        .worker(PlatformSpec::linux_x86_64())
        .locks(2)
        .barriers(1)
        .topology(topology(2, seed))
        .net(NetConfig::default())
        .obs(recorder)
        .placement(PlacementPolicy::HeatDriven {
            epoch: Duration::from_millis(2),
            hysteresis: 2.0,
            min_gain: 1024,
        })
}

/// Run `w` once with input seed `seed` and measure it.
pub fn run_once(w: Workload, seed: u64, mode: Mode) -> Sample {
    let traced = mode == Mode::Traced;
    let counted = mode == Mode::Counted;
    let a0 = counted.then(alloc::start);
    let recorder = match (w, mode) {
        (Workload::LockMix, _) => Recorder::enabled(),
        (_, Mode::ObsProbe) => Recorder::enabled(),
        _ => Recorder::disabled(),
    };
    let builder = match w {
        Workload::SorSl => sl_cluster(sor::gthv_def(SOR_N), seed)
            .init(move |g| sor::init(g, SOR_N, seed))
            .obs(recorder.clone()),
        Workload::LuSl => sl_cluster(lu::gthv_def(LU_N), seed)
            .init(move |g| lu::init(g, LU_N, seed))
            .obs(recorder.clone()),
        Workload::LockMix => lock_mix_cluster(seed, recorder.clone()),
    };
    let builder = if mode == Mode::ObsProbe {
        builder.obs_ring_capacity(1 << 17)
    } else {
        builder
    };
    let t0 = Instant::now();
    let result = builder.run(move |c, info| {
        let mut body = Body {
            start: Some(Instant::now()),
            acquire_ns: if traced {
                Vec::with_capacity(2 * LOCK_ROUNDS)
            } else {
                Vec::new()
            },
            ..Body::default()
        };
        let cpu0 = if traced { thread_cpu_ns() } else { 0 };
        match w {
            Workload::SorSl => sor::run_worker(c, info, SOR_N, SOR_SWEEPS)?,
            Workload::LuSl => lu::run_worker(c, info, LU_N)?,
            Workload::LockMix => lock_mix_body(c, info, seed, traced, &mut body)?,
        }
        if traced {
            body.cpu_ns = thread_cpu_ns().saturating_sub(cpu0);
        }
        body.modelled_us = c.network().sim().map_or(0, |s| s.now_us());
        body.end = Some(Instant::now());
        Ok(body)
    });
    let t_ret = Instant::now();
    let mut s = Sample {
        wall: secs(t_ret - t0),
        sync_ops: w.sync_ops(),
        ..Sample::default()
    };
    if let Some(a0) = a0 {
        let a1 = alloc::read();
        s.alloc_count = a1.count - a0.count;
        s.alloc_bytes = a1.bytes - a0.bytes;
        s.peak_heap = alloc::peak() - a0.live;
    }
    match result {
        Err(e) => {
            s.error = Some(e.to_string());
            s.failed = s.sync_ops + 1;
        }
        Ok(outcome) => {
            let verified = match w {
                Workload::SorSl => sor::verify(&outcome.final_gthv, SOR_N, seed, SOR_SWEEPS),
                Workload::LuSl => lu::verify(&outcome.final_gthv, LU_N, seed),
                Workload::LockMix => lock_mix_verify(&outcome.final_gthv, seed),
            };
            s.failed = u64::from(!verified);
            let last_start = outcome.results.iter().filter_map(|b| b.start).max();
            let last_end = outcome.results.iter().filter_map(|b| b.end).max();
            if let (Some(ls), Some(le)) = (last_start, last_end) {
                s.setup = secs(ls - t0);
                s.teardown = secs(t_ret - le);
                s.body = secs(le - ls);
            }
            for b in &outcome.results {
                s.failed += b.violations;
                s.modelled_us = s.modelled_us.max(b.modelled_us);
                s.worker_cpu.push(b.cpu_ns as f64 * 1e-9);
                s.acquire_us
                    .extend(b.acquire_ns.iter().map(|ns| *ns as f64 * 1e-3));
                s.acquire += b.acquire_ns.iter().sum::<u64>() as f64 * 1e-9;
                s.release += b.release_ns as f64 * 1e-9;
                s.rehost += b.rehost_ns as f64 * 1e-9;
            }
            s.worker_costs = outcome.worker_costs.clone();
            s.home_costs = outcome.home_costs;
            s.conv = outcome.home_conv;
            for c in &outcome.worker_conv {
                s.conv.merge(c);
            }
            let net = &outcome.net_stats;
            s.net_msgs = net.total_messages();
            s.net_bytes = net.total_bytes();
            s.update_bytes = net.update_bytes();
            s.control_bytes = net.control_bytes();
            s.wire_time = secs(net.simulated_wire_time);
            s.retransmits = net.retransmitted;
            s.remote_update_bytes = net.bytes.get(&MsgKind::UpdateFlush).copied().unwrap_or(0);
            if let Some(snap) = &outcome.obs {
                s.rehomes = snap.placement.len() as u64;
                s.events_recorded = snap.events_recorded;
                s.events_dropped = snap.events_dropped;
            }
            if mode == Mode::ObsProbe {
                let us: u64 = recorder
                    .events()
                    .iter()
                    .filter(|e| e.kind == EventKind::Barrier)
                    .map(|e| e.dur_us)
                    .sum();
                s.barrier_sim = us as f64 * 1e-6;
            }
            if traced && recorder.is_enabled() {
                let t = Instant::now();
                let snap = recorder.snapshot();
                s.snapshot = secs(t.elapsed());
                drop(snap);
            }
        }
    }
    drop(recorder);
    if let Some(a0) = a0 {
        s.retained = alloc::read().live - a0.live;
        alloc::stop();
    }
    s
}

/// One release of `w` as a worker makes it, for the stage replay: the
/// sender's instance with twins armed and one phase of writes applied,
/// plus the receiving platform.
pub fn dirty_release(w: Workload, seed: u64) -> (GthvInstance, Platform) {
    let sender = PlatformSpec::linux_x86();
    let receiver = PlatformSpec::solaris_sparc();
    let g = match w {
        Workload::SorSl => {
            let mut g = GthvInstance::new(sor::gthv_def(SOR_N), sender);
            sor::init(&mut g, SOR_N, seed);
            g.space_mut().protect_all();
            // One red half-sweep over worker 1's row block.
            for i in block_rows(SOR_N, 1, 3) {
                for j in (1..SOR_N - 1).filter(|j| (i + j) % 2 == 0) {
                    let at = |i: usize, j: usize| (i * SOR_N + j) as u64;
                    let rd = |g: &GthvInstance, k| g.read_float(sor::entries::G, k).expect("grid");
                    let stencil = 0.25
                        * (rd(&g, at(i - 1, j))
                            + rd(&g, at(i + 1, j))
                            + rd(&g, at(i, j - 1))
                            + rd(&g, at(i, j + 1)));
                    let cur = rd(&g, at(i, j));
                    g.write_float(
                        sor::entries::G,
                        at(i, j),
                        cur + sor::OMEGA * (stencil - cur),
                    )
                    .expect("grid write");
                }
            }
            g
        }
        Workload::LuSl => {
            let mut g = GthvInstance::new(lu::gthv_def(LU_N), sender);
            lu::init(&mut g, LU_N, seed);
            g.space_mut().protect_all();
            // Elimination step 0 over worker 1's cyclic rows.
            let m = |g: &GthvInstance, i: usize, j: usize| {
                g.read_float(lu::entries::M, (i * LU_N + j) as u64)
                    .expect("M")
            };
            let pivot = m(&g, 0, 0);
            for i in (1..LU_N).filter(|i| i % 3 == 1) {
                let factor = m(&g, i, 0) / pivot;
                g.write_float(lu::entries::M, (i * LU_N) as u64, factor)
                    .expect("M write");
                for j in 1..LU_N {
                    let v = m(&g, i, j) - factor * m(&g, 0, j);
                    g.write_float(lu::entries::M, (i * LU_N + j) as u64, v)
                        .expect("M write");
                }
            }
            g
        }
        Workload::LockMix => {
            let mut g = GthvInstance::new(lock_mix_def(), sender);
            g.space_mut().protect_all();
            for e in 0..HOT_SLICE {
                g.write_int(HOT, e, hot_value(seed, 0, e))
                    .expect("hot write");
            }
            g
        }
    };
    (g, receiver)
}
