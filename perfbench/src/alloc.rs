//! Counting global allocator: allocation count, bytes requested, live heap
//! and its peak. `alloc.count` is a hard gate (same seed ⇒ same count), so
//! every `alloc`, `alloc_zeroed` and `realloc` that succeeds counts once.
//!
//! Counting is switched on only around the runs that report these
//! numbers: the counters' atomic updates cost ~30% of LU's wall at n=255
//! (1.75 s against 1.18-1.37 s), so timed runs leave them off and pay one
//! relaxed load per call. Live heap is therefore a delta over the counting window:
//! allocations made in it minus frees made in it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering::Relaxed};

/// The benchmark binary's allocator: the system allocator plus counters.
pub struct Counting;

static ON: AtomicBool = AtomicBool::new(false);
static COUNT: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

fn grew(size: usize) {
    COUNT.fetch_add(1, Relaxed);
    BYTES.fetch_add(size as u64, Relaxed);
    let live = LIVE.fetch_add(size as i64, Relaxed) + size as i64;
    // The peak only moves while the heap grows past it; skip the
    // read-modify-write otherwise.
    if live > PEAK.load(Relaxed) {
        PEAK.fetch_max(live, Relaxed);
    }
}

fn shrank(size: usize) {
    LIVE.fetch_sub(size as i64, Relaxed);
}

// SAFETY: every call forwards to `System` with the caller's own arguments,
// so `System`'s guarantees carry over; the counters are plain statistics
// (`Relaxed`, they publish no other data) and never touch the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() && ON.load(Relaxed) {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded unchanged; the caller upholds the contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() && ON.load(Relaxed) {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) };
        if ON.load(Relaxed) {
            shrank(layout.size());
        }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr` came from `System` with `layout`; forwarded unchanged.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() && ON.load(Relaxed) {
            shrank(layout.size());
            grew(new_size);
        }
        p
    }
}

/// Counter readings at one instant.
#[derive(Debug, Clone, Copy)]
pub struct Reading {
    /// Allocations (alloc, alloc_zeroed, realloc) counted so far.
    pub count: u64,
    /// Bytes requested by those allocations.
    pub bytes: u64,
    /// Live heap now, relative to where counting windows started.
    pub live: i64,
}

/// Read the counters.
pub fn read() -> Reading {
    Reading {
        count: COUNT.load(Relaxed),
        bytes: BYTES.load(Relaxed),
        live: LIVE.load(Relaxed),
    }
}

/// Start counting and restart peak tracking from the current live heap;
/// returns the reading at the start.
pub fn start() -> Reading {
    PEAK.store(LIVE.load(Relaxed), Relaxed);
    ON.store(true, Relaxed);
    read()
}

/// Stop counting.
pub fn stop() {
    ON.store(false, Relaxed);
}

/// Highest live heap since the last [`start`].
pub fn peak() -> i64 {
    PEAK.load(Relaxed)
}
