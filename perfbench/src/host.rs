//! Host-side instruments: a counting global allocator, process CPU time
//! and peak resident memory. All are read from outside the program under
//! test; none of them changes what the program does.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// The system allocator plus two relaxed counters. Counting is off by
/// default and switched on only by the traced run, so the measured runs
/// pay one relaxed load per allocation and nothing else.
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Set on the benchmark's own threads while they do bookkeeping
    /// (polling reports, recording spans) so those allocations are not
    /// charged to the layer being measured.
    static QUIET: Cell<bool> = const { Cell::new(false) };
}

#[inline]
fn count() {
    if COUNTING.load(Ordering::Relaxed) && !QUIET.with(Cell::get) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counters are plain statistics that publish no memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded verbatim; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded verbatim; the caller upholds `alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` came from `System` through this allocator with `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Switch allocation counting on or off for every thread.
pub fn set_counting(on: bool) {
    COUNTING.store(on, Ordering::SeqCst);
}

/// Allocations (including reallocations) counted so far.
pub fn allocs() -> u64 {
    ALLOCS.load(Ordering::SeqCst)
}

/// Run `f` with this thread's allocations left uncounted.
pub fn quiet<T>(f: impl FnOnce() -> T) -> T {
    let was = QUIET.with(|q| q.replace(true));
    let out = f();
    QUIET.with(|q| q.set(was));
    out
}

extern "C" {
    fn mallopt(param: i32, value: i32) -> i32;
}

const M_MMAP_THRESHOLD: i32 = -3;

/// Fix glibc's mmap threshold at its 128 KiB default. Large zeroed
/// buffers then always come from fresh anonymous mappings, which cost
/// address space but no resident memory until touched. Left dynamic,
/// glibc raises the threshold after a large free and serves later large
/// `calloc`s from the heap, zeroing (and so touching) them.
pub fn fix_mmap_threshold() {
    // SAFETY: `mallopt` only changes allocator tuning; any threshold
    // value is valid and the call has no other effect.
    unsafe {
        mallopt(M_MMAP_THRESHOLD, 128 * 1024);
    }
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time consumed by the whole process (user + system, all threads),
/// in nanoseconds.
pub fn process_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable timespec for the whole call and
    // the clock id is a constant Linux defines for every process.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(
        rc, 0,
        "CLOCK_PROCESS_CPUTIME_ID is always readable on Linux"
    );
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kib| kib / 1024.0)
        .unwrap_or(0.0)
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}
