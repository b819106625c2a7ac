//! Host-side probes: heap allocations, thread CPU time and resident memory.
//!
//! These read the process from outside the program under test; nothing in
//! the simulated system knows they exist.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// A global allocator that counts every allocation (including reallocs)
/// and forwards to the system allocator.
pub struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counter is a plain
// statistic that publishes no other data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

/// Heap allocations made by the process so far.
pub fn allocs() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads the 64-bit Linux `struct timespec` and /proc/self");

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// Linux's `CLOCK_THREAD_CPUTIME_ID`.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// CPU time consumed by the calling thread, in nanoseconds. The simulator
/// runs every simulated machine on this one thread, so this is the host
/// cost of the simulation minus time the thread spent descheduled.
pub fn thread_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two `i64`s on the
    // 64-bit Linux targets this benchmark builds for) that outlives the call.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// A `kB` field of `/proc/self/status` (`VmRSS`, `VmHWM`), in KiB.
fn status_kb(field: &str) -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or_else(|| panic!("/proc/self/status has no {field} line"))
}

/// Current resident set size, in KiB.
pub fn rss_kb() -> u64 {
    status_kb("VmRSS")
}

/// Peak resident set size so far, in KiB.
pub fn peak_rss_kb() -> u64 {
    status_kb("VmHWM")
}

/// Inputs of the reference work, built once per thread.
struct Reference {
    map: std::collections::BTreeMap<u64, u64>,
    probes: Vec<u64>,
    unsorted: Vec<u64>,
    sorted: Vec<u64>,
}

impl Reference {
    fn new() -> Reference {
        let mix = |i: u64| {
            (i ^ 0x5bd1_e995)
                .wrapping_mul(0x2545_f491_4f6c_dd1d)
                .rotate_left(29)
        };
        let unsorted: Vec<u64> = (0..100_000).map(mix).collect();
        Reference {
            map: (0..200_000).map(|i| (mix(i + 7), i)).collect(),
            probes: (0..60_000).map(|i| mix(i + 1_000_003)).collect(),
            sorted: unsorted.clone(),
            unsorted,
        }
    }
}

thread_local! {
    static REFERENCE: std::cell::RefCell<Option<Reference>> = const { std::cell::RefCell::new(None) };
}

/// CPU ns of a fixed piece of host work: ordered-map lookups (pointer
/// chasing over ~10 MB) and a sort, the kinds of work the simulator spends
/// its time in. It allocates nothing once its inputs exist (the first call
/// builds them), so nothing in the program under test can change its
/// cost: it measures how fast this machine is running right now.
pub fn reference_ns() -> u64 {
    REFERENCE.with(|r| {
        let mut r = r.borrow_mut();
        let r = r.get_or_insert_with(Reference::new);
        let t0 = thread_cpu_ns();
        let mut sum = 0u64;
        for p in &r.probes {
            sum = sum.wrapping_add(r.map.range(p..).next().map_or(1, |(_, v)| *v));
        }
        r.sorted.copy_from_slice(&r.unsorted);
        r.sorted.sort_unstable();
        std::hint::black_box((sum, &r.sorted));
        thread_cpu_ns() - t0
    })
}

/// Mean of `n` [`reference_ns`] runs.
pub fn reference_mean_ns(n: u32) -> f64 {
    (0..n).map(|_| reference_ns() as f64).sum::<f64>() / n as f64
}
