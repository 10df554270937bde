//! Peak heap use of the SP 800-90B battery on one 2¹⁷-bit window.
//!
//! A counting global allocator tracks the bytes live at every moment.  The
//! t-tuple/LRS unit alone, and the whole battery with its worker threads, must
//! each peak at most 2 MiB above what was live before the call (the input
//! window and the test's own state).  The window is what `/selftest` audits by
//! default, so this bounds the memory each self-test adds to the server.

use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};

use ptrng::ais::estimators::{t_tuple_and_lrs_estimates, EstimatorBattery};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Forwards to the system allocator and counts live and peak bytes.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

// SAFETY: both methods forward to `System` with the caller's pointer and layout
// unchanged, so `System`'s guarantees carry over; the counters only observe sizes
// and never touch the memory.  The default `alloc_zeroed` and `realloc` go
// through these two, so a reallocation counts as the copy it may be.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            let live = LIVE.fetch_add(layout.size(), Ordering::SeqCst) + layout.size();
            PEAK.fetch_max(live, Ordering::SeqCst);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller passes a block this allocator (so `System`) returned
        // for `layout`.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::SeqCst);
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Bytes allocated at the peak of `f`, above what was live when it started.
fn peak_above_live(f: impl FnOnce()) -> usize {
    let base = LIVE.load(Ordering::SeqCst);
    PEAK.store(base, Ordering::SeqCst);
    f();
    PEAK.load(Ordering::SeqCst) - base
}

const LIMIT: usize = 2 << 20;

// One test, so no other test thread allocates while the peak is measured.
#[test]
fn tuple_unit_and_battery_peak_within_two_mib_of_the_window() {
    let mut rng = StdRng::seed_from_u64(17);
    let bits: Vec<u8> = (0..1 << 17).map(|_| rng.gen_range(0..=1u8)).collect();

    let tuple = peak_above_live(|| {
        black_box(t_tuple_and_lrs_estimates(black_box(&bits)).unwrap());
    });
    let battery = peak_above_live(|| {
        black_box(EstimatorBattery::run(black_box(&bits)).unwrap());
    });
    assert!(tuple <= LIMIT, "t-tuple/LRS peaked {tuple} B");
    assert!(battery <= LIMIT, "the battery peaked {battery} B");
}
