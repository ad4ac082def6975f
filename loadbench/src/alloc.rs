//! The benchmark's own counting global allocator: the system allocator
//! with an allocation counter, live bytes and a resettable high-water
//! mark on top. Kept apart from the library crates so that they stay
//! uninstrumented.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};

pub struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every method defers to `System` with the caller's arguments
// unchanged; the counter updates are relaxed atomic arithmetic and
// allocate nothing.
// lint: allow(unsafe-pool) reason="GlobalAlloc is an unsafe trait; the counting allocator lives only in the benchmark binary so library code stays uninstrumented"
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: same contract as `System::alloc`, to which this defers.
    // lint: allow(unsafe-pool) reason="required signature of the GlobalAlloc trait"
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            ALLOCATIONS.fetch_add(1, Relaxed);
            grow(layout.size());
        }
        ptr
    }

    // SAFETY: same contract as `System::alloc_zeroed`, to which this
    // defers (calloc keeps large zeroed buffers as cheap as unmeasured).
    // lint: allow(unsafe-pool) reason="required signature of the GlobalAlloc trait"
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            ALLOCATIONS.fetch_add(1, Relaxed);
            grow(layout.size());
        }
        ptr
    }

    // SAFETY: same contract as `System::realloc`; `ptr` and `layout` are
    // passed through untouched, so in-place growth stays available.
    // lint: allow(unsafe-pool) reason="required signature of the GlobalAlloc trait"
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let moved = System.realloc(ptr, layout, new_size);
        if !moved.is_null() {
            ALLOCATIONS.fetch_add(1, Relaxed);
            LIVE.fetch_sub(layout.size(), Relaxed);
            grow(new_size);
        }
        moved
    }

    // SAFETY: same contract as `System::dealloc`; `ptr` is passed
    // through untouched.
    // lint: allow(unsafe-pool) reason="required signature of the GlobalAlloc trait"
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Relaxed);
        System.dealloc(ptr, layout)
    }
}

/// Allocation events so far (alloc, zeroed alloc and realloc).
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Relaxed)
}

/// Heap bytes currently allocated.
pub fn live_bytes() -> usize {
    LIVE.load(Relaxed)
}

/// Highest live-bytes value since the last [`reset_peak`].
pub fn peak_bytes() -> usize {
    PEAK.load(Relaxed)
}

/// Restarts the high-water mark from the current live bytes.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Relaxed), Relaxed);
}
