//! A counting global allocator shared by the codec test binaries: each
//! installs it with `#[global_allocator]` and brackets the code under test
//! with [`measure`]. Counts are per thread, so the test harness's parallel
//! test threads do not disturb each other.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static CALLS: Cell<usize> = const { Cell::new(0) };
    static BYTES: Cell<usize> = const { Cell::new(0) };
}

/// The system allocator, counting every `alloc`/`alloc_zeroed`/`realloc`
/// call and the bytes each asks for.
pub struct CountingAlloc;

fn count(bytes: usize) {
    // `try_with`: the allocator also runs while a thread's locals are torn
    // down, when there is nothing left to count into.
    let _ = CALLS.try_with(|c| c.set(c.get() + 1));
    let _ = BYTES.try_with(|b| b.set(b.get() + bytes));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counting touches only `Cell`s in
// const-initialised thread locals, which neither allocate nor unwind.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr` and `layout` come from this allocator, i.e. from
        // `System`, and are passed through as received.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// What one [`measure`]d closure asked of the allocator.
#[derive(Debug, Clone, Copy)]
pub struct Allocations {
    /// Allocator calls (`alloc`, `alloc_zeroed`, `realloc`).
    pub calls: usize,
    /// Sum of the sizes those calls asked for.
    pub bytes: usize,
}

/// Runs `f` and reports the allocations this thread made meanwhile.
pub fn measure<R>(f: impl FnOnce() -> R) -> (R, Allocations) {
    let (calls, bytes) = (CALLS.with(Cell::get), BYTES.with(Cell::get));
    let result = f();
    let made = Allocations {
        calls: CALLS.with(Cell::get) - calls,
        bytes: BYTES.with(Cell::get) - bytes,
    };
    (result, made)
}
