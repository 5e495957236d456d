//! Dynamic evidence for the `hot-path-alloc` entries `Cnf::add_clause` and
//! `Solver::add_clause`: building one state count's formula with
//! `AutomatonEncoder::encode_base` and loading it with `Solver::from_cnf`
//! allocate when a buffer grows, not once per clause. A counting
//! `#[global_allocator]` wraps the system allocator for this test binary
//! only; the binary holds exactly one test so no parallel test can pollute
//! the counters.
//!
//! The bounds are asserted in release mode (the CI release suite); debug
//! builds still execute the test but only report the counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use tracelearn::learn::encoding::AutomatonEncoder;
use tracelearn::learn::{Learner, LearnerConfig};
use tracelearn::sat::Solver;
use tracelearn::trace::unique_windows;
use tracelearn::workloads::Workload;

/// Counts allocator entries while `COUNTING` is set.
struct CountingAllocator;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Runs `call` and returns its result with the allocations and
/// reallocations it made.
fn counted<T>(call: impl FnOnce() -> T) -> (T, u64) {
    ALLOCATIONS.store(0, Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    let result = call();
    COUNTING.store(false, Ordering::SeqCst);
    (result, ALLOCATIONS.load(Ordering::SeqCst))
}

/// The most allocations one `encode_base` call may make: a few for the
/// encoding's own parts, the rest for the growth of the formula's two
/// buffers.
const ENCODE_BOUND: u64 = 64;

#[test]
fn encoding_and_loading_allocate_per_buffer_not_per_clause() {
    const WINDOW: usize = 3;
    for (workload, states) in [(Workload::LinuxKernel, 5), (Workload::UsbAttach, 7)] {
        let trace = workload.generate(workload.paper_trace_length());
        let model = Learner::new(LearnerConfig::default().with_window(WINDOW))
            .learn(&trace)
            .unwrap();
        let windows = unique_windows(model.predicate_sequence(), WINDOW);
        let mut encoder = AutomatonEncoder::new(windows, states);

        let (encoding, encode_allocations) = counted(|| encoder.encode_base());
        let (solver, load_allocations) = counted(|| Solver::from_cnf(&encoding.cnf));
        let clauses = encoding.cnf.num_clauses() as u64;
        assert_eq!(solver.num_vars(), encoding.cnf.num_vars());
        assert!(clauses > 1_000, "{workload:?}: only {clauses} clauses");

        let report = format!(
            "{workload:?} at {states} states ({clauses} clauses): encode_base made \
             {encode_allocations} allocations, Solver::from_cnf {load_allocations}"
        );
        if cfg!(debug_assertions) {
            eprintln!("debug build: {report}");
        } else {
            assert!(encode_allocations <= ENCODE_BOUND, "{report}");
            assert!(load_allocations < clauses, "{report}");
        }
    }
}
