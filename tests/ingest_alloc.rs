//! Dynamic evidence for the `hot-path-alloc` entry `ObservationIds::lookup`:
//! once every distinct record has been seen, reading records by id with
//! `StreamingCsvReader::next_observation_id` must not touch the heap. A
//! counting `#[global_allocator]` wraps the system allocator for this test
//! binary only; the binary holds exactly one test so no parallel test can
//! pollute the counters.
//!
//! The strict zero assertion runs in release mode (the CI release suite);
//! debug builds still execute the test but only report the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::BufReader;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use tracelearn::trace::StreamingCsvReader;
use tracelearn::workloads::Workload;

/// Counts allocator entries while `COUNTING` is set.
struct CountingAllocator;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static REALLOCATIONS: AtomicU64 = AtomicU64::new(0);

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
            REALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

#[test]
fn repeated_records_read_by_id_do_not_allocate() {
    const WARMUP: usize = 10_000;
    const STEADY: usize = 10_000;
    let mut csv = Vec::new();
    Workload::LinuxKernel
        .write_csv(WARMUP + STEADY, 0xDAC2020, &mut csv)
        .expect("writing to memory cannot fail");
    // A small buffer makes some records straddle its end, so the steady
    // phase covers records handed over in place and records gathered
    // from two buffer fills.
    let source = BufReader::with_capacity(4096, csv.as_slice());
    let mut reader = StreamingCsvReader::new(source).expect("the header parses");
    for _ in 0..WARMUP {
        reader
            .next_observation_id()
            .expect("warm-up records parse")
            .expect("the warm-up records exist");
    }
    let distinct = reader.distinct_observations().len();

    ALLOCATIONS.store(0, Ordering::SeqCst);
    REALLOCATIONS.store(0, Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    let mut id_sum = 0u64;
    for _ in 0..STEADY {
        let id = reader
            .next_observation_id()
            .expect("steady records parse")
            .expect("the steady records exist");
        id_sum += u64::from(id);
    }
    COUNTING.store(false, Ordering::SeqCst);
    let allocations = ALLOCATIONS.load(Ordering::SeqCst);
    let reallocations = REALLOCATIONS.load(Ordering::SeqCst);

    assert_eq!(
        reader.distinct_observations().len(),
        distinct,
        "every steady record repeats a warm-up one"
    );
    assert!(id_sum > 0, "the steady records are not all one observation");
    assert_eq!(reader.next_observation_id(), Ok(None));
    if cfg!(debug_assertions) {
        eprintln!(
            "debug build: {allocations} allocations, {reallocations} reallocations \
             over {STEADY} repeated records"
        );
    } else {
        assert_eq!(
            (allocations, reallocations),
            (0, 0),
            "reading {STEADY} repeated records by id touched the heap"
        );
    }
}
