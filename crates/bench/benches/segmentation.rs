//! Criterion benchmarks of the segmentation effect (Fig. 7 / Table I at
//! micro-benchmark scale): learning the integrator model with and without
//! segmentation for growing trace lengths.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use tracelearn_bench::{learner_config_for, table1_config_for};
use tracelearn_core::Learner;
use tracelearn_trace::unique_windows;
use tracelearn_workloads::Workload;

fn bench_segmented_vs_full(c: &mut Criterion) {
    let mut group = c.benchmark_group("segmentation/integrator");
    group.sample_size(10);
    for exponent in [7u32, 8, 9] {
        let length = 1usize << exponent;
        let trace = Workload::Integrator.generate(length);
        let segmented = Learner::new(table1_config_for(Workload::Integrator, true, 2));
        let full = Learner::new(table1_config_for(Workload::Integrator, false, 2));
        group.bench_with_input(BenchmarkId::new("segmented", length), &trace, |b, trace| {
            b.iter(|| {
                segmented
                    .learn(std::hint::black_box(trace))
                    .expect("learnable")
            })
        });
        group.bench_with_input(
            BenchmarkId::new("full_trace", length),
            &trace,
            |b, trace| b.iter(|| full.learn(std::hint::black_box(trace)).expect("learnable")),
        );
    }
    group.finish();
}

/// Unique-window extraction itself: how much the predicate sequence shrinks.
fn bench_unique_windows(c: &mut Criterion) {
    let trace = Workload::Integrator.generate(4096);
    let model = Learner::new(learner_config_for(Workload::Integrator))
        .learn(&trace)
        .expect("learnable");
    let sequence = model.predicate_sequence();
    c.bench_function("segmentation/unique_windows_4096", |b| {
        b.iter(|| unique_windows(std::hint::black_box(sequence), 3))
    });
}

criterion_group!(benches, bench_segmented_vs_full, bench_unique_windows);
criterion_main!(benches);
