//! Criterion micro-benchmarks for the CDCL solver and the automaton encoding.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use tracelearn_core::encoding::AutomatonEncoder;
use tracelearn_core::{Learner, LearnerConfig, PredId};
use tracelearn_sat::{Cnf, Lit, Solver};
use tracelearn_trace::{unique_windows, Trace};
use tracelearn_workloads::{counter, Workload};

/// The unique length-3 windows of the predicate sequence the learner
/// extracts from `trace`.
fn learned_windows(trace: &Trace) -> Vec<Vec<PredId>> {
    let model = Learner::new(LearnerConfig::default().with_window(3))
        .learn(trace)
        .expect("learnable");
    unique_windows(model.predicate_sequence(), 3)
}

/// A pigeonhole instance: the classic hard UNSAT family, exercising conflict
/// analysis and clause learning.
fn pigeonhole_cnf(pigeons: usize) -> Cnf {
    let holes = pigeons - 1;
    let mut cnf = Cnf::new();
    let vars: Vec<Vec<_>> = (0..pigeons).map(|_| cnf.new_vars(holes)).collect();
    for pigeon in &vars {
        cnf.at_least_one(&pigeon.iter().map(|&v| Lit::positive(v)).collect::<Vec<_>>());
    }
    for a in 0..pigeons {
        for b in (a + 1)..pigeons {
            for (&va, &vb) in vars[a].iter().zip(&vars[b]) {
                cnf.add_clause([Lit::negative(va), Lit::negative(vb)]);
            }
        }
    }
    cnf
}

fn bench_pigeonhole(c: &mut Criterion) {
    let mut group = c.benchmark_group("sat/pigeonhole");
    for pigeons in [6usize, 7, 8] {
        let cnf = pigeonhole_cnf(pigeons);
        group.bench_with_input(BenchmarkId::from_parameter(pigeons), &cnf, |b, cnf| {
            b.iter(|| Solver::from_cnf(std::hint::black_box(cnf)).solve())
        });
    }
    group.finish();
}

/// Solving the automaton-existence encoding for the counter's unique windows
/// at increasing state counts — the inner loop of model construction.
fn bench_automaton_encoding(c: &mut Criterion) {
    let trace = counter::generate(&counter::CounterConfig {
        threshold: 64,
        length: 512,
    });
    let windows = learned_windows(&trace);
    let mut group = c.benchmark_group("sat/automaton_encoding");
    for states in [2usize, 4, 6] {
        let encoder = AutomatonEncoder::new(windows.clone(), states);
        group.bench_with_input(
            BenchmarkId::from_parameter(states),
            &encoder,
            |b, encoder| {
                b.iter(|| {
                    let encoding = encoder.encode();
                    Solver::from_cnf(&encoding.cnf).solve()
                })
            },
        );
    }
    group.finish();
}

/// Encoding size/solve time for the USB attach benchmark at its paper length,
/// the most alphabet-rich of the event workloads.
fn bench_usb_attach_encoding(c: &mut Criterion) {
    let windows = learned_windows(&Workload::UsbAttach.generate(259));
    c.bench_function("sat/usb_attach_windows_7_states", |b| {
        let encoder = AutomatonEncoder::new(windows.clone(), 7);
        b.iter(|| {
            let encoding = encoder.encode();
            Solver::from_cnf(&encoding.cnf).solve()
        })
    });
}

criterion_group!(
    benches,
    bench_pigeonhole,
    bench_automaton_encoding,
    bench_usb_attach_encoding
);
criterion_main!(benches);
