//! Algorithm-2 scheduling of routed workloads: the 16-qubit RCS
//! benchmark, and QFT-32 for the many-position regime.
//!
//! Run with: `cargo bench -p tilt-bench --bench scheduler`

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use tilt_benchmarks::qft::qft;
use tilt_benchmarks::rcs::random_circuit_sampling;
use tilt_circuit::Circuit;
use tilt_compiler::decompose::decompose;
use tilt_compiler::mapping::InitialMapping;
use tilt_compiler::schedule::{schedule, SchedulerKind};
use tilt_compiler::{DeviceSpec, RouterKind};

fn bench_workload(c: &mut Criterion, name: &str, circuit: &Circuit, head: usize) {
    let spec = DeviceSpec::new(circuit.n_qubits(), head).unwrap();
    let native = decompose(circuit);
    let initial = InitialMapping::Identity.build(&native, spec.n_ions());
    let routed = RouterKind::default()
        .route(&native, spec, &initial)
        .expect("bench workloads route");
    let lowered = decompose(&routed.circuit);
    let mut group = c.benchmark_group(format!("scheduler_{name}"));
    group.sample_size(10);
    group.bench_function("greedy", |b| {
        b.iter(|| {
            schedule(
                black_box(&lowered),
                spec,
                SchedulerKind::GreedyMaxExecutable,
            )
        });
    });
    group.finish();
}

fn bench_rcs16(c: &mut Criterion) {
    bench_workload(c, "rcs16_head4", &random_circuit_sampling(4, 4, 16, 7), 4);
}

fn bench_qft32(c: &mut Criterion) {
    bench_workload(c, "qft32_head8", &qft(32), 8);
}

criterion_group!(benches, bench_rcs16, bench_qft32);
criterion_main!(benches);
