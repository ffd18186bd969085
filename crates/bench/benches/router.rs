//! LinQ routing (Algorithm 1 + Eq. 1) of the 16-qubit RCS and QFT-64
//! benchmarks.
//!
//! Run with: `cargo bench -p tilt-bench --bench router`

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use tilt_benchmarks::qft::qft64;
use tilt_benchmarks::rcs::random_circuit_sampling;
use tilt_circuit::Circuit;
use tilt_compiler::decompose::decompose;
use tilt_compiler::mapping::InitialMapping;
use tilt_compiler::{DeviceSpec, RouterKind};

fn bench_workload(c: &mut Criterion, name: &str, circuit: &Circuit, head: usize) {
    let native = decompose(circuit);
    let spec = DeviceSpec::new(native.n_qubits(), head).unwrap();
    let initial = InitialMapping::Identity.build(&native, spec.n_ions());
    let mut group = c.benchmark_group(format!("router_{name}"));
    group.sample_size(10);
    group.bench_function("linq", |b| {
        b.iter(|| {
            RouterKind::default()
                .route(black_box(&native), spec, &initial)
                .expect("benchmark workloads route")
        });
    });
    group.finish();
}

fn bench_rcs16(c: &mut Criterion) {
    bench_workload(c, "rcs16_head4", &random_circuit_sampling(4, 4, 16, 7), 4);
}

fn bench_qft64(c: &mut Criterion) {
    bench_workload(c, "qft64_head16", &qft64(), 16);
}

criterion_group!(benches, bench_rcs16, bench_qft64);
criterion_main!(benches);
