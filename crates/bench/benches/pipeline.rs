//! Criterion benchmarks over the full EigenMaps pipeline on a reduced
//! UltraSPARC T1 configuration: per-snapshot reconstruction latency (the
//! cost a DTM loop pays at run time) and the design-time layers, one group
//! each: the dataset build, the basis fit and sensor allocation. The
//! thermal simulator's step is benched in `kernels.rs` (`transient_step`).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use eigenmaps_core::prelude::*;
use eigenmaps_floorplan::prelude::*;

struct Setup {
    ensemble: MapEnsemble,
    basis: EigenBasis,
}

fn setup() -> Setup {
    let dataset = DatasetBuilder::ultrasparc_t1()
        .grid(28, 30)
        .snapshots(300)
        .settle_steps(20)
        .seed(42)
        .build()
        .expect("dataset generation");
    let ensemble = dataset.ensemble().clone();
    let basis = EigenBasis::fit(&ensemble, 32).expect("PCA fit");
    Setup { ensemble, basis }
}

fn bench_reconstruction_latency(c: &mut Criterion) {
    let s = setup();
    let mut group = c.benchmark_group("reconstruction_per_snapshot");
    for &m in &[8usize, 16, 32] {
        let basis = s.basis.truncated(m).unwrap();
        let d = Pipeline::new(&s.ensemble)
            .fitted_basis(basis)
            .sensors(m)
            .design()
            .unwrap();
        let map = s.ensemble.map(100);
        let readings = d.sensors().sample(&map);
        group.bench_with_input(BenchmarkId::new("eigenmaps", m), &d, |bch, d| {
            bch.iter(|| black_box(d.reconstruct(black_box(&readings)).unwrap()))
        });

        // Symmetric energy-center layouts can alias low-order DCT atoms;
        // step the design k down to the largest observable subspace, as
        // the real k-LSE pipeline does (the allocator ignores the basis,
        // so the sensors are unchanged).
        let dd = (1..=m)
            .rev()
            .find_map(|k| {
                Pipeline::new(&s.ensemble)
                    .basis(BasisSpec::Dct { k })
                    .allocator(AllocatorSpec::EnergyCenter)
                    .sensors(m)
                    .design()
                    .ok()
            })
            .expect("some DCT dimension is observable");
        let dreadings = dd.sensors().sample(&map);
        group.bench_with_input(BenchmarkId::new("klse", m), &dd, |bch, dd| {
            bch.iter(|| black_box(dd.reconstruct(black_box(&dreadings)).unwrap()))
        });
    }
    group.finish();
}

fn bench_design(c: &mut Criterion) {
    let s = setup();
    let mut group = c.benchmark_group("pipeline_design");
    group.sample_size(10);
    let m = 16;
    // Design-time cost for a fixed prefitted basis: activity map +
    // allocation (the dominant term) + sensing-matrix SVD/QR.
    let basis = s.basis.truncated(m).unwrap();
    group.bench_function("greedy_840_cells_m16", |bch| {
        bch.iter(|| {
            black_box(
                Pipeline::new(&s.ensemble)
                    .fitted_basis(basis.clone())
                    .allocator(AllocatorSpec::Greedy(GreedyAllocator::new()))
                    .sensors(m)
                    .design()
                    .unwrap(),
            )
        })
    });
    group.bench_function("energy_center_840_cells_m16", |bch| {
        bch.iter(|| {
            black_box(
                Pipeline::new(&s.ensemble)
                    .fitted_basis(basis.clone())
                    .allocator(AllocatorSpec::EnergyCenter)
                    .sensors(m)
                    .design()
                    .unwrap(),
            )
        })
    });
    group.finish();
}

/// The design-time dataset at the serving benchmark's shape: 28×30 grid,
/// 300 snapshots after the default warm-up.
fn bench_dataset_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("dataset_build");
    group.sample_size(10);
    group.bench_function("28x30x300", |bch| {
        bch.iter(|| {
            black_box(
                DatasetBuilder::ultrasparc_t1()
                    .grid(28, 30)
                    .snapshots(300)
                    .build()
                    .unwrap(),
            )
        })
    });
    group.finish();
}

fn bench_basis_fit(c: &mut Criterion) {
    let s = setup();
    let mut group = c.benchmark_group("eigenbasis_fit_840cells");
    group.sample_size(10);
    for &k in &[8usize, 16, 32] {
        group.bench_with_input(BenchmarkId::from_parameter(k), &k, |bch, &k| {
            bch.iter(|| black_box(EigenBasis::fit(&s.ensemble, k).unwrap()))
        });
    }
    group.finish();
}

criterion_group!(
    pipeline,
    bench_reconstruction_latency,
    bench_dataset_build,
    bench_design,
    bench_basis_fit
);
criterion_main!(pipeline);
