//! Kernel-dispatch integration tests on the serving-fleet workload: the
//! UltraSPARC T1 dataset of `examples/serving_fleet.rs`, served through
//! the sharded runtime under every forced synthesis backend.
//!
//! Two contracts are asserted:
//!
//! * **per-backend bitwise identity** — for any one forced backend,
//!   sharded execution equals the sequential batch (and the per-frame
//!   path) bit for bit, at every shard count and batch size, including
//!   batches smaller than the kernel's lane/block widths;
//! * **cross-backend tolerance** — the SIMD backends agree with the
//!   scalar oracle within `1e-10` relative on every cell of every frame.

use std::sync::Arc;

use eigenmaps_core::prelude::*;
use eigenmaps_floorplan::prelude::*;
use eigenmaps_serve::ShardedExecutor;

const ROWS: usize = 14;
const COLS: usize = 15;

/// The serving_fleet design: an UltraSPARC T1 ensemble, `Eigen { k = m }`
/// deployment, plus `frames` noisy reading vectors.
fn fleet_workload(frames: usize) -> (Deployment, Vec<Vec<f64>>) {
    let dataset = DatasetBuilder::ultrasparc_t1()
        .grid(ROWS, COLS)
        .snapshots(120)
        .settle_steps(20)
        .seed(21)
        .build()
        .expect("dataset generation");
    let ensemble = dataset.ensemble();
    let deployment = Pipeline::new(ensemble)
        .basis(BasisSpec::Eigen { k: 8 })
        .sensors(8)
        .noise(NoiseSpec::sigma(0.2))
        .design()
        .expect("design");
    let mut noise = NoiseModel::new(0xF1EE7);
    let frames: Vec<Vec<f64>> = (0..frames)
        .map(|t| {
            let map = ensemble.map(t % ensemble.len());
            noise.apply_sigma(&deployment.sensors().sample(&map), 0.2)
        })
        .collect();
    (deployment, frames)
}

fn max_rel_diff(a: &[ThermalMap], b: &[ThermalMap]) -> f64 {
    let mut worst = 0.0f64;
    for (ma, mb) in a.iter().zip(b.iter()) {
        for (&x, &y) in ma.as_slice().iter().zip(mb.as_slice().iter()) {
            worst = worst.max((x - y).abs() / x.abs().max(y.abs()).max(1.0));
        }
    }
    worst
}

#[test]
fn all_backends_agree_on_the_serving_fleet_workload() {
    let (deployment, frames) = fleet_workload(257);
    let frames = Arc::new(frames);

    let mut per_backend: Vec<(KernelKind, Vec<ThermalMap>)> = Vec::new();
    for kind in KernelKind::available() {
        let forced = Arc::new(deployment.clone().with_kernel(kind).unwrap());
        assert_eq!(forced.kernel_kind(), kind);
        let sequential = forced.reconstruct_batch(&frames).unwrap();

        // Per-backend bitwise identity: sharding never changes an answer.
        for shards in [1usize, 3, 4] {
            let executor = ShardedExecutor::new(shards);
            let sharded = executor.execute(&forced, &frames).unwrap();
            assert_eq!(sharded.len(), sequential.len());
            for (i, (a, b)) in sequential.iter().zip(sharded.iter()).enumerate() {
                assert_eq!(
                    a.as_slice(),
                    b.as_slice(),
                    "backend {kind}: sharded output diverged at frame {i} ({shards} shards)"
                );
            }
        }
        per_backend.push((kind, sequential));
    }

    // Cross-backend tolerance against the scalar oracle.
    let (_, scalar) = per_backend
        .iter()
        .find(|(k, _)| *k == KernelKind::Scalar)
        .expect("scalar oracle always available")
        .clone();
    for (kind, maps) in &per_backend {
        let worst = max_rel_diff(&scalar, maps);
        assert!(
            worst <= 1e-10,
            "backend {kind} diverged from scalar by {worst:e} relative"
        );
        if *kind == KernelKind::Lanes {
            // The portable lanes path is not merely close — it is the
            // same arithmetic, hence bitwise identical.
            for (a, b) in scalar.iter().zip(maps.iter()) {
                assert_eq!(a.as_slice(), b.as_slice());
            }
        }
    }

    // The two FMA backends apply the identical fused recurrence, so on a
    // host that runs both their served outputs must agree bit for bit.
    let avx2 = per_backend.iter().find(|(k, _)| *k == KernelKind::Avx2);
    let avx512 = per_backend.iter().find(|(k, _)| *k == KernelKind::Avx512);
    if let (Some((_, a)), Some((_, b))) = (avx2, avx512) {
        for (ma, mb) in a.iter().zip(b.iter()) {
            assert_eq!(
                ma.as_slice(),
                mb.as_slice(),
                "avx512 must equal avx2 bitwise"
            );
        }
    }
}

#[test]
fn batches_smaller_than_the_block_width_survive_sharding() {
    // Regression guard: shard_spans over tiny batches produces spans
    // smaller than the kernel's lane width (4) and block width (32); the
    // kernel's remainder path plus span stitching must still reproduce
    // the sequential batch bitwise, for every backend.
    let (deployment, frames) = fleet_workload(7);
    for kind in KernelKind::available() {
        let forced = Arc::new(deployment.clone().with_kernel(kind).unwrap());
        let executor = ShardedExecutor::new(8); // more shards than most batches have frames
        for take in [1usize, 2, 3, 5, 7] {
            let batch = Arc::new(frames[..take].to_vec());
            let sequential = forced.reconstruct_batch(&batch).unwrap();
            let sharded = executor.execute(&forced, &batch).unwrap();
            assert_eq!(sharded.len(), take);
            for (f, (a, b)) in sequential.iter().zip(sharded.iter()).enumerate() {
                assert_eq!(
                    a.as_slice(),
                    b.as_slice(),
                    "backend {kind}, {take}-frame batch, frame {f}"
                );
            }
            // And the per-frame path agrees bitwise too.
            for (f, readings) in frames[..take].iter().enumerate() {
                let single = forced.reconstruct(readings).unwrap();
                assert_eq!(
                    single.as_slice(),
                    sharded.iter().nth(f).unwrap().as_slice(),
                    "frame {f}"
                );
            }
        }
    }
}

#[test]
fn detected_backend_is_what_the_fleet_executes() {
    // The diagnostic surface: a freshly designed deployment reports the
    // host-detected backend; publishing bytes re-detects (the artifact
    // stores no backend); forcing before publishing is what workers run.
    let (deployment, frames) = fleet_workload(16);
    assert_eq!(deployment.kernel_kind(), KernelKind::detect());

    let reloaded = Deployment::from_bytes(&deployment.to_bytes()).unwrap();
    assert_eq!(reloaded.kernel_kind(), KernelKind::detect());

    let forced = Arc::new(deployment.with_kernel(KernelKind::Scalar).unwrap());
    let executor = ShardedExecutor::new(2);
    let via_pool = executor
        .execute(&forced, &Arc::new(frames.clone()))
        .unwrap();
    let direct = forced.reconstruct_batch(&frames).unwrap();
    for (a, b) in direct.iter().zip(via_pool.iter()) {
        assert_eq!(a.as_slice(), b.as_slice());
    }
}
