//! End-to-end integration tests spanning every crate: floorplan → thermal
//! simulation → PCA → sensor allocation → reconstruction → metrics, all
//! through the `Pipeline`/`Deployment` lifecycle API.
//!
//! These run on reduced grids so the whole suite stays fast, but exercise
//! the exact code paths of the paper-scale experiments.

use eigenmaps::core::prelude::*;
use eigenmaps::floorplan::prelude::*;

/// Shared small dataset (generated once; the thermal sim is the slow part).
fn dataset() -> &'static ThermalDataset {
    use std::sync::OnceLock;
    static DATA: OnceLock<ThermalDataset> = OnceLock::new();
    DATA.get_or_init(|| {
        DatasetBuilder::ultrasparc_t1()
            .grid(14, 15)
            .snapshots(240)
            .settle_steps(60)
            .seed(13)
            .build()
            .expect("dataset generation")
    })
}

/// Designs a greedy EigenMaps deployment over a prefitted (truncated) basis.
fn deploy(basis: &EigenBasis, ens: &MapEnsemble, m: usize, mask: &Mask) -> Deployment {
    Pipeline::new(ens)
        .fitted_basis(basis.clone())
        .allocator(AllocatorSpec::Greedy(GreedyAllocator::new()))
        .mask(mask.clone())
        .sensors(m)
        .design()
        .expect("design")
}

#[test]
fn full_pipeline_reconstructs_below_one_degree_mse() {
    let ens = dataset().ensemble();
    let d = Pipeline::new(ens)
        .basis(BasisSpec::Eigen { k: 8 })
        .sensors(8)
        .design()
        .unwrap();
    let rep = d.evaluate_on(ens, NoiseSpec::None, 1).unwrap();
    assert!(rep.mse < 1.0, "pipeline MSE {} °C² too high", rep.mse);
    assert!(rep.max < 25.0, "pipeline MAX {} °C² too high", rep.max);
}

#[test]
fn reconstruction_error_tracks_approximation_error() {
    // Sec. 5.1: "the reconstruction error is approximately decaying as
    // fast as the approximation error". Check ordering + closeness in the
    // noiseless case.
    let ens = dataset().ensemble();
    let basis_full = EigenBasis::fit(ens, 12).unwrap();
    let mask = Mask::all_allowed(ens.rows(), ens.cols());
    for k in [4usize, 8, 12] {
        let basis = basis_full.truncated(k).unwrap();
        let approx = evaluate_approximation(&basis, ens).unwrap();
        let d = deploy(&basis, ens, k, &mask);
        let recon = d.evaluate_on(ens, NoiseSpec::None, 1).unwrap();
        // Reconstruction can never beat the subspace it lives in...
        assert!(recon.mse >= approx.mse * 0.99, "k={k}");
        // ...but with well-conditioned sensing it stays within a small
        // multiple of it.
        assert!(
            recon.mse <= approx.mse * 30.0 + 1e-12,
            "k={k}: recon {} vs approx {}",
            recon.mse,
            approx.mse
        );
    }
}

#[test]
fn eigenmaps_beats_klse_on_the_t1_dataset() {
    // The paper's core comparative claim, end to end.
    let ens = dataset().ensemble();
    let m = 12;
    let mask = Mask::all_allowed(ens.rows(), ens.cols());

    let eig = Pipeline::new(ens)
        .basis(BasisSpec::Eigen { k: m })
        .mask(mask.clone())
        .sensors(m)
        .design()
        .unwrap()
        .evaluate_on(ens, NoiseSpec::None, 1)
        .unwrap();

    // k-LSE: DCT basis + energy-center placement; pick its best k ≤ m by
    // truncating one DCT deployment (the allocator ignores the basis, so
    // the sensors are the same whichever design k is observable).
    let dct_full = (1..=m)
        .rev()
        .find_map(|k| {
            Pipeline::new(ens)
                .basis(BasisSpec::Dct { k })
                .allocator(AllocatorSpec::EnergyCenter)
                .mask(mask.clone())
                .sensors(m)
                .design()
                .ok()
        })
        .expect("some DCT dimension is observable");
    let mut best_klse = f64::INFINITY;
    for k in 1..=dct_full.k() {
        let d = match dct_full.truncated(k) {
            Ok(d) => d,
            Err(_) => continue,
        };
        let rep = d.evaluate_on(ens, NoiseSpec::None, 1).unwrap();
        best_klse = best_klse.min(rep.mse);
    }
    assert!(
        eig.mse < best_klse / 3.0,
        "EigenMaps {} not clearly better than k-LSE {}",
        eig.mse,
        best_klse
    );
}

#[test]
fn noise_degrades_gracefully_not_catastrophically() {
    // Theorem 1 stability: at decent SNR, error stays bounded by a modest
    // multiple of the noiseless error.
    let ens = dataset().ensemble();
    let basis = EigenBasis::fit(ens, 6).unwrap();
    let mask = Mask::all_allowed(ens.rows(), ens.cols());
    let d = deploy(&basis, ens, 12, &mask);
    let clean = d.evaluate_on(ens, NoiseSpec::None, 1).unwrap();
    let noisy = d.evaluate_on(ens, NoiseSpec::SnrDb(30.0), 1).unwrap();
    assert!(noisy.mse > clean.mse);
    assert!(
        noisy.mse < clean.mse * 100.0 + 0.5,
        "30 dB noise exploded the error: {} vs {}",
        noisy.mse,
        clean.mse
    );
    // κ of the greedy layout must be modest — that is the whole point.
    assert!(d.condition_number() < 50.0, "κ = {}", d.condition_number());
}

#[test]
fn constrained_allocation_degrades_only_slightly() {
    // Fig. 6's claim, end to end: forbidding the cache banks should not
    // blow up the error.
    let ens = dataset().ensemble();
    let basis = EigenBasis::fit(ens, 10).unwrap();
    let free = Mask::all_allowed(ens.rows(), ens.cols());
    let constrained = Mask::all_allowed(ens.rows(), ens.cols())
        .forbid_rects(&dataset().floorplan().rects_of_kind(BlockKind::L2Cache));
    assert!(constrained.allowed_count() < free.allowed_count());

    let d_free = deploy(&basis, ens, 10, &free);
    let d_con = deploy(&basis, ens, 10, &constrained);
    assert!(d_con.sensors().respects(&constrained));

    let e_free = d_free.evaluate_on(ens, NoiseSpec::None, 1).unwrap();
    let e_con = d_con.evaluate_on(ens, NoiseSpec::None, 1).unwrap();
    assert!(
        e_con.mse < e_free.mse * 20.0 + 1e-9,
        "constrained MSE {} vs free {}",
        e_con.mse,
        e_free.mse
    );
}

#[test]
fn deployment_artifact_roundtrip_through_disk() {
    // Design on simulated data, ship the artifact, reload it: identical
    // sensors and bitwise-identical reconstruction.
    let ens = dataset().ensemble();
    let d = Pipeline::new(ens)
        .basis(BasisSpec::Eigen { k: 6 })
        .sensors(8)
        .noise(NoiseSpec::snr_db(30.0))
        .design()
        .unwrap();
    let path = std::env::temp_dir().join(format!(
        "eigenmaps-integration-deployment-{}.emd",
        std::process::id()
    ));
    d.save(&path).unwrap();
    let back = Deployment::load(&path).unwrap();
    std::fs::remove_file(&path).ok();

    assert_eq!(back.sensors(), d.sensors());
    assert_eq!(back.k(), d.k());
    assert_eq!(back.noise(), NoiseSpec::SnrDb(30.0));
    for t in [0, 100, 200] {
        let readings = d.sensors().sample(&ens.map(t));
        assert_eq!(
            d.reconstruct(&readings).unwrap().as_slice(),
            back.reconstruct(&readings).unwrap().as_slice(),
            "t = {t}"
        );
    }
}

#[test]
fn batched_serving_matches_per_frame_bitwise_on_1k_frames() {
    // The serving hot path: ≥1k frames through reconstruct_batch must be
    // bitwise-identical to the per-frame path.
    let ens = dataset().ensemble();
    let d = Pipeline::new(ens)
        .basis(BasisSpec::Eigen { k: 8 })
        .sensors(10)
        .design()
        .unwrap();
    let mut noise = NoiseModel::new(0xBA7C);
    let frames: Vec<Vec<f64>> = (0..1024)
        .map(|t| {
            let map = ens.map(t % ens.len());
            noise.apply_sigma(&d.sensors().sample(&map), 0.2)
        })
        .collect();
    let batch = d.reconstruct_batch(&frames).unwrap();
    assert_eq!(batch.len(), frames.len());
    for (frame, map) in frames.iter().zip(batch.iter()) {
        let single = d.reconstruct(frame).unwrap();
        assert_eq!(single.as_slice(), map.as_slice());
    }
}

#[test]
fn pipeline_rejects_invalid_specs_with_typed_errors() {
    let ens = dataset().ensemble();
    // k > cells.
    assert!(matches!(
        Pipeline::new(ens)
            .basis(BasisSpec::Eigen { k: ens.cells() + 1 })
            .sensors(ens.cells() + 1)
            .design(),
        Err(CoreError::InvalidArgument { .. })
    ));
    // m < k.
    assert!(matches!(
        Pipeline::new(ens)
            .basis(BasisSpec::Eigen { k: 8 })
            .sensors(4)
            .design(),
        Err(CoreError::InsufficientSensors { .. })
    ));
    // Mask tighter than the budget.
    assert!(matches!(
        Pipeline::new(ens)
            .sensors(4)
            .mask(Mask::all_allowed(ens.rows(), ens.cols()).forbid_rects(&[(0.0, 0.0, 1.0, 1.0)]))
            .design(),
        Err(CoreError::MaskTooRestrictive { .. })
    ));
}

#[test]
fn tradeoff_search_runs_on_simulated_data() {
    let ens = dataset().ensemble();
    let mask = Mask::all_allowed(ens.rows(), ens.cols());
    let sweep = optimal_k(
        ens,
        &GreedyAllocator::new(),
        8,
        &mask,
        NoiseSpec::SnrDb(20.0),
        3,
    )
    .unwrap();
    assert!(!sweep.points.is_empty());
    let best = sweep.best_point();
    assert!(best.k >= 1 && best.k <= 8);
    assert!(best.report.mse.is_finite());
}

#[test]
fn facade_reexports_work_together() {
    // The `eigenmaps` facade must expose a coherent API across crates.
    use eigenmaps::linalg::Matrix;
    let m = Matrix::identity(3);
    assert_eq!(m.rows(), 3);
    let map = eigenmaps::core::ThermalMap::from_fn(2, 2, |r, c| (r + c) as f64);
    assert_eq!(map.len(), 4);
    let fp = eigenmaps::floorplan::Floorplan::ultrasparc_t1();
    assert_eq!(
        fp.blocks_of_kind(eigenmaps::floorplan::BlockKind::Core)
            .len(),
        8
    );
    let grid = eigenmaps::thermal::GridSpec::new(4, 4, 1e-3, 1e-3);
    assert_eq!(grid.cells(), 16);
}
