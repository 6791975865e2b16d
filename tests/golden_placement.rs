//! Golden sensor placements: the sensors Alg. 1 picks from the simulated
//! T1 dataset, and the condition number of their sensing matrix, pinned at
//! two shapes. Any change to the thermal simulator, the PCA fit or the
//! greedy allocator that moves a deployment shows up here.
//!
//! * perfbench's deployment: 28 × 30 grid, 300 snapshots, K = M = 16;
//! * the quick experiment harness: 28 × 30 grid, 400 snapshots, the basis
//!   fitted at K = 32 and truncated to K = M.
//!
//! The locations must match exactly; κ within 1e-9 relative, so that a
//! simulator change at rounding level (a different but exact solve) still
//! passes while a different design does not. One design at each shape is
//! also pinned bit for bit: the FNV-1a digest of its `EMDEPLOY` bytes.

use eigenmaps::core::codec::fnv1a64;
use eigenmaps::core::prelude::*;
use eigenmaps::floorplan::DatasetBuilder;

fn assert_design(label: &str, d: &Deployment, sensors: &[usize], kappa: f64) {
    assert_eq!(d.sensors().locations(), sensors, "{label}: sensors moved");
    let rel = (d.condition_number() - kappa).abs() / kappa;
    assert!(
        rel < 1e-9,
        "{label}: κ {} vs golden {kappa} (relative {rel:e})",
        d.condition_number()
    );
}

/// Asserts that `d`'s artifact bytes hash to `digest`. The design-time
/// kernels are bit for bit equal on every backend and run on one thread,
/// so the digest should not depend on the host; a failure names the
/// host's kernel and thread count in case it does.
fn assert_digest(label: &str, d: &Deployment, digest: u64) {
    let got = fnv1a64(&d.to_bytes());
    assert_eq!(
        got,
        digest,
        "{label}: EMDEPLOY digest {got:016x} vs golden {digest:016x} \
         (kernel {}, {} threads)",
        KernelKind::detect(),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
}

#[test]
fn perfbench_deployment_keeps_its_sensors() {
    let dataset = DatasetBuilder::ultrasparc_t1()
        .grid(28, 30)
        .snapshots(300)
        .build()
        .unwrap();
    let d = Pipeline::new(dataset.ensemble())
        .basis(BasisSpec::Eigen { k: 16 })
        .sensors(16)
        .design()
        .unwrap();
    assert_design(
        "28x30x300, K = M = 16",
        &d,
        &[
            18, 59, 67, 110, 309, 326, 333, 457, 493, 505, 530, 546, 718, 728, 738, 779,
        ],
        2.139_036_190_563_266_4,
    );
    assert_digest("28x30x300, K = M = 16", &d, 0x9c0a_3edf_4e57_7d44);
}

#[test]
fn quick_harness_designs_keep_their_sensors() {
    let dataset = DatasetBuilder::ultrasparc_t1()
        .grid(28, 30)
        .snapshots(400)
        .build()
        .unwrap();
    let ensemble = dataset.ensemble();
    let basis = EigenBasis::fit(ensemble, 32).unwrap();
    let mask = Mask::all_allowed(28, 30);
    let golden: [(usize, &[usize], f64); 3] = [
        (4, &[51, 112, 812, 839], 2.183_874_667_857_175_7),
        (5, &[89, 195, 343, 672, 839], 3.000_840_338_639_370_5),
        (
            16,
            &[
                16, 59, 79, 122, 326, 333, 338, 402, 506, 518, 525, 530, 738, 754, 759, 772,
            ],
            2.062_259_690_259_753,
        ),
    ];
    for (m, sensors, kappa) in golden {
        let d = Pipeline::new(ensemble)
            .fitted_basis(basis.truncated(m).unwrap())
            .allocator(AllocatorSpec::Greedy(GreedyAllocator::new()))
            .mask(mask.clone())
            .sensors(m)
            .design()
            .unwrap();
        let label = format!("28x30x400, M = {m}");
        assert_design(&label, &d, sensors, kappa);
        if m == 16 {
            assert_digest(&label, &d, 0xbc4e_9908_b661_ca16);
        }
    }
}
