//! Synthesis-kernel and batch-serving benchmark on the path production
//! runs: `SynthesisKernel::synthesize_panels` over a `PackedBasis`, L2
//! tiles outermost, exactly as `Reconstructor::reconstruct_batch` drives
//! it. Workload: the `sharded_serving` deployment (28×30 grid,
//! K = M = 16), 1024 frames.
//!
//! Axes of `kernel_1024_frames`, per available backend:
//!
//! * `synthesize` — the raw packed+tiled kernel over pre-transposed
//!   coefficient blocks, i.e. exactly the phase-2 work of
//!   `reconstruct_batch`;
//! * `reconstruct_batch` — end to end through a forced-backend
//!   `Deployment`, including the per-frame least-squares solves; plus
//!   `per_frame` — the same frames through `Deployment::reconstruct` one
//!   at a time under the dispatched backend, the baseline the batch path
//!   amortizes against.
//!
//! Before timing, every backend's output is checked against the scalar
//! oracle (`1e-10` relative; the lanes path bitwise), and the batch path
//! against the per-frame path (bitwise). On hosts where dispatch selects
//! AVX2 or AVX-512, the dispatched raw kernel is asserted to be ≥ 1.5×
//! faster than the scalar backend; elsewhere the speedup is only
//! reported.
//!
//! A second, **big-grid** axis (96×96 grid, K = 48 — a ~3.4 MB basis
//! that no longer fits a typical L2) asks what the L2 tiling buys: the
//! same kernel over the same panels, packed once as a single all-panels
//! tile (so every frame block re-streams the whole basis) and once at the
//! default L2-sized tiles. The two are asserted bitwise identical per
//! backend before timing; the speed ratio is reported, not gated (see
//! `bench_big_grid`).

use std::time::Instant;

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use eigenmaps_core::kernel::{KernelKind, PackedBasis, FRAME_BLOCK, PANEL_ROWS};
use eigenmaps_core::prelude::*;
use eigenmaps_floorplan::prelude::*;
use eigenmaps_linalg::Matrix;

const FRAMES: usize = 1024;

/// Per-block transposed coefficient tiles `(alpha_t, bsz)`, exactly what
/// `reconstruct_batch` hands the kernel.
type Blocks = Vec<(Vec<f64>, usize)>;

struct Workload {
    deployment: Deployment,
    frames: Vec<Vec<f64>>,
    blocks: Blocks,
}

fn setup() -> Workload {
    let dataset = DatasetBuilder::ultrasparc_t1()
        .grid(28, 30)
        .snapshots(300)
        .settle_steps(20)
        .seed(42)
        .build()
        .expect("dataset generation");
    let ensemble = dataset.ensemble();
    let deployment = Pipeline::new(ensemble)
        .basis(BasisSpec::Eigen { k: 16 })
        .sensors(16)
        .design()
        .expect("design");
    let mut noise = NoiseModel::new(0x5E41);
    let frames: Vec<Vec<f64>> = (0..FRAMES)
        .map(|t| {
            let map = ensemble.map(t % ensemble.len());
            noise.apply_sigma(&deployment.sensors().sample(&map), 0.2)
        })
        .collect();
    let k = deployment.k();
    let blocks = frames
        .chunks(FRAME_BLOCK)
        .map(|chunk| {
            let bsz = chunk.len();
            let mut alpha_t = vec![0.0; k * bsz];
            for (f, readings) in chunk.iter().enumerate() {
                let alpha = deployment.coefficients(readings).expect("solve");
                for (j, &a) in alpha.iter().enumerate() {
                    alpha_t[j * bsz + f] = a;
                }
            }
            (alpha_t, bsz)
        })
        .collect();
    Workload {
        deployment,
        frames,
        blocks,
    }
}

/// The production synthesis loop: tiles of `packed` outermost, frame
/// blocks inside, writing every frame of the batch into `cells`.
fn synthesize(
    packed: &PackedBasis,
    mean: &[f64],
    blocks: &Blocks,
    kind: KernelKind,
    cells: &mut [Vec<f64>],
) {
    let backend = kind.backend();
    let mut outs: Vec<&mut [f64]> = cells.iter_mut().map(|c| c.as_mut_slice()).collect();
    for tile in packed.tile_spans() {
        let mut start = 0;
        for (alpha_t, bsz) in blocks {
            backend.synthesize_panels(
                packed,
                tile.clone(),
                mean,
                alpha_t,
                *bsz,
                &mut outs[start..start + bsz],
            );
            start += bsz;
        }
    }
}

fn frame_cells(frames: usize, n: usize) -> Vec<Vec<f64>> {
    (0..frames).map(|_| vec![0.0; n]).collect()
}

fn wall_clock(rounds: u32, mut f: impl FnMut()) -> f64 {
    let t0 = Instant::now();
    for _ in 0..rounds {
        f();
    }
    t0.elapsed().as_secs_f64() / rounds as f64
}

fn bench_kernel(c: &mut Criterion) {
    let w = setup();
    let packed = w.deployment.reconstructor().packed_basis();
    let mean = w.deployment.basis().mean();
    let n = packed.rows();
    let dispatched = KernelKind::detect();
    let run = |kind: KernelKind, cells: &mut [Vec<f64>]| {
        synthesize(packed, mean, &w.blocks, kind, cells);
    };

    // Agreement gates before any timing: SIMD must match the oracle, and
    // the batch path must reproduce the per-frame path bit for bit.
    let mut oracle = frame_cells(FRAMES, n);
    run(KernelKind::Scalar, &mut oracle);
    let mut cells = frame_cells(FRAMES, n);
    for kind in KernelKind::available() {
        run(kind, &mut cells);
        let mut worst = 0.0f64;
        for (a, b) in oracle.iter().zip(cells.iter()) {
            for (&x, &y) in a.iter().zip(b.iter()) {
                worst = worst.max((x - y).abs() / x.abs().max(y.abs()).max(1.0));
            }
        }
        assert!(
            worst <= 1e-10,
            "{kind} kernel diverged from scalar by {worst:e} relative"
        );
        if kind == KernelKind::Lanes {
            assert_eq!(oracle, cells, "lanes must be bitwise identical to scalar");
        }
    }
    let batch = w.deployment.reconstruct_batch(&w.frames).expect("batch");
    for (frame, map) in w.frames.iter().zip(batch.iter()) {
        let single = w.deployment.reconstruct(frame).expect("single");
        assert_eq!(single.as_slice(), map.as_slice(), "batch diverged");
    }

    let mut group = c.benchmark_group("kernel_1024_frames");
    group.sample_size(20);
    for kind in KernelKind::available() {
        group.bench_with_input(
            BenchmarkId::new("synthesize", kind.name()),
            &kind,
            |bch, &kind| bch.iter(|| run(kind, black_box(&mut cells))),
        );
    }
    for kind in KernelKind::available() {
        let forced = w.deployment.clone().with_kernel(kind).expect("available");
        group.bench_with_input(
            BenchmarkId::new("reconstruct_batch", kind.name()),
            &forced,
            |bch, d| bch.iter(|| black_box(d.reconstruct_batch(&w.frames).unwrap())),
        );
    }
    let per_frame = || {
        for frame in &w.frames {
            black_box(w.deployment.reconstruct(black_box(frame)).unwrap());
        }
    };
    group.bench_function(BenchmarkId::new("per_frame", dispatched.name()), |bch| {
        bch.iter(per_frame)
    });

    // Wall-clock summaries + the dispatch speedup gate.
    let rounds = 20u32;
    let t_scalar = wall_clock(rounds, || run(KernelKind::Scalar, &mut cells));
    let t_dispatched = wall_clock(rounds, || run(dispatched, &mut cells));
    let speedup = t_scalar / t_dispatched.max(1e-12);
    println!(
        "kernel_1024_frames/summary: dispatched={dispatched} {:.3} ms vs scalar {:.3} ms \
         → {speedup:.2}x",
        t_dispatched * 1e3,
        t_scalar * 1e3
    );
    let t_single = wall_clock(5, per_frame);
    let t_batch = wall_clock(5, || {
        black_box(w.deployment.reconstruct_batch(&w.frames).unwrap());
    });
    println!(
        "kernel_1024_frames/summary: {dispatched} per-frame {:.3} ms vs reconstruct_batch \
         {:.3} ms → {:.2}x",
        t_single * 1e3,
        t_batch * 1e3,
        t_single / t_batch.max(1e-12)
    );
    if matches!(dispatched, KernelKind::Avx2 | KernelKind::Avx512) {
        assert!(
            speedup >= 1.5,
            "dispatched {dispatched} kernel reached only {speedup:.2}x over scalar \
             (>= 1.5x required)"
        );
    } else {
        println!(
            "kernel_1024_frames/summary: dispatch selected {dispatched} (no AVX2/AVX-512) — \
             skipping the >= 1.5x assertion"
        );
    }
    group.finish();
}

// ---------------------------------------------------------------------------
// Big-grid axis: L2-sized tiles vs one all-panels tile.
// ---------------------------------------------------------------------------

/// 96×96 grid, K = 48: the basis is `9216 × 48 × 8 B ≈ 3.4 MB` — past any
/// typical L2 — so a single all-panels tile re-streams it from L3/memory
/// once per frame block while L2-sized tiles serve each 256 KiB tile from
/// L2 across the whole batch.
const BIG_ROWS: usize = 96;
const BIG_COLS: usize = 96;
const BIG_K: usize = 48;
const BIG_FRAMES: usize = 256;

struct BigGrid {
    /// Packed at the default L2 tile size.
    tiled: PackedBasis,
    /// The same panels as one tile covering the whole grid.
    whole: PackedBasis,
    mean: Vec<f64>,
    blocks: Blocks,
}

/// Deterministic synthetic operands: the big-grid axis measures the raw
/// kernel, so no dataset/fit is needed (and none would change what the
/// inner loops do).
fn setup_big_grid() -> BigGrid {
    let n = BIG_ROWS * BIG_COLS;
    let basis = Matrix::from_fn(n, BIG_K, |i, j| {
        ((i as f64 + 0.7) * 0.37 + (j as f64 + 1.3) * 1.9).sin() * 0.1
    });
    let mean: Vec<f64> = (0..n).map(|i| 45.0 + (i as f64 * 0.013).cos()).collect();
    let blocks = (0..BIG_FRAMES.div_ceil(FRAME_BLOCK))
        .map(|b| {
            let bsz = FRAME_BLOCK.min(BIG_FRAMES - b * FRAME_BLOCK);
            let alpha_t: Vec<f64> = (0..BIG_K * bsz)
                .map(|x| (((b * 131 + x) as f64) * 0.17).sin() * 2.0)
                .collect();
            (alpha_t, bsz)
        })
        .collect();
    BigGrid {
        tiled: PackedBasis::pack(&basis),
        whole: PackedBasis::pack_with_tile_panels(&basis, n.div_ceil(PANEL_ROWS)),
        mean,
        blocks,
    }
}

fn bench_big_grid(c: &mut Criterion) {
    let w = setup_big_grid();
    let n = BIG_ROWS * BIG_COLS;
    let dispatched = KernelKind::detect();
    let run_whole =
        |kind, cells: &mut [Vec<f64>]| synthesize(&w.whole, &w.mean, &w.blocks, kind, cells);
    let run_tiled =
        |kind, cells: &mut [Vec<f64>]| synthesize(&w.tiled, &w.mean, &w.blocks, kind, cells);

    // Agreement gate: tiling must be bitwise invisible under every
    // available backend, re-proven on a grid big enough to cross many
    // tiles.
    let mut whole = frame_cells(BIG_FRAMES, n);
    let mut tiled = frame_cells(BIG_FRAMES, n);
    for kind in KernelKind::available() {
        run_whole(kind, &mut whole);
        run_tiled(kind, &mut tiled);
        assert_eq!(
            whole, tiled,
            "{kind}: L2-tiled synthesis must be bitwise identical to one tile"
        );
    }

    let mut group = c.benchmark_group("kernel_big_grid");
    group.sample_size(10);
    group.bench_with_input(
        BenchmarkId::new("one_tile", dispatched.name()),
        &dispatched,
        |bch, &kind| bch.iter(|| run_whole(kind, black_box(&mut whole))),
    );
    group.bench_with_input(
        BenchmarkId::new("l2_tiles", dispatched.name()),
        &dispatched,
        |bch, &kind| bch.iter(|| run_tiled(kind, black_box(&mut tiled))),
    );

    // Wall-clock ratio, reported but not gated: on a 2-vCPU AVX-512 VM
    // it reads 0.92–1.09× across runs, i.e. inside the host's noise, so a
    // speed-up gate here would only measure that noise.
    let rounds = 6u32;
    let t_whole = wall_clock(rounds, || run_whole(dispatched, &mut whole));
    let t_tiled = wall_clock(rounds, || run_tiled(dispatched, &mut tiled));
    println!(
        "kernel_big_grid/summary: {dispatched} L2 tiles {:.3} ms vs one tile {:.3} ms → \
         {:.2}x (not gated)",
        t_tiled * 1e3,
        t_whole * 1e3,
        t_whole / t_tiled.max(1e-12)
    );
    group.finish();
}

criterion_group!(kernel, bench_kernel, bench_big_grid);
criterion_main!(kernel);
