//! Synthesis-kernel and batch-serving benchmark on the path production
//! runs: `SynthesisKernel::synthesize_panels` over every panel of a
//! `PackedBasis`, one call per frame block, exactly as
//! `Reconstructor::reconstruct_batch` drives it. Workload: the
//! `sharded_serving` deployment (28×30 grid, K = M = 16), 1024 frames.
//!
//! Axes of `kernel_1024_frames`, per available backend:
//!
//! * `synthesize` — the raw packed kernel over pre-transposed
//!   coefficient blocks, i.e. exactly the phase-2 work of
//!   `reconstruct_batch`;
//! * `reconstruct_batch` — end to end through a forced-backend
//!   `Deployment`, including the per-frame least-squares solves; plus
//!   `per_frame` — the same frames through `Deployment::reconstruct` one
//!   at a time under the dispatched backend, the baseline the batch path
//!   amortizes against.
//!
//! The report-only `solve_256_frames` group times the least-squares
//! solve alone on 256 frames, at K = M = 16 (the benchmark deployment's
//! sensing matrix) and at M = 24, K = 16 (24 rows of the same basis): a
//! per-frame `Qr::solve_lstsq_into` loop against `Qr::solve_block_into`
//! over 32-frame blocks, after checking that both give the same bits.
//!
//! Before timing, every backend's output is checked against the scalar
//! oracle (`1e-10` relative; the lanes path bitwise), and the batch path
//! against the per-frame path (bitwise). On hosts where dispatch selects
//! AVX2 or AVX-512, the dispatched raw kernel is asserted to be ≥ 1.5×
//! faster than the scalar backend; elsewhere the speedup is only
//! reported.

use std::time::Instant;

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use eigenmaps_core::kernel::{KernelKind, PackedBasis, FRAME_BLOCK};
use eigenmaps_core::prelude::*;
use eigenmaps_floorplan::prelude::*;
use eigenmaps_linalg::Qr;

const FRAMES: usize = 1024;

/// Frames in one `solve_256_frames` batch.
const SOLVE_FRAMES: usize = 256;

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

/// The production synthesis loop: one sweep over every panel of `packed`
/// per frame block, writing every frame of the batch into `cells`.
fn synthesize(
    packed: &PackedBasis,
    mean: &[f64],
    blocks: &Blocks,
    kind: KernelKind,
    cells: &mut [Vec<f64>],
) {
    let backend = kind.backend();
    let mut outs: Vec<&mut [f64]> = cells.iter_mut().map(|c| c.as_mut_slice()).collect();
    for ((alpha_t, bsz), outs) in blocks.iter().zip(outs.chunks_mut(FRAME_BLOCK)) {
        backend.synthesize_panels(packed, 0..packed.panels(), mean, alpha_t, *bsz, outs);
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

/// The solve alone, per frame and per block, for one sensing matrix.
fn bench_solve_shape(c: &mut Criterion, qr: &Qr, label: &str) {
    let (m, k) = (qr.rows(), qr.cols());
    let readings: Vec<Vec<f64>> = (0..SOLVE_FRAMES)
        .map(|f| {
            (0..m)
                .map(|i| ((f * 31 + i * 7) as f64 * 0.173).sin() * 4.0)
                .collect()
        })
        .collect();
    let per_frame = |alphas: &mut [f64]| {
        let mut b = vec![0.0; m];
        for (readings, x) in readings.iter().zip(alphas.chunks_exact_mut(k)) {
            b.copy_from_slice(readings);
            qr.solve_lstsq_into(&mut b, x).expect("solve");
        }
    };
    // Coefficient-major per block: `alphas[block][j · bsz + f]`.
    let blocked = |alphas: &mut [f64]| {
        let mut b = vec![0.0; m * FRAME_BLOCK];
        for (chunk, x) in readings
            .chunks(FRAME_BLOCK)
            .zip(alphas.chunks_mut(k * FRAME_BLOCK))
        {
            let bsz = chunk.len();
            for (f, readings) in chunk.iter().enumerate() {
                for (i, &r) in readings.iter().enumerate() {
                    b[i * bsz + f] = r;
                }
            }
            qr.solve_block_into(&mut b[..m * bsz], x, bsz)
                .expect("solve");
        }
    };
    let mut single = vec![0.0; SOLVE_FRAMES * k];
    let mut block = vec![0.0; SOLVE_FRAMES * k];
    per_frame(&mut single);
    blocked(&mut block);
    for (f, alpha) in single.chunks_exact(k).enumerate() {
        let (blk, col) = (f / FRAME_BLOCK, f % FRAME_BLOCK);
        for (j, a) in alpha.iter().enumerate() {
            let got = block[blk * k * FRAME_BLOCK + j * FRAME_BLOCK + col];
            assert_eq!(got.to_bits(), a.to_bits(), "{label}: frame {f}");
        }
    }

    let mut group = c.benchmark_group("solve_256_frames");
    group.sample_size(50);
    group.bench_function(BenchmarkId::new("per_frame", label), |bch| {
        bch.iter(|| per_frame(black_box(&mut single)))
    });
    group.bench_function(BenchmarkId::new("block", label), |bch| {
        bch.iter(|| blocked(black_box(&mut block)))
    });
    group.finish();
    let t_single = wall_clock(200, || per_frame(&mut single));
    let t_block = wall_clock(200, || blocked(&mut block));
    println!(
        "solve_256_frames/summary: {label} per-frame {:.1} us vs block {:.1} us ({:.2}x)",
        t_single * 1e6,
        t_block * 1e6,
        t_single / t_block
    );
}

fn bench_solve(c: &mut Criterion) {
    let w = setup();
    let basis = w.deployment.basis().matrix();
    let sensors = w.deployment.sensors().locations();
    let square = basis.select_rows(sensors).expect("sensor rows");
    // M = 24: the deployment's 16 sensors plus 8 cells spread over the
    // grid, so the sensing matrix stays well conditioned.
    let mut rows = sensors.to_vec();
    let cells = basis.rows();
    rows.extend((0..8).map(|i| (i * cells / 8 + cells / 16) % cells));
    let tall = basis.select_rows(&rows).expect("sensor rows");
    bench_solve_shape(c, &Qr::new(&square).expect("qr"), "M16_K16");
    bench_solve_shape(c, &Qr::new(&tall).expect("qr"), "M24_K16");
}

criterion_group!(kernel, bench_kernel, bench_solve);
criterion_main!(kernel);
