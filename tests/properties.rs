//! Cross-crate property-based tests: invariants that must hold for *any*
//! reasonable dataset/sensor configuration, checked with proptest over
//! randomized synthetic ensembles (no thermal sim in the loop — these
//! probe the algorithm stack, not the physics).

use std::sync::Arc;

use eigenmaps::core::prelude::*;
use eigenmaps::serve::{BatchPolicy, DeploymentRegistry, ServeRequest, Server, Ticket};
use proptest::prelude::*;

/// A synthetic ensemble with `modes` planted spatial modes + noise floor.
fn ensemble_strategy() -> impl Strategy<Value = MapEnsemble> {
    (4usize..=8, 4usize..=8, 2usize..=4, 0u64..1000).prop_map(|(rows, cols, modes, seed)| {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let shapes: Vec<Vec<f64>> = (0..modes)
            .map(|_| (0..rows * cols).map(|_| rng.gen::<f64>() - 0.5).collect())
            .collect();
        let maps: Vec<ThermalMap> = (0..60)
            .map(|t| {
                let weights: Vec<f64> = (0..modes)
                    .map(|q| ((t as f64) / (3.0 + q as f64)).sin() * (modes - q) as f64)
                    .collect();
                ThermalMap::from_fn(rows, cols, |r, c| {
                    let i = r + c * rows;
                    60.0 + shapes
                        .iter()
                        .zip(weights.iter())
                        .map(|(s, w)| s[i] * w)
                        .sum::<f64>()
                })
            })
            .collect();
        MapEnsemble::from_maps(&maps).expect("consistent shapes")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn approximation_error_monotone_in_k(ens in ensemble_strategy()) {
        let kmax = 6.min(ens.cells());
        let basis = EigenBasis::fit_exact(&ens, kmax).unwrap();
        let mut prev = f64::INFINITY;
        for k in 1..=kmax {
            let rep = evaluate_approximation(&basis.truncated(k).unwrap(), &ens).unwrap();
            prop_assert!(rep.mse <= prev + 1e-9, "k={k}: {} > {prev}", rep.mse);
            prev = rep.mse;
        }
    }

    #[test]
    fn greedy_layout_is_valid_and_well_conditioned(
        ens in ensemble_strategy(),
        m_extra in 0usize..4,
    ) {
        let k = 3.min(ens.cells());
        let m = k + m_extra;
        prop_assume!(m <= ens.cells());
        let basis = EigenBasis::fit_exact(&ens, k).unwrap();
        let deployment = Pipeline::new(&ens)
            .fitted_basis(basis)
            .allocator(AllocatorSpec::Greedy(GreedyAllocator::new()))
            .sensors(m)
            .design()
            .unwrap();
        prop_assert_eq!(deployment.m(), m);
        // Layout must support reconstruction.
        prop_assert!(deployment.condition_number().is_finite());
    }

    #[test]
    fn reconstruction_exact_for_in_subspace_maps(ens in ensemble_strategy()) {
        // Any map of the form Ψ_K α + mean is recovered exactly from
        // noiseless sensors (Theorem 1 uniqueness).
        let k = 3.min(ens.cells());
        let basis = EigenBasis::fit_exact(&ens, k).unwrap();
        let deployment = Pipeline::new(&ens)
            .fitted_basis(basis.clone())
            .sensors((k + 2).min(ens.cells()))
            .design()
            .unwrap();

        // Build an in-subspace map with arbitrary coefficients.
        let alpha: Vec<f64> = (0..k).map(|i| (i as f64 + 1.0) * 0.7).collect();
        let mut cells = basis.matrix().matvec(&alpha).unwrap();
        for (v, m) in cells.iter_mut().zip(basis.mean()) {
            *v += m;
        }
        let truth = ThermalMap::new(ens.rows(), ens.cols(), cells).unwrap();
        let est = deployment
            .reconstruct(&deployment.sensors().sample(&truth))
            .unwrap();
        prop_assert!(truth.mse(&est) < 1e-16, "mse {}", truth.mse(&est));
    }

    #[test]
    fn masked_allocation_respects_every_mask(
        ens in ensemble_strategy(),
        forbidden_frac in 0.1f64..0.5,
    ) {
        // A 1-dimensional basis keeps every layout observable, so the
        // mask property is asserted unconditionally for all allocators.
        let basis = EigenBasis::fit_exact(&ens, 1).unwrap();
        let mask = Mask::all_allowed(ens.rows(), ens.cols())
            .forbid_rects(&[(0.0, 0.0, forbidden_frac, 1.0)]);
        let m = 4;
        prop_assume!(mask.allowed_count() >= m);
        for (name, spec) in [
            ("greedy", AllocatorSpec::Greedy(GreedyAllocator::new())),
            ("energy", AllocatorSpec::EnergyCenter),
            ("uniform", AllocatorSpec::UniformGrid),
            ("random", AllocatorSpec::Random { seed: 5 }),
        ] {
            let d = Pipeline::new(&ens)
                .fitted_basis(basis.clone())
                .allocator(spec)
                .mask(mask.clone())
                .sensors(m)
                .design()
                .unwrap();
            prop_assert!(d.sensors().respects(&mask), "{} violated mask", name);
            prop_assert_eq!(d.m(), m);
        }
    }

    #[test]
    fn metrics_are_nonnegative_and_max_bounds_mse(ens in ensemble_strategy()) {
        let k = 2.min(ens.cells());
        let basis = EigenBasis::fit_exact(&ens, k).unwrap();
        let rep = evaluate_approximation(&basis, &ens).unwrap();
        prop_assert!(rep.mse >= 0.0);
        prop_assert!(rep.max >= 0.0);
        // MAX is a max of per-cell squared errors, MSE their mean: MAX >= MSE.
        prop_assert!(rep.max + 1e-15 >= rep.mse);
    }

    #[test]
    fn emdeploy_roundtrips_bitwise_through_the_codec(
        ens in ensemble_strategy(),
        m_extra in 0usize..3,
        noise_db in 10.0f64..40.0,
    ) {
        let k = 2.min(ens.cells());
        let m = k + m_extra;
        prop_assume!(m <= ens.cells());
        let deployment = Pipeline::new(&ens)
            .basis(BasisSpec::EigenExact { k })
            .sensors(m)
            .noise(NoiseSpec::snr_db(noise_db))
            .design()
            .unwrap();
        let bytes = deployment.to_bytes();
        let back = Deployment::from_bytes(&bytes).unwrap();
        prop_assert_eq!(back.k(), deployment.k());
        prop_assert_eq!(back.m(), deployment.m());
        prop_assert_eq!(back.noise(), deployment.noise());
        prop_assert_eq!(back.sensors(), deployment.sensors());
        prop_assert_eq!(back.basis().matrix().as_slice(), deployment.basis().matrix().as_slice());
        // Round-tripped deployments reconstruct bitwise-identically.
        for t in [0usize, 31, 59] {
            let readings = deployment.sensors().sample(&ens.map(t));
            let a = deployment.reconstruct(&readings).unwrap();
            let b = back.reconstruct(&readings).unwrap();
            prop_assert_eq!(a.as_slice(), b.as_slice());
        }
        // Serialization is deterministic.
        prop_assert_eq!(back.to_bytes(), bytes);
    }

    #[test]
    fn truncated_emdeploy_bytes_always_rejected(
        ens in ensemble_strategy(),
        cut_frac in 0.0f64..1.0,
    ) {
        let k = 2.min(ens.cells());
        let deployment = Pipeline::new(&ens)
            .basis(BasisSpec::EigenExact { k })
            .sensors(k)
            .design()
            .unwrap();
        let bytes = deployment.to_bytes();
        // Any strict prefix must fail to parse — the codec bounds-checks
        // every read and rejects leftover bytes, so there is no length at
        // which a truncation silently decodes.
        let cut = ((bytes.len() as f64 * cut_frac) as usize).min(bytes.len() - 1);
        prop_assert!(matches!(
            Deployment::from_bytes(&bytes[..cut]),
            Err(CoreError::Persist { .. })
        ));
        // And so must trailing garbage.
        let mut long = bytes.clone();
        long.push(0xAB);
        prop_assert!(matches!(
            Deployment::from_bytes(&long),
            Err(CoreError::Persist { .. })
        ));
    }

    #[test]
    fn corrupted_emdeploy_header_always_rejected(
        ens in ensemble_strategy(),
        byte in 0usize..12,
        flip in 1u8..=255,
    ) {
        // Bytes 0..12 are magic (8) and version (4): flipping any bit
        // pattern there must be caught. (Tag and payload bytes can
        // legitimately decode to a different valid artifact, so only the
        // self-describing prefix is asserted unconditionally.)
        let k = 2.min(ens.cells());
        let deployment = Pipeline::new(&ens)
            .basis(BasisSpec::EigenExact { k })
            .sensors(k)
            .design()
            .unwrap();
        let mut bytes = deployment.to_bytes();
        bytes[byte] ^= flip;
        prop_assert!(matches!(
            Deployment::from_bytes(&bytes),
            Err(CoreError::Persist { .. })
        ));
    }

    #[test]
    fn simd_kernel_backends_match_scalar_on_odd_shapes(ens in ensemble_strategy()) {
        // The synthesis kernel contract: every runnable backend agrees
        // with the scalar oracle within 1e-10 relative, on shapes chosen
        // to cross every lane/remainder/block boundary — K ∈ {1, 3, K*}
        // and batch sizes sweeping below/at/above the 4-lane width, the
        // 8-lane AVX-512 groups ({7, 8, 9, 15, 16, 17}), and 1031 frames
        // spanning 33 blocks with a remainder. (`available()` includes
        // `Avx512` wherever the host supports it, so the same sweep
        // exercises the AVX-512 full-group/remainder seams.)
        let kstar = 5.min(ens.cells());
        for k in [1usize, 3.min(kstar), kstar] {
            let m = (k + 2).min(ens.cells());
            let basis = EigenBasis::fit_exact(&ens, k).unwrap();
            let d = Pipeline::new(&ens)
                .fitted_basis(basis)
                .sensors(m)
                .design()
                .unwrap();
            let scalar = d.clone().with_kernel(KernelKind::Scalar).unwrap();
            let frame_counts: &[usize] = if k == kstar {
                &[1, 7, 8, 9, 15, 16, 17, 1031]
            } else {
                &[1, 7, 9]
            };
            for &fc in frame_counts {
                let frames: Vec<Vec<f64>> = (0..fc)
                    .map(|t| {
                        let mut r = d.sensors().sample(&ens.map(t % ens.len()));
                        // Deterministic perturbation so frames are distinct
                        // and slightly off-subspace, like real readings.
                        for (i, x) in r.iter_mut().enumerate() {
                            *x += ((t * 13 + i * 7) as f64 * 0.37).sin() * 0.1;
                        }
                        r
                    })
                    .collect();
                let oracle = scalar.reconstruct_batch(&frames).unwrap();
                for kind in KernelKind::available() {
                    let forced = d.clone().with_kernel(kind).unwrap();
                    prop_assert_eq!(forced.kernel_kind(), kind);
                    let maps = forced.reconstruct_batch(&frames).unwrap();
                    for (f, (a, b)) in oracle.iter().zip(maps.iter()).enumerate() {
                        for (&x, &y) in a.as_slice().iter().zip(b.as_slice().iter()) {
                            let rel = (x - y).abs() / x.abs().max(y.abs()).max(1.0);
                            prop_assert!(
                                rel <= 1e-10,
                                "kernel={} k={k} frames={fc} frame={f}: {x} vs {y}",
                                kind
                            );
                        }
                    }
                    // The portable lanes path shares the scalar arithmetic
                    // exactly — bitwise, not merely close.
                    if kind == KernelKind::Lanes {
                        for (a, b) in oracle.iter().zip(maps.iter()) {
                            prop_assert_eq!(a.as_slice(), b.as_slice());
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn interleaved_multi_tenant_serving_is_bitwise_per_tenant(
        tenant_count in 2usize..=4,
        seed in 0u64..10_000,
    ) {
        // Per-tenant micro-batching invariant: no matter how requests from
        // several tenants interleave at the front door, each tenant's
        // responses are bitwise-identical to running that tenant's frames
        // alone through `reconstruct_batch` — coalescing never mixes
        // tenants and never reorders frames within a tenant.
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);

        // Distinct artifacts per tenant (different bases and sensor
        // counts), each with its own frame stream.
        let registry = Arc::new(DeploymentRegistry::new());
        let mut deployments = Vec::new();
        let mut streams: Vec<Vec<Vec<f64>>> = Vec::new();
        for tenant in 0..tenant_count {
            let shapes: Vec<Vec<f64>> = (0..3)
                .map(|_| (0..36).map(|_| rng.gen::<f64>() - 0.5).collect())
                .collect();
            let maps: Vec<ThermalMap> = (0..50)
                .map(|t| {
                    ThermalMap::from_fn(6, 6, |r, c| {
                        let i = r + c * 6;
                        55.0 + shapes
                            .iter()
                            .enumerate()
                            .map(|(q, s)| s[i] * ((t + tenant) as f64 / (3.0 + q as f64)).sin())
                            .sum::<f64>()
                    })
                })
                .collect();
            let ens = MapEnsemble::from_maps(&maps).expect("consistent shapes");
            let deployment = Pipeline::new(&ens)
                .basis(BasisSpec::EigenExact { k: 2 })
                .sensors(4 + tenant)
                .design()
                .unwrap();
            let frames: Vec<Vec<f64>> = (0..9)
                .map(|t| deployment.sensors().sample(&ens.map(t)))
                .collect();
            registry.publish(format!("tenant-{tenant}").as_str(), deployment.clone());
            deployments.push(deployment);
            streams.push(frames);
        }

        // Arbitrary interleaving: random tenant order, random chunk sizes,
        // all submitted before any response is awaited so the per-tenant
        // queues genuinely coalesce across foreign traffic.
        let policy = BatchPolicy {
            max_batch_frames: 64,
            max_batch_requests: 32,
            max_delay: std::time::Duration::from_millis(2),
            ..BatchPolicy::default()
        };
        let server = Server::with_policy(Arc::clone(&registry), 2, policy);
        let mut cursors = vec![0usize; tenant_count];
        let mut tickets: Vec<(usize, usize, usize, Ticket)> = Vec::new();
        while cursors.iter().zip(&streams).any(|(&c, s)| c < s.len()) {
            let tenant = rng.gen_range(0usize..tenant_count);
            let start = cursors[tenant];
            if start >= streams[tenant].len() {
                continue;
            }
            let len = rng.gen_range(1usize..=3).min(streams[tenant].len() - start);
            cursors[tenant] = start + len;
            let ticket = server
                .submit(ServeRequest::new(
                    format!("tenant-{tenant}"),
                    streams[tenant][start..start + len].to_vec(),
                ))
                .unwrap();
            tickets.push((tenant, start, len, ticket));
        }

        for (tenant, start, len, ticket) in tickets {
            prop_assert_eq!(ticket.version(), 1);
            let maps = ticket.wait().unwrap();
            prop_assert_eq!(maps.len(), len);
            // The solo baseline: this tenant's whole stream, alone.
            let solo = deployments[tenant]
                .reconstruct_batch(&streams[tenant])
                .unwrap();
            for (offset, map) in maps.iter().enumerate() {
                prop_assert!(
                    map.as_slice() == solo[start + offset].as_slice(),
                    "tenant {} frame {} diverged from solo batch",
                    tenant,
                    start + offset
                );
            }
        }
    }

    #[test]
    fn degraded_serving_is_bitwise_truncated_reconstruction(
        ens in ensemble_strategy(),
        keep_sel in 0usize..3,
        size_sel in 0usize..3,
    ) {
        // Brownout degradation is not "approximately right": a batch
        // served degraded at `keep_k` must be bitwise-identical to
        // `truncated(keep_k).reconstruct_batch` on the same frames — the
        // coarse tier is the truncated deployment, exactly, for any
        // ensemble, any keep_k in {1, k/2, k} and odd batch sizes
        // around the shard count.
        use eigenmaps::serve::{BrownoutPolicy, OverrunAction};
        let k = 3.min(ens.cells());
        let deployment = Pipeline::new(&ens)
            .basis(BasisSpec::EigenExact { k })
            .sensors((k + 2).min(ens.cells()))
            .design()
            .unwrap();
        let keep_k = [1, (k / 2).max(1), k][keep_sel];
        let batch = [1usize, 3, 7][size_sel];
        let frames: Vec<Vec<f64>> = (0..batch)
            .map(|t| deployment.sensors().sample(&ens.map(t)))
            .collect();

        let registry = Arc::new(DeploymentRegistry::new());
        registry.publish("sku", deployment.clone());
        let server = Server::new(Arc::clone(&registry), 2);
        // Degrade tier + a 1-frame brownout watermark: the submit below
        // trips brownout on the very tick that flushes it (request
        // budget 1), so the batch is deterministically served degraded.
        server.set_tenant_policy("sku", Some(BatchPolicy {
            max_batch_frames: 4096,
            max_batch_requests: 1,
            max_delay: std::time::Duration::from_secs(60),
            deadline: Some(std::time::Duration::from_secs(60)),
            overrun: OverrunAction::Degrade { keep_k },
            ..BatchPolicy::default()
        })).unwrap();
        server.set_brownout(Some(BrownoutPolicy { enter_above: 1, exit_below: 0 })).unwrap();

        let mut ticket = server.submit(ServeRequest::new("sku", frames.clone())).unwrap();
        let maps = loop {
            match ticket.try_wait() {
                Some(result) => break result.unwrap(),
                None => std::thread::yield_now(),
            }
        };
        prop_assert!(ticket.is_degraded(), "degrade tier in brownout must mark the ticket");

        let truncated = deployment.truncated(keep_k).unwrap();
        let expected = truncated.reconstruct_batch(&frames).unwrap();
        prop_assert_eq!(maps.len(), expected.len());
        for (i, (got, want)) in maps.iter().zip(&expected).enumerate() {
            prop_assert!(
                got.as_slice() == want.as_slice(),
                "frame {} diverged from truncated({}) reconstruction",
                i,
                keep_k
            );
        }
    }

    #[test]
    fn session_snapshot_resume_continues_stream_bitwise(
        ens in ensemble_strategy(),
        gain_steps in 1u32..=10,
        cut in 1usize..=12,
    ) {
        // Warm-restart invariant: for any ensemble, gain and interruption
        // point, snapshot → restart → resume → step produces a map stream
        // bitwise-identical to the uninterrupted session.
        let gain = f64::from(gain_steps) / 10.0;
        let k = 2.min(ens.cells());
        let deployment = Pipeline::new(&ens)
            .basis(BasisSpec::EigenExact { k })
            .sensors((k + 2).min(ens.cells()))
            .design()
            .unwrap();
        let frames: Vec<Vec<f64>> = (0..24)
            .map(|t| {
                let mut r = deployment.sensors().sample(&ens.map(t % ens.len()));
                for (i, x) in r.iter_mut().enumerate() {
                    *x += ((t * 13 + i * 7) as f64 * 0.37).sin() * 0.1;
                }
                r
            })
            .collect();
        let registry = Arc::new(DeploymentRegistry::new());
        registry.publish("chip", deployment.clone());
        let server = Server::new(Arc::clone(&registry), 2);
        let mut uninterrupted = server.open_session("chip", gain).unwrap();
        let mut live = server.open_session("chip", gain).unwrap();
        for readings in &frames[..cut] {
            uninterrupted.step(readings).unwrap();
            live.step(readings).unwrap();
        }
        let bytes = live.snapshot();
        drop(live); // monitor restart
        let mut resumed = server.resume_session(&bytes).unwrap();
        prop_assert_eq!(resumed.frames() as usize, cut);
        for (t, readings) in frames[cut..].iter().enumerate() {
            let a = uninterrupted.step(readings).unwrap();
            let b = resumed.step(readings).unwrap();
            prop_assert!(
                a.as_slice() == b.as_slice(),
                "resumed stream diverged at post-resume step {}", t
            );
        }
        // And the snapshot itself round-trips deterministically.
        prop_assert_eq!(resumed.snapshot(), uninterrupted.snapshot());
    }

    #[test]
    fn emsess1_corruption_and_truncation_always_rejected(
        ens in ensemble_strategy(),
        steps in 0usize..5,
        byte_frac in 0.0f64..1.0,
        flip in 1u8..=255,
        cut_frac in 0.0f64..1.0,
    ) {
        // The EMSESS1 trailing checksum makes *any* single-byte corruption
        // detectable (stronger than EMDEPLOY, where payload flips can
        // decode to a different valid artifact), and any strict prefix or
        // extension is rejected.
        use eigenmaps::core::codec::SessionSnapshot;
        let k = 2.min(ens.cells());
        let deployment = Pipeline::new(&ens)
            .basis(BasisSpec::EigenExact { k })
            .sensors((k + 1).min(ens.cells()))
            .design()
            .unwrap();
        let registry = Arc::new(DeploymentRegistry::new());
        registry.publish("chip", deployment.clone());
        let server = Server::new(Arc::clone(&registry), 1);
        let mut session = server.open_session("chip", 0.5).unwrap();
        for t in 0..steps {
            session.step(&deployment.sensors().sample(&ens.map(t))).unwrap();
        }
        let bytes = session.snapshot();
        // Sanity: the clean record parses and resumes.
        prop_assert!(SessionSnapshot::from_bytes(&bytes).is_ok());
        prop_assert!(server.resume_session(&bytes).is_ok());
        // Single-byte corruption anywhere is rejected.
        let idx = ((bytes.len() - 1) as f64 * byte_frac) as usize;
        let mut corrupt = bytes.clone();
        corrupt[idx] ^= flip;
        prop_assert!(SessionSnapshot::from_bytes(&corrupt).is_err());
        prop_assert!(matches!(
            server.resume_session(&corrupt),
            Err(eigenmaps::serve::ServeError::Core(_))
        ));
        // Truncation at any strict prefix is rejected.
        let cut = (((bytes.len() as f64) * cut_frac) as usize).min(bytes.len() - 1);
        prop_assert!(SessionSnapshot::from_bytes(&bytes[..cut]).is_err());
        // Trailing garbage is rejected.
        let mut long = bytes.clone();
        long.push(0xEE);
        prop_assert!(SessionSnapshot::from_bytes(&long).is_err());
    }

    #[test]
    fn snr_noise_has_exact_energy_budget(
        snr_db in 5.0f64..45.0,
        seed in 0u64..500,
    ) {
        let signal: Vec<f64> = (0..24).map(|i| 50.0 + ((i * 7) as f64).sin()).collect();
        let center = vec![50.0; 24];
        let mut nm = NoiseModel::new(seed);
        let noisy = nm.apply_snr_db_centered(&signal, &center, snr_db).unwrap();
        let sig_energy: f64 = signal
            .iter()
            .zip(center.iter())
            .map(|(s, c)| (s - c) * (s - c))
            .sum();
        let noise_energy: f64 = noisy
            .iter()
            .zip(signal.iter())
            .map(|(a, b)| (a - b) * (a - b))
            .sum();
        let measured_db = 10.0 * (sig_energy / noise_energy).log10();
        prop_assert!((measured_db - snr_db).abs() < 1e-6);
    }
}

// ---------------------------------------------------------------------------
// EMWIRE2 (the `emwire1_*` properties predate the version bump and hold
// unchanged): the network wire format must uphold the same codec discipline
// as the file formats — bitwise roundtrips, and rejection (never a panic,
// never a desynchronized stream) for truncated, corrupted or oversized
// frames.
// ---------------------------------------------------------------------------

/// An arbitrary request: every kind reachable, strings/floats/blob lengths
/// drawn from a per-case seed (the shim strategy idiom used above).
fn wire_request_strategy() -> impl Strategy<Value = eigenmaps::net::Request> {
    use eigenmaps::net::Request;
    (0u32..9, 0u64..1_000_000).prop_map(|(kind, seed)| {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let word = |rng: &mut rand::rngs::StdRng| -> String {
            let len = rng.gen_range(0..12u64) as usize;
            (0..len)
                .map(|_| char::from(b'a' + (rng.gen_range(0..26u64) as u8)))
                .collect()
        };
        let floats = |rng: &mut rand::rngs::StdRng, n: usize| -> Vec<f64> {
            (0..n)
                .map(|_| {
                    // Arbitrary bit patterns, NaN mapped out so the decoded
                    // value still compares equal to the original.
                    let x = f64::from_bits(rng.next_u64());
                    if x.is_nan() {
                        0.0
                    } else {
                        x
                    }
                })
                .collect()
        };
        match kind {
            0 => {
                let count = rng.gen_range(0..4u64);
                let frames = (0..count)
                    .map(|_| {
                        let m = rng.gen_range(0..6u64) as usize;
                        floats(&mut rng, m)
                    })
                    .collect();
                Request::SubmitBatch {
                    deployment: word(&mut rng),
                    frames,
                }
            }
            1 => Request::OpenSession {
                deployment: word(&mut rng),
                gain: rng.gen_range(0.0..1.0),
            },
            2 => {
                let m = rng.gen_range(0..8u64) as usize;
                Request::StepSession {
                    session: rng.next_u64(),
                    readings: floats(&mut rng, m),
                }
            }
            3 => Request::CloseSession {
                session: rng.next_u64(),
            },
            4 => Request::Snapshot {
                session: rng.next_u64(),
            },
            5 => {
                let n = rng.gen_range(0..64u64) as usize;
                Request::Resume {
                    snapshot: (0..n).map(|_| rng.next_u64() as u8).collect(),
                }
            }
            6 => Request::Catalog,
            7 => {
                let n = rng.gen_range(0..64u64) as usize;
                Request::Publish {
                    name: word(&mut rng),
                    artifact: (0..n).map(|_| rng.next_u64() as u8).collect(),
                }
            }
            _ => Request::Metrics,
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn emwire1_requests_roundtrip_bitwise_through_chunked_streams(
        request in wire_request_strategy(),
        id in 0u64..u64::MAX,
        chunk in 1usize..40,
    ) {
        use eigenmaps::net::{FrameBuffer, Request, MAX_FRAME_BYTES};
        let frame = request.encode(id).expect("encodes");
        // Delivered in arbitrary chunk sizes, the stream reassembles to
        // exactly one record that decodes to an equal request whose
        // re-encoding is byte-identical.
        let mut fb = FrameBuffer::new(MAX_FRAME_BYTES);
        let mut records = Vec::new();
        for piece in frame.chunks(chunk) {
            fb.extend(piece);
            while let Some(outcome) = fb.next_record() {
                records.push(outcome.expect("valid frame"));
            }
        }
        prop_assert_eq!(records.len(), 1);
        let (got_id, got) = Request::decode(&records[0]).expect("roundtrip decodes");
        prop_assert_eq!(got_id, id);
        prop_assert_eq!(got.encode(id).expect("encodes"), frame);
        prop_assert_eq!(got, request);
    }

    #[test]
    fn emwire1_strict_prefixes_never_yield_a_record(
        request in wire_request_strategy(),
        cut_frac in 0.0f64..1.0,
    ) {
        use eigenmaps::net::{FrameBuffer, MAX_FRAME_BYTES};
        let frame = request.encode(7).expect("encodes");
        let cut = ((frame.len() as f64 * cut_frac) as usize).min(frame.len() - 1);
        let mut fb = FrameBuffer::new(MAX_FRAME_BYTES);
        fb.extend(&frame[..cut]);
        // A truncated frame is indistinguishable from one still arriving:
        // the buffer waits rather than inventing a record.
        prop_assert!(fb.next_record().is_none());
        // And the truncated record itself (length prefix stripped, were a
        // transport to hand it over anyway) is rejected, not misparsed.
        if cut > 4 {
            prop_assert!(eigenmaps::net::Request::decode(&frame[4..cut]).is_err());
        }
    }

    #[test]
    fn emwire1_any_single_byte_corruption_is_rejected(
        request in wire_request_strategy(),
        pos_frac in 0.0f64..1.0,
        flip in 1u8..=255,
    ) {
        use eigenmaps::net::Request;
        let frame = request.encode(99).expect("encodes");
        // Flip any byte of the record (past the length prefix): the
        // CRC-32C trailer covers every payload byte and the trailer itself
        // only matches its own payload, so no single-byte change decodes.
        let record = &frame[4..];
        let pos = ((record.len() as f64 * pos_frac) as usize).min(record.len() - 1);
        let mut bad = record.to_vec();
        bad[pos] ^= flip;
        prop_assert!(Request::decode(&bad).is_err());
    }

    #[test]
    fn emwire1_oversized_frames_skip_without_desynchronizing(
        request in wire_request_strategy(),
        oversize in 1usize..100_000,
        chunk in 1usize..4096,
    ) {
        use eigenmaps::net::{FrameBuffer, Request, WireError};
        let bound = 512;
        let badlen = bound + oversize;
        // An oversized frame followed by a valid one on the same stream:
        // exactly one Oversized report, then the valid record — bitwise.
        let mut stream = (badlen as u32).to_le_bytes().to_vec();
        stream.resize(stream.len() + badlen, 0x5A);
        let valid = request.encode(3).expect("encodes");
        prop_assume!(valid.len() - 4 <= bound);
        stream.extend_from_slice(&valid);

        let mut fb = FrameBuffer::new(bound);
        let mut oversized_reports = 0;
        let mut records = Vec::new();
        for piece in stream.chunks(chunk) {
            fb.extend(piece);
            while let Some(outcome) = fb.next_record() {
                match outcome {
                    Err(WireError::Oversized { len, max }) => {
                        prop_assert_eq!((len, max), (badlen, bound));
                        oversized_reports += 1;
                    }
                    Err(other) => prop_assert!(false, "unexpected error: {other:?}"),
                    Ok(record) => records.push(record),
                }
            }
        }
        prop_assert_eq!(oversized_reports, 1);
        prop_assert_eq!(records.len(), 1);
        let (id, got) = Request::decode(&records[0]).expect("survivor decodes");
        prop_assert_eq!(id, 3);
        prop_assert_eq!(got, request);
    }
}

/// An arbitrary response: every kind reachable, including `Batch` replies
/// of up to 8 maps of up to 32 × 32 cells and `Step` replies, with cell
/// bits, strings, counters and blobs drawn from a per-case seed.
fn wire_response_strategy() -> impl Strategy<Value = eigenmaps::net::Response> {
    use eigenmaps::net::{
        Response, WireExemplar, WireMap, WireMetrics, WireStage, WireStatus, WireTenantTrace,
        WireTrace, WireTraceEvent,
    };
    use eigenmaps::serve::{HistogramSnapshot, WireSnapshot};
    (0u32..10, 0u64..1_000_000).prop_map(|(kind, seed)| {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let word = |rng: &mut rand::rngs::StdRng| -> String {
            let len = rng.gen_range(0..12u64) as usize;
            (0..len)
                .map(|_| char::from(b'a' + (rng.gen_range(0..26u64) as u8)))
                .collect()
        };
        let map = |rng: &mut rand::rngs::StdRng| -> WireMap {
            let rows = rng.gen_range(1..33u64) as usize;
            let cols = rng.gen_range(1..33u64) as usize;
            let cells = (0..rows * cols)
                .map(|_| {
                    // Arbitrary bit patterns, NaN mapped out so the decoded
                    // value still compares equal to the original.
                    let x = f64::from_bits(rng.next_u64());
                    if x.is_nan() {
                        0.0
                    } else {
                        x
                    }
                })
                .collect();
            WireMap { rows, cols, cells }
        };
        let histogram = |rng: &mut rand::rngs::StdRng| -> HistogramSnapshot {
            let n = rng.gen_range(0..24u64) as usize;
            HistogramSnapshot {
                buckets: (0..n).map(|_| rng.next_u64()).collect(),
                count: rng.next_u64(),
                total_ns: rng.next_u64(),
            }
        };
        match kind {
            0 => {
                let count = rng.gen_range(0..9u64) as usize;
                Response::Batch {
                    version: rng.next_u64() as u32,
                    maps: (0..count).map(|_| map(&mut rng)).collect(),
                    degraded: rng.gen_range(0..2u64) == 1,
                }
            }
            1 => Response::SessionOpened {
                session: rng.next_u64(),
                version: rng.next_u64() as u32,
                frames: rng.next_u64(),
                durable: rng.next_u64(),
            },
            2 => Response::Step {
                map: map(&mut rng),
                degraded: rng.gen_range(0..2u64) == 1,
            },
            3 => Response::Closed,
            4 => {
                let n = rng.gen_range(0..64u64) as usize;
                Response::Snapshot {
                    snapshot: (0..n).map(|_| rng.next_u64() as u8).collect(),
                }
            }
            5 => {
                let n = rng.gen_range(0..4u64);
                Response::Catalog {
                    entries: (0..n)
                        .map(|_| {
                            let versions = rng.gen_range(0..5u64);
                            (
                                word(&mut rng),
                                (0..versions).map(|_| rng.next_u64() as u32).collect(),
                            )
                        })
                        .collect(),
                }
            }
            6 => Response::Published {
                version: rng.next_u64() as u32,
            },
            7 => Response::Metrics(Box::new(WireMetrics {
                requests: rng.next_u64(),
                frames: rng.next_u64(),
                session_steps: rng.next_u64(),
                latency_p99_ns: rng.next_u64(),
                brownout_entries: rng.next_u64(),
                wire: WireSnapshot {
                    bytes_out: rng.next_u64(),
                    errors_corrupt: rng.next_u64(),
                    hydration_skipped: rng.next_u64(),
                    ..WireSnapshot::default()
                },
                latency_buckets: histogram(&mut rng),
                session_latency_buckets: histogram(&mut rng),
                ..WireMetrics::default()
            })),
            8 => {
                let events = rng.gen_range(0..4u64);
                let tenants = rng.gen_range(0..3u64);
                Response::Trace(WireTrace {
                    written: rng.next_u64(),
                    dropped: rng.next_u64(),
                    events: (0..events)
                        .map(|_| WireTraceEvent {
                            trace: rng.next_u64(),
                            tenant: word(&mut rng),
                            stage: rng.next_u64() as u8,
                            arg: rng.next_u64(),
                            at_ns: rng.next_u64(),
                        })
                        .collect(),
                    tenants: (0..tenants)
                        .map(|_| {
                            let exemplars = rng.gen_range(0..3u64);
                            WireTenantTrace {
                                tenant: word(&mut rng),
                                queue_wait_p50_ns: rng.next_u64(),
                                execute_p99_ns: rng.next_u64(),
                                respond_p50_ns: rng.next_u64(),
                                exemplars: (0..exemplars)
                                    .map(|_| {
                                        let stages = rng.gen_range(0..7u64);
                                        WireExemplar {
                                            trace: rng.next_u64(),
                                            total_ns: rng.next_u64(),
                                            stages: (0..stages)
                                                .map(|_| WireStage {
                                                    stage: rng.next_u64() as u8,
                                                    arg: rng.next_u64(),
                                                    at_ns: rng.next_u64(),
                                                })
                                                .collect(),
                                        }
                                    })
                                    .collect(),
                                ..WireTenantTrace::default()
                            }
                        })
                        .collect(),
                })
            }
            _ => {
                let statuses = [
                    WireStatus::UnknownDeployment,
                    WireStatus::UnknownVersion,
                    WireStatus::Terminated,
                    WireStatus::Saturated,
                    WireStatus::SnapshotMismatch,
                    WireStatus::BadRequest,
                    WireStatus::BadFrame,
                    WireStatus::UnknownSession,
                    WireStatus::SessionBusy,
                    WireStatus::DeadlineShed,
                ];
                Response::Error {
                    status: statuses[rng.gen_range(0..statuses.len() as u64) as usize],
                    message: word(&mut rng),
                }
            }
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn emwire2_responses_roundtrip_bitwise_through_chunked_streams(
        response in wire_response_strategy(),
        id in 0u64..u64::MAX,
        chunk in 1usize..4096,
    ) {
        use eigenmaps::net::{FrameBuffer, Response, MAX_FRAME_BYTES};
        let frame = response.encode(id).expect("encodes");
        let mut fb = FrameBuffer::new(MAX_FRAME_BYTES);
        let mut records = Vec::new();
        for piece in frame.chunks(chunk) {
            fb.extend(piece);
            while let Some(outcome) = fb.next_record() {
                records.push(outcome.expect("valid frame"));
            }
        }
        prop_assert_eq!(records.len(), 1);
        let (got_id, got) = Response::decode(&records[0]).expect("roundtrip decodes");
        prop_assert_eq!(got_id, id);
        prop_assert_eq!(got.encode(id).expect("encodes"), frame);
        prop_assert_eq!(got, response);
    }

    #[test]
    fn emwire2_any_one_to_three_bit_flips_are_corrupt_without_an_id(
        request in wire_request_strategy(),
        response in wire_response_strategy(),
        pick_response in 0u32..2,
        flips in 1usize..=3,
        seed in 0u64..1_000_000,
    ) {
        use eigenmaps::net::{Request, Response, WireError};
        use rand::{Rng, SeedableRng};
        let frame = if pick_response == 1 {
            response.encode(41).expect("encodes")
        } else {
            request.encode(41).expect("encodes")
        };
        // Flip `flips` distinct bits anywhere in the record, trailer
        // included. CRC-32C's Hamming distance of 4 leaves no 1–3-bit
        // pattern undetected, and the envelope checks that run before it
        // also report `Corrupt`, so no flip reaches a body decoder.
        let mut bad = frame[4..].to_vec();
        let bits = bad.len() as u64 * 8;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut chosen: Vec<u64> = Vec::new();
        while chosen.len() < flips {
            let bit = rng.gen_range(0..bits);
            if !chosen.contains(&bit) {
                chosen.push(bit);
                bad[(bit / 8) as usize] ^= 1 << (bit % 8);
            }
        }
        let outcome = if pick_response == 1 {
            Response::decode(&bad).map(|_| ())
        } else {
            Request::decode(&bad).map(|_| ())
        };
        prop_assert!(outcome.is_err(), "flipped bits {:?} still decode", chosen);
        let failure = outcome.unwrap_err();
        prop_assert!(failure.id.is_none(), "flipped bits {:?}: id {:?}", chosen, failure.id);
        prop_assert!(
            matches!(failure.error, WireError::Corrupt { .. }),
            "flipped bits {:?}: {:?}",
            chosen,
            failure.error
        );
    }
}

// ---------------------------------------------------------------------------
// EMSTORE1: the durability-store manifest must uphold the same codec
// discipline as the other file formats — bitwise roundtrips, rejection of
// corruption and truncation — and `SnapshotStore::load` must account for
// every entry it cannot recover: `skipped` is exact, never an estimate.
// ---------------------------------------------------------------------------

/// An arbitrary manifest: catalog and session rosters with seeded names,
/// file names, digests and counters (the shim strategy idiom used above).
/// Session ids are unique and each references a single canonical
/// generation file, so removal tests have no fallback to recover through.
fn store_manifest_strategy() -> impl Strategy<Value = eigenmaps::core::codec::StoreManifest> {
    use eigenmaps::core::codec::{StoreCatalogEntry, StoreManifest, StoreSessionEntry};
    (0usize..4, 0usize..6, 0u64..1_000_000).prop_map(|(catalog, sessions, seed)| {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let word = |rng: &mut rand::rngs::StdRng| -> String {
            let len = 1 + rng.gen_range(0..11u64) as usize;
            (0..len)
                .map(|_| char::from(b'a' + (rng.gen_range(0..26u64) as u8)))
                .collect()
        };
        StoreManifest {
            catalog: (0..catalog)
                .map(|i| StoreCatalogEntry {
                    name: format!("{}-{i}", word(&mut rng)),
                    version: rng.gen_range(0..100u64) as u32,
                    file: format!("d-{:016x}.emdeploy", rng.next_u64()),
                    artifact_digest: rng.next_u64(),
                })
                .collect(),
            sessions: (0..sessions)
                .map(|i| {
                    let id = i as u64 + 1;
                    let generation = 1 + rng.gen_range(0..9u64);
                    StoreSessionEntry {
                        id,
                        file: format!("s{id:016x}-g{generation:08x}.emsess"),
                        generation,
                        frames: rng.next_u64(),
                        artifact_digest: rng.next_u64(),
                    }
                })
                .collect(),
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn emstore1_manifests_roundtrip_bitwise(manifest in store_manifest_strategy()) {
        use eigenmaps::core::codec::{StoreManifest, STORE_VERSION};
        let bytes = manifest.to_bytes();
        prop_assert_eq!(StoreManifest::peek_version(&bytes), Some(STORE_VERSION));
        let got = StoreManifest::from_bytes(&bytes).expect("roundtrip decodes");
        prop_assert_eq!(got.to_bytes(), bytes.clone());
        prop_assert_eq!(got, manifest);
    }

    #[test]
    fn emstore1_any_single_byte_corruption_is_rejected(
        manifest in store_manifest_strategy(),
        pos_frac in 0.0f64..1.0,
        flip in 1u8..=255,
    ) {
        use eigenmaps::core::codec::StoreManifest;
        // The FNV-1a trailer covers every payload byte and the trailer
        // itself only matches its own payload, so no single-byte change
        // decodes — whether it lands in the magic, an entry, or the
        // checksum itself.
        let bytes = manifest.to_bytes();
        let pos = ((bytes.len() as f64 * pos_frac) as usize).min(bytes.len() - 1);
        let mut bad = bytes;
        bad[pos] ^= flip;
        prop_assert!(StoreManifest::from_bytes(&bad).is_err());
    }

    #[test]
    fn emstore1_strict_prefixes_are_rejected(
        manifest in store_manifest_strategy(),
        cut_frac in 0.0f64..1.0,
    ) {
        use eigenmaps::core::codec::StoreManifest;
        // A torn write is a strict prefix of the intended record: the
        // bytes that land in the checksum slot are really payload bytes,
        // so validation fails before any field is trusted.
        let bytes = manifest.to_bytes();
        let cut = ((bytes.len() as f64 * cut_frac) as usize).min(bytes.len() - 1);
        prop_assert!(StoreManifest::from_bytes(&bytes[..cut]).is_err());
    }

    #[test]
    fn emstore1_missing_session_files_are_skipped_with_exact_accounting(
        manifest in store_manifest_strategy(),
        removal_seed in 0u64..1_000_000,
    ) {
        use eigenmaps::core::codec::{fnv1a64, SessionSnapshot};
        use eigenmaps::serve::{MemIo, SnapshotStore, StoreIo};
        use rand::{Rng, SeedableRng};

        // Materialize the manifest as a real store: every catalog file
        // written with a matching digest, every session file written as
        // a valid EMSESS1 snapshot (one generation each, so a removed
        // file has no older fallback to recover through).
        let mut manifest = manifest;
        let io = MemIo::new();
        for entry in &mut manifest.catalog {
            let bytes = entry.file.clone().into_bytes();
            entry.artifact_digest = fnv1a64(&bytes);
            io.write_all(&entry.file, &bytes).expect("write artifact");
        }
        for entry in &manifest.sessions {
            let snapshot = SessionSnapshot {
                deployment: "chip".into(),
                version: 1,
                gain: 0.5,
                frames: entry.frames,
                k: 2,
                m: 3,
                artifact_digest: entry.artifact_digest,
                state: None,
            };
            io.write_all(&entry.file, &snapshot.to_bytes())
                .expect("write session");
        }
        io.write_all("manifest.emstore", &manifest.to_bytes())
            .expect("write manifest");

        // Remove a seeded subset of the referenced session files.
        let mut rng = rand::rngs::StdRng::seed_from_u64(removal_seed);
        let mut removed = 0u64;
        let mut survivors = Vec::new();
        for entry in &manifest.sessions {
            if rng.gen_range(0..2u64) == 0 {
                io.remove(&entry.file).expect("remove");
                removed += 1;
            } else {
                survivors.push(entry.id);
            }
        }

        // Every missing file is one skip; every survivor comes back, in
        // manifest order; the catalog is untouched by session loss.
        let contents = SnapshotStore::with_io(io, 2).load().expect("load");
        prop_assert_eq!(contents.skipped, removed);
        prop_assert_eq!(contents.catalog.len(), manifest.catalog.len());
        let recovered: Vec<u64> = contents.sessions.iter().map(|(id, _)| *id).collect();
        prop_assert_eq!(recovered, survivors);
    }
}
