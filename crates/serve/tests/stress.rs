//! Loom-style stress lane for the threaded scheduler driver: the same
//! serving workload replayed under many *seeded shim-RNG schedules*, each
//! seed deterministically deciding every thread's tenant choices, chunk
//! sizes, submit paths (blocking vs nonblocking), abandonment points and
//! yield interleavings. Hot swaps run concurrently throughout.
//!
//! CI runs this file single-threaded (`cargo test -p eigenmaps-serve --
//! --test-threads=1`) with `EIGENMAPS_STRESS=1`, which widens the seed
//! sweep; the default sweep keeps the tier-1 run fast.
//!
//! What each schedule asserts:
//! * every awaited response is bitwise-identical to the pinned artifact's
//!   sequential `reconstruct_batch` over the same frames;
//! * abandoned tickets never wedge the batcher or leak queue slots;
//! * the session-churn lane (scheduled sessions opened, stepped,
//!   snapshotted/resumed and dropped concurrently with the batch traffic)
//!   stays bitwise-lockstep with an inline reference tracker throughout;
//! * the metrics ledger balances: zero errors, every admitted request
//!   flushed, every submitted step executed, per-tenant queue-depth
//!   gauges drained to zero and the session gauge back to zero.
//!
//! A second lane replays a QoS overload (premium `Shed` tier next to a
//! brownout-degraded bulk tier) and checks the same discipline: every
//! ticket completes — exact, degraded-bitwise, or typed shed — and the
//! ledger accounts each outcome exactly.

use std::sync::Arc;
use std::time::Duration;

use eigenmaps_core::prelude::*;
use eigenmaps_serve::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A small two-tenant fleet fixture: each tenant has its own basis so a
/// cross-tenant mixup would change answers, plus per-tenant truth maps.
struct Fleet {
    registry: Arc<DeploymentRegistry>,
    names: [&'static str; 2],
    deployments: [Arc<Deployment>; 2],
    frames: [Vec<Vec<f64>>; 2],
}

fn fleet() -> Fleet {
    let names = ["sku-a", "sku-b"];
    let registry = Arc::new(DeploymentRegistry::new());
    let mut deployments = Vec::new();
    let mut frames = Vec::new();
    for (idx, name) in names.iter().enumerate() {
        let maps: Vec<ThermalMap> = (0..60)
            .map(|t| {
                let a = (t as f64 / (4.0 + idx as f64)).sin();
                let b = (t as f64 / 3.3).cos();
                ThermalMap::from_fn(8, 7, |r, c| 48.0 + a * (r + idx * c) as f64 - b * c as f64)
            })
            .collect();
        let ens = MapEnsemble::from_maps(&maps).unwrap();
        let deployment = Pipeline::new(&ens)
            .basis(BasisSpec::EigenExact { k: 2 + idx })
            .sensors(5 + idx)
            .design()
            .unwrap();
        registry.publish(name, deployment.clone());
        let tenant_frames: Vec<Vec<f64>> = (0..24)
            .map(|t| {
                let mut readings = deployment.sensors().sample(&ens.map(t));
                for (i, x) in readings.iter_mut().enumerate() {
                    *x += ((t * 17 + i * 5) as f64 * 0.41).sin() * 0.05;
                }
                readings
            })
            .collect();
        deployments.push(Arc::new(deployment));
        frames.push(tenant_frames);
    }
    Fleet {
        registry,
        names,
        deployments: [Arc::clone(&deployments[0]), Arc::clone(&deployments[1])],
        frames: [frames.remove(0), frames.remove(0)],
    }
}

/// One full schedule: 4 client threads + 1 hot-swapper racing the batcher,
/// every nondeterministic choice drawn from `seed`.
fn stress_schedule(seed: u64) {
    let fleet = fleet();
    let policy = BatchPolicy {
        max_batch_frames: 24,
        max_batch_requests: 6,
        max_delay: Duration::from_micros(300),
        max_pending_per_tenant: 64,
        ..BatchPolicy::default()
    };
    let server = Arc::new(Server::with_policy(Arc::clone(&fleet.registry), 2, policy));
    let truth: [Arc<Vec<ThermalMap>>; 2] = [
        Arc::new(
            fleet.deployments[0]
                .reconstruct_batch(&fleet.frames[0])
                .unwrap(),
        ),
        Arc::new(
            fleet.deployments[1]
                .reconstruct_batch(&fleet.frames[1])
                .unwrap(),
        ),
    ];

    let mut clients = Vec::new();
    for worker in 0..4u64 {
        let server = Arc::clone(&server);
        let names = fleet.names;
        let frames = [fleet.frames[0].clone(), fleet.frames[1].clone()];
        let truth = [Arc::clone(&truth[0]), Arc::clone(&truth[1])];
        clients.push(std::thread::spawn(move || {
            let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(31).wrapping_add(worker));
            let mut kept: Vec<(usize, usize, usize, Ticket)> = Vec::new();
            let mut submitted = 0usize;
            for _ in 0..40 {
                let tenant = rng.gen_range(0usize..2);
                let start = rng.gen_range(0usize..frames[tenant].len() - 1);
                let len = rng.gen_range(1usize..=3).min(frames[tenant].len() - start);
                let request =
                    ServeRequest::new(names[tenant], frames[tenant][start..start + len].to_vec());
                // Schedule point: blocking vs admission-controlled door.
                let outcome = if rng.gen_bool(0.5) {
                    match server.try_submit(request) {
                        Err(ServeError::Saturated { .. }) => continue, // backpressure: drop
                        other => other,
                    }
                } else {
                    server.submit(request)
                };
                let ticket = outcome.expect("submit");
                submitted += 1;
                // Schedule point: ~15% of tickets are abandoned unpolled.
                if rng.gen_bool(0.15) {
                    drop(ticket);
                } else {
                    kept.push((tenant, start, len, ticket));
                }
                if rng.gen_bool(0.3) {
                    std::thread::yield_now();
                }
            }
            for (tenant, start, len, ticket) in kept {
                // Schedule point: half wait, half poll.
                let maps = if ticket.version() == 1 && start % 2 == 0 {
                    ticket.wait().expect("serve")
                } else {
                    let mut ticket = ticket;
                    loop {
                        if let Some(result) = ticket.try_wait() {
                            break result.expect("serve");
                        }
                        std::thread::yield_now();
                    }
                };
                assert_eq!(maps.len(), len);
                // v1-pinned responses must equal the v1 sequential batch
                // bitwise (hot swaps republish clones of the same
                // artifact, so every version serves the same answers).
                for (map, expected) in maps.iter().zip(&truth[tenant][start..start + len]) {
                    assert_eq!(map.as_slice(), expected.as_slice());
                }
            }
            submitted
        }));
    }

    // Session-churn lane: a scheduled streaming session against sku-b
    // (whose v1 is never retired) is opened, stepped, snapshotted/resumed
    // ("monitor restart") and dropped/reopened under the same seeded
    // schedule, racing the batch clients and the hot-swapper through the
    // one shared scheduler. A lockstep inline reference tracker proves
    // every synchronously awaited map bitwise.
    let churner = {
        let server = Arc::clone(&server);
        let deployment = Arc::clone(&fleet.deployments[1]);
        let frames = fleet.frames[1].clone();
        let name = fleet.names[1];
        std::thread::spawn(move || {
            let mut rng = StdRng::seed_from_u64(seed ^ 0xC0DE);
            let mut session = server.open_session(name, 0.5).expect("open session");
            let mut reference = deployment.tracker(0.5).unwrap();
            let mut t = 0usize;
            let mut steps_submitted = 0usize;
            for _ in 0..50 {
                match rng.gen_range(0u8..10) {
                    0..=5 => {
                        // Blocking scheduled step, proven bitwise against
                        // the inline reference.
                        let readings = &frames[t % frames.len()];
                        let map = session.step(readings).expect("session step");
                        let expected = reference.step(readings).unwrap();
                        assert_eq!(
                            map.as_slice(),
                            expected.as_slice(),
                            "seed {seed}: scheduled session diverged at churn step {t}"
                        );
                        t += 1;
                        steps_submitted += 1;
                    }
                    6 | 7 => {
                        // Fire-and-forget pipelined step: the ticket is
                        // abandoned, the state still advances in order.
                        let readings = &frames[t % frames.len()];
                        match session.submit_step(readings) {
                            Ok(ticket) => {
                                drop(ticket);
                                reference.step(readings).unwrap();
                                t += 1;
                                steps_submitted += 1;
                            }
                            Err(ServeError::Saturated { .. }) => {} // shed
                            Err(e) => panic!("seed {seed}: submit_step: {e}"),
                        }
                    }
                    8 => {
                        // Snapshot → restart → resume, mid-traffic. Steps
                        // in flight are awaited first so the snapshot is a
                        // well-defined point in the stream.
                        while session.pending_steps() > 0 {
                            std::thread::yield_now();
                        }
                        let bytes = session.snapshot();
                        drop(session);
                        session = server.resume_session(&bytes).expect("resume session");
                        assert_eq!(session.frames() as usize, t, "seed {seed}");
                    }
                    _ => {
                        // Drop and open a fresh stream (new lane id, fresh
                        // temporal state on both sides, step index rewound).
                        drop(session);
                        session = server.open_session(name, 0.5).expect("reopen session");
                        reference = deployment.tracker(0.5).unwrap();
                        t = 0;
                    }
                }
                if rng.gen_bool(0.3) {
                    std::thread::yield_now();
                }
            }
            drop(session);
            steps_submitted
        })
    };

    // Concurrent hot-swapper: republish and retire under live traffic.
    let swapper = {
        let registry = Arc::clone(&fleet.registry);
        let deployment = Arc::clone(&fleet.deployments[0]);
        let name = fleet.names[0];
        std::thread::spawn(move || {
            let mut rng = StdRng::seed_from_u64(seed ^ 0x5AFE);
            for _ in 0..6 {
                let v = registry.publish(name, (*deployment).clone());
                if v > 2 && rng.gen_bool(0.7) {
                    registry.retire(name, v - 2).unwrap();
                }
                for _ in 0..rng.gen_range(1usize..4) {
                    std::thread::yield_now();
                }
            }
        })
    };

    let total_submitted: usize = clients.into_iter().map(|c| c.join().unwrap()).sum();
    let total_steps = churner.join().unwrap();
    swapper.join().unwrap();

    // Abandoned tickets' batches flush on their own deadlines and
    // abandoned steps execute on the lane's next grants; wait for the
    // ledger to balance without sleeping in the assertion itself.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    let snap = loop {
        let snap = server.metrics();
        let flushed: u64 = snap.tenants.values().map(|t| t.batch_requests).sum();
        let drained = snap.tenants.values().all(|t| t.queue_depth == 0);
        if (flushed == total_submitted as u64
            && drained
            && snap.session_steps == total_steps as u64)
            || std::time::Instant::now() > deadline
        {
            break snap;
        }
        std::thread::yield_now();
    };
    assert_eq!(snap.errors, 0, "seed {seed}");
    assert_eq!(snap.requests, total_submitted as u64, "seed {seed}");
    let flushed: u64 = snap.tenants.values().map(|t| t.batch_requests).sum();
    assert_eq!(
        flushed, total_submitted as u64,
        "seed {seed}: requests leaked"
    );
    for (name, tenant) in &snap.tenants {
        assert_eq!(tenant.queue_depth, 0, "seed {seed}: {name} leaked slots");
    }
    // Every submitted step — awaited or abandoned — executed, and every
    // churned session closed its gauge slot.
    assert_eq!(
        snap.session_steps, total_steps as u64,
        "seed {seed}: steps leaked"
    );
    assert_eq!(snap.sessions_open, 0, "seed {seed}: session gauge leaked");
    assert!(snap.max_sessions_open >= 1, "seed {seed}");

    // The same churn ran fully traced: the ring parsed torn-free
    // (snapshot skips in-flight slots, never tears them), accounting
    // stayed exact, and every kept slow-request exemplar is a monotone
    // stage timeline spanning admission to its terminal stage.
    let recorder = server.recorder();
    assert!(recorder.written() > 0, "seed {seed}: traffic was traced");
    let ring = recorder.snapshot();
    assert!(ring.events.len() <= recorder.capacity(), "seed {seed}");
    assert_eq!(ring.written, recorder.written(), "seed {seed}");
    for (tenant, kept) in recorder.exemplars() {
        for exemplar in &kept {
            assert!(
                exemplar.stages.windows(2).all(|w| w[0].1 <= w[1].1),
                "seed {seed}: {tenant} exemplar {} timeline not monotone",
                exemplar.trace
            );
            let first = exemplar.stages.first().expect("nonempty timeline").1;
            let last = exemplar.stages.last().expect("nonempty timeline").1;
            assert_eq!(
                exemplar.total,
                last - first,
                "seed {seed}: {tenant} exemplar total disagrees with its timeline"
            );
        }
    }
}

#[test]
fn seeded_schedules_keep_the_server_sound() {
    // EIGENMAPS_STRESS=1 (the CI stress lane) widens the sweep.
    let seeds: u64 = if std::env::var_os("EIGENMAPS_STRESS").is_some() {
        24
    } else {
        4
    };
    for seed in 0..seeds {
        stress_schedule(seed);
    }
}

/// One QoS overload schedule: 4 client threads hammer a premium `Shed`
/// tenant (sku-a) and a bulk `Degrade` tenant (sku-b) sharing one
/// batcher under a 1-frame brownout watermark. Every ticket must
/// complete — exact maps, degraded-bitwise maps, or a typed retryable
/// `DeadlineShed` — and the metrics ledger must account each outcome
/// exactly: `submitted == served + shed`, no other errors, queues
/// drained.
fn qos_overload_schedule(seed: u64) {
    let fleet = fleet();
    let policy = BatchPolicy {
        max_batch_frames: 24,
        max_batch_requests: 6,
        max_delay: Duration::from_micros(300),
        max_pending_per_tenant: 1 << 12,
        ..BatchPolicy::default()
    };
    let server = Arc::new(Server::with_policy(Arc::clone(&fleet.registry), 2, policy));
    // Even seeds shed premium at a zero deadline — every premium request
    // refused, deterministically. Odd seeds use 150 µs, splitting
    // premium outcomes by real queue wait. Bulk degrades to its
    // strongest mode; with a 1-frame enter watermark any tick with work
    // pending is a brownout tick, so every bulk batch serves degraded.
    let premium_deadline = if seed.is_multiple_of(2) {
        Duration::ZERO
    } else {
        Duration::from_micros(150)
    };
    server
        .set_tenant_policy(
            fleet.names[0],
            Some(BatchPolicy {
                deadline: Some(premium_deadline),
                overrun: OverrunAction::Shed,
                ..policy
            }),
        )
        .unwrap();
    server
        .set_tenant_policy(
            fleet.names[1],
            Some(BatchPolicy {
                deadline: Some(Duration::from_secs(60)),
                overrun: OverrunAction::Degrade { keep_k: 1 },
                ..policy
            }),
        )
        .unwrap();
    server
        .set_brownout(Some(BrownoutPolicy {
            enter_above: 1,
            exit_below: 0,
        }))
        .unwrap();

    let truth: [Arc<Vec<ThermalMap>>; 2] = [
        Arc::new(
            fleet.deployments[0]
                .reconstruct_batch(&fleet.frames[0])
                .unwrap(),
        ),
        Arc::new(
            fleet.deployments[1]
                .reconstruct_batch(&fleet.frames[1])
                .unwrap(),
        ),
    ];
    let coarse: Arc<Vec<ThermalMap>> = Arc::new(
        fleet.deployments[1]
            .truncated(1)
            .unwrap()
            .reconstruct_batch(&fleet.frames[1])
            .unwrap(),
    );

    let mut clients = Vec::new();
    for worker in 0..4u64 {
        let server = Arc::clone(&server);
        let names = fleet.names;
        let frames = [fleet.frames[0].clone(), fleet.frames[1].clone()];
        let truth = [Arc::clone(&truth[0]), Arc::clone(&truth[1])];
        let coarse = Arc::clone(&coarse);
        clients.push(std::thread::spawn(move || {
            let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(131).wrapping_add(worker));
            let mut kept: Vec<(usize, usize, usize, Ticket)> = Vec::new();
            for _ in 0..30 {
                let tenant = rng.gen_range(0usize..2);
                let start = rng.gen_range(0usize..frames[tenant].len() - 1);
                let len = rng.gen_range(1usize..=3).min(frames[tenant].len() - start);
                let ticket = server
                    .submit(ServeRequest::new(
                        names[tenant],
                        frames[tenant][start..start + len].to_vec(),
                    ))
                    .expect("submit");
                kept.push((tenant, start, len, ticket));
                if rng.gen_bool(0.3) {
                    std::thread::yield_now();
                }
            }
            // Every ticket completes: exact, degraded-bitwise, or typed
            // retryable shed. Nothing is abandoned, so the counts below
            // are the full ledger.
            let (mut ok, mut shed) = (0usize, 0usize);
            let mut submitted_per = [0usize; 2];
            for (tenant, start, len, mut ticket) in kept {
                submitted_per[tenant] += 1;
                let result = loop {
                    match ticket.try_wait() {
                        Some(result) => break result,
                        None => std::thread::yield_now(),
                    }
                };
                match result {
                    Ok(maps) => {
                        assert_eq!(maps.len(), len, "seed {seed}");
                        ok += 1;
                        let expected: &[ThermalMap] = if tenant == 1 {
                            // Brownout never lifts while traffic flows:
                            // bulk is always the coarse tier, bitwise.
                            assert!(ticket.is_degraded(), "seed {seed}: bulk served exact");
                            &coarse[start..start + len]
                        } else {
                            assert!(!ticket.is_degraded(), "seed {seed}: premium degraded");
                            &truth[tenant][start..start + len]
                        };
                        for (map, want) in maps.iter().zip(expected) {
                            assert_eq!(map.as_slice(), want.as_slice(), "seed {seed}");
                        }
                    }
                    Err(e) => {
                        assert!(e.is_retryable(), "seed {seed}: {e}");
                        let ServeError::DeadlineShed {
                            name,
                            deadline,
                            waited,
                        } = e
                        else {
                            panic!("seed {seed}: unexpected error {e}");
                        };
                        assert_eq!(tenant, 0, "seed {seed}: bulk tier must never shed");
                        assert_eq!(name, names[0], "seed {seed}");
                        assert_eq!(deadline, premium_deadline, "seed {seed}");
                        assert!(waited >= deadline, "seed {seed}: shed before the deadline");
                        shed += 1;
                    }
                }
            }
            (submitted_per[0], submitted_per[1], ok, shed)
        }));
    }

    let mut premium_submitted = 0usize;
    let mut bulk_submitted = 0usize;
    let mut ok_total = 0usize;
    let mut shed_total = 0usize;
    for client in clients {
        let (p, b, ok, shed) = client.join().unwrap();
        premium_submitted += p;
        bulk_submitted += b;
        ok_total += ok;
        shed_total += shed;
    }
    let submitted = premium_submitted + bulk_submitted;
    assert_eq!(
        ok_total + shed_total,
        submitted,
        "seed {seed}: lost tickets"
    );
    if seed.is_multiple_of(2) {
        // Zero deadline: every premium request shed, deterministically.
        assert_eq!(shed_total, premium_submitted, "seed {seed}");
    }

    // The ledger balances exactly: shed is the only error source, every
    // degraded request is bulk's, and the queues drained.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    let snap = loop {
        let snap = server.metrics();
        let flushed: u64 = snap.tenants.values().map(|t| t.batch_requests).sum();
        let drained = snap.tenants.values().all(|t| t.queue_depth == 0);
        if (flushed + snap.errors == submitted as u64 && drained)
            || std::time::Instant::now() > deadline
        {
            break snap;
        }
        std::thread::yield_now();
    };
    assert_eq!(snap.requests, submitted as u64, "seed {seed}");
    assert_eq!(snap.errors, shed_total as u64, "seed {seed}");
    assert_eq!(snap.shed, shed_total as u64, "seed {seed}");
    let flushed: u64 = snap.tenants.values().map(|t| t.batch_requests).sum();
    assert_eq!(flushed, ok_total as u64, "seed {seed}");
    assert_eq!(
        snap.requests,
        flushed + snap.errors,
        "seed {seed}: accounting identity broke"
    );
    let premium = &snap.tenants[fleet.names[0]];
    assert_eq!(premium.shed_requests, shed_total as u64, "seed {seed}");
    assert_eq!(premium.degraded_requests, 0, "seed {seed}");
    let bulk = &snap.tenants[fleet.names[1]];
    assert_eq!(bulk.shed_requests, 0, "seed {seed}");
    assert_eq!(
        bulk.degraded_requests, bulk_submitted as u64,
        "seed {seed}: every bulk request serves degraded under brownout"
    );
    assert_eq!(snap.degraded, bulk_submitted as u64, "seed {seed}");
    if bulk_submitted > 0 {
        assert!(bulk.degraded_batches >= 1, "seed {seed}");
        assert!(snap.brownout_entries >= 1, "seed {seed}");
    }
    for (name, tenant) in &snap.tenants {
        assert_eq!(tenant.queue_depth, 0, "seed {seed}: {name} leaked slots");
    }
}

#[test]
fn qos_overload_schedules_account_every_ticket() {
    // EIGENMAPS_STRESS=1 (the CI stress lane) widens the sweep.
    let seeds: u64 = if std::env::var_os("EIGENMAPS_STRESS").is_some() {
        16
    } else {
        4
    };
    for seed in 0..seeds {
        qos_overload_schedule(seed);
    }
}

/// Satellite: the flight-recorder ring under raw multi-writer fire,
/// each writer recording through its own trace card. Every event
/// encodes its writer and sequence in *three* fields (trace id,
/// coalesce arg, timestamp); a torn slot — fields from two different
/// writes — cannot stay self-consistent. Quiescent accounting is exact:
/// every claimed ticket beyond the ring's capacity is a drop, whether
/// overwritten or abandoned to a lapping writer.
#[test]
fn concurrent_ring_writers_never_tear_events_and_drops_account_exactly() {
    let stress = std::env::var_os("EIGENMAPS_STRESS").is_some();
    let writers: usize = if stress { 8 } else { 4 };
    let per_writer: usize = if stress { 20_000 } else { 2_000 };
    for capacity in [64usize, 8] {
        let recorder = FlightRecorder::new(capacity);
        let names: Vec<String> = (0..writers).map(|k| format!("w{k}")).collect();
        // Each card's `Admitted` event lands before any writer starts,
        // so it is the oldest history and always among the drops.
        let cards: Vec<_> = names
            .iter()
            .map(|n| recorder.begin_at(n, Duration::ZERO))
            .collect();
        let ids: Vec<u64> = cards.iter().map(|c| c.id().0).collect();

        std::thread::scope(|scope| {
            for (k, card) in cards.iter().enumerate() {
                scope.spawn(move || {
                    for i in 0..per_writer {
                        let p = (k * per_writer + i) as u32;
                        card.record_at(
                            Stage::Coalesced { requests: p },
                            Duration::from_nanos(u64::from(p) + 1),
                        );
                    }
                });
            }
        });

        let total = (writers * (per_writer + 1)) as u64;
        assert_eq!(
            recorder.dropped(),
            total - capacity as u64,
            "cap {capacity}: exactly everything beyond the ring is dropped"
        );
        let ring = recorder.snapshot();
        assert_eq!(ring.written, recorder.written());
        assert!(ring.written <= total);
        assert!(ring.events.len() <= capacity);
        let mut seen = std::collections::HashSet::new();
        for event in &ring.events {
            let Stage::Coalesced { requests: p } = event.stage else {
                panic!("cap {capacity}: torn stage byte: {:?}", event.stage);
            };
            let k = p as usize / per_writer;
            assert_eq!(event.trace.0, ids[k], "cap {capacity}: torn trace id");
            assert_eq!(event.tenant, names[k], "cap {capacity}: torn tenant");
            assert_eq!(
                event.at,
                Duration::from_nanos(u64::from(p) + 1),
                "cap {capacity}: torn timestamp"
            );
            assert!(seen.insert(p), "cap {capacity}: duplicate event {p}");
        }
    }
}
