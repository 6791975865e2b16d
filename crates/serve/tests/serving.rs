//! Integration tests for the serving runtime, centered on the
//! bitwise-identity contract: no matter how a batch is sharded, batched or
//! micro-batched, the output must equal the single-threaded
//! `Deployment::reconstruct_batch` (itself bitwise-identical to per-frame
//! reconstruction) bit for bit.

use std::sync::Arc;
use std::time::Duration;

use eigenmaps_core::prelude::*;
use eigenmaps_serve::prelude::*;

/// A deployment over a synthetic three-mode family plus `frames` noisy
/// reading vectors (deterministic, irrational-period modes so frames are
/// all distinct).
fn fixture(frames: usize) -> (Arc<Deployment>, Arc<Vec<Vec<f64>>>) {
    let maps: Vec<ThermalMap> = (0..80)
        .map(|t| {
            let a = (t as f64 / 5.0).sin();
            let b = (t as f64 / 3.0).cos();
            let c2 = (t as f64 / 7.3).sin();
            ThermalMap::from_fn(9, 7, |r, c| {
                55.0 + a * r as f64 - b * c as f64 + 0.3 * c2 * ((r * c) as f64).sqrt()
            })
        })
        .collect();
    let ens = MapEnsemble::from_maps(&maps).unwrap();
    let deployment = Pipeline::new(&ens)
        .basis(BasisSpec::EigenExact { k: 3 })
        .sensors(6)
        .design()
        .unwrap();
    let frames: Vec<Vec<f64>> = (0..frames)
        .map(|t| {
            let mut readings = deployment.sensors().sample(&ens.map(t % ens.len()));
            // Deterministic per-frame perturbation so no two frames match.
            for (i, x) in readings.iter_mut().enumerate() {
                *x += ((t * 31 + i * 7) as f64 * 0.618).sin() * 0.05;
            }
            readings
        })
        .collect();
    (Arc::new(deployment), Arc::new(frames))
}

#[test]
fn sharded_execution_is_bitwise_identical_across_odd_batch_sizes() {
    for shard_count in [1usize, 2, 3, 4, 8] {
        let executor = ShardedExecutor::new(shard_count);
        // The ISSUE-mandated awkward sizes: 1, shard_count−1,
        // shard_count+1, and a 1000+ batch, plus boundary-stressing
        // neighbors.
        let sizes = [
            1,
            shard_count.saturating_sub(1),
            shard_count + 1,
            2 * shard_count + 1,
            37,
            1031,
        ];
        for &size in &sizes {
            let (deployment, frames) = fixture(size);
            let sequential = deployment.reconstruct_batch(&frames).unwrap();
            let sharded = executor.execute(&deployment, &frames).unwrap();
            assert_eq!(
                sharded.len(),
                sequential.len(),
                "shards={shard_count} size={size}"
            );
            for (i, (a, b)) in sequential.iter().zip(sharded.iter()).enumerate() {
                assert_eq!(
                    a.as_slice(),
                    b.as_slice(),
                    "bitwise divergence at frame {i} (shards={shard_count}, size={size})"
                );
            }
        }
    }
}

#[test]
fn sharded_execution_matches_per_frame_reconstruction() {
    let executor = ShardedExecutor::new(4);
    let (deployment, frames) = fixture(129);
    let sharded = executor.execute(&deployment, &frames).unwrap();
    for (frame, map) in frames.iter().zip(sharded.iter()) {
        let single = deployment.reconstruct(frame).unwrap();
        assert_eq!(single.as_slice(), map.as_slice());
    }
}

#[test]
fn full_stack_registry_server_roundtrip() {
    let (deployment, frames) = fixture(200);
    let registry = Arc::new(DeploymentRegistry::new());
    registry
        .publish_bytes("t1", &deployment.to_bytes())
        .unwrap();
    let server = Server::new(Arc::clone(&registry), 3);

    // Split the traffic into uneven requests; answers must equal the
    // sequential batch over the concatenation.
    let sequential = deployment.reconstruct_batch(&frames).unwrap();
    let mut tickets = Vec::new();
    let mut offsets = Vec::new();
    let mut start = 0usize;
    for chunk in [1usize, 9, 3, 57, 30, 100] {
        let end = (start + chunk).min(frames.len());
        tickets.push(
            server
                .submit(ServeRequest::new("t1", frames[start..end].to_vec()))
                .unwrap(),
        );
        offsets.push(start..end);
        start = end;
    }
    for (ticket, span) in tickets.into_iter().zip(offsets) {
        let maps = ticket.wait().unwrap();
        for (map, truth) in maps.iter().zip(&sequential[span]) {
            assert_eq!(map.as_slice(), truth.as_slice());
        }
    }

    let snapshot = server.metrics();
    assert_eq!(snapshot.requests, 6);
    assert_eq!(snapshot.frames, 200);
    assert!(snapshot.batches >= 1);
    assert_eq!(snapshot.errors, 0);
    assert_eq!(snapshot.shard_frames.iter().sum::<u64>(), 200);
}

/// Fault injection: a tenant hot-swapped mid-queue keeps serving already
/// submitted tickets from the artifact they pinned, bitwise — the swap
/// creates a *new* per-tenant queue rather than contaminating the old one.
#[test]
fn hot_swap_mid_queue_serves_pinned_artifact_bitwise() {
    let (v1_deployment, frames) = fixture(24);
    let registry = Arc::new(DeploymentRegistry::new());
    registry.publish("chip", (*v1_deployment).clone());
    // A long latency budget keeps the v1 request queued across the swap.
    let policy = BatchPolicy {
        max_batch_frames: 1 << 20,
        max_batch_requests: 1 << 10,
        max_delay: Duration::from_millis(60),
        ..BatchPolicy::default()
    };
    let server = Server::with_policy(Arc::clone(&registry), 2, policy);
    let pinned = server
        .submit(ServeRequest::new("chip", frames.to_vec()))
        .unwrap();
    assert_eq!(pinned.version(), 1);

    // Hot swap to a retrained artifact with the SAME sensor count but a
    // different basis (k=4 vs k=3), so the same readings decode to
    // different maps — any queue contamination would be visible bitwise.
    let maps: Vec<ThermalMap> = (0..80)
        .map(|t| {
            let a = (t as f64 / 4.1).sin();
            let b = (t as f64 / 2.7).cos();
            ThermalMap::from_fn(9, 7, |r, c| 50.0 + a * (r * r) as f64 - b * c as f64)
        })
        .collect();
    let ens = MapEnsemble::from_maps(&maps).unwrap();
    let v2_deployment = Pipeline::new(&ens)
        .basis(BasisSpec::EigenExact { k: 4 })
        .allocator(AllocatorSpec::Fixed(v1_deployment.sensors().clone()))
        .design()
        .unwrap();
    assert_eq!(v2_deployment.m(), v1_deployment.m());
    registry.publish("chip", v2_deployment.clone());
    registry.retire("chip", 1).unwrap();

    // New traffic resolves v2; the queued ticket still serves v1.
    let fresh = server
        .submit(ServeRequest::new("chip", frames.to_vec()))
        .unwrap();
    assert_eq!(fresh.version(), 2);

    let v1_truth = v1_deployment.reconstruct_batch(&frames).unwrap();
    let v2_truth = v2_deployment.reconstruct_batch(&frames).unwrap();
    for (map, truth) in pinned.wait().unwrap().iter().zip(&v1_truth) {
        assert_eq!(map.as_slice(), truth.as_slice());
    }
    for (map, truth) in fresh.wait().unwrap().iter().zip(&v2_truth) {
        assert_eq!(map.as_slice(), truth.as_slice());
    }
    // The two artifacts genuinely disagree (the check above was not vacuous).
    assert!(v1_truth
        .iter()
        .zip(&v2_truth)
        .any(|(a, b)| a.as_slice() != b.as_slice()));
}

/// Fault injection: dropping a ticket without ever polling it must not
/// leak its tenant's pending slot or wedge the batcher — later traffic
/// keeps flowing and the queue-depth gauge drains to zero.
#[test]
fn dropped_ticket_neither_leaks_slots_nor_wedges_the_batcher() {
    let (deployment, frames) = fixture(12);
    let registry = Arc::new(DeploymentRegistry::new());
    registry.publish("t1", (*deployment).clone());
    let policy = BatchPolicy {
        max_batch_frames: 1 << 20,
        max_batch_requests: 4,
        max_delay: Duration::from_millis(2),
        max_pending_per_tenant: 8,
        ..BatchPolicy::default()
    };
    let server = Server::with_policy(Arc::clone(&registry), 2, policy);

    // Abandon a batch worth of tickets outright.
    for chunk in frames.chunks(3) {
        let ticket = server
            .submit(ServeRequest::new("t1", chunk.to_vec()))
            .unwrap();
        drop(ticket); // never polled, never waited
    }
    // The batcher still serves subsequent traffic promptly and correctly.
    let truth = deployment.reconstruct_batch(&frames).unwrap();
    for round in 0..4 {
        let maps = server.serve("t1", frames.to_vec()).unwrap();
        for (map, expected) in maps.iter().zip(&truth) {
            assert_eq!(map.as_slice(), expected.as_slice(), "round {round}");
        }
    }
    // Every request — abandoned or served — was flushed: no pending slot
    // leaked, so the nonblocking door is not spuriously saturated.
    let snap = server.metrics();
    assert_eq!(snap.errors, 0);
    let tenant = &snap.tenants["t1"];
    assert_eq!(tenant.queue_depth, 0, "abandoned tickets leaked slots");
    assert_eq!(tenant.batch_requests, 4 + 4);
    assert_eq!(tenant.batch_frames, 12 + 4 * 12);
    let ticket = server
        .try_submit(ServeRequest::new("t1", frames.to_vec()))
        .unwrap();
    assert_eq!(ticket.wait().unwrap().len(), 12);
}

/// The tentpole contract: a session stepped through the scheduler (server
/// path — admission control, stream lane, fairness rotation, execution on
/// the batcher) produces maps bitwise-identical to the deployment's core
/// tracker stepped in-thread, frame for frame — even with concurrent
/// batch traffic interleaving through the same scheduler.
#[test]
fn scheduled_session_is_bitwise_identical_to_synchronous_path() {
    let (deployment, frames) = fixture(48);
    let registry = Arc::new(DeploymentRegistry::new());
    registry.publish("t1", (*deployment).clone());
    let server = Server::new(Arc::clone(&registry), 3);

    // Reference: the raw core tracker.
    let mut raw = deployment.tracker(0.35).unwrap();
    // Subject: the scheduled session, the server's first stream lane.
    let mut scheduled = server.open_session("t1", 0.35).unwrap();
    assert_eq!(scheduled.stream_id(), StreamId(1));

    for (t, readings) in frames.iter().enumerate() {
        // Interleave foreign batch traffic through the same scheduler.
        let foreign = server
            .submit(ServeRequest::new("t1", vec![readings.clone()]))
            .unwrap();
        let a = scheduled.step(readings).unwrap();
        let b = raw.step(readings).unwrap();
        assert_eq!(a.as_slice(), b.as_slice(), "scheduled vs raw, t={t}");
        foreign.wait().unwrap();
    }
    assert_eq!(scheduled.frames(), 48);
    assert_eq!(scheduled.pending_steps(), 0);

    let snap = server.metrics();
    assert_eq!(snap.session_steps, 48);
    assert_eq!(snap.sessions_open, 1);
    assert_eq!(snap.tenants["t1"].session_steps, 48);
    assert!(snap.session_latency_p99 > Duration::ZERO);
    drop(scheduled);
    assert_eq!(server.metrics().sessions_open, 0);
}

/// Steps submitted without waiting (the event-loop shape) execute in
/// submission order on the session's stream lane — the final state equals
/// the synchronous path's, and every ticket resolves to its own frame's
/// map.
#[test]
fn pipelined_submit_step_keeps_order_and_state() {
    let (deployment, frames) = fixture(16);
    let registry = Arc::new(DeploymentRegistry::new());
    registry.publish("t1", (*deployment).clone());
    let server = Server::new(Arc::clone(&registry), 2);
    let session = server.open_session("t1", 0.5).unwrap();
    let mut reference = deployment.tracker(0.5).unwrap();

    let tickets: Vec<_> = frames
        .iter()
        .map(|r| session.submit_step(r).unwrap())
        .collect();
    for (t, (ticket, readings)) in tickets.into_iter().zip(frames.iter()).enumerate() {
        let scheduled = ticket.wait().unwrap();
        let expected = reference.step(readings).unwrap();
        assert_eq!(scheduled.as_slice(), expected.as_slice(), "frame {t}");
    }
    assert_eq!(session.frames(), 16);
    assert_eq!(session.pending_steps(), 0);
}

/// A scheduled step runs to completion on the batcher thread, so its
/// ticket's readiness callback fires there, like a batch ticket's. The
/// batcher is first parked inside a batch ticket's callback: the step
/// submitted meanwhile is still queued when its own callback is
/// registered, so the callback cannot run inline on the test thread.
#[test]
fn step_tickets_complete_on_the_batcher_thread() {
    use std::sync::mpsc;

    let thread_name = || std::thread::current().name().map(str::to_owned);
    let (deployment, frames) = fixture(3);
    let registry = Arc::new(DeploymentRegistry::new());
    registry.publish("t1", (*deployment).clone());
    // Two requests fill a batch; nothing flushes on the 10 s delay.
    let policy = BatchPolicy {
        max_batch_requests: 2,
        max_delay: Duration::from_secs(10),
        ..BatchPolicy::default()
    };
    let server = Server::with_policy(Arc::clone(&registry), 2, policy);
    let session = server.open_session("t1", 0.5).unwrap();

    let first = server
        .submit(ServeRequest::new("t1", vec![frames[0].clone()]))
        .unwrap();
    let (registered_tx, registered_rx) = mpsc::channel::<()>();
    let (parked_tx, parked_rx) = mpsc::channel();
    let (release_tx, release_rx) = mpsc::channel::<()>();
    let registrar = std::thread::spawn(move || {
        first.on_ready(move || {
            parked_tx.send(thread_name()).unwrap();
            release_rx.recv().expect("release the parked batcher");
        });
        registered_tx.send(()).unwrap();
        first
    });
    registered_rx.recv().unwrap();
    // The second request fills the batch; its flush completes `first`
    // on the batcher, which parks in the callback.
    let second = server
        .submit(ServeRequest::new("t1", vec![frames[1].clone()]))
        .unwrap();
    assert_eq!(
        parked_rx.recv().unwrap().as_deref(),
        Some("eigenmaps-batcher")
    );

    let step = session.submit_step(&frames[2]).unwrap();
    let (completed_tx, completed_rx) = mpsc::channel();
    step.on_ready(move || completed_tx.send(thread_name()).unwrap());
    release_tx.send(()).unwrap();
    assert_eq!(
        completed_rx.recv().unwrap().as_deref(),
        Some("eigenmaps-batcher")
    );
    let expected = deployment.tracker(0.5).unwrap().step(&frames[2]).unwrap();
    assert_eq!(step.wait().unwrap().as_slice(), expected.as_slice());
    registrar.join().unwrap().wait().unwrap();
    second.wait().unwrap();
}

/// Steps pipelined right before the server drops are served, not
/// abandoned: every ticket resolves, and each session's maps equal, in
/// order, a standalone tracker's fed the same readings.
#[test]
fn pipelined_steps_complete_bitwise_when_the_server_drops() {
    let (deployment, frames) = fixture(16);
    let registry = Arc::new(DeploymentRegistry::new());
    registry.publish("t1", (*deployment).clone());
    let server = Server::new(Arc::clone(&registry), 2);
    let gains = [0.5, 0.8];
    let sessions: Vec<TrackerSession> = gains
        .iter()
        .map(|&gain| server.open_session("t1", gain).unwrap())
        .collect();
    // Session `s` streams frames[8s..8s+8], the two interleaved.
    let mut tickets = vec![Vec::new(), Vec::new()];
    for t in 0..8 {
        for (s, session) in sessions.iter().enumerate() {
            tickets[s].push(session.submit_step(&frames[8 * s + t]).unwrap());
        }
    }
    drop(server);
    for (s, (tickets, &gain)) in tickets.into_iter().zip(&gains).enumerate() {
        let mut reference = deployment.tracker(gain).unwrap();
        for (t, ticket) in tickets.into_iter().enumerate() {
            let expected = reference.step(&frames[8 * s + t]).unwrap();
            let got = ticket.wait().unwrap();
            assert_eq!(got.as_slice(), expected.as_slice(), "session {s}, step {t}");
        }
    }
    for session in &sessions {
        assert_eq!(session.frames(), 8);
    }
}

/// Session admission control: a session saturates at the tenant's
/// `max_pending_per_tenant` in-flight steps and recovers once they drain.
/// Abandoned step tickets release their admission slots.
#[test]
fn session_steps_saturate_and_recover() {
    let (deployment, frames) = fixture(8);
    let registry = Arc::new(DeploymentRegistry::new());
    registry.publish("t1", (*deployment).clone());
    let server = Server::new(Arc::clone(&registry), 1);
    let session = server.open_session("t1", 0.5).unwrap();
    // A tight per-tenant bound via the override path, installed AFTER the
    // session opened: policy changes must reach live streams, not only
    // sessions opened later.
    server
        .set_tenant_policy(
            "t1",
            Some(BatchPolicy {
                max_pending_per_tenant: 2,
                ..BatchPolicy::default()
            }),
        )
        .unwrap();

    // Submitting faster than the pool drains must eventually refuse;
    // every accepted ticket still resolves. (The pool may drain between
    // submits, so saturation is observed by submitting while holding
    // unresolved tickets until a refusal arrives.)
    let mut accepted = Vec::new();
    let mut saturated = false;
    for _ in 0..1000 {
        match session.submit_step(&frames[0]) {
            Ok(ticket) => accepted.push(ticket),
            Err(ServeError::Saturated { pending, .. }) => {
                assert_eq!(pending, 2);
                saturated = true;
                break;
            }
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
    assert!(saturated, "bound of 2 never refused a submit");
    for ticket in accepted {
        ticket.wait().unwrap();
    }
    // Slots drained: the door admits again. Abandoned tickets also
    // release their slots once executed.
    let ticket = session.submit_step(&frames[1]).unwrap();
    drop(ticket);
    while session.pending_steps() > 0 {
        std::thread::yield_now();
    }
    assert!(session.submit_step(&frames[2]).is_ok());
}

/// Warm restart through the server: snapshot a scheduled session, drop it
/// ("monitor restart"), resume via `Server::resume_session`, and the
/// resumed stream continues bitwise-identically to an uninterrupted
/// scheduled session — pinned to the same version across a hot swap.
#[test]
fn server_snapshot_resume_roundtrip_is_bitwise_across_hot_swap() {
    let (v1_deployment, frames) = fixture(30);
    let registry = Arc::new(DeploymentRegistry::new());
    registry.publish("chip", (*v1_deployment).clone());
    let server = Server::new(Arc::clone(&registry), 2);

    let mut uninterrupted = server.open_session("chip", 0.4).unwrap();
    let mut live = server.open_session("chip", 0.4).unwrap();
    for readings in &frames[..12] {
        uninterrupted.step(readings).unwrap();
        live.step(readings).unwrap();
    }
    let bytes = live.snapshot();
    drop(live); // monitor restart

    // Hot-swap to a retrained artifact between snapshot and resume: the
    // snapshot must reattach to v1, not the new latest.
    let maps: Vec<ThermalMap> = (0..80)
        .map(|t| {
            let a = (t as f64 / 4.1).sin();
            ThermalMap::from_fn(9, 7, |r, c| 50.0 + a * (r * r) as f64 - c as f64)
        })
        .collect();
    let ens = MapEnsemble::from_maps(&maps).unwrap();
    let v2 = Pipeline::new(&ens)
        .basis(BasisSpec::EigenExact { k: 4 })
        .allocator(AllocatorSpec::Fixed(v1_deployment.sensors().clone()))
        .design()
        .unwrap();
    registry.publish("chip", v2);

    let mut resumed = server.resume_session(&bytes).unwrap();
    assert_eq!(resumed.version(), 1, "reattached to the pinned artifact");
    assert_eq!(resumed.frames(), 12);
    for (t, readings) in frames[12..].iter().enumerate() {
        let a = uninterrupted.step(readings).unwrap();
        let b = resumed.step(readings).unwrap();
        assert_eq!(a.as_slice(), b.as_slice(), "post-resume step {t}");
    }
    // A fresh session (no snapshot) on the same name attaches to v2.
    let fresh = server.open_session("chip", 0.4).unwrap();
    assert_eq!(fresh.version(), 2);
}

/// Per-tenant policy overrides tier the nonblocking door: tightening one
/// tenant's admission bound saturates it earlier while the other tenant
/// keeps the global bound; clearing the override restores it.
#[test]
fn tenant_policy_override_tiers_admission_control() {
    let (deployment, frames) = fixture(8);
    let registry = Arc::new(DeploymentRegistry::new());
    registry.publish("gold", (*deployment).clone());
    registry.publish("bulk", (*deployment).clone());
    // Nothing ever flushes: pending queues fill deterministically.
    let policy = BatchPolicy {
        max_batch_frames: 1 << 20,
        max_batch_requests: 1 << 10,
        max_delay: Duration::from_secs(60),
        max_pending_per_tenant: 4,
        ..BatchPolicy::default()
    };
    let server = Server::with_policy(Arc::clone(&registry), 1, policy);
    server
        .set_tenant_policy(
            "bulk",
            Some(BatchPolicy {
                max_pending_per_tenant: 1,
                ..policy
            }),
        )
        .unwrap();
    assert_eq!(server.tenant_policy("bulk").max_pending_per_tenant, 1);
    assert_eq!(server.tenant_policy("gold").max_pending_per_tenant, 4);

    let mut tickets = Vec::new();
    tickets.push(
        server
            .try_submit(ServeRequest::new("bulk", vec![frames[0].clone()]))
            .unwrap(),
    );
    assert!(matches!(
        server.try_submit(ServeRequest::new("bulk", vec![frames[1].clone()])),
        Err(ServeError::Saturated { pending: 1, .. })
    ));
    // The gold tenant still has the global headroom.
    for frame in frames.iter().take(4) {
        tickets.push(
            server
                .try_submit(ServeRequest::new("gold", vec![frame.clone()]))
                .unwrap(),
        );
    }
    assert!(matches!(
        server.try_submit(ServeRequest::new("gold", vec![frames[4].clone()])),
        Err(ServeError::Saturated { pending: 4, .. })
    ));
    // Clearing the override restores the global bound for new admits.
    server.set_tenant_policy("bulk", None).unwrap();
    for frame in frames.iter().take(3) {
        tickets.push(
            server
                .try_submit(ServeRequest::new("bulk", vec![frame.clone()]))
                .unwrap(),
        );
    }
    drop(server); // drain
    for ticket in tickets {
        assert_eq!(ticket.wait().unwrap().len(), 1);
    }
}

#[test]
fn registry_hot_swap_under_concurrent_serving() {
    let (deployment, frames) = fixture(64);
    let registry = Arc::new(DeploymentRegistry::new());
    registry.publish("t1", (*deployment).clone());
    let server = Arc::new(Server::new(Arc::clone(&registry), 2));

    let serving = {
        let (server, frames) = (Arc::clone(&server), Arc::clone(&frames));
        std::thread::spawn(move || {
            for _ in 0..20 {
                // Versions are pinned at submit: every response has the
                // frame count of the request even while swaps happen.
                let maps = server.serve("t1", frames.to_vec()).unwrap();
                assert_eq!(maps.len(), 64);
            }
        })
    };
    for _ in 0..10 {
        let v = registry.publish("t1", (*deployment).clone());
        if v > 2 {
            registry.retire("t1", v - 2).unwrap();
        }
    }
    serving.join().unwrap();
}

#[test]
fn server_records_each_trace_stage_once_with_exact_arguments() {
    let (deployment, frames) = fixture(4);
    let registry = Arc::new(DeploymentRegistry::new());
    for name in ["batch", "stream", "sat", "shed"] {
        registry.publish(name, (*deployment).clone());
    }
    // Two requests fill a batch; nothing flushes on the 10 s delay.
    let policy = BatchPolicy {
        max_batch_requests: 2,
        max_delay: Duration::from_secs(10),
        ..BatchPolicy::default()
    };
    let server = Server::with_policy(Arc::clone(&registry), 2, policy);
    server
        .set_tenant_policy(
            "sat",
            Some(BatchPolicy {
                max_pending_per_tenant: 0,
                ..policy
            }),
        )
        .unwrap();
    let shed_budget = Duration::from_millis(1);
    server
        .set_tenant_policy(
            "shed",
            Some(BatchPolicy {
                deadline: Some(shed_budget),
                overrun: OverrunAction::Shed,
                ..policy
            }),
        )
        .unwrap();
    let mut session = server.open_session("stream", 1.0).unwrap();

    // One of each lifecycle: a coalesced pair, a step, a refusal at the
    // door and a deadline shed.
    let traffic = |session: &mut TrackerSession| {
        let first = server
            .submit(ServeRequest::new("batch", vec![frames[0].clone()]))
            .unwrap();
        let second = server
            .submit(ServeRequest::new("batch", vec![frames[1].clone()]))
            .unwrap();
        assert_eq!(first.wait().unwrap().len(), 1);
        assert_eq!(second.wait().unwrap().len(), 1);
        session.step(&frames[2]).unwrap();
        let refused = server.try_submit(ServeRequest::new("sat", vec![frames[3].clone()]));
        assert!(matches!(refused, Err(ServeError::Saturated { .. })));
        let shed = server
            .submit(ServeRequest::new("shed", vec![frames[3].clone()]))
            .unwrap();
        assert!(matches!(shed.wait(), Err(ServeError::DeadlineShed { .. })));
    };
    traffic(&mut session);

    let ring = server.recorder().snapshot();
    assert_eq!(ring.dropped, 0);
    // Per tenant, each trace's events in ring order.
    let traces = |tenant: &str| -> Vec<Vec<(Stage, Duration)>> {
        let mut ids: Vec<TraceId> = Vec::new();
        let mut events: Vec<Vec<(Stage, Duration)>> = Vec::new();
        for event in ring.events.iter().filter(|e| e.tenant == tenant) {
            let slot = match ids.iter().position(|&id| id == event.trace) {
                Some(slot) => slot,
                None => {
                    ids.push(event.trace);
                    events.push(Vec::new());
                    ids.len() - 1
                }
            };
            events[slot].push((event.stage, event.at));
        }
        events
    };
    let stages = |trace: &[(Stage, Duration)]| -> Vec<Stage> {
        trace.iter().map(|&(stage, _)| stage).collect()
    };
    let at = |trace: &[(Stage, Duration)], code: u8| -> Duration {
        trace.iter().find(|(s, _)| s.code() == code).unwrap().1
    };

    let batch = traces("batch");
    assert_eq!(batch.len(), 2);
    for trace in &batch {
        assert_eq!(
            stages(trace),
            vec![
                Stage::Admitted,
                Stage::Enqueued,
                Stage::Coalesced { requests: 2 },
                Stage::ShardDispatched,
                Stage::KernelDone,
                Stage::Responded,
            ]
        );
        assert!(trace.windows(2).all(|w| w[0].1 <= w[1].1), "monotone");
    }
    // Both requests were coalesced by the same tick, stamped with its
    // instant; each was enqueued at its own client submit time.
    assert_eq!(at(&batch[0], 2), at(&batch[1], 2));
    assert!(at(&batch[0], 1) <= at(&batch[1], 1));

    let stream = traces("stream");
    assert_eq!(stream.len(), 1);
    assert_eq!(
        stages(&stream[0]),
        vec![
            Stage::Admitted,
            Stage::Enqueued,
            Stage::ShardDispatched,
            Stage::KernelDone,
            Stage::Responded,
        ]
    );

    let sat = traces("sat");
    assert_eq!(sat.len(), 1);
    assert_eq!(
        stages(&sat[0]),
        vec![Stage::Rejected(RejectReason::Saturated)]
    );

    let shed = traces("shed");
    assert_eq!(shed.len(), 1);
    assert_eq!(
        stages(&shed[0]),
        vec![
            Stage::Admitted,
            Stage::Enqueued,
            Stage::Rejected(RejectReason::DeadlineShed),
        ]
    );
    // Shed no earlier than the deadline instant.
    assert!(at(&shed[0], 6) >= at(&shed[0], 1) + shed_budget);

    // Every stage was written exactly once: nothing else is in the ring.
    assert_eq!(ring.written, 2 * 6 + 5 + 1 + 3);
    assert_eq!(ring.events.len() as u64, ring.written);

    // A disabled recorder writes nothing for the same traffic.
    server.recorder().set_enabled(false);
    traffic(&mut session);
    assert_eq!(server.recorder().written(), ring.written);
}
