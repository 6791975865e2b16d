//! End-to-end loopback tests for the `EMWIRE2` TCP edge: bitwise parity
//! with the in-process path, durable sessions across a server restart,
//! hostile-bytes robustness, mid-flight disconnects, and the wire
//! metrics surface.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use eigenmaps_core::prelude::*;
use eigenmaps_net::prelude::*;
use eigenmaps_serve::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Two tenants with distinct bases (a cross-tenant mixup would change
/// answers), plus per-tenant request frames and raw artifact bytes.
struct Fleet {
    registry: Arc<DeploymentRegistry>,
    names: [&'static str; 2],
    deployments: [Arc<Deployment>; 2],
    frames: [Vec<Vec<f64>>; 2],
    artifacts: [Vec<u8>; 2],
}

fn fleet() -> Fleet {
    let names = ["sku-a", "sku-b"];
    let registry = Arc::new(DeploymentRegistry::new());
    let mut deployments = Vec::new();
    let mut frames = Vec::new();
    let mut artifacts = Vec::new();
    for (idx, name) in names.iter().enumerate() {
        let maps: Vec<ThermalMap> = (0..48)
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
        let tenant_frames: Vec<Vec<f64>> = (0..16)
            .map(|t| {
                let mut readings = deployment.sensors().sample(&ens.map(t));
                for (i, x) in readings.iter_mut().enumerate() {
                    *x += ((t * 17 + i * 5) as f64 * 0.41).sin() * 0.05;
                }
                readings
            })
            .collect();
        artifacts.push(deployment.to_bytes());
        deployments.push(Arc::new(deployment));
        frames.push(tenant_frames);
    }
    Fleet {
        registry,
        names,
        deployments: [Arc::clone(&deployments[0]), Arc::clone(&deployments[1])],
        frames: [frames.remove(0), frames.remove(0)],
        artifacts: [artifacts.remove(0), artifacts.remove(0)],
    }
}

/// Binds a door for `server` and runs its loop on a helper thread.
fn spawn_door(server: Arc<Server>) -> (SocketAddr, DoorHandle, JoinHandle<()>) {
    spawn_door_with(server, NetConfig::default())
}

fn spawn_door_with(
    server: Arc<Server>,
    config: NetConfig,
) -> (SocketAddr, DoorHandle, JoinHandle<()>) {
    let door = NetServer::bind_with("127.0.0.1:0", server, config).expect("bind loopback");
    let addr = door.local_addr();
    let handle = door.handle();
    let join = std::thread::spawn(move || door.run());
    (addr, handle, join)
}

fn assert_bitwise(got: &ThermalMap, want: &ThermalMap, context: &str) {
    assert_eq!(got.rows(), want.rows(), "{context}: rows");
    assert_eq!(got.cols(), want.cols(), "{context}: cols");
    for (i, (g, w)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
        assert_eq!(
            g.to_bits(),
            w.to_bits(),
            "{context}: cell {i} differs ({g} vs {w})"
        );
    }
}

#[test]
fn batch_over_tcp_is_bitwise_identical_to_in_process() {
    let fleet = fleet();
    let server = Arc::new(Server::new(Arc::clone(&fleet.registry), 2));
    let (addr, handle, join) = spawn_door(Arc::clone(&server));

    let mut client = Client::connect(addr).expect("connect");
    for tenant in 0..2 {
        let truth = fleet.deployments[tenant]
            .reconstruct_batch(&fleet.frames[tenant])
            .unwrap();
        let in_process = {
            let mut ticket = None;
            let t = server
                .try_submit(ServeRequest::new(
                    fleet.names[tenant],
                    fleet.frames[tenant].clone(),
                ))
                .unwrap();
            ticket.replace(t);
            ticket.take().unwrap().wait().unwrap().to_maps()
        };
        let reply = client
            .submit_batch(fleet.names[tenant], fleet.frames[tenant].clone())
            .expect("batch over TCP");
        assert_eq!(reply.version, 1);
        assert!(!reply.degraded, "no brownout: full fidelity");
        let over_wire = reply.maps;
        assert_eq!(over_wire.len(), truth.len());
        for (i, map) in over_wire.iter().enumerate() {
            assert_bitwise(map, &truth[i], "wire vs sequential truth");
            assert_bitwise(map, &in_process[i], "wire vs in-process server");
        }
    }

    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn publish_and_catalog_travel_the_wire() {
    let fleet = fleet();
    // Fresh empty registry: everything arrives over the socket.
    let registry = Arc::new(DeploymentRegistry::new());
    let server = Arc::new(Server::new(Arc::clone(&registry), 1));
    let (addr, handle, join) = spawn_door(server);

    let mut client = Client::connect(addr).expect("connect");
    assert!(client.catalog().unwrap().is_empty());
    let v = client
        .publish(fleet.names[0], fleet.artifacts[0].clone())
        .expect("publish over TCP");
    assert_eq!(v, 1);
    let v2 = client
        .publish(fleet.names[0], fleet.artifacts[0].clone())
        .unwrap();
    assert_eq!(v2, 2);
    let catalog = client.catalog().unwrap();
    assert_eq!(catalog, vec![(fleet.names[0].to_string(), vec![1, 2])]);

    // Garbage artifact bytes are a typed, non-retryable refusal.
    let err = client.publish("junk", vec![0xAB; 40]).unwrap_err();
    match &err {
        NetError::Server { status, .. } => assert_eq!(*status, WireStatus::BadRequest),
        other => panic!("expected a server error, got {other:?}"),
    }
    assert!(!err.is_retryable());

    // And the batch served against the published artifact matches the
    // local reconstruction bit for bit.
    let truth = fleet.deployments[0]
        .reconstruct_batch(&fleet.frames[0])
        .unwrap();
    let maps = client
        .submit_batch(fleet.names[0], fleet.frames[0].clone())
        .unwrap()
        .maps;
    for (i, map) in maps.iter().enumerate() {
        assert_bitwise(map, &truth[i], "post-publish batch");
    }

    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn session_survives_snapshot_server_restart_and_resume_over_the_wire() {
    let fleet = fleet();
    let gain = 0.8;
    // The deployment's own tracker: the bitwise ground truth for every
    // step.
    let mut reference = fleet.deployments[0].tracker(gain).unwrap();

    let server = Arc::new(Server::new(Arc::clone(&fleet.registry), 2));
    let (addr, handle, join) = spawn_door(server);
    let mut client = Client::connect(addr).expect("connect");

    let info = client.open_session(fleet.names[0], gain).expect("open");
    assert_eq!(info.version, 1);
    assert_eq!(info.frames, 0);
    for readings in &fleet.frames[0][..8] {
        let want = reference.step(readings).unwrap();
        let got = client.step(info.session, readings.clone()).expect("step");
        assert_bitwise(&got, &want, "pre-restart step");
    }
    let snapshot = client.snapshot(info.session).expect("snapshot");
    client.close_session(info.session).expect("close");
    handle.shutdown();
    join.join().unwrap();

    // "Restart": a brand-new registry and server process, republished
    // from the same artifact bytes, behind a brand-new door.
    let registry = Arc::new(DeploymentRegistry::new());
    registry
        .publish_bytes(fleet.names[0], &fleet.artifacts[0])
        .unwrap();
    let server = Arc::new(Server::new(Arc::clone(&registry), 2));
    let (addr, handle, join) = spawn_door(server);
    let mut client = Client::connect(addr).expect("reconnect");

    let resumed = client.resume(snapshot).expect("resume over TCP");
    assert_eq!(resumed.frames, 8, "resumed session remembers its frames");
    for readings in &fleet.frames[0][8..] {
        let want = reference.step(readings).unwrap();
        let got = client
            .step(resumed.session, readings.clone())
            .expect("step");
        assert_bitwise(&got, &want, "post-restart step");
    }
    client.close_session(resumed.session).unwrap();

    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn corrupt_and_oversized_frames_reject_without_tearing_down_the_connection() {
    let fleet = fleet();
    let server = Arc::new(Server::new(Arc::clone(&fleet.registry), 1));
    let config = NetConfig {
        max_frame_bytes: 64 * 1024,
        ..NetConfig::default()
    };
    let (addr, handle, join) = spawn_door_with(Arc::clone(&server), config);

    // Raw socket: speak the protocol by hand so we can lie on purpose.
    let mut raw = TcpStream::connect(addr).expect("connect");
    raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut frames = FrameBuffer::new(eigenmaps_net::MAX_FRAME_BYTES);
    let read_reply = |raw: &mut TcpStream, frames: &mut FrameBuffer| -> (u64, Response) {
        let mut chunk = [0u8; 4096];
        loop {
            if let Some(outcome) = frames.next_record() {
                let record = outcome.expect("reply frames are well-formed");
                return Response::decode(&record).expect("reply decodes");
            }
            let n = raw.read(&mut chunk).expect("read reply");
            assert_ne!(n, 0, "door must not close the connection");
            frames.extend(&chunk[..n]);
        }
    };

    // 1. A corrupt frame: valid length, flipped payload bit.
    let mut frame = Request::Catalog.encode(11).expect("encodes");
    frame[9] ^= 0x10;
    raw.write_all(&frame).unwrap();
    let (id, reply) = read_reply(&mut raw, &mut frames);
    assert_eq!(id, 0, "corrupt ids are untrusted");
    match reply {
        Response::Error { status, .. } => assert_eq!(status, WireStatus::BadFrame),
        other => panic!("expected an error reply, got {other:?}"),
    }

    // 2. An oversized frame: length prefix over the 64 KiB bound, body
    //    streamed in chunks.
    let len: u32 = 256 * 1024;
    raw.write_all(&len.to_le_bytes()).unwrap();
    for _ in 0..64 {
        raw.write_all(&[0x5A; 4096]).unwrap();
    }
    let (id, reply) = read_reply(&mut raw, &mut frames);
    assert_eq!(id, 0);
    match reply {
        Response::Error { status, message } => {
            assert_eq!(status, WireStatus::BadFrame);
            assert!(message.contains("oversized"), "got: {message}");
        }
        other => panic!("expected an error reply, got {other:?}"),
    }

    // 3. A malformed body with a valid envelope: the id survives.
    let bogus = Response::Closed.encode(23).expect("encodes"); // wrong-direction kind
    raw.write_all(&bogus).unwrap();
    let (id, reply) = read_reply(&mut raw, &mut frames);
    assert_eq!(id, 23, "checksummed ids are echoed");
    assert!(matches!(reply, Response::Error { .. }));

    // 4. The same connection still serves real traffic afterwards.
    raw.write_all(&Request::Catalog.encode(99).expect("encodes"))
        .unwrap();
    let (id, reply) = read_reply(&mut raw, &mut frames);
    assert_eq!(id, 99);
    match reply {
        Response::Catalog { entries } => assert_eq!(entries.len(), 2),
        other => panic!("expected the catalog, got {other:?}"),
    }

    // The wire gauges saw each rejection class.
    let snap = server.metrics();
    assert!(snap.wire.errors_corrupt >= 1);
    assert!(snap.wire.errors_oversized >= 1);
    assert!(snap.wire.errors_unknown_kind >= 1);

    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn version_skewed_peer_gets_a_version_error_not_a_checksum_error() {
    use eigenmaps_core::codec::{fnv1a64, Encoder};

    let fleet = fleet();
    let server = Arc::new(Server::new(Arc::clone(&fleet.registry), 1));
    let (addr, handle, join) = spawn_door(Arc::clone(&server));
    let mut raw = TcpStream::connect(addr).expect("connect");
    raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut frames = FrameBuffer::new(eigenmaps_net::MAX_FRAME_BYTES);
    let mut read_reply = |raw: &mut TcpStream| -> (u64, Response) {
        let mut chunk = [0u8; 4096];
        loop {
            if let Some(outcome) = frames.next_record() {
                let record = outcome.expect("reply frames are well-formed");
                return Response::decode(&record).expect("reply decodes");
            }
            let n = raw.read(&mut chunk).expect("read reply");
            assert_ne!(n, 0, "door must not close the connection");
            frames.extend(&chunk[..n]);
        }
    };

    // A Catalog request sealed the version-1 way: "EMWIRE1", version 1,
    // kind 0x07, then an 8-byte FNV-1a trailer (a 28-byte record).
    let mut enc = Encoder::with_capacity(32);
    enc.bytes(b"EMWIRE1").u32(1).u64(12).u8(0x07);
    let mut record = enc.finish();
    let checksum = fnv1a64(&record);
    record.extend_from_slice(&checksum.to_le_bytes());
    assert_eq!(record.len(), 28);
    let mut old_frame = (record.len() as u32).to_le_bytes().to_vec();
    old_frame.extend_from_slice(&record);
    raw.write_all(&old_frame).unwrap();
    let (id, reply) = read_reply(&mut raw);
    assert_eq!(id, 0, "ids of unvalidated envelopes are never echoed");
    match reply {
        Response::Error { status, message } => {
            assert_eq!(status, WireStatus::BadFrame);
            assert!(
                message.contains("magic") || message.contains("version"),
                "the skew is named: {message}"
            );
            assert!(!message.contains("checksum"), "got: {message}");
        }
        other => panic!("expected an error reply, got {other:?}"),
    }

    // The same connection then serves a current-version request.
    raw.write_all(&Request::Catalog.encode(13).expect("encodes"))
        .unwrap();
    let (id, reply) = read_reply(&mut raw);
    assert_eq!(id, 13);
    match reply {
        Response::Catalog { entries } => assert_eq!(entries.len(), 2),
        other => panic!("expected the catalog, got {other:?}"),
    }
    assert_eq!(server.metrics().wire.errors_corrupt, 1);

    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn disconnect_with_inflight_responses_never_wedges_the_batcher() {
    let fleet = fleet();
    // A long flush delay so the abandoning client can vanish while its
    // responses are still in flight.
    let policy = BatchPolicy {
        max_batch_frames: 64,
        max_batch_requests: 8,
        max_delay: Duration::from_millis(20),
        ..BatchPolicy::default()
    };
    let server = Arc::new(Server::with_policy(Arc::clone(&fleet.registry), 2, policy));
    let (addr, handle, join) = spawn_door(Arc::clone(&server));

    for round in 0..6 {
        let mut doomed = TcpStream::connect(addr).expect("connect");
        // Several submissions, replies never read; kill the socket while
        // the batcher still owes the responses.
        for i in 0..4u64 {
            let request = Request::SubmitBatch {
                deployment: fleet.names[round % 2].to_string(),
                frames: fleet.frames[round % 2].clone(),
            };
            doomed
                .write_all(&request.encode(i + 1).expect("encodes"))
                .unwrap();
        }
        doomed.flush().unwrap();
        drop(doomed);
    }

    // A well-behaved client still gets bitwise-correct answers — the
    // batcher survived every abandoned responder.
    let mut client = Client::connect(addr).expect("connect");
    for tenant in 0..2 {
        let truth = fleet.deployments[tenant]
            .reconstruct_batch(&fleet.frames[tenant])
            .unwrap();
        let maps = client
            .submit_batch(fleet.names[tenant], fleet.frames[tenant].clone())
            .expect("post-churn batch")
            .maps;
        for (i, map) in maps.iter().enumerate() {
            assert_bitwise(map, &truth[i], "post-churn");
        }
    }

    // Abandoned connections are reaped: only the live client remains
    // (poll briefly — teardown happens on the loop's next pass).
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let open = server.metrics().wire.connections_open;
        if open == 1 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "expected 1 open connection, still {open}"
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn metrics_snapshot_travels_the_wire() {
    let fleet = fleet();
    let server = Arc::new(Server::new(Arc::clone(&fleet.registry), 1));
    let (addr, handle, join) = spawn_door(server);

    let mut client = Client::connect(addr).expect("connect");
    client
        .submit_batch(fleet.names[0], fleet.frames[0].clone())
        .unwrap();
    let metrics = client.metrics().expect("metrics over TCP");
    assert_eq!(metrics.requests, 1);
    assert_eq!(metrics.frames, fleet.frames[0].len() as u64);
    assert_eq!(metrics.wire.connections_open, 1);
    assert!(metrics.wire.max_connections_open >= 1);
    // The metrics request itself was frame 2 in; its reply is not yet
    // counted in what it reports, so only lower-bound the counters.
    assert!(metrics.wire.frames_in >= 2);
    assert!(metrics.wire.frames_out >= 1);
    assert!(metrics.wire.bytes_in > 0);
    assert!(metrics.wire.bytes_out > 0);
    assert_eq!(metrics.wire.errors_total(), 0);

    handle.shutdown();
    join.join().unwrap();
}

/// Tentpole acceptance: a trace fetched over TCP shows every lifecycle
/// stage of a batch request — admitted, enqueued, coalesced, shard
/// dispatch, kernel completion, response — with monotone timestamps,
/// plus the session-step lifecycle and the slow-request exemplars.
#[test]
fn flight_recorder_trace_travels_the_wire_with_full_lifecycle() {
    let fleet = fleet();
    let server = Arc::new(Server::new(Arc::clone(&fleet.registry), 2));
    let (addr, handle, join) = spawn_door(Arc::clone(&server));

    let mut client = Client::connect(addr).expect("connect");
    let maps = client
        .submit_batch(fleet.names[0], fleet.frames[0].clone())
        .expect("batch")
        .maps;
    assert_eq!(maps.len(), fleet.frames[0].len());
    let info = client.open_session(fleet.names[1], 0.7).expect("open");
    client
        .step(info.session, fleet.frames[1][0].clone())
        .expect("step");

    let trace = client.trace().expect("trace over TCP");
    assert!(trace.written >= 1, "the ring saw events");
    assert_eq!(trace.dropped, 0, "a near-empty ring drops nothing");

    // Ring events arrive oldest-first; per trace id that is emission
    // order, i.e. lifecycle order.
    let mut per_trace: std::collections::HashMap<u64, Vec<&WireTraceEvent>> =
        std::collections::HashMap::new();
    for event in &trace.events {
        per_trace.entry(event.trace).or_default().push(event);
    }

    // The batch request (the only trace with a Coalesced stage, code 2):
    // every stage present, in order, timestamps monotone.
    let batch = per_trace
        .values()
        .find(|events| events.iter().any(|e| e.stage == 2))
        .expect("the batch trace is in the ring");
    assert_eq!(batch[0].tenant, fleet.names[0]);
    let stages: Vec<u8> = batch.iter().map(|e| e.stage).collect();
    assert_eq!(
        stages,
        vec![0, 1, 2, 3, 4, 5],
        "admitted → enqueued → coalesced → dispatched → kernel-done → responded"
    );
    let coalesced = batch.iter().find(|e| e.stage == 2).unwrap();
    assert_eq!(coalesced.arg, 1, "one request in the coalesced batch");
    assert!(
        batch.windows(2).all(|w| w[0].at_ns <= w[1].at_ns),
        "timestamps are monotone within the trace"
    );

    // The session step: same lifecycle minus coalescing.
    let step = per_trace
        .values()
        .find(|events| events[0].tenant == fleet.names[1])
        .expect("the step trace is in the ring");
    let stages: Vec<u8> = step.iter().map(|e| e.stage).collect();
    assert_eq!(stages, vec![0, 1, 3, 4, 5]);
    assert!(step.windows(2).all(|w| w[0].at_ns <= w[1].at_ns));

    // Per-tenant exemplars: the completed batch request is the worst
    // (only) trace for its tenant, with the full six-stage timeline.
    let tenant = trace
        .tenants
        .iter()
        .find(|t| t.tenant == fleet.names[0])
        .expect("tenant entry for the batch tenant");
    let exemplar = tenant.exemplars.first().expect("slow-request exemplar");
    assert!(exemplar.total_ns > 0);
    assert_eq!(exemplar.stages.len(), 6);
    assert!(exemplar.stages.windows(2).all(|w| w[0].at_ns <= w[1].at_ns));

    // The extended metrics reply carries the raw histograms and the
    // (still-zero) per-reason reap counters.
    let metrics = client.metrics().expect("metrics over TCP");
    assert!(metrics.latency_buckets.count >= 1);
    assert_eq!(
        metrics.latency_buckets.buckets.iter().sum::<u64>(),
        metrics.latency_buckets.count,
        "bucket counts add up"
    );
    assert!(metrics.session_latency_buckets.count >= 1);
    assert_eq!(metrics.wire.reaped_idle, 0);
    assert_eq!(metrics.wire.reaped_slow_client, 0);
    assert_eq!(metrics.wire.reaped_drain, 0);

    // Shutting down with this client still connected is a drain reap,
    // metered under its own reason.
    handle.shutdown();
    join.join().unwrap();
    assert_eq!(server.metrics().wire.reaped_drain, 1);
    assert_eq!(server.metrics().wire.reaped_idle, 0);
}

#[test]
fn unknown_names_and_sessions_map_to_typed_statuses() {
    let fleet = fleet();
    let server = Arc::new(Server::new(Arc::clone(&fleet.registry), 1));
    let (addr, handle, join) = spawn_door(server);
    let mut client = Client::connect(addr).expect("connect");

    let err = client.submit_batch("nope", vec![vec![0.0; 5]]).unwrap_err();
    match &err {
        NetError::Server { status, .. } => assert_eq!(*status, WireStatus::UnknownDeployment),
        other => panic!("unexpected error: {other:?}"),
    }
    assert!(!err.is_retryable());

    let err = client.step(42, vec![0.0; 5]).unwrap_err();
    match &err {
        NetError::Server { status, .. } => assert_eq!(*status, WireStatus::UnknownSession),
        other => panic!("unexpected error: {other:?}"),
    }
    let err = client.snapshot(42).unwrap_err();
    assert!(matches!(
        err,
        NetError::Server {
            status: WireStatus::UnknownSession,
            ..
        }
    ));

    // Wrong-shaped readings on a real session: a typed request error,
    // and the session stays usable.
    let info = client.open_session(fleet.names[0], 0.5).unwrap();
    let err = client.step(info.session, vec![1.0]).unwrap_err();
    assert!(matches!(err, NetError::Server { .. }));
    let got = client
        .step(info.session, fleet.frames[0][0].clone())
        .expect("session survives a bad step");
    assert_eq!(got.rows(), 8);

    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn non_finite_readings_are_bad_requests_and_leave_sessions_untouched() {
    let fleet = fleet();
    let server = Arc::new(Server::new(Arc::clone(&fleet.registry), 1));
    let (addr, handle, join) = spawn_door(server);
    let mut client = Client::connect(addr).expect("connect");
    let frames = &fleet.frames[0];
    let mut reference = fleet.deployments[0].tracker(0.5).unwrap();
    let info = client.open_session(fleet.names[0], 0.5).unwrap();

    for (t, readings) in frames.iter().take(4).enumerate() {
        for bad_value in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut bad = readings.clone();
            bad[2] = bad_value;
            let err = client
                .submit_batch(fleet.names[0], vec![readings.clone(), bad.clone()])
                .unwrap_err();
            assert!(
                matches!(&err, NetError::Server { status, .. } if *status == WireStatus::BadRequest),
                "batch {t}: {err:?}"
            );
            let err = client.step(info.session, bad).unwrap_err();
            assert!(
                matches!(&err, NetError::Server { status, .. } if *status == WireStatus::BadRequest),
                "step {t}: {err:?}"
            );
        }
        // The refused steps never touched the session's filter state.
        let got = client.step(info.session, readings.clone()).unwrap();
        assert_bitwise(
            &got,
            &reference.step(readings).unwrap(),
            "step after refusals",
        );
    }

    handle.shutdown();
    join.join().unwrap();
}

/// Satellite: seeded malformed-bytes fuzzing against the live event
/// loop. Random garbage, random mutations of valid frames, random
/// split points — the door must answer real traffic afterwards and
/// never panic. `EIGENMAPS_STRESS=1` widens the sweep.
#[test]
fn malformed_byte_fuzzing_never_kills_the_event_loop() {
    let fleet = fleet();
    let server = Arc::new(Server::new(Arc::clone(&fleet.registry), 1));
    let config = NetConfig {
        max_frame_bytes: 256 * 1024,
        ..NetConfig::default()
    };
    let (addr, handle, join) = spawn_door_with(Arc::clone(&server), config);

    let seeds: u64 = if std::env::var("EIGENMAPS_STRESS").is_ok_and(|v| v == "1") {
        48
    } else {
        8
    };
    for seed in 0..seeds {
        let mut rng = StdRng::seed_from_u64(0x57EED ^ seed);
        let mut raw = TcpStream::connect(addr).expect("connect");
        raw.set_read_timeout(Some(Duration::from_millis(5)))
            .unwrap();
        for _ in 0..24 {
            let payload: Vec<u8> = match rng.gen_range(0..3u32) {
                // Pure garbage with a small bounded length prefix.
                0 => {
                    let len = rng.gen_range(0..512u64) as u32;
                    let mut bytes = len.to_le_bytes().to_vec();
                    bytes.extend((0..len).map(|_| rng.next_u64() as u8));
                    bytes
                }
                // A valid frame with random mutations.
                1 => {
                    let mut bytes = Request::SubmitBatch {
                        deployment: fleet.names[0].to_string(),
                        frames: fleet.frames[0][..2].to_vec(),
                    }
                    .encode(rng.next_u64())
                    .expect("encodes");
                    for _ in 0..rng.gen_range(1..6u32) {
                        let at = rng.gen_range(0..bytes.len() as u64) as usize;
                        bytes[at] ^= rng.next_u64() as u8;
                    }
                    bytes
                }
                // Raw noise, no framing discipline at all.
                _ => (0..rng.gen_range(1..256u64))
                    .map(|_| rng.next_u64() as u8)
                    .collect(),
            };
            // Random split points exercise partial-frame reassembly.
            let split = rng.gen_range(0..(payload.len() as u64 + 1)) as usize;
            if raw.write_all(&payload[..split]).is_err() {
                break;
            }
            if raw.write_all(&payload[split..]).is_err() {
                break;
            }
            // Drain whatever error replies came back so the door's write
            // buffer never becomes the bottleneck.
            let mut sink = [0u8; 8192];
            let _ = raw.read(&mut sink);
        }
        drop(raw);
    }

    // The loop is alive and correct: a fresh client round-trips a batch
    // bitwise.
    let truth = fleet.deployments[0]
        .reconstruct_batch(&fleet.frames[0])
        .unwrap();
    let mut client = Client::connect(addr).expect("connect after fuzzing");
    let maps = client
        .submit_batch(fleet.names[0], fleet.frames[0].clone())
        .expect("door survived the fuzz")
        .maps;
    for (i, map) in maps.iter().enumerate() {
        assert_bitwise(map, &truth[i], "post-fuzz batch");
    }

    handle.shutdown();
    join.join().unwrap();
}

/// Tentpole acceptance at the network edge: a shed request surfaces as a
/// retryable `DeadlineShed` status, a brownout batch arrives flagged
/// degraded and bitwise-equal to the truncated-basis reconstruction, and
/// the QoS counters travel in the metrics reply.
#[test]
fn shed_and_degraded_serving_surface_over_the_wire() {
    let fleet = fleet();
    let server = Arc::new(Server::new(Arc::clone(&fleet.registry), 2));
    let (addr, handle, join) = spawn_door(Arc::clone(&server));
    let mut client = Client::connect(addr).expect("connect");

    // Phase 1 — shedding. A zero deadline with budgets that never flush:
    // the scheduler's next tick sheds the queued request before any
    // batch forms.
    server
        .set_tenant_policy(
            fleet.names[0],
            Some(BatchPolicy {
                max_batch_frames: 4096,
                max_batch_requests: 1024,
                max_delay: Duration::from_secs(60),
                deadline: Some(Duration::ZERO),
                overrun: OverrunAction::Shed,
                ..BatchPolicy::default()
            }),
        )
        .unwrap();
    let err = client
        .submit_batch(fleet.names[0], fleet.frames[0].clone())
        .unwrap_err();
    match &err {
        NetError::Server { status, message } => {
            assert_eq!(*status, WireStatus::DeadlineShed);
            assert!(message.contains("shed"), "got: {message}");
        }
        other => panic!("expected a shed server error, got {other:?}"),
    }
    assert!(err.is_retryable(), "shed requests invite a retry");

    // Phase 2 — brownout degraded serving. A Degrade tier plus a
    // watermark any pending frame crosses: the next batch is served from
    // the keep-1 truncated deployment and flagged.
    server
        .set_tenant_policy(
            fleet.names[0],
            Some(BatchPolicy {
                deadline: Some(Duration::from_secs(60)),
                overrun: OverrunAction::Degrade { keep_k: 1 },
                ..BatchPolicy::default()
            }),
        )
        .unwrap();
    server
        .set_brownout(Some(BrownoutPolicy {
            enter_above: 1,
            exit_below: 0,
        }))
        .unwrap();
    let reply = client
        .submit_batch(fleet.names[0], fleet.frames[0].clone())
        .expect("brownout serves, not sheds");
    assert!(reply.degraded, "brownout batches are flagged");
    let truncated = fleet.deployments[0]
        .truncated(1)
        .expect("keep-1 truncation")
        .reconstruct_batch(&fleet.frames[0])
        .unwrap();
    for (i, map) in reply.maps.iter().enumerate() {
        assert_bitwise(map, &truncated[i], "wire vs truncated reconstruction");
    }

    // Phase 3 — the QoS ledger travels the wire.
    let metrics = client.metrics().expect("metrics over TCP");
    assert_eq!(metrics.shed, 1, "one request shed");
    assert_eq!(metrics.degraded, 1, "one request served degraded");
    assert_eq!(metrics.brownout, 1, "still in brownout at snapshot time");
    assert!(metrics.brownout_entries >= 1);
    assert_eq!(
        metrics.requests,
        metrics.errors + 1,
        "the shed ticket completed as a typed error; the degraded one served"
    );

    // Clearing the policy exits brownout: the next batch is exact again.
    server.set_brownout(None).unwrap();
    let reply = client
        .submit_batch(fleet.names[0], fleet.frames[0].clone())
        .expect("post-brownout batch");
    assert!(!reply.degraded, "brownout cleared: full fidelity");
    let truth = fleet.deployments[0]
        .reconstruct_batch(&fleet.frames[0])
        .unwrap();
    for (i, map) in reply.maps.iter().enumerate() {
        assert_bitwise(map, &truth[i], "post-brownout exact batch");
    }

    handle.shutdown();
    join.join().unwrap();
}

/// Polls `probe` every few milliseconds until it holds, failing after
/// `limit` with `what` in the message.
fn wait_until(limit: Duration, what: &str, mut probe: impl FnMut() -> bool) {
    let deadline = std::time::Instant::now() + limit;
    while !probe() {
        assert!(std::time::Instant::now() < deadline, "timed out: {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// A connection that never sends a byte is reaped as idle shortly after
/// `idle_timeout`, with no other traffic to wake the loop.
#[test]
fn silent_connection_is_reaped_as_idle_on_time() {
    let fleet = fleet();
    let server = Arc::new(Server::new(Arc::clone(&fleet.registry), 1));
    let idle_timeout = Duration::from_millis(200);
    let config = NetConfig {
        idle_timeout,
        ..NetConfig::default()
    };
    let (addr, handle, join) = spawn_door_with(Arc::clone(&server), config);

    let opened = std::time::Instant::now();
    let mut silent = TcpStream::connect(addr).expect("connect");
    silent
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    wait_until(Duration::from_secs(5), "idle reap", || {
        server.metrics().wire.reaped_idle == 1
    });
    let waited = opened.elapsed();
    assert!(waited >= idle_timeout, "reaped early, after {waited:?}");
    assert!(
        waited < idle_timeout + Duration::from_millis(800),
        "reaped late, after {waited:?}"
    );
    // The door closed its end: the client reads EOF.
    let mut byte = [0u8; 1];
    assert_eq!(silent.read(&mut byte).expect("EOF, not a timeout"), 0);
    wait_until(Duration::from_secs(5), "connection gauge", || {
        server.metrics().wire.connections_open == 0
    });
    assert_eq!(server.metrics().wire.reaped_slow_client, 0);

    handle.shutdown();
    join.join().unwrap();
}

/// A client that pipelines batch requests and never reads its replies
/// gets backpressure: once its unflushed replies pass
/// `write_backlog_limit`, the door stops reading from it (`bytes_in`
/// stops growing) and, without progress, reaps it as a slow client.
#[test]
fn backlogged_reader_gets_backpressure_then_is_reaped_as_slow_client() {
    let fleet = fleet();
    let server = Arc::new(Server::new(Arc::clone(&fleet.registry), 1));
    let config = NetConfig {
        write_backlog_limit: 1024,
        idle_timeout: Duration::from_secs(2),
        ..NetConfig::default()
    };
    let (addr, handle, join) = spawn_door_with(Arc::clone(&server), config);

    let flood = TcpStream::connect(addr).expect("connect");
    let request = Request::SubmitBatch {
        deployment: fleet.names[0].to_string(),
        frames: fleet.frames[0].clone(),
    };
    let writer = {
        let mut flood = flood.try_clone().unwrap();
        std::thread::spawn(move || {
            // Write until the door's reap breaks the socket.
            for id in 1u64.. {
                let frame = request.encode(id).expect("encodes");
                if flood.write_all(&frame).is_err() {
                    break;
                }
            }
        })
    };

    // Backpressure: `bytes_in` settles while the writer is still trying.
    let mut last = server.metrics().wire.bytes_in;
    let mut steady_since = std::time::Instant::now();
    wait_until(Duration::from_secs(10), "bytes_in to plateau", || {
        let now = server.metrics().wire.bytes_in;
        if now != last {
            last = now;
            steady_since = std::time::Instant::now();
        }
        last > 0 && steady_since.elapsed() >= Duration::from_millis(200)
    });
    let plateau = server.metrics().wire.bytes_in;
    std::thread::sleep(Duration::from_millis(300));
    let wire = server.metrics().wire;
    assert_eq!(
        wire.bytes_in, plateau,
        "the door kept reading past the bound"
    );
    assert_eq!(wire.reaped_slow_client, 0, "reaped before the timeout");

    // No progress in either direction: a slow-client reap.
    wait_until(Duration::from_secs(10), "slow-client reap", || {
        server.metrics().wire.reaped_slow_client == 1
    });
    writer.join().unwrap();
    drop(flood);
    // The gauge drops just after the socket closes.
    wait_until(Duration::from_secs(5), "connection gauge", || {
        server.metrics().wire.connections_open == 0
    });
    assert_eq!(server.metrics().wire.reaped_idle, 0);

    handle.shutdown();
    join.join().unwrap();
}

/// A graceful shutdown with responses still in flight delivers every one
/// of them before `run` returns.
#[test]
fn shutdown_delivers_inflight_responses_before_run_returns() {
    let fleet = fleet();
    // A long coalescing delay keeps the batch queued while the door is
    // told to stop.
    let policy = BatchPolicy {
        max_batch_frames: 4096,
        max_batch_requests: 1024,
        max_delay: Duration::from_millis(300),
        ..BatchPolicy::default()
    };
    let server = Arc::new(Server::with_policy(Arc::clone(&fleet.registry), 2, policy));
    let (addr, handle, join) = spawn_door(Arc::clone(&server));

    let mut raw = TcpStream::connect(addr).expect("connect");
    raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let requests = 3u64;
    for id in 1..=requests {
        let frame = Request::SubmitBatch {
            deployment: fleet.names[0].to_string(),
            frames: fleet.frames[0].clone(),
        }
        .encode(id)
        .expect("encodes");
        raw.write_all(&frame).unwrap();
    }
    wait_until(Duration::from_secs(5), "requests admitted", || {
        server.metrics().requests == requests
    });
    assert_eq!(server.metrics().wire.frames_out, 0, "still in flight");

    handle.shutdown();
    join.join().unwrap();

    // Every reply is already on the socket, followed by the door's EOF.
    let truth = fleet.deployments[0]
        .reconstruct_batch(&fleet.frames[0])
        .unwrap();
    let mut frames = FrameBuffer::new(eigenmaps_net::MAX_FRAME_BYTES);
    let mut bytes = Vec::new();
    raw.read_to_end(&mut bytes).expect("read to EOF");
    frames.extend(&bytes);
    let mut ids = Vec::new();
    while let Some(outcome) = frames.next_record() {
        let (id, reply) = Response::decode(&outcome.expect("well-formed")).expect("decodes");
        match reply {
            Response::Batch { maps, .. } => {
                for (i, map) in maps.into_iter().enumerate() {
                    let map = map.into_map().expect("valid map");
                    assert_bitwise(&map, &truth[i], "drained reply");
                }
            }
            other => panic!("expected a batch reply, got {other:?}"),
        }
        ids.push(id);
    }
    ids.sort_unstable();
    assert_eq!(ids, (1..=requests).collect::<Vec<_>>());
    assert_eq!(server.metrics().wire.reaped_drain, 1);
}

/// Shutdown reaches an idle door promptly even under the default 60 s
/// idle timeout: the stop request itself must wake the loop.
#[test]
fn shutdown_wakes_an_idle_door_promptly() {
    let fleet = fleet();
    let server = Arc::new(Server::new(Arc::clone(&fleet.registry), 1));
    let (addr, handle, join) = spawn_door(Arc::clone(&server));
    let _idle = TcpStream::connect(addr).expect("connect");
    wait_until(Duration::from_secs(5), "connection accepted", || {
        server.metrics().wire.connections_open == 1
    });
    std::thread::sleep(Duration::from_millis(50));

    let asked = std::time::Instant::now();
    handle.shutdown();
    join.join().unwrap();
    let took = asked.elapsed();
    assert!(took < Duration::from_secs(1), "shutdown took {took:?}");
}

/// An arbitrary reading from raw bits, weighted toward the edges of
/// `f64`: any pattern (NaN payloads included), ±∞ and NaNs, subnormals,
/// magnitudes near `±f64::MAX`, and plausible temperatures.
fn arbitrary_reading(rng: &mut StdRng) -> f64 {
    let sign = rng.next_u64() & (1 << 63);
    let mantissa = rng.next_u64() & 0x000F_FFFF_FFFF_FFFF;
    match rng.gen_range(0..5u32) {
        0 => f64::from_bits(rng.next_u64()),
        1 => f64::from_bits(sign | 0x7FF0_0000_0000_0000 | mantissa),
        2 => f64::from_bits(sign | mantissa),
        3 => {
            // Biased exponents 0x7E0..=0x7FE: about 1e300 up to f64::MAX.
            let exponent = rng.gen_range(0x7E0..0x7FFu64);
            f64::from_bits(sign | exponent << 52 | mantissa)
        }
        _ => 45.0 + rng.gen_range(0..1000u64) as f64 * 0.01,
    }
}

/// A fuzzed frame: clean, with a few arbitrary readings, or all
/// arbitrary.
fn fuzzed_frame(rng: &mut StdRng, clean: &[f64]) -> Vec<f64> {
    let mut frame = clean.to_vec();
    match rng.gen_range(0..3u32) {
        0 => {}
        1 => {
            for _ in 0..rng.gen_range(1..3u32) {
                let at = rng.gen_range(0..frame.len() as u64) as usize;
                frame[at] = arbitrary_reading(rng);
            }
        }
        _ => frame.iter_mut().for_each(|x| *x = arbitrary_reading(rng)),
    }
    frame
}

fn assert_bad_request(err: &NetError, context: &str) {
    assert!(
        matches!(err, NetError::Server { status, .. } if *status == WireStatus::BadRequest),
        "{context}: {err:?}"
    );
}

fn assert_finite(map: &ThermalMap, context: &str) {
    assert!(
        map.as_slice().iter().all(|x| x.is_finite()),
        "{context}: a reply carries a non-finite cell"
    );
}

/// Satellite: no reply ever carries a non-finite cell, whatever bit
/// patterns the readings hold. Each fuzzed batch and step is answered
/// either with `BadRequest` or with finite maps bitwise-equal to the
/// in-process reconstruction, and a session whose step was refused keeps
/// stepping as if it never saw that step. `EIGENMAPS_STRESS=1` widens
/// the sweep.
#[test]
fn fuzzed_readings_get_bad_request_or_finite_maps() {
    let fleet = fleet();
    let server = Arc::new(Server::new(Arc::clone(&fleet.registry), 2));
    let (addr, handle, join) = spawn_door(server);
    let mut client = Client::connect(addr).expect("connect");
    let deployment = &fleet.deployments[0];
    let clean = &fleet.frames[0];
    let m = clean[0].len();

    // The pinned edge: finite readings near ±f64::MAX overflow the map.
    for huge in [1.7e308, -1.7e308] {
        let err = client
            .submit_batch(fleet.names[0], vec![vec![huge; m]])
            .unwrap_err();
        assert_bad_request(&err, "all-huge batch");
    }
    let maps = client
        .submit_batch(fleet.names[0], vec![vec![1e300; m]])
        .expect("1e300 stays finite")
        .maps;
    assert_finite(&maps[0], "1e300 batch");

    let seeds: u64 = if std::env::var("EIGENMAPS_STRESS").is_ok_and(|v| v == "1") {
        32
    } else {
        4
    };
    for seed in 0..seeds {
        let mut rng = StdRng::seed_from_u64(0xF1_0A7 ^ seed);
        // `oracle` sees every step and decides which are refused;
        // `replay` sees only the accepted ones.
        let mut oracle = deployment.tracker(0.5).unwrap();
        let mut replay = deployment.tracker(0.5).unwrap();
        let session = client.open_session(fleet.names[0], 0.5).unwrap().session;
        for round in 0..24 {
            let context = format!("seed {seed} round {round}");
            let frames: Vec<Vec<f64>> = (0..rng.gen_range(1..4u64))
                .map(|i| fuzzed_frame(&mut rng, &clean[(round + i as usize) % clean.len()]))
                .collect();
            match deployment.reconstruct_batch(&frames) {
                Ok(want) => {
                    let got = client
                        .submit_batch(fleet.names[0], frames)
                        .unwrap_or_else(|e| panic!("{context}: batch refused: {e:?}"))
                        .maps;
                    for (g, w) in got.iter().zip(&want) {
                        assert_finite(g, &context);
                        assert_bitwise(g, w, &context);
                    }
                }
                Err(_) => {
                    let err = client.submit_batch(fleet.names[0], frames).unwrap_err();
                    assert_bad_request(&err, &context);
                }
            }

            let readings = fuzzed_frame(&mut rng, &clean[round % clean.len()]);
            match oracle.step(&readings) {
                Ok(_) => {
                    let want = replay.step(&readings).unwrap();
                    let got = client
                        .step(session, readings)
                        .unwrap_or_else(|e| panic!("{context}: step refused: {e:?}"));
                    assert_finite(&got, &context);
                    assert_bitwise(&got, &want, &context);
                }
                Err(_) => {
                    let err = client.step(session, readings).unwrap_err();
                    assert_bad_request(&err, &context);
                }
            }
        }
        client.close_session(session).unwrap();
    }

    handle.shutdown();
    join.join().unwrap();
}

/// Step replies queued on one connection before and after a batch reply
/// (which the door writes from the executor's slabs, not from a sealed
/// frame) reach the client in the order they were queued, each intact.
#[test]
fn step_replies_around_a_batch_reply_arrive_in_queue_order() {
    let fleet = fleet();
    let server = Arc::new(Server::new(Arc::clone(&fleet.registry), 2));
    let (addr, handle, join) = spawn_door(Arc::clone(&server));
    let mut raw = TcpStream::connect(addr).expect("connect");
    raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut frames = FrameBuffer::new(eigenmaps_net::MAX_FRAME_BYTES);
    let read_reply = |raw: &mut TcpStream, frames: &mut FrameBuffer| -> (u64, Response) {
        let mut chunk = [0u8; 4096];
        loop {
            if let Some(outcome) = frames.next_record() {
                let record = outcome.expect("reply frames are well-formed");
                return Response::decode(&record).expect("reply decodes");
            }
            let n = raw.read(&mut chunk).expect("read reply");
            assert_ne!(n, 0, "door must not close the connection");
            frames.extend(&chunk[..n]);
        }
    };
    let open = Request::OpenSession {
        deployment: fleet.names[0].to_string(),
        gain: 0.5,
    };
    raw.write_all(&open.encode(1).unwrap()).unwrap();
    let session = match read_reply(&mut raw, &mut frames) {
        (1, Response::SessionOpened { session, .. }) => session,
        other => panic!("expected the session, got {other:?}"),
    };

    // Send each request only once the previous reply is queued, without
    // reading: the outbox holds step, batch, step, batch, step in order.
    let frames_out = |server: &Server| server.metrics().wire.frames_out;
    let readings = &fleet.frames[0];
    let requests = [
        Request::StepSession {
            session,
            readings: readings[0].clone(),
        },
        Request::SubmitBatch {
            deployment: fleet.names[0].to_string(),
            frames: readings.clone(),
        },
        Request::StepSession {
            session,
            readings: readings[1].clone(),
        },
        Request::SubmitBatch {
            deployment: fleet.names[0].to_string(),
            frames: readings[3..9].to_vec(),
        },
        Request::StepSession {
            session,
            readings: readings[2].clone(),
        },
    ];
    for (id, request) in (10u64..).zip(&requests) {
        let queued = frames_out(&server);
        raw.write_all(&request.encode(id).unwrap()).unwrap();
        wait_until(Duration::from_secs(10), "reply queued", || {
            frames_out(&server) > queued
        });
    }

    let mut tracker = fleet.deployments[0].tracker(0.5).unwrap();
    let truth = fleet.deployments[0].reconstruct_batch(readings).unwrap();
    let mut steps = 0;
    for (id, request) in (10u64..).zip(&requests) {
        let (got, reply) = read_reply(&mut raw, &mut frames);
        assert_eq!(got, id, "replies arrive in queue order");
        match (request, reply) {
            (Request::StepSession { readings, .. }, Response::Step { map, .. }) => {
                let want = tracker.step(readings).unwrap();
                assert_bitwise(&map.into_map().unwrap(), &want, "step");
                steps += 1;
            }
            (Request::SubmitBatch { frames: sent, .. }, Response::Batch { maps, .. }) => {
                assert_eq!(maps.len(), sent.len());
                let first = readings.iter().position(|r| r == &sent[0]).unwrap();
                for (i, map) in maps.into_iter().enumerate() {
                    assert_bitwise(&map.into_map().unwrap(), &truth[first + i], "batch");
                }
            }
            (_, other) => panic!("request {id} got {other:?}"),
        }
    }
    assert_eq!(steps, 3);
    handle.shutdown();
    join.join().unwrap();
}

/// The status of a refused call, which must be `want`.
fn refusal<T: std::fmt::Debug>(result: std::result::Result<T, NetError>, want: WireStatus) -> u64 {
    match result {
        Err(NetError::Server { status, .. }) if status == want => 1,
        other => panic!("expected a {want} refusal, got {other:?}"),
    }
}

/// The door's refusal ledger: every refusal of a well-formed request
/// ticks `errors_rejected` exactly once, and none ticks a frame-level
/// error counter.
#[test]
fn each_refusal_of_a_well_formed_request_is_metered_once_as_rejected() {
    let fleet = fleet();
    // A tenant whose admission bound is zero: every submit saturates.
    fleet
        .registry
        .publish("full", (*fleet.deployments[0]).clone());
    let server = Arc::new(Server::new(Arc::clone(&fleet.registry), 1));
    let full = BatchPolicy {
        max_pending_per_tenant: 0,
        ..BatchPolicy::default()
    };
    server.set_tenant_policy("full", Some(full)).unwrap();
    let (addr, handle, join) = spawn_door(Arc::clone(&server));
    let mut client = Client::connect(addr).expect("connect");
    let before = client.metrics().unwrap();
    let frames = &fleet.frames[0];
    let info = client.open_session(fleet.names[0], 0.5).unwrap();

    let mut refused = 0;
    refused += refusal(
        client.submit_batch("full", frames[..1].to_vec()),
        WireStatus::Saturated,
    );
    refused += refusal(
        client.submit_batch("nope", frames[..1].to_vec()),
        WireStatus::UnknownDeployment,
    );
    refused += refusal(
        client.submit_batch(fleet.names[0], vec![vec![1.0]]),
        WireStatus::BadRequest,
    );
    refused += refusal(client.step(info.session, vec![1.0]), WireStatus::BadRequest);
    // A NaN reading is refused at the door for a step as for a batch:
    // same status, one `Rejected` tick each, and neither reaches the
    // batcher, so the serving error count stays put.
    let mut nan = frames[0].clone();
    nan[1] = f64::NAN;
    refused += refusal(
        client.submit_batch(fleet.names[0], vec![nan.clone()]),
        WireStatus::BadRequest,
    );
    refused += refusal(client.step(info.session, nan), WireStatus::BadRequest);
    refused += refusal(
        client.step(99, frames[0].clone()),
        WireStatus::UnknownSession,
    );
    refused += refusal(client.close_session(99), WireStatus::UnknownSession);
    refused += refusal(client.snapshot(99), WireStatus::UnknownSession);
    refused += refusal(client.attach(99), WireStatus::UnknownSession);
    refused += refusal(
        client.publish("junk", vec![0xAB; 40]),
        WireStatus::BadRequest,
    );
    // A snapshot right behind a step the client did not wait for: busy
    // while the step is in flight. The step's reply carries an id the
    // client never issues, so it skips it as stale.
    let mut busy = 0;
    for attempt in 0..200u64 {
        let step = Request::StepSession {
            session: info.session,
            readings: frames[0].clone(),
        };
        let mut raw = client.stream();
        raw.write_all(&step.encode(u64::MAX - attempt).unwrap())
            .unwrap();
        match client.snapshot(info.session) {
            Ok(_) => {}
            Err(NetError::Server {
                status: WireStatus::SessionBusy,
                ..
            }) => {
                busy += 1;
                break;
            }
            Err(other) => panic!("snapshot failed: {other}"),
        }
    }
    assert_eq!(busy, 1, "no snapshot ever met a step in flight");
    refused += busy;

    let after = client.metrics().unwrap();
    assert_eq!(
        after.errors, before.errors,
        "no refusal reached the batcher"
    );
    let (before, after) = (before.wire, after.wire);
    assert_eq!(after.errors_rejected - before.errors_rejected, refused);
    assert_eq!(after.errors_corrupt, before.errors_corrupt);
    assert_eq!(after.errors_malformed, before.errors_malformed);
    assert_eq!(after.errors_unknown_kind, before.errors_unknown_kind);
    assert_eq!(after.errors_oversized, before.errors_oversized);

    handle.shutdown();
    join.join().unwrap();
}
