//! The serving fleet behind a real socket: two chip SKUs published over
//! the wire, batch traffic and a streaming telemetry session over
//! loopback TCP — then a full server restart that the session rides out
//! through a durable `EMSESS1` snapshot, resumed over the wire against
//! the new process.
//!
//! Everything the in-process `serving_fleet` example demonstrates holds
//! at the socket edge too, and the example checks it: every map served
//! over TCP is **bitwise-identical** to the same computation run
//! in-process, before and after the restart.
//!
//! ```text
//! cargo run --release --example network_fleet
//! ```

use std::sync::Arc;

use eigenmaps::core::prelude::*;
use eigenmaps::floorplan::prelude::*;
use eigenmaps::net::{Client, NetServer};
use eigenmaps::serve::{DeploymentRegistry, Server, Stage};

const ROWS: usize = 14;
const COLS: usize = 15;

type AnyResult<T> = std::result::Result<T, Box<dyn std::error::Error>>;

fn design(sensors: usize, seed: u64) -> AnyResult<(Deployment, MapEnsemble)> {
    let dataset = DatasetBuilder::ultrasparc_t1()
        .grid(ROWS, COLS)
        .snapshots(120)
        .settle_steps(30)
        .seed(seed)
        .build()?;
    let deployment = Pipeline::new(dataset.ensemble())
        .basis(BasisSpec::Eigen { k: sensors })
        .sensors(sensors)
        .noise(NoiseSpec::sigma(0.2))
        .design()?;
    Ok((deployment, dataset.ensemble().clone()))
}

/// A booted server process stand-in: registry, server, door address,
/// shutdown handle and the loop thread.
type Booted = (
    Arc<DeploymentRegistry>,
    Arc<Server>,
    std::net::SocketAddr,
    eigenmaps::net::DoorHandle,
    std::thread::JoinHandle<()>,
);

/// Boots a server process stand-in: fresh registry, sharded server, TCP
/// door on an ephemeral loopback port, loop on its own thread.
fn boot(shards: usize) -> AnyResult<Booted> {
    let registry = Arc::new(DeploymentRegistry::new());
    let server = Arc::new(Server::new(Arc::clone(&registry), shards));
    let door = NetServer::bind("127.0.0.1:0", Arc::clone(&server))?;
    let addr = door.local_addr();
    let handle = door.handle();
    let join = std::thread::spawn(move || door.run());
    Ok((registry, server, addr, handle, join))
}

/// Boots a server process stand-in with a crash-safe snapshot store
/// rooted at `dir`: whatever a previous process checkpointed there is
/// hydrated (deployments republished, sessions parked in the door's
/// orphan pool for `Client::attach`), and from then on the server
/// checkpoints every open session in the background.
fn boot_durable(
    shards: usize,
    dir: &std::path::Path,
) -> AnyResult<(Booted, eigenmaps::serve::HydrationReport)> {
    let registry = Arc::new(DeploymentRegistry::new());
    let server = Arc::new(Server::new(Arc::clone(&registry), shards));
    // A one-hour cadence keeps the example deterministic: the only
    // checkpoint is the one it takes explicitly.
    let hydration = server.hydrate(dir, std::time::Duration::from_secs(3600))?;
    let report = hydration.report;
    let door = NetServer::bind("127.0.0.1:0", Arc::clone(&server))?;
    door.adopt(hydration.sessions);
    let addr = door.local_addr();
    let handle = door.handle();
    let join = std::thread::spawn(move || door.run());
    Ok(((registry, server, addr, handle, join), report))
}

fn assert_bitwise(got: &ThermalMap, want: &ThermalMap, what: &str) {
    assert_eq!(
        got.as_slice()
            .iter()
            .map(|x| x.to_bits())
            .collect::<Vec<_>>(),
        want.as_slice()
            .iter()
            .map(|x| x.to_bits())
            .collect::<Vec<_>>(),
        "{what}: TCP result diverged from the in-process path"
    );
}

fn main() -> AnyResult<()> {
    // ---- design time: two SKUs, artifacts as bytes -----------------------
    println!("[design] fitting deployments for two chip SKUs…");
    let (alpha, alpha_maps) = design(8, 21)?;
    let (beta, _beta_maps) = design(10, 77)?;
    let alpha_bytes = alpha.to_bytes();
    let beta_bytes = beta.to_bytes();

    // ---- server process #1 ----------------------------------------------
    let shards = std::thread::available_parallelism().map_or(2, |p| p.get());
    let (_registry, _server, addr, handle, join) = boot(shards)?;
    println!("[serve] door #1 up on {addr} ({shards} shards)");

    // Ship both artifacts over the wire and read the catalog back.
    let mut client = Client::connect(addr)?;
    client.publish("sku-alpha", alpha_bytes.clone())?;
    client.publish("sku-beta", beta_bytes.clone())?;
    let catalog = client.catalog()?;
    println!("[wire]  published over TCP; catalog = {catalog:?}");

    // ---- batch traffic: bitwise parity with the in-process path ----------
    let mut noise = NoiseModel::new(0xF1EE7);
    let frames: Vec<Vec<f64>> = (0..48)
        .map(|t| noise.apply_sigma(&alpha.sensors().sample(&alpha_maps.map(t)), 0.2))
        .collect();
    let truth = alpha.reconstruct_batch(&frames)?;
    let reply = client.submit_batch("sku-alpha", frames.clone())?;
    for (i, map) in reply.maps.iter().enumerate() {
        assert_bitwise(map, &truth[i], "batch");
    }
    assert!(!reply.degraded, "no brownout: full-fidelity maps");
    println!(
        "[wire]  {} frames served over TCP against sku-alpha v{} — bitwise-identical",
        reply.maps.len(),
        reply.version
    );

    // ---- a streaming session, snapshotted mid-stream ---------------------
    // The artifact's own tracker mirrors every step the wire session
    // takes; the example keeps them in bitwise lockstep throughout.
    let mut reference = alpha.tracker(0.9)?;

    let session = client.open_session("sku-alpha", 0.9)?;
    let telemetry: Vec<Vec<f64>> = (48..80)
        .map(|t| noise.apply_sigma(&alpha.sensors().sample(&alpha_maps.map(t)), 0.2))
        .collect();
    for readings in &telemetry[..16] {
        let got = client.step(session.session, readings.clone())?;
        let want = reference.step(readings)?;
        assert_bitwise(&got, &want, "pre-restart step");
    }
    let snapshot = client.snapshot(session.session)?;
    println!(
        "[wire]  16 session steps streamed; EMSESS1 snapshot captured ({} bytes)",
        snapshot.len()
    );
    let wire_metrics = client.metrics()?;
    println!(
        "[wire]  door #1 gauges: {} conn open (max {}), {} frames in / {} out, {} wire errors",
        wire_metrics.wire.connections_open,
        wire_metrics.wire.max_connections_open,
        wire_metrics.wire.frames_in,
        wire_metrics.wire.frames_out,
        wire_metrics.wire.errors_total()
    );

    // ---- the flight recorder, read over the same socket ------------------
    // Per-tenant stage breakdowns (queue-wait vs execute vs respond) and
    // the slowest full trace, straight from the server's event ring.
    let trace = client.trace()?;
    println!(
        "[trace] ring: {} events written, {} dropped, {} resident",
        trace.written,
        trace.dropped,
        trace.events.len()
    );
    for tenant in &trace.tenants {
        println!(
            "[trace] {}: queue-wait p50 {}µs / p99 {}µs, execute p50 {}µs / p99 {}µs, \
             respond p50 {}µs / p99 {}µs",
            tenant.tenant,
            tenant.queue_wait_p50_ns / 1_000,
            tenant.queue_wait_p99_ns / 1_000,
            tenant.execute_p50_ns / 1_000,
            tenant.execute_p99_ns / 1_000,
            tenant.respond_p50_ns / 1_000,
            tenant.respond_p99_ns / 1_000,
        );
        if let Some(worst) = tenant.exemplars.first() {
            let timeline: Vec<String> = worst
                .stages
                .iter()
                .map(|s| match Stage::from_wire(s.stage, s.arg) {
                    Some(stage) => format!("{stage}@{}µs", s.at_ns / 1_000),
                    None => format!("stage#{}@{}µs", s.stage, s.at_ns / 1_000),
                })
                .collect();
            println!(
                "[trace] {} worst request t{}: {}µs total [{}]",
                tenant.tenant,
                worst.trace,
                worst.total_ns / 1_000,
                timeline.join(" → ")
            );
        }
    }

    // ---- restart: the whole server process goes away ---------------------
    drop(client);
    handle.shutdown();
    join.join().expect("door #1 loop");
    println!("[serve] door #1 drained and gone — restarting…");

    let (registry2, _server2, addr2, handle2, join2) = boot(shards)?;
    registry2.publish_bytes("sku-alpha", &alpha_bytes)?;
    println!("[serve] door #2 up on {addr2}");

    // ---- resume over the wire against the new process --------------------
    let mut client = Client::connect(addr2)?;
    let resumed = client.resume(snapshot)?;
    println!(
        "[wire]  session resumed over TCP at frame {} (sku-alpha v{})",
        resumed.frames, resumed.version
    );
    for readings in &telemetry[16..] {
        let got = client.step(resumed.session, readings.clone())?;
        let want = reference.step(readings)?;
        assert_bitwise(&got, &want, "post-restart step");
    }
    client.close_session(resumed.session)?;
    println!(
        "[wire]  {} post-restart steps — still bitwise-identical to the in-process tracker",
        telemetry.len() - 16
    );

    drop(client);
    handle2.shutdown();
    join2.join().expect("door #2 loop");

    // ---- act 3: no snapshot in hand — the server keeps its own ----------
    // Doors #1/#2 survived a restart because the *client* carried the
    // EMSESS1 bytes. A crash-safe server carries them itself: attach a
    // snapshot store, checkpoint mid-stream, die without a goodbye, and
    // let the next process hydrate everything from disk.
    let store_dir =
        std::env::temp_dir().join(format!("eigenmaps-network-fleet-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store_dir);
    let ((_, server3, addr3, handle3, join3), report) = boot_durable(shards, &store_dir)?;
    println!("[store] door #3 up on {addr3} with a snapshot store at {store_dir:?}");

    let mut client = Client::connect(addr3)?;
    client.publish("sku-alpha", alpha_bytes.clone())?;
    client.publish("sku-beta", beta_bytes.clone())?;
    assert_eq!(report.deployments, 0, "cold store had nothing to hydrate");

    let mut reference = alpha.tracker(0.9)?;
    let session = client.open_session("sku-alpha", 0.9)?;
    assert!(session.durable > 0, "a durable server assigns durable ids");
    let telemetry: Vec<Vec<f64>> = (80..112)
        .map(|t| noise.apply_sigma(&alpha.sensors().sample(&alpha_maps.map(t)), 0.2))
        .collect();
    for readings in &telemetry[..16] {
        let got = client.step(session.session, readings.clone())?;
        let want = reference.step(readings)?;
        assert_bitwise(&got, &want, "pre-kill step");
    }
    // One whole-fleet checkpoint: both artifacts and the live session go
    // through write-new → fsync → atomic-rename onto disk.
    let hub = server3.durability().expect("hydrated server has a hub");
    let checkpoint = hub.checkpoint_now()?;
    println!(
        "[store] checkpoint committed mid-stream: {} session(s) durable at frame 16",
        checkpoint.sessions
    );

    // The "kill": no session close, no final checkpoint — the server is
    // leaked, not shut down, so the store holds exactly what the
    // mid-stream checkpoint committed (the in-process analog of kill -9;
    // `crates/net/tests/stress.rs` does it to a real process).
    drop(client);
    handle3.shutdown();
    join3.join().expect("door #3 loop");
    std::mem::forget(server3);
    println!("[store] server killed with the session open — nothing said goodbye");

    // ---- cold start: hydrate the fleet from disk -------------------------
    let ((_, _server4, addr4, handle4, join4), report) = boot_durable(shards, &store_dir)?;
    println!(
        "[store] door #4 hydrated {} deployment(s) and {} session(s) from disk ({} skipped)",
        report.deployments, report.sessions, report.skipped
    );
    assert_eq!(
        (report.deployments, report.sessions, report.skipped),
        (2, 1, 0)
    );

    let mut client = Client::connect(addr4)?;
    let catalog = client.catalog()?;
    println!("[store] catalog republished from disk: {catalog:?}");

    // Attach claims the recovered stream by its durable id — exactly once
    // per restart — and continues it bitwise from the checkpointed frame.
    let resumed = client.attach(session.durable)?;
    assert_eq!(resumed.frames, 16, "resumed at the checkpointed frame");
    for readings in &telemetry[16..] {
        let got = client.step(resumed.session, readings.clone())?;
        let want = reference.step(readings)?;
        assert_bitwise(&got, &want, "post-hydration step");
    }
    client.close_session(resumed.session)?;
    println!(
        "[store] {} post-hydration steps — bitwise-identical, no client-side snapshot involved",
        telemetry.len() - 16
    );

    drop(client);
    handle4.shutdown();
    join4.join().expect("door #4 loop");
    let _ = std::fs::remove_dir_all(&store_dir);
    println!("[done]  the socket edge preserved every bit across batch, stream, restart and crash");
    Ok(())
}
