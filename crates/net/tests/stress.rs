//! Multi-client TCP churn against one door: concurrent clients
//! connecting, submitting, streaming and vanishing mid-flight, all
//! seeded for reproducibility. `EIGENMAPS_STRESS=1` widens the sweep —
//! that is the CI network lane.
//!
//! Invariants per schedule:
//! * every awaited response is bitwise-identical to the pinned
//!   artifact's sequential reconstruction;
//! * abandoned connections (dropped with responses in flight) leak
//!   nothing — the connection gauge returns to zero after the churn and
//!   a fresh client still gets correct answers;
//! * the door thread never panics.

use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use eigenmaps_core::prelude::*;
use eigenmaps_net::prelude::*;
use eigenmaps_serve::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn stress() -> bool {
    std::env::var("EIGENMAPS_STRESS").is_ok_and(|v| v == "1")
}

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
        let maps: Vec<ThermalMap> = (0..40)
            .map(|t| {
                let a = (t as f64 / (4.0 + idx as f64)).sin();
                ThermalMap::from_fn(7, 6, |r, c| {
                    47.0 + a * (r + idx * c) as f64 + c as f64 * 0.1
                })
            })
            .collect();
        let ens = MapEnsemble::from_maps(&maps).unwrap();
        let deployment = Pipeline::new(&ens)
            .basis(BasisSpec::EigenExact { k: 2 + idx })
            .sensors(4 + idx)
            .design()
            .unwrap();
        registry.publish(name, deployment.clone());
        let tenant_frames: Vec<Vec<f64>> = (0..12)
            .map(|t| {
                let mut readings = deployment.sensors().sample(&ens.map(t));
                for (i, x) in readings.iter_mut().enumerate() {
                    *x += ((t * 13 + i * 7) as f64 * 0.37).sin() * 0.04;
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

/// One churn schedule: `clients` worker threads hammer the same door,
/// each making seeded choices — tenant, batch vs session traffic, how
/// much of the exchange to finish before abandoning the socket.
fn churn_schedule(seed: u64, clients: usize, rounds: usize) {
    let fleet = fleet();
    let policy = BatchPolicy {
        max_batch_frames: 48,
        max_batch_requests: 8,
        max_delay: Duration::from_micros(500),
        ..BatchPolicy::default()
    };
    let server = Arc::new(Server::with_policy(Arc::clone(&fleet.registry), 2, policy));
    let door = NetServer::bind("127.0.0.1:0", Arc::clone(&server)).expect("bind");
    let addr = door.local_addr();
    let handle = door.handle();
    let door_thread = std::thread::spawn(move || door.run());

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

    let mut workers = Vec::new();
    for worker in 0..clients as u64 {
        let names = fleet.names;
        let frames = [fleet.frames[0].clone(), fleet.frames[1].clone()];
        let truth = [Arc::clone(&truth[0]), Arc::clone(&truth[1])];
        let deployments = [
            Arc::clone(&fleet.deployments[0]),
            Arc::clone(&fleet.deployments[1]),
        ];
        workers.push(std::thread::spawn(move || {
            let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9E37).wrapping_add(worker));
            for _ in 0..rounds {
                let tenant = rng.gen_range(0..2u64) as usize;
                match rng.gen_range(0..4u32) {
                    // Full, polite batch exchange — verified bitwise.
                    0 | 1 => {
                        let mut client = Client::connect(addr).expect("connect");
                        let maps = client
                            .submit_batch(names[tenant], frames[tenant].clone())
                            .expect("batch")
                            .maps;
                        for (i, map) in maps.iter().enumerate() {
                            assert_eq!(
                                map.as_slice()
                                    .iter()
                                    .map(|x| x.to_bits())
                                    .collect::<Vec<_>>(),
                                truth[tenant][i]
                                    .as_slice()
                                    .iter()
                                    .map(|x| x.to_bits())
                                    .collect::<Vec<_>>(),
                                "tenant {tenant} frame {i} diverged over TCP"
                            );
                        }
                    }
                    // Session traffic verified against the deployment's
                    // own tracker; sometimes abandoned mid-stream.
                    2 => {
                        let mut client = Client::connect(addr).expect("connect");
                        let gain = 0.5 + 0.4 * (worker as f64 / clients.max(1) as f64);
                        let mut reference = deployments[tenant].tracker(gain).unwrap();
                        let info = client.open_session(names[tenant], gain).expect("open");
                        let steps = rng.gen_range(1..(frames[tenant].len() as u64 + 1)) as usize;
                        for readings in &frames[tenant][..steps] {
                            let want = reference.step(readings).unwrap();
                            let got = client.step(info.session, readings.clone()).expect("step");
                            assert_eq!(
                                got.as_slice()
                                    .iter()
                                    .map(|x| x.to_bits())
                                    .collect::<Vec<_>>(),
                                want.as_slice()
                                    .iter()
                                    .map(|x| x.to_bits())
                                    .collect::<Vec<_>>(),
                                "session step diverged over TCP"
                            );
                        }
                        if rng.gen_bool(0.5) {
                            // Vanish with the session open.
                            drop(client);
                        } else {
                            client.close_session(info.session).expect("close");
                        }
                    }
                    // Fire-and-vanish: submissions abandoned with the
                    // responses in flight.
                    _ => {
                        let mut raw = TcpStream::connect(addr).expect("connect");
                        let burst = rng.gen_range(1..4u64);
                        for i in 0..burst {
                            let request = Request::SubmitBatch {
                                deployment: names[tenant].to_string(),
                                frames: frames[tenant].clone(),
                            };
                            let frame = request.encode(i + 1).expect("encodes");
                            if raw.write_all(&frame).is_err() {
                                break;
                            }
                        }
                        drop(raw);
                    }
                }
            }
        }));
    }
    for worker in workers {
        worker.join().expect("worker thread panicked");
    }

    // Nothing leaks: once the abandoned sockets are reaped the
    // connection gauge returns to zero and one fresh exchange still
    // round-trips bitwise.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if server.metrics().wire.connections_open == 0 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "leaked connections: {}",
            server.metrics().wire.connections_open
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    let mut client = Client::connect(addr).expect("post-churn connect");
    let maps = client
        .submit_batch(fleet.names[0], fleet.frames[0].clone())
        .expect("post-churn batch")
        .maps;
    for (i, map) in maps.iter().enumerate() {
        assert_eq!(
            map.as_slice()
                .iter()
                .map(|x| x.to_bits())
                .collect::<Vec<_>>(),
            truth[0][i]
                .as_slice()
                .iter()
                .map(|x| x.to_bits())
                .collect::<Vec<_>>(),
            "post-churn frame {i} diverged"
        );
    }
    drop(client);

    handle.shutdown();
    door_thread.join().expect("door thread panicked");
}

#[test]
fn tcp_churn_under_seeded_schedules() {
    let (seeds, clients, rounds) = if stress() { (6, 6, 8) } else { (2, 3, 4) };
    for seed in 0..seeds {
        churn_schedule(seed, clients, rounds);
    }
}

// ---------------------------------------------------------------------------
// Hard-kill durability: a real server process SIGKILLed with live traffic
// and background checkpoints in flight, restarted on the same store
// directory, must hydrate and continue every stream bitwise.
// ---------------------------------------------------------------------------

/// Kills the child on drop so a failed assertion never leaks a server
/// process past the test run.
struct ChildGuard(std::process::Child);

impl Drop for ChildGuard {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Re-invokes this test binary as a server process: `killable_server`
/// below boots on `dir`, prints its port, and serves until killed.
fn spawn_server(dir: &std::path::Path) -> (ChildGuard, std::net::SocketAddr) {
    use std::io::BufRead;
    let exe = std::env::current_exe().expect("test binary path");
    let mut child = std::process::Command::new(exe)
        .args(["killable_server", "--exact", "--nocapture"])
        .env("EIGENMAPS_KILLABLE_DIR", dir)
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn server process");
    let stdout = child.stdout.take().expect("child stdout piped");
    let mut guard = ChildGuard(child);
    let mut port = None;
    for line in std::io::BufReader::new(stdout).lines() {
        let line = line.expect("read child stdout");
        // The harness prints "test killable_server ... " with no newline
        // before the test body runs, so the marker lands mid-line.
        if let Some(pos) = line.find("PORT=") {
            port = Some(line[pos + 5..].trim().parse::<u16>().expect("port number"));
            break;
        }
    }
    let port = port.unwrap_or_else(|| {
        let status = guard.0.wait();
        panic!("server process exited without announcing a port: {status:?}")
    });
    // The reader thread owning the pipe ends here; the child keeps
    // serving (EPIPE on its captured stdout is harmless).
    (guard, std::net::SocketAddr::from(([127, 0, 0, 1], port)))
}

/// The server side of the kill test, driven only via the env var: boots
/// a `Server`, hydrates the store directory (cold boot publishes the
/// fleet; a restart republishes from disk), parks recovered sessions in
/// the door's orphan pool, announces its port, and serves until killed.
#[test]
fn killable_server() {
    let Some(dir) = std::env::var_os("EIGENMAPS_KILLABLE_DIR") else {
        return;
    };
    let fleet = fleet();
    let registry = Arc::new(DeploymentRegistry::new());
    let server = Arc::new(Server::new(Arc::clone(&registry), 2));
    let hydration = server
        .hydrate(&dir, Duration::from_millis(25))
        .expect("hydrate store directory");
    if hydration.report.deployments == 0 {
        for (idx, name) in fleet.names.iter().enumerate() {
            registry.publish(name, (*fleet.deployments[idx]).clone());
        }
    }
    let door = NetServer::bind("127.0.0.1:0", Arc::clone(&server)).expect("bind");
    door.adopt(hydration.sessions);
    println!("PORT={}", door.local_addr().port());
    std::io::stdout().flush().ok();
    door.run();
}

/// One kill cycle: open a session over TCP, step it with live bitwise
/// verification, wait for an on-disk checkpoint to reference it, keep
/// stepping so the SIGKILL races the 25 ms checkpoint cadence, kill,
/// restart on the same directory, attach by durable id, and continue the
/// stream — every post-restart step bitwise-identical to an unbroken
/// reference replayed to the checkpointed frame count.
fn kill_restart_cycle(cycle: u64, head: usize, mid: usize) {
    use eigenmaps_core::codec::StoreManifest;

    let fleet = fleet();
    let dir = std::env::temp_dir().join(format!("eigenmaps-kill-{}-{cycle}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (first, addr) = spawn_server(&dir);

    let gain = 0.7;
    let tenant = (cycle % 2) as usize;
    let name = fleet.names[tenant];
    let frames = &fleet.frames[tenant];
    assert!(head <= mid && mid < frames.len());

    let mut client = Client::connect(addr).expect("connect");
    let mut reference = fleet.deployments[tenant].tracker(gain).expect("reference");
    let info = client.open_session(name, gain).expect("open");
    assert!(info.durable > 0, "hydrated server assigns durable ids");

    let verify_step = |client: &mut Client,
                       reference: &mut TrackingReconstructor,
                       session: u64,
                       readings: &Vec<f64>| {
        let want = reference.step(readings).unwrap();
        let got = client.step(session, readings.clone()).expect("step");
        assert_eq!(
            got.as_slice()
                .iter()
                .map(|x| x.to_bits())
                .collect::<Vec<_>>(),
            want.as_slice()
                .iter()
                .map(|x| x.to_bits())
                .collect::<Vec<_>>(),
            "live step diverged over TCP"
        );
    };
    for readings in &frames[..head] {
        verify_step(&mut client, &mut reference, info.session, readings);
    }

    // Wait until some background checkpoint has committed a manifest
    // referencing this session, so the restart has something to hydrate.
    let manifest_path = dir.join("manifest.emstore");
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let referenced = std::fs::read(&manifest_path)
            .ok()
            .and_then(|bytes| StoreManifest::from_bytes(&bytes).ok())
            .is_some_and(|m| m.sessions.iter().any(|e| e.id == info.durable));
        if referenced {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "no checkpoint referenced the session within 10s"
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    // More live steps so the kill lands with checkpoints in flight.
    for readings in &frames[head..mid] {
        verify_step(&mut client, &mut reference, info.session, readings);
    }
    drop(client);
    drop(first); // SIGKILL — no shutdown handshake, no final checkpoint.

    let (second, addr) = spawn_server(&dir);
    let mut client = Client::connect(addr).expect("reconnect");

    // The catalog came back from disk, not from a republish.
    let catalog = client.catalog().expect("catalog");
    for name in fleet.names {
        assert!(
            catalog
                .iter()
                .any(|(n, versions)| n == name && versions == &[1]),
            "deployment {name} missing after hydration: {catalog:?}"
        );
    }

    // Attach by durable id: the stream continues from whatever frame the
    // last committed checkpoint captured — old-or-new, never torn.
    let resumed = client.attach(info.durable).expect("attach");
    assert_eq!(resumed.version, info.version);
    let at = resumed.frames as usize;
    assert!(at <= mid, "resumed past the frames ever served");
    let mut reference = fleet.deployments[tenant].tracker(gain).expect("reference");
    for readings in &frames[..at] {
        reference.step(readings).expect("replay");
    }
    for readings in &frames[at..] {
        verify_step(&mut client, &mut reference, resumed.session, readings);
    }

    // A durable id claims at most once per restart.
    assert!(
        client.attach(info.durable).is_err(),
        "second attach of the same durable id must be refused"
    );

    drop(client);
    drop(second);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn tcp_kill_nine_then_bitwise_continuation() {
    let cycles: u64 = if stress() { 3 } else { 1 };
    for cycle in 0..cycles {
        let head = 3 + (cycle as usize % 3);
        let mid = 9;
        kill_restart_cycle(cycle, head, mid);
    }
}
