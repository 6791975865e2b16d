//! The door thread must not burn CPU while it has nothing to do: idle
//! with an open connection, or backpressured by a client that floods
//! requests and never reads. Each case runs the door on a named thread
//! and charges it the `utime + stime` clock ticks that
//! `/proc/self/task/<tid>/stat` reports over one second. Linux only; a
//! test binary of its own so no other test's threads share the process.

#![cfg(target_os = "linux")]

use std::io::Write;
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use eigenmaps_core::prelude::*;
use eigenmaps_net::prelude::*;
use eigenmaps_serve::prelude::*;

/// Clock ticks per second of `/proc` accounting (`USER_HZ`, fixed at 100
/// on Linux).
const TICKS_PER_S: f64 = 100.0;
/// The spin budget: 10% of one core.
const MAX_TICKS_PER_S: f64 = 10.0;

/// One 8×7 deployment and 16 frames of its readings.
fn fixture() -> (Arc<DeploymentRegistry>, Vec<Vec<f64>>) {
    let maps: Vec<ThermalMap> = (0..48)
        .map(|t| {
            let a = (t as f64 / 4.0).sin();
            ThermalMap::from_fn(8, 7, |r, c| 48.0 + a * r as f64 - c as f64)
        })
        .collect();
    let ens = MapEnsemble::from_maps(&maps).unwrap();
    let deployment = Pipeline::new(&ens)
        .basis(BasisSpec::EigenExact { k: 2 })
        .sensors(5)
        .design()
        .unwrap();
    let frames = (0..16)
        .map(|t| deployment.sensors().sample(&ens.map(t)))
        .collect();
    let registry = Arc::new(DeploymentRegistry::new());
    registry.publish("chip", deployment);
    (registry, frames)
}

/// Runs a door on a thread named `name`.
fn spawn_named_door(
    name: &str,
    server: Arc<Server>,
    config: NetConfig,
) -> (SocketAddr, DoorHandle, JoinHandle<()>) {
    let door = NetServer::bind_with("127.0.0.1:0", server, config).expect("bind loopback");
    let addr = door.local_addr();
    let handle = door.handle();
    let join = std::thread::Builder::new()
        .name(name.to_string())
        .spawn(move || door.run())
        .expect("spawn door thread");
    (addr, handle, join)
}

/// The `/proc/self/task/<tid>` directory of the thread whose `comm` is
/// `name`.
fn task_dir(name: &str) -> std::path::PathBuf {
    for entry in std::fs::read_dir("/proc/self/task").expect("list tasks") {
        let dir = entry.expect("task entry").path();
        let comm = std::fs::read_to_string(dir.join("comm")).unwrap_or_default();
        if comm.trim_end() == name {
            return dir;
        }
    }
    panic!("no thread named {name}");
}

/// `utime + stime` of the task, in clock ticks.
fn cpu_ticks(task: &std::path::Path) -> u64 {
    let stat = std::fs::read_to_string(task.join("stat")).expect("read task stat");
    // Fields after the parenthesised comm start at field 3 (`state`);
    // utime and stime are fields 14 and 15.
    let rest = &stat[stat.rfind(')').expect("comm is parenthesised") + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: u64 = fields[11].parse().expect("utime");
    let stime: u64 = fields[12].parse().expect("stime");
    utime + stime
}

/// CPU the door thread burns per second over a one-second window.
fn door_ticks_per_s(task: &std::path::Path) -> f64 {
    let (before, started) = (cpu_ticks(task), Instant::now());
    std::thread::sleep(Duration::from_secs(1));
    let ticks = cpu_ticks(task) - before;
    ticks as f64 / started.elapsed().as_secs_f64()
}

fn wait_until(limit: Duration, what: &str, mut probe: impl FnMut() -> bool) {
    let deadline = Instant::now() + limit;
    while !probe() {
        assert!(Instant::now() < deadline, "timed out: {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn idle_door_does_not_spin() {
    let (registry, _) = fixture();
    let server = Arc::new(Server::new(registry, 1));
    let name = "door-cpu-idle";
    let (addr, handle, join) = spawn_named_door(name, Arc::clone(&server), NetConfig::default());
    let _idle = TcpStream::connect(addr).expect("connect");
    wait_until(Duration::from_secs(5), "connection accepted", || {
        server.metrics().wire.connections_open == 1
    });

    let rate = door_ticks_per_s(&task_dir(name));
    assert!(
        rate <= MAX_TICKS_PER_S,
        "idle door burns {rate:.1} ticks/s ({:.0}% of a core)",
        rate / TICKS_PER_S * 100.0
    );

    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn backpressured_door_does_not_spin() {
    let (registry, frames) = fixture();
    let server = Arc::new(Server::new(registry, 1));
    let name = "door-cpu-flood";
    let config = NetConfig {
        write_backlog_limit: 1024,
        idle_timeout: Duration::from_secs(30),
        drain_timeout: Duration::from_millis(500),
        ..NetConfig::default()
    };
    let (addr, handle, join) = spawn_named_door(name, Arc::clone(&server), config);

    // A client that floods batch requests and never reads a reply.
    let flood = TcpStream::connect(addr).expect("connect");
    let writer = {
        let mut flood = flood.try_clone().unwrap();
        let request = Request::SubmitBatch {
            deployment: "chip".to_string(),
            frames,
        };
        std::thread::spawn(move || {
            for id in 1u64.. {
                if flood
                    .write_all(&request.encode(id).expect("encodes"))
                    .is_err()
                {
                    break;
                }
            }
        })
    };
    // Backpressure has engaged once the door stops reading.
    let mut last = 0;
    let mut steady_since = Instant::now();
    wait_until(Duration::from_secs(10), "bytes_in to plateau", || {
        let now = server.metrics().wire.bytes_in;
        if now != last {
            last = now;
            steady_since = Instant::now();
        }
        last > 0 && steady_since.elapsed() >= Duration::from_millis(200)
    });

    let rate = door_ticks_per_s(&task_dir(name));
    assert!(
        rate <= MAX_TICKS_PER_S,
        "backpressured door burns {rate:.1} ticks/s ({:.0}% of a core)",
        rate / TICKS_PER_S * 100.0
    );

    // Break the flood: the blocked writer fails out, the socket closes.
    flood.shutdown(Shutdown::Both).unwrap();
    writer.join().unwrap();
    drop(flood);
    handle.shutdown();
    join.join().unwrap();
}
