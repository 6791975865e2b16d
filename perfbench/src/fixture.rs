//! The system under test and its inputs: the Baseline deployment booted
//! behind a loopback `NetServer`, and the seeded frames plus the bitwise
//! reference digests every reply is checked against.

use std::path::PathBuf;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use eigenmaps::core::prelude::{BasisSpec, Deployment, NoiseModel, Pipeline};
use eigenmaps::floorplan::{DatasetBuilder, ThermalDataset};
use eigenmaps::net::{Client, DoorHandle, NetServer, Request, Response};
use eigenmaps::serve::{DeploymentRegistry, Server};

use crate::wire::WireConn;

/// Registry name the deployment is published under.
pub const DEPLOYMENT: &str = "ultrasparc-t1";
/// ROADMAP's Baseline shape: 28×30 grid, 300 snapshots, K = M = 16.
const GRID: (usize, usize) = (28, 30);
const SNAPSHOTS: usize = 300;
const K: usize = 16;
const SENSORS: usize = 16;
/// Per-reading sensor noise, °C.
const SIGMA: f64 = 0.2;
/// Temporal-filter gain of every stream session.
pub const GAIN: f64 = 0.8;
/// Stream sessions, one per chip.
pub const SESSIONS: usize = 16;
/// Frames per bulk request.
pub const BATCH_FRAMES: usize = 256;
/// Distinct bulk requests the pool is cut into.
pub const DISTINCT_BATCHES: usize = 16;
const POOL_FRAMES: usize = BATCH_FRAMES * DISTINCT_BATCHES;
/// Checkpoint cadence of the disk-backed store.
const CHECKPOINT_EVERY: Duration = Duration::from_millis(50);

/// Order-sensitive 64-bit digest of a map's cell bits. Each step is a
/// bijection of the running state, so any single changed cell changes the
/// digest.
pub fn digest(cells: &[f64]) -> u64 {
    cells.iter().fold(0x9E37_79B9_7F4A_7C15, |h, x| {
        (h.rotate_left(5) ^ x.to_bits()).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// splitmix64: the seeded source for phases and offsets.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_add(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Wall time of each set-up stage.
#[derive(Debug, Clone, Copy)]
pub struct SetupTimes {
    pub dataset_build: Duration,
    pub design: Duration,
    pub publish: Duration,
    pub total: Duration,
}

/// What a workload needs booted.
#[derive(Debug, Clone, Copy)]
pub struct RigSpec {
    pub connections: usize,
    pub sessions: bool,
    pub durable: bool,
}

/// One booted system: dataset → design → `Server` + `NetServer` on
/// loopback → artifact published over the wire → load connections (and
/// stream sessions) open.
pub struct Rig {
    pub dataset: ThermalDataset,
    pub artifact: Vec<u8>,
    pub version: u32,
    server: Option<Arc<Server>>,
    handle: DoorHandle,
    door: Option<JoinHandle<()>>,
    store: Option<PathBuf>,
    pub conns: Vec<WireConn>,
    /// Session ids on `conns[0]`, one per chip.
    pub sessions: Vec<u64>,
    pub times: SetupTimes,
}

impl Rig {
    pub fn boot(spec: RigSpec, shards: usize, store_tag: &str) -> Result<Rig, String> {
        let start = Instant::now();
        let dataset = DatasetBuilder::ultrasparc_t1()
            .grid(GRID.0, GRID.1)
            .snapshots(SNAPSHOTS)
            .build()
            .map_err(|e| format!("dataset: {e}"))?;
        let dataset_build = start.elapsed();

        let design_start = Instant::now();
        let artifact = Pipeline::new(dataset.ensemble())
            .basis(BasisSpec::Eigen { k: K })
            .sensors(SENSORS)
            .design()
            .map_err(|e| format!("design: {e}"))?
            .to_bytes();
        let design = design_start.elapsed();

        let server = Arc::new(Server::new(Arc::new(DeploymentRegistry::new()), shards));
        server.recorder().set_enabled(false);
        let store = if spec.durable {
            let dir = std::env::current_dir()
                .map_err(|e| e.to_string())?
                .join(".bench_build")
                .join(format!(
                    "perfbench-store-{}-{store_tag}",
                    std::process::id()
                ));
            let _ = std::fs::remove_dir_all(&dir);
            // Nothing to recover in a fresh directory; the hydration only
            // attaches the checkpointing store.
            server
                .hydrate(&dir, CHECKPOINT_EVERY)
                .map_err(|e| format!("hydrate: {e}"))?;
            Some(dir)
        } else {
            None
        };
        let door = NetServer::bind("127.0.0.1:0", Arc::clone(&server))
            .map_err(|e| format!("bind: {e}"))?;
        let addr = door.local_addr();
        let handle = door.handle();
        let door = std::thread::Builder::new()
            .name("perfbench-door".into())
            .spawn(move || door.run())
            .map_err(|e| e.to_string())?;
        let mut rig = Rig {
            dataset,
            artifact,
            version: 0,
            server: Some(server),
            handle,
            door: Some(door),
            store,
            conns: Vec::new(),
            sessions: Vec::new(),
            times: SetupTimes {
                dataset_build,
                design,
                publish: Duration::ZERO,
                total: Duration::ZERO,
            },
        };

        let publish_start = Instant::now();
        rig.version = Client::connect(addr)
            .and_then(|mut client| client.publish(DEPLOYMENT, rig.artifact.clone()))
            .map_err(|e| format!("publish: {e}"))?;
        rig.times.publish = publish_start.elapsed();

        for _ in 0..spec.connections {
            rig.conns
                .push(WireConn::connect(addr).map_err(|e| format!("connect: {e}"))?);
        }
        if spec.sessions {
            for _ in 0..SESSIONS {
                let open = Request::OpenSession {
                    deployment: DEPLOYMENT.into(),
                    gain: GAIN,
                };
                match rig.conns[0].call(&open)? {
                    Response::SessionOpened { session, .. } => rig.sessions.push(session),
                    other => return Err(format!("open session: unexpected {other:?}")),
                }
            }
        }
        rig.times.total = start.elapsed();
        Ok(rig)
    }

    pub fn server(&self) -> &Arc<Server> {
        self.server.as_ref().expect("server lives until drop")
    }
}

impl Drop for Rig {
    fn drop(&mut self) {
        // Close the load connections and let the door notice, so the
        // graceful drain has nothing left to reap.
        self.conns.clear();
        if let Some(server) = &self.server {
            let deadline = Instant::now() + Duration::from_secs(2);
            while server.metrics().wire.connections_open > 0 && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(2));
            }
        }
        self.handle.shutdown();
        if let Some(door) = self.door.take() {
            let _ = door.join();
        }
        // Last reference: joins the batcher, the workers and any
        // checkpoint in flight before the store directory goes.
        self.server = None;
        if let Some(dir) = self.store.take() {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// The seeded inputs and their reference digests, computed from the
/// published artifact itself (`Deployment::from_bytes`), the same bytes
/// the server serves.
pub struct Inputs {
    pub deployment: Deployment,
    /// `DISTINCT_BATCHES × BATCH_FRAMES` noisy frames.
    pub pool: Vec<Vec<f64>>,
    pub pool_digests: Vec<u64>,
    /// One prebuilt `SubmitBatch` per pool slice.
    pub batches: Vec<Request>,
    /// Per session, its readings step by step.
    pub streams: Vec<Vec<Vec<f64>>>,
    /// Per session, the digest of each step's filtered map, from a
    /// `TrackingReconstructor` replaying that session's readings.
    pub stream_digests: Vec<Vec<u64>>,
}

impl Inputs {
    pub fn generate(rig: &Rig, seed: u64, steps: usize) -> Result<Inputs, String> {
        let deployment = Deployment::from_bytes(&rig.artifact).map_err(|e| e.to_string())?;
        let snapshots = rig.dataset.len();
        let mut noise = NoiseModel::new(seed);
        let sample = |t: usize, noise: &mut NoiseModel| {
            let clean = deployment.sensors().sample(&rig.dataset.map(t % snapshots));
            noise.apply_sigma(&clean, SIGMA)
        };

        let offset = (mix(seed, 1) % snapshots as u64) as usize;
        let pool: Vec<Vec<f64>> = (0..POOL_FRAMES)
            .map(|i| sample(offset + i, &mut noise))
            .collect();
        let pool_digests = deployment
            .reconstruct_batch(&pool)
            .map_err(|e| e.to_string())?
            .iter()
            .map(|m| digest(m.as_slice()))
            .collect();
        let batches = pool
            .chunks(BATCH_FRAMES)
            .map(|frames| Request::SubmitBatch {
                deployment: DEPLOYMENT.into(),
                frames: frames.to_vec(),
            })
            .collect();

        let starts: Vec<usize> = (0..SESSIONS)
            .map(|s| (mix(seed, 100 + s as u64) % snapshots as u64) as usize)
            .collect();
        let mut streams: Vec<Vec<Vec<f64>>> =
            (0..SESSIONS).map(|_| Vec::with_capacity(steps)).collect();
        for n in 0..steps {
            for (s, stream) in streams.iter_mut().enumerate() {
                stream.push(sample(starts[s] + n, &mut noise));
            }
        }
        let mut stream_digests = Vec::with_capacity(SESSIONS);
        for stream in &streams {
            let mut tracker = deployment.tracker(GAIN).map_err(|e| e.to_string())?;
            let mut digests = Vec::with_capacity(steps);
            for readings in stream {
                let map = tracker.step(readings).map_err(|e| e.to_string())?;
                digests.push(digest(map.as_slice()));
            }
            stream_digests.push(digests);
        }
        Ok(Inputs {
            deployment,
            pool,
            pool_digests,
            batches,
            streams,
            stream_digests,
        })
    }

    /// The reference digest of map `j` of bulk request `b`.
    pub fn batch_digest(&self, b: usize, j: usize) -> u64 {
        self.pool_digests[(b % DISTINCT_BATCHES) * BATCH_FRAMES + j]
    }
}
