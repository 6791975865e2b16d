//! Per-layer timings for the traced run, taken from outside the program:
//! the benchmark's own timers around calls into each layer's public
//! functions, the flight-recorder ring fetched over the wire, and an idle
//! closed-loop probe over the socket whose client-observed medians the
//! layer medians are laid against in the attribution table.

use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;
use std::time::Instant;

use eigenmaps::core::kernel::FRAME_BLOCK;
use eigenmaps::net::{FrameBuffer, Request, Response, WireMap, WireTrace, MAX_FRAME_BYTES};
use eigenmaps::serve::ServeRequest;

use crate::fixture::{digest, Inputs, Rig, BATCH_FRAMES, DEPLOYMENT, GAIN};
use crate::stats::{median, time_median, Metrics};

/// Requests per socket probe, and repetitions per in-process timing.
const STEP_PROBES: usize = 400;
const BATCH_PROBES: usize = 40;
const BATCH_REPS: usize = 40;
const STEP_REPS: usize = 2000;

/// Stage codes of the flight recorder (`eigenmaps::serve::Stage::code`).
const ADMITTED: u8 = 0;
const COALESCED: u8 = 2;
const DISPATCHED: u8 = 3;
const KERNEL_DONE: u8 = 4;
const RESPONDED: u8 = 5;

/// Median stage durations of one request class, from the ring events.
#[derive(Debug, Default, Clone, Copy)]
pub struct Stages {
    pub queue_wait_us: f64,
    pub execute_us: f64,
    pub respond_us: f64,
    pub traces: usize,
}

/// Splits the sampled ring events into step and batch traces (batches
/// pass through `Coalesced`, steps do not) and takes the median of each
/// stage: admitted → dispatched (queue wait), dispatched → kernel done
/// (execute), kernel done → responded (respond). Samples overlap, so
/// events are de-duplicated first; traces missing a stage are skipped.
pub fn stage_medians(samples: &[WireTrace]) -> (Stages, Stages) {
    let mut seen = HashSet::new();
    let mut traces: BTreeMap<u64, Vec<(u8, u64)>> = BTreeMap::new();
    for event in samples.iter().flat_map(|s| &s.events) {
        if seen.insert((event.trace, event.stage, event.at_ns)) {
            traces
                .entry(event.trace)
                .or_default()
                .push((event.stage, event.at_ns));
        }
    }
    let mut spans = [
        [Vec::new(), Vec::new(), Vec::new()],
        [Vec::new(), Vec::new(), Vec::new()],
    ];
    for events in traces.values() {
        let at = |code: u8| events.iter().find(|(s, _)| *s == code).map(|(_, t)| *t);
        let (Some(admitted), Some(dispatched), Some(done), Some(responded)) =
            (at(ADMITTED), at(DISPATCHED), at(KERNEL_DONE), at(RESPONDED))
        else {
            continue;
        };
        let class = usize::from(at(COALESCED).is_some());
        for (slot, (from, to)) in [
            (admitted, dispatched),
            (dispatched, done),
            (done, responded),
        ]
        .into_iter()
        .enumerate()
        {
            spans[class][slot].push(to.saturating_sub(from) as f64 / 1e3);
        }
    }
    let stages = |s: &[Vec<f64>; 3]| Stages {
        queue_wait_us: median(&s[0]),
        execute_us: median(&s[1]),
        respond_us: median(&s[2]),
        traces: s[0].len(),
    };
    (stages(&spans[0]), stages(&spans[1]))
}

/// Requests the socket probe sent, how many did not verify, and how many
/// of those carried maps that differ from the reference.
#[derive(Debug, Default)]
pub struct ProbeCount {
    pub attempted: u64,
    pub failed: u64,
    pub wrong: u64,
}

impl ProbeCount {
    fn mismatch(&mut self) {
        self.failed += 1;
        self.wrong += 1;
    }
}

/// Client-observed medians of single requests on an otherwise idle
/// server, closed loop over `conns[0]`: one step on a fresh session and
/// one 256-frame batch at a time, each verified bitwise.
pub fn socket_probe(
    rig: &mut Rig,
    inputs: &Inputs,
    m: &mut Metrics,
    count: &mut ProbeCount,
) -> Result<(), String> {
    let conn = &mut rig.conns[0];
    let session = match conn.call(&Request::OpenSession {
        deployment: DEPLOYMENT.into(),
        gain: GAIN,
    })? {
        Response::SessionOpened { session, .. } => session,
        other => return Err(format!("probe session: unexpected {other:?}")),
    };
    let mut tracker = inputs.deployment.tracker(GAIN).map_err(|e| e.to_string())?;
    let mut step_us = Vec::with_capacity(STEP_PROBES);
    for readings in inputs.pool.iter().take(STEP_PROBES) {
        let want = digest(
            tracker
                .step(readings)
                .map_err(|e| e.to_string())?
                .as_slice(),
        );
        let request = Request::StepSession {
            session,
            readings: readings.clone(),
        };
        count.attempted += 1;
        let start = Instant::now();
        let reply = conn.call(&request);
        let elapsed = start.elapsed();
        match reply {
            Ok(Response::Step {
                map,
                degraded: false,
            }) if digest(&map.cells) == want => step_us.push(elapsed.as_secs_f64() * 1e6),
            Ok(Response::Step { .. }) => count.mismatch(),
            _ => count.failed += 1,
        }
    }
    let mut batch_ms = Vec::with_capacity(BATCH_PROBES);
    for b in 0..BATCH_PROBES {
        count.attempted += 1;
        let start = Instant::now();
        let reply = conn.call(&inputs.batches[b % inputs.batches.len()]);
        let elapsed = start.elapsed();
        match reply {
            Ok(Response::Batch {
                maps,
                degraded: false,
                ..
            }) if maps.len() == BATCH_FRAMES
                && maps
                    .iter()
                    .enumerate()
                    .all(|(j, map)| digest(&map.cells) == inputs.batch_digest(b, j)) =>
            {
                batch_ms.push(elapsed.as_secs_f64() * 1e3)
            }
            Ok(Response::Batch { .. }) => count.mismatch(),
            _ => count.failed += 1,
        }
    }
    m.put("loadgen.idle_step_us", median(&step_us), "us");
    m.put("loadgen.idle_batch_ms", median(&batch_ms), "ms");
    Ok(())
}

/// Times each layer's public entry points in process, on the workload's
/// own deployment and frames. Returns whether every output that can be
/// compared with the reference digests matched them bitwise.
pub fn in_process(rig: &Rig, inputs: &Inputs, m: &mut Metrics) -> Result<bool, String> {
    let deployment = &inputs.deployment;
    let frames: Vec<Vec<f64>> = inputs.pool[..BATCH_FRAMES].to_vec();
    let reference: Vec<u64> = (0..BATCH_FRAMES)
        .map(|j| inputs.batch_digest(0, j))
        .collect();
    let matches = |maps: Vec<&[f64]>| {
        maps.len() == reference.len()
            && maps
                .iter()
                .zip(&reference)
                .all(|(cells, want)| digest(cells) == *want)
    };
    let mut exact = true;

    // linalg::qr — the least-squares solve, per frame.
    let solve = time_median(BATCH_REPS, || {
        for readings in &frames {
            std::hint::black_box(deployment.coefficients(readings).expect("solve"));
        }
    });
    m.put(
        "linalg.qr.solve_us",
        solve / BATCH_FRAMES as f64 * 1e6,
        "us",
    );

    // core::kernel — packed, tiled synthesis over the 256 frames, laid out
    // the way `Reconstructor::reconstruct_batch` lays them out.
    let reconstructor = deployment.reconstructor();
    let packed = reconstructor.packed_basis();
    let backend = reconstructor.kernel_kind().backend();
    let mean = deployment.basis().mean().to_vec();
    let k = deployment.k();
    let n = packed.rows();
    let mut alpha_t = vec![0.0; BATCH_FRAMES * k];
    for block_start in (0..BATCH_FRAMES).step_by(FRAME_BLOCK) {
        let bsz = (BATCH_FRAMES - block_start).min(FRAME_BLOCK);
        for f in 0..bsz {
            let alpha = deployment
                .coefficients(&frames[block_start + f])
                .map_err(|e| e.to_string())?;
            for (j, a) in alpha.into_iter().enumerate() {
                alpha_t[block_start * k + j * bsz + f] = a;
            }
        }
    }
    let mut cells = vec![vec![0.0; n]; BATCH_FRAMES];
    let synth = time_median(BATCH_REPS, || {
        let mut outs: Vec<&mut [f64]> = cells.iter_mut().map(|c| c.as_mut_slice()).collect();
        for tile in packed.tile_spans() {
            for block_start in (0..BATCH_FRAMES).step_by(FRAME_BLOCK) {
                let bsz = (BATCH_FRAMES - block_start).min(FRAME_BLOCK);
                backend.synthesize_panels(
                    packed,
                    tile.clone(),
                    &mean,
                    &alpha_t[block_start * k..(block_start + bsz) * k],
                    bsz,
                    &mut outs[block_start..block_start + bsz],
                );
            }
        }
    });
    exact &= matches(cells.iter().map(Vec::as_slice).collect());
    m.put(
        "core.kernel.synth_us_per_frame",
        synth / BATCH_FRAMES as f64 * 1e6,
        "us",
    );
    // Computed from the shapes, not counted: one multiply and one add per
    // basis element per frame.
    let flops = 2.0 * n as f64 * k as f64 * BATCH_FRAMES as f64;
    m.put("core.kernel.gflops", flops / synth / 1e9, "GFLOP/s");

    // core::reconstruct — solve + synthesis + per-frame output maps.
    let batch = time_median(BATCH_REPS, || {
        deployment.reconstruct_batch(&frames).expect("reconstruct")
    });
    let maps = deployment
        .reconstruct_batch(&frames)
        .map_err(|e| e.to_string())?;
    exact &= matches(maps.iter().map(|map| map.as_slice()).collect());
    m.put("core.reconstruct.batch_ms", batch * 1e3, "ms");

    // core::tracking — one filtered step.
    let mut tracker = deployment.tracker(GAIN).map_err(|e| e.to_string())?;
    let track = time_median(BATCH_REPS, || {
        for readings in &frames {
            std::hint::black_box(tracker.step(readings).expect("track"));
        }
    });
    m.put(
        "core.tracking.step_us",
        track / BATCH_FRAMES as f64 * 1e6,
        "us",
    );

    // serve::shard — the sharded executor alone.
    let server = rig.server();
    let live = server
        .registry()
        .latest(DEPLOYMENT)
        .map_err(|e| e.to_string())?;
    let shared = Arc::new(frames.clone());
    let execute = time_median(BATCH_REPS, || {
        server.executor().execute(&live, &shared).expect("execute")
    });
    m.put("serve.shard.execute_ms", execute * 1e3, "ms");

    // serve::batch / serve::scheduler — in-process requests, no socket.
    let mut requests: Vec<ServeRequest> = (0..BATCH_REPS)
        .map(|_| ServeRequest::new(DEPLOYMENT, frames.clone()))
        .collect();
    let server_batch = time_median(BATCH_REPS, || {
        let request = requests.pop().expect("one request per rep");
        server
            .submit(request)
            .and_then(|ticket| ticket.wait())
            .expect("in-process batch")
    });
    m.put("serve.server.batch_ms", server_batch * 1e3, "ms");
    let mut session = server
        .open_session(DEPLOYMENT, GAIN)
        .map_err(|e| e.to_string())?;
    let mut next = 0;
    let server_step = time_median(STEP_REPS, || {
        next += 1;
        session
            .step(&frames[next % BATCH_FRAMES])
            .expect("in-process step")
    });
    m.put("serve.server.step_us", server_step * 1e6, "us");
    drop(session);

    // net::protocol — both directions of both request kinds, on this
    // workload's own data. Reply encoding replays the door's work
    // (`WireMap::from` + `Response::encode`); decoding replays the
    // client's (`FrameBuffer` + `decode`).
    let step_request = Request::StepSession {
        session: 1,
        readings: frames[0].clone(),
    };
    let step_reply_map = tracker.step(&frames[0]).map_err(|e| e.to_string())?;
    let encode_step_reply = || {
        Response::Step {
            map: WireMap::from(&step_reply_map),
            degraded: false,
        }
        .encode(1)
        .expect("step reply fits a frame")
    };
    codec(
        m,
        "step",
        1e6,
        "us",
        STEP_REPS,
        &step_request,
        encode_step_reply,
    );
    let batch_request = inputs.batches[0].clone();
    let encode_batch_reply = || {
        Response::Batch {
            version: rig.version,
            maps: maps.iter().map(WireMap::from).collect(),
            degraded: false,
        }
        .encode(1)
        .expect("batch reply fits a frame")
    };
    m.put(
        "net.protocol.batch_reply_bytes",
        encode_batch_reply().len() as f64,
        "bytes",
    );
    codec(
        m,
        "batch",
        1e3,
        "ms",
        BATCH_REPS,
        &batch_request,
        encode_batch_reply,
    );
    Ok(exact)
}

/// Times request encode/decode and reply encode/decode for one request
/// kind. Request times are in `us`; reply times in `unit`.
fn codec(
    m: &mut Metrics,
    kind: &str,
    scale: f64,
    unit: &'static str,
    reps: usize,
    request: &Request,
    encode_reply: impl Fn() -> Vec<u8>,
) {
    let unframe = |bytes: &[u8]| {
        let mut buffer = FrameBuffer::new(MAX_FRAME_BYTES);
        buffer.extend(bytes);
        buffer
            .next_record()
            .expect("one whole frame")
            .expect("valid frame")
    };
    let request_bytes = request.encode(1).expect("request fits a frame");
    let reply_bytes = encode_reply();
    let request_encode = time_median(reps, || request.encode(1).expect("encode"));
    let request_decode = time_median(reps, || Request::decode(&unframe(&request_bytes)).ok());
    let reply_encode = time_median(reps, &encode_reply);
    let reply_decode = time_median(reps, || Response::decode(&unframe(&reply_bytes)).ok());
    m.put(
        &format!("net.protocol.{kind}_request_encode_us"),
        request_encode * 1e6,
        "us",
    );
    m.put(
        &format!("net.protocol.{kind}_request_decode_us"),
        request_decode * 1e6,
        "us",
    );
    m.put(
        &format!("net.protocol.{kind}_reply_encode_{unit}"),
        reply_encode * scale,
        unit,
    );
    m.put(
        &format!("net.protocol.{kind}_reply_decode_{unit}"),
        reply_decode * scale,
        unit,
    );
}
