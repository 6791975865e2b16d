//! Loopback benchmark for the EigenMaps serving stack.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload telemetry_stream --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Boots `Server` + `NetServer` on 127.0.0.1, publishes the Baseline
//! deployment with `Client::publish`, drives one workload over real TCP,
//! checks every reply bitwise against references computed from the
//! published artifact, and prints the metrics. `--trace 0` measures the
//! end-to-end metrics with the flight recorder off; `--trace 1` is the
//! traced run that supplies the per-layer metrics. The last line of
//! standard output is the JSON result. See `perfbench/README.md` for the
//! workloads and the metric → layer map.

mod fixture;
mod layers;
mod stats;
mod wire;
mod workload;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use eigenmaps::core::prelude::KernelKind;
use eigenmaps::net::{Request, Response, WireMetrics};

use crate::fixture::{Inputs, Rig, SetupTimes};
use crate::layers::{ProbeCount, Stages};
use crate::stats::{median, quantile, Metrics};
use crate::workload::{latencies, run_pass, Cursor, Pass, PassResult, Workload, STEP_INTERVAL};

/// Full set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Unmeasured traffic before each measured window.
const WARMUP: Duration = Duration::from_secs(1);
/// Ring sampling cadence in the traced pass. The 4 096-event ring holds
/// roughly 0.4 s of `telemetry_stream` traffic, so 200 ms loses nothing.
const TRACE_SAMPLE_EVERY: Duration = Duration::from_millis(200);

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s| *s > 0)
                    .ok_or(format!("bad --seconds {value:?}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    match parse_args().and_then(|args| run(&args)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The commit under test when run from a git checkout, else `unknown`.
fn commit() -> String {
    if !std::path::Path::new(".git").exists() {
        return "unknown".into();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map_or("unknown".into(), |out| {
            String::from_utf8_lossy(&out.stdout).trim().to_string()
        })
}

fn run(args: &Args) -> Result<(), String> {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let shards = threads;
    println!(
        "# host: hw_threads={threads} kernel={} shards={shards} commit={} workload={} seed={} seconds={} trace={}",
        KernelKind::detect(),
        commit(),
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
    );

    // Set up several times and keep the last system for the run; every
    // set-up must design the identical artifact.
    let spec = args.workload.rig_spec();
    let mut times: Vec<SetupTimes> = Vec::new();
    let mut rig: Option<Rig> = None;
    let mut same_artifact = true;
    for i in 0..SETUPS {
        let artifact = rig.take().map(|r| r.artifact.clone());
        let next = Rig::boot(spec, shards, &i.to_string())?;
        same_artifact &= artifact.is_none_or(|a| a == next.artifact);
        times.push(next.times);
        rig = Some(next);
    }
    let mut rig = rig.expect("at least one set-up");
    for t in &times {
        println!(
            "# set-up: total={:.3} s (dataset build {:.3} s, design {:.3} s, publish {:.2} ms)",
            t.total.as_secs_f64(),
            t.dataset_build.as_secs_f64(),
            t.design.as_secs_f64(),
            t.publish.as_secs_f64() * 1e3
        );
    }

    let window = Duration::from_secs(args.seconds);
    let passes = if args.trace {
        vec![
            Pass {
                warmup: WARMUP,
                window: window / 2,
                sample_every: None,
            },
            Pass {
                warmup: WARMUP / 4,
                window,
                sample_every: Some(TRACE_SAMPLE_EVERY),
            },
        ]
    } else {
        vec![Pass {
            warmup: WARMUP,
            window,
            sample_every: None,
        }]
    };
    let steps = passes.iter().map(Pass::steps).sum();
    let inputs = Inputs::generate(&rig, args.seed, steps)?;
    let mut cursor = Cursor::default();
    let setup_s = median(
        &times
            .iter()
            .map(|t| t.total.as_secs_f64())
            .collect::<Vec<_>>(),
    );

    if !args.trace {
        let result = run_pass(
            &mut rig,
            &inputs,
            args.workload,
            args.seed,
            &mut cursor,
            passes[0],
        );
        drop(rig);
        report_pass("run", &result);
        let mut m = Metrics::default();
        m.put("setup_s", setup_s, "s");
        m.put("latency_p50_ms", result.latency_ms(0.5), "ms");
        m.put("on_time_ratio", result.on_time_ratio(), "ratio");
        m.put("maps_per_s", result.maps_per_s(), "1/s");
        m.put("delivered_ratio", 1.0 - result.failed_ratio(), "ratio");
        println!("# end-to-end metrics");
        m.print_table();
        let t = &result.tally;
        println!(
            "{}",
            m.result_line(same_artifact && t.wrong == 0, t.attempted, t.failed())
        );
        return Ok(());
    }

    // The traced run: an untraced pass for the overhead reference, then
    // the same traffic with the recorder on and the ring sampled.
    let plain = run_pass(
        &mut rig,
        &inputs,
        args.workload,
        args.seed,
        &mut cursor,
        passes[0],
    );
    report_pass("untraced", &plain);
    let before = wire_metrics(&mut rig)?;
    let traced_start = Instant::now();
    rig.server().recorder().set_enabled(true);
    let traced = run_pass(
        &mut rig,
        &inputs,
        args.workload,
        args.seed,
        &mut cursor,
        passes[1],
    );
    rig.server().recorder().set_enabled(false);
    let after = wire_metrics(&mut rig)?;
    let traced_s = traced_start.elapsed().as_secs_f64();
    report_pass("traced", &traced);

    let mut m = Metrics::default();
    let median_of = |f: fn(&SetupTimes) -> Duration| {
        median(&times.iter().map(|t| f(t).as_secs_f64()).collect::<Vec<_>>())
    };
    m.put(
        "floorplan.dataset_build_s",
        median_of(|t| t.dataset_build),
        "s",
    );
    m.put("core.pipeline.design_s", median_of(|t| t.design), "s");
    m.put(
        "serve.registry.publish_ms",
        median_of(|t| t.publish) * 1e3,
        "ms",
    );

    let exact = layers::in_process(&rig, &inputs, &mut m)?;
    let mut probe = ProbeCount::default();
    layers::socket_probe(&mut rig, &inputs, &mut m, &mut probe)?;

    let (step_stages, batch_stages) = layers::stage_medians(&traced.tally.traces);
    let primary = if args.workload.streams() {
        step_stages
    } else {
        batch_stages
    };
    m.put("serve.trace.queue_wait_us", primary.queue_wait_us, "us");
    m.put("serve.trace.execute_us", primary.execute_us, "us");
    m.put("serve.trace.respond_us", primary.respond_us, "us");
    let overhead = if args.workload.streams() {
        traced.latency_ms(0.5) / plain.latency_ms(0.5)
    } else {
        plain.maps_per_s() / traced.maps_per_s()
    };
    m.put("serve.trace.overhead_ratio", overhead, "ratio");

    m.put(
        "serve.store.checkpoints_per_s",
        (after.wire.checkpoints - before.wire.checkpoints) as f64 / traced_s,
        "1/s",
    );
    m.put(
        "serve.store.snapshots_per_s",
        (after.wire.checkpoint_sessions - before.wire.checkpoint_sessions) as f64 / traced_s,
        "1/s",
    );
    let flushed = after.batches - before.batches;
    m.put(
        "serve.mean_batch_frames",
        (after.frames - before.frames) as f64 / flushed.max(1) as f64,
        "count",
    );
    // The wire `Metrics` reply does not carry queue depths; read the
    // in-process snapshot of the same hub.
    let max_queue_depth = rig
        .server()
        .metrics()
        .tenants
        .values()
        .map(|t| t.max_queue_depth)
        .max()
        .unwrap_or(0);
    m.put("serve.max_queue_depth", max_queue_depth as f64, "count");
    let w = &after.wire;
    m.put(
        "net.wire.errors",
        (w.errors_oversized
            + w.errors_corrupt
            + w.errors_malformed
            + w.errors_unknown_kind
            + w.errors_rejected) as f64,
        "count",
    );

    let step_residual = m.get("loadgen.idle_step_us")
        - (m.get("serve.server.step_us")
            + m.get("net.protocol.step_request_encode_us")
            + m.get("net.protocol.step_request_decode_us")
            + m.get("net.protocol.step_reply_encode_us")
            + m.get("net.protocol.step_reply_decode_us"));
    m.put("net.door.step_residual_us", step_residual, "us");
    let batch_residual = m.get("loadgen.idle_batch_ms")
        - (m.get("serve.server.batch_ms")
            + (m.get("net.protocol.batch_request_encode_us")
                + m.get("net.protocol.batch_request_decode_us"))
                / 1e3
            + m.get("net.protocol.batch_reply_encode_ms")
            + m.get("net.protocol.batch_reply_decode_ms"));
    m.put("net.door.batch_residual_ms", batch_residual, "ms");
    m.put(
        "loadgen.send_lag_p99_ms",
        quantile(&traced.tally.lag_ms, 0.99),
        "ms",
    );
    // The tail of the untraced pass. It is not an end-to-end metric: on a
    // small shared VM it moves with the other tenants' load (see README).
    m.put("loadgen.latency_p99_ms", plain.latency_ms(0.99), "ms");
    let attempted = plain.tally.attempted + traced.tally.attempted + probe.attempted;
    let failed = plain.tally.failed() + traced.tally.failed() + probe.failed;
    m.put(
        "failed_ratio",
        failed as f64 / attempted.max(1) as f64,
        "ratio",
    );

    print_attribution(&m, &traced, step_stages, batch_stages);
    println!("# per-layer metrics");
    m.print_table();
    let wrong = plain.tally.wrong + traced.tally.wrong + probe.wrong;
    drop(rig);
    println!(
        "{}",
        m.result_line(same_artifact && exact && wrong == 0, attempted, failed)
    );
    Ok(())
}

fn wire_metrics(rig: &mut Rig) -> Result<WireMetrics, String> {
    match rig.conns[0].call(&Request::Metrics)? {
        Response::Metrics(metrics) => Ok(*metrics),
        other => Err(format!("metrics: unexpected {other:?}")),
    }
}

fn report_pass(label: &str, result: &PassResult) {
    let t = &result.tally;
    let sample = |name: &str, v: &[f64]| {
        if !v.is_empty() {
            println!(
                "#   {name}: n={} p50={:.3} ms p99={:.3} ms max={:.3} ms",
                v.len(),
                median(v),
                quantile(v, 0.99),
                quantile(v, 1.0)
            );
        }
    };
    println!(
        "# {label}: attempted={} verified={} wrong={} maps/s={:.1} on_time={:.4}",
        t.attempted,
        t.verified(),
        t.wrong,
        result.maps_per_s(),
        result.on_time_ratio()
    );
    sample("step latency", &latencies(&t.steps));
    sample("batch latency", &latencies(&t.batches));
    let groups: Vec<String> = result
        .group_latency_ms(0.99)
        .iter()
        .map(|ms| format!("{ms:.2}"))
        .collect();
    println!("#   p99 by group of requests, ms: {}", groups.join(" "));
    println!(
        "#   group medians: p50={:.3} p90={:.3} p99={:.3} ms",
        result.latency_ms(0.5),
        result.latency_ms(0.9),
        result.latency_ms(0.99)
    );
    if !t.lag_ms.is_empty() {
        let lag = quantile(&t.lag_ms, 0.99);
        println!("#   send lag p99={lag:.3} ms");
        if lag > STEP_INTERVAL.as_secs_f64() * 1e3 {
            println!("#   WARNING: the open-loop sender ran late; this run is invalid, not slow");
        }
    }
    for e in &t.errors {
        println!("#   error: {e}");
    }
}

/// For one step and one batch, each layer's median next to the
/// client-observed median of the idle socket probe. The door residual is
/// the remainder, so the rows add up to the client figure by
/// construction.
fn print_attribution(m: &Metrics, traced: &PassResult, steps: Stages, batches: Stages) {
    println!("# attribution (idle server, one request at a time, medians)");
    println!("#   step: 16 readings -> one 840-cell map, us");
    for (label, name) in [
        (
            "client  request encode",
            "net.protocol.step_request_encode_us",
        ),
        (
            "door    request decode",
            "net.protocol.step_request_decode_us",
        ),
        (
            "server  submit -> reply, in process",
            "serve.server.step_us",
        ),
        ("door    reply encode", "net.protocol.step_reply_encode_us"),
        ("client  reply decode", "net.protocol.step_reply_decode_us"),
        (
            "door    residual: socket, poll nap, wake-ups",
            "net.door.step_residual_us",
        ),
        ("= client-observed", "loadgen.idle_step_us"),
        ("  (inside server: tracking step)", "core.tracking.step_us"),
    ] {
        println!("#     {label:<46} {:>10.1}", m.get(name));
    }
    println!("#   batch: 256 frames -> 256 maps, ms");
    for (label, name, scale) in [
        (
            "client  request encode",
            "net.protocol.batch_request_encode_us",
            1e-3,
        ),
        (
            "door    request decode",
            "net.protocol.batch_request_decode_us",
            1e-3,
        ),
        (
            "server  submit -> wait, in process",
            "serve.server.batch_ms",
            1.0,
        ),
        (
            "door    reply encode",
            "net.protocol.batch_reply_encode_ms",
            1.0,
        ),
        (
            "client  reply decode",
            "net.protocol.batch_reply_decode_ms",
            1.0,
        ),
        (
            "door    residual: socket, poll nap, wake-ups",
            "net.door.batch_residual_ms",
            1.0,
        ),
        ("= client-observed", "loadgen.idle_batch_ms", 1.0),
        (
            "  (inside server: sharded execute)",
            "serve.shard.execute_ms",
            1.0,
        ),
        (
            "  (  single-thread reconstruct_batch)",
            "core.reconstruct.batch_ms",
            1.0,
        ),
    ] {
        println!("#     {label:<46} {:>10.3}", m.get(name) * scale);
    }
    println!("#   traced pass, ring stage medians (us) and client medians (ms):");
    for (class, s, client) in [
        ("step", steps, latencies(&traced.tally.steps)),
        ("batch", batches, latencies(&traced.tally.batches)),
    ] {
        if s.traces > 0 || !client.is_empty() {
            println!(
                "#     {class:<5} traces={:<6} queue_wait={:.1} execute={:.1} respond={:.1} | client p50={:.3} n={}",
                s.traces,
                s.queue_wait_us,
                s.execute_us,
                s.respond_us,
                median(&client),
                client.len()
            );
        }
    }
}
