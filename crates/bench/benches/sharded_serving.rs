//! Sharded serving benchmark: `ShardedExecutor` at 1/2/4/8 shards vs the
//! single-threaded `Deployment::reconstruct_batch` on a 1024-frame
//! workload, along a scalar-vs-SIMD kernel axis — every configuration
//! runs once with the scalar synthesis oracle and once with the
//! runtime-dispatched SIMD backend, showing how thread sharding and
//! per-shard SIMD compose.
//!
//! A second, interleaved-tenant axis drives the full `Server` front end
//! with two tenants' strictly alternating small requests — the traffic
//! shape that degraded the old FIFO coalescer to one-request batches —
//! and asserts from the per-tenant metrics gauges (no log scraping) that
//! the per-tenant scheduler recovers a mean coalesced batch size of at
//! least 2× the FIFO baseline simulated on the same trace.
//!
//! An overload-QoS axis floods a bulk `Degrade` tenant at ~10× a premium
//! `Shed` tenant's rate and asserts (on ≥ 4-thread hosts) that the
//! premium tier keeps a ≥ 99% deadline-hit rate with a client-observed
//! p99 within 2× of its uncontended baseline — the deadline tier's
//! guarantee, measured rather than claimed.
//!
//! Every configuration first proves the per-backend bitwise-identity
//! contract (the sharded output must equal that backend's sequential
//! batch bit for bit), then measures throughput. A plain wall-clock
//! summary with speedups is printed alongside the harness numbers; on a
//! machine with ≥ 4 hardware threads the 4-shard dispatched
//! configuration is asserted to reach ≥ 2× its single-threaded batch
//! throughput (on smaller machines the assertion is skipped and the
//! speedups are only reported — thread parallelism cannot beat the
//! sequential path without cores to run on).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use eigenmaps_core::prelude::*;
use eigenmaps_floorplan::prelude::*;
use eigenmaps_serve::{
    BatchPolicy, BrownoutPolicy, DeploymentRegistry, MemIo, OverrunAction, ServeRequest, Server,
    ShardedExecutor, SnapshotStore, Ticket,
};

const FRAMES: usize = 1024;
const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

struct Workload {
    deployment: Arc<Deployment>,
    frames: Arc<Vec<Vec<f64>>>,
}

fn setup(k: usize, m: usize) -> Workload {
    let dataset = DatasetBuilder::ultrasparc_t1()
        .grid(28, 30)
        .snapshots(300)
        .settle_steps(20)
        .seed(42)
        .build()
        .expect("dataset generation");
    let ensemble = dataset.ensemble();
    let deployment = Pipeline::new(ensemble)
        .basis(BasisSpec::Eigen { k })
        .sensors(m)
        .design()
        .expect("design");
    let mut noise = NoiseModel::new(0x5E41);
    let frames: Vec<Vec<f64>> = (0..FRAMES)
        .map(|t| {
            let map = ensemble.map(t % ensemble.len());
            noise.apply_sigma(&deployment.sensors().sample(&map), 0.2)
        })
        .collect();
    Workload {
        deployment: Arc::new(deployment),
        frames: Arc::new(frames),
    }
}

fn wall_clock(rounds: u32, mut f: impl FnMut()) -> f64 {
    let t0 = Instant::now();
    for _ in 0..rounds {
        f();
    }
    t0.elapsed().as_secs_f64() / rounds as f64
}

fn bench_sharded_serving(c: &mut Criterion) {
    let mut group = c.benchmark_group("sharded_serving_1024_frames");
    group.sample_size(20);

    let w = setup(16, 16);
    let dispatched_kind = w.deployment.kernel_kind();
    // The kernel axis: the scalar oracle vs whatever dispatch selected
    // (on hosts where dispatch itself lands on scalar-equivalent lanes,
    // the axis still shows the blocked-lanes-vs-scalar gap).
    let backends: Vec<(&str, Arc<Deployment>)> = vec![
        (
            "scalar",
            Arc::new(
                (*w.deployment)
                    .clone()
                    .with_kernel(KernelKind::Scalar)
                    .expect("scalar is always available"),
            ),
        ),
        ("dispatched", Arc::clone(&w.deployment)),
    ];

    let rounds = 5u32;
    let parallelism = std::thread::available_parallelism().map_or(1, |p| p.get());
    let mut speedup_at_4_dispatched = None;
    for (kernel_label, deployment) in &backends {
        let sequential = deployment
            .reconstruct_batch(&w.frames)
            .expect("sequential batch");

        group.bench_function(format!("single_thread_batch/{kernel_label}"), |bch| {
            bch.iter(|| black_box(deployment.reconstruct_batch(&w.frames).unwrap()))
        });
        let single_time = wall_clock(rounds, || {
            black_box(deployment.reconstruct_batch(&w.frames).unwrap());
        });

        for shards in SHARD_COUNTS {
            let executor = ShardedExecutor::new(shards);

            // Per-backend bitwise-identity gate: sharding must never
            // change an answer produced by the same kernel.
            let sharded = executor
                .execute(deployment, &w.frames)
                .expect("sharded batch");
            assert_eq!(sharded.len(), sequential.len());
            for (i, (a, b)) in sequential.iter().zip(sharded.iter()).enumerate() {
                assert_eq!(
                    a.as_slice(),
                    b.as_slice(),
                    "{kernel_label}: shard output diverged from sequential batch at frame {i} \
                     ({shards} shards)"
                );
            }

            group.bench_with_input(
                BenchmarkId::new(
                    format!("sharded/{kernel_label}"),
                    format!("{shards}_shards"),
                ),
                &executor,
                |bch, ex| bch.iter(|| black_box(ex.execute(deployment, &w.frames).unwrap())),
            );

            let shard_time = wall_clock(rounds, || {
                black_box(executor.execute(deployment, &w.frames).unwrap());
            });
            let speedup = single_time / shard_time.max(1e-12);
            if shards == 4 && *kernel_label == "dispatched" {
                speedup_at_4_dispatched = Some(speedup);
            }
            println!(
                "sharded_serving_1024_frames/summary[{kernel_label}]: {shards} shards \
                 {:.2} ms vs single-thread {:.2} ms → {speedup:.2}x",
                shard_time * 1e3,
                single_time * 1e3
            );
        }
    }
    println!(
        "sharded_serving_1024_frames/summary: dispatched kernel = {dispatched_kind} \
         ({parallelism} hardware thread(s))"
    );

    let speedup_at_4 = speedup_at_4_dispatched.expect("4-shard dispatched configuration ran");
    if parallelism >= 4 {
        assert!(
            speedup_at_4 >= 2.0,
            "4 shards reached only {speedup_at_4:.2}x over the single-threaded batch path \
             on {parallelism} hardware threads (>= 2x required)"
        );
    } else {
        println!(
            "sharded_serving_1024_frames/summary: only {parallelism} hardware thread(s) — \
             skipping the >= 2x @ 4 shards assertion"
        );
    }
    group.finish();
}

/// The pre-PR FIFO coalescing discipline replayed on a burst trace of
/// tenant indices: one global pending run, flushed on every artifact
/// switch or when the request budget fills (the latency budget never
/// fires inside a burst). Returns the batch count.
fn fifo_baseline_batches(trace: &[usize], max_batch_requests: usize) -> usize {
    let mut batches = 0usize;
    let mut head: Option<usize> = None;
    let mut run_len = 0usize;
    for &tenant in trace {
        if head.is_some() && head != Some(tenant) {
            batches += 1;
            run_len = 0;
        }
        head = Some(tenant);
        run_len += 1;
        if run_len >= max_batch_requests {
            batches += 1;
            head = None;
            run_len = 0;
        }
    }
    if run_len > 0 {
        batches += 1;
    }
    batches
}

fn bench_interleaved_tenants(c: &mut Criterion) {
    let mut group = c.benchmark_group("interleaved_two_tenant_microbatching");
    group.sample_size(10);

    // Two tenants with distinct artifacts, strictly alternating
    // two-frame requests — maximal interleave.
    const REQUESTS: usize = 512;
    const FRAMES_PER_REQUEST: usize = 2;
    let tenants = [setup(12, 12), setup(10, 10)];
    let names = ["tenant-a", "tenant-b"];
    let registry = Arc::new(DeploymentRegistry::new());
    for (name, w) in names.iter().zip(&tenants) {
        registry.publish(name, (*w.deployment).clone());
    }
    let policy = BatchPolicy {
        max_batch_frames: 256,
        max_batch_requests: 32,
        max_delay: Duration::from_millis(5),
        ..BatchPolicy::default()
    };
    let trace: Vec<usize> = (0..REQUESTS).map(|i| i % 2).collect();
    let run_trace = |server: &Server| {
        let tickets: Vec<Ticket> = trace
            .iter()
            .enumerate()
            .map(|(i, &tenant)| {
                let frames = &tenants[tenant].frames;
                let start = (i / 2 * FRAMES_PER_REQUEST) % (frames.len() - FRAMES_PER_REQUEST);
                server
                    .submit(ServeRequest::new(
                        names[tenant],
                        frames[start..start + FRAMES_PER_REQUEST].to_vec(),
                    ))
                    .expect("submit")
            })
            .collect();
        for ticket in tickets {
            black_box(ticket.wait().expect("serve"));
        }
    };

    let server = Server::with_policy(Arc::clone(&registry), 4, policy);
    run_trace(&server);

    // Batch-size recovery gate, read from the per-tenant metrics gauges.
    let snapshot = server.metrics();
    let (batches, batch_requests) = snapshot.tenants.values().fold((0u64, 0u64), |acc, t| {
        (acc.0 + t.batches, acc.1 + t.batch_requests)
    });
    assert_eq!(batch_requests as usize, REQUESTS, "every request flushed");
    let mean_batch = batch_requests as f64 / batches.max(1) as f64;
    let fifo_batches = fifo_baseline_batches(&trace, policy.max_batch_requests);
    let fifo_mean = REQUESTS as f64 / fifo_batches as f64;
    println!(
        "interleaved_two_tenant_microbatching/summary: {mean_batch:.2} requests/batch \
         with per-tenant queues vs {fifo_mean:.2} FIFO baseline \
         ({batches} batches vs {fifo_batches})"
    );
    for (name, tenant) in &snapshot.tenants {
        println!(
            "interleaved_two_tenant_microbatching/summary[{name}]: \
             mean batch {:.2} requests / {:.2} frames, max queue depth {}",
            tenant.mean_batch_requests(),
            tenant.mean_batch_frames(),
            tenant.max_queue_depth
        );
    }
    assert!(
        mean_batch >= 2.0 * fifo_mean,
        "per-tenant queues coalesced only {mean_batch:.2} requests/batch \
         vs the {fifo_mean:.2} FIFO baseline (>= 2x required)"
    );

    // Flight-recorder overhead gate: the same trace against an identical
    // server with tracing switched off. Paired best-of-N wall clocks keep
    // scheduler noise out of the comparison; the recorder must cost no
    // more than 5% of interleaved throughput.
    let untraced = Server::with_policy(Arc::clone(&registry), 4, policy);
    untraced.recorder().set_enabled(false);
    run_trace(&untraced); // warm-up to parity with the traced server
    let rounds = 7;
    let mut best_traced = f64::INFINITY;
    let mut best_untraced = f64::INFINITY;
    for _ in 0..rounds {
        best_traced = best_traced.min(wall_clock(1, || run_trace(&server)));
        best_untraced = best_untraced.min(wall_clock(1, || run_trace(&untraced)));
    }
    let overhead = best_traced / best_untraced.max(1e-12) - 1.0;
    println!(
        "interleaved_two_tenant_microbatching/summary[tracing]: \
         traced {:.2} ms vs untraced {:.2} ms per 512-request trace \
         ({:+.1}% overhead, best of {rounds})",
        best_traced * 1e3,
        best_untraced * 1e3,
        overhead * 100.0
    );
    let parallelism = std::thread::available_parallelism().map_or(1, |p| p.get());
    if parallelism >= 4 {
        assert!(
            best_traced <= best_untraced * 1.05,
            "flight recorder costs {:.1}% of interleaved throughput (> 5% budget)",
            overhead * 100.0
        );
    } else if best_traced > best_untraced * 1.05 {
        println!(
            "interleaved_two_tenant_microbatching/summary[tracing]: only {parallelism} \
             hardware thread(s) — {:.1}% overhead reported, not asserted",
            overhead * 100.0
        );
    }

    group.bench_function("per_tenant_queues/alternating_512x2", |bch| {
        bch.iter(|| run_trace(&server))
    });
    group.bench_function("per_tenant_queues/alternating_512x2_untraced", |bch| {
        bch.iter(|| run_trace(&untraced))
    });
    group.finish();
}

/// Mixed-workload axis: the same two-tenant alternating batch trace run
/// once alone and once with two streaming sessions continuously stepping
/// through the same scheduler and batcher. Batch p99 comes from the
/// batch-request histogram (session steps record into their own), so the
/// regression streams inflict on batch traffic is read directly off the
/// metrics — asserted < 20%, i.e. the fairness rotation keeps streams
/// from degrading batch latency by even one 1-2-5 histogram bucket.
fn bench_mixed_workload(c: &mut Criterion) {
    let mut group = c.benchmark_group("mixed_batch_and_stream_workload");
    group.sample_size(10);

    const REQUESTS: usize = 256;
    const FRAMES_PER_REQUEST: usize = 2;
    const STREAM_STEPS: usize = 200;
    let tenants = [setup(12, 12), setup(10, 10)];
    let names = ["tenant-a", "tenant-b"];
    let registry = Arc::new(DeploymentRegistry::new());
    for (name, w) in names.iter().zip(&tenants) {
        registry.publish(name, (*w.deployment).clone());
    }
    let policy = BatchPolicy {
        max_batch_frames: 256,
        max_batch_requests: 32,
        max_delay: Duration::from_millis(5),
        ..BatchPolicy::default()
    };
    let run_batch_trace = |server: &Server| {
        let tickets: Vec<Ticket> = (0..REQUESTS)
            .map(|i| {
                let tenant = i % 2;
                let frames = &tenants[tenant].frames;
                let start = (i / 2 * FRAMES_PER_REQUEST) % (frames.len() - FRAMES_PER_REQUEST);
                server
                    .submit(ServeRequest::new(
                        names[tenant],
                        frames[start..start + FRAMES_PER_REQUEST].to_vec(),
                    ))
                    .expect("submit")
            })
            .collect();
        for ticket in tickets {
            black_box(ticket.wait().expect("serve"));
        }
    };

    // Baseline: batch traffic alone (fresh server = fresh histograms).
    let batch_only = Server::with_policy(Arc::clone(&registry), 4, policy);
    run_batch_trace(&batch_only);
    let baseline = batch_only.metrics();
    assert_eq!(baseline.session_steps, 0);

    // Mixed: the same trace with two streams stepping continuously. The
    // barrier makes both sessions provably open at once (so the
    // max_sessions_open gate below is race-free) before either steps.
    let mixed_server = Arc::new(Server::with_policy(Arc::clone(&registry), 4, policy));
    let both_open = Arc::new(std::sync::Barrier::new(2));
    let streams: Vec<_> = (0..2)
        .map(|s| {
            let server = Arc::clone(&mixed_server);
            let frames = Arc::clone(&tenants[s].frames);
            let name = names[s];
            let both_open = Arc::clone(&both_open);
            std::thread::spawn(move || {
                let mut session = server.open_session(name, 0.5).expect("open session");
                both_open.wait();
                for t in 0..STREAM_STEPS {
                    black_box(session.step(&frames[t % frames.len()]).expect("step"));
                }
                session.frames()
            })
        })
        .collect();
    run_batch_trace(&mixed_server);
    let stream_frames: u64 = streams.into_iter().map(|s| s.join().expect("stream")).sum();
    let mixed = mixed_server.metrics();

    assert_eq!(stream_frames as usize, 2 * STREAM_STEPS);
    assert_eq!(mixed.session_steps as usize, 2 * STREAM_STEPS);
    assert_eq!(mixed.max_sessions_open, 2);
    assert!(mixed.session_latency_p99 > Duration::ZERO);
    println!(
        "mixed_batch_and_stream_workload/summary: batch p99 {:?} alone vs {:?} mixed; \
         {} session steps at p50 {:?} / p99 {:?}",
        baseline.latency_p99,
        mixed.latency_p99,
        mixed.session_steps,
        mixed.session_latency_p50,
        mixed.session_latency_p99
    );
    for (name, tenant) in &mixed.tenants {
        println!(
            "mixed_batch_and_stream_workload/summary[{name}]: \
             mean batch {:.2} requests, {} session steps",
            tenant.mean_batch_requests(),
            tenant.session_steps
        );
    }
    // The histogram's 1-2-5 buckets make < 20% mean "same bucket", which
    // an oversubscribed host can miss from scheduler noise alone — so,
    // like the ≥ 2x @ 4 shards gate above, the hard assertion runs only
    // where there are cores to absorb the two stream threads; elsewhere
    // the regression is reported but not enforced.
    let baseline_p99 = baseline.latency_p99.as_secs_f64();
    let mixed_p99 = mixed.latency_p99.as_secs_f64();
    let parallelism = std::thread::available_parallelism().map_or(1, |p| p.get());
    if parallelism >= 4 {
        assert!(
            mixed_p99 <= baseline_p99 * 1.2,
            "streams regressed batch p99 by more than 20%: {:?} -> {:?}",
            baseline.latency_p99,
            mixed.latency_p99
        );
    } else if mixed_p99 > baseline_p99 * 1.2 {
        println!(
            "mixed_batch_and_stream_workload/summary: only {parallelism} hardware thread(s) — \
             p99 regression {:?} -> {:?} reported, not asserted",
            baseline.latency_p99, mixed.latency_p99
        );
    }

    group.bench_function("batch_trace_with_2_streams", |bch| {
        bch.iter(|| run_batch_trace(&mixed_server))
    });
    group.finish();
}

/// Checkpoint-overhead axis: the mixed batch + stream trace run once on a
/// server with no durability store and once on an identical server whose
/// background checkpointer fires every 2 ms — aggressive enough that many
/// whole-fleet checkpoints land *during* the trace. Batch p99 comes from
/// the same histogram as the mixed-workload gate; on a host with ≥ 4
/// hardware threads the checkpointed run must stay within 10% of the
/// baseline (the fire-and-forget job lane means snapshot serialization
/// never blocks a batch), elsewhere the regression is only reported.
fn bench_checkpoint_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("checkpoint_overhead");
    group.sample_size(10);

    const REQUESTS: usize = 256;
    const FRAMES_PER_REQUEST: usize = 2;
    const STREAM_STEPS: usize = 200;
    let tenants = [setup(12, 12), setup(10, 10)];
    let names = ["tenant-a", "tenant-b"];
    let registry = Arc::new(DeploymentRegistry::new());
    for (name, w) in names.iter().zip(&tenants) {
        registry.publish(name, (*w.deployment).clone());
    }
    let policy = BatchPolicy {
        max_batch_frames: 256,
        max_batch_requests: 32,
        max_delay: Duration::from_millis(5),
        ..BatchPolicy::default()
    };
    let run_batch_trace = |server: &Server| {
        let tickets: Vec<Ticket> = (0..REQUESTS)
            .map(|i| {
                let tenant = i % 2;
                let frames = &tenants[tenant].frames;
                let start = (i / 2 * FRAMES_PER_REQUEST) % (frames.len() - FRAMES_PER_REQUEST);
                server
                    .submit(ServeRequest::new(
                        names[tenant],
                        frames[start..start + FRAMES_PER_REQUEST].to_vec(),
                    ))
                    .expect("submit")
            })
            .collect();
        for ticket in tickets {
            black_box(ticket.wait().expect("serve"));
        }
    };
    // Batch trace plus two continuously stepping streams — the streams
    // are what give every checkpoint real session state to serialize.
    let run_mixed = |server: &Arc<Server>| {
        let streams: Vec<_> = (0..2)
            .map(|s| {
                let server = Arc::clone(server);
                let frames = Arc::clone(&tenants[s].frames);
                let name = names[s];
                std::thread::spawn(move || {
                    let mut session = server.open_session(name, 0.5).expect("open session");
                    for t in 0..STREAM_STEPS {
                        black_box(session.step(&frames[t % frames.len()]).expect("step"));
                    }
                })
            })
            .collect();
        run_batch_trace(server);
        for stream in streams {
            stream.join().expect("stream");
        }
    };

    let baseline_server = Arc::new(Server::with_policy(Arc::clone(&registry), 4, policy));
    run_mixed(&baseline_server);
    let baseline = baseline_server.metrics();
    assert_eq!(baseline.wire.checkpoints, 0);

    let checkpointed = Arc::new(Server::with_policy(Arc::clone(&registry), 4, policy));
    checkpointed
        .hydrate_with(
            SnapshotStore::with_io(MemIo::new(), 2),
            Duration::from_millis(2),
        )
        .expect("attach in-memory store");
    run_mixed(&checkpointed);
    let durable = checkpointed.metrics();

    // The axis is meaningless if no checkpoint actually overlapped the
    // trace, and a checkpoint that saw no session proves nothing either.
    assert!(
        durable.wire.checkpoints > 0,
        "no background checkpoint fired during the trace"
    );
    assert!(
        durable.wire.checkpoint_sessions > 0,
        "checkpoints never captured a live session"
    );

    let baseline_p99 = baseline.latency_p99.as_secs_f64();
    let durable_p99 = durable.latency_p99.as_secs_f64();
    println!(
        "checkpoint_overhead/summary: batch p99 {:?} without a store vs {:?} with \
         {} checkpoints ({} session snapshots) at a 2 ms cadence",
        baseline.latency_p99,
        durable.latency_p99,
        durable.wire.checkpoints,
        durable.wire.checkpoint_sessions
    );
    let parallelism = std::thread::available_parallelism().map_or(1, |p| p.get());
    if parallelism >= 4 {
        assert!(
            durable_p99 <= baseline_p99 * 1.1,
            "background checkpointing regressed batch p99 by more than 10%: {:?} -> {:?}",
            baseline.latency_p99,
            durable.latency_p99
        );
    } else if durable_p99 > baseline_p99 * 1.1 {
        println!(
            "checkpoint_overhead/summary: only {parallelism} hardware thread(s) — \
             p99 regression {:?} -> {:?} reported, not asserted",
            baseline.latency_p99, durable.latency_p99
        );
    }

    group.bench_function("mixed_trace_with_2ms_checkpoints", |bch| {
        bch.iter(|| run_mixed(&checkpointed))
    });
    group.bench_function("mixed_trace_without_store", |bch| {
        bch.iter(|| run_mixed(&baseline_server))
    });
    group.finish();
}

/// Overload-QoS axis: a premium `Shed` tenant (20 ms deadline) served
/// while two flooder threads keep a bulk `Degrade` tenant saturated at
/// roughly 10× the premium request rate, with brownout armed. The axis
/// measures what the deadline tier actually buys: on a host with ≥ 4
/// hardware threads the premium tenant must keep a ≥ 99% deadline-hit
/// rate and a client-observed p99 within 2× of its own uncontended
/// baseline; elsewhere the figures are reported, not asserted. Every
/// premium refusal must be the typed retryable shed — any other error
/// fails the harness.
fn bench_overload_qos(c: &mut Criterion) {
    let mut group = c.benchmark_group("overload_qos");
    group.sample_size(10);

    const PREMIUM_REQUESTS: usize = 128;
    const FRAMES_PER_REQUEST: usize = 2;
    const FLOODERS: usize = 2;
    const FLOOD_WINDOW: usize = 64;
    let tenants = [setup(12, 12), setup(10, 10)];
    let names = ["premium", "bulk"];
    let registry = Arc::new(DeploymentRegistry::new());
    for (name, w) in names.iter().zip(&tenants) {
        registry.publish(name, (*w.deployment).clone());
    }
    let policy = BatchPolicy {
        max_batch_frames: 256,
        max_batch_requests: 32,
        max_delay: Duration::from_millis(1),
        ..BatchPolicy::default()
    };
    let premium_deadline = Duration::from_millis(20);
    let make_server = || {
        let server = Server::with_policy(Arc::clone(&registry), 4, policy);
        server
            .set_tenant_policy(
                names[0],
                Some(BatchPolicy {
                    deadline: Some(premium_deadline),
                    overrun: OverrunAction::Shed,
                    ..policy
                }),
            )
            .expect("premium policy");
        server
            .set_tenant_policy(
                names[1],
                Some(BatchPolicy {
                    deadline: Some(Duration::from_millis(5)),
                    overrun: OverrunAction::Degrade { keep_k: 4 },
                    ..policy
                }),
            )
            .expect("bulk policy");
        server
            .set_brownout(Some(BrownoutPolicy {
                enter_above: 64,
                exit_below: 8,
            }))
            .expect("brownout band");
        server
    };

    // One premium trace: pipelined submits, client-observed latency per
    // completed request, typed sheds counted (anything else panics).
    let premium_frames = Arc::clone(&tenants[0].frames);
    let run_premium = |server: &Server| -> (Vec<Duration>, usize) {
        let tickets: Vec<(Instant, Ticket)> = (0..PREMIUM_REQUESTS)
            .map(|i| {
                let start = (i * FRAMES_PER_REQUEST) % (premium_frames.len() - FRAMES_PER_REQUEST);
                let ticket = server
                    .submit(ServeRequest::new(
                        names[0],
                        premium_frames[start..start + FRAMES_PER_REQUEST].to_vec(),
                    ))
                    .expect("premium submit");
                (Instant::now(), ticket)
            })
            .collect();
        let mut latencies = Vec::with_capacity(PREMIUM_REQUESTS);
        let mut shed = 0usize;
        for (t0, ticket) in tickets {
            match ticket.wait() {
                Ok(maps) => {
                    black_box(maps);
                    latencies.push(t0.elapsed());
                }
                Err(e) => {
                    assert!(
                        e.is_retryable(),
                        "premium refusal must be the typed shed: {e}"
                    );
                    shed += 1;
                }
            }
        }
        (latencies, shed)
    };
    fn p99(latencies: &mut [Duration]) -> Duration {
        latencies.sort_unstable();
        latencies[(latencies.len() * 99 / 100).min(latencies.len() - 1)]
    }

    // Uncontended baseline: the premium trace alone on a fresh server.
    let baseline_server = make_server();
    run_premium(&baseline_server); // warm-up
    let (mut baseline_lat, baseline_shed) = run_premium(&baseline_server);
    assert!(
        !baseline_lat.is_empty(),
        "uncontended premium trace served nothing"
    );
    let baseline_p99 = p99(&mut baseline_lat);

    // Overload: flooder threads keep the bulk tenant saturated (a
    // bounded in-flight window per flooder sustains pressure without
    // unbounded memory) while the premium trace runs through the same
    // batcher.
    let overload = Arc::new(make_server());
    let stop = Arc::new(AtomicBool::new(false));
    let flooders: Vec<_> = (0..FLOODERS)
        .map(|f| {
            let server = Arc::clone(&overload);
            let frames = Arc::clone(&tenants[1].frames);
            let stop = Arc::clone(&stop);
            let name = names[1];
            std::thread::spawn(move || {
                let mut submitted = 0usize;
                let mut inflight: VecDeque<Ticket> = VecDeque::new();
                let mut i = f;
                while !stop.load(Ordering::Relaxed) {
                    let start = (i * FRAMES_PER_REQUEST) % (frames.len() - FRAMES_PER_REQUEST);
                    match server.try_submit(ServeRequest::new(
                        name,
                        frames[start..start + FRAMES_PER_REQUEST].to_vec(),
                    )) {
                        Ok(ticket) => {
                            inflight.push_back(ticket);
                            submitted += 1;
                        }
                        Err(_) => std::thread::yield_now(), // saturated: keep pressure
                    }
                    if inflight.len() >= FLOOD_WINDOW {
                        inflight
                            .pop_front()
                            .expect("window nonempty")
                            .wait()
                            .expect("bulk serve");
                    }
                    i += 1;
                }
                for ticket in inflight {
                    ticket.wait().expect("bulk serve");
                }
                submitted
            })
        })
        .collect();

    run_premium(&overload); // warm-up under fire
    let (mut overload_lat, overload_shed) = run_premium(&overload);
    let overload_p99 = if overload_lat.is_empty() {
        Duration::MAX
    } else {
        p99(&mut overload_lat)
    };
    let hit_rate = overload_lat.len() as f64 / PREMIUM_REQUESTS as f64;

    group.bench_function("premium_trace_under_bulk_flood", |bch| {
        bch.iter(|| black_box(run_premium(&overload)))
    });

    stop.store(true, Ordering::Relaxed);
    let bulk_submitted: usize = flooders
        .into_iter()
        .map(|f| f.join().expect("flooder"))
        .sum();

    let snap = overload.metrics();
    let bulk_tenant = &snap.tenants[names[1]];
    println!(
        "overload_qos/summary: premium p99 {:?} uncontended ({baseline_shed} shed) vs {:?} \
         under flood ({overload_shed} shed, {:.1}% deadline hit); bulk pushed {bulk_submitted} \
         requests, {} served degraded, {} brownout entries",
        baseline_p99,
        overload_p99,
        hit_rate * 100.0,
        bulk_tenant.degraded_requests,
        snap.brownout_entries
    );
    let parallelism = std::thread::available_parallelism().map_or(1, |p| p.get());
    if parallelism >= 4 {
        assert!(
            hit_rate >= 0.99,
            "premium deadline-hit rate {:.1}% under bulk flood (>= 99% required)",
            hit_rate * 100.0
        );
        assert!(
            overload_p99 <= baseline_p99 * 2,
            "bulk flood regressed premium p99 beyond 2x: {baseline_p99:?} -> {overload_p99:?}"
        );
    } else {
        println!(
            "overload_qos/summary: only {parallelism} hardware thread(s) — \
             QoS gates reported, not asserted"
        );
    }
    group.finish();
}

criterion_group!(
    sharded_serving,
    bench_sharded_serving,
    bench_interleaved_tenants,
    bench_mixed_workload,
    bench_checkpoint_overhead,
    bench_overload_qos
);
criterion_main!(sharded_serving);
