//! Deterministic tests for the extracted micro-batching [`Scheduler`]:
//! every scheduling property is exercised with a mock clock (`Duration`
//! arithmetic) and zero threads, zero sleeps — the exact same state
//! machine the live `Server` batcher drives, minus the wall clock.
//!
//! Covered here: fairness rotation (no tenant starved across 10k
//! interleaved submits of skewed traffic), latency-budget expiry at the
//! exact deadline, batch-size recovery over the pre-PR FIFO coalescing
//! baseline on the same two-tenant interleaved trace, version pinning
//! across a mid-queue hot swap, the one-step-per-stream gate (no second
//! grant while a step is in flight, FIFO order after `step_done`,
//! stream/batch round-robin fairness, `drain` skipping in-flight lanes),
//! and the QoS tiers: exact-instant deadline shedding for `Shed` tenants
//! next to brownout-degraded serving for `Degrade` tenants, on the same
//! clock.

use std::time::Duration;

use eigenmaps_serve::{
    BatchPolicy, BrownoutPolicy, Decision, FlushReason, OverrunAction, Scheduler, StreamId,
    TenantKey,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn us(micros: u64) -> Duration {
    Duration::from_micros(micros)
}

fn policy(frames: usize, requests: usize, delay: Duration) -> BatchPolicy {
    BatchPolicy {
        max_batch_frames: frames,
        max_batch_requests: requests,
        max_delay: delay,
        ..BatchPolicy::default()
    }
}

#[test]
fn latency_budget_expiry_flushes_sub_size_batch_exactly_at_deadline() {
    let mut sched: Scheduler<u32> = Scheduler::new(policy(256, 64, Duration::from_millis(1)));
    let key = TenantKey::new("lone", 1);
    sched.submit(us(40), key.clone(), 2, 7);
    assert_eq!(sched.next_deadline(), Some(us(1040)));

    // One nanosecond before the deadline: nothing flushes.
    assert!(sched.tick(us(1040) - Duration::from_nanos(1)).is_empty());
    assert_eq!(sched.pending_requests(), 1);

    // Exactly at the deadline: the sub-size batch flushes.
    let decisions = sched.tick(us(1040));
    assert_eq!(decisions.len(), 1);
    let flush = decisions[0].as_batch().unwrap();
    assert_eq!(flush.tenant, key);
    assert_eq!(flush.reason, FlushReason::DeadlineExpired);
    assert_eq!(flush.frames, 2);
    assert_eq!(flush.jobs, vec![7]);
    assert!(sched.is_idle());
    assert_eq!(sched.next_deadline(), None);
}

#[test]
fn fairness_no_tenant_starved_across_10k_interleaved_submits() {
    // Heavily skewed three-tenant traffic (60/30/10), one submit every
    // 10 µs, driven by the seeded shim RNG — fully deterministic.
    const SUBMITS: usize = 10_000;
    const STEP_US: u64 = 10;
    let delay = Duration::from_millis(1);
    let mut sched: Scheduler<(usize, u32)> = Scheduler::new(policy(1 << 20, 8, delay));
    let keys = [
        TenantKey::new("hog", 1),
        TenantKey::new("mid", 1),
        TenantKey::new("meek", 1),
    ];
    let mut rng = StdRng::seed_from_u64(0xFA1);
    let mut submitted = [0u32; 3];
    let mut enqueue_time = vec![Vec::new(); 3];
    let mut decisions = Vec::new();
    for i in 0..SUBMITS {
        let now = us(i as u64 * STEP_US);
        let tenant = match rng.gen_range(0usize..10) {
            0..=5 => 0,
            6..=8 => 1,
            _ => 2,
        };
        let seq = submitted[tenant];
        submitted[tenant] += 1;
        enqueue_time[tenant].push(now);
        sched.submit(now, keys[tenant].clone(), 1, (tenant, seq));
        for d in sched.tick(now) {
            decisions.push((now, d.into_batch().unwrap()));
        }
    }
    // Keep ticking the same 10 µs grid (no further traffic) until every
    // queue has hit its own deadline.
    let mut now = us(SUBMITS as u64 * STEP_US);
    while !sched.is_idle() {
        for d in sched.tick(now) {
            decisions.push((now, d.into_batch().unwrap()));
        }
        now += us(STEP_US);
    }

    // Every submit was flushed, per tenant, in FIFO order.
    let mut flushed = [0u32; 3];
    for (flush_time, d) in &decisions {
        let tenant = keys.iter().position(|k| k == &d.tenant).unwrap();
        for &(t, seq) in &d.jobs {
            assert_eq!(t, tenant, "decision mixed tenants");
            assert_eq!(seq, flushed[tenant], "tenant {tenant} flushed out of order");
            flushed[tenant] += 1;
            // No starvation: every request — including the 10%-traffic
            // tenant's — waited at most its own latency budget. The grid
            // ticks land exactly on every deadline, so the bound is tight.
            let waited = *flush_time - enqueue_time[tenant][seq as usize];
            assert!(
                waited <= delay,
                "tenant {tenant} seq {seq} waited {waited:?} > {delay:?}"
            );
        }
    }
    assert_eq!(flushed, submitted);
    assert_eq!(
        decisions.iter().map(|(_, d)| d.jobs.len()).sum::<usize>(),
        SUBMITS
    );
    // The skewed tenant really did dominate traffic (sanity of the setup).
    assert!(submitted[0] > 4 * submitted[2]);
}

#[test]
fn stale_enqueue_stamp_flushes_on_the_next_tick() {
    // The serving driver stamps jobs with the client's submit time, which
    // can lag the tick clock when the batcher was busy: a job whose
    // latency budget already expired in the channel flushes immediately.
    let mut sched: Scheduler<u32> = Scheduler::new(policy(256, 64, Duration::from_millis(1)));
    sched.submit(us(0), TenantKey::new("late", 1), 1, 0);
    let decisions = sched.tick(us(5_000)); // read 5 ms late
    assert_eq!(decisions.len(), 1);
    assert_eq!(
        decisions[0].as_batch().unwrap().reason,
        FlushReason::DeadlineExpired
    );
    assert!(sched.is_idle());
}

#[test]
fn rotation_round_robins_ready_tenants_within_one_tick() {
    // Alpha has two request-budget batches pending, beta and gamma one
    // each: the rotation must serve beta and gamma between alpha's two.
    let mut sched: Scheduler<u8> = Scheduler::new(policy(1 << 20, 4, Duration::from_millis(1)));
    let (a, b, g) = (
        TenantKey::new("alpha", 1),
        TenantKey::new("beta", 1),
        TenantKey::new("gamma", 1),
    );
    for i in 0..4 {
        sched.submit(Duration::ZERO, a.clone(), 1, i);
    }
    for i in 0..4 {
        sched.submit(Duration::ZERO, b.clone(), 1, i);
        sched.submit(Duration::ZERO, g.clone(), 1, i);
    }
    for i in 4..8 {
        sched.submit(Duration::ZERO, a.clone(), 1, i);
    }
    let order: Vec<String> = sched
        .tick(Duration::ZERO)
        .iter()
        .map(|d| d.as_batch().unwrap().tenant.name.clone())
        .collect();
    assert_eq!(order, vec!["alpha", "beta", "gamma", "alpha"]);
    assert!(sched.is_idle());
}

/// The pre-PR FIFO coalescing discipline, replayed as a pure function:
/// one global pending queue, flushed whenever the next request pins a
/// different artifact than the head, the head's latency budget expires
/// before an arrival, or a size budget fills. Returns the number of
/// batches the trace produced.
fn fifo_baseline_batches(trace: &[(TenantKey, Duration, usize)], policy: &BatchPolicy) -> usize {
    let mut batches = 0usize;
    let mut pending: Vec<(&TenantKey, Duration, usize)> = Vec::new();
    let mut pending_frames = 0usize;
    let mut flush = |pending: &mut Vec<(&TenantKey, Duration, usize)>, frames: &mut usize| {
        if !pending.is_empty() {
            batches += 1;
            pending.clear();
            *frames = 0;
        }
    };
    for (tenant, at, frames) in trace {
        if let Some(&(head, head_at, _)) = pending.first() {
            let expired = head_at
                .checked_add(policy.max_delay)
                .is_some_and(|deadline| deadline <= *at);
            if expired || head != tenant {
                flush(&mut pending, &mut pending_frames);
            }
        }
        pending.push((tenant, *at, *frames));
        pending_frames += frames;
        if pending_frames >= policy.max_batch_frames || pending.len() >= policy.max_batch_requests {
            flush(&mut pending, &mut pending_frames);
        }
    }
    flush(&mut pending, &mut pending_frames);
    batches
}

#[test]
fn batch_size_recovers_at_least_2x_over_fifo_on_interleaved_trace() {
    // Two tenants, strictly alternating single-frame requests every
    // 50 µs — the traffic shape that degraded the FIFO batcher to
    // one-request batches.
    const SUBMITS: usize = 2_000;
    const STEP_US: u64 = 50;
    let policy = policy(1 << 20, 16, Duration::from_millis(2));
    let keys = [TenantKey::new("even", 1), TenantKey::new("odd", 1)];
    let trace: Vec<(TenantKey, Duration, usize)> = (0..SUBMITS)
        .map(|i| (keys[i % 2].clone(), us(i as u64 * STEP_US), 1))
        .collect();

    let mut sched: Scheduler<usize> = Scheduler::new(policy);
    let mut batches = 0usize;
    let mut jobs_flushed = 0usize;
    for (i, (tenant, at, frames)) in trace.iter().enumerate() {
        sched.submit(*at, tenant.clone(), *frames, i);
        for d in sched.tick(*at) {
            batches += 1;
            jobs_flushed += d.as_batch().unwrap().jobs.len();
        }
    }
    let mut now = us(SUBMITS as u64 * STEP_US);
    while !sched.is_idle() {
        for d in sched.tick(now) {
            batches += 1;
            jobs_flushed += d.as_batch().unwrap().jobs.len();
        }
        now += us(STEP_US);
    }
    assert_eq!(jobs_flushed, SUBMITS);

    let fifo_batches = fifo_baseline_batches(&trace, &policy);
    let scheduled_mean = SUBMITS as f64 / batches as f64;
    let fifo_mean = SUBMITS as f64 / fifo_batches as f64;
    // Strict alternation forces the FIFO discipline to flush on every
    // arrival; per-tenant queues recover the full request budget.
    assert!(
        (fifo_mean - 1.0).abs() < 1e-12,
        "FIFO baseline unexpectedly coalesced: mean {fifo_mean}"
    );
    assert!(
        scheduled_mean >= 2.0 * fifo_mean,
        "per-tenant queues reached only {scheduled_mean:.2} requests/batch \
         vs FIFO {fifo_mean:.2} (>= 2x required)"
    );
}

#[test]
fn hot_swap_mid_queue_keeps_version_pinned_queues_separate() {
    // Requests pinned to v1 sit queued when the tenant hot-swaps to v2:
    // the two versions are distinct queues that flush separately, each in
    // its own FIFO order, v1 (older) first.
    let mut sched: Scheduler<(u32, u8)> =
        Scheduler::new(policy(1 << 20, 64, Duration::from_millis(1)));
    let v1 = TenantKey::new("chip", 1);
    let v2 = TenantKey::new("chip", 2);
    for i in 0..3 {
        sched.submit(us(i as u64 * 10), v1.clone(), 2, (1, i));
    }
    // Hot swap: later submits pin version 2.
    for i in 0..3 {
        sched.submit(us(30 + i as u64 * 10), v2.clone(), 2, (2, i));
    }
    assert_eq!(sched.pending_tenants(), 2);
    assert_eq!(sched.tenant_depth(&v1), 3);
    assert_eq!(sched.tenant_depth(&v2), 3);

    // v1's deadline (oldest at t=0) expires first.
    let first = sched.tick(us(1000));
    assert_eq!(first.len(), 1);
    let flush = first[0].as_batch().unwrap();
    assert_eq!(flush.tenant, v1);
    assert_eq!(flush.jobs, vec![(1, 0), (1, 1), (1, 2)]);
    assert_eq!(sched.tenant_depth(&v1), 0);
    assert_eq!(sched.tenant_depth(&v2), 3);

    // v2 flushes at its own deadline, never mixed with v1.
    let second = sched.tick(us(1030));
    assert_eq!(second.len(), 1);
    let flush = second[0].as_batch().unwrap();
    assert_eq!(flush.tenant, v2);
    assert_eq!(flush.jobs, vec![(2, 0), (2, 1), (2, 2)]);
    assert!(sched.is_idle());
}

#[test]
fn stream_backlog_never_delays_batch_deadlines() {
    // A session submits one step per 10 µs grid point — a continuous
    // stream backlog — while a lone batch request waits on its 1 ms
    // latency budget. The batch must still flush exactly at its deadline,
    // and every step must be granted in the same tick it was submitted
    // (the driver reports each one done before the next arrives).
    const STEP_US: u64 = 10;
    let delay = Duration::from_millis(1);
    let mut sched: Scheduler<(char, u32)> = Scheduler::new(policy(1 << 20, 1 << 10, delay));
    let tenant = TenantKey::new("batch", 1);
    let stream = StreamId(1);
    sched.submit(Duration::ZERO, tenant.clone(), 3, ('b', 0));

    let mut batch_flush_time = None;
    let mut steps_granted = 0u32;
    for i in 0..200u32 {
        let now = us(u64::from(i) * STEP_US);
        sched.submit_stream(stream, ('s', i));
        for d in sched.tick(now) {
            match d {
                Decision::Batch(b) => {
                    assert_eq!(b.tenant, tenant);
                    assert_eq!(b.reason, FlushReason::DeadlineExpired);
                    batch_flush_time = Some(now);
                }
                Decision::Step(s) => {
                    assert_eq!(s.job, ('s', steps_granted), "steps in order");
                    steps_granted += 1;
                    sched.step_done(s.stream);
                }
                Decision::Shed(s) => panic!("no deadline policy set, yet shed {s:?}"),
            }
        }
        assert_eq!(
            sched.pending_steps(),
            0,
            "every tick grants the submitted step"
        );
    }
    // The batch flushed exactly on its own deadline (the 1 ms grid point),
    // not an interval later: the stream backlog cost it nothing.
    assert_eq!(batch_flush_time, Some(delay));
    assert_eq!(steps_granted, 200);
    assert!(sched.is_idle());
}

#[test]
fn batch_backlog_never_starves_stream_steps() {
    // A tenant with an always-ready backlog (request budget 1, deep
    // queue) and a stream submitting one step per tick: each tick must
    // grant the step — the rotation guarantees the stream its turn even
    // though the batch tenant could consume every slot.
    let mut sched: Scheduler<(char, u32)> =
        Scheduler::new(policy(1 << 20, 1, Duration::from_secs(1)));
    let tenant = TenantKey::new("hog", 1);
    for i in 0..64u32 {
        sched.submit(Duration::ZERO, tenant.clone(), 1, ('b', i));
    }
    let stream = StreamId(7);
    for i in 0..8u32 {
        let now = us(u64::from(i) * 10);
        sched.submit_stream(stream, ('s', i));
        let decisions = sched.tick(now);
        let step_positions: Vec<usize> = decisions
            .iter()
            .enumerate()
            .filter_map(|(pos, d)| d.as_step().map(|_| pos))
            .collect();
        assert_eq!(
            step_positions.len(),
            1,
            "tick {i}: the step was granted exactly once"
        );
        // The step is granted within one rotation of the ready batch
        // lane — second in the 2-lane rotation, never pushed behind the
        // hog's whole backlog.
        assert!(
            step_positions[0] <= 1,
            "tick {i}: step granted at position {} behind the backlog",
            step_positions[0]
        );
        sched.step_done(stream);
    }
}

#[test]
fn weighted_tenant_gets_proportional_grants_without_starvation() {
    // Two-tenant contention under a mock clock: "heavy" carries weight 3,
    // "light" weight 1 (the default). Both start deeply backlogged; while
    // both remain backlogged, the grant sequence must give heavy ~3x the
    // bandwidth — and light must still be granted on every rotation pass
    // (no starvation: never more than `weight` consecutive heavy grants).
    let base = policy(1 << 20, 1, Duration::from_millis(1));
    let mut sched: Scheduler<u32> = Scheduler::new(base);
    sched.set_tenant_policy("heavy", Some(BatchPolicy { weight: 3, ..base }));

    let heavy = TenantKey::new("heavy", 1);
    let light = TenantKey::new("light", 1);
    for i in 0..600u32 {
        sched.submit(Duration::ZERO, heavy.clone(), 1, i);
    }
    for i in 0..200u32 {
        sched.submit(Duration::ZERO, light.clone(), 1, i);
    }

    // One tick drains all ready work; the weight governs the interleaving.
    let grants: Vec<bool> = sched
        .tick(Duration::ZERO)
        .iter()
        .map(|d| d.as_batch().expect("batch traffic only").tenant == heavy)
        .collect();
    assert_eq!(grants.len(), 800);
    assert!(sched.is_idle());

    let mut heavy_total = 0usize;
    let mut light_total = 0usize;
    let mut heavy_run = 0usize;
    for &is_heavy in &grants {
        if is_heavy {
            heavy_total += 1;
            heavy_run += 1;
            assert!(
                heavy_run <= 3,
                "light starved: {heavy_run} consecutive heavy grants"
            );
        } else {
            light_total += 1;
            heavy_run = 0;
            // While both lanes are backlogged, every light grant closes a
            // rotation pass in which heavy took ~3 grants.
            let ratio = heavy_total as f64 / light_total as f64;
            assert!(
                (2.5..=3.5).contains(&ratio),
                "expected ~3x bandwidth at every pass boundary, got \
                 {heavy_total}:{light_total} (ratio {ratio:.2})"
            );
        }
    }
    assert_eq!((heavy_total, light_total), (600, 200));
}

#[test]
fn drain_flushes_all_tenants_without_a_clock() {
    let mut sched: Scheduler<u8> = Scheduler::new(policy(1 << 20, 64, Duration::MAX));
    sched.submit(Duration::ZERO, TenantKey::new("a", 1), 1, 0);
    sched.submit(Duration::ZERO, TenantKey::new("b", 4), 1, 1);
    let decisions = sched.drain();
    assert_eq!(decisions.len(), 2);
    assert!(decisions
        .iter()
        .all(|d| d.as_batch().unwrap().reason == FlushReason::Drain));
    assert!(sched.is_idle());
}

#[test]
fn qos_tiers_shed_and_degrade_on_one_mock_clock() {
    // Premium (Shed at a 100 µs deadline) and bulk (Degrade to keep_k=2
    // under the same deadline, request budget 4) share one scheduler
    // under a brownout band: enter at 8 pending frames, exit at 2.
    // Every instant below is a mock-clock `Duration`; zero sleeps.
    let base = policy(1 << 20, 1 << 10, Duration::from_millis(1));
    let mut sched: Scheduler<u32> = Scheduler::new(base);
    sched.set_tenant_policy(
        "premium",
        Some(BatchPolicy {
            deadline: Some(us(100)),
            overrun: OverrunAction::Shed,
            ..base
        }),
    );
    sched.set_tenant_policy(
        "bulk",
        Some(BatchPolicy {
            max_batch_requests: 4,
            deadline: Some(us(100)),
            overrun: OverrunAction::Degrade { keep_k: 2 },
            ..base
        }),
    );
    sched.set_brownout(Some(BrownoutPolicy {
        enter_above: 8,
        exit_below: 2,
    }));
    let premium = TenantKey::new("premium", 1);
    let bulk = TenantKey::new("bulk", 1);

    // Light load below the watermark: nothing sheds, nothing degrades.
    sched.submit(us(0), premium.clone(), 1, 0);
    sched.submit(us(0), bulk.clone(), 1, 100);
    assert!(sched.tick(us(0)).is_empty());
    assert!(!sched.in_brownout());
    // The shed instant is a wakeup deadline in its own right — tighter
    // than either tenant's 1 ms coalescing budget.
    assert_eq!(sched.next_deadline(), Some(us(100)));

    // One nanosecond shy of the premium deadline: both jobs untouched.
    assert!(sched.tick(us(100) - Duration::from_nanos(1)).is_empty());
    assert_eq!(sched.pending_requests(), 2);

    // Exactly at the deadline instant premium sheds. Bulk never sheds:
    // its job stays queued for its own flush budget.
    let decisions = sched.tick(us(100));
    assert_eq!(decisions.len(), 1);
    let shed = decisions[0].as_shed().unwrap();
    assert_eq!(shed.tenant, premium);
    assert_eq!(shed.deadline, us(100));
    assert_eq!((shed.frames, shed.jobs.as_slice()), (1, &[100 - 100][..]));
    assert_eq!(sched.tenant_depth(&bulk), 1);

    // Bulk's coalescing budget expires at 1 ms. Its deadline blew 900 µs
    // ago, so the flush carries the degrade marker even though the
    // scheduler never entered brownout: coarse on time, not exact late.
    let decisions = sched.tick(us(1_000));
    assert_eq!(decisions.len(), 1);
    let flush = decisions[0].as_batch().unwrap();
    assert_eq!(flush.tenant, bulk);
    assert_eq!(flush.reason, FlushReason::DeadlineExpired);
    assert_eq!(flush.degraded, Some(2));
    assert!(sched.is_idle());
    assert!(!sched.in_brownout());

    // Backlog surge: 8 bulk frames reach the enter watermark. The same
    // tick enters brownout and flushes two request-budget batches, both
    // degraded although no job's deadline has blown yet.
    for i in 0..8u32 {
        sched.submit(us(2_000), bulk.clone(), 1, 200 + i);
    }
    let decisions = sched.tick(us(2_000));
    assert!(sched.in_brownout());
    assert_eq!(decisions.len(), 2);
    for d in &decisions {
        let flush = d.as_batch().unwrap();
        assert_eq!(flush.reason, FlushReason::RequestBudget);
        assert_eq!(flush.degraded, Some(2), "brownout degrades bulk");
        assert_eq!(flush.jobs.len(), 4);
    }
    assert!(sched.is_idle());

    // Brownout is judged once per tick: the drain above leaves pending
    // at 0 (<= exit_below), so the *next* tick exits the mode.
    assert!(sched.tick(us(2_001)).is_empty());
    assert!(!sched.in_brownout());
}

/// Grant order of `decisions` as lane labels: tenant names and streams.
fn lanes<T>(decisions: &[Decision<T>]) -> Vec<String> {
    decisions
        .iter()
        .map(|d| match d {
            Decision::Batch(b) => b.tenant.name.clone(),
            Decision::Step(s) => s.stream.to_string(),
            Decision::Shed(s) => format!("shed:{}", s.tenant.name),
        })
        .collect()
}

#[test]
fn no_second_step_is_granted_while_one_is_in_flight() {
    let mut sched: Scheduler<u32> = Scheduler::new(policy(1 << 20, 64, Duration::from_millis(1)));
    let stream = StreamId(4);
    sched.submit_stream(stream, 0);
    sched.submit_stream(stream, 1);
    let d = sched.tick(us(0));
    assert_eq!(d.len(), 1, "one grant per stream");
    assert_eq!(d[0].as_step().unwrap().job, 0);
    assert_eq!(sched.steps_in_flight(), 1);
    assert_eq!(sched.stream_depth(stream), 1);
    // However long the step runs and whatever else arrives, the lane
    // stays gated: later ticks grant nothing of this stream.
    sched.submit_stream(stream, 2);
    for t in [1u64, 10, 1_000, 1_000_000] {
        assert!(sched.tick(us(t)).is_empty(), "tick at {t} µs");
    }
    assert_eq!(sched.stream_depth(stream), 2);
    assert!(!sched.is_idle(), "queued steps are pending");
    assert_eq!(sched.next_deadline(), None, "a gated step is no deadline");
    // A stray step_done for an unknown stream changes nothing.
    sched.step_done(StreamId(99));
    assert!(sched.tick(us(2_000_000)).is_empty());
}

#[test]
fn steps_resume_in_fifo_order_after_step_done() {
    let mut sched: Scheduler<u32> = Scheduler::new(policy(1 << 20, 64, Duration::from_millis(1)));
    let (a, b) = (StreamId(1), StreamId(2));
    for i in 0..3 {
        sched.submit_stream(a, 10 + i);
        sched.submit_stream(b, 20 + i);
    }
    let mut granted = Vec::new();
    let mut now = 0u64;
    while !sched.is_idle() {
        let decisions = sched.tick(us(now));
        assert!(!decisions.is_empty(), "an idle stream is always ready");
        for d in decisions {
            let step = d.as_step().unwrap();
            granted.push(step.job);
            // Completion order differs from grant order: b finishes
            // before a. Per-stream order must not care.
            sched.step_done(step.stream);
        }
        now += 10;
    }
    let of = |base: u32| -> Vec<u32> {
        granted
            .iter()
            .copied()
            .filter(|j| (base..base + 10).contains(j))
            .collect()
    };
    assert_eq!(of(10), vec![10, 11, 12]);
    assert_eq!(of(20), vec![20, 21, 22]);
    assert_eq!(sched.steps_in_flight(), 0);
}

#[test]
fn gated_streams_and_ready_batches_share_the_rotation_fairly() {
    // A deep batch backlog (request budget 1) next to two streams with a
    // queued backlog each. Every tick: each idle stream is granted once,
    // in rotation order with the batch grants, and the batch tenant is
    // never shut out by the streams (nor they by it).
    let mut sched: Scheduler<u32> = Scheduler::new(policy(1 << 20, 1, Duration::from_secs(1)));
    let bulk = TenantKey::new("bulk", 1);
    for i in 0..3 {
        sched.submit(us(0), bulk.clone(), 1, i);
    }
    for i in 0..3 {
        sched.submit_stream(StreamId(1), 100 + i);
        sched.submit_stream(StreamId(2), 200 + i);
    }
    // Tick 1: bulk, both streams, then bulk again (the streams are now
    // gated, so the rotation's remaining grants go to the ready tenant).
    let first = sched.tick(us(0));
    assert_eq!(
        lanes(&first),
        vec!["bulk", "stream#1", "stream#2", "bulk", "bulk"]
    );
    assert_eq!(sched.tenant_depth(&bulk), 0);
    // Tick 2 with more bulk work and only stream#2 done: the returning
    // tenant queues behind the streams, so stream#2 goes first; stream#1
    // stays gated.
    sched.submit(us(10), bulk.clone(), 1, 3);
    sched.step_done(StreamId(2));
    assert_eq!(lanes(&sched.tick(us(10))), vec!["stream#2", "bulk"]);
    // Tick 3: both done — each stream gets exactly one more grant.
    sched.step_done(StreamId(1));
    sched.step_done(StreamId(2));
    assert_eq!(lanes(&sched.tick(us(20))), vec!["stream#1", "stream#2"]);
    sched.step_done(StreamId(1));
    sched.step_done(StreamId(2));
    assert_eq!(lanes(&sched.tick(us(30))), vec!["stream#1"]);
    sched.step_done(StreamId(1));
    assert!(sched.is_idle());
    assert_eq!(sched.steps_in_flight(), 0);
}

#[test]
fn drain_skips_streams_with_a_step_in_flight() {
    use std::sync::Arc;

    // Payloads are Arc handles so dropped steps are observable: a drop
    // releases the strong count the test holds.
    let mut sched: Scheduler<Arc<u32>> =
        Scheduler::new(policy(1 << 20, 64, Duration::from_millis(1)));
    let busy = StreamId(1);
    let idle = StreamId(2);
    let steps: Vec<Arc<u32>> = (0..5).map(Arc::new).collect();
    sched.submit_stream(busy, Arc::clone(&steps[0]));
    sched.submit_stream(busy, Arc::clone(&steps[1]));
    sched.submit_stream(busy, Arc::clone(&steps[2]));
    let granted = sched.tick(us(0));
    assert_eq!(granted.len(), 1, "busy's first step is now in flight");
    sched.submit_stream(idle, Arc::clone(&steps[3]));
    sched.submit_stream(idle, Arc::clone(&steps[4]));
    sched.submit(us(0), TenantKey::new("t", 1), 1, Arc::new(9));

    let drained = sched.drain();
    // The idle stream's whole queue is granted, in order, for the
    // driver to run inline; the busy stream's queued steps are dropped.
    let jobs: Vec<u32> = drained
        .iter()
        .filter_map(|d| d.as_step())
        .map(|s| {
            assert_eq!(s.stream, idle, "nothing of the busy stream drains");
            *s.job
        })
        .collect();
    assert_eq!(jobs, vec![3, 4]);
    assert_eq!(drained.iter().filter(|d| d.as_batch().is_some()).count(), 1);
    assert_eq!(Arc::strong_count(&steps[1]), 1, "queued step dropped");
    assert_eq!(Arc::strong_count(&steps[2]), 1, "queued step dropped");
    assert!(sched.is_idle());
    assert_eq!(sched.pending_steps(), 0);
    // The in-flight step still reports back harmlessly.
    assert_eq!(sched.steps_in_flight(), 1);
    sched.step_done(busy);
    assert_eq!(sched.steps_in_flight(), 0);
    drop(granted);
}
