//! Deterministic tests for the extracted micro-batching [`Scheduler`]:
//! every scheduling property is exercised with a mock clock (`Duration`
//! arithmetic) and zero threads, zero sleeps — the exact same state
//! machine the live `Server` batcher drives, minus the wall clock.
//!
//! Covered here: fairness rotation (no tenant starved across 10k
//! interleaved submits of skewed traffic), latency-budget expiry at the
//! exact deadline, batch-size recovery over the pre-PR FIFO coalescing
//! baseline on the same two-tenant interleaved trace, version pinning
//! across a mid-queue hot swap, the stream-lane grant rule (every queued
//! step granted in the tick that sees it, FIFO per stream across ticks,
//! streams and batch tenants alternating round-robin, `drain` granting
//! every queued step in order), and the QoS tiers: exact-instant deadline shedding for `Shed` tenants
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
    // and every step must be granted in the same tick it was submitted.
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

/// Grant order of `decisions` as `(lane, job)` pairs; a batch or shed
/// shows its first job.
fn grants<T: Copy>(decisions: &[Decision<T>]) -> Vec<(String, T)> {
    lanes(decisions)
        .into_iter()
        .zip(decisions.iter().map(|d| match d {
            Decision::Batch(b) => b.jobs[0],
            Decision::Step(s) => s.job,
            Decision::Shed(s) => s.jobs[0],
        }))
        .collect()
}

/// `(lane, job)` pairs from string-literal lane labels.
fn expect<T: Copy>(pairs: &[(&str, T)]) -> Vec<(String, T)> {
    pairs
        .iter()
        .map(|&(lane, job)| (lane.to_string(), job))
        .collect()
}

#[test]
fn every_queued_step_of_a_stream_is_granted_in_the_same_tick() {
    // Nothing gates a lane: the driver executes a tick's decisions in
    // order, so a stream's second queued step is granted right behind
    // its first — the tick that sees a step is the tick that grants it.
    let mut sched: Scheduler<u32> = Scheduler::new(policy(1 << 20, 64, Duration::from_millis(1)));
    let stream = StreamId(4);
    sched.submit_stream(stream, 0);
    sched.submit_stream(stream, 1);
    assert_eq!(sched.stream_depth(stream), 2);
    assert_eq!(sched.next_deadline(), None, "a queued step is no deadline");
    assert_eq!(
        grants(&sched.tick(us(0))),
        expect(&[("stream#4", 0), ("stream#4", 1)])
    );
    assert_eq!(sched.stream_depth(stream), 0);
    assert!(sched.is_idle(), "an emptied lane leaves the rotation");
    // A later step is granted by the next tick, whatever the clock says.
    sched.submit_stream(stream, 2);
    assert_eq!(grants(&sched.tick(us(1))), expect(&[("stream#4", 2)]));
    assert!(sched.tick(us(1_000_000)).is_empty());
    assert_eq!(sched.pending_steps(), 0);
}

#[test]
fn steps_stay_fifo_per_stream_across_ticks() {
    let mut sched: Scheduler<u32> = Scheduler::new(policy(1 << 20, 64, Duration::from_millis(1)));
    let (a, b) = (StreamId(1), StreamId(2));
    sched.submit_stream(a, 10);
    sched.submit_stream(a, 11);
    sched.submit_stream(b, 20);
    // Tick 1: the lanes alternate; b empties after one grant, so a's
    // second step follows directly.
    assert_eq!(
        grants(&sched.tick(us(0))),
        expect(&[("stream#1", 10), ("stream#2", 20), ("stream#1", 11)])
    );
    assert!(sched.is_idle());
    // Tick 2: b re-enters the rotation first this time. Each stream's
    // steps continue where its last tick left off.
    sched.submit_stream(b, 21);
    sched.submit_stream(a, 12);
    sched.submit_stream(b, 22);
    assert_eq!(
        grants(&sched.tick(us(10))),
        expect(&[("stream#2", 21), ("stream#1", 12), ("stream#2", 22)])
    );
    assert!(sched.is_idle());
}

#[test]
fn backlogged_streams_and_ready_batches_share_the_rotation_fairly() {
    // A deep batch backlog (request budget 1) next to two streams with a
    // queued backlog each: one tick alternates all three lanes
    // round-robin, so no lane's next grant comes before every other
    // ready lane got one.
    let mut sched: Scheduler<u32> = Scheduler::new(policy(1 << 20, 1, Duration::from_secs(1)));
    let bulk = TenantKey::new("bulk", 1);
    for i in 0..3 {
        sched.submit(us(0), bulk.clone(), 1, i);
    }
    for i in 0..3 {
        sched.submit_stream(StreamId(1), 100 + i);
        sched.submit_stream(StreamId(2), 200 + i);
    }
    assert_eq!(
        grants(&sched.tick(us(0))),
        expect(&[
            ("bulk", 0),
            ("stream#1", 100),
            ("stream#2", 200),
            ("bulk", 1),
            ("stream#1", 101),
            ("stream#2", 201),
            ("bulk", 2),
            ("stream#1", 102),
            ("stream#2", 202),
        ])
    );
    assert!(sched.is_idle());
    // Lanes return to the rotation in arrival order: a step submitted
    // before new bulk work is granted first, then the two alternate.
    sched.submit_stream(StreamId(2), 203);
    sched.submit_stream(StreamId(2), 204);
    sched.submit(us(10), bulk.clone(), 1, 3);
    sched.submit(us(10), bulk.clone(), 1, 4);
    assert_eq!(
        grants(&sched.tick(us(10))),
        expect(&[
            ("stream#2", 203),
            ("bulk", 3),
            ("stream#2", 204),
            ("bulk", 4),
        ])
    );
    assert!(sched.is_idle());
}

#[test]
fn drain_grants_every_queued_step_in_order() {
    let mut sched: Scheduler<u32> = Scheduler::new(policy(1 << 20, 64, Duration::from_millis(1)));
    for i in 0..3 {
        sched.submit_stream(StreamId(1), i);
    }
    sched.submit_stream(StreamId(2), 3);
    sched.submit_stream(StreamId(2), 4);
    sched.submit(us(0), TenantKey::new("t", 1), 1, 9);
    // Shutdown: every lane drains round-robin, each stream's steps in
    // FIFO order — nothing queued is dropped.
    assert_eq!(
        grants(&sched.drain()),
        expect(&[
            ("stream#1", 0),
            ("stream#2", 3),
            ("t", 9),
            ("stream#1", 1),
            ("stream#2", 4),
            ("stream#1", 2),
        ])
    );
    assert!(sched.is_idle());
    assert_eq!(sched.pending_steps(), 0);
}
