//! The three traffic mixes and the lane loop that plays them over TCP.
//!
//! A lane is one connection driven by one thread. Open-loop lanes send
//! each request at its scheduled time whether or not earlier replies have
//! landed, and time it from that scheduled time; closed-loop lanes send
//! the next request when the previous reply lands. Every reply is checked
//! bitwise against the precomputed reference digests before it counts.

use std::borrow::Cow;
use std::collections::HashMap;
use std::time::{Duration, Instant};

use eigenmaps::net::{Request, Response, WireTrace};

use crate::fixture::{digest, mix, Inputs, Rig, RigSpec, BATCH_FRAMES, SESSIONS};
use crate::stats::{median, quantile};
use crate::wire::WireConn;

/// The sampling interval of every stream session, and its latency limit.
pub const STEP_INTERVAL: Duration = Duration::from_millis(10);
/// The bulk arrival interval on `fleet_mixed` (20/s), and the latency
/// limit of a 256-frame batch: it should land before the next one is due.
pub const BATCH_INTERVAL: Duration = Duration::from_millis(50);
/// How long a lane waits for outstanding replies after its last send.
const GRACE: Duration = Duration::from_secs(5);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    TelemetryStream,
    BulkBackfill,
    FleetMixed,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "telemetry_stream" => Some(Workload::TelemetryStream),
            "bulk_backfill" => Some(Workload::BulkBackfill),
            "fleet_mixed" => Some(Workload::FleetMixed),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::TelemetryStream => "telemetry_stream",
            Workload::BulkBackfill => "bulk_backfill",
            Workload::FleetMixed => "fleet_mixed",
        }
    }

    pub fn rig_spec(self) -> RigSpec {
        match self {
            Workload::TelemetryStream => RigSpec {
                connections: 1,
                sessions: true,
                durable: false,
            },
            Workload::BulkBackfill => RigSpec {
                connections: 2,
                sessions: false,
                durable: false,
            },
            Workload::FleetMixed => RigSpec {
                connections: 2,
                sessions: true,
                durable: true,
            },
        }
    }

    pub fn streams(self) -> bool {
        self != Workload::BulkBackfill
    }
}

/// One timed stretch of a workload: `warmup` of unmeasured traffic, then
/// a `window` whose requests are measured. Trace samples, when asked for,
/// go out on lane 0 at a fixed cadence through the window.
#[derive(Debug, Clone, Copy)]
pub struct Pass {
    pub warmup: Duration,
    pub window: Duration,
    pub sample_every: Option<Duration>,
}

impl Pass {
    /// Stream steps each session takes in this pass.
    pub fn steps(&self) -> usize {
        ((self.warmup + self.window).as_nanos()).div_ceil(STEP_INTERVAL.as_nanos()) as usize
    }

    fn batches(&self) -> usize {
        ((self.warmup + self.window).as_nanos()).div_ceil(BATCH_INTERVAL.as_nanos()) as usize
    }
}

/// Where the next pass resumes in the seeded inputs: stream sessions keep
/// their state across passes, so their step index carries over.
#[derive(Debug, Default)]
pub struct Cursor {
    pub step: usize,
    pub batch: usize,
}

#[derive(Debug, Clone, Copy)]
enum Item {
    Step { session: usize, n: usize },
    Batch { b: usize },
    Trace,
}

enum Plan {
    /// Items sorted by due time.
    Open(Vec<(Instant, Item)>),
    /// Bulk requests `first, first + stride, …`, each sent when the
    /// previous reply lands, until `end`.
    Closed {
        end: Instant,
        first: usize,
        stride: usize,
    },
}

struct Lane {
    plan: Plan,
    window: (Instant, Instant),
    sample_every: Option<Duration>,
}

struct InFlight {
    item: Item,
    due: Instant,
    measured: bool,
}

/// What one pass observed, summed over its lanes. Only requests due inside
/// the window are measured; a measured request that does not come back as
/// a verified reply (error reply, refusal, wrong map, no reply) is a
/// failure.
#[derive(Debug, Default)]
pub struct Tally {
    /// `(due, latency ms)` of every verified measured step.
    pub steps: Vec<(Instant, f64)>,
    /// `(due, latency ms)` of every verified measured batch.
    pub batches: Vec<(Instant, f64)>,
    /// `(reply time, maps)` of every verified measured reply.
    pub delivered: Vec<(Instant, u64)>,
    pub on_time: u64,
    pub attempted: u64,
    /// Replies whose maps differ from the reference, warm-up included.
    pub wrong: u64,
    /// Open-loop send lateness, ms.
    pub lag_ms: Vec<f64>,
    pub traces: Vec<WireTrace>,
    pub errors: Vec<String>,
}

impl Tally {
    fn merge(&mut self, other: Tally) {
        self.steps.extend(other.steps);
        self.batches.extend(other.batches);
        self.delivered.extend(other.delivered);
        self.on_time += other.on_time;
        self.attempted += other.attempted;
        self.wrong += other.wrong;
        self.lag_ms.extend(other.lag_ms);
        self.traces.extend(other.traces);
        self.errors.extend(other.errors);
    }

    fn note(&mut self, error: String) {
        if self.errors.len() < 8 {
            self.errors.push(error);
        }
    }

    pub fn verified(&self) -> u64 {
        self.delivered.len() as u64
    }

    pub fn failed(&self) -> u64 {
        self.attempted - self.verified()
    }
}

/// The latencies of `samples`, in ms.
pub fn latencies(samples: &[(Instant, f64)]) -> Vec<f64> {
    samples.iter().map(|(_, ms)| *ms).collect()
}

/// Stream steps per group when a latency quantile is taken group by
/// group. A host stall of a few ms delays dozens of steps, more than 1%
/// of any group, so it lifts its group's p99 whatever the group size;
/// small groups keep the stalled ones a minority the median ignores.
const STEP_GROUP: usize = 400;
/// Bulk batches per group. A stall delays only the one or two batches in
/// flight, so a large group absorbs it, and its p99 rests on dozens of
/// samples rather than four.
const BATCH_GROUP: usize = 2000;

/// A finished pass.
pub struct PassResult {
    pub tally: Tally,
    window_start: Instant,
    window: Duration,
    streams: bool,
}

impl PassResult {
    /// The workload's latency-critical class: stream steps where the
    /// workload has them, else bulk batches.
    pub fn primary(&self) -> &[(Instant, f64)] {
        if self.streams {
            &self.tally.steps
        } else {
            &self.tally.batches
        }
    }

    /// The `q` latency quantile of the primary class, in ms. Requests are
    /// cut, in order of due time, into consecutive groups of at least
    /// `STEP_GROUP` steps or `BATCH_GROUP` batches; the result is the
    /// median of the groups' quantiles, so one host stall moves one group
    /// rather than the whole tail.
    pub fn latency_ms(&self, q: f64) -> f64 {
        median(&self.group_latency_ms(q))
    }

    /// The `q` latency quantile of each group, in due-time order.
    pub fn group_latency_ms(&self, q: f64) -> Vec<f64> {
        let mut samples = self.primary().to_vec();
        samples.sort_by_key(|(due, _)| *due);
        let group = if self.streams {
            STEP_GROUP
        } else {
            BATCH_GROUP
        };
        let groups = (samples.len() / group).max(1);
        (0..groups)
            .map(|g| {
                let span = g * samples.len() / groups..(g + 1) * samples.len() / groups;
                quantile(&latencies(&samples[span]), q)
            })
            .collect()
    }

    /// Verified maps per second: the window is cut into 1-second slices,
    /// each slice's rate is the maps delivered after its first verified
    /// reply over the time from that reply to its last, and the result is
    /// the median slice rate.
    pub fn maps_per_s(&self) -> f64 {
        let slices = (self.window.as_secs_f64().floor() as usize).max(1);
        let slice = self.window / slices as u32;
        let mut delivered = self.tally.delivered.clone();
        delivered.sort_by_key(|(at, _)| *at);
        let mut spans: Vec<Vec<(Instant, u64)>> = vec![Vec::new(); slices];
        for (at, maps) in delivered {
            let i = (at.saturating_duration_since(self.window_start).as_nanos() / slice.as_nanos())
                as usize;
            if let Some(span) = spans.get_mut(i) {
                span.push((at, maps));
            }
        }
        let rates: Vec<f64> = spans
            .iter()
            .filter(|span| span.len() >= 2)
            .map(|span| {
                let maps: u64 = span[1..].iter().map(|(_, m)| m).sum();
                let elapsed = span[span.len() - 1].0 - span[0].0;
                maps as f64 / elapsed.as_secs_f64()
            })
            .collect();
        median(&rates)
    }

    pub fn on_time_ratio(&self) -> f64 {
        self.tally.on_time as f64 / self.tally.attempted.max(1) as f64
    }

    pub fn failed_ratio(&self) -> f64 {
        self.tally.failed() as f64 / self.tally.attempted.max(1) as f64
    }
}

/// Plays one pass of `workload` on `rig`'s connections.
pub fn run_pass(
    rig: &mut Rig,
    inputs: &Inputs,
    workload: Workload,
    seed: u64,
    cursor: &mut Cursor,
    pass: Pass,
) -> PassResult {
    let t0 = Instant::now() + Duration::from_millis(20);
    let window = (t0 + pass.warmup, t0 + pass.warmup + pass.window);
    let steps = pass.steps();
    let mut lanes = Vec::new();
    match workload {
        Workload::TelemetryStream | Workload::FleetMixed => {
            lanes.push(stream_plan(t0, seed, cursor.step, steps));
            cursor.step += steps;
            if workload == Workload::FleetMixed {
                let phase = BATCH_INTERVAL.mul_f64((mix(seed, 7) % 1000) as f64 / 1000.0);
                // The interval is a whole number of step slots, so without
                // an offset every batch would meet the step schedule at the
                // one phase the seed picked, and the head-of-line delay the
                // steps see would depend on the seed. Each batch lands at
                // its own seeded offset within one slot instead.
                let slot = STEP_INTERVAL / SESSIONS as u32;
                let items = (0..pass.batches())
                    .map(|k| {
                        let b = cursor.batch + k;
                        let offset =
                            slot.mul_f64((mix(seed, 1000 + b as u64) % 1000) as f64 / 1000.0);
                        let due = t0 + phase + BATCH_INTERVAL * k as u32 + offset;
                        (due, Item::Batch { b })
                    })
                    .collect();
                cursor.batch += pass.batches();
                lanes.push(Plan::Open(items));
            }
        }
        Workload::BulkBackfill => {
            for c in 0..2 {
                lanes.push(Plan::Closed {
                    end: window.1,
                    first: cursor.batch + c,
                    stride: 2,
                });
            }
        }
    }
    let mut lanes: Vec<Lane> = lanes
        .into_iter()
        .enumerate()
        .map(|(i, plan)| Lane {
            plan,
            window,
            sample_every: if i == 0 { pass.sample_every } else { None },
        })
        .collect();

    let ctx = LaneCtx {
        inputs,
        sessions: &rig.sessions,
        version: rig.version,
    };
    let mut tally = Tally::default();
    let (first, rest) = rig.conns.split_at_mut(1);
    let lane0 = lanes.remove(0);
    std::thread::scope(|scope| {
        let second = lanes.pop().map(|lane| {
            let conn = &mut rest[0];
            let ctx = &ctx;
            scope.spawn(move || run_lane(conn, ctx, lane))
        });
        tally.merge(run_lane(&mut first[0], &ctx, lane0));
        if let Some(second) = second {
            tally.merge(second.join().expect("lane thread panicked"));
        }
    });
    PassResult {
        tally,
        window_start: window.0,
        window: pass.window,
        streams: workload.streams(),
    }
}

/// 16 sessions stepping every 10 ms, phases staggered evenly across the
/// interval in a seeded order.
fn stream_plan(t0: Instant, seed: u64, first_step: usize, steps: usize) -> Plan {
    let mut order: Vec<usize> = (0..SESSIONS).collect();
    order.sort_by_key(|&s| mix(seed, 200 + s as u64));
    let slot = STEP_INTERVAL / SESSIONS as u32;
    let mut items = Vec::with_capacity(SESSIONS * steps);
    for k in 0..steps {
        for (rank, &session) in order.iter().enumerate() {
            let due = t0 + slot * rank as u32 + STEP_INTERVAL * k as u32;
            let n = first_step + k;
            items.push((due, Item::Step { session, n }));
        }
    }
    items.sort_by_key(|(due, _)| *due);
    Plan::Open(items)
}

struct LaneCtx<'a> {
    inputs: &'a Inputs,
    sessions: &'a [u64],
    version: u32,
}

impl LaneCtx<'_> {
    fn request(&self, item: Item) -> Cow<'_, Request> {
        match item {
            Item::Step { session, n } => Cow::Owned(Request::StepSession {
                session: self.sessions[session],
                readings: self.inputs.streams[session][n].clone(),
            }),
            Item::Batch { b } => Cow::Borrowed(&self.inputs.batches[b % self.inputs.batches.len()]),
            Item::Trace => Cow::Owned(Request::Trace),
        }
    }

    /// `Ok(maps)` for a verified reply, `Err((wrong, why))` otherwise.
    fn verify(&self, item: Item, reply: Response) -> Result<u64, (bool, String)> {
        match (item, reply) {
            (Item::Step { session, n }, Response::Step { map, degraded }) => {
                if !degraded && digest(&map.cells) == self.inputs.stream_digests[session][n] {
                    Ok(1)
                } else {
                    Err((true, format!("session {session} step {n}: map differs")))
                }
            }
            (
                Item::Batch { b },
                Response::Batch {
                    version,
                    maps,
                    degraded,
                },
            ) => {
                let exact = version == self.version
                    && !degraded
                    && maps.len() == BATCH_FRAMES
                    && maps
                        .iter()
                        .enumerate()
                        .all(|(j, m)| digest(&m.cells) == self.inputs.batch_digest(b, j));
                if exact {
                    Ok(BATCH_FRAMES as u64)
                } else {
                    Err((true, format!("batch {b}: maps differ")))
                }
            }
            (_, Response::Error { status, message }) => {
                Err((false, format!("error reply ({status}): {message}")))
            }
            (item, other) => Err((false, format!("{item:?}: unexpected reply {other:?}"))),
        }
    }
}

fn run_lane(conn: &mut WireConn, ctx: &LaneCtx<'_>, lane: Lane) -> Tally {
    let mut t = Tally::default();
    let (win_start, win_end) = lane.window;
    let measured = |due: Instant| due >= win_start && due < win_end;
    let mut pending: HashMap<u64, InFlight> = HashMap::new();
    let mut next_item = 0;
    let mut closed_sent = 0;
    let mut next_sample = lane.sample_every.map(|_| win_start);
    let mut grace: Option<Instant> = None;
    if let Plan::Open(items) = &lane.plan {
        t.attempted = items.iter().filter(|(due, _)| measured(*due)).count() as u64;
    }

    'drive: loop {
        let now = Instant::now();
        let mut sends: Vec<(Item, Instant)> = Vec::new();
        match &lane.plan {
            Plan::Open(items) => {
                while next_item < items.len() && items[next_item].0 <= now {
                    sends.push((items[next_item].1, items[next_item].0));
                    next_item += 1;
                }
            }
            Plan::Closed { end, first, stride } => {
                // Closed loop: the lane's one bulk request is back.
                let idle = !pending
                    .values()
                    .any(|p| matches!(p.item, Item::Batch { .. }));
                if now < *end && idle {
                    sends.push((
                        Item::Batch {
                            b: first + stride * closed_sent,
                        },
                        now,
                    ));
                    closed_sent += 1;
                    if measured(now) {
                        t.attempted += 1;
                    }
                }
            }
        }
        if let (Some(at), Some(every)) = (next_sample, lane.sample_every) {
            if at <= now {
                sends.push((Item::Trace, at));
                next_sample = Some(at + every).filter(|next| *next < win_end);
            }
        }
        for (item, due) in sends {
            let request = ctx.request(item);
            let sent_at = Instant::now();
            let counted = !matches!(item, Item::Trace) && measured(due);
            if counted && matches!(lane.plan, Plan::Open(_)) {
                t.lag_ms.push(ms(sent_at - due));
            }
            match conn.send(&request) {
                Ok(id) => {
                    pending.insert(
                        id,
                        InFlight {
                            item,
                            due,
                            measured: counted,
                        },
                    );
                }
                Err(e) => {
                    t.note(format!("send: {e}"));
                    break 'drive;
                }
            }
        }

        let sending_done = next_sample.is_none()
            && match &lane.plan {
                Plan::Open(items) => next_item == items.len(),
                Plan::Closed { end, .. } => now >= *end,
            };
        if sending_done && (pending.is_empty() || now >= *grace.get_or_insert(now + GRACE)) {
            break;
        }

        // Wait for a reply, but no later than the next scheduled send.
        let mut wake = grace.unwrap_or(now + GRACE);
        if let Plan::Open(items) = &lane.plan {
            if let Some((due, _)) = items.get(next_item) {
                wake = wake.min(*due);
            }
        }
        if let Some(at) = next_sample {
            wake = wake.min(at);
        }
        match conn.recv(wake, !pending.is_empty()) {
            Ok(Some((id, reply))) => {
                let Some(flight) = pending.remove(&id) else {
                    t.note(format!("reply to unknown id {id}"));
                    continue;
                };
                let reply = match (flight.item, reply) {
                    (Item::Trace, Response::Trace(trace)) => {
                        t.traces.push(trace);
                        continue;
                    }
                    (_, reply) => reply,
                };
                let outcome = ctx.verify(flight.item, reply);
                let done = Instant::now();
                match outcome {
                    Ok(maps) if flight.measured => {
                        let latency = done - flight.due;
                        let (limit, log) = match flight.item {
                            Item::Step { .. } => (STEP_INTERVAL, &mut t.steps),
                            _ => (BATCH_INTERVAL, &mut t.batches),
                        };
                        log.push((flight.due, ms(latency)));
                        if latency <= limit {
                            t.on_time += 1;
                        }
                        t.delivered.push((done, maps));
                    }
                    Ok(_) => {}
                    Err((wrong, why)) => {
                        if wrong {
                            t.wrong += 1;
                        }
                        t.note(why);
                    }
                }
            }
            Ok(None) => {}
            Err(e) => {
                t.note(format!("recv: {e}"));
                break;
            }
        }
    }
    for flight in pending.values().filter(|f| f.measured) {
        t.note(format!("no reply to {:?}", flight.item));
    }
    t
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}
