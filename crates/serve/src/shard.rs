//! The sharded execution engine: a fixed pool of worker threads that
//! splits large reconstruction batches into contiguous frame shards.
//!
//! Workers are plain `std::thread`s fed over an mpsc channel (a shared
//! injector queue — idle workers pull the next shard, so load balances
//! itself even when shards run at different speeds). Each worker owns a
//! [`BatchScratch`] reused across every shard it ever processes, and
//! each shard arrives with a [`MapSlab`] from the executor's pool, so
//! steady-state serving allocates nothing per frame. Besides batch shards
//! the pool runs opaque fire-and-forget jobs
//! (`ShardedExecutor::spawn`) — the durability layer's background
//! checkpoints — so slow disk work never blocks the batcher. Streaming
//! session steps do not come here: at a few microseconds each, the
//! batcher runs them to completion itself.
//!
//! Inside each shard, the worker runs the deployment's batch driver
//! ([`Reconstructor::reconstruct_slab`]): one QR sweep per frame block,
//! then the dispatched SIMD synthesis kernel ([`eigenmaps_core::kernel`])
//! over the deployment's packed basis panels
//! ([`eigenmaps_core::PackedBasis`] — built once at design/load time and
//! shared by every worker's `Reconstructor` clone through an `Arc`),
//! writing each map in place as its `EMWIRE2` map record in the shard's
//! slab. The levels of parallelism compose — threads across frame
//! shards, SIMD lanes across each panel's rows — and a forced backend
//! ([`Deployment::set_kernel`]) set before publishing is what every
//! worker executes.
//!
//! [`Reconstructor::reconstruct_slab`]: eigenmaps_core::Reconstructor::reconstruct_slab
//!
//! Shard boundaries come from [`eigenmaps_core::shard_spans`]. A batch's
//! result is a [`MapBatch`]: the shards' slabs in span order behind an
//! `Arc`, plus a frame range. Nothing is stitched; the server splits a
//! coalesced batch per request by range, and the TCP door writes a reply
//! straight from the slabs. Because the batch path is bitwise-identical
//! to per-frame reconstruction *under the deployment's kernel backend*
//! (the kernel's position-independence contract), the slabs read in span
//! order reproduce the single-threaded [`Deployment::reconstruct_batch`]
//! output **bitwise** — parallelism is free of numerical drift by
//! construction, for every backend, and the integration tests assert it.
//! A slab goes back to the pool (at most two per worker) when the last
//! `MapBatch` over it drops.

use std::fmt;
use std::ops::Range;
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use eigenmaps_core::{
    shard_spans, BatchScratch, CoreError, Deployment, MapRef, MapSlab, ThermalMap,
};

use crate::error::{Result, ServeError};
use crate::metrics::ServeMetrics;

/// Slabs the pool parks per worker: one being filled for the next batch
/// while one is still being written to a socket.
const SLABS_PER_SHARD: usize = 2;

/// What a worker sends back for its shard: the slot, the slab it filled
/// (returned on error too, so the pool gets it back) and the outcome.
type ShardReply = (usize, MapSlab, std::result::Result<(), CoreError>);

/// One shard of one batch, dispatched to whichever worker is idle.
struct ShardTask {
    deployment: Arc<Deployment>,
    frames: Arc<Vec<Vec<f64>>>,
    span: Range<usize>,
    slot: usize,
    slab: MapSlab,
    reply: Sender<ShardReply>,
}

/// What the injector queue carries: a batch shard, or an opaque job (a
/// background checkpoint) that receives the executing worker's index.
enum Task {
    Shard(ShardTask),
    Job(Box<dyn FnOnce(usize) + Send>),
}

/// Shard slabs parked for reuse, at most `SLABS_PER_SHARD × shards`.
#[derive(Debug)]
struct SlabPool {
    free: Mutex<Vec<MapSlab>>,
    cap: usize,
}

impl SlabPool {
    /// A parked slab, or a new empty one. Every parked slab is valid
    /// whatever a panicking holder did, so a poisoned lock only costs a
    /// fresh slab.
    fn take(&self) -> MapSlab {
        self.free
            .lock()
            .ok()
            .and_then(|mut free| free.pop())
            .unwrap_or_default()
    }

    fn put(&self, slab: MapSlab) {
        if let Ok(mut free) = self.free.lock() {
            if free.len() < self.cap {
                free.push(slab);
            }
        }
    }
}

/// The slabs of one executed batch, in span order. When the last
/// [`MapBatch`] over them drops, they go back to the executor's pool.
struct Slabs {
    slabs: Vec<MapSlab>,
    pool: Option<Arc<SlabPool>>,
}

impl Drop for Slabs {
    fn drop(&mut self) {
        if let Some(pool) = &self.pool {
            for slab in self.slabs.drain(..) {
                pool.put(slab);
            }
        }
    }
}

/// The maps of one executed batch, or of one request's frame range
/// within it: the shards' [`MapSlab`]s behind an `Arc`, plus a frame
/// range. Cloning and [`MapBatch::slice`] share the slabs; no map is
/// copied between the kernel and the socket. The slabs return to the
/// executor's pool when the last `MapBatch` over them drops.
#[derive(Clone)]
pub struct MapBatch {
    slabs: Arc<Slabs>,
    range: Range<usize>,
}

impl MapBatch {
    /// A batch of no maps.
    pub fn empty() -> MapBatch {
        MapBatch {
            slabs: Arc::new(Slabs {
                slabs: Vec::new(),
                pool: None,
            }),
            range: 0..0,
        }
    }

    /// Maps in the batch.
    pub fn len(&self) -> usize {
        self.range.len()
    }

    /// Whether the batch holds no maps.
    pub fn is_empty(&self) -> bool {
        self.range.is_empty()
    }

    /// Each slab with the part of this batch's range it holds, in frame
    /// order.
    fn runs(&self) -> impl Iterator<Item = (&MapSlab, Range<usize>)> + '_ {
        let range = self.range.clone();
        let mut start = 0;
        self.slabs.slabs.iter().filter_map(move |slab| {
            let held = start..start + slab.len();
            start = held.end;
            let lo = range.start.max(held.start);
            let hi = range.end.min(held.end);
            (lo < hi).then(|| (slab, lo - held.start..hi - held.start))
        })
    }

    /// The maps in frame order.
    pub fn iter(&self) -> impl Iterator<Item = MapRef<'_>> + '_ {
        self.runs()
            .flat_map(|(slab, range)| range.map(move |i| slab.map(i)))
    }

    /// The maps `range` of this batch (relative to it), sharing its slabs.
    ///
    /// # Panics
    ///
    /// Panics if `range` reaches past [`MapBatch::len`].
    pub fn slice(&self, range: Range<usize>) -> MapBatch {
        assert!(
            range.start <= range.end && range.end <= self.len(),
            "map batch slice out of range"
        );
        MapBatch {
            slabs: Arc::clone(&self.slabs),
            range: self.range.start + range.start..self.range.start + range.end,
        }
    }

    /// The batch's `EMWIRE2` map records as runs of words, one run per
    /// slab it touches, in frame order: their
    /// [`f64_le_bytes`](eigenmaps_core::codec::f64_le_bytes) are the
    /// maps' bytes in a batch reply.
    pub fn record_runs(&self) -> impl Iterator<Item = &[f64]> + '_ {
        self.runs().map(|(slab, range)| slab.records(range))
    }

    /// Owned copies of the maps, in frame order.
    pub fn to_maps(&self) -> Vec<ThermalMap> {
        self.iter().map(|map| map.to_map()).collect()
    }
}

impl fmt::Debug for MapBatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MapBatch")
            .field("maps", &self.len())
            .field("slabs", &self.slabs.slabs.len())
            .finish()
    }
}

/// A fixed pool of reconstruction workers executing batches as frame
/// shards. See the [module docs](self) for the design.
///
/// The executor is `Send + Sync`; submit from any thread through `&self`.
/// Dropping it shuts the pool down (workers finish their current shard
/// and exit).
#[derive(Debug)]
pub struct ShardedExecutor {
    injector: Sender<Task>,
    workers: Vec<JoinHandle<()>>,
    metrics: Arc<ServeMetrics>,
    shards: usize,
    slabs: Arc<SlabPool>,
}

impl ShardedExecutor {
    /// A pool of `shards` workers (`0` is treated as 1) with its own
    /// metrics hub.
    pub fn new(shards: usize) -> Self {
        let shards = shards.max(1);
        Self::with_metrics(shards, Arc::new(ServeMetrics::new(shards)))
    }

    /// A pool of `shards` workers recording into a shared metrics hub
    /// (size its shard counters with `ServeMetrics::new(shards)`).
    pub fn with_metrics(shards: usize, metrics: Arc<ServeMetrics>) -> Self {
        let shards = shards.max(1);
        let (injector, queue) = mpsc::channel::<Task>();
        let queue = Arc::new(Mutex::new(queue));
        let workers = (0..shards)
            .map(|worker| {
                let queue = Arc::clone(&queue);
                let metrics = Arc::clone(&metrics);
                std::thread::Builder::new()
                    .name(format!("eigenmaps-shard-{worker}"))
                    .spawn(move || worker_loop(worker, &queue, &metrics))
                    .expect("spawn shard worker")
            })
            .collect();
        ShardedExecutor {
            injector,
            workers,
            metrics,
            shards,
            slabs: Arc::new(SlabPool {
                free: Mutex::new(Vec::new()),
                cap: SLABS_PER_SHARD * shards,
            }),
        }
    }

    /// Number of worker threads in the pool.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The metrics hub this executor records shard utilization into.
    pub fn metrics(&self) -> &Arc<ServeMetrics> {
        &self.metrics
    }

    /// Reconstructs `frames` against `deployment` across the worker pool,
    /// returning maps in frame order, **bitwise identical** to
    /// [`Deployment::reconstruct_batch`] run sequentially.
    ///
    /// The frames are shared with the workers via `Arc` (no copying); the
    /// batch is split into at most [`ShardedExecutor::shards`] contiguous
    /// spans, each worker fills one pooled [`MapSlab`] with its span, and
    /// the result is those slabs in span order: nothing is stitched.
    ///
    /// # Errors
    ///
    /// * [`ServeError::Core`] if any frame has the wrong reading count
    ///   (checked up front) or reconstruction fails; the lowest-numbered
    ///   failing shard's error is reported, its frame index counted from
    ///   the start of the batch.
    /// * [`ServeError::Terminated`] if the worker pool has died.
    pub fn execute(
        &self,
        deployment: &Arc<Deployment>,
        frames: &Arc<Vec<Vec<f64>>>,
    ) -> Result<MapBatch> {
        let m = deployment.m();
        for readings in frames.iter() {
            if readings.len() != m {
                return Err(ServeError::Core(CoreError::ShapeMismatch {
                    context: "sharded execute readings",
                    expected: m,
                    found: readings.len(),
                }));
            }
        }
        if frames.is_empty() {
            return Ok(MapBatch::empty());
        }

        let spans = shard_spans(frames.len(), self.shards);
        let (reply, results) = mpsc::channel();
        for (slot, span) in spans.iter().cloned().enumerate() {
            let task = Task::Shard(ShardTask {
                deployment: Arc::clone(deployment),
                frames: Arc::clone(frames),
                span,
                slot,
                slab: self.slabs.take(),
                reply: reply.clone(),
            });
            self.injector
                .send(task)
                .map_err(|_| ServeError::Terminated {
                    context: "shard queue closed",
                })?;
        }
        drop(reply);

        // Slabs go back to the pool when this drops, on every path.
        let mut done = Slabs {
            slabs: spans.iter().map(|_| MapSlab::new()).collect(),
            pool: Some(Arc::clone(&self.slabs)),
        };
        let mut failed: Option<(usize, CoreError)> = None;
        for _ in 0..spans.len() {
            let (slot, slab, outcome) = results.recv().map_err(|_| ServeError::Terminated {
                context: "shard worker died mid-batch",
            })?;
            done.slabs[slot] = slab;
            if let Err(e) = outcome {
                if failed.as_ref().is_none_or(|&(first, _)| slot < first) {
                    failed = Some((slot, e));
                }
            }
        }
        if let Some((slot, e)) = failed {
            return Err(ServeError::Core(rebase(e, spans[slot].start)));
        }
        Ok(MapBatch {
            slabs: Arc::new(done),
            range: 0..frames.len(),
        })
    }

    /// Hands an opaque job to whichever worker is idle — the
    /// fire-and-forget lane the batcher throws durability checkpoints
    /// onto, so serving never waits on fsync. The job receives the
    /// executing worker's index.
    ///
    /// # Errors
    ///
    /// [`ServeError::Terminated`] if the worker pool has died — the job
    /// is dropped (not run), so any completion side effects it owns (e.g.
    /// a responder) fire through its `Drop`.
    pub(crate) fn spawn(&self, job: impl FnOnce(usize) + Send + 'static) -> Result<()> {
        self.injector
            .send(Task::Job(Box::new(job)))
            .map_err(|_| ServeError::Terminated {
                context: "shard queue closed",
            })
    }
}

/// Renumbers a shard's frame-indexed error from its span to the batch.
fn rebase(error: CoreError, offset: usize) -> CoreError {
    match error {
        CoreError::NonFiniteReading { frame, sensor } => CoreError::NonFiniteReading {
            frame: frame + offset,
            sensor,
        },
        CoreError::ReconstructionOverflow { frame } => CoreError::ReconstructionOverflow {
            frame: frame + offset,
        },
        other => other,
    }
}

impl Drop for ShardedExecutor {
    fn drop(&mut self) {
        // Replace the injector with a dead channel so workers' recv fails
        // once the queue drains, then reap them.
        let (dead, _) = mpsc::channel();
        drop(std::mem::replace(&mut self.injector, dead));
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

fn worker_loop(worker: usize, queue: &Mutex<Receiver<Task>>, metrics: &ServeMetrics) {
    // One scratch per worker, reused across every shard this thread ever
    // runs; the output slab comes with the task, from the pool.
    let mut scratch = BatchScratch::new();
    loop {
        // The guard spans the blocking recv() — idle workers take turns
        // waiting on the mutex — but it drops before the reconstruction
        // below, so work never serializes. Don't add work inside this
        // match scrutinee: it would run under the queue lock.
        let task = match queue.lock() {
            Ok(rx) => match rx.recv() {
                Ok(task) => task,
                Err(_) => return, // executor dropped: drain finished
            },
            Err(_) => return, // poisoned: another worker panicked
        };
        // The submitter may have given up (executor error path); a closed
        // reply channel is not the worker's problem.
        match task {
            Task::Shard(mut task) => {
                let outcome = task.deployment.reconstructor().reconstruct_slab(
                    &task.frames[task.span.clone()],
                    &mut task.slab,
                    &mut scratch,
                );
                metrics.record_shard(worker, task.span.len());
                let _ = task.reply.send((task.slot, task.slab, outcome));
            }
            Task::Job(job) => job(worker),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn deployment_and_frames(frames: usize) -> (Arc<Deployment>, Arc<Vec<Vec<f64>>>) {
        let (d, ens) = crate::testutil::two_mode_deployment(8, 8, 2, 5);
        let frames: Vec<Vec<f64>> = (0..frames)
            .map(|t| d.sensors().sample(&ens.map(t % ens.len())))
            .collect();
        (Arc::new(d), Arc::new(frames))
    }

    #[test]
    fn empty_batch_is_empty() {
        let (d, _) = deployment_and_frames(0);
        let ex = ShardedExecutor::new(3);
        assert!(ex.execute(&d, &Arc::new(Vec::new())).unwrap().is_empty());
    }

    #[test]
    fn bad_frame_length_rejected_up_front() {
        let (d, _) = deployment_and_frames(0);
        let ex = ShardedExecutor::new(2);
        let frames = Arc::new(vec![vec![1.0, 2.0]]);
        assert!(matches!(
            ex.execute(&d, &frames),
            Err(ServeError::Core(CoreError::ShapeMismatch { .. }))
        ));
    }

    #[test]
    fn zero_shards_clamps_to_one() {
        let ex = ShardedExecutor::new(0);
        assert_eq!(ex.shards(), 1);
        let (d, frames) = deployment_and_frames(7);
        assert_eq!(ex.execute(&d, &frames).unwrap().len(), 7);
    }

    #[test]
    fn utilization_spreads_across_workers() {
        let ex = ShardedExecutor::new(4);
        let (d, frames) = deployment_and_frames(64);
        for _ in 0..8 {
            ex.execute(&d, &frames).unwrap();
        }
        let snap = ex.metrics().snapshot();
        assert_eq!(snap.shard_frames.iter().sum::<u64>(), 8 * 64);
        // The shared injector queue lets any worker pull any shard, so no
        // per-worker guarantee exists — but all frames are accounted for
        // and the batch counter ticks once per executed shard.
        assert_eq!(snap.shard_batches.iter().sum::<u64>(), 8 * 4);
    }

    #[test]
    fn shard_errors_carry_batch_wide_frame_indices() {
        let ex = ShardedExecutor::new(2);
        let (d, frames) = deployment_and_frames(70);
        let huge = vec![1.7e308; d.m()];
        // Spans are 0..35 and 35..70: frame 68 sits in the second shard,
        // in its second frame block (shard frame 33).
        let mut second = (*frames).clone();
        second[68] = huge.clone();
        assert!(matches!(
            ex.execute(&d, &Arc::new(second.clone())),
            Err(ServeError::Core(CoreError::ReconstructionOverflow {
                frame: 68
            }))
        ));
        // The lowest-numbered failing shard wins, and within a shard a
        // non-finite reading is reported before any solve runs.
        second[3] = huge;
        second[60][1] = f64::NAN;
        assert!(matches!(
            ex.execute(&d, &Arc::new(second.clone())),
            Err(ServeError::Core(CoreError::ReconstructionOverflow {
                frame: 3
            }))
        ));
        second[3] = frames[3].clone();
        second[1][0] = f64::INFINITY;
        assert!(matches!(
            ex.execute(&d, &Arc::new(second)),
            Err(ServeError::Core(CoreError::NonFiniteReading {
                frame: 1,
                sensor: 0
            }))
        ));
        // The pool keeps serving exactly after failed batches.
        let maps = ex.execute(&d, &frames).unwrap();
        let sequential = d.reconstruct_batch(&frames).unwrap();
        assert_eq!(maps.len(), 70);
        for (a, b) in sequential.iter().zip(maps.iter()) {
            assert_eq!(a.as_slice(), b.as_slice());
        }
    }

    #[test]
    fn slices_share_slabs_and_cross_the_shard_boundary() {
        let ex = ShardedExecutor::new(2);
        let (d, frames) = deployment_and_frames(21);
        let batch = ex.execute(&d, &frames).unwrap();
        let sequential = d.reconstruct_batch(&frames).unwrap();
        assert_eq!(batch.record_runs().count(), 2);
        for range in [0..21, 0..11, 11..21, 7..15, 10..12, 4..4] {
            let part = batch.slice(range.clone());
            assert_eq!(part.len(), range.len());
            let runs = part.record_runs().count();
            assert_eq!(
                runs,
                usize::from(range.start < 11 && !range.is_empty()) + usize::from(range.end > 11)
            );
            for (a, b) in sequential[range.clone()].iter().zip(part.to_maps()) {
                assert_eq!(a, &b, "{range:?}");
            }
            assert_eq!(part.iter().count(), range.len());
        }
        let words: usize = batch.record_runs().map(<[f64]>::len).sum();
        assert_eq!(words, 21 * (2 + d.basis().cells()));
        assert!(MapBatch::empty().is_empty());
        assert_eq!(MapBatch::empty().record_runs().count(), 0);
    }

    /// Runs `job` on the `spawn` lane and blocks for its result and the
    /// index of the worker that ran it.
    fn on_pool<R: Send + 'static>(
        ex: &ShardedExecutor,
        job: impl FnOnce() -> R + Send + 'static,
    ) -> (usize, R) {
        let (reply, result) = mpsc::channel();
        ex.spawn(move |worker| {
            let _ = reply.send((worker, job()));
        })
        .unwrap();
        result.recv().unwrap()
    }

    /// The `spawn` job lane (production runs durability checkpoints on
    /// it; session steps run on the batcher) executes arbitrary work on a
    /// pool worker: stateful work handed over job by job — here a tracker
    /// stepped on the pool — is bitwise what running it inline gives.
    #[test]
    fn step_on_pool_is_bitwise_identical_to_inline_stepping() {
        let (d, frames) = deployment_and_frames(6);
        let ex = ShardedExecutor::new(2);
        let pooled = Arc::new(Mutex::new(d.tracker(0.4).unwrap()));
        let mut inline = d.tracker(0.4).unwrap();
        let step = |readings: Vec<f64>| {
            let tracker = Arc::clone(&pooled);
            on_pool(&ex, move || tracker.lock().unwrap().step(&readings))
        };
        for (t, readings) in frames.iter().enumerate() {
            let (worker, a) = step(readings.clone());
            assert!(worker < ex.shards(), "job ran on a pool worker");
            let b = inline.step(readings).unwrap();
            assert_eq!(a.unwrap().as_slice(), b.as_slice(), "step {t}");
        }
        // Jobs account for themselves: the lane ticks no shard counter.
        let snap = ex.metrics().snapshot();
        assert_eq!(snap.shard_frames.iter().sum::<u64>(), 0);
        // A failing job fails alone; the pool keeps serving.
        assert!(matches!(
            step(vec![0.0; 2]).1,
            Err(CoreError::ShapeMismatch { .. })
        ));
        assert!(step(frames[0].clone()).1.is_ok());
    }

    #[test]
    fn concurrent_submitters_share_the_pool() {
        let ex = Arc::new(ShardedExecutor::new(3));
        let (d, frames) = deployment_and_frames(41);
        let sequential = d.reconstruct_batch(&frames).unwrap();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let (ex, d, frames) = (Arc::clone(&ex), Arc::clone(&d), Arc::clone(&frames));
                std::thread::spawn(move || ex.execute(&d, &frames).unwrap())
            })
            .collect();
        for h in handles {
            let maps = h.join().unwrap();
            for (a, b) in sequential.iter().zip(maps.iter()) {
                assert_eq!(a.as_slice(), b.as_slice());
            }
        }
    }
}
