//! The sharded execution engine: a fixed pool of worker threads that
//! splits large reconstruction batches into contiguous frame shards.
//!
//! Workers are plain `std::thread`s fed over an mpsc channel (a shared
//! injector queue — idle workers pull the next shard, so load balances
//! itself even when shards run at different speeds). Each worker owns a
//! [`BatchScratch`] reused across every shard it ever processes, so
//! steady-state serving does no per-batch coefficient-buffer allocation.
//! The same pool also executes streaming-session tracker steps (the
//! batcher hands each one over as an opaque job): a step is one more unit
//! of work an idle worker pulls, so sessions and batches share the exact
//! same compute capacity instead of stealing caller threads.
//!
//! Inside each shard, the worker runs the deployment's dispatched SIMD
//! synthesis kernel ([`eigenmaps_core::kernel`]) on its own scratch, over
//! the deployment's packed, L2-tiled basis panels
//! ([`eigenmaps_core::PackedBasis`] — built once at design/load time and
//! shared by every worker's `Reconstructor` clone through an `Arc`, so a
//! multi-megabyte panel buffer exists once per artifact, not once per
//! worker). The levels of parallelism compose — threads across frame
//! shards, SIMD lanes across each panel's rows, basis tiles serving from
//! L2 across each shard's blocks — and a forced backend
//! ([`Deployment::set_kernel`]) set before publishing is what every
//! worker executes.
//!
//! Shard boundaries come from [`eigenmaps_core::shard_spans`]; because the
//! batch path is bitwise-identical to per-frame reconstruction *under the
//! deployment's kernel backend* (the kernel's position-independence
//! contract), stitching the shard outputs back together in span order
//! reproduces the single-threaded [`Deployment::reconstruct_batch`]
//! output **bitwise** — parallelism is free of numerical drift by
//! construction, for every backend, and the integration tests assert it.

use std::ops::Range;
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use eigenmaps_core::{
    shard_spans, BatchScratch, CoreError, Deployment, ThermalMap, TrackingReconstructor,
};

use crate::error::{Result, ServeError};
use crate::metrics::ServeMetrics;

/// One shard of one batch, dispatched to whichever worker is idle.
struct ShardTask {
    deployment: Arc<Deployment>,
    frames: Arc<Vec<Vec<f64>>>,
    span: Range<usize>,
    slot: usize,
    reply: Sender<(usize, std::result::Result<Vec<ThermalMap>, CoreError>)>,
}

/// What the injector queue carries: a batch shard, or an opaque job (a
/// streaming-session step dispatched by the batcher) that receives the
/// executing worker's index.
enum Task {
    Shard(ShardTask),
    Job(Box<dyn FnOnce(usize) + Send>),
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
    /// spans and reassembled in span order.
    ///
    /// # Errors
    ///
    /// * [`ServeError::Core`] if any frame has the wrong reading count
    ///   (checked up front) or reconstruction fails; the lowest-numbered
    ///   failing shard's error is reported.
    /// * [`ServeError::Terminated`] if the worker pool has died.
    pub fn execute(
        &self,
        deployment: &Arc<Deployment>,
        frames: &Arc<Vec<Vec<f64>>>,
    ) -> Result<Vec<ThermalMap>> {
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
            return Ok(Vec::new());
        }

        let spans = shard_spans(frames.len(), self.shards);
        let (reply, results) = mpsc::channel();
        for (slot, span) in spans.iter().cloned().enumerate() {
            let task = Task::Shard(ShardTask {
                deployment: Arc::clone(deployment),
                frames: Arc::clone(frames),
                span,
                slot,
                reply: reply.clone(),
            });
            self.injector
                .send(task)
                .map_err(|_| ServeError::Terminated {
                    context: "shard queue closed",
                })?;
        }
        drop(reply);

        let mut slots: Vec<Option<std::result::Result<Vec<ThermalMap>, CoreError>>> =
            (0..spans.len()).map(|_| None).collect();
        for _ in 0..spans.len() {
            let (slot, outcome) = results.recv().map_err(|_| ServeError::Terminated {
                context: "shard worker died mid-batch",
            })?;
            slots[slot] = Some(outcome);
        }

        let mut maps = Vec::with_capacity(frames.len());
        for outcome in slots {
            let shard_maps = outcome
                .expect("every slot replied")
                .map_err(ServeError::Core)?;
            maps.extend(shard_maps);
        }
        Ok(maps)
    }

    /// Hands an opaque job to whichever worker is idle — the
    /// fire-and-forget lane the batcher uses to dispatch session steps
    /// without blocking its scheduling loop (so steps of *different*
    /// sessions run in parallel across the pool; per-session ordering is
    /// the dispatcher's job). The job receives the executing worker's
    /// index for shard-utilization accounting.
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

/// Locks a session's shared tracker and runs one step — the single place
/// the lock-and-step (and poisoned-lock fallback) policy lives, used by
/// both the batcher's fire-and-forget dispatch and its synchronous
/// shutdown drain.
pub(crate) fn step_tracker(
    tracker: &Mutex<TrackingReconstructor>,
    readings: &[f64],
) -> std::result::Result<ThermalMap, CoreError> {
    match tracker.lock() {
        Ok(mut tracker) => tracker.step(readings),
        // A panicked session poisoned its tracker; fail the step, not
        // the worker.
        Err(_) => Err(CoreError::InvalidArgument {
            context: "session tracker poisoned",
        }),
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
    // runs — the steady-state serving path allocates only output maps.
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
            Task::Shard(task) => {
                let outcome = task
                    .deployment
                    .reconstruct_batch_with(&task.frames[task.span.clone()], &mut scratch);
                metrics.record_shard(worker, task.span.len());
                let _ = task.reply.send((task.slot, outcome));
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

    /// Runs one tracker step as a pool job (the batcher's dispatch lane)
    /// and blocks for its outcome.
    fn step_on_pool(
        ex: &ShardedExecutor,
        tracker: &Arc<Mutex<TrackingReconstructor>>,
        readings: Vec<f64>,
    ) -> std::result::Result<ThermalMap, CoreError> {
        let (reply, result) = mpsc::channel();
        let (tracker, metrics) = (Arc::clone(tracker), Arc::clone(ex.metrics()));
        ex.spawn(move |worker| {
            let outcome = step_tracker(&tracker, &readings);
            metrics.record_shard(worker, 1);
            let _ = reply.send(outcome);
        })
        .unwrap();
        result.recv().unwrap()
    }

    #[test]
    fn step_on_pool_is_bitwise_identical_to_inline_stepping() {
        let (d, frames) = deployment_and_frames(6);
        let ex = ShardedExecutor::new(2);
        let pooled = Arc::new(Mutex::new(d.tracker(0.4).unwrap()));
        let mut inline = d.tracker(0.4).unwrap();
        for (t, readings) in frames.iter().enumerate() {
            let a = step_on_pool(&ex, &pooled, readings.clone()).unwrap();
            let b = inline.step(readings).unwrap();
            assert_eq!(a.as_slice(), b.as_slice(), "step {t}");
        }
        // Steps tick the shard counters like any other unit of work.
        let snap = ex.metrics().snapshot();
        assert_eq!(snap.shard_frames.iter().sum::<u64>(), 6);
        // Malformed readings fail the step, not the pool.
        assert!(matches!(
            step_on_pool(&ex, &pooled, vec![0.0; 2]),
            Err(CoreError::ShapeMismatch { .. })
        ));
        assert!(step_on_pool(&ex, &pooled, frames[0].clone()).is_ok());
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
