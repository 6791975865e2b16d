//! The sharded execution engine: a fixed pool of worker threads that
//! splits large reconstruction batches into contiguous frame shards.
//!
//! Workers are plain `std::thread`s fed over an mpsc channel (a shared
//! injector queue — idle workers pull the next shard, so load balances
//! itself even when shards run at different speeds). Each worker owns a
//! [`BatchScratch`] reused across every shard it ever processes, so
//! steady-state serving does no per-batch coefficient-buffer allocation.
//! Besides batch shards the pool runs opaque fire-and-forget jobs
//! (`ShardedExecutor::spawn`) — the durability layer's background
//! checkpoints — so slow disk work never blocks the batcher. Streaming
//! session steps do not come here: at a few microseconds each, the
//! batcher runs them to completion itself.
//!
//! Inside each shard, the worker runs the deployment's dispatched SIMD
//! synthesis kernel ([`eigenmaps_core::kernel`]) on its own scratch, over
//! the deployment's packed basis panels
//! ([`eigenmaps_core::PackedBasis`] — built once at design/load time and
//! shared by every worker's `Reconstructor` clone through an `Arc`, so the
//! panel buffer exists once per artifact, not once per worker), one sweep
//! over every panel per frame block. The levels of parallelism compose —
//! threads across frame shards, SIMD lanes across each panel's rows — and
//! a forced backend
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

use eigenmaps_core::{shard_spans, BatchScratch, CoreError, Deployment, ThermalMap};

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
/// background checkpoint) that receives the executing worker's index.
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
        for (outcome, span) in slots.into_iter().zip(&spans) {
            let shard_maps = outcome
                .expect("every slot replied")
                .map_err(|e| ServeError::Core(rebase(e, span.start)))?;
            maps.extend(shard_maps);
        }
        Ok(maps)
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
