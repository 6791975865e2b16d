//! Runtime thermal monitoring: the scenario from the paper's introduction,
//! served as a scheduled streaming session with a warm restart.
//!
//! A dynamic thermal management (DTM) loop only sees a few noisy on-chip
//! sensors, but must detect hot spots and temperature gradients anywhere on
//! the die. This example closes that loop:
//!
//! * design time — simulate workloads, design a `Deployment` (EigenMaps
//!   basis + greedy sensor placement + prefactored solver);
//! * run time — replay a *different* workload, corrupt the sensor readings
//!   with calibration noise, feed each interval through a temporally
//!   filtered `TrackerSession` scheduled on a serving `Server` (the
//!   server's batcher runs each step to completion, fairly interleaved
//!   with any batch traffic), and raise DTM events when the estimated
//!   hotspot crosses a threshold;
//! * restart — halfway through, the monitor "crashes": the session is
//!   snapshotted to `EMSESS1` bytes, dropped, and resumed — continuing
//!   the stream with its temporal-filter state intact. Beside it, an
//!   uninterrupted tracker steps the same readings in process, and the
//!   example asserts every interval's map bitwise-identical to it,
//!   across the restart.
//!
//! ```text
//! cargo run --release --example thermal_monitor
//! ```

use std::sync::Arc;

use eigenmaps::core::prelude::*;
use eigenmaps::floorplan::prelude::*;
use eigenmaps::serve::{DeploymentRegistry, Server};
use eigenmaps::thermal::{GridSpec, ThermalModel, TransientSim};

const ROWS: usize = 28;
const COLS: usize = 30;
const SENSORS: usize = 12;
const HOTSPOT_LIMIT_C: f64 = 58.0;

fn main() -> std::result::Result<(), Box<dyn std::error::Error>> {
    // ---- design time -----------------------------------------------------
    println!("[design] simulating training workloads…");
    let dataset = DatasetBuilder::ultrasparc_t1()
        .grid(ROWS, COLS)
        .snapshots(400)
        .seed(21)
        .build()?;
    let deployment = Pipeline::new(dataset.ensemble())
        .basis(BasisSpec::Eigen { k: SENSORS })
        .sensors(SENSORS)
        .noise(NoiseSpec::sigma(0.3))
        .design()?;
    println!(
        "[design] {SENSORS} sensors placed, κ(Ψ̃_K) = {:.2}",
        deployment.condition_number()
    );

    // ---- serving stack ---------------------------------------------------
    // The monitor host publishes the artifact and serves the stream as a
    // scheduled workload — the server's batcher runs the session's steps.
    let registry = Arc::new(DeploymentRegistry::new());
    registry.publish_bytes("die-0", &deployment.to_bytes())?;
    let server = Server::new(Arc::clone(&registry), 2);
    // Gain < 1: temporal filtering averages the ±0.3 °C sensor noise down
    // across intervals while tracking the slow thermal transients.
    let mut session = server.open_session("die-0", 0.7)?;
    // The reference: a monitor that never restarts, stepped in process.
    let mut uninterrupted = deployment.tracker(0.7)?;

    // ---- run time ---------------------------------------------------------
    // A migration-heavy workload the training schedule saw only briefly.
    let fp = Floorplan::ultrasparc_t1();
    let grid = GridSpec::new(
        ROWS,
        COLS,
        fp.die_width() / COLS as f64,
        fp.die_height() / ROWS as f64,
    );
    let model = ThermalModel::with_default_stack(grid)?;
    let mut sim = TransientSim::new(model, 0.05)?;
    let rasterizer = PowerRasterizer::new(&fp, grid)?;
    let trace = TraceGenerator::new(fp.clone(), 0.05, 0xBEEF)?.generate(Scenario::Migration, 260);

    let mut noise = NoiseModel::new(99);
    let mut worst_estimate_err: f64 = 0.0;
    let mut dtm_events = 0usize;
    let restart_at = trace.len() / 2;

    println!("[runtime] monitoring {} intervals of 50 ms…", trace.len());
    for (step, block_power) in trace.iter().enumerate() {
        if step == restart_at {
            // Monitor "crash": persist the stream's durable state, drop
            // the session, and warm-restart it. The EMSESS1 record pins
            // the exact deployment version and carries the filter state,
            // so the resumed stream continues bitwise-identically.
            let snapshot = session.snapshot();
            drop(session);
            session = server.resume_session(&snapshot)?;
            println!(
                "[restart] t={:5.2}s monitor restarted from a {}-byte EMSESS1 snapshot \
                 ({} frames of filter state, {}@v{})",
                step as f64 * 0.05,
                snapshot.len(),
                session.frames(),
                session.name(),
                session.version()
            );
        }

        let power = rasterizer.rasterize(block_power)?;
        let die = sim.step(&power)?;
        let truth = ThermalMap::new(ROWS, COLS, die.to_vec())?;

        // The DTM loop sees only noisy sensors (±0.3 °C calibration).
        let readings = noise.apply_sigma(&deployment.sensors().sample(&truth), 0.3);
        let estimate = session.step(&readings)?;
        assert_eq!(
            estimate.as_slice(),
            uninterrupted.step(&readings)?.as_slice(),
            "interval {step}: the scheduled stream diverged from the uninterrupted one"
        );
        worst_estimate_err = worst_estimate_err.max(truth.max_sq_err(&estimate).sqrt());

        let (er, ec, ev) = estimate.hotspot();
        if ev > HOTSPOT_LIMIT_C && step > 40 {
            dtm_events += 1;
            let (tr, tc, tv) = truth.hotspot();
            if dtm_events <= 5 {
                println!(
                    "[runtime] t={:5.2}s DTM event: est. hotspot ({er:2},{ec:2}) {ev:.2} °C \
                     (true ({tr:2},{tc:2}) {tv:.2} °C)",
                    step as f64 * 0.05
                );
            }
        }
    }
    let metrics = server.metrics();
    println!(
        "[runtime] done: {dtm_events} DTM events, worst full-map estimation error {:.2} °C \
         from {SENSORS} noisy sensors",
        worst_estimate_err
    );
    println!(
        "[runtime] {} scheduled session steps (p99 {:?}) across the restart; \
         {} frames on the resumed stream, every map bitwise-identical to the \
         uninterrupted tracker's",
        metrics.session_steps,
        metrics.session_latency_p99,
        session.frames()
    );
    Ok(())
}
