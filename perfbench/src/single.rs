//! The paper's own setting: one `Engine` fed one update per `execute`
//! call, half inserts and half deletes of random live edges, no queries
//! and no WAL. Recovery restores the checkpoint taken after the bulk load.

use crate::clock::PhaseClock;
use crate::gen::{base_edges, UpdateTraffic};
use crate::layers::LayerProbe;
use crate::report::{median, ms, ratio, CallLog, Metrics, Tally};
use crate::{sys, Run};
use pdmsf_engine::{Engine, Op, Outcome};
use pdmsf_graph::{kruskal_msf, BatchOp, EdgeId};
use pdmsf_persist::EngineCheckpointExt;
use std::time::{Duration, Instant};

/// Sizes of the single-update workload.
pub struct SingleConfig {
    pub n: usize,
    pub base_edges: usize,
    /// Check the forest against Kruskal every this many updates.
    pub check_every: usize,
}

fn set_up(
    cfg: &SingleConfig,
    seed: u64,
    tally: &mut Tally,
) -> (Engine, UpdateTraffic, [Duration; 3]) {
    let t0 = Instant::now();
    let base = base_edges(cfg.n, cfg.base_edges, seed);
    let traffic = UpdateTraffic::new(cfg.n, &base, seed);
    let links: Vec<Op> = base
        .iter()
        .map(|&(u, v, weight)| BatchOp::Link { u, v, weight })
        .collect();
    let generated = t0.elapsed();
    let t1 = Instant::now();
    let mut engine = Engine::new(cfg.n);
    let loaded = engine.execute(&links);
    let bulk_load = t1.elapsed();
    let bad = (loaded.outcomes.iter().enumerate())
        .filter(|&(i, out)| {
            *out != Outcome::Linked {
                id: EdgeId(i as u32),
            }
        })
        .count();
    tally.check(bad == 0, || format!("{bad} base links were not linked"));
    (engine, traffic, [generated, bulk_load, t0.elapsed()])
}

fn check_forest(engine: &Engine, traffic: &UpdateTraffic, tally: &mut Tally, when: usize) {
    let got = engine.forest_weight();
    let kruskal = kruskal_msf(engine.graph()).total_weight;
    let oracle = traffic.graph().msf_weight();
    tally.check(got == kruskal && got == oracle, || {
        format!("after {when} updates: forest weight {got}, Kruskal {kruskal}, oracle {oracle}")
    });
}

/// Run the workload; returns metadata for the result.
pub fn run(
    cfg: &SingleConfig,
    run: &Run,
    metrics: &mut Metrics,
    tally: &mut Tally,
) -> Vec<(&'static str, String)> {
    let mut setups = Vec::new();
    let mut ready = None;
    for _ in 0..run.setup_reps {
        drop(ready.take()); // the previous repetition's engine goes first
        let (engine, traffic, times) = set_up(cfg, run.seed, tally);
        setups.push(times);
        ready = Some((engine, traffic));
    }
    let (mut engine, mut traffic) = ready.expect("at least one set-up repetition");
    let k = engine.structure().chunk_parameter();
    let mut next_link = traffic.graph().edge_count() as u32;
    let mut updates = 0usize;

    // Check one outcome: a link gets the next sequential id, a cut cuts the
    // named edge. Every `check_every` updates the whole forest is checked.
    let mut settle =
        |engine: &Engine, traffic: &UpdateTraffic, op: Op, out: Outcome, tally: &mut Tally| {
            let ok = match (op, out) {
                (BatchOp::Link { .. }, Outcome::Linked { id }) => {
                    next_link += 1;
                    id.0 == next_link - 1
                }
                (BatchOp::Cut { id }, Outcome::Cut { id: got }) => id == got,
                _ => false,
            };
            tally.attempted += 1;
            tally.failed += u64::from(!ok);
            updates += 1;
            if updates.is_multiple_of(cfg.check_every) {
                check_forest(engine, traffic, tally, updates);
            }
        };

    // The crash point is the loaded engine: checkpoint it and keep the
    // checkpoint for the restores.
    let t0 = Instant::now();
    let mut checkpoint = sys::tmpfs_file("checkpoint").expect("tmpfs file for the checkpoint");
    engine
        .checkpoint(&mut checkpoint)
        .expect("checkpointing a single-structure engine succeeds");
    let checkpoint_ms = ms(t0.elapsed());
    let checkpoint_bytes = checkpoint.metadata().expect("checkpoint metadata").len();
    let crash_point = (
        engine.forest_edges(),
        engine.forest_weight(),
        engine.applied_seq(),
    );
    // Set-ups and checkpoint are a fixed amount of work, so this memory peak
    // does not depend on how fast the measured phase runs.
    let peak_rss_mb = sys::peak_rss_mb();
    let mut recover_s = Vec::new();
    let mut restore = |tally: &mut Tally| {
        let t0 = Instant::now();
        let bytes = sys::read_all(&checkpoint).expect("read the checkpoint");
        let restored = Engine::restore(&bytes[..]);
        recover_s.push(t0.elapsed().as_secs_f64());
        match restored {
            Ok(e) => {
                let after = (e.forest_edges(), e.forest_weight(), e.applied_seq());
                tally.check(after == crash_point, || {
                    "restored engine differs from the checkpointed one".to_string()
                });
            }
            Err(e) => tally.check(false, || format!("restore failed: {e}")),
        }
    };

    // The measured phase: a closed loop of one-update calls. An untraced
    // run pauses it six times to restore; a traced run measures its first
    // half untraced, then times plan and apply apart, and restores after.
    let seconds = Duration::from_secs_f64(run.seconds);
    let untraced_for = if run.trace { seconds / 2 } else { seconds };
    let mut untraced = CallLog::default();
    let mut clock = PhaseClock::start(untraced_for, !run.trace);
    while clock.running() {
        let op = traffic.next_op();
        let t0 = Instant::now();
        let result = engine.execute(&[op]);
        untraced.record(t0.elapsed(), 1, 1);
        settle(&engine, &traffic, op, result.outcomes[0], tally);
        clock.maybe_pause(|| restore(tally));
    }
    clock.finish(|| restore(tally));
    let mut traced = CallLog::default();
    let (mut plan_ms, mut apply_ms) = (0.0, 0.0);
    let mut layers = None;
    if run.trace {
        let snapshots_before = engine.stats().snapshots;
        let probe = LayerProbe::start(std::iter::once(engine.structure().meter()));
        let start = Instant::now();
        while start.elapsed() < seconds - untraced_for {
            let op = traffic.next_op();
            let t0 = Instant::now();
            let planned = engine.plan_batch(&[op]);
            let t1 = Instant::now();
            let result = engine.execute_planned(planned);
            let t2 = Instant::now();
            plan_ms += ms(t1 - t0);
            apply_ms += ms(t2 - t1);
            traced.record(t2 - t0, 1, 1);
            settle(&engine, &traffic, op, result.outcomes[0], tally);
        }
        layers = Some((
            probe.stop(std::iter::once(engine.structure().meter())),
            engine.stats().snapshots - snapshots_before,
        ));
        PhaseClock::start(Duration::ZERO, true).finish(|| restore(tally));
    }
    check_forest(&engine, &traffic, tally, updates);

    let calls = if run.trace { &traced } else { &untraced };
    if !run.trace {
        let setup_s: Vec<f64> = setups.iter().map(|t| t[2].as_secs_f64()).collect();
        metrics.put("setup_s", median(&setup_s), "s");
        metrics.put("ops_per_s", calls.ops_per_s(), "1/s");
        metrics.put("call_ms_p50", calls.latency_ms(0.50), "ms");
        metrics.put("call_ms_p99", calls.latency_ms(0.99), "ms");
        metrics.put("recover_s", median(&recover_s), "s");
        metrics.put("peak_rss_mb", peak_rss_mb, "MiB");
    } else {
        let n = calls.calls() as f64;
        let (layers, snapshots) = layers.expect("traced runs probe the layers");
        let generate: Vec<f64> = setups.iter().map(|t| t[0].as_secs_f64()).collect();
        let bulk: Vec<f64> = setups.iter().map(|t| t[1].as_secs_f64()).collect();
        metrics.put("setup.generate_s", median(&generate), "s");
        metrics.put("setup.bulk_load_s", median(&bulk), "s");
        // No shard layer, no queries and no WAL on this workload.
        metrics.put("shard.shards_touched_mean", 0.0, "shards");
        metrics.put("shard.busy_skew", 0.0, "ratio");
        metrics.put("engine.plan_ms", plan_ms / n, "ms");
        metrics.put("engine.apply_ms", apply_ms / n, "ms");
        metrics.put("engine.snapshot_ms", 0.0, "ms");
        metrics.put("engine.snapshots", snapshots as f64 / n, "1/call");
        metrics.put("engine.cancelled_frac", 0.0, "ratio");
        metrics.put("engine.unique_query_frac", 0.0, "ratio");
        layers.put(k, calls, metrics);
        metrics.put("persist.wal_ms", 0.0, "ms");
        metrics.put("persist.fsyncs", 0.0, "1/call");
        metrics.put("persist.wal_bytes_per_update", 0.0, "B");
        metrics.put("persist.checkpoint_ms", checkpoint_ms, "ms");
        metrics.put("persist.checkpoint_bytes", checkpoint_bytes as f64, "B");
        metrics.put("persist.restore_ms", median(&recover_s) * 1e3, "ms");
        metrics.put("persist.replay_ms", 0.0, "ms");
        metrics.put(
            "trace.overhead_ratio",
            ratio(calls.ops_per_s(), untraced.ops_per_s()),
            "ratio",
        );
    }
    vec![
        ("core_k", k.to_string()),
        ("calls", calls.calls().to_string()),
        ("wal_fs", "none (no WAL on this workload)".to_string()),
        ("recoveries", recover_s.len().to_string()),
    ]
}
