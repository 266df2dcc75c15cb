//! The two durable multi-tenant workloads: a `ShardedService` with a WAL
//! per shard on tmpfs. The service checkpoints after the bulk load, serves
//! a fixed tail of the stream into its WAL (the history a recovery
//! replays), checkpoints again onto a fresh WAL segment and serves the
//! measured phase; recoveries rebuild the service as it stood at the end of
//! the tail from the first checkpoint and the tail's WAL segment.

use crate::clock::PhaseClock;
use crate::gen::{TenantMix, TenantTraffic, UnionFind};
use crate::layers::LayerProbe;
use crate::report::{median, ms, ratio, CallLog, Metrics, Tally};
use crate::wal::{self, WalProbe};
use crate::{sys, Run};
use pdmsf_engine::Outcome;
use pdmsf_graph::{kruskal_msf, BatchOp, EdgeId, TenantId, TenantOp};
use pdmsf_obs as obs;
use pdmsf_persist::{recover_service, ServiceCheckpointExt};
use pdmsf_pram::CostMeter;
use pdmsf_shard::{ServiceSummary, ShardedService, TenantSpec};
use std::collections::HashMap;
use std::fs::File;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Sizes of one tenant workload.
pub struct TenantConfig {
    pub shards: usize,
    pub mix: TenantMix,
    /// Service batches served between the first checkpoint and the crash
    /// point: recovery replays exactly these, whatever the measured
    /// phase's throughput.
    pub tail_batches: usize,
    /// Check every query answer of every `check_every`-th batch against
    /// the oracle (every batch's outcome kinds are always checked).
    pub check_every: usize,
}

/// What survives a crash: the checkpoint taken after the bulk load and
/// read handles on each shard's WAL segment since then.
struct Durable {
    checkpoint: File,
    logs: Vec<File>,
}

/// A service ready to serve, with its durable media.
struct Live {
    service: ShardedService,
    traffic: TenantTraffic,
    durable: Durable,
}

fn checkpoint(service: &ShardedService) -> File {
    let mut file = sys::tmpfs_file("checkpoint").expect("tmpfs file for the checkpoint");
    service
        .checkpoint_all(&mut file)
        .expect("checkpointing a single-structure service succeeds");
    file
}

fn start_segments(service: &mut ShardedService, probe: Option<&Arc<WalProbe>>) -> Vec<File> {
    (0..service.num_shards())
        .map(|s| {
            wal::start_segment(service.shard_engine_mut(s), s as u32, probe)
                .expect("WAL segment on tmpfs")
        })
        .collect()
}

/// Generation, construction, bulk load, WAL creation and the first
/// checkpoint. Returns the ready service and the times of its steps.
fn set_up(cfg: &TenantConfig, seed: u64, tally: &mut Tally) -> (Live, [Duration; 3]) {
    let t0 = Instant::now();
    let (traffic, bases) = TenantTraffic::new(cfg.mix, seed);
    let base_ops: Vec<TenantOp> = bases
        .iter()
        .enumerate()
        .flat_map(|(t, edges)| {
            edges.iter().map(move |&(u, v, weight)| TenantOp {
                tenant: TenantId(t as u32),
                op: BatchOp::Link { u, v, weight },
            })
        })
        .collect();
    let generated = t0.elapsed();

    let t1 = Instant::now();
    let specs: Vec<TenantSpec> = (0..cfg.mix.tenants as u32)
        .map(|t| TenantSpec::new(TenantId(t), cfg.mix.tenant_vertices))
        .collect();
    let mut service = ShardedService::new(cfg.shards, &specs);
    let loaded = service.execute(&base_ops);
    let bulk_load = t1.elapsed();
    let mut next_local = vec![0u32; cfg.mix.tenants];
    let bad = base_ops
        .iter()
        .zip(&loaded.outcomes)
        .filter(|(op, out)| {
            let t = op.tenant.index();
            next_local[t] += 1;
            **out
                != Outcome::Linked {
                    id: EdgeId(next_local[t] - 1),
                }
        })
        .count();
    tally.check(bad == 0, || format!("{bad} base links were not linked"));

    let logs = start_segments(&mut service, None);
    let checkpoint = checkpoint(&service);
    let live = Live {
        service,
        traffic,
        durable: Durable { checkpoint, logs },
    };
    (live, [generated, bulk_load, t0.elapsed()])
}

/// The benchmark's one client: it generates each batch, sends it, waits
/// for the answer and checks it.
struct Client {
    traffic: TenantTraffic,
    /// Next tenant-local id each tenant's link must get.
    next_link: Vec<u32>,
    batch: Vec<TenantOp>,
    batches: usize,
    check_every: usize,
}

impl Client {
    fn new(traffic: TenantTraffic, cfg: &TenantConfig) -> Client {
        Client {
            next_link: (0..cfg.mix.tenants)
                .map(|t| traffic.graph(TenantId(t as u32)).edge_count() as u32)
                .collect(),
            traffic,
            batch: Vec::with_capacity(cfg.mix.batch_size),
            batches: 0,
            check_every: cfg.check_every,
        }
    }

    /// Send one batch; returns the call's duration, its update count and
    /// the service's summary.
    fn step(
        &mut self,
        service: &mut ShardedService,
        tally: &mut Tally,
    ) -> (Duration, usize, ServiceSummary) {
        self.traffic.next_batch(&mut self.batch);
        let t0 = Instant::now();
        let result = service.execute(&self.batch);
        let took = t0.elapsed();
        tally.attempted += self.batch.len() as u64;
        tally.failed += self.failures(&result.outcomes);
        self.batches += 1;
        if self.batches.is_multiple_of(self.check_every) {
            tally.failed += wrong_answers(&self.traffic, &self.batch, &result.outcomes);
        }
        let updates = self.batch.iter().filter(|op| op.op.is_update()).count();
        (took, updates, result.summary)
    }

    /// Count the ops of the last batch whose outcome has the wrong kind or
    /// id.
    fn failures(&mut self, outcomes: &[Outcome]) -> u64 {
        let mut failed = 0;
        for (op, out) in self.batch.iter().zip(outcomes) {
            let ok = match (op.op, *out) {
                (BatchOp::Link { .. }, Outcome::Linked { id }) => {
                    let want = &mut self.next_link[op.tenant.index()];
                    *want += 1;
                    id.0 == *want - 1
                }
                (BatchOp::Cut { id }, Outcome::Cut { id: got }) => id == got,
                (BatchOp::QueryConnected { .. }, Outcome::Connected { .. }) => true,
                (BatchOp::QueryForestWeight, Outcome::ForestWeight { .. }) => true,
                _ => false,
            };
            failed += u64::from(!ok);
        }
        failed
    }
}

/// Count the query answers of `batch` that disagree with the oracle.
fn wrong_answers(traffic: &TenantTraffic, batch: &[TenantOp], outcomes: &[Outcome]) -> u64 {
    let mut components: HashMap<TenantId, UnionFind> = HashMap::new();
    let mut weights: HashMap<TenantId, i128> = HashMap::new();
    let mut wrong = 0;
    for (op, out) in batch.iter().zip(outcomes) {
        let ok = match (op.op, *out) {
            (BatchOp::QueryConnected { u, v }, Outcome::Connected { connected }) => {
                let uf = components
                    .entry(op.tenant)
                    .or_insert_with(|| traffic.graph(op.tenant).components());
                (uf.find(u.index()) == uf.find(v.index())) == connected
            }
            (BatchOp::QueryForestWeight, Outcome::ForestWeight { weight }) => {
                let want = *weights
                    .entry(op.tenant)
                    .or_insert_with(|| traffic.graph(op.tenant).msf_weight());
                want == weight
            }
            _ => true,
        };
        wrong += u64::from(!ok);
    }
    wrong
}

/// Each shard's forest against Kruskal over its mirror, and each tenant's
/// forest weight against the oracle.
fn check_forests(service: &ShardedService, traffic: &TenantTraffic, tally: &mut Tally, when: &str) {
    for s in 0..service.num_shards() {
        let engine = service.shard_engine(s);
        let want = kruskal_msf(engine.graph()).total_weight;
        let got = engine.forest_weight();
        tally.check(got == want, || {
            format!("{when}: shard {s} forest weight {got} != Kruskal {want}")
        });
    }
    for t in 0..service.num_tenants() as u32 {
        let got = service.tenant_forest_weight(TenantId(t));
        let want = traffic.graph(TenantId(t)).msf_weight();
        tally.check(got == Some(want), || {
            format!("{when}: tenant {t} forest weight {got:?} != oracle {want}")
        });
    }
}

/// Layer counters read from outside the crates over a traced phase.
#[derive(Default)]
struct Traced {
    shards_touched: u64,
    cancelled_pairs: u64,
    queries: u64,
    unique_queries: u64,
    snapshots: u64,
    /// Busy ns over the phase: engine plan, apply and snapshot (summed over
    /// shards), then one entry per shard.
    phases: [Vec<f64>; 4],
}

impl Traced {
    fn add(&mut self, s: &ServiceSummary) {
        self.shards_touched += s.shards_touched as u64;
        self.cancelled_pairs += s.cancelled_pairs as u64;
        self.queries += s.queries as u64;
        self.unique_queries += s.unique_queries as u64;
        self.snapshots += s.per_shard.iter().map(|p| p.snapshots).sum::<u64>();
    }
}

/// What a service fingerprint compares after recovery.
#[derive(PartialEq, Debug)]
struct Fingerprint {
    tenants: Vec<pdmsf_shard::TenantRecord>,
    tenant_weights: Vec<Option<i128>>,
    shard_weights: Vec<i128>,
    shard_seqs: Vec<u64>,
}

fn fingerprint(service: &ShardedService) -> Fingerprint {
    Fingerprint {
        tenants: service.export_tenants(),
        tenant_weights: (0..service.num_tenants() as u32)
            .map(|t| service.tenant_forest_weight(TenantId(t)))
            .collect(),
        shard_weights: (0..service.num_shards())
            .map(|s| service.shard_engine(s).forest_weight())
            .collect(),
        shard_seqs: (0..service.num_shards())
            .map(|s| service.shard_engine(s).applied_seq())
            .collect(),
    }
}

fn meters(service: &ShardedService) -> Vec<&CostMeter> {
    (0..service.num_shards())
        .map(|s| service.shard_engine(s).structure().meter())
        .collect()
}

/// Sum of each series of a histogram family in the global registry, in ns.
fn hist_sums(family: &str) -> Vec<f64> {
    obs::global()
        .histogram_snapshots()
        .into_iter()
        .filter(|(name, _, _)| name == family)
        .map(|(_, _, h)| h.sum as f64)
        .collect()
}

/// The engine phase and per-shard busy times recorded so far, in ns.
fn phase_times() -> [Vec<f64>; 4] {
    [
        "pdmsf_engine_plan_ns",
        "pdmsf_engine_apply_ns",
        "pdmsf_engine_snapshot_ns",
        "pdmsf_shard_batch_ns",
    ]
    .map(hist_sums)
}

/// Rebuild the service from the first checkpoint and the tail's WAL
/// segments, as a restarted process would; check it against the service
/// as it stood at the crash point.
fn recover_once(durable: &Durable, crash_point: &Fingerprint, tally: &mut Tally) -> f64 {
    let t0 = Instant::now();
    let ckpt = sys::read_all(&durable.checkpoint).expect("read the checkpoint");
    let bytes: Vec<Vec<u8>> = (durable.logs.iter())
        .map(|f| sys::read_all(f).expect("read a WAL segment"))
        .collect();
    let slices: Vec<&[u8]> = bytes.iter().map(Vec::as_slice).collect();
    let recovered = recover_service(&ckpt[..], &slices);
    let took = t0.elapsed().as_secs_f64();
    match recovered {
        Ok((recovered, reports)) => {
            let replayed: u64 = reports.iter().map(|r| r.replayed).sum();
            tally.check(replayed > 0, || {
                "recovery replayed no WAL record".to_string()
            });
            tally.check(fingerprint(&recovered) == *crash_point, || {
                "recovered service differs from the one at the crash point".to_string()
            });
        }
        Err(e) => tally.check(false, || format!("recovery failed: {e}")),
    }
    took
}

/// Run one tenant workload; returns metadata for the result.
pub fn run(
    cfg: &TenantConfig,
    run: &Run,
    metrics: &mut Metrics,
    tally: &mut Tally,
) -> Vec<(&'static str, String)> {
    // Set up several times and keep the last service: set-up time is the
    // median of the repetitions.
    let mut setups: Vec<[Duration; 3]> = Vec::new();
    let mut ready = None;
    for _ in 0..run.setup_reps {
        drop(ready.take()); // the previous repetition's service goes first
        let (live, times) = set_up(cfg, run.seed, tally);
        setups.push(times);
        ready = Some(live);
    }
    let Live {
        mut service,
        traffic,
        durable,
    } = ready.expect("at least one set-up repetition");
    let wal_fs = sys::fs_type(&durable.logs[0]).expect("fstatfs on the WAL segment");
    let k = service.shard_engine(0).structure().chunk_parameter();
    let mut client = Client::new(traffic, cfg);

    // The tail: durable history up to the crash point.
    for _ in 0..cfg.tail_batches {
        client.step(&mut service, tally);
    }
    check_forests(&service, &client.traffic, tally, "at the crash point");
    let crash_point = fingerprint(&service);

    // The live service goes on from a second checkpoint and fresh WAL
    // segments; the crash point's media stay as they are.
    let t0 = Instant::now();
    let second = checkpoint(&service);
    let checkpoint_ms = ms(t0.elapsed());
    let checkpoint_bytes = second.metadata().expect("checkpoint metadata").len();
    drop(second);
    start_segments(&mut service, None);
    // Everything so far is a fixed amount of work, so its memory peak does
    // not depend on how fast the measured phase runs.
    let peak_rss_mb = sys::peak_rss_mb();

    // The measured phase: a closed loop with one client. An untraced run
    // pauses it six times to recover. A traced run measures its first half
    // untraced, then turns the layer probes on for the second half (the
    // ratio of the halves is the tracing overhead) and recovers afterwards.
    let seconds = Duration::from_secs_f64(run.seconds);
    let untraced_for = if run.trace { seconds / 2 } else { seconds };
    let mut recover_s = Vec::new();
    let mut untraced = CallLog::default();
    let mut clock = PhaseClock::start(untraced_for, !run.trace);
    while clock.running() {
        let (took, updates, summary) = client.step(&mut service, tally);
        untraced.record(took, summary.ops, updates);
        clock.maybe_pause(|| recover_s.push(recover_once(&durable, &crash_point, tally)));
    }
    clock.finish(|| recover_s.push(recover_once(&durable, &crash_point, tally)));

    let mut traced = CallLog::default();
    let mut tr = Traced::default();
    let probe = Arc::new(WalProbe::default());
    let mut restore_ms = Vec::new();
    let mut layers = None;
    if run.trace {
        service.enable_metrics();
        start_segments(&mut service, Some(&probe));
        let layer_probe = LayerProbe::start(meters(&service).into_iter());
        let phases_before = phase_times();
        let start = Instant::now();
        while start.elapsed() < seconds - untraced_for {
            let (took, updates, summary) = client.step(&mut service, tally);
            traced.record(took, summary.ops, updates);
            tr.add(&summary);
        }
        layers = Some(layer_probe.stop(meters(&service).into_iter()));
        tr.phases = phase_times();
        for (after, before) in tr.phases.iter_mut().zip(&phases_before) {
            // A family registers on first use, so it may be missing before.
            for (a, b) in after
                .iter_mut()
                .zip(before.iter().chain(std::iter::repeat(&0.0)))
            {
                *a -= b;
            }
        }
        PhaseClock::start(Duration::ZERO, true).finish(|| {
            recover_s.push(recover_once(&durable, &crash_point, tally));
            let t0 = Instant::now();
            let ckpt = sys::read_all(&durable.checkpoint).expect("read the checkpoint");
            let restored = ShardedService::restore_all(&ckpt[..]);
            restore_ms.push(ms(t0.elapsed()));
            tally.check(restored.is_ok(), || "checkpoint restore failed".to_string());
        });
    }
    check_forests(&service, &client.traffic, tally, "after the measured phase");

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
        let generate: Vec<f64> = setups.iter().map(|t| t[0].as_secs_f64()).collect();
        let bulk: Vec<f64> = setups.iter().map(|t| t[1].as_secs_f64()).collect();
        metrics.put("setup.generate_s", median(&generate), "s");
        metrics.put("setup.bulk_load_s", median(&bulk), "s");
        metrics.put(
            "shard.shards_touched_mean",
            ratio(tr.shards_touched as f64, n),
            "shards",
        );
        let [plan, apply, snapshot, busy] = &tr.phases;
        let mean_busy = busy.iter().sum::<f64>() / busy.len().max(1) as f64;
        let max_busy = busy.iter().copied().fold(0.0, f64::max);
        metrics.put("shard.busy_skew", ratio(max_busy, mean_busy), "ratio");
        let per_call_ms = |ns: &Vec<f64>| ns.iter().sum::<f64>() / 1e6 / n;
        metrics.put("engine.plan_ms", per_call_ms(plan), "ms");
        metrics.put("engine.apply_ms", per_call_ms(apply), "ms");
        metrics.put("engine.snapshot_ms", per_call_ms(snapshot), "ms");
        metrics.put("engine.snapshots", tr.snapshots as f64 / n, "1/call");
        metrics.put(
            "engine.cancelled_frac",
            ratio(2.0 * tr.cancelled_pairs as f64, calls.updates as f64),
            "ratio",
        );
        metrics.put(
            "engine.unique_query_frac",
            ratio(tr.unique_queries as f64, tr.queries as f64),
            "ratio",
        );
        layers
            .expect("traced runs probe the layers")
            .put(k, calls, metrics);
        let load = |c: &AtomicU64| c.load(Relaxed) as f64;
        metrics.put("persist.wal_ms", load(&probe.record_ns) / 1e6 / n, "ms");
        metrics.put("persist.fsyncs", load(&probe.syncs) / n, "1/call");
        metrics.put(
            "persist.wal_bytes_per_update",
            ratio(load(&probe.bytes), load(&probe.updates)),
            "B",
        );
        metrics.put("persist.checkpoint_ms", checkpoint_ms, "ms");
        metrics.put("persist.checkpoint_bytes", checkpoint_bytes as f64, "B");
        let restore = median(&restore_ms);
        metrics.put("persist.restore_ms", restore, "ms");
        metrics.put(
            "persist.replay_ms",
            (median(&recover_s) * 1e3 - restore).max(0.0),
            "ms",
        );
        metrics.put(
            "trace.overhead_ratio",
            ratio(calls.ops_per_s(), untraced.ops_per_s()),
            "ratio",
        );
    }
    vec![
        ("wal_fs", wal_fs),
        ("core_k", k.to_string()),
        ("calls", calls.calls().to_string()),
        ("recoveries", recover_s.len().to_string()),
    ]
}
