//! The `core` and `pram` layers read from outside over a traced phase:
//! PRAM cost meters of the structures, the worker pool's counters and
//! process CPU time.

use crate::report::{ratio, CallLog, Metrics};
use crate::sys;
use pdmsf_pram::{pool, CostMeter, PoolStats};
use std::time::Duration;

/// Baselines taken when a traced phase starts.
pub struct LayerProbe {
    pool: pool::StatsSnapshot,
    cpu: Duration,
    work: u64,
    depth: u64,
    ops: u64,
}

/// What the `core` and `pram` layers did during a traced phase.
pub struct LayerDelta {
    pool: PoolStats,
    cpu: Duration,
    work: u64,
    depth: u64,
    ops: u64,
    /// The costliest single update since the structures were built (by
    /// depth, then work), as their meters track it.
    worst_work: u64,
    worst_depth: u64,
}

fn sums<'a>(meters: impl Iterator<Item = &'a CostMeter>) -> (u64, u64, u64) {
    meters.fold((0, 0, 0), |(w, d, o), m| {
        (w + m.total().work, d + m.total().depth, o + m.num_ops())
    })
}

impl LayerProbe {
    pub fn start<'a>(meters: impl Iterator<Item = &'a CostMeter>) -> LayerProbe {
        let (work, depth, ops) = sums(meters);
        LayerProbe {
            pool: pool::snapshot(),
            cpu: sys::process_cpu(),
            work,
            depth,
            ops,
        }
    }

    pub fn stop<'a>(self, meters: impl Iterator<Item = &'a CostMeter> + Clone) -> LayerDelta {
        let cpu = sys::process_cpu() - self.cpu;
        let pool = self.pool.delta();
        let (work, depth, ops) = sums(meters.clone());
        let worst = meters
            .map(CostMeter::worst_op)
            .max_by_key(|r| (r.depth, r.work))
            .unwrap_or_default();
        LayerDelta {
            pool,
            cpu,
            work: work - self.work,
            depth: depth - self.depth,
            ops: ops - self.ops,
            worst_work: worst.work,
            worst_depth: worst.depth,
        }
    }
}

impl LayerDelta {
    /// Put the `core.*` and `pram.*` metrics; `calls` is the traced phase.
    pub fn put(&self, k: usize, calls: &CallLog, metrics: &mut Metrics) {
        let ops = self.ops as f64;
        metrics.put("core.work_mean", ratio(self.work as f64, ops), "ops");
        metrics.put("core.work_max", self.worst_work as f64, "ops");
        metrics.put("core.depth_mean", ratio(self.depth as f64, ops), "steps");
        metrics.put("core.depth_max", self.worst_depth as f64, "steps");
        metrics.put(
            "core.update_ms_p999",
            crate::report::quantile(calls.per_update_ms(), 0.999),
            "ms",
        );
        metrics.put("core.k", k as f64, "count");
        let kops = calls.ops as f64 / 1e3;
        metrics.put(
            "pram.cpu_ms_per_kop",
            ratio(self.cpu.as_secs_f64() * 1e3, kops),
            "ms",
        );
        metrics.put(
            "pram.jobs_per_op",
            ratio(self.pool.jobs_run as f64, calls.ops as f64),
            "jobs",
        );
        metrics.put(
            "pram.inline_runs",
            ratio(self.pool.inline_runs as f64, kops),
            "1/kop",
        );
        metrics.put("pram.steals", ratio(self.pool.steals as f64, kops), "1/kop");
    }
}
