//! End-to-end and per-layer benchmark of the pdmsf serving stack.
//!
//! ```text
//! perfbench --workload <tenant_mixed|tenant_read_mostly|single_update>
//!           --seed <n> --seconds <s> --trace <0|1> [--scale full|tiny]
//!           [--source <id>]
//! ```
//!
//! Every workload runs through the public API with default constructors,
//! checks every answer it gets, and prints one JSON result as its last
//! line: the end-to-end metrics with `--trace 0`, the per-layer metrics
//! with `--trace 1`. Layers are timed from outside, around calls into
//! their public functions; nothing inside the crates is changed. See
//! README.md for what each metric means.

mod clock;
mod gen;
mod layers;
mod report;
mod single;
mod sys;
mod tenant;
mod wal;

use gen::TenantMix;
use report::{Metrics, Tally};
use single::SingleConfig;
use tenant::TenantConfig;

/// Run-wide settings from the command line.
pub struct Run {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Set-ups per run; `setup_s` is their median.
    pub setup_reps: usize,
}

fn tenant_config(workload: &str, tiny: bool) -> Option<TenantConfig> {
    let read_mostly = match workload {
        "tenant_mixed" => false,
        "tenant_read_mostly" => true,
        _ => return None,
    };
    let (batch_size, query_permille, tail_batches) = match (read_mostly, tiny) {
        (false, false) => (256, 550, 64),
        (true, false) => (4096, 995, 32),
        (false, true) => (64, 550, 8),
        (true, true) => (256, 995, 4),
    };
    let (tenants, tenant_vertices) = if tiny { (4, 64) } else { (16, 1024) };
    Some(TenantConfig {
        shards: if tiny { 2 } else { 4 },
        mix: TenantMix {
            tenants,
            tenant_vertices,
            tenant_edges: 2 * tenant_vertices,
            batch_size,
            burst: batch_size / 8,
            zipf_permille: 1000,
            query_permille,
            flap_permille: 350,
        },
        tail_batches,
        check_every: 8,
    })
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <tenant_mixed|tenant_read_mostly|single_update> \
         --seed <n> --seconds <s> --trace <0|1> [--scale full|tiny] [--source <id>]"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let arg = |name: &str| -> Option<String> {
        args.iter().position(|a| a == name).map(|i| {
            args.get(i + 1)
                .cloned()
                .unwrap_or_else(|| usage(&format!("{name} needs a value")))
        })
    };
    let workload = arg("--workload").unwrap_or_else(|| usage("--workload is required"));
    let seed: u64 = arg("--seed")
        .unwrap_or_else(|| usage("--seed is required"))
        .parse()
        .unwrap_or_else(|_| usage("--seed must be a whole number"));
    let seconds: f64 = arg("--seconds")
        .unwrap_or_else(|| usage("--seconds is required"))
        .parse()
        .ok()
        .filter(|s: &f64| *s > 0.0 && s.is_finite())
        .unwrap_or_else(|| usage("--seconds must be a positive number"));
    let trace = match arg("--trace").as_deref() {
        None | Some("0") => false,
        Some("1") => true,
        Some(_) => usage("--trace must be 0 or 1"),
    };
    let tiny = match arg("--scale").as_deref() {
        None | Some("full") => false,
        Some("tiny") => true,
        Some(_) => usage("--scale must be full or tiny"),
    };
    let source = arg("--source").unwrap_or_else(|| "unknown".to_string());
    let run = Run {
        seed,
        seconds,
        trace,
        setup_reps: if tiny { 2 } else { 3 },
    };

    let mut metrics = Metrics::default();
    let mut tally = Tally::default();
    let extra = if let Some(cfg) = tenant_config(&workload, tiny) {
        tenant::run(&cfg, &run, &mut metrics, &mut tally)
    } else if workload == "single_update" {
        let n = if tiny { 256 } else { 16384 };
        let cfg = SingleConfig {
            n,
            base_edges: n,
            check_every: if tiny { 100 } else { 1000 },
        };
        single::run(&cfg, &run, &mut metrics, &mut tally)
    } else {
        usage(&format!("unknown workload {workload:?}"));
    };

    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut meta: Vec<(&str, String)> = vec![
        ("workload", workload),
        ("seed", seed.to_string()),
        ("source", source),
        ("trace", u8::from(trace).to_string()),
        ("scale", if tiny { "tiny" } else { "full" }.to_string()),
        ("nproc", nproc.to_string()),
        (
            "pool_parallelism",
            pdmsf_pram::pool::parallelism().to_string(),
        ),
    ];
    meta.extend(extra);
    report::print(&meta, &metrics, &tally);
    if !tally.correct() {
        std::process::exit(1);
    }
}
