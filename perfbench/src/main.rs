//! The repository's benchmark: whole campaigns and open-loop serving,
//! with a per-layer split in a separate traced run.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <repro|scale_levels|serve_writes> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --selftest
//! ```
//!
//! Run from the repository root. The last line of standard output is one
//! JSON object: `correct`, `attempted`, `failed` and `metrics` (every
//! end-to-end metric with `--trace 0`, every per-layer metric with
//! `--trace 1`). The line before it records the host facts and the
//! run's details. A correctness failure exits with status 1.

mod campaign;
mod kernels;
mod selftest;
mod serve;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Duration;

use mini_json::Json;

/// Which workloads a metric applies to.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Applies {
    All,
    Campaign,
    Repro,
    Serve,
}

impl Applies {
    pub fn covers(self, workload: &str) -> bool {
        match self {
            Applies::All => true,
            Applies::Campaign => matches!(workload, "repro" | "scale_levels"),
            Applies::Repro => workload == "repro",
            Applies::Serve => workload == "serve_writes",
        }
    }
}

pub const WORKLOADS: [&str; 3] = ["repro", "scale_levels", "serve_writes"];

/// End-to-end metrics, reported with tracing off by every workload.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("wall_1t_s", "s"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("ok_frac", "ratio"),
    ("peak_rss_mb", "MB"),
];

use Applies::*;

/// Per-layer metrics, reported by the traced run. A metric that does not
/// apply to a workload is reported as 0.
pub const PER_LAYER: &[(&str, &str, Applies)] = &[
    ("trace.wall_s", "s", All),
    ("split.campaign_s", "s", Campaign),
    ("split.sim_s", "s", Campaign),
    ("split.meter_s", "s", Campaign),
    ("split.method_s", "s", Campaign),
    ("split.stats_s", "s", Repro),
    ("split.accel_s", "s", Repro),
    ("split.write_s", "s", Campaign),
    ("campaign.tasks", "count", Campaign),
    ("campaign.pool_steals", "count", Campaign),
    ("campaign.pool_imbalance", "ratio", Campaign),
    ("probe.trace_s", "s", Campaign),
    ("probe.levels_s", "s", Campaign),
    ("probe.nodes_s", "s", Repro),
    ("probe.samplesize_s", "s", Repro),
    ("probe.gaming_s", "s", Repro),
    ("probe.coverage_s", "s", Repro),
    ("probe.vid_s", "s", Repro),
    ("probe.accuracy_gap_s", "s", Repro),
    ("probe.t_vs_z_s", "s", Repro),
    ("probe.accel_s", "s", Repro),
    ("probe.occ_s", "s", Repro),
    ("probe.eq5cap_s", "s", Repro),
    ("stats.coverage_s", "s", Repro),
    ("method.gaming_s", "s", Repro),
    ("accel.device_steps_per_s", "1/s", Repro),
    ("sim.node_steps", "count", All),
    ("sim.node_steps_per_s", "1/s", All),
    ("store.hits", "count", All),
    ("store.misses", "count", All),
    ("store.derived", "count", All),
    ("store.coalesced", "count", All),
    ("store.evictions", "count", All),
    ("store.hit_ratio", "ratio", All),
    ("meter.readings", "count", All),
    ("meter.readings_per_s", "1/s", All),
    ("serve.class.window_p50_ms", "ms", Serve),
    ("serve.class.measure_p50_ms", "ms", Serve),
    ("serve.class.create_p50_ms", "ms", Serve),
    ("serve.class.leaderboard_p50_ms", "ms", Serve),
    ("serve.class.window_read_p50_ms", "ms", Serve),
    ("serve.class.healthz_p50_ms", "ms", Serve),
    ("serve.class.systems_p50_ms", "ms", Serve),
    ("serve.class.sample_size_p50_ms", "ms", Serve),
    ("serve.latency_us_mean.trace_window", "us", Serve),
    ("serve.latency_us_mean.measure", "us", Serve),
    ("serve.latency_us_mean.campaigns", "us", Serve),
    ("serve.latency_us_mean.leaderboard", "us", Serve),
    ("serve.latency_us_mean.trace_window_read", "us", Serve),
    ("serve.latency_us_mean.healthz", "us", Serve),
    ("serve.latency_us_mean.systems", "us", Serve),
    ("serve.latency_us_mean.sample_size", "us", Serve),
    ("serve.outside_handler_us", "us", Serve),
    ("serve.max_rps_at_slo", "1/s", Serve),
    ("serve.dispatch_rejected", "count", Serve),
    ("serve.requests_per_conn", "count", Serve),
    ("gen.late_ms_p99", "ms", Serve),
    ("archive.writes", "count", Serve),
    ("archive.hits", "count", Serve),
    ("archive.pruned_queries", "count", Serve),
    ("archive.blocks_skipped", "count", Serve),
    ("archive.bytes", "count", Serve),
    ("archive.encode_mb_per_s", "MB/s", All),
    ("archive.decode_mb_per_s", "MB/s", All),
    ("archive.crc_mb_per_s", "MB/s", All),
    ("archive.compression_ratio", "ratio", All),
    ("fleet.campaigns_created", "count", Serve),
    ("fleet.campaigns_completed", "count", Serve),
    ("fleet.samples", "count", Serve),
];

fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .map(|&(n, u)| (n, u))
        .chain(PER_LAYER.iter().map(|&(n, u, _)| (n, u)))
        .find(|&(n, _)| n == name)
        .map(|(_, u)| u)
}

/// One invocation's parameters.
pub struct Run {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Threads (and client connections) the workload may use: `nproc`.
    pub threads: usize,
    /// Scratch directory for campaign outputs and archives.
    pub work: PathBuf,
    /// Where the traced run's spans go.
    pub out_dir: PathBuf,
}

impl Run {
    pub fn duration(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }

    pub fn trace_path(&self) -> PathBuf {
        self.out_dir
            .join(format!("{}-seed{}.spans.jsonl", self.workload, self.seed))
    }
}

/// What a workload measured.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub metrics: BTreeMap<String, f64>,
    pub details: BTreeMap<String, Json>,
}

impl Outcome {
    pub fn metric(&mut self, name: &str, value: f64) {
        debug_assert!(unit_of(name).is_some(), "undeclared metric {name}");
        self.metrics.insert(name.to_string(), value);
    }

    pub fn detail(&mut self, name: &str, value: f64) {
        self.details.insert(name.to_string(), Json::num(value));
    }

    pub fn detail_str(&mut self, name: &str, value: &str) {
        self.details.insert(name.to_string(), Json::str(value));
    }

    /// `p50_ms` and `tail_ms` from per-operation latencies, one slice per
    /// repetition: each is the median over repetitions of that
    /// repetition's percentile. The tail is the highest percentile that
    /// has ten samples beyond it in every repetition; fewer than 20
    /// samples in a repetition support no percentile, which fails the run.
    pub fn latency(&mut self, reps: &[&[f64]]) {
        let fewest = reps.iter().map(|r| r.len()).min().unwrap_or(0);
        let total: usize = reps.iter().map(|r| r.len()).sum();
        self.detail("latency_samples", total as f64);
        self.detail("latency_repetitions", reps.len() as f64);
        match stats::tail_percentile(fewest) {
            Some(p) => {
                let at = |q: f64| {
                    let v: Vec<f64> = reps.iter().map(|r| stats::percentile(r, q)).collect();
                    stats::median(&v)
                };
                self.metric("p50_ms", at(50.0));
                self.metric("tail_ms", at(p));
                self.detail("tail_percentile", p);
            }
            None => {
                self.attempted += 1;
                self.failed += 1;
                self.failures.push(format!(
                    "a repetition with {fewest} latency samples supports no percentile (need 20)"
                ));
            }
        }
    }

    pub fn store(&mut self, hits: u64, misses: u64, derived: u64, coalesced: u64, evictions: u64) {
        self.metric("store.hits", hits as f64);
        self.metric("store.misses", misses as f64);
        self.metric("store.derived", derived as f64);
        self.metric("store.coalesced", coalesced as f64);
        self.metric("store.evictions", evictions as f64);
        let total = (hits + misses).max(1);
        self.metric("store.hit_ratio", hits as f64 / total as f64);
    }
}

/// Restarts the kernel's peak-RSS count (`VmHWM`) from the current RSS.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Hands the allocator's free memory back to the kernel, so that the
/// next pass starts from the heap a fresh process would have rather than
/// from whatever earlier passes left fragmented.
pub fn trim_heap() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: glibc's malloc_trim only releases free memory.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// The process's peak RSS since start or the last [`reset_peak_rss`].
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The checked-out commit, read from `.git` without leaving the working
/// directory; `unknown` outside a git checkout.
fn git_commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(c) = std::fs::read_to_string(format!(".git/{reference}")) {
        return c.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>\n       perfbench --selftest",
        WORKLOADS.join("|")
    );
    std::process::exit(2)
}

fn parse_args() -> Option<(String, u64, f64, bool)> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1u64, 10.0f64, false);
    let mut i = 0;
    while i < args.len() {
        let value = args.get(i + 1)?;
        match args[i].as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().ok()?,
            "--seconds" => seconds = value.parse().ok().filter(|s: &f64| *s > 0.0)?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return None,
                }
            }
            _ => return None,
        }
        i += 2;
    }
    Some((workload?, seed, seconds, trace))
}

pub fn make_run(workload: &str, seed: u64, seconds: f64, trace: bool) -> Run {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("perfbench/target"));
    Run {
        workload: workload.to_string(),
        seed,
        seconds,
        trace,
        threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
        work: target
            .join("perfbench-work")
            .join(format!("{workload}-{}", std::process::id())),
        out_dir: target.join("perfbench-trace"),
    }
}

/// Runs one workload; `Err` is a set-up failure (nothing was measured).
pub fn execute(run: &Run) -> Result<Outcome, String> {
    let _ = std::fs::remove_dir_all(&run.work);
    std::fs::create_dir_all(&run.work).map_err(|e| format!("{}: {e}", run.work.display()))?;
    let result = match run.workload.as_str() {
        "repro" | "scale_levels" => campaign::run(run),
        "serve_writes" => serve::run(run),
        other => Err(format!("unknown workload `{other}`")),
    };
    let _ = std::fs::remove_dir_all(&run.work);
    result
}

/// Adds the metrics every untraced run reports about itself.
pub fn finish(out: &mut Outcome, trace: bool) {
    out.attempted = out.attempted.max(1);
    if !trace {
        out.metric("ok_frac", 1.0 - out.failed as f64 / out.attempted as f64);
        if !out.metrics.contains_key("peak_rss_mb") {
            out.metric("peak_rss_mb", peak_rss_mb());
        }
    }
}

fn main() {
    if std::env::args().nth(1).as_deref() == Some("--selftest") {
        std::process::exit(selftest::run());
    }
    let Some((workload, seed, seconds, trace)) = parse_args() else {
        usage()
    };
    if !WORKLOADS.contains(&workload.as_str()) {
        usage()
    }
    let run = make_run(&workload, seed, seconds, trace);
    let mut out = match execute(&run) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {workload}: {e}");
            std::process::exit(1)
        }
    };
    finish(&mut out, trace);
    for f in &out.failures {
        eprintln!("perfbench: {workload}: FAILED: {f}");
    }

    let host = Json::object([
        ("nproc", Json::num(run.threads as f64)),
        (
            "profile",
            Json::str(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
        ("commit", Json::str(git_commit())),
        ("seed", Json::num(seed as f64)),
        ("workload", Json::str(workload.clone())),
        ("seconds", Json::num(seconds)),
        ("trace", Json::Bool(trace)),
    ]);
    println!(
        "{}",
        Json::object([
            ("host", host),
            ("details", Json::Object(out.details.clone()))
        ])
        .render()
    );

    let names: Vec<(&str, &str)> = if trace {
        PER_LAYER.iter().map(|&(n, u, _)| (n, u)).collect()
    } else {
        END_TO_END.to_vec()
    };
    let metrics: BTreeMap<String, Json> = names
        .into_iter()
        .map(|(name, unit)| {
            let value = out.metrics.get(name).copied().unwrap_or(0.0);
            (
                name.to_string(),
                Json::object([("value", Json::num(value)), ("unit", Json::str(unit))]),
            )
        })
        .collect();
    let correct = out.failed == 0;
    println!(
        "{}",
        Json::object([
            ("correct", Json::Bool(correct)),
            ("attempted", Json::num(out.attempted as f64)),
            ("failed", Json::num(out.failed as f64)),
            ("metrics", Json::Object(metrics)),
        ])
        .render()
    );
    if !correct {
        std::process::exit(1);
    }
}
