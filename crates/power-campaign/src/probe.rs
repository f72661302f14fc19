//! Cell probes: what the `methodologies` grid dimension names.
//!
//! Two probe families share the dimension:
//!
//! * the four EE HPC WG **measurement levels** (`level1` … `level3`,
//!   `revised`) execute a full [`power_method::measure`] plan on the
//!   cell's system/workload/meter/window and report the submitted
//!   numbers;
//! * the **paper-artifact probes** reproduce a table or figure of the
//!   paper for the cell's system: `trace` (Table 2 segment averages),
//!   `figure1` (the Figure 1 power-over-time series), `nodes` (Table 4
//!   per-node statistics), `figure2` (the Figure 2 per-node
//!   histogram), `samplesize` (the Table 5 grid), `gaming` (Section 3
//!   interval exploits), `coverage` (Figure 3 bootstrap
//!   under-coverage at the paper's headline points), `figure3` (its
//!   whole coverage grid), `vid` (the Figure 4 case study),
//!   `recommendation` (the §6 max(16, 10%) rule against Level 1),
//!   `subsystems` (what a compute-only number hides), `imbalance` (the
//!   balanced-workload precondition) plus the machine-free
//!   `accuracy_gap`, `t_vs_z`, `exascale` (the conclusion's caveat) and
//!   `rank_stability` (the §1 Green500 motivation).
//!
//! A third family covers the **accelerator layer** (`power_accel`):
//! `accel` sweeps a binned GPU population capped and uncapped and
//! reports the cap's power-spread-to-runtime-spread conversion, `occ`
//! exercises the on-chip-meter artifact pipeline against a known true
//! series, and `eq5cap` runs the Eq. 5-under-cap coverage study
//! (`power_method::capcov`). Their `systems` entries name
//! [`AccelPreset`]s (`k20x`, `v100`), not `SystemPreset`s.
//!
//! Every probe returns a flat `metric name → f64` map; the engine folds
//! those across seeds. Seed discipline: *simulation* probes fold the
//! campaign seed into the simulation noise stream (each seed is an
//! independent run of the machine), while *measurement* probes pin the
//! simulation seed to the cell and fold the campaign seed into the
//! measurement plan only — so all seeds of one cell share a single
//! cached sweep in the [`TraceStore`] and cross-seed bands isolate
//! metering/selection noise, which is what a repeatability gate on a
//! submission procedure should measure.

use std::collections::BTreeMap;

use crate::grid::Cell;
use crate::scenario::Scale;
use power_accel::{AccelPreset, SweepResult};
use power_green500::list::{november_2014_top, RankedList};
use power_green500::perturb::{rank_stability, PerturbConfig};
use power_meter::device::MeterModel;
use power_meter::occ::OccModel;
use power_method::capcov::{capped_sizing_study, CapCoverageConfig};
use power_method::fraction::FractionRule;
use power_method::gaming::{optimal_interval, unrestricted_interval, vid_bias};
use power_method::level::Methodology;
use power_method::measure::{measure_with_store, MeasurementPlan, NodeSelection, WindowPlacement};
use power_method::subsystems::SubsystemOverheads;
use power_method::window::TimingRule;
use power_sim::cluster::Cluster;
use power_sim::engine::{MeterScope, ProductRequest, SimulationConfig, Simulator};
use power_sim::store::TraceStore;
use power_sim::systems::{LcscCaseStudy, SystemPreset};
use power_sim::trace::SystemTrace;
use power_sim::SimError;
use power_stats::bootstrap::{coverage_study, CoverageConfig};
use power_stats::ci::{mean_ci_t_finite, predicted_relative_accuracy};
use power_stats::empirical::Empirical;
use power_stats::histogram::{Binning, Histogram};
use power_stats::normal::z_critical;
use power_stats::normality::assess_normality;
use power_stats::rng::substream;
use power_stats::sample_size::{paper_table5, SampleSizePlan};
use power_stats::sampling::{gather, sample_without_replacement};
use power_stats::student_t::t_critical;
use power_stats::summary::Summary;
use power_stats::StatsError;
use power_workload::{registry, LoadBalance, RunPhases, Workload};

/// Why a probe could not run its cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProbeError {
    /// Cell identity.
    pub cell: String,
    /// What went wrong.
    pub reason: String,
}

impl std::fmt::Display for ProbeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cell `{}`: {}", self.cell, self.reason)
    }
}

impl std::error::Error for ProbeError {}

/// Metric map produced by one (cell, seed) execution.
pub type Metrics = BTreeMap<String, f64>;

/// All probe names the `methodologies` dimension accepts.
pub fn known_probes() -> Vec<&'static str> {
    let mut names: Vec<&'static str> = Methodology::names().to_vec();
    names.extend([
        "trace",
        "nodes",
        "samplesize",
        "gaming",
        "coverage",
        "figure3",
        "vid",
        "accuracy_gap",
        "t_vs_z",
        "figure1",
        "figure2",
        "recommendation",
        "subsystems",
        "imbalance",
        "exascale",
        "rank_stability",
        "accel",
        "occ",
        "eq5cap",
    ]);
    names
}

/// SplitMix64 finalizer — the seed/stream mixer used everywhere a probe
/// derives an RNG or simulation seed, so streams depend only on the
/// (cell, seed) identity.
fn mix(a: u64, b: u64) -> u64 {
    let mut z = a ^ b.rotate_left(32) ^ 0x9E37_79B9_7F4A_7C15;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn perr(cell: &Cell, reason: impl Into<String>) -> ProbeError {
    ProbeError {
        cell: cell.id(),
        reason: reason.into(),
    }
}

/// The cell's system preset, at its published size.
fn lookup_preset(cell: &Cell) -> Result<SystemPreset, ProbeError> {
    if cell.system.preset == "-" {
        return Err(perr(
            cell,
            format!("probe `{}` needs a system", cell.methodology),
        ));
    }
    SystemPreset::by_name(&cell.system.preset).ok_or_else(|| {
        perr(
            cell,
            format!(
                "unknown system preset `{}` (known: {})",
                cell.system.preset,
                SystemPreset::all_presets()
                    .iter()
                    .map(|p| p.name)
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
        )
    })
}

/// The cell's system preset scaled down to the campaign scale, plus the
/// full machine size it stands for.
fn resolve_preset(cell: &Cell, scale: &Scale) -> Result<(SystemPreset, usize), ProbeError> {
    let preset = lookup_preset(cell)?;
    let full = cell.system.nodes.unwrap_or(preset.cluster_spec.total_nodes);
    let simulated = scale.clamp_nodes(full);
    Ok((preset.with_total_nodes(simulated), full))
}

fn resolve_placement(cell: &Cell) -> Result<WindowPlacement, ProbeError> {
    match cell.window.as_str() {
        "earliest" => Ok(WindowPlacement::Earliest),
        "middle" => Ok(WindowPlacement::Middle),
        "latest" => Ok(WindowPlacement::Latest),
        w => {
            if let Some(frac) = w.strip_prefix("f:") {
                let f: f64 = frac
                    .parse()
                    .map_err(|_| perr(cell, format!("bad window fraction `{w}`")))?;
                if !(0.0..=1.0).contains(&f) {
                    return Err(perr(cell, format!("window fraction `{w}` not in [0, 1]")));
                }
                Ok(WindowPlacement::Fraction(f))
            } else {
                Err(perr(
                    cell,
                    format!("unknown window `{w}` (earliest|middle|latest|f:<0..1>)"),
                ))
            }
        }
    }
}

fn resolve_workload<'a>(
    cell: &Cell,
    preset: &'a SystemPreset,
    boxed: &'a mut Option<Box<dyn Workload>>,
) -> Result<&'a dyn Workload, ProbeError> {
    if cell.workload == "preset" {
        return Ok(preset.workload.workload());
    }
    let base = preset.workload.workload();
    let wl =
        registry::by_name(&cell.workload, base.phases(), base.total_flops()).ok_or_else(|| {
            perr(
                cell,
                format!(
                    "unknown workload `{}` (preset, {})",
                    cell.workload,
                    registry::names().join(", ")
                ),
            )
        })?;
    Ok(&**boxed.insert(wl))
}

fn sim_config(scale: &Scale, core_secs: f64, seed: u64) -> SimulationConfig {
    SimulationConfig {
        dt: scale.dt_for_core(core_secs),
        noise_sigma: 0.01,
        common_noise_sigma: 0.003,
        seed,
        threads: 1,
    }
}

/// Simulates the cell's system and returns the full-machine trace plus
/// phases (Table 2 / gaming input).
fn system_trace(
    cell: &Cell,
    scale: &Scale,
    store: &TraceStore,
    seed: u64,
) -> Result<(SystemTrace, RunPhases, usize), ProbeError> {
    let (preset, full_nodes) = resolve_preset(cell, scale)?;
    let cluster =
        Cluster::build(preset.cluster_spec.clone()).map_err(|e| perr(cell, e.to_string()))?;
    let mut boxed = None;
    let workload = resolve_workload(cell, &preset, &mut boxed)?;
    let phases = workload.phases();
    let cfg = sim_config(scale, phases.core(), mix(cell.sim_tag(), seed));
    let sim = Simulator::new(&cluster, workload, preset.balance, cfg)
        .map_err(|e| perr(cell, e.to_string()))?;
    let products = store
        .products(&sim, &ProductRequest::system_only())
        .map_err(|e| perr(cell, e.to_string()))?;
    let factor = full_nodes as f64 / cluster.len() as f64;
    let trace = products
        .system_trace(MeterScope::Wall)
        .expect("system trace was requested")
        .scaled(factor);
    Ok((trace, phases, full_nodes))
}

fn probe_trace(
    cell: &Cell,
    scale: &Scale,
    store: &TraceStore,
    seed: u64,
) -> Result<Metrics, ProbeError> {
    let (trace, phases, _) = system_trace(cell, scale, store, seed)?;
    let window = |a: f64, b: f64| -> Result<f64, ProbeError> {
        trace
            .window_average(a, b)
            .map_err(|e| perr(cell, e.to_string()))
    };
    let core = window(phases.core_start(), phases.core_end())?;
    let (a, b) = phases.core_segment(0.0, 0.2);
    let first = window(a, b)?;
    let (a, b) = phases.core_segment(0.8, 1.0);
    let last = window(a, b)?;
    let mut m = Metrics::new();
    m.insert("runtime_h".into(), phases.core() / 3600.0);
    m.insert("core_kw".into(), core / 1000.0);
    m.insert("first20_kw".into(), first / 1000.0);
    m.insert("last20_kw".into(), last / 1000.0);
    m.insert("first20_delta_pct".into(), (first / core - 1.0) * 100.0);
    m.insert("last20_delta_pct".into(), (last / core - 1.0) * 100.0);
    Ok(m)
}

/// Segments of the Figure 1 series.
const FIGURE1_SEGMENTS: usize = 20;

/// Figure 1 as a series: whole-machine kW averaged over
/// [`FIGURE1_SEGMENTS`] equal segments of the run, setup and teardown
/// included. Shares its sweep with `trace`.
fn probe_figure1(
    cell: &Cell,
    scale: &Scale,
    store: &TraceStore,
    seed: u64,
) -> Result<Metrics, ProbeError> {
    let (trace, phases, _) = system_trace(cell, scale, store, seed)?;
    let step = phases.total() / FIGURE1_SEGMENTS as f64;
    let mut m = Metrics::new();
    for k in 0..FIGURE1_SEGMENTS {
        let w = trace
            .window_average(k as f64 * step, (k + 1) as f64 * step)
            .map_err(|e| perr(cell, e.to_string()))?;
        m.insert(format!("kw_seg{k:02}"), w / 1000.0);
    }
    Ok(m)
}

/// One sweep's per-node averages over the paper's Table 4 window (core
/// phase minus the first 10%) at `scope`. The time step is nudged off
/// `cfg.dt` so sampling never runs in lockstep with periodic workloads.
fn table4_averages(
    cluster: &Cluster,
    workload: &dyn Workload,
    balance: LoadBalance,
    scope: MeterScope,
    mut cfg: SimulationConfig,
    store: &TraceStore,
) -> Result<Vec<f64>, SimError> {
    let phases = workload.phases();
    cfg.dt *= 1.0371;
    let sim = Simulator::new(cluster, workload, balance, cfg)?;
    let products = store.products(
        &sim,
        &ProductRequest::with_averages(
            phases.core_start() + 0.1 * phases.core(),
            phases.core_end(),
        ),
    )?;
    Ok(products
        .node_averages(scope)
        .expect("averages were requested")
        .to_vec())
}

/// The cell's Table 4 per-node averages, at the preset's meter scope.
fn node_averages(
    cell: &Cell,
    scale: &Scale,
    store: &TraceStore,
    seed: u64,
) -> Result<Vec<f64>, ProbeError> {
    let (preset, _) = resolve_preset(cell, scale)?;
    // Simulate at least 200 nodes so σ estimates have support even when
    // `measured_nodes` is tiny.
    let n = scale.clamp_nodes(
        cell.system
            .nodes
            .unwrap_or_else(|| preset.measured_nodes.max(200)),
    );
    let preset = preset.with_total_nodes(n);
    let cluster =
        Cluster::build(preset.cluster_spec.clone()).map_err(|e| perr(cell, e.to_string()))?;
    let mut boxed = None;
    let workload = resolve_workload(cell, &preset, &mut boxed)?;
    let cfg = sim_config(
        scale,
        workload.phases().core(),
        mix(cell.sim_tag(), seed ^ 0x40),
    );
    table4_averages(&cluster, workload, preset.balance, preset.scope, cfg, store)
        .map_err(|e| perr(cell, e.to_string()))
}

fn probe_nodes(
    cell: &Cell,
    scale: &Scale,
    store: &TraceStore,
    seed: u64,
) -> Result<Metrics, ProbeError> {
    let averages = node_averages(cell, scale, store, seed)?;
    let summary = Summary::from_slice(&averages);
    let mut m = Metrics::new();
    m.insert("simulated_nodes".into(), averages.len() as f64);
    m.insert("mean_w".into(), summary.mean());
    m.insert(
        "sigma_w".into(),
        summary
            .sample_std_dev()
            .map_err(|e| perr(cell, e.to_string()))?,
    );
    m.insert(
        "cv_pct".into(),
        summary
            .coefficient_of_variation()
            .map_err(|e| perr(cell, e.to_string()))?
            * 100.0,
    );
    Ok(m)
}

/// Bins of the Figure 2 histogram.
const FIGURE2_BINS: usize = 16;

/// Figure 2 as a series: the per-node averages of `nodes` in
/// [`FIGURE2_BINS`] equal-width bins over their range, plus the number
/// of prominent modes (the paper's "roughly unimodal").
fn probe_figure2(
    cell: &Cell,
    scale: &Scale,
    store: &TraceStore,
    seed: u64,
) -> Result<Metrics, ProbeError> {
    let averages = node_averages(cell, scale, store, seed)?;
    let h = Histogram::new(&averages, Binning::Fixed(FIGURE2_BINS))
        .map_err(|e| perr(cell, e.to_string()))?;
    let mut m = Metrics::new();
    for (i, &c) in h.counts().iter().enumerate() {
        m.insert(format!("count_b{i:02}"), c as f64);
    }
    m.insert("lo_w".into(), h.bin_edges(0).0);
    m.insert("hi_w".into(), h.bin_edges(FIGURE2_BINS - 1).1);
    m.insert("modes".into(), h.modes(0.25) as f64);
    Ok(m)
}

fn probe_samplesize(cell: &Cell) -> Result<Metrics, ProbeError> {
    let cells = paper_table5().map_err(|e| perr(cell, e.to_string()))?;
    let mut m = Metrics::new();
    for c in cells {
        m.insert(
            format!("n_l{}_cv{}", c.lambda * 100.0, c.cv * 100.0),
            c.nodes as f64,
        );
    }
    Ok(m)
}

fn probe_gaming(
    cell: &Cell,
    scale: &Scale,
    store: &TraceStore,
    seed: u64,
) -> Result<Metrics, ProbeError> {
    let (trace, phases, _) = system_trace(cell, scale, store, seed)?;
    let level1 = optimal_interval(&trace, &phases, &TimingRule::level1(), scale.placements)
        .map_err(|e| perr(cell, e.to_string()))?;
    let open = unrestricted_interval(&trace, &phases, 0.2, scale.placements)
        .map_err(|e| perr(cell, e.to_string()))?;
    let mut m = Metrics::new();
    m.insert("honest_kw".into(), level1.honest_w / 1000.0);
    m.insert("level1_gain_pct".into(), level1.gaming_gain() * 100.0);
    m.insert(
        "level1_spread_pct".into(),
        level1.measurement_spread() * 100.0,
    );
    m.insert("unrestricted_gain_pct".into(), open.gaming_gain() * 100.0);
    Ok(m)
}

/// Figure 3's bootstrap study on the cell's Table 4 pilot: coverage of
/// `t` intervals at each of `sample_sizes` × `confidences`.
fn coverage_metrics(
    cell: &Cell,
    scale: &Scale,
    store: &TraceStore,
    seed: u64,
    sample_sizes: Vec<usize>,
    confidences: Vec<f64>,
) -> Result<Metrics, ProbeError> {
    let averages = node_averages(cell, scale, store, seed)?;
    let pilot = Empirical::new(&averages).map_err(|e| perr(cell, e.to_string()))?;
    let cfg = CoverageConfig {
        population_size: scale.bootstrap_population,
        sample_sizes,
        confidences,
        replications: scale.bootstrap_reps,
        // Fixed worker count: the study's RNG substreams are per worker,
        // so this must not follow the campaign's --threads.
        threads: 2,
        seed: mix(cell.stream_tag(), seed ^ 0xF163),
    };
    let points = coverage_study(&pilot, &cfg).map_err(|e| perr(cell, e.to_string()))?;
    let mut m = Metrics::new();
    for p in points {
        m.insert(
            format!("coverage_n{}_c{}", p.n, (p.confidence * 100.0).round()),
            p.coverage,
        );
    }
    Ok(m)
}

fn probe_coverage(
    cell: &Cell,
    scale: &Scale,
    store: &TraceStore,
    seed: u64,
) -> Result<Metrics, ProbeError> {
    coverage_metrics(cell, scale, store, seed, vec![5, 10, 20], vec![0.95])
}

/// Figure 3 as a series: the paper's whole coverage grid (n = 3 … 50 at
/// 80/95/99 %, [`CoverageConfig::paper_figure3`]).
fn probe_figure3(
    cell: &Cell,
    scale: &Scale,
    store: &TraceStore,
    seed: u64,
) -> Result<Metrics, ProbeError> {
    let paper = CoverageConfig::paper_figure3(scale.bootstrap_population, scale.bootstrap_reps, 0);
    coverage_metrics(
        cell,
        scale,
        store,
        seed,
        paper.sample_sizes,
        paper.confidences,
    )
}

/// Full-load steady-state wall power of one node: iterate the
/// thermal/fan/power fixed point (the Figure 4 operating point).
fn steady_power(cluster: &Cluster, node: usize) -> f64 {
    let thermal = &cluster.spec().node.thermal;
    let mut temp = 60.0;
    let mut power = cluster
        .node_power(node, 0.0, 1.0, temp)
        .expect("node exists");
    for _ in 0..20 {
        let heat = power.dc_w - power.fan_w;
        temp = thermal.steady_temp(heat, power.fan_speed);
        power = cluster
            .node_power(node, 0.0, 1.0, temp)
            .expect("node exists");
    }
    power.wall_w
}

/// One L-CSC node's Figure 4 efficiencies, in GFLOPS/W.
#[derive(Debug, Clone, Copy)]
struct VidNode {
    /// At the tuned settings (774 MHz / 1.018 V, slow fans).
    eff_tuned: f64,
    /// At the default settings (900 MHz / VID voltage, fast fans).
    eff_default: f64,
}

/// Every L-CSC node under the tuned and default Figure 4
/// configurations, plus the default-settings machine (for the VID bias
/// scan).
fn vid_nodes(cell: &Cell) -> Result<(Vec<VidNode>, Cluster), ProbeError> {
    let cs = LcscCaseStudy::new();
    let tuned = Cluster::build(cs.cluster_spec.clone()).map_err(|e| perr(cell, e.to_string()))?;
    let default = tuned
        .clone()
        .with_governor(cs.default_governor.clone())
        .map_err(|e| perr(cell, e.to_string()))?
        .with_fan_policy(cs.fast_fans)
        .map_err(|e| perr(cell, e.to_string()))?;
    let gf_tuned = cs.gflops_at(774.0);
    let gf_default = cs.gflops_at(900.0);
    let nodes = (0..tuned.len())
        .map(|node| VidNode {
            eff_tuned: gf_tuned / steady_power(&tuned, node),
            eff_default: gf_default / steady_power(&default, node),
        })
        .collect();
    Ok((nodes, default))
}

fn probe_vid(cell: &Cell) -> Result<Metrics, ProbeError> {
    let (nodes, default) = vid_nodes(cell)?;
    let (mut eff_tuned, mut eff_default) = (0.0, 0.0);
    for node in &nodes {
        eff_tuned += node.eff_tuned;
        eff_default += node.eff_default;
    }
    eff_tuned /= nodes.len() as f64;
    eff_default /= nodes.len() as f64;
    let bias = vid_bias(&default, 16, 60.0).map_err(|e| perr(cell, e.to_string()))?;
    let mut m = Metrics::new();
    m.insert("eff_tuned_gflops_w".into(), eff_tuned);
    m.insert("eff_default_gflops_w".into(), eff_default);
    m.insert(
        "tuned_gain_pct".into(),
        (eff_tuned / eff_default - 1.0) * 100.0,
    );
    m.insert("vid_bias_pct".into(), bias.bias * 100.0);
    Ok(m)
}

fn probe_accuracy_gap(cell: &Cell) -> Result<Metrics, ProbeError> {
    let small_n = 210u64.div_ceil(64);
    let large_n = 18_688u64.div_ceil(64);
    let small_lambda = predicted_relative_accuracy(0.95, 0.02, small_n, true)
        .map_err(|e| perr(cell, e.to_string()))?;
    let plan = SampleSizePlan::new(0.95, 0.01, 0.02).map_err(|e| perr(cell, e.to_string()))?;
    let large_lambda = plan
        .achieved_lambda(large_n, 18_688)
        .map_err(|e| perr(cell, e.to_string()))?;
    let mut m = Metrics::new();
    m.insert("small_n".into(), small_n as f64);
    m.insert("small_lambda_pct".into(), small_lambda * 100.0);
    m.insert("large_n".into(), large_n as f64);
    m.insert("large_lambda_pct".into(), large_lambda * 100.0);
    Ok(m)
}

/// Width ratio of the 95% t interval to the z interval at sample size
/// `n` (`nu = n - 1`): how much too narrow the z interval is.
fn t_over_z(n: u64, z: f64) -> Result<f64, StatsError> {
    Ok(t_critical(0.95, n as f64 - 1.0)? / z)
}

fn probe_t_vs_z(cell: &Cell) -> Result<Metrics, ProbeError> {
    let z = z_critical(0.95).map_err(|e| perr(cell, e.to_string()))?;
    let mut m = Metrics::new();
    m.insert("z_crit".into(), z);
    for n in [3u64, 10, 50] {
        let ratio = t_over_z(n, z).map_err(|e| perr(cell, e.to_string()))?;
        m.insert(format!("t_over_z_n{n}"), ratio);
    }
    Ok(m)
}

/// The machine size a rule-evaluation probe reasons about: the cell's
/// `nodes` override or the preset's published population.
fn population_and_node_w(cell: &Cell) -> Result<(usize, f64), ProbeError> {
    let preset = lookup_preset(cell)?;
    Ok((
        cell.system.nodes.unwrap_or(preset.targets.population),
        preset.targets.mean_node_w.unwrap_or(400.0),
    ))
}

/// §6: the nodes Level 1's fraction rule and the revised max(16, 10%)
/// rule demand on the cell's machine, and the 95% accuracy each count
/// reaches at sigma/mu = 2.5%.
fn probe_recommendation(cell: &Cell) -> Result<Metrics, ProbeError> {
    let (population, node_w) = population_and_node_w(cell)?;
    let level1 = FractionRule::level1()
        .required_nodes(population, node_w)
        .map_err(|e| perr(cell, e.to_string()))?;
    let revised = FractionRule::revised()
        .required_nodes(population, node_w)
        .map_err(|e| perr(cell, e.to_string()))?;
    let plan = SampleSizePlan::new(0.95, 0.01, 0.025).map_err(|e| perr(cell, e.to_string()))?;
    let lambda = |n: usize| {
        plan.achieved_lambda(n as u64, population as u64)
            .map_err(|e| perr(cell, e.to_string()))
    };
    let mut m = Metrics::new();
    m.insert("population".into(), population as f64);
    m.insert("level1_nodes".into(), level1 as f64);
    m.insert("revised_nodes".into(), revised as f64);
    m.insert("level1_lambda_pct".into(), lambda(level1)? * 100.0);
    m.insert("revised_lambda_pct".into(), lambda(revised)? * 100.0);
    Ok(m)
}

/// Aspect 3: how much a compute-only (Level 1) number overstates
/// efficiency once typical interconnect, storage and infrastructure
/// overheads are counted.
fn probe_subsystems(cell: &Cell) -> Result<Metrics, ProbeError> {
    let (n, node_w) = population_and_node_w(cell)?;
    let compute_w = node_w * n as f64;
    let overheads = SubsystemOverheads::typical_cluster(n);
    let overstatement = overheads
        .efficiency_overstatement(n, compute_w)
        .map_err(|e| perr(cell, e.to_string()))?;
    let mut m = Metrics::new();
    m.insert("compute_kw".into(), compute_w / 1000.0);
    m.insert("overheads_kw".into(), overheads.total_w(n) / 1000.0);
    m.insert("overstatement_pct".into(), overstatement * 100.0);
    Ok(m)
}

/// The conclusion's caveat, quantified: Eq. 5's node count for 1% at
/// 95% against the revised rule's, and the accuracy the revised count
/// reaches, for machines of 10^4 to 10^6 nodes and sigma/mu up to 10%.
fn probe_exascale(cell: &Cell) -> Result<Metrics, ProbeError> {
    let mut m = Metrics::new();
    for population in [10_000u64, 100_000, 1_000_000] {
        let revised = FractionRule::revised()
            .required_nodes(population as usize, 400.0)
            .map_err(|e| perr(cell, e.to_string()))? as u64;
        m.insert(format!("revised_nodes_N{population}"), revised as f64);
        for cv_pct in [2u32, 5, 10] {
            let plan = SampleSizePlan::new(0.95, 0.01, f64::from(cv_pct) / 100.0)
                .map_err(|e| perr(cell, e.to_string()))?;
            let eq5 = plan
                .required_nodes(population)
                .map_err(|e| perr(cell, e.to_string()))?;
            let lambda = plan
                .achieved_lambda(revised.min(population), population)
                .map_err(|e| perr(cell, e.to_string()))?;
            m.insert(format!("eq5_nodes_N{population}_cv{cv_pct}"), eq5 as f64);
            m.insert(
                format!("revised_lambda_pct_N{population}_cv{cv_pct}"),
                lambda * 100.0,
            );
        }
    }
    Ok(m)
}

/// Fewest nodes the imbalance study simulates: TU Dresden's 210, so the
/// hot/cold split has support however small `Scale::max_nodes` is.
const IMBALANCE_FLOOR_NODES: usize = 210;

/// Machine size of the imbalance study: twice the cell's machine, clamped
/// to the scale, but never below the machine itself or
/// [`IMBALANCE_FLOOR_NODES`], whichever is smaller.
fn imbalance_nodes(population: usize, scale: &Scale) -> usize {
    scale
        .clamp_nodes(2 * population)
        .max(population.min(IMBALANCE_FLOOR_NODES))
}

/// The balanced-workload precondition (the Davis et al. regime the paper
/// excludes): the machine of [`imbalance_nodes`] under a balanced and a
/// hot/cold data-intensive load, each sampled
/// `max(200, rank_reps / 10)` times at the node count Eq. 4 plans from
/// sigma/mu = 2.5%.
fn probe_imbalance(
    cell: &Cell,
    scale: &Scale,
    store: &TraceStore,
    seed: u64,
) -> Result<Metrics, ProbeError> {
    let e = |e: &dyn std::fmt::Display| perr(cell, e.to_string());
    let preset = lookup_preset(cell)?;
    let population = cell.system.nodes.unwrap_or(preset.targets.population);
    let nodes = imbalance_nodes(population, scale);
    let preset = preset.with_total_nodes(nodes);
    let cluster = Cluster::build(preset.cluster_spec.clone()).map_err(|x| e(&x))?;
    let workload = preset.workload.workload();
    let base = mix(cell.sim_tag(), seed);
    let averages_for = |balance: LoadBalance, stream: u64| {
        let cfg = sim_config(scale, workload.phases().core(), base ^ stream);
        table4_averages(&cluster, workload, balance, MeterScope::Wall, cfg, store)
            .map_err(|x| e(&x))
    };
    let balanced = averages_for(LoadBalance::Balanced, 0xBA1)?;
    let hotcold = averages_for(
        LoadBalance::HotCold {
            hot_fraction: 0.3,
            cold_factor: 0.25,
        },
        0xB0C0,
    )?;
    let cv = |xs: &[f64]| {
        Summary::from_slice(xs)
            .coefficient_of_variation()
            .map_err(|x| e(&x))
    };
    let planned_n = SampleSizePlan::new(0.95, 0.01, 0.025)
        .and_then(|p| p.required_nodes(nodes as u64))
        .map_err(|x| e(&x))? as usize;
    // Repeated campaigns: 95% CI coverage and the 95th-percentile error.
    let reps = (scale.rank_reps / 10).max(200);
    let study = |xs: &[f64], stream: u64| -> Result<(f64, f64), ProbeError> {
        let truth = xs.iter().sum::<f64>() / xs.len() as f64;
        let mut hits = 0usize;
        let mut errs = Vec::with_capacity(reps);
        for rep in 0..reps {
            let mut rng = substream(base ^ stream, rep as u64);
            let idx =
                sample_without_replacement(&mut rng, xs.len(), planned_n).map_err(|x| e(&x))?;
            let summary = Summary::from_slice(&gather(xs, &idx));
            let ci = mean_ci_t_finite(&summary, 0.95, xs.len() as u64).map_err(|x| e(&x))?;
            hits += usize::from(ci.contains(truth));
            errs.push((summary.mean() - truth).abs() / truth);
        }
        errs.sort_by(f64::total_cmp);
        Ok((
            hits as f64 / reps as f64,
            errs[(reps as f64 * 0.95) as usize - 1],
        ))
    };
    let (balanced_coverage, balanced_err95) = study(&balanced, 0x1CE)?;
    let (hotcold_coverage, hotcold_err95) = study(&hotcold, 0x2CE)?;
    let (balanced_cv, hotcold_cv) = (cv(&balanced)?, cv(&hotcold)?);
    let needed_n = SampleSizePlan::new(0.95, 0.01, hotcold_cv)
        .and_then(|p| p.required_nodes(nodes as u64))
        .map_err(|x| e(&x))? as usize;
    let normal = |xs: &[f64]| -> Result<f64, ProbeError> {
        let safe = assess_normality(xs).map_err(|x| e(&x))?.procedure_is_safe();
        Ok(if safe { 1.0 } else { 0.0 })
    };
    let mut m = Metrics::new();
    m.insert("nodes".into(), nodes as f64);
    m.insert("planned_n".into(), planned_n as f64);
    m.insert("balanced_cv_pct".into(), balanced_cv * 100.0);
    m.insert("hotcold_cv_pct".into(), hotcold_cv * 100.0);
    m.insert("balanced_coverage_pct".into(), balanced_coverage * 100.0);
    m.insert("hotcold_coverage_pct".into(), hotcold_coverage * 100.0);
    m.insert("balanced_err95_pct".into(), balanced_err95 * 100.0);
    m.insert("hotcold_err95_pct".into(), hotcold_err95 * 100.0);
    m.insert("hotcold_needed_n".into(), needed_n as f64);
    m.insert("balanced_normal".into(), normal(&balanced)?);
    m.insert("hotcold_normal".into(), normal(&hotcold)?);
    // The ratios the paper's argument rests on, so gates can bound them.
    m.insert("cv_ratio".into(), hotcold_cv / balanced_cv);
    m.insert("err95_ratio".into(), hotcold_err95 / balanced_err95);
    m.insert(
        "needed_over_planned".into(),
        needed_n as f64 / planned_n as f64,
    );
    Ok(m)
}

/// Measurement spreads of the rank-stability sweep, in percent.
const RANK_SPREADS_PCT: [u32; 5] = [1, 2, 5, 10, 20];

/// §1 motivation: how often the synthetic Nov-2014 Green500 top-10 keeps
/// its #1 and its top-3 under uniform measurement spreads of
/// [`RANK_SPREADS_PCT`], over `rank_reps` Monte Carlo re-measurements.
fn probe_rank_stability(cell: &Cell, scale: &Scale, seed: u64) -> Result<Metrics, ProbeError> {
    let list = RankedList::new(november_2014_top()).map_err(|e| perr(cell, e.to_string()))?;
    let mut m = Metrics::new();
    for spread in RANK_SPREADS_PCT {
        let s = rank_stability(
            &list,
            &PerturbConfig {
                measured_spread: f64::from(spread) / 100.0,
                replications: scale.rank_reps,
                seed: mix(cell.stream_tag(), seed) ^ 0x9A6E,
            },
        )
        .map_err(|e| perr(cell, e.to_string()))?;
        m.insert(format!("top1_pct_s{spread:02}"), s.top1_retention * 100.0);
        m.insert(
            format!("top3_set_pct_s{spread:02}"),
            s.top3_set_retention * 100.0,
        );
        m.insert(
            format!("top3_order_pct_s{spread:02}"),
            s.top3_order_retention * 100.0,
        );
        m.insert(format!("displacement_s{spread:02}"), s.mean_displacement);
    }
    Ok(m)
}

fn resolve_accel(cell: &Cell, scale: &Scale) -> Result<(AccelPreset, usize), ProbeError> {
    if cell.system.preset == "-" {
        return Err(perr(
            cell,
            format!("probe `{}` needs an accelerator system", cell.methodology),
        ));
    }
    let preset = AccelPreset::by_name(&cell.system.preset).ok_or_else(|| {
        perr(
            cell,
            format!(
                "unknown accelerator preset `{}` (known: {})",
                cell.system.preset,
                AccelPreset::names().join(", ")
            ),
        )
    })?;
    let devices = scale.clamp_nodes(cell.system.nodes.unwrap_or(preset.devices));
    Ok((preset, devices))
}

/// Builds the cell's device population and runs the uncapped and capped
/// fixed-work sweeps. The per-device work shrinks with `dt_scale` (the
/// campaign's speed knob) but keeps enough governor ticks to settle.
fn accel_sweeps(
    cell: &Cell,
    scale: &Scale,
    seed: u64,
) -> Result<(AccelPreset, SweepResult, SweepResult), ProbeError> {
    let (preset, devices) = resolve_accel(cell, scale)?;
    let pop = preset
        .population(Some(devices), mix(cell.sim_tag(), seed))
        .map_err(|e| perr(cell, e.to_string()))?;
    let mut uncapped_cfg = preset.sweep_config(false);
    uncapped_cfg.work_gflop =
        (preset.work_gflop / scale.dt_scale).max(preset.spec.gflops_at_fmax * preset.dt_s * 16.0);
    let mut capped_cfg = uncapped_cfg;
    capped_cfg.cap_w = Some(preset.cap_w);
    let uncapped = pop
        .sweep(&uncapped_cfg)
        .map_err(|e| perr(cell, e.to_string()))?;
    let capped = pop
        .sweep(&capped_cfg)
        .map_err(|e| perr(cell, e.to_string()))?;
    Ok((preset, uncapped, capped))
}

fn probe_accel(cell: &Cell, scale: &Scale, seed: u64) -> Result<Metrics, ProbeError> {
    let (preset, uncapped, capped) = accel_sweeps(cell, scale, seed)?;
    let mut m = Metrics::new();
    m.insert("devices".into(), uncapped.runs.len() as f64);
    m.insert("cap_w".into(), preset.cap_w);
    m.insert("uncapped_mean_w".into(), uncapped.mean_power_w());
    m.insert("capped_mean_w".into(), capped.mean_power_w());
    m.insert("uncapped_power_cv_pct".into(), uncapped.power_cv() * 100.0);
    m.insert("capped_power_cv_pct".into(), capped.power_cv() * 100.0);
    m.insert("runtime_cv_pct".into(), capped.runtime_cv() * 100.0);
    m.insert("runtime_spread_pct".into(), capped.runtime_spread() * 100.0);
    m.insert("energy_cv_pct".into(), capped.energy_cv() * 100.0);
    m.insert(
        "throttled_pct".into(),
        capped.throttled_device_frac() * 100.0,
    );
    m.insert("max_over_cap_w".into(), capped.max_over_cap_w());
    Ok(m)
}

/// Exercises the OCC artifact pipeline (cadence, quantization, gain,
/// offset, read latency) against a sinusoidal true power series at the
/// accelerator's TDP scale, reporting the end-to-end measurement error.
fn probe_occ(cell: &Cell, scale: &Scale, seed: u64) -> Result<Metrics, ProbeError> {
    let (preset, _) = resolve_accel(cell, scale)?;
    let model = OccModel::power9();
    let mut rng = power_stats::rng::substream(mix(cell.stream_tag(), seed), 0x0CC);
    let occ = model
        .instantiate(&mut rng)
        .map_err(|e| perr(cell, e.to_string()))?;
    // A ±5% sine at the card's TDP, 60 s period, 600 s of 50 ms samples.
    let dt = 0.05;
    let mean = preset.spec.tdp_w;
    let series: Vec<f64> = (0..12_000)
        .map(|i| {
            let t = (i as f64 + 0.5) * dt;
            mean * (1.0 + 0.05 * (2.0 * std::f64::consts::PI * t / 60.0).sin())
        })
        .collect();
    let reading = occ
        .measure(&series, 0.0, dt, 60.0, 540.0)
        .map_err(|e| perr(cell, e.to_string()))?;
    let first = (reading.t_start / dt) as usize;
    let last = (reading.t_end / dt) as usize;
    let truth = series[first..last].iter().sum::<f64>() / (last - first) as f64;
    let mut m = Metrics::new();
    m.insert("true_w".into(), truth);
    m.insert("occ_w".into(), reading.average_w);
    m.insert(
        "occ_error_pct".into(),
        (reading.average_w / truth - 1.0) * 100.0,
    );
    m.insert("gain_err_pct".into(), (occ.gain() - 1.0) * 100.0);
    m.insert("offset_w".into(), occ.offset());
    m.insert("staleness_s".into(), occ.staleness(0.0, 120.0));
    m.insert("samples".into(), reading.samples as f64);
    Ok(m)
}

/// The headline experiment: does Eq. 5 sizing still cover at nominal
/// confidence under a power cap? Four Monte Carlo coverage studies over
/// the cell's device population (see `power_method::capcov`).
fn probe_eq5cap(cell: &Cell, scale: &Scale, seed: u64) -> Result<Metrics, ProbeError> {
    let (_, uncapped, capped) = accel_sweeps(cell, scale, seed)?;
    let cfg = CapCoverageConfig {
        confidence: 0.95,
        lambda: 0.01,
        reps: scale.bootstrap_reps.min(1 << 20) as u32,
        seed: mix(cell.stream_tag(), seed ^ 0xE05),
    };
    let study = capped_sizing_study(
        &uncapped.powers_w(),
        &capped.powers_w(),
        &capped.energies_j(),
        &cfg,
    )
    .map_err(|e| perr(cell, e.to_string()))?;
    let mut m = Metrics::new();
    m.insert("devices".into(), uncapped.runs.len() as f64);
    m.insert(
        "uncapped_power_cv_pct".into(),
        study.uncapped_power.sizing_cv * 100.0,
    );
    m.insert(
        "capped_power_cv_pct".into(),
        study.capped_power.sizing_cv * 100.0,
    );
    m.insert(
        "capped_energy_cv_pct".into(),
        study.capped_energy_runtime_aware.sizing_cv * 100.0,
    );
    m.insert(
        "n_uncapped_power".into(),
        study.uncapped_power.required_n as f64,
    );
    m.insert(
        "n_power_sized".into(),
        study.capped_energy_power_sized.required_n as f64,
    );
    m.insert(
        "n_runtime_aware".into(),
        study.capped_energy_runtime_aware.required_n as f64,
    );
    m.insert(
        "cov_uncapped_power_pct".into(),
        study.uncapped_power.coverage * 100.0,
    );
    m.insert(
        "cov_capped_power_pct".into(),
        study.capped_power.coverage * 100.0,
    );
    m.insert(
        "cov_energy_naive_pct".into(),
        study.capped_energy_power_sized.coverage * 100.0,
    );
    m.insert(
        "cov_energy_aware_pct".into(),
        study.capped_energy_runtime_aware.coverage * 100.0,
    );
    m.insert(
        "naive_shortfall_pct".into(),
        study.capped_energy_power_sized.shortfall() * 100.0,
    );
    Ok(m)
}

fn probe_measure(
    cell: &Cell,
    methodology: Methodology,
    scale: &Scale,
    store: &TraceStore,
    seed: u64,
) -> Result<Metrics, ProbeError> {
    let (preset, _) = resolve_preset(cell, scale)?;
    let cluster =
        Cluster::build(preset.cluster_spec.clone()).map_err(|e| perr(cell, e.to_string()))?;
    let mut boxed = None;
    let workload = resolve_workload(cell, &preset, &mut boxed)?;
    let meter = MeterModel::by_name(&cell.meter).ok_or_else(|| {
        perr(
            cell,
            format!(
                "unknown meter `{}` ({})",
                cell.meter,
                MeterModel::names().join(", ")
            ),
        )
    })?;
    let placement = resolve_placement(cell)?;
    // Simulation seed pinned to the cell: all campaign seeds of this cell
    // share one sweep in the store; the campaign seed drives the plan.
    let cfg = sim_config(scale, workload.phases().core(), mix(cell.sim_tag(), 0x51D));
    let plan = MeasurementPlan {
        methodology,
        meter_model: meter,
        selection: NodeSelection::Random,
        placement,
        overheads: power_method::subsystems::SubsystemOverheads::none(),
        overhead_estimate_error: 0.10,
        seed: mix(cell.stream_tag(), seed ^ 0x3EA5),
    };
    let m = measure_with_store(store, &cluster, workload, preset.balance, cfg, &plan)
        .map_err(|e| perr(cell, e.to_string()))?;
    let mut out = Metrics::new();
    out.insert("reported_kw".into(), m.reported_power_w / 1000.0);
    out.insert("metered_nodes".into(), m.metered_nodes.len() as f64);
    out.insert("machine_fraction_pct".into(), m.machine_fraction() * 100.0);
    if m.rmax_flops > 0.0 {
        out.insert("gflops_per_w".into(), m.flops_per_watt() / 1.0e9);
    }
    if let Some(a) = &m.assessment {
        out.insert("relative_accuracy_pct".into(), a.relative_accuracy * 100.0);
    }
    Ok(out)
}

/// Runs the cell's probe for one campaign seed.
pub fn run_probe(
    cell: &Cell,
    seed: u64,
    scale: &Scale,
    store: &TraceStore,
) -> Result<Metrics, ProbeError> {
    if let Some(methodology) = Methodology::by_name(&cell.methodology) {
        return probe_measure(cell, methodology, scale, store, seed);
    }
    match cell.methodology.as_str() {
        "trace" => probe_trace(cell, scale, store, seed),
        "nodes" => probe_nodes(cell, scale, store, seed),
        "samplesize" => probe_samplesize(cell),
        "gaming" => probe_gaming(cell, scale, store, seed),
        "coverage" => probe_coverage(cell, scale, store, seed),
        "figure3" => probe_figure3(cell, scale, store, seed),
        "vid" => probe_vid(cell),
        "accuracy_gap" => probe_accuracy_gap(cell),
        "t_vs_z" => probe_t_vs_z(cell),
        "figure1" => probe_figure1(cell, scale, store, seed),
        "figure2" => probe_figure2(cell, scale, store, seed),
        "recommendation" => probe_recommendation(cell),
        "subsystems" => probe_subsystems(cell),
        "imbalance" => probe_imbalance(cell, scale, store, seed),
        "exascale" => probe_exascale(cell),
        "rank_stability" => probe_rank_stability(cell, scale, seed),
        "accel" => probe_accel(cell, scale, seed),
        "occ" => probe_occ(cell, scale, seed),
        "eq5cap" => probe_eq5cap(cell, scale, seed),
        other => Err(perr(
            cell,
            format!(
                "unknown probe `{other}` (known: {})",
                known_probes().join(", ")
            ),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::expand;
    use crate::scenario::Scenario;

    fn one_cell(grid_json: &str) -> Cell {
        let s = Scenario::parse(&format!(
            r#"{{"name":"t","seeds":[1],"grids":[{grid_json}]}}"#
        ))
        .unwrap();
        expand(&s).remove(0)
    }

    fn tiny_scale() -> Scale {
        Scale {
            max_nodes: 64,
            dt_scale: 16.0,
            placements: 21,
            bootstrap_reps: 200,
            bootstrap_population: 128,
            rank_reps: 200,
        }
    }

    #[test]
    fn samplesize_probe_matches_table5() {
        let cell = one_cell(r#"{"name":"g","methodologies":["samplesize"]}"#);
        let m = run_probe(&cell, 1, &tiny_scale(), TraceStore::global()).unwrap();
        let mut grid = Vec::new();
        for lambda in ["0.5", "1", "1.5", "2"] {
            for cv in [2, 3, 5] {
                grid.push(m[&format!("n_l{lambda}_cv{cv}")]);
            }
        }
        let paper = [62, 137, 370, 16, 35, 96, 7, 16, 43, 4, 9, 24].map(f64::from);
        assert_eq!(grid, paper);
        assert_eq!(m.len(), 12);
    }

    #[test]
    fn t_vs_z_and_accuracy_gap_are_seed_free() {
        let cell = one_cell(r#"{"name":"g","methodologies":["t_vs_z"]}"#);
        let a = run_probe(&cell, 1, &tiny_scale(), TraceStore::global()).unwrap();
        let b = run_probe(&cell, 99, &tiny_scale(), TraceStore::global()).unwrap();
        assert_eq!(a, b);
        assert!(a["t_over_z_n3"] > 2.0, "t blows up at n=3: {a:?}");
        let cell = one_cell(r#"{"name":"g","methodologies":["accuracy_gap"]}"#);
        let m = run_probe(&cell, 1, &tiny_scale(), TraceStore::global()).unwrap();
        assert_eq!(m["small_n"], 4.0);
        assert_eq!(m["large_n"], 292.0);
        assert!(m["small_lambda_pct"] > m["large_lambda_pct"]);
        // The paper's §4 figures: within 3.2% on 210 nodes, 0.2% on 18 688.
        assert!((m["small_lambda_pct"] - 3.2).abs() < 0.2, "{m:?}");
        assert!((m["large_lambda_pct"] - 0.2).abs() < 0.05, "{m:?}");
    }

    #[test]
    fn t_over_z_at_n15_is_the_papers_nine_percent() {
        let z = z_critical(0.95).unwrap();
        let ratio = t_over_z(15, z).unwrap();
        assert!((ratio - 1.094).abs() < 0.002, "{ratio}");
        // The ratio falls toward 1 as n grows.
        let ratios: Vec<f64> = [3u64, 5, 10, 15, 20, 30, 50, 100]
            .into_iter()
            .map(|n| t_over_z(n, z).unwrap())
            .collect();
        for w in ratios.windows(2) {
            assert!(w[1] < w[0], "{ratios:?}");
        }
    }

    #[test]
    fn trace_probe_reproduces_lcsc_tail() {
        let cell = one_cell(r#"{"name":"g","systems":["l-csc"],"methodologies":["trace"]}"#);
        let m = run_probe(&cell, 1, &tiny_scale(), TraceStore::global()).unwrap();
        // L-CSC: last-20% average is >15% below the core average.
        assert!(m["last20_delta_pct"] < -15.0, "{m:?}");
        assert!(m["core_kw"] > 40.0 && m["core_kw"] < 80.0, "{m:?}");
    }

    fn probe_rows(systems: &[&str], probe: &str, scale: &Scale, seed: u64) -> Vec<Metrics> {
        systems
            .iter()
            .map(|sys| {
                let cell = one_cell(&format!(
                    r#"{{"name":"g","systems":["{sys}"],"methodologies":["{probe}"]}}"#
                ));
                run_probe(&cell, seed, scale, TraceStore::global()).unwrap()
            })
            .collect()
    }

    const TRACE_SYSTEMS: [&str; 4] = ["colosse", "sequoia-25", "piz daint", "l-csc"];
    const VARIABILITY_SYSTEMS: [&str; 6] = [
        "calcul quebec",
        "cea fat",
        "cea thin",
        "lrz",
        "titan",
        "tu dresden",
    ];

    #[test]
    fn trace_probe_holds_table2_shape_at_tiny_scale() {
        let rows = probe_rows(&TRACE_SYSTEMS, "trace", &tiny_scale(), 7);
        for (sys, m) in TRACE_SYSTEMS.iter().zip(&rows) {
            // Full-population kW magnitude matches the paper within 5%.
            let target = SystemPreset::by_name(sys).unwrap().targets.core_kw.unwrap();
            assert!(
                (m["core_kw"] - target).abs() / target < 0.05,
                "{sys}: {} vs {target}",
                m["core_kw"]
            );
        }
        // GPU systems drop >15% first-to-last; Colosse < 2%.
        let drop = |m: &Metrics| (m["first20_kw"] - m["last20_kw"]) / m["core_kw"];
        assert!(drop(&rows[3]) > 0.15, "{:?}", rows[3]);
        assert!(drop(&rows[0]).abs() < 0.02, "{:?}", rows[0]);
    }

    #[test]
    fn figure1_probe_follows_the_run() {
        let rows = probe_rows(&["colosse", "l-csc"], "figure1", &tiny_scale(), 7);
        for m in &rows {
            assert_eq!(m.len(), FIGURE1_SEGMENTS);
        }
        // Colosse is flat through its core phase; L-CSC collapses.
        let (colosse, lcsc) = (&rows[0], &rows[1]);
        assert!((colosse["kw_seg03"] / colosse["kw_seg16"] - 1.0).abs() < 0.02);
        assert!(lcsc["kw_seg18"] < 0.8 * lcsc["kw_seg05"], "{lcsc:?}");
    }

    #[test]
    fn nodes_probe_rows_complete() {
        let rows = probe_rows(&VARIABILITY_SYSTEMS, "nodes", &tiny_scale(), 7);
        for (sys, m) in VARIABILITY_SYSTEMS.iter().zip(&rows) {
            assert!(m["cv_pct"] > 0.5 && m["cv_pct"] < 6.0, "{sys}: {m:?}");
            assert_eq!(m["simulated_nodes"], 64.0, "{sys}");
        }
    }

    #[test]
    fn figure2_probe_bins_every_node() {
        let rows = probe_rows(&["lrz", "titan"], "figure2", &tiny_scale(), 7);
        for m in &rows {
            let total: f64 = (0..FIGURE2_BINS)
                .map(|i| m[&format!("count_b{i:02}")])
                .sum();
            assert_eq!(total, 64.0);
            assert!(m["lo_w"] < m["hi_w"]);
            assert!(m["modes"] >= 1.0, "{m:?}");
        }
    }

    #[test]
    fn coverage_probe_near_nominal_at_tiny_scale() {
        let cell = one_cell(r#"{"name":"g","systems":["lrz"],"methodologies":["coverage"]}"#);
        let m = run_probe(&cell, 7, &tiny_scale(), TraceStore::global()).unwrap();
        assert_eq!(m.len(), 3);
        for (name, coverage) in &m {
            // 200 replications are noisy; just require the right ballpark.
            assert!((coverage - 0.95).abs() < 0.12, "{name}: {coverage}");
        }
    }

    #[test]
    fn figure3_probe_near_nominal_at_tiny_scale() {
        let cell = one_cell(r#"{"name":"g","systems":["lrz"],"methodologies":["figure3"]}"#);
        let m = run_probe(&cell, 7, &tiny_scale(), TraceStore::global()).unwrap();
        // n = 3, 5, 10, 15, 20, 30, 50 at 80/95/99 %.
        assert_eq!(m.len(), 7 * 3);
        for n in [3, 5, 10, 15, 20, 30, 50] {
            for c in [80, 95, 99] {
                let coverage = m[&format!("coverage_n{n}_c{c}")];
                // 200 replications are noisy; just require the right ballpark.
                assert!(
                    (coverage - f64::from(c) / 100.0).abs() < 0.12,
                    "n={n} conf={c} coverage={coverage}"
                );
            }
        }
    }

    #[test]
    fn vid_nodes_reproduce_figure4_trends() {
        let cell = one_cell(r#"{"name":"g","methodologies":["vid"]}"#);
        let (all, default) = vid_nodes(&cell).unwrap();
        assert_eq!(all.len(), 160);
        // The 56 nodes Figure 4 plots, against the sum of each node's
        // four GPU VID bins (the figure's x-axis).
        let nodes = &all[..56];
        let vid_sums: Vec<f64> = (0..nodes.len())
            .map(|node| {
                default
                    .asics(node)
                    .unwrap()
                    .iter()
                    .map(|a| f64::from(a.vid_bin))
                    .sum()
            })
            .collect();
        // Tuned beats default everywhere; the default curve corrected for
        // the constant fast-fan power offset lands above the default one.
        let cs = LcscCaseStudy::new();
        let gf_default = cs.gflops_at(900.0);
        let spec = &default.spec().node;
        let fan_delta_wall = (spec.fan.power(0.70) - spec.fan.power(0.45)) / spec.psu_efficiency;
        for (i, n) in nodes.iter().enumerate() {
            assert!(n.eff_tuned > n.eff_default, "node {i}");
            let fan_corrected = gf_default / (gf_default / n.eff_default - fan_delta_wall);
            assert!(fan_corrected > n.eff_default, "node {i}");
        }
        let corr = |f: fn(&VidNode) -> f64| {
            let len = nodes.len() as f64;
            let mx = vid_sums.iter().sum::<f64>() / len;
            let my = nodes.iter().map(f).sum::<f64>() / len;
            let (mut cov, mut vx, mut vy) = (0.0, 0.0, 0.0);
            for (x, r) in vid_sums.iter().zip(nodes) {
                let (dx, dy) = (x - mx, f(r) - my);
                cov += dx * dy;
                vx += dx * dx;
                vy += dy * dy;
            }
            cov / (vx.sqrt() * vy.sqrt()).max(1e-12)
        };
        // Default efficiency declines with VID; tuned is unrelated to it.
        let default = corr(|r| r.eff_default);
        assert!(default < -0.3, "default corr = {default}");
        let tuned = corr(|r| r.eff_tuned);
        assert!(tuned.abs() < 0.3, "tuned corr = {tuned}");
    }

    #[test]
    fn gaming_probe_reproduces_section3_at_tiny_scale() {
        let rows = probe_rows(&["l-csc", "colosse"], "gaming", &tiny_scale(), 7);
        let (lcsc, colosse) = (&rows[0], &rows[1]);
        // The unrestricted search (the published 23.9% regime) beats the
        // middle-80%-restricted Level 1 search.
        assert!(lcsc["unrestricted_gain_pct"] >= lcsc["level1_gain_pct"]);
        assert!(lcsc["unrestricted_gain_pct"] > 15.0, "{lcsc:?}");
        assert!(colosse["unrestricted_gain_pct"] < 2.0, "{colosse:?}");
    }

    #[test]
    fn recommendation_rows() {
        let rows = probe_rows(&VARIABILITY_SYSTEMS, "recommendation", &tiny_scale(), 1);
        let titan = &rows[4];
        assert_eq!(titan["revised_nodes"], 1869.0); // 10% of 18 688
        assert!(
            titan["revised_lambda_pct"] < titan["level1_lambda_pct"]
                || titan["level1_nodes"] > titan["revised_nodes"]
        );
        assert_eq!(rows[5]["revised_nodes"], 21.0); // max(16, ceil(21))
                                                    // The revised rule reaches ~1.3% accuracy or better at cv = 2.5%.
        for (sys, m) in VARIABILITY_SYSTEMS.iter().zip(&rows) {
            assert!(m["revised_lambda_pct"] < 1.3, "{sys}: {m:?}");
        }
    }

    #[test]
    fn subsystem_overstatement_rows() {
        let rows = probe_rows(&VARIABILITY_SYSTEMS, "subsystems", &tiny_scale(), 1);
        for (sys, m) in VARIABILITY_SYSTEMS.iter().zip(&rows) {
            assert!(m["overheads_kw"] > 0.0, "{sys}");
            // Typical clusters: low single digits to ~12% overstatement.
            assert!(
                (0.5..15.0).contains(&m["overstatement_pct"]),
                "{sys}: {m:?}"
            );
        }
        // Titan's compute number is GPU-only, so its relative overheads
        // are the largest.
        let max = (0..rows.len())
            .max_by(|&a, &b| rows[a]["overstatement_pct"].total_cmp(&rows[b]["overstatement_pct"]))
            .unwrap();
        assert_eq!(VARIABILITY_SYSTEMS[max], "titan");
    }

    #[test]
    fn imbalance_breaks_the_normal_theory_plan() {
        let cell =
            one_cell(r#"{"name":"g","systems":["tu dresden"],"methodologies":["imbalance"]}"#);
        let s = run_probe(&cell, 7, &tiny_scale(), TraceStore::global()).unwrap();
        // Never fewer nodes than the machine itself.
        assert_eq!(s["nodes"], 210.0);
        // Balanced: tight, normal, well covered, accurate.
        assert!(s["balanced_cv_pct"] < 5.0, "{s:?}");
        assert_eq!(s["balanced_normal"], 1.0);
        assert!(s["balanced_coverage_pct"] > 85.0, "{s:?}");
        assert!(s["balanced_err95_pct"] < 2.0, "{s:?}");
        // Hot/cold: an order of magnitude more spread, flagged by the
        // normality screen, and the planned-n error misses 1% badly.
        assert!(s["hotcold_cv_pct"] > 5.0 * s["balanced_cv_pct"], "{s:?}");
        assert_eq!(s["hotcold_normal"], 0.0);
        assert!(
            s["hotcold_err95_pct"] > 4.0 * s["balanced_err95_pct"],
            "{s:?}"
        );
        assert!(s["hotcold_needed_n"] > 3.0 * s["planned_n"], "{s:?}");
    }

    #[test]
    fn imbalance_machine_respects_the_scale_cap() {
        let scale = |max_nodes| Scale {
            max_nodes,
            ..tiny_scale()
        };
        // TU Dresden keeps its whole machine at any cap, and doubles
        // when the cap allows.
        assert_eq!(imbalance_nodes(210, &scale(64)), 210);
        assert_eq!(imbalance_nodes(210, &scale(512)), 420);
        // A large system never outgrows the cap (or the 210-node floor).
        assert_eq!(imbalance_nodes(18_688, &scale(64)), 210);
        assert_eq!(imbalance_nodes(122_880, &scale(512)), 512);
        // Small machines floor at themselves.
        assert_eq!(imbalance_nodes(100, &scale(64)), 100);
        let cell = one_cell(r#"{"name":"g","systems":["titan"],"methodologies":["imbalance"]}"#);
        let m = run_probe(&cell, 7, &tiny_scale(), TraceStore::global()).unwrap();
        assert_eq!(m["nodes"], 210.0);
    }

    #[test]
    fn rank_stability_is_monotone_in_spread() {
        let cell = one_cell(r#"{"name":"g","methodologies":["rank_stability"]}"#);
        let m = run_probe(&cell, 7, &tiny_scale(), TraceStore::global()).unwrap();
        assert_eq!(m.len(), 4 * RANK_SPREADS_PCT.len());
        let top1: Vec<f64> = RANK_SPREADS_PCT
            .iter()
            .map(|s| m[&format!("top1_pct_s{s:02}")])
            .collect();
        // More spread, less stability (Monte Carlo slack of 5 points).
        for w in top1.windows(2) {
            assert!(w[1] <= w[0] + 5.0, "{top1:?}");
        }
        assert!(top1[0] > 95.0, "{m:?}");
        assert!(m["top3_order_pct_s20"] < 90.0, "{m:?}");
    }

    #[test]
    fn exascale_keeps_the_revised_rule_within_one_percent() {
        let cell = one_cell(r#"{"name":"g","methodologies":["exascale"]}"#);
        let m = run_probe(&cell, 1, &tiny_scale(), TraceStore::global()).unwrap();
        assert_eq!(m.len(), 9 + 3 + 9);
        for (name, v) in &m {
            if name.starts_with("revised_lambda_pct") {
                assert!(*v < 1.0, "{name}: {v}");
            }
        }
        // Eq. 5 saturates with N while the revised rule grows with it.
        assert_eq!(m["eq5_nodes_N1000000_cv10"], 384.0);
        assert_eq!(m["revised_nodes_N1000000"], 100_000.0);
    }

    #[test]
    fn measure_probe_runs_and_reuses_identical_sweeps() {
        let store = TraceStore::new();
        let cell = one_cell(
            r#"{"name":"g","systems":["l-csc"],"meters":["pdu"],
                "methodologies":["level1"],"windows":["middle"]}"#,
        );
        let scale = tiny_scale();
        let a = run_probe(&cell, 1, &scale, &store).unwrap();
        let misses_after_first = store.misses();
        // Same (cell, seed): the plan selects the same subset, so the
        // sweep is a pure cache hit — and the metrics are bit-identical.
        let b = run_probe(&cell, 1, &scale, &store).unwrap();
        assert!(a["reported_kw"] > 0.0);
        assert!(b["metered_nodes"] >= 1.0);
        assert_eq!(a, b);
        assert_eq!(store.misses(), misses_after_first);
        assert!(store.hits() > 0);
    }

    #[test]
    fn sibling_probes_share_one_simulation_sweep() {
        // `trace` and `gaming` differ only in the methodology dimension;
        // their simulation identity (system + workload + seed) matches,
        // so the second probe's sweep is served from the store.
        let store = TraceStore::new();
        let trace_cell = one_cell(r#"{"name":"g","systems":["l-csc"],"methodologies":["trace"]}"#);
        let gaming_cell =
            one_cell(r#"{"name":"g","systems":["l-csc"],"methodologies":["gaming"]}"#);
        let scale = tiny_scale();
        run_probe(&trace_cell, 7, &scale, &store).unwrap();
        let misses_after_trace = store.misses();
        let m = run_probe(&gaming_cell, 7, &scale, &store).unwrap();
        assert_eq!(store.misses(), misses_after_trace);
        assert!(store.hits() > 0);
        assert!(m["unrestricted_gain_pct"] >= m["level1_gain_pct"] - 1e-9);
    }

    #[test]
    fn accel_probe_reports_cap_conversion() {
        let cell = one_cell(r#"{"name":"g","systems":["k20x"],"methodologies":["accel"]}"#);
        let m = run_probe(&cell, 1, &tiny_scale(), TraceStore::global()).unwrap();
        assert_eq!(m["devices"], 64.0);
        assert!(m["uncapped_power_cv_pct"] > 1.0, "{m:?}");
        assert!(
            m["capped_power_cv_pct"] < m["uncapped_power_cv_pct"],
            "{m:?}"
        );
        assert!(m["throttled_pct"] > 20.0, "{m:?}");
        assert!(m["runtime_spread_pct"] > 1.0, "{m:?}");
        // Different seed, different fleet.
        let other = run_probe(&cell, 2, &tiny_scale(), TraceStore::global()).unwrap();
        assert_ne!(m["uncapped_mean_w"], other["uncapped_mean_w"]);
        // Same seed: bit-identical.
        let again = run_probe(&cell, 1, &tiny_scale(), TraceStore::global()).unwrap();
        assert_eq!(m, again);
    }

    #[test]
    fn occ_probe_error_stays_within_artifact_budget() {
        let cell = one_cell(r#"{"name":"g","systems":["v100"],"methodologies":["occ"]}"#);
        let m = run_probe(&cell, 3, &tiny_scale(), TraceStore::global()).unwrap();
        // Gain ±1.6%, offset ±2 W on ~300 W, ±0.5 W quantization and
        // window misalignment: end-to-end error bounded by ~3%.
        assert!(m["occ_error_pct"].abs() < 3.0, "{m:?}");
        assert!(m["gain_err_pct"].abs() <= 1.6 + 1e-9);
        assert!(m["offset_w"].abs() <= 2.0 + 1e-9);
        assert!(m["staleness_s"] >= 0.1 && m["staleness_s"] <= 0.6, "{m:?}");
        assert!(m["samples"] > 1_000.0);
    }

    #[test]
    fn eq5cap_probe_shows_naive_under_coverage() {
        let cell = one_cell(r#"{"name":"g","systems":["k20x"],"methodologies":["eq5cap"]}"#);
        let m = run_probe(&cell, 1, &tiny_scale(), TraceStore::global()).unwrap();
        // Sizing from the compressed capped power CV prescribes fewer
        // devices than the energy spread needs...
        assert!(m["n_power_sized"] < m["n_runtime_aware"], "{m:?}");
        // ...so the naive energy interval under-covers its nominal 95%.
        assert!(m["cov_energy_naive_pct"] < 95.0 - 10.0, "{m:?}");
        // Power-only claims stay calibrated, capped or not.
        assert!(m["cov_uncapped_power_pct"] > 90.0, "{m:?}");
        assert!(m["cov_capped_power_pct"] > 90.0, "{m:?}");
        // The runtime-aware fix restores energy coverage.
        assert!(m["cov_energy_aware_pct"] > 90.0, "{m:?}");
    }

    #[test]
    fn accel_probes_reject_cpu_presets_and_vice_versa() {
        let scale = tiny_scale();
        let cell = one_cell(r#"{"name":"g","systems":["colosse"],"methodologies":["accel"]}"#);
        let e = run_probe(&cell, 1, &scale, TraceStore::global()).unwrap_err();
        assert!(e.reason.contains("unknown accelerator preset"), "{e}");
        let cell = one_cell(r#"{"name":"g","methodologies":["eq5cap"]}"#);
        let e = run_probe(&cell, 1, &scale, TraceStore::global()).unwrap_err();
        assert!(e.reason.contains("needs an accelerator system"), "{e}");
        let cell = one_cell(r#"{"name":"g","systems":["k20x"],"methodologies":["trace"]}"#);
        let e = run_probe(&cell, 1, &scale, TraceStore::global()).unwrap_err();
        assert!(e.reason.contains("unknown system"), "{e}");
    }

    #[test]
    fn unknown_names_error_with_context() {
        let scale = tiny_scale();
        let cell = one_cell(r#"{"name":"g","methodologies":["nope"]}"#);
        let e = run_probe(&cell, 1, &scale, TraceStore::global()).unwrap_err();
        assert!(e.reason.contains("unknown probe"), "{e}");
        let cell = one_cell(r#"{"name":"g","systems":["atlantis"],"methodologies":["trace"]}"#);
        let e = run_probe(&cell, 1, &scale, TraceStore::global()).unwrap_err();
        assert!(e.reason.contains("unknown system"), "{e}");
        let cell = one_cell(
            r#"{"name":"g","systems":["l-csc"],"meters":["laser"],
                "methodologies":["level1"]}"#,
        );
        let e = run_probe(&cell, 1, &scale, TraceStore::global()).unwrap_err();
        assert!(e.reason.contains("unknown meter"), "{e}");
        let cell = one_cell(r#"{"name":"g","methodologies":["trace"]}"#);
        let e = run_probe(&cell, 1, &scale, TraceStore::global()).unwrap_err();
        assert!(e.reason.contains("needs a system"), "{e}");
    }
}
