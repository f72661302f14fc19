//! Quickstart: measure a simulated supercomputer's power the way a
//! Green500 submitter would, at every methodology level, and see why the
//! paper's revised rules matter.
//!
//! Run with: `cargo run --release --example quickstart`

use hpcpower::method::level::Methodology;
use hpcpower::method::measure::{measure, MeasurementPlan, WindowPlacement};
use hpcpower::method::report::Submission;
use hpcpower::sim::engine::SimulationConfig;
use hpcpower::sim::systems;
use hpcpower::sim::Cluster;

fn main() {
    // The L-CSC cluster: 160 nodes, four GPUs each, 1.5-hour in-core HPL
    // run — the Green500 #1 system the paper studies in Sections 3 and 5.
    let preset = systems::lcsc();
    let cluster = Cluster::build(preset.cluster_spec.clone()).expect("preset is valid");
    let workload = preset.workload.workload();

    let sim_config = SimulationConfig {
        dt: 5.0,
        noise_sigma: 0.01,
        common_noise_sigma: 0.003,
        seed: 42,
        threads: std::thread::available_parallelism().map_or(4, |p| p.get()),
    };

    println!(
        "System: {} ({} nodes), workload: {}",
        preset.name,
        cluster.len(),
        workload.name()
    );
    println!();
    println!(
        "{:<16} {:>7} {:>12} {:>10} {:>10}",
        "methodology", "nodes", "power (kW)", "GFLOPS/W", "accuracy"
    );

    for methodology in Methodology::all() {
        // An honest submitter: random node subset, window in the middle.
        let plan = MeasurementPlan::honest(methodology, 7);
        let m = measure(&cluster, workload, preset.balance, sim_config, &plan)
            .expect("measurement plan is valid");
        let submission = Submission::from_measurement(preset.name, &m);
        println!(
            "{:<16} {:>7} {:>12.1} {:>10.3} {:>9}",
            methodology.to_string(),
            m.metered_nodes.len(),
            m.reported_power_w / 1000.0,
            submission.gflops_per_watt(),
            m.assessment
                .as_ref()
                .map(|a| format!("±{:.2}%", a.relative_accuracy * 100.0))
                .unwrap_or_else(|| "-".into()),
        );
    }

    println!();
    println!("Now the problem the paper fixes: two honest Level 1 submitters");
    println!("who place their 20% window at different (legal) spots:");
    for (label, placement) in [
        ("early window", WindowPlacement::Earliest),
        ("late window", WindowPlacement::Latest),
    ] {
        let plan = MeasurementPlan {
            placement,
            ..MeasurementPlan::honest(Methodology::Level1, 7)
        };
        let m = measure(&cluster, workload, preset.balance, sim_config, &plan)
            .expect("measurement plan is valid");
        println!(
            "  {label:<13}: {:.1} kW -> {:.3} GFLOPS/W",
            m.reported_power_w / 1000.0,
            m.flops_per_watt() / 1e9
        );
    }
    println!();
    println!("The revised methodology (full core phase, max(16, 10%) nodes)");
    println!("makes that window choice irrelevant — which is exactly what the");
    println!("Green500 and Top500 adopted from this paper in late 2015.");
    println!();
    println!("Everything above as a gated, multi-seed sweep (the `levels` and");
    println!("`gaming` grids cover this example's cells):");
    println!();
    println!("  cargo run --release -p power-repro --bin campaign -- scenarios/paper.json");
}
