//! Procurement planning: how many nodes must we meter, and what does the
//! answer cost us if we get it wrong?
//!
//! The paper's Section 4 workflow: take a small pilot sample, estimate
//! sigma/mu, size the final sample with Equation 5, then check the achieved
//! accuracy — and translate the residual power uncertainty into electricity
//! cost for a Total Cost of Ownership estimate (Section 1 notes a 20% power
//! error becomes a 20% electricity-cost error).
//!
//! Run with: `cargo run --release --example plan_measurement`

use hpcpower::method::extrapolate::extrapolate;
use hpcpower::sim::engine::{MeterScope, SimulationConfig, Simulator};
use hpcpower::sim::systems;
use hpcpower::sim::Cluster;
use hpcpower::stats::rng::seeded;
use hpcpower::stats::sample_size::{sample_size_from_pilot, SampleSizePlan};
use hpcpower::stats::sampling::sample_without_replacement;
use hpcpower::stats::summary::Summary;

const ELECTRICITY_EUR_PER_KWH: f64 = 0.18;
const LIFETIME_YEARS: f64 = 5.0;

fn main() {
    // We are procuring an LRZ-class machine (9216 nodes in the paper's
    // Table 4) and have a 512-node test partition to play with.
    let preset = systems::lrz().with_total_nodes(512);
    let population = 9_216usize;
    let cluster = Cluster::build(preset.cluster_spec.clone()).expect("preset is valid");
    let workload = preset.workload.workload();
    let sim_config = SimulationConfig {
        dt: 7.3,
        noise_sigma: 0.01,
        common_noise_sigma: 0.002,
        seed: 2026,
        threads: std::thread::available_parallelism().map_or(4, |p| p.get()),
    };
    let sim = Simulator::new(&cluster, workload, preset.balance, sim_config)
        .expect("simulator config valid");
    let phases = workload.phases();
    let (from, to) = (phases.core_start() + 0.1 * phases.core(), phases.core_end());
    let all = sim
        .node_averages(from, to, MeterScope::Wall)
        .expect("window overlaps run");

    // Step 1: pilot sample of 10 nodes (the paper's suggested n = 10).
    let mut rng = seeded(99);
    let pilot_ids = sample_without_replacement(&mut rng, all.len(), 10).expect("valid sample");
    let pilot: Vec<f64> = pilot_ids.iter().map(|&i| all[i]).collect();
    let pilot_summary = Summary::from_slice(&pilot);
    println!(
        "Pilot (n = 10): mean = {:.2} W, sigma/mu = {:.2}%",
        pilot_summary.mean(),
        pilot_summary.coefficient_of_variation().unwrap() * 100.0
    );

    // Step 2: size the real campaign for 1% accuracy at 95% confidence.
    let n_final = sample_size_from_pilot(&pilot, 0.95, 0.01, population as u64)
        .expect("pilot is large enough");
    println!("Equation 5 says: meter {n_final} of {population} nodes for ±1% at 95%.");

    // Compare with planning from the paper's recommended sigma/mu range.
    for cv in [0.015, 0.025, 0.05] {
        let plan = SampleSizePlan::new(0.95, 0.01, cv).expect("valid plan");
        println!(
            "  (planning at sigma/mu = {:.1}% instead: {} nodes)",
            cv * 100.0,
            plan.required_nodes(population as u64).unwrap()
        );
    }

    // Step 3: run the final campaign and assess.
    let final_ids =
        sample_without_replacement(&mut rng, all.len(), n_final as usize).expect("valid sample");
    let sample: Vec<f64> = final_ids.iter().map(|&i| all[i]).collect();
    let report = extrapolate(&sample, population, 0.95).expect("sample is large enough");
    println!(
        "Final campaign: full-system estimate {:.1} kW, 95% CI [{:.1}, {:.1}] kW (±{:.2}%)",
        report.estimate_w / 1000.0,
        report.ci_lower_w / 1000.0,
        report.ci_upper_w / 1000.0,
        report.relative_accuracy * 100.0
    );

    // Step 4: what the residual uncertainty means for TCO.
    let hours = LIFETIME_YEARS * 365.25 * 24.0;
    let cost = |watts: f64| watts / 1000.0 * hours * ELECTRICITY_EUR_PER_KWH;
    println!(
        "{LIFETIME_YEARS:.0}-year electricity cost: {:.2} M EUR, uncertain by ±{:.0} k EUR",
        cost(report.estimate_w) / 1e6,
        (cost(report.ci_upper_w) - cost(report.estimate_w)) / 1e3
    );
    println!(
        "Had we extrapolated from a 20%-biased Level 1 window instead, the\n\
         cost estimate would be off by ±{:.2} M EUR — the paper's TCO argument.",
        cost(report.estimate_w) * 0.20 / 1e6
    );
    println!();
    println!(
        "To rerun this workflow as a repeatable multi-seed sweep (the\n\
         `table5` and `levels` grids gate the sample sizes and accuracy):\n\n  \
         cargo run --release -p power-repro --bin campaign -- scenarios/paper.json"
    );
}
