//! Table 2 / Figure 1: whole-system HPL trace generation and segment
//! averaging for each of the four trace systems, with an enforced budget:
//!
//! * **node-step throughput** — one thread sweeping the four trace
//!   systems (256 nodes each) must sustain the floor below in node-steps
//!   per second. Every paper artifact comes from such sweeps, so a
//!   regression in the engine's block kernel shows up here first.
//!
//! Every measured figure lands in `BENCH_table2.json` via
//! [`power_bench::report`].

use criterion::{criterion_group, BenchmarkId, Criterion};
use power_bench::report::{self, Direction};
use power_bench::{bench_sim_config, fixture};
use power_sim::engine::{MeterScope, ProductRequest, Simulator};
use power_sim::systems::{self, SystemPreset};
use std::hint::black_box;
use std::time::Instant;

/// Budget floor, node-steps/s on one thread. Set below the rate measured
/// on a 2-vCPU virtual machine after the time-major block kernel landed
/// (see EXPERIMENTS.md); the node-major sweep it replaced ran at about
/// half that rate.
const NODE_STEPS_FLOOR: f64 = 8.0e6;

/// Budget: single-thread node-step throughput over the trace systems.
fn bench_node_step_rate(_c: &mut Criterion) {
    let fixtures: Vec<_> = SystemPreset::trace_presets()
        .into_iter()
        .map(|preset| fixture(preset, 256))
        .collect();
    // One warm-up pass, then the median of seven timed passes: the rate
    // of one pass moves with whatever else shares the machine.
    let mut rates = Vec::new();
    let mut node_steps = 0usize;
    for pass in 0..8 {
        let start = Instant::now();
        node_steps = 0;
        for f in &fixtures {
            let mut config = bench_sim_config(f.dt);
            config.threads = 1;
            let sim = Simulator::new(
                &f.cluster,
                f.preset.workload.workload(),
                f.preset.balance,
                config,
            )
            .expect("config valid");
            let products = sim
                .run_products(&ProductRequest::system_only())
                .expect("sweep");
            node_steps += products.steps() * products.cluster_len();
            black_box(products);
        }
        if pass > 0 {
            rates.push(node_steps as f64 / start.elapsed().as_secs_f64());
        }
    }
    rates.sort_by(f64::total_cmp);
    let rate = rates[rates.len() / 2];
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    report::metric("host_cores", cores as f64);
    report::metric("node_steps", node_steps as f64);
    report::metric("node_steps_per_s_min", rates[0]);
    report::metric("node_steps_per_s_max", rates[rates.len() - 1]);
    println!(
        "table2_node_steps: {node_steps} node-steps per pass, median {:.2} M/s (range {:.2}-{:.2})",
        rate / 1e6,
        rates[0] / 1e6,
        rates[rates.len() - 1] / 1e6
    );
    report::budget(
        "node_steps_per_s",
        rate,
        Direction::AtLeast,
        NODE_STEPS_FLOOR,
    );
}

fn bench_trace_generation(c: &mut Criterion) {
    let mut group = c.benchmark_group("table2_trace_generation");
    group.sample_size(10);
    for preset in [
        systems::colosse(),
        systems::sequoia25(),
        systems::piz_daint(),
        systems::lcsc(),
    ] {
        let name = preset.name;
        let f = fixture(preset, 64);
        group.bench_function(BenchmarkId::from_parameter(name), |b| {
            b.iter(|| {
                let workload = f.preset.workload.workload();
                let sim = Simulator::new(
                    &f.cluster,
                    workload,
                    f.preset.balance,
                    bench_sim_config(f.dt),
                )
                .unwrap();
                black_box(sim.system_trace(MeterScope::Wall).unwrap())
            });
        });
    }
    group.finish();
}

fn bench_segment_averaging(c: &mut Criterion) {
    let f = fixture(systems::lcsc(), 64);
    let (trace, phases) = f.system_trace();
    c.bench_function("table2_segment_averages", |b| {
        b.iter(|| {
            let core = trace
                .window_average(phases.core_start(), phases.core_end())
                .unwrap();
            let (a1, b1) = phases.core_segment(0.0, 0.2);
            let first = trace.window_average(a1, b1).unwrap();
            let (a2, b2) = phases.core_segment(0.8, 1.0);
            let last = trace.window_average(a2, b2).unwrap();
            black_box((core, first, last))
        });
    });
}

criterion_group!(
    benches,
    bench_node_step_rate,
    bench_trace_generation,
    bench_segment_averaging
);
power_bench::bench_main!("table2", benches);
