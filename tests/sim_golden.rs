//! Cross-commit byte-identity guard for the simulation engine.
//!
//! Same-commit determinism (thread counts, product mixes, streaming) is
//! tested inside `power-sim`; this test pins the *values* themselves. It
//! sweeps every registered system preset at a small size and hashes the
//! IEEE-754 bit patterns of every product — system traces, per-node core
//! phase averages and a three-node subset, in all three meter scopes —
//! with FNV-1a. The expected digests were recorded before the engine's
//! time-major block kernel replaced the node-major sweep, so any change
//! to the order or association of the engine's floating-point work shows
//! up here as a digest mismatch.
//!
//! If a change is *meant* to move simulated values, re-record the table
//! from the failure message and say why in the change description.

use hpcpower::sim::engine::{MeterScope, ProductRequest, SimulationConfig, Simulator};
use hpcpower::sim::{Cluster, SystemPreset};

const NODES: usize = 48;
const STEPS: f64 = 160.0;
const SUBSET: [usize; 3] = [41, 0, 17];

/// Expected digest per preset, in `SystemPreset::all_presets()` order.
const GOLDEN: [(&str, u64); 11] = [
    ("Colosse", 0x8106275d74c3fd04),
    ("Sequoia-25", 0x8f4debd9680c3cbd),
    ("Piz Daint", 0x46597999b151b81c),
    ("L-CSC", 0x73531d3553e75a08),
    ("Calcul Québec", 0xf2f4dc9edb4981d6),
    ("CEA (Fat)", 0x9fc2b8eb3aeeab55),
    ("CEA (Thin)", 0x84f2a836ec049540),
    ("LRZ", 0x84ab305c19979755),
    ("Titan", 0xe9721cd3280c6bba),
    ("TU Dresden", 0x52bd8905dd27bb5f),
    ("Summit", 0xe55ddcfd806daa6a),
];

/// 64-bit FNV-1a over little-endian `f64` bit patterns.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn values(&mut self, xs: &[f64]) {
        for x in xs {
            for byte in x.to_bits().to_le_bytes() {
                self.0 ^= u64::from(byte);
                self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
}

fn preset_digest(preset: &SystemPreset) -> u64 {
    let preset = preset.clone().with_total_nodes(NODES);
    let cluster = Cluster::build(preset.cluster_spec.clone()).unwrap();
    let workload = preset.workload.workload();
    let phases = workload.phases();
    let config = SimulationConfig {
        dt: phases.total() / STEPS,
        noise_sigma: 0.01,
        common_noise_sigma: 0.003,
        seed: 0x601D,
        threads: 2,
    };
    let sim = Simulator::new(&cluster, workload, preset.balance, config).unwrap();
    let request =
        ProductRequest::with_averages(phases.core_start(), phases.core_end()).and_subset(&SUBSET);
    let products = sim.run_products(&request).unwrap();
    let mut fnv = Fnv::new();
    for scope in MeterScope::ALL {
        fnv.values(&products.system_trace(scope).unwrap().watts);
        fnv.values(products.node_averages(scope).unwrap());
        for row in &products.subset_trace(scope).unwrap().samples {
            fnv.values(row);
        }
    }
    fnv.0
}

#[test]
fn every_preset_sweeps_to_its_recorded_digest() {
    let presets = SystemPreset::all_presets();
    assert_eq!(presets.len(), GOLDEN.len(), "preset registry changed");
    let measured: Vec<(&str, u64)> = presets.iter().map(|p| (p.name, preset_digest(p))).collect();
    let table: String = measured
        .iter()
        .map(|(name, d)| format!("    ({name:?}, {d:#018x}),\n"))
        .collect();
    assert_eq!(
        measured,
        GOLDEN.to_vec(),
        "simulated values drifted; measured digests:\n{table}"
    );
}
