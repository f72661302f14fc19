//! Layer kernels measured offline in the traced run: the simulator's
//! node-step rate, the meter's reading rate, the archive codec's rates and
//! the accelerator sweep's device-step rate, each on the sweeps or systems
//! the workload itself exercises.

use std::time::Instant;

use power_accel::AccelPreset;
use power_archive::codec::{crc32, DEFAULT_QUANTUM};
use power_archive::products::{decode_products, encode_products};
use power_campaign::Scale;
use power_method::level::Methodology;
use power_method::measure::{measure_with_store, MeasurementPlan};
use power_sim::engine::{MeterScope, ProductRequest, RunProducts, SimulationConfig, Simulator};
use power_sim::{Cluster, SystemPreset, TraceStore};

use crate::Outcome;

/// Minimum time each rate kernel runs, so one run is not one sample.
const KERNEL_S: f64 = 0.2;

/// Calls `f` until [`KERNEL_S`] has passed; returns seconds per call.
fn per_call(mut f: impl FnMut()) -> f64 {
    let t = Instant::now();
    let mut n = 0u32;
    while n == 0 || t.elapsed().as_secs_f64() < KERNEL_S {
        f();
        n += 1;
    }
    t.elapsed().as_secs_f64() / f64::from(n)
}

/// A simulation identity: preset scaled to `nodes`, plus engine config.
pub struct SimKey {
    pub preset: SystemPreset,
    pub config: SimulationConfig,
}

impl SimKey {
    /// The campaign probes' sweep for `preset` at `scale`.
    pub fn campaign(name: &str, scale: &Scale, seed: u64) -> Result<SimKey, String> {
        let preset = SystemPreset::by_name(name).ok_or_else(|| format!("no preset `{name}`"))?;
        let nodes = scale.clamp_nodes(preset.cluster_spec.total_nodes);
        let preset = preset.with_total_nodes(nodes);
        let core = preset.workload.workload().phases().core();
        Ok(SimKey {
            config: SimulationConfig {
                dt: scale.dt_for_core(core),
                noise_sigma: 0.01,
                common_noise_sigma: 0.003,
                seed,
                threads: 1,
            },
            preset,
        })
    }

    pub fn cluster(&self) -> Result<Cluster, String> {
        Cluster::build(self.preset.cluster_spec.clone()).map_err(|e| e.to_string())
    }

    /// Simulates the full-machine traces on a fresh store.
    pub fn products(&self, cluster: &Cluster) -> Result<std::sync::Arc<RunProducts>, String> {
        let sim = Simulator::new(
            cluster,
            self.preset.workload.workload(),
            self.preset.balance,
            self.config,
        )
        .map_err(|e| e.to_string())?;
        TraceStore::new()
            .products(&sim, &ProductRequest::system_only())
            .map_err(|e| e.to_string())
    }
}

/// `sim.node_steps` and `sim.node_steps_per_s` over cold sweeps of `keys`;
/// returns the products for the archive kernels.
pub fn sim_kernel(
    keys: &[SimKey],
    out: &mut Outcome,
) -> Result<Vec<std::sync::Arc<RunProducts>>, String> {
    let mut steps = 0.0;
    let mut secs = 0.0;
    let mut products = Vec::new();
    for key in keys {
        let cluster = key.cluster()?;
        let mut p = None;
        secs += per_call(|| p = Some(key.products(&cluster)));
        let p = p.expect("kernel ran at least once")?;
        steps += (p.steps() * p.cluster_len()) as f64;
        products.push(p);
    }
    out.metric("sim.node_steps", steps);
    out.metric("sim.node_steps_per_s", steps / secs);
    Ok(products)
}

/// Archive codec rates on `products`: encode and decode MB are raw `f64`
/// trace bytes.
pub fn archive_kernel(
    products: &[std::sync::Arc<RunProducts>],
    out: &mut Outcome,
) -> Result<(), String> {
    let mut raw = 0.0;
    let mut packed = 0.0;
    let (mut enc_s, mut dec_s, mut crc_s) = (0.0, 0.0, 0.0);
    for p in products {
        let samples: usize = MeterScope::ALL
            .iter()
            .filter_map(|&s| p.system_trace(s))
            .map(|t| t.watts.len())
            .sum();
        raw += (samples * 8) as f64;
        let blob = encode_products(p, DEFAULT_QUANTUM).map_err(|e| e.to_string())?;
        packed += blob.len() as f64;
        enc_s += per_call(|| {
            std::hint::black_box(encode_products(std::hint::black_box(p), DEFAULT_QUANTUM).ok());
        });
        dec_s += per_call(|| {
            std::hint::black_box(decode_products(std::hint::black_box(&blob)).ok());
        });
        crc_s += per_call(|| {
            std::hint::black_box(crc32(std::hint::black_box(&blob)));
        });
    }
    let mb = raw / 1e6;
    out.metric("archive.encode_mb_per_s", mb / enc_s);
    out.metric("archive.decode_mb_per_s", mb / dec_s);
    // The checksum runs over encoded bytes, as the archive applies it.
    out.metric("archive.crc_mb_per_s", packed / 1e6 / crc_s);
    out.metric("archive.compression_ratio", raw / packed);
    Ok(())
}

/// `meter.readings` (metered nodes × 1 Hz samples in the windows) and
/// `meter.readings_per_s` for a revised-rule measurement of `key`.
pub fn meter_kernel(key: &SimKey, out: &mut Outcome) -> Result<(), String> {
    let cluster = key.cluster()?;
    let store = TraceStore::new();
    let plan = MeasurementPlan::honest(Methodology::Revised, 1);
    let measure = || {
        measure_with_store(
            &store,
            &cluster,
            key.preset.workload.workload(),
            key.preset.balance,
            key.config,
            &plan,
        )
        .map_err(|e| e.to_string())
    };
    // The first call simulates the metered subset; timed calls are warm.
    let m = measure()?;
    let window_s: f64 = m.windows.iter().map(|(a, b)| b - a).sum();
    let readings = m.metered_nodes.len() as f64 * window_s.floor();
    let secs = per_call(|| {
        std::hint::black_box(measure().ok());
    });
    out.metric("meter.readings", readings);
    out.metric("meter.readings_per_s", readings / secs);
    Ok(())
}

/// `accel.device_steps_per_s` for a capped sweep of the K20X population.
pub fn accel_kernel(out: &mut Outcome) -> Result<(), String> {
    let preset = AccelPreset::by_name("k20x").ok_or("no k20x preset")?;
    let pop = preset.population(Some(400), 1).map_err(|e| e.to_string())?;
    let cfg = preset.sweep_config(true);
    let mut steps = 0;
    let secs = per_call(|| {
        steps = pop.sweep(&cfg).map_or(0, |r| r.device_steps);
    });
    out.metric("accel.device_steps_per_s", steps as f64 / secs);
    Ok(())
}

/// The kernels for a campaign workload, on its representative systems.
pub fn campaign_kernels(workload: &str, out: &mut Outcome) -> Result<(), String> {
    let keys = if workload == "scale_levels" {
        let scale = Scale {
            max_nodes: crate::campaign::SCALE_NODES,
            dt_scale: 16.0,
            ..Scale::default()
        };
        vec![SimKey::campaign("sequoia-25", &scale, 7)?]
    } else {
        let scale = Scale::default();
        ["colosse", "sequoia-25", "piz daint", "l-csc"]
            .iter()
            .map(|n| SimKey::campaign(n, &scale, 1))
            .collect::<Result<_, _>>()?
    };
    let products = sim_kernel(&keys, out)?;
    archive_kernel(&products, out)?;
    meter_kernel(&keys[0], out)?;
    if workload == "repro" {
        accel_kernel(out)?;
    }
    Ok(())
}
