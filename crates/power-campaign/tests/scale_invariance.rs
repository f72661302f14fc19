//! Scale-invariance checks: the default scale must preserve every
//! qualitative conclusion of the paper-scale campaign
//! (`scenarios/paper_full.json`), because that is what lets CI run the
//! paper's scenarios in seconds.

use power_campaign::grid::{expand, Cell};
use power_campaign::probe::{run_probe, Metrics};
use power_campaign::{Scale, Scenario};
use power_sim::store::TraceStore;

const SEED: u64 = 20_150_715;

fn scale(max_nodes: usize, dt_scale: f64) -> Scale {
    Scale {
        max_nodes,
        dt_scale,
        placements: 21,
        bootstrap_reps: 300,
        bootstrap_population: 256,
        rank_reps: 300,
    }
}

fn cell(system: Option<&str>, probe: &str) -> Cell {
    let systems = system.map_or(String::new(), |s| format!(r#""systems":["{s}"],"#));
    let s = Scenario::parse(&format!(
        r#"{{"name":"s","seeds":[1],"grids":[{{"name":"g",{systems}"methodologies":["{probe}"]}}]}}"#
    ))
    .unwrap();
    expand(&s).remove(0)
}

fn run(system: Option<&str>, probe: &str, scale: &Scale) -> Metrics {
    run_probe(&cell(system, probe), SEED, scale, TraceStore::global()).unwrap()
}

const TRACE_SYSTEMS: [&str; 4] = ["colosse", "sequoia-25", "piz daint", "l-csc"];

/// Table 2 segment *ratios* are invariant to simulated machine size.
#[test]
fn table2_ratios_scale_invariant() {
    for sys in TRACE_SYSTEMS {
        let small = run(Some(sys), "trace", &scale(32, 24.0));
        let large = run(Some(sys), "trace", &scale(96, 24.0));
        let ratio = |m: &Metrics, k: &str| m[k] / m["core_kw"];
        let (fa, fb) = (ratio(&small, "first20_kw"), ratio(&large, "first20_kw"));
        assert!(
            (fa - fb).abs() < 0.01,
            "{sys}: first-20% ratio {fa:.4} vs {fb:.4}"
        );
        let (la, lb) = (ratio(&small, "last20_kw"), ratio(&large, "last20_kw"));
        assert!(
            (la - lb).abs() < 0.01,
            "{sys}: last-20% ratio {la:.4} vs {lb:.4}"
        );
    }
}

/// Table 4 per-node means are invariant to the time step (the preset's
/// calibration is per-node physics, not tuned totals).
#[test]
fn table4_means_scale_invariant() {
    for sys in [
        "calcul quebec",
        "cea fat",
        "cea thin",
        "lrz",
        "titan",
        "tu dresden",
    ] {
        let coarse = run(Some(sys), "nodes", &scale(64, 32.0))["mean_w"];
        let fine = run(Some(sys), "nodes", &scale(64, 8.0))["mean_w"];
        assert!(
            (coarse - fine).abs() / fine < 0.01,
            "{sys}: {coarse} vs {fine} W across dt"
        );
    }
}

/// The gaming conclusion (GPU systems gameable, Colosse not) holds at any
/// scale.
#[test]
fn gaming_ordering_scale_invariant() {
    for s in [scale(24, 48.0), scale(64, 16.0)] {
        let gain = |sys: &str| run(Some(sys), "gaming", &s)["unrestricted_gain_pct"];
        assert!(gain("l-csc") > gain("piz daint"));
        assert!(gain("piz daint") > gain("sequoia-25"));
        assert!(gain("sequoia-25") > gain("colosse"));
        assert!(gain("colosse") < 2.0);
        assert!(gain("l-csc") > 15.0);
    }
}

/// Pure-math artifacts are literally identical at every scale.
#[test]
fn analytic_experiments_scale_free() {
    let (a, b) = (scale(16, 64.0), Scale::default());
    for probe in ["samplesize", "accuracy_gap", "t_vs_z", "exascale"] {
        assert_eq!(run(None, probe, &a), run(None, probe, &b), "{probe}");
    }
    for probe in ["recommendation", "subsystems"] {
        assert_eq!(
            run(Some("titan"), probe, &a),
            run(Some("titan"), probe, &b),
            "{probe}"
        );
    }
    assert_eq!(run(None, "samplesize", &a).len(), 12);
    assert_eq!(run(None, "exascale", &a).len(), 21);
}
