//! Property-based tests for workload models.

use proptest::prelude::*;

use power_workload::registry;
use power_workload::{
    Firestarter, Graph500, Hpl, HplShape, HplVariant, LoadBalance, MPrime, RodiniaCfd, RunPhases,
    Workload,
};

fn arb_phases() -> impl Strategy<Value = RunPhases> {
    (0.0..600.0f64, 60.0..20_000.0f64, 0.0..600.0f64)
        .prop_map(|(s, c, t)| RunPhases::new(s, c, t).unwrap())
}

fn arb_gpu_shape() -> impl Strategy<Value = HplShape> {
    (
        0.5..1.0f64,
        0.0..0.9f64,
        0.0..0.9f64,
        0.5..4.0f64,
        0.0..0.1f64,
    )
        .prop_map(|(peak, plateau, end, kappa, warmup)| HplShape {
            peak,
            plateau_frac: plateau,
            end_frac: end,
            kappa,
            warmup_frac: warmup,
            idle: 0.1,
            ripple: 0.01,
            panel_steps: 100.0,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn every_workload_in_unit_range(phases in arb_phases(), node in 0usize..1000, t in -100.0..30_000.0f64) {
        let loads: Vec<Box<dyn Workload>> = vec![
            Box::new(Hpl::new(HplVariant::CpuMainMemory, phases, 1e15).unwrap()),
            Box::new(Hpl::new(HplVariant::GpuInCore, phases, 1e15).unwrap()),
            Box::new(Firestarter::new(phases)),
            Box::new(MPrime::new(phases)),
            Box::new(RodiniaCfd::new(phases)),
            Box::new(Graph500::new(phases)),
        ];
        for wl in &loads {
            let u = wl.utilization(node, t);
            prop_assert!((0.0..=1.0).contains(&u), "{} at {t}: {u}", wl.name());
            // Outside the run the machine is idle.
            if t < 0.0 || t >= phases.total() {
                prop_assert_eq!(u, 0.0);
            }
        }
    }

    #[test]
    fn hpl_envelope_decreasing_after_warmup(shape in arb_gpu_shape(), tau in 0.0..1.0f64) {
        let phases = RunPhases::core_only(1000.0).unwrap();
        let hpl = Hpl::with_shape(HplVariant::GpuInCore, phases, 0.0, shape).unwrap();
        let tau = tau.max(shape.warmup_frac);
        let e1 = hpl.envelope(tau);
        let e2 = hpl.envelope((tau + 0.05).min(1.0));
        prop_assert!(e2 <= e1 + 1e-12);
        prop_assert!(e1 <= shape.peak + 1e-12);
        prop_assert!(e1 >= shape.peak * shape.end_frac - 1e-12);
    }

    #[test]
    fn hpl_mean_consistent_with_segments(shape in arb_gpu_shape()) {
        // The monotone-envelope ordering only holds without the warm-up
        // ramp (warm-up deliberately depresses the first segment).
        let shape = HplShape { warmup_frac: 0.0, ..shape };
        let phases = RunPhases::core_only(1000.0).unwrap();
        let hpl = Hpl::with_shape(HplVariant::GpuInCore, phases, 0.0, shape).unwrap();
        let mean = hpl.mean_core_utilization();
        let first = hpl.mean_envelope(0.0, 0.2);
        let last = hpl.mean_envelope(0.8, 1.0);
        // Monotone envelope => first segment >= mean >= last segment.
        prop_assert!(first >= mean - 1e-6);
        prop_assert!(last <= mean + 1e-6);
        // Five disjoint fifths average to the full mean.
        let fifths: f64 = (0..5)
            .map(|k| hpl.mean_envelope(k as f64 * 0.2, (k + 1) as f64 * 0.2))
            .sum::<f64>()
            / 5.0;
        prop_assert!((fifths - mean).abs() < 1e-3);
    }

    #[test]
    fn balance_factors_bounded(
        node in 0usize..10_000,
        total in 1usize..10_001,
        spread in 0.0..0.99f64,
        hot in 0.0..=1.0f64,
        cold in 0.0..=1.0f64,
    ) {
        prop_assume!(node < total);
        for b in [
            LoadBalance::Balanced,
            LoadBalance::Uneven { spread },
            LoadBalance::HotCold { hot_fraction: hot, cold_factor: cold },
        ] {
            let f = b.factor(node, total);
            prop_assert!((0.0..=2.0).contains(&f), "{b:?}: {f}");
        }
    }

    #[test]
    fn uneven_mean_near_one(total in 50usize..5000, spread in 0.0..0.9f64) {
        let b = LoadBalance::Uneven { spread };
        let m = b.mean_factor(total);
        prop_assert!((m - 1.0).abs() < 0.05, "mean = {m}");
    }

    #[test]
    fn phases_geometry(setup in 0.0..1000.0f64, core in 1.0..100_000.0f64, td in 0.0..1000.0f64) {
        let p = RunPhases::new(setup, core, td).unwrap();
        prop_assert_eq!(p.total(), setup + core + td);
        let (a, b) = p.core_middle_80();
        prop_assert!(a >= p.core_start() && b <= p.core_end());
        prop_assert!((b - a - 0.8 * core).abs() < 1e-9);
        // Segments tile the core phase.
        let (s0, e0) = p.core_segment(0.0, 0.5);
        let (s1, e1) = p.core_segment(0.5, 1.0);
        prop_assert!((e0 - s1).abs() < 1e-9);
        prop_assert!((s0 - p.core_start()).abs() < 1e-9);
        prop_assert!((e1 - p.core_end()).abs() < 1e-9);
    }

    #[test]
    fn utilization_many_matches_utilization_bit_for_bit(
        phases in arb_phases(),
        shape in arb_gpu_shape(),
        nodes in prop::collection::vec(0usize..100_000, 1..80),
        pick in 0usize..8,
        r in -100.0..30_000.0f64,
    ) {
        // Phase boundaries and out-of-run times, not just interior points.
        let t = match pick {
            0 => phases.core_start(),
            1 => phases.core_end(),
            2 => phases.total(),
            3 => 0.0,
            4 => -1.0,
            5 => phases.total() + r.abs(),
            _ => r,
        };
        let mut loads: Vec<Box<dyn Workload>> = registry::names()
            .iter()
            .map(|name| registry::by_name(name, phases, 1e15).unwrap())
            .collect();
        loads.push(Box::new(
            Hpl::with_shape(HplVariant::GpuInCore, phases, 1e15, shape).unwrap(),
        ));
        for wl in &loads {
            let mut many = vec![f64::NAN; nodes.len()];
            wl.utilization_many(&nodes, t, &mut many);
            for (&node, u) in nodes.iter().zip(&many) {
                let one = wl.utilization(node, t);
                prop_assert_eq!(
                    u.to_bits(),
                    one.to_bits(),
                    "{} node {} at t={}: {} vs {}",
                    wl.name(),
                    node,
                    t,
                    u,
                    one
                );
            }
        }
    }
}
