//! `--selftest`: the benchmark checks itself in short mode.
//!
//! * the percentile rule: a tail is reported only with at least ten
//!   samples beyond it, and too few samples fail the run;
//! * injected faults count: a failing gate, a changed `summary.json`, a
//!   wrong status and a wrong body each raise `failed`;
//! * every workload, run briefly with tracing off and on, emits every
//!   metric that applies to it, each with a declared unit.

use crate::{
    campaign, execute, finish, make_run, serve, stats, Outcome, END_TO_END, PER_LAYER, WORKLOADS,
};

fn check(name: &str, result: Result<(), String>, failures: &mut u32) {
    match result {
        Ok(()) => eprintln!("selftest: ok   {name}"),
        Err(e) => {
            eprintln!("selftest: FAIL {name}: {e}");
            *failures += 1;
        }
    }
}

fn percentile_rule() -> Result<(), String> {
    for (n, want) in [
        (1000, Some(99.0)),
        (999, Some(90.0)),
        (100, Some(90.0)),
        (99, Some(75.0)),
        (40, Some(75.0)),
        (39, Some(50.0)),
        (19, None),
    ] {
        if stats::tail_percentile(n) != want {
            return Err(format!(
                "{n} samples gave {:?}, want {want:?}",
                stats::tail_percentile(n)
            ));
        }
    }
    let mut out = Outcome::default();
    out.latency(&[&[1.0; 19]]);
    if out.failed != 1 || out.metrics.contains_key("tail_ms") {
        return Err("19 samples were reported instead of failing the run".into());
    }
    let mut out = Outcome::default();
    let ms: Vec<f64> = (1..=100).map(f64::from).collect();
    out.latency(&[&ms]);
    if out.metrics.get("tail_ms") != Some(&90.0) {
        return Err(format!(
            "100 samples gave tail {:?}, want p90 = 90",
            out.metrics.get("tail_ms")
        ));
    }
    Ok(())
}

fn emits_every_metric(workload: &str, trace: bool) -> Result<(), String> {
    // Short runs: long enough for 20 latency samples at the serve
    // workload's 8 requests/s.
    let seconds = if workload == "serve_writes" {
        10.0
    } else {
        2.0
    };
    let run = make_run(workload, 1, seconds, trace);
    let mut out = execute(&run)?;
    finish(&mut out, trace);
    if out.failed != 0 {
        return Err(format!("correctness failures: {:?}", out.failures));
    }
    let wanted: Vec<(&str, &str)> = if trace {
        PER_LAYER
            .iter()
            .filter(|(_, _, a)| a.covers(workload))
            .map(|&(n, u, _)| (n, u))
            .collect()
    } else {
        END_TO_END.to_vec()
    };
    let missing: Vec<&str> = wanted
        .iter()
        .filter(|(n, u)| u.is_empty() || !out.metrics.get(*n).is_some_and(|v| v.is_finite()))
        .map(|(n, _)| *n)
        .collect();
    if missing.is_empty() {
        Ok(())
    } else {
        Err(format!("missing or non-finite: {}", missing.join(", ")))
    }
}

pub fn run() -> i32 {
    let mut failures = 0;
    check("percentile rule", percentile_rule(), &mut failures);
    let work = make_run("selftest", 0, 1.0, false).work;
    check(
        "failing gate counts",
        campaign::selftest_checks(&work),
        &mut failures,
    );
    let _ = std::fs::remove_dir_all(&work);
    check(
        "wrong responses count",
        serve::selftest_checks(),
        &mut failures,
    );
    for workload in WORKLOADS {
        for trace in [false, true] {
            let name = format!("{workload} --trace {} emits its metrics", u8::from(trace));
            check(&name, emits_every_metric(workload, trace), &mut failures);
        }
    }
    eprintln!("selftest: {failures} failure(s)");
    i32::from(failures != 0)
}
