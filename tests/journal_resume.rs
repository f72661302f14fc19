//! The one campaign journal, end to end: a live campaign resumed from
//! any crash point of its write-ahead log reports exactly what an
//! uninterrupted run reports; live campaigns and fleets refuse each
//! other's logs; and the in-memory reference journal and the
//! file-backed log answer every call alike.

use hpcpower::meter::device::MeterModel;
use hpcpower::sim::engine::{SimulationConfig, Simulator};
use hpcpower::sim::{Cluster, SystemPreset};
use hpcpower::telemetry::{
    run_live_campaign_journaled, CampaignJournal, LiveCampaignConfig, LiveCampaignReport,
    MemJournal, TelemetryError,
};
use hpcpower::workload::{Firestarter, LoadBalance, RunPhases};
use power_archive::FleetWal;
use power_fleet::{Fleet, FleetCampaignSpec, FleetConfig, FleetError};
use std::path::PathBuf;

/// Framed record lengths of the fleet WAL (12 bytes of framing plus
/// the payload): a live campaign's `Created` carries an 8-byte spec.
const CREATED_LEN: usize = 12 + 1 + 8 + 8 + 8;
const NODE_LEN: usize = 12 + 1 + 8 + 8 + 8;

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hpcpower-journal-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// L-CSC at 24 nodes with an unreachable target, so the campaign meters
/// its whole 12-node budget.
fn with_campaign<T>(f: impl FnOnce(&Simulator<'_>, &LiveCampaignConfig) -> T) -> T {
    let preset = SystemPreset::trace_presets()
        .into_iter()
        .find(|p| p.name == "L-CSC")
        .expect("L-CSC trace preset exists")
        .with_total_nodes(24);
    let cluster = Cluster::build(preset.cluster_spec).unwrap();
    let wl = Firestarter::new(RunPhases::new(30.0, 300.0, 30.0).unwrap());
    let mut sim_cfg = SimulationConfig::one_hertz(17);
    sim_cfg.dt = 5.0;
    let sim = Simulator::new(&cluster, &wl, LoadBalance::Balanced, sim_cfg).unwrap();
    let cfg = LiveCampaignConfig {
        lambda: 1e-6,
        max_nodes: 12,
        ..LiveCampaignConfig::table5(0.02, 0.03, MeterModel::ideal())
    };
    f(&sim, &cfg)
}

fn assert_same_report(a: &LiveCampaignReport, b: &LiveCampaignReport, cut: usize) {
    assert_eq!(a.metered_nodes, b.metered_nodes, "cut at {cut}");
    assert_eq!(a.stopped_at, b.stopped_at, "cut at {cut}");
    assert_eq!(
        a.mean_node_w.to_bits(),
        b.mean_node_w.to_bits(),
        "cut at {cut}"
    );
    assert_eq!(
        a.relative_accuracy.to_bits(),
        b.relative_accuracy.to_bits(),
        "cut at {cut}"
    );
}

/// A crash can leave the log cut at any byte. Resuming from every such
/// cut replays exactly the whole node records before it, re-meters the
/// rest, and reports bit-identically to the uninterrupted run.
#[test]
fn resume_from_every_cut_of_the_wal_matches_uninterrupted() {
    let dir = tmpdir("cuts");
    with_campaign(|sim, cfg| {
        let full_path = dir.join("full.wal");
        let baseline = {
            let mut wal = FleetWal::open(&full_path).unwrap();
            run_live_campaign_journaled(sim, cfg, &mut wal).unwrap()
        };
        assert_eq!(baseline.resumed_nodes, 0);
        assert_eq!(baseline.metered_nodes, 12);
        assert_eq!(baseline.stopped_at, None);
        let full = std::fs::read(&full_path).unwrap();
        assert_eq!(full.len(), CREATED_LEN + 12 * NODE_LEN);

        let cut_path = dir.join("cut.wal");
        for cut in 0..=full.len() {
            std::fs::write(&cut_path, &full[..cut]).unwrap();
            // fsync off: durability is not under test here, and some
            // 5 000 fsyncs would dominate the run.
            let mut wal = FleetWal::open_with_fsync(&cut_path, false).unwrap();
            let resumed = run_live_campaign_journaled(sim, cfg, &mut wal).unwrap();
            let whole_nodes = cut.saturating_sub(CREATED_LEN) / NODE_LEN;
            assert_eq!(resumed.resumed_nodes, whole_nodes as u64, "cut at {cut}");
            assert_same_report(&resumed, &baseline, cut);
            drop(wal);
            // Re-metering rewrote exactly the records the cut lost.
            assert!(std::fs::read(&cut_path).unwrap() == full, "cut at {cut}");
        }
    });
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A live campaign and a fleet share the log format but not the log:
/// each refuses the other's, loudly, and leaves it untouched.
#[test]
fn live_campaigns_and_fleets_refuse_each_others_wal() {
    let dir = tmpdir("refuse");
    with_campaign(|sim, cfg| {
        let fleet_path = dir.join("fleet.wal");
        {
            let wal = FleetWal::open(&fleet_path).unwrap();
            let fleet = Fleet::open(FleetConfig::default(), Box::new(wal)).unwrap();
            fleet.create(FleetCampaignSpec::default()).unwrap();
            fleet.drive_until_idle();
        }
        let before = std::fs::read(&fleet_path).unwrap();
        let mut wal = FleetWal::open(&fleet_path).unwrap();
        let err = run_live_campaign_journaled(sim, cfg, &mut wal).unwrap_err();
        assert!(matches!(err, TelemetryError::Journal(_)), "{err}");
        drop(wal);
        assert!(std::fs::read(&fleet_path).unwrap() == before);

        let live_path = dir.join("live.wal");
        {
            let mut wal = FleetWal::open(&live_path).unwrap();
            run_live_campaign_journaled(sim, cfg, &mut wal).unwrap();
        }
        let before = std::fs::read(&live_path).unwrap();
        let wal = FleetWal::open(&live_path).unwrap();
        let Err(err) = Fleet::open(FleetConfig::default(), Box::new(wal)) else {
            panic!("a fleet must refuse a live campaign's WAL");
        };
        assert!(matches!(err, FleetError::Journal(_)), "{err}");
        assert!(std::fs::read(&live_path).unwrap() == before);
    });
    std::fs::remove_dir_all(&dir).unwrap();
}

#[derive(Debug, Clone, Copy)]
enum Call {
    Created(u64, u64, &'static [u8]),
    Node(u64, u64, f64),
    Finished(u64),
    Deleted(u64),
    Sync,
}

fn apply(journal: &mut dyn CampaignJournal, call: Call) -> hpcpower::telemetry::Result<()> {
    match call {
        Call::Created(id, fingerprint, spec) => journal.record_created(id, fingerprint, spec),
        Call::Node(id, node, average) => journal.record_node(id, node, average),
        Call::Finished(id) => journal.record_finished(id),
        Call::Deleted(id) => journal.record_deleted(id),
        Call::Sync => journal.sync(),
    }
}

/// One contract, two implementations: the same scripted calls give the
/// same `Ok`/`Err` from the in-memory reference and from the file-backed
/// log reopened around every call, and every reopen replays what the
/// reference holds.
#[test]
fn mem_journal_and_fleet_wal_conform() {
    use Call::*;
    let script = [
        Created(0, 0xA, b"spec-a"),
        Created(1, 0xB, b"spec-b"),
        Node(0, 0, 350.5),
        Node(1, 0, 410.25),
        Node(0, 1, 349.75),
        Node(1, 1, 409.0),
        Finished(1),
        Sync,
        Deleted(0),
        Created(0, 0xC, b"spec-c"), // id reuse after deletion
        Node(0, 0, 360.0),
        Created(1, 0xD, b"spec-d"), // duplicate create
        Node(9, 0, 1.0),            // unknown id
        Finished(9),
        Deleted(9),
        Created(2, 0xE, b""), // empty spec
        Deleted(1),
        Sync,
    ];
    let dir = tmpdir("conform");
    let path = dir.join("fleet.wal");
    let mut mem = MemJournal::new();
    for call in script {
        let want = apply(&mut mem, call);
        let got = apply(&mut FleetWal::open(&path).unwrap(), call);
        assert_eq!(got.is_ok(), want.is_ok(), "{call:?}: {got:?} vs {want:?}");
        let replayed = FleetWal::open(&path).unwrap().replay().unwrap();
        assert_eq!(replayed, mem.replay().unwrap(), "after {call:?}");
    }
    let survivors = mem.replay().unwrap();
    assert_eq!(survivors.len(), 1);
    assert_eq!(survivors[&0].spec, b"spec-c");
    assert_eq!(survivors[&0].nodes, vec![(0, 360.0)]);
    std::fs::remove_dir_all(&dir).unwrap();
}
