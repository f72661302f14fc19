//! `FleetWal::open` on a bare file name keeps the log in the working
//! directory and still syncs that directory. This is its own test
//! binary because it changes the process's working directory.

use power_archive::FleetWal;
use power_telemetry::CampaignJournal;

#[test]
fn bare_file_name_opens_in_the_working_directory() {
    let dir = std::env::temp_dir().join(format!("power-archive-relative-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    std::env::set_current_dir(&dir).unwrap();
    {
        let mut wal = FleetWal::open("fleet.wal").unwrap();
        wal.record_created(0, 0xF00D, b"spec").unwrap();
        wal.record_node(0, 0, 351.25).unwrap();
    }
    let mut wal = FleetWal::open("fleet.wal").unwrap();
    let replay = wal.replay().unwrap();
    assert_eq!(replay[&0].fingerprint, 0xF00D);
    assert_eq!(replay[&0].nodes, vec![(0, 351.25)]);
    assert!(dir.join("fleet.wal").is_file());
    drop(wal);
    std::env::set_current_dir(std::env::temp_dir()).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}
