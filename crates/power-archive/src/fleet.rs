//! Campaign write-ahead log: one durable file for a whole fleet.
//!
//! A fleet multiplexes thousands of campaigns onto one ingest plane,
//! and [`FleetWal`] multiplexes their durability the same way: one
//! append-only log whose records are tagged by campaign id,
//! implementing [`power_telemetry::CampaignJournal`]. A live campaign
//! is a fleet of one and journals to the same format. Reopening the
//! file truncates any torn tail and replays the durable prefix into the
//! per-campaign state needed to resume every in-flight campaign at its
//! watermark.
//!
//! Record payloads (all little-endian, framed by `crate::record`):
//!
//! ```text
//! Created  op=1 | id u64 | fingerprint u64 | encoded spec bytes
//! Node     op=2 | id u64 | node u64        | average f64 bits
//! Finished op=3 | id u64
//! Deleted  op=4 | id u64
//! ```
//!
//! Fsync policy: `Created` and `Deleted` are fsynced — they are the
//! user-visible CRUD operations whose loss would change which campaigns
//! exist. `Node` and `Finished` appends are *not* fsynced: losing the
//! last few of them to a crash only rewinds a campaign's watermark, and
//! re-metering is safe because node averages are deterministic
//! functions of the campaign's identity. This keeps the per-node append
//! on the fleet's hot path at memory speed while the resume contract
//! stays exact. A caller that wants them durable anyway calls `sync`,
//! as the live campaign driver does after every node.

use crate::record::{append_record, scan_records, sync_dir, truncate_to};
use power_telemetry::{CampaignJournal, CampaignReplay, TelemetryError};
use std::collections::BTreeMap;
use std::fs::File;
use std::io;
use std::path::{Path, PathBuf};

const OP_CREATED: u8 = 1;
const OP_NODE: u8 = 2;
const OP_FINISHED: u8 = 3;
const OP_DELETED: u8 = 4;

/// A file-backed multiplexed [`CampaignJournal`] with torn-tail recovery.
#[derive(Debug)]
pub struct FleetWal {
    path: PathBuf,
    file: File,
    offset: u64,
    fsync: bool,
    campaigns: BTreeMap<u64, CampaignReplay>,
    recovered_truncation: bool,
}

fn corrupt(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what.to_string())
}

fn journal_err(e: io::Error) -> TelemetryError {
    TelemetryError::Journal(format!("fleet wal: {e}"))
}

fn id_payload(op: u8, id: u64) -> [u8; 9] {
    let mut payload = [0u8; 9];
    payload[0] = op;
    payload[1..9].copy_from_slice(&id.to_le_bytes());
    payload
}

impl FleetWal {
    /// Opens (or creates) the fleet log at `path`, truncating any torn
    /// tail left by an interrupted append and replaying the durable
    /// prefix into memory. Fails with `InvalidData` when the durable
    /// prefix is not a well-formed fleet log — CRC-valid garbage is
    /// someone else's file, not a torn write.
    pub fn open(path: impl Into<PathBuf>) -> io::Result<Self> {
        Self::open_with_fsync(path, true)
    }

    /// [`FleetWal::open`] with an explicit fsync policy for the CRUD
    /// records (`Created`/`Deleted`) and for `sync`. Node records are
    /// never fsynced on append — see the module docs for why that is
    /// safe.
    pub fn open_with_fsync(path: impl Into<PathBuf>, fsync: bool) -> io::Result<Self> {
        let path = path.into();
        let scan = scan_records(&path)?;
        if scan.torn {
            truncate_to(&path, scan.valid_len)?;
        }
        let mut campaigns: BTreeMap<u64, CampaignReplay> = BTreeMap::new();
        for (_, payload) in &scan.records {
            let op = *payload
                .first()
                .ok_or_else(|| corrupt("empty fleet wal record"))?;
            let field = |lo: usize| -> io::Result<u64> {
                payload
                    .get(lo..lo + 8)
                    .map(|b| u64::from_le_bytes(b.try_into().expect("8 bytes")))
                    .ok_or_else(|| corrupt("fleet wal record too short"))
            };
            match op {
                OP_CREATED => {
                    if payload.len() < 18 {
                        // 1 + id + fingerprint + a non-empty spec.
                        return Err(corrupt("fleet wal Created record too short"));
                    }
                    let id = field(1)?;
                    let fingerprint = field(9)?;
                    if campaigns.contains_key(&id) {
                        return Err(corrupt("fleet wal Created for existing campaign"));
                    }
                    campaigns.insert(
                        id,
                        CampaignReplay {
                            spec: payload[17..].to_vec(),
                            fingerprint,
                            nodes: Vec::new(),
                            finished: false,
                        },
                    );
                }
                OP_NODE => {
                    if payload.len() != 25 {
                        return Err(corrupt("fleet wal Node record wrong length"));
                    }
                    let id = field(1)?;
                    let node = field(9)?;
                    let avg = f64::from_bits(field(17)?);
                    if !avg.is_finite() {
                        return Err(corrupt("fleet wal Node average not finite"));
                    }
                    campaigns
                        .get_mut(&id)
                        .ok_or_else(|| corrupt("fleet wal Node for unknown campaign"))?
                        .nodes
                        .push((node, avg));
                }
                OP_FINISHED => {
                    if payload.len() != 9 {
                        return Err(corrupt("fleet wal Finished record wrong length"));
                    }
                    let id = field(1)?;
                    campaigns
                        .get_mut(&id)
                        .ok_or_else(|| corrupt("fleet wal Finished for unknown campaign"))?
                        .finished = true;
                }
                OP_DELETED => {
                    if payload.len() != 9 {
                        return Err(corrupt("fleet wal Deleted record wrong length"));
                    }
                    let id = field(1)?;
                    if campaigns.remove(&id).is_none() {
                        return Err(corrupt("fleet wal Deleted for unknown campaign"));
                    }
                }
                _ => return Err(corrupt("unknown fleet wal record op")),
            }
        }
        let file = File::options()
            .create(true)
            .truncate(false)
            .read(true)
            .write(true)
            .open(&path)?;
        // A bare file name has an empty parent: its directory is `.`.
        let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
        sync_dir(dir.unwrap_or(Path::new(".")))?;
        Ok(FleetWal {
            offset: scan.valid_len,
            file,
            path,
            fsync,
            campaigns,
            recovered_truncation: scan.torn,
        })
    }

    /// Path of the backing log file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// True when opening truncated a torn tail from a previous crash.
    pub fn recovered_truncation(&self) -> bool {
        self.recovered_truncation
    }

    /// Campaigns currently live in the log's durable state.
    pub fn campaign_count(&self) -> usize {
        self.campaigns.len()
    }

    /// Bytes of durable log.
    pub fn len_bytes(&self) -> u64 {
        self.offset
    }

    fn append(&mut self, payload: &[u8], fsync: bool) -> power_telemetry::Result<()> {
        let len = append_record(&mut self.file, self.offset, payload, fsync && self.fsync)
            .map_err(journal_err)?;
        self.offset += len;
        Ok(())
    }
}

impl CampaignJournal for FleetWal {
    fn replay(&mut self) -> power_telemetry::Result<BTreeMap<u64, CampaignReplay>> {
        Ok(self.campaigns.clone())
    }

    fn record_created(
        &mut self,
        id: u64,
        fingerprint: u64,
        spec: &[u8],
    ) -> power_telemetry::Result<()> {
        if spec.is_empty() {
            return Err(TelemetryError::Journal(
                "refusing to record empty spec".into(),
            ));
        }
        if self.campaigns.contains_key(&id) {
            return Err(TelemetryError::Journal(format!(
                "campaign {id} already created"
            )));
        }
        let mut payload = Vec::with_capacity(17 + spec.len());
        payload.push(OP_CREATED);
        payload.extend_from_slice(&id.to_le_bytes());
        payload.extend_from_slice(&fingerprint.to_le_bytes());
        payload.extend_from_slice(spec);
        self.append(&payload, true)?;
        self.campaigns.insert(
            id,
            CampaignReplay {
                spec: spec.to_vec(),
                fingerprint,
                nodes: Vec::new(),
                finished: false,
            },
        );
        Ok(())
    }

    fn record_node(&mut self, id: u64, node: u64, average: f64) -> power_telemetry::Result<()> {
        let c = self
            .campaigns
            .get_mut(&id)
            .ok_or_else(|| TelemetryError::Journal(format!("campaign {id} unknown to wal")))?;
        let mut payload = [0u8; 25];
        payload[0] = OP_NODE;
        payload[1..9].copy_from_slice(&id.to_le_bytes());
        payload[9..17].copy_from_slice(&node.to_le_bytes());
        payload[17..25].copy_from_slice(&average.to_bits().to_le_bytes());
        c.nodes.push((node, average));
        self.append(&payload, false)
    }

    fn record_finished(&mut self, id: u64) -> power_telemetry::Result<()> {
        let c = self
            .campaigns
            .get_mut(&id)
            .ok_or_else(|| TelemetryError::Journal(format!("campaign {id} unknown to wal")))?;
        c.finished = true;
        self.append(&id_payload(OP_FINISHED, id), false)
    }

    fn record_deleted(&mut self, id: u64) -> power_telemetry::Result<()> {
        if self.campaigns.remove(&id).is_none() {
            return Err(TelemetryError::Journal(format!(
                "campaign {id} unknown to wal"
            )));
        }
        self.append(&id_payload(OP_DELETED, id), true)
    }

    fn sync(&mut self) -> power_telemetry::Result<()> {
        if self.fsync {
            self.file.sync_data().map_err(journal_err)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use power_fleet::FleetCampaignSpec;
    use std::io::{Seek, SeekFrom, Write};

    fn tmpdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("power-archive-fleet-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn spec_bytes(name: &str, seed: u64) -> (Vec<u8>, u64) {
        let spec = FleetCampaignSpec {
            name: name.to_string(),
            seed,
            ..FleetCampaignSpec::default()
        };
        (spec.encode(), spec.fingerprint())
    }

    #[test]
    fn reopen_replays_multiplexed_campaigns() {
        let dir = tmpdir("reopen");
        let path = dir.join("fleet.wal");
        {
            let mut wal = FleetWal::open(&path).unwrap();
            for id in 0..3u64 {
                let (spec, fp) = spec_bytes(&format!("m-{id}"), id);
                wal.record_created(id, fp, &spec).unwrap();
            }
            // Interleaved node records across campaigns.
            for node in 0..4u64 {
                for id in 0..3u64 {
                    wal.record_node(id, node, 100.0 * (id + 1) as f64 + node as f64)
                        .unwrap();
                }
            }
            wal.record_finished(1).unwrap();
            wal.record_deleted(2).unwrap();
        }
        let mut wal = FleetWal::open(&path).unwrap();
        assert!(!wal.recovered_truncation());
        let replay = wal.replay().unwrap();
        assert_eq!(replay.len(), 2);
        assert!(!replay[&0].finished);
        assert!(replay[&1].finished);
        assert!(!replay.contains_key(&2));
        for id in 0..2u64 {
            let c = &replay[&id];
            let (spec, fp) = spec_bytes(&format!("m-{id}"), id);
            assert_eq!(c.spec, spec);
            assert_eq!(c.fingerprint, fp);
            assert_eq!(c.nodes.len(), 4);
            for (i, &(node, avg)) in c.nodes.iter().enumerate() {
                assert_eq!(node, i as u64);
                assert_eq!(avg, 100.0 * (id + 1) as f64 + i as f64);
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_and_prefix_survives() {
        let dir = tmpdir("torn");
        let path = dir.join("fleet.wal");
        let durable_nodes;
        {
            let mut wal = FleetWal::open(&path).unwrap();
            let (spec, fp) = spec_bytes("torn", 7);
            wal.record_created(0, fp, &spec).unwrap();
            for node in 0..5u64 {
                wal.record_node(0, node, 200.0 + node as f64).unwrap();
            }
            durable_nodes = 5;
            // Simulate a torn append: garbage past the valid stream.
            let end = wal.len_bytes();
            wal.file.seek(SeekFrom::Start(end)).unwrap();
            wal.file.write_all(b"PAR1\x99\x00").unwrap();
            wal.file.sync_data().unwrap();
        }
        let mut wal = FleetWal::open(&path).unwrap();
        assert!(wal.recovered_truncation());
        let replay = wal.replay().unwrap();
        assert_eq!(replay[&0].nodes.len(), durable_nodes);
        // The log keeps accepting appends after recovery.
        wal.record_node(0, 5, 205.0).unwrap();
        drop(wal);
        let mut wal = FleetWal::open(&path).unwrap();
        assert!(!wal.recovered_truncation());
        assert_eq!(wal.replay().unwrap()[&0].nodes.len(), durable_nodes + 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn foreign_files_are_rejected() {
        let dir = tmpdir("foreign");
        // CRC-valid garbage with an unknown op byte.
        let garbage = dir.join("garbage.wal");
        {
            let mut file = File::options()
                .create(true)
                .truncate(false)
                .read(true)
                .write(true)
                .open(&garbage)
                .unwrap();
            append_record(&mut file, 0, &[0x7F, 1, 2, 3], false).unwrap();
        }
        let err = FleetWal::open(&garbage).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);

        // Node record for a campaign that was never created.
        let orphan = dir.join("orphan.wal");
        {
            let mut file = File::options()
                .create(true)
                .truncate(false)
                .read(true)
                .write(true)
                .open(&orphan)
                .unwrap();
            let mut payload = [0u8; 25];
            payload[0] = OP_NODE;
            append_record(&mut file, 0, &payload, false).unwrap();
        }
        let err = FleetWal::open(&orphan).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn ids_can_be_reused_after_deletion() {
        let dir = tmpdir("reuse");
        let path = dir.join("fleet.wal");
        {
            let mut wal = FleetWal::open(&path).unwrap();
            let (spec_a, fp_a) = spec_bytes("first", 1);
            wal.record_created(7, fp_a, &spec_a).unwrap();
            wal.record_node(7, 0, 111.0).unwrap();
            wal.record_deleted(7).unwrap();
            let (spec_b, fp_b) = spec_bytes("second", 2);
            wal.record_created(7, fp_b, &spec_b).unwrap();
            wal.record_node(7, 0, 222.0).unwrap();
        }
        let mut wal = FleetWal::open(&path).unwrap();
        let replay = wal.replay().unwrap();
        assert_eq!(replay.len(), 1);
        assert_eq!(replay[&7].fingerprint, spec_bytes("second", 2).1);
        assert_eq!(replay[&7].nodes, vec![(0, 222.0)]);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
