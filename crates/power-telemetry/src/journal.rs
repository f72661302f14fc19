//! Durable campaign state: the one journal contract.
//!
//! A campaign's resumable state is small: its identity, the ordered
//! `(node, window average)` pairs fed to its
//! [`SequentialEstimator`](crate::SequentialEstimator), and whether it
//! finished. [`CampaignJournal`] persists that state for any number of
//! campaigns in one durable log, tagged by campaign id, and one
//! `replay` at open time reconstructs all of them. A fleet journals
//! thousands of campaigns this way; a live campaign
//! ([`crate::live`]) is a journal of one, under campaign id `0`.
//!
//! A record that was durable is replayed verbatim; a record lost to a
//! crash is re-derived by re-metering, which is safe because node
//! averages are deterministic functions of the campaign's identity. The
//! file-backed implementation lives in `power-archive` (`FleetWal`);
//! [`MemJournal`] here is the in-process reference it is tested
//! against.

use crate::{Result, TelemetryError};
use std::collections::BTreeMap;

/// One campaign's durable state as reconstructed by `replay`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CampaignReplay {
    /// Encoded campaign spec, opaque to the journal: a fleet stores its
    /// encoded submission spec, a live campaign its machine size.
    pub spec: Vec<u8>,
    /// Identity fingerprint recorded at creation, revalidated on resume.
    pub fingerprint: u64,
    /// `(node, finalized window average)` pairs in metering order.
    pub nodes: Vec<(u64, f64)>,
    /// Whether the campaign recorded completion.
    pub finished: bool,
}

/// Durable, multiplexed storage for campaign progress.
///
/// Implementations must apply records in order per campaign; `replay`
/// returns campaigns in ascending id order with deleted campaigns
/// omitted. Creating an existing id, creating with an empty spec, and
/// recording against an unknown id are errors.
pub trait CampaignJournal: Send {
    /// Reconstructs every surviving campaign's durable state.
    fn replay(&mut self) -> Result<BTreeMap<u64, CampaignReplay>>;

    /// Records a campaign's creation: identity plus encoded spec.
    fn record_created(&mut self, id: u64, fingerprint: u64, spec: &[u8]) -> Result<()>;

    /// Appends one finalized `(node, window average)` pair.
    fn record_node(&mut self, id: u64, node: u64, average: f64) -> Result<()>;

    /// Marks the campaign finished.
    fn record_finished(&mut self, id: u64) -> Result<()>;

    /// Removes the campaign from durable state; future replays must not
    /// return it.
    fn record_deleted(&mut self, id: u64) -> Result<()>;

    /// Makes every record appended so far durable. Creations and
    /// deletions are durable when their call returns; node and finish
    /// records only after a `sync`.
    fn sync(&mut self) -> Result<()>;
}

/// In-memory [`CampaignJournal`]: the reference implementation for
/// tests and journal-less fleets that still want resume within one
/// process.
#[derive(Debug, Clone, Default)]
pub struct MemJournal {
    campaigns: BTreeMap<u64, CampaignReplay>,
}

impl MemJournal {
    /// Creates an empty journal.
    pub fn new() -> Self {
        MemJournal::default()
    }
}

fn unknown(id: u64) -> TelemetryError {
    TelemetryError::Journal(format!("campaign {id} unknown to journal"))
}

impl CampaignJournal for MemJournal {
    fn replay(&mut self) -> Result<BTreeMap<u64, CampaignReplay>> {
        Ok(self.campaigns.clone())
    }

    fn record_created(&mut self, id: u64, fingerprint: u64, spec: &[u8]) -> Result<()> {
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

    fn record_node(&mut self, id: u64, node: u64, average: f64) -> Result<()> {
        let c = self.campaigns.get_mut(&id).ok_or_else(|| unknown(id))?;
        c.nodes.push((node, average));
        Ok(())
    }

    fn record_finished(&mut self, id: u64) -> Result<()> {
        let c = self.campaigns.get_mut(&id).ok_or_else(|| unknown(id))?;
        c.finished = true;
        Ok(())
    }

    fn record_deleted(&mut self, id: u64) -> Result<()> {
        self.campaigns.remove(&id).ok_or_else(|| unknown(id))?;
        Ok(())
    }

    fn sync(&mut self) -> Result<()> {
        Ok(())
    }
}
