//! Command-line drivers over the workspace. Every table and figure of
//! the paper is a gated grid of a scenario file (`scenarios/paper.json`,
//! `scenarios/experiments.json`, and `scenarios/paper_full.json` at the
//! published scale), run by `campaign`:
//!
//! | binary          | what it runs |
//! |-----------------|--------------|
//! | `campaign`      | scenario-file sweeps with repeatability gates (`scenarios/*.json`) |
//! | `live_campaign` | online Table 5 — streaming ingestion + sequential stopping |
//! | `serve`         | the HTTP query service and its smoke checks |
//!
//! [`table`] renders the campaign's cross-seed bands for terminals.

#![warn(missing_docs)]

pub mod table;
