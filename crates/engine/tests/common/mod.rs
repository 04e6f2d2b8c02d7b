//! Plumbing shared by the driver-level suites (`chaos`, `engine_e2e`,
//! `gang_golden`, `router_golden`): the mixed workload they all offer and
//! the one way they run it — through [`Frontend`], the driver that ships.

// Each suite compiles this module on its own and uses part of it.
#![allow(dead_code)]

use sdr_engine::{
    EngineConfig, Frontend, ParkedSession, ScaleSummary, Session, SessionState, Standard,
};

/// One terminal's outcome as the completion hook saw it.
pub type Outcome = (u64, Standard, SessionState);

/// Mixed workload: even ids W-CDMA rake terminals, odd ids 802.11a OFDM
/// terminals, seeds derived from the id both ways. Record `id` arrives at
/// cycle `id` — exactly what `Session::wcdma(id, seed)` rehydrates.
pub fn mixed_records(n: u64) -> Vec<ParkedSession> {
    (0..n)
        .map(|id| {
            if id % 2 == 0 {
                ParkedSession::new_wcdma(id, 1_000 + id, id)
            } else {
                ParkedSession::new_ofdm(id, 2_000 + id, id)
            }
        })
        .collect()
}

/// Admits `records` and runs the front-end until every terminal has left,
/// collecting each outcome through the completion hook, sorted by id.
/// Admission never sheds here: these suites pin what the *pool* does to a
/// frame, so the virtual-time model must let every frame through.
pub fn run_to_completion(
    config: EngineConfig,
    records: Vec<ParkedSession>,
) -> (Vec<Outcome>, ScaleSummary) {
    let mut frontend = Frontend::new(EngineConfig {
        shed_lateness_cycles: u64::MAX,
        ..config
    });
    for record in records {
        frontend.admit(record);
    }
    let mut outcomes = Vec::new();
    let summary = frontend.run(&mut |session: &Session, _| {
        outcomes.push((session.id(), session.standard(), session.state().clone()));
        None
    });
    outcomes.sort_by_key(|(id, _, _)| *id);
    (outcomes, summary)
}
