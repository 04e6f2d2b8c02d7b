//! Plumbing shared by the driver-level suites (`chaos`, `engine_e2e`,
//! `frontend_backpressure`, `gang_golden`, `router_golden`): the mixed
//! workload they all offer and the one way they run it — through
//! [`Frontend`], the driver that ships.

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
    skewed_records(n, 1)
}

/// The same alternating mix with every id a multiple of `shards`, so that
/// [`PlacementPolicy::Static`](sdr_engine::PlacementPolicy) sends all of
/// it to shard 0. The driver's credit window rules out a refusal by the
/// pool as a whole; this is the refusal that is left — one full shard
/// queue beside an idle one — and the suites that pin the re-park path
/// offer it to two-deep queues.
pub fn skewed_records(n: u64, shards: u64) -> Vec<ParkedSession> {
    (0..n)
        .map(|i| {
            let id = i * shards;
            if i % 2 == 0 {
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
///
/// A pool that starts paused takes one `pump` against its stopped queues
/// and is then resumed: what a full shard refuses in that pass bounces
/// whichever way the threads race afterwards, which is how the
/// backpressure rows get a re-park they can count on.
pub fn run_to_completion(
    config: EngineConfig,
    records: Vec<ParkedSession>,
) -> (Vec<Outcome>, ScaleSummary) {
    let (paused, shards) = (config.start_paused, config.shards);
    let mut frontend = Frontend::new(EngineConfig {
        shed_lateness_cycles: u64::MAX,
        ..config
    });
    for record in records {
        frontend.admit(record);
    }
    let mut outcomes = Vec::new();
    let mut hook = |session: &Session, _| {
        outcomes.push((session.id(), session.standard(), session.state().clone()));
        None
    };
    if paused {
        frontend.pump(&mut hook);
        for shard in 0..shards {
            frontend.pool().resume(shard);
        }
    }
    let summary = frontend.run(&mut hook);
    outcomes.sort_by_key(|(id, _, _)| *id);
    (outcomes, summary)
}
