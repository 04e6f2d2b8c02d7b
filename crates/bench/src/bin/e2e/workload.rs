//! The four seeded workloads and their record generator.
//!
//! Records are a pure function of `(workload, seed, round)`: the program
//! under test only ever receives the generated `ParkedSession`s.

use sdr_dsp::rng::Rng64;
use sdr_engine::frontend::{OFDM_SERVICE_CYCLES, WCDMA_SERVICE_CYCLES};
use sdr_engine::{ParkedSession, Standard};

/// Which standards a workload's frames run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    Wcdma,
    Ofdm,
    /// W-CDMA on even frame ids, OFDM on odd — the basestation example's mix.
    Alternating,
}

impl Mix {
    fn standard_of(self, id: u64) -> Standard {
        match self {
            Mix::Wcdma => Standard::Wcdma,
            Mix::Ofdm => Standard::Ofdm,
            Mix::Alternating if id.is_multiple_of(2) => Standard::Wcdma,
            Mix::Alternating => Standard::Ofdm,
        }
    }

    /// Share of frames that run `standard`.
    pub fn weight(self, standard: Standard) -> f64 {
        match (self, standard) {
            (Mix::Alternating, _) => 0.5,
            (Mix::Wcdma, Standard::Wcdma) | (Mix::Ofdm, Standard::Ofdm) => 1.0,
            _ => 0.0,
        }
    }

    pub fn standards(self) -> &'static [Standard] {
        match self {
            Mix::Wcdma => &[Standard::Wcdma],
            Mix::Ofdm => &[Standard::Ofdm],
            Mix::Alternating => &[Standard::Wcdma, Standard::Ofdm],
        }
    }
}

#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub mix: Mix,
    pub shards: usize,
    pub arrays_per_shard: usize,
    /// Frames in one timed round (about a second of host time on the
    /// 2-core reference host); a run repeats rounds for `--seconds`.
    pub round_frames: usize,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "wcdma_steady",
        why: "W-CDMA only on 2x1: host time is synthesis, Gold-code generation, path search and array stepping; the config path idles",
        mix: Mix::Wcdma,
        shards: 2,
        arrays_per_shard: 1,
        round_frames: 256,
    },
    Workload {
        name: "ofdm_reconfig",
        why: "OFDM only on 2x1: every frame does the Fig. 10 2a->2b swap on short kernels, so config_manager, pool dispatch and router weigh most",
        mix: Mix::Ofdm,
        shards: 2,
        arrays_per_shard: 1,
        round_frames: 2560,
    },
    Workload {
        name: "mixed_gang",
        why: "alternating mix on 2 shards x 2 arrays: the only shape running gang batching, affinity routing, delta-aware members and stealing together",
        mix: Mix::Alternating,
        shards: 2,
        arrays_per_shard: 2,
        round_frames: 384,
    },
    Workload {
        name: "backpressure_1x1",
        why: "same mix on 1x1: the 64-frame window exceeds the 32-deep queue, so the front-end re-parks and rehydrates continuously",
        mix: Mix::Alternating,
        shards: 1,
        arrays_per_shard: 1,
        round_frames: 192,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Session seeds are drawn from `0..SESSION_SEEDS`. Every seed in that
/// range completes `Done` for both standards (the ignored test
/// `every_session_seed_completes` enumerates them), so no workload seed
/// can produce a failing frame.
pub const SESSION_SEEDS: u64 = 4096;

/// Warm-up frames per standard present, run before each timed round.
pub const WARMUP_FRAMES_PER_STANDARD: usize = 8;

/// Round index of the warm-up batch (its own record stream and id range).
pub const WARMUP_ROUND: u64 = u64::MAX;

/// Utilisation of the virtual-time admission model the arrival rate
/// targets: no frame should be shed, and any shed counts as a failure.
const TARGET_UTILISATION: f64 = 0.5;

impl Workload {
    pub fn workers(&self) -> usize {
        self.shards * self.arrays_per_shard
    }

    /// Mean Poisson interarrival in modeled array cycles that puts the
    /// virtual-time admission model at rho = 0.5.
    pub fn mean_interarrival_cycles(&self) -> f64 {
        let mean_service = self.mix.weight(Standard::Wcdma) * WCDMA_SERVICE_CYCLES as f64
            + self.mix.weight(Standard::Ofdm) * OFDM_SERVICE_CYCLES as f64;
        mean_service / (TARGET_UTILISATION * self.workers() as f64)
    }

    pub fn warmup_frames(&self) -> usize {
        WARMUP_FRAMES_PER_STANDARD * self.mix.standards().len()
    }

    /// `frames` records of `round`, arrivals starting after
    /// `arrival_offset`. Each standard draws session seeds from its own
    /// stream, so the k-th W-CDMA frame of a `(seed, round)` is the same
    /// terminal in every workload.
    pub fn records(
        &self,
        seed: u64,
        round: u64,
        frames: usize,
        arrival_offset: u64,
    ) -> Vec<ParkedSession> {
        let stream =
            |tag: u64| Rng64::seed_from_u64(seed ^ round.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ tag);
        let mut arrivals = stream(0xA221_7A15);
        let mut wcdma_seeds = stream(0x3C_D3A);
        let mut ofdm_seeds = stream(0x0F_D3);
        // Warm-up ids sit far above any timed id so the two never collide
        // in the front-end's per-id bookkeeping.
        let id_base = if round == WARMUP_ROUND { 1 << 40 } else { 0 };
        let mean = self.mean_interarrival_cycles();
        let mut arrival = arrival_offset;
        (0..frames as u64)
            .map(|i| {
                let u = arrivals.next_f64().max(1e-12);
                arrival += (-mean * u.ln()).ceil() as u64;
                let id = id_base + i;
                match self.mix.standard_of(i) {
                    Standard::Wcdma => {
                        ParkedSession::new_wcdma(id, wcdma_seeds.next_below(SESSION_SEEDS), arrival)
                    }
                    Standard::Ofdm => {
                        ParkedSession::new_ofdm(id, ofdm_seeds.next_below(SESSION_SEEDS), arrival)
                    }
                }
            })
            .collect()
    }
}

/// FNV-1a over the fields of the records: the identity of a generated
/// batch in the report's `deterministic` section.
pub fn checksum(records: &[ParkedSession]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for r in records {
        let tag = match r.standard() {
            Standard::Wcdma => 1,
            Standard::Ofdm => 2,
        };
        for word in [r.id(), r.seed(), r.deadline(), tag] {
            for byte in word.to_le_bytes() {
                h = (h ^ byte as u64).wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_are_a_pure_function_of_workload_seed_and_round() {
        for w in &WORKLOADS {
            let a = w.records(7, 0, 200, 0);
            assert_eq!(a, w.records(7, 0, 200, 0), "{}: same inputs differ", w.name);
            assert_ne!(a, w.records(8, 0, 200, 0), "{}: seed ignored", w.name);
            assert_ne!(a, w.records(7, 1, 200, 0), "{}: round ignored", w.name);
            assert_ne!(checksum(&a), checksum(&w.records(8, 0, 200, 0)));
            assert!(a.iter().all(|r| r.seed() < SESSION_SEEDS));
            assert!(a.windows(2).all(|p| p[0].arrival() <= p[1].arrival()));
        }
    }

    #[test]
    fn mixes_match_their_description() {
        let count = |w: &Workload, s: Standard| {
            w.records(1, 0, 100, 0)
                .iter()
                .filter(|r| r.standard() == s)
                .count()
        };
        assert_eq!(count(&WORKLOADS[0], Standard::Wcdma), 100);
        assert_eq!(count(&WORKLOADS[1], Standard::Ofdm), 100);
        assert_eq!(count(&WORKLOADS[2], Standard::Wcdma), 50);
        assert_eq!(count(&WORKLOADS[3], Standard::Ofdm), 50);
    }

    #[test]
    fn a_standard_stream_is_shared_across_workloads() {
        let seeds = |w: &Workload, s: Standard| -> Vec<u64> {
            w.records(3, 0, 64, 0)
                .iter()
                .filter(|r| r.standard() == s)
                .map(|r| r.seed())
                .collect()
        };
        let steady = seeds(&WORKLOADS[0], Standard::Wcdma);
        let mixed = seeds(&WORKLOADS[2], Standard::Wcdma);
        assert_eq!(steady[..mixed.len()], mixed[..]);
    }

    #[test]
    fn arrival_rate_sits_at_half_utilisation() {
        // rate = 0.5 * workers * 50e6 / mean service  <=>  mean
        // interarrival = mean service / (0.5 * workers).
        assert_eq!(WORKLOADS[0].mean_interarrival_cycles(), 9_000.0);
        assert_eq!(WORKLOADS[1].mean_interarrival_cycles(), 7_500.0);
        assert_eq!(WORKLOADS[2].mean_interarrival_cycles(), 8_250.0 / 2.0);
        assert_eq!(WORKLOADS[3].mean_interarrival_cycles(), 8_250.0 / 0.5);
    }

    #[test]
    fn warmup_ids_never_collide_with_timed_ids() {
        let w = &WORKLOADS[2];
        let warm = w.records(1, WARMUP_ROUND, w.warmup_frames(), 0);
        assert_eq!(warm.len(), 16);
        assert!(warm.iter().all(|r| r.id() >= 1 << 40));
    }

    /// Enumerates the whole session-seed domain (about a minute in
    /// release): `cargo test --release -p sdr-bench --bin e2e -- --ignored`.
    #[test]
    #[ignore = "enumerates 2 x 4096 sessions; run in release"]
    fn every_session_seed_completes() {
        use sdr_engine::{Metrics, Session, SessionState, WorkerArray};
        use std::sync::Arc;
        let mut worker = WorkerArray::new(8, Arc::new(Metrics::new()));
        for seed in 0..SESSION_SEEDS {
            for mut s in [Session::wcdma(seed, seed), Session::ofdm(seed, seed)] {
                while !s.is_terminal() {
                    s.step(&mut worker);
                }
                assert_eq!(*s.state(), SessionState::Done, "seed {seed}");
            }
        }
    }
}
