//! Downlink transmitter: the base-station side of the link.
//!
//! The paper evaluates the terminal-side rake receiver; the transmitter here
//! is the standard-conformant signal source that replaces the live UMTS
//! network (DESIGN.md §2). Each cell transmits a common pilot channel
//! (CPICH, SF 256 / code 0) plus one dedicated physical channel (DPCH)
//! carrying QPSK data, all spread with OVSF codes, summed, and scrambled
//! with the cell's downlink Gold code. In a soft-handover scenario several
//! cells transmit the *same* DPCH bits under different scrambling codes.

use crate::ovsf::ovsf;
use crate::scrambling::{flip, ScramblingCode};
use crate::symbols::{cpich_antenna2, qpsk_map_bits, sttd_encode, CPICH_SYMBOL};
use sdr_dsp::Cplx;
use std::sync::Arc;

/// Spreading factor of the common pilot channel.
pub(crate) const CPICH_SF: usize = 256;

/// Configuration of the dedicated physical channel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DpchConfig {
    /// Spreading factor, 4..=512.
    pub sf: usize,
    /// OVSF code index (must not collide with the CPICH's code 0 subtree).
    pub code_index: usize,
    /// Linear amplitude relative to unit chip power.
    pub amplitude: f64,
    /// Enable space-time transmit diversity.
    pub sttd: bool,
}

impl Default for DpchConfig {
    fn default() -> Self {
        DpchConfig {
            sf: 128,
            code_index: 17,
            amplitude: 1.0,
            sttd: false,
        }
    }
}

/// Configuration of one cell (base station).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellConfig {
    /// Downlink scrambling code number.
    pub scrambling_code: u32,
    /// CPICH amplitude.
    pub cpich_amplitude: f64,
    /// The data channel.
    pub dpch: DpchConfig,
}

impl Default for CellConfig {
    fn default() -> Self {
        CellConfig {
            scrambling_code: 0,
            cpich_amplitude: 0.5,
            dpch: DpchConfig::default(),
        }
    }
}

/// Baseband output of one cell: chips per antenna.
#[derive(Debug, Clone, PartialEq)]
pub struct TxSignal {
    /// Antenna 1 chips.
    pub ant1: Vec<Cplx<f64>>,
    /// Antenna 2 chips (present when STTD is enabled).
    pub ant2: Option<Vec<Cplx<f64>>>,
}

impl TxSignal {
    /// Number of chips.
    pub(crate) fn len(&self) -> usize {
        self.ant1.len()
    }
}

/// One cell's downlink modulator.
///
/// # Example
///
/// ```
/// use sdr_wcdma::tx::{CellConfig, CellTransmitter};
///
/// let mut tx = CellTransmitter::new(CellConfig::default());
/// let bits: Vec<u8> = (0..40).map(|i| (i % 2) as u8).collect();
/// let signal = tx.transmit(&bits);
/// assert_eq!(signal.ant1.len(), 20 * 128); // 20 QPSK symbols at SF 128
/// ```
#[derive(Debug, Clone)]
pub struct CellTransmitter {
    config: CellConfig,
    /// Shared by every clone: a transmitter cloned from a prepared one
    /// copies no code.
    code: Arc<ScramblingCode>,
    dpch_code: Vec<i32>,
    /// Absolute chip position within the frame (wraps at 38400); always a
    /// multiple of the DPCH spreading factor, which divides the frame.
    chip_pos: usize,
}

impl CellTransmitter {
    /// Creates a transmitter for one cell.
    ///
    /// # Panics
    ///
    /// Panics if the DPCH configuration is invalid (bad SF or code index, or
    /// OVSF code 0 which the CPICH occupies).
    pub fn new(config: CellConfig) -> Self {
        assert!(
            config.dpch.code_index != 0,
            "OVSF code 0 is reserved for the CPICH"
        );
        CellTransmitter {
            code: Arc::new(ScramblingCode::downlink(config.scrambling_code)),
            config,
            dpch_code: ovsf(config.dpch.sf, config.dpch.code_index),
            chip_pos: 0,
        }
    }

    /// The cell's scrambling code (shared with the receiver under test).
    pub fn scrambling_code(&self) -> &ScramblingCode {
        &self.code
    }

    /// Modulates DPCH bits into scrambled baseband chips, advancing the
    /// frame position. The number of chips is `bits/2 × SF`.
    ///
    /// Each chip is `(amp·d·c + pilot_amp·p) · S` in `f64`, with `c` the
    /// OVSF chip and `S` the scrambling chip as `±1`s; the CPICH's OVSF
    /// code 0 is all `+1`. The loop runs a symbol at a time (a CPICH
    /// symbol at a time at SF 512): the data and pilot symbols are read
    /// once per run, the OVSF chips in order, and the scrambling signs
    /// from the code's packed bits, with no per-chip division or lookup.
    ///
    /// # Panics
    ///
    /// Panics if the bit count is odd, or (with STTD) if the symbol count is
    /// odd.
    pub fn transmit(&mut self, bits: &[u8]) -> TxSignal {
        let symbols = qpsk_map_bits(bits);
        let sf = self.config.dpch.sf;
        let n_chips = symbols.len() * sf;
        let amp = self.config.dpch.amplitude;
        let pilot_amp = self.config.cpich_amplitude;

        let (dpch1, dpch2) = if self.config.dpch.sttd {
            assert!(
                symbols.len().is_multiple_of(2),
                "STTD needs an even number of symbols"
            );
            let (a1, a2) = sttd_encode(&symbols);
            (a1, Some(a2))
        } else {
            (symbols, None)
        };

        // One run shares its data symbol and its CPICH symbol.
        let run = sf.min(CPICH_SF);
        debug_assert_eq!(
            self.chip_pos % sf,
            0,
            "the frame position is symbol-aligned"
        );
        let (mut mi, mut mq) = ([0; CPICH_SF], [0; CPICH_SF]);
        let (mi, mq) = (&mut mi[..run], &mut mq[..run]);
        let chip = |d: Cplx<f64>, p: Cplx<f64>, c: i32, si: i32, sq: i32| {
            let dpch_chip = c as f64;
            let bb = Cplx::new(
                amp * d.re * dpch_chip + pilot_amp * p.re,
                amp * d.im * dpch_chip + pilot_amp * p.im,
            );
            bb * Cplx::new(flip(1, si) as f64, flip(1, sq) as f64)
        };
        let mut ant1 = Vec::with_capacity(n_chips);
        let mut ant2 = dpch2.as_ref().map(|_| Vec::with_capacity(n_chips));
        for start in (0..n_chips).step_by(run) {
            let pos = self.chip_pos + start;
            self.code.sign_masks(pos, mi, mq);
            let spread = &self.dpch_code[start % sf..][..run];
            let chips = || spread.iter().zip(mi.iter().zip(mq.iter()));
            let d1 = dpch1[start / sf].to_f64();
            let p1 = CPICH_SYMBOL.to_f64();
            ant1.extend(chips().map(|(&c, (&si, &sq))| chip(d1, p1, c, si, sq)));
            if let (Some(a2), Some(d2s)) = (ant2.as_mut(), dpch2.as_ref()) {
                let d2 = d2s[start / sf].to_f64();
                let p2 = cpich_antenna2(pos / CPICH_SF).to_f64();
                a2.extend(chips().map(|(&c, (&si, &sq))| chip(d2, p2, c, si, sq)));
            }
        }
        self.chip_pos = (self.chip_pos + n_chips) % crate::scrambling::FRAME_CHIPS;
        TxSignal { ant1, ant2 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rake::finger::{descramble, despread};
    use proptest::prelude::*;

    /// [`CellTransmitter::transmit`] as the per-chip loop it replaced: a
    /// code lookup, two remainders and two divisions per chip, and the
    /// CPICH's OVSF chip multiplied in.
    fn transmit_oracle(tx: &mut CellTransmitter, bits: &[u8]) -> TxSignal {
        let symbols = qpsk_map_bits(bits);
        let sf = tx.config.dpch.sf;
        let n_chips = symbols.len() * sf;
        let amp = tx.config.dpch.amplitude;
        let pilot_amp = tx.config.cpich_amplitude;
        let dpch_code = ovsf(sf, tx.config.dpch.code_index);
        let cpich_code = ovsf(CPICH_SF, 0);
        let (dpch1, dpch2) = if tx.config.dpch.sttd {
            let (a1, a2) = sttd_encode(&symbols);
            (a1, Some(a2))
        } else {
            (symbols, None)
        };
        let mut ant1 = Vec::with_capacity(n_chips);
        let mut ant2 = dpch2.as_ref().map(|_| Vec::with_capacity(n_chips));
        for i in 0..n_chips {
            let pos = tx.chip_pos + i;
            let scramble = tx.code.chip(pos).to_f64();
            let dpch_chip = dpch_code[pos % sf] as f64;
            let cpich_chip = cpich_code[pos % CPICH_SF] as f64;
            let sym_idx = i / sf;
            let cpich_idx = pos / CPICH_SF;

            let d1 = dpch1[sym_idx].to_f64();
            let p1 = CPICH_SYMBOL.to_f64();
            let bb1 = Cplx::new(
                amp * d1.re * dpch_chip + pilot_amp * p1.re * cpich_chip,
                amp * d1.im * dpch_chip + pilot_amp * p1.im * cpich_chip,
            );
            ant1.push(bb1 * scramble);

            if let (Some(a2), Some(d2s)) = (ant2.as_mut(), dpch2.as_ref()) {
                let d2 = d2s[sym_idx].to_f64();
                let p2 = cpich_antenna2(cpich_idx).to_f64();
                let bb2 = Cplx::new(
                    amp * d2.re * dpch_chip + pilot_amp * p2.re * cpich_chip,
                    amp * d2.im * dpch_chip + pilot_amp * p2.im * cpich_chip,
                );
                a2.push(bb2 * scramble);
            }
        }
        tx.chip_pos = (tx.chip_pos + n_chips) % crate::scrambling::FRAME_CHIPS;
        TxSignal { ant1, ant2 }
    }

    /// Every chip of both antennas as bit patterns: `0.0` and `-0.0` differ.
    fn chip_bits(signal: &TxSignal) -> Vec<(u64, u64)> {
        let antennas = std::iter::once(&signal.ant1).chain(&signal.ant2);
        antennas
            .flatten()
            .map(|c| (c.re.to_bits(), c.im.to_bits()))
            .collect()
    }

    fn arb_amplitude() -> impl Strategy<Value = f64> {
        prop_oneof![
            Just(0.0),
            Just(-0.0),
            Just(1.0),
            -3.0f64..3.0,
            1e-300f64..1e300
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn transmit_matches_the_per_chip_loop_bit_for_bit(
            log_sf in 2u32..=9,
            index in 1usize..512,
            number in 0u32..512,
            amplitude in arb_amplitude(),
            cpich_amplitude in arb_amplitude(),
            sttd in any::<bool>(),
            // Symbol pairs per call: at SF 512 the calls cross the frame end.
            calls in proptest::collection::vec(0usize..40, 1..4),
            seed in any::<u64>(),
        ) {
            let sf = 1 << log_sf;
            let cfg = CellConfig {
                scrambling_code: number,
                cpich_amplitude,
                dpch: DpchConfig { sf, code_index: 1 + index % (sf - 1), amplitude, sttd },
            };
            let (mut tx, mut oracle) = (CellTransmitter::new(cfg), CellTransmitter::new(cfg));
            let mut rng = sdr_dsp::rng::Rng64::seed_from_u64(seed);
            for pairs in calls {
                let bits: Vec<u8> = (0..4 * pairs).map(|_| (rng.next_u32() & 1) as u8).collect();
                let (got, want) = (tx.transmit(&bits), transmit_oracle(&mut oracle, &bits));
                prop_assert_eq!(got.ant2.is_some(), sttd);
                prop_assert_eq!(chip_bits(&got), chip_bits(&want));
                prop_assert_eq!(tx.chip_pos, oracle.chip_pos);
            }
        }
    }

    fn digitize(chips: &[Cplx<f64>], gain: f64) -> Vec<Cplx<i32>> {
        chips
            .iter()
            .map(|c| Cplx::new((c.re * gain).round() as i32, (c.im * gain).round() as i32))
            .collect()
    }

    #[test]
    fn chip_count_matches_symbols() {
        let mut tx = CellTransmitter::new(CellConfig::default());
        let signal = tx.transmit(&[0, 1, 1, 0]);
        assert_eq!(signal.len(), 2 * 128);
        assert!(signal.ant2.is_none());
    }

    #[test]
    fn sttd_produces_second_antenna() {
        let mut cfg = CellConfig::default();
        cfg.dpch.sttd = true;
        let mut tx = CellTransmitter::new(cfg);
        let signal = tx.transmit(&[0, 1, 1, 0]);
        assert!(signal.ant2.is_some());
        assert_eq!(signal.ant2.unwrap().len(), signal.ant1.len());
    }

    #[test]
    #[should_panic]
    fn rejects_cpich_code_collision() {
        let mut cfg = CellConfig::default();
        cfg.dpch.code_index = 0;
        CellTransmitter::new(cfg);
    }

    #[test]
    fn loopback_recovers_symbols_on_clean_channel() {
        // TX → digitize → descramble/despread recovers the QPSK symbols.
        let mut cfg = CellConfig::default();
        cfg.dpch.sf = 64;
        cfg.dpch.code_index = 5;
        cfg.cpich_amplitude = 0.0; // pilot off for an exact check
        let mut tx = CellTransmitter::new(cfg);
        let bits = [0u8, 0, 1, 1, 0, 1, 1, 0];
        let signal = tx.transmit(&bits);
        let rx = digitize(&signal.ant1, 512.0);
        let descrambled = descramble(&rx, tx.scrambling_code(), 0, 0, rx.len());
        let symbols = despread(&descrambled, 64, 5);
        // Each symbol should be ±A ± jA with A ≈ 512·2 (descramble gain 2,
        // despread normalises by SF).
        for (k, s) in symbols.iter().enumerate() {
            let expected = crate::symbols::qpsk_map_bits(&bits)[k];
            assert!(s.re.signum() == expected.re.signum(), "sym {k}: {s:?}");
            assert!(s.im.signum() == expected.im.signum(), "sym {k}: {s:?}");
            assert!(s.re.abs() > 512 && s.re.abs() < 2048);
        }
    }

    #[test]
    fn chip_position_advances_and_wraps() {
        let mut cfg = CellConfig::default();
        cfg.dpch.sf = 256;
        let mut tx = CellTransmitter::new(cfg);
        let bits_per_frame = 2 * crate::scrambling::FRAME_CHIPS / 256;
        let bits: Vec<u8> = vec![0; bits_per_frame];
        tx.transmit(&bits);
        assert_eq!(tx.chip_pos, 0); // exactly one frame
    }
}
