//! IEEE 802.11a / HiperLAN-2 PHY parameters.
//!
//! "The standards define various modulation schemes and code rates, which
//! specify data rates from 6 up to 54 Mbit/sec" (paper §3.2). This module
//! captures the eight mandatory/optional rate points and the OFDM timing
//! constants.

/// FFT length.
pub(crate) const FFT_LEN: usize = 64;

/// Cyclic-prefix (guard interval) length in samples.
pub const CP_LEN: usize = 16;

/// Samples per OFDM symbol including the guard interval.
pub const SYMBOL_LEN: usize = FFT_LEN + CP_LEN;

/// Data subcarriers per symbol.
pub(crate) const DATA_CARRIERS: usize = 48;

/// Subcarrier modulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Modulation {
    /// 1 bit per subcarrier.
    Bpsk,
    /// 2 bits per subcarrier.
    Qpsk,
    /// 4 bits per subcarrier.
    Qam16,
    /// 6 bits per subcarrier.
    Qam64,
}

impl Modulation {
    /// Coded bits per subcarrier (N_BPSC).
    pub fn bits_per_carrier(self) -> usize {
        match self {
            Modulation::Bpsk => 1,
            Modulation::Qpsk => 2,
            Modulation::Qam16 => 4,
            Modulation::Qam64 => 6,
        }
    }
}

/// Convolutional code rate after puncturing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CodeRate {
    /// Rate 1/2 (no puncturing).
    R12,
    /// Rate 2/3.
    R23,
    /// Rate 3/4.
    R34,
}

impl CodeRate {
    /// Numerator/denominator of the rate.
    pub(crate) fn fraction(self) -> (usize, usize) {
        match self {
            CodeRate::R12 => (1, 2),
            CodeRate::R23 => (2, 3),
            CodeRate::R34 => (3, 4),
        }
    }
}

/// One PHY rate point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RateParams {
    /// Nominal data rate in Mbit/s.
    pub mbps: u32,
    /// Subcarrier modulation.
    pub modulation: Modulation,
    /// Code rate.
    pub code_rate: CodeRate,
}

impl RateParams {
    /// Coded bits per OFDM symbol (N_CBPS).
    pub(crate) fn coded_bits_per_symbol(self) -> usize {
        DATA_CARRIERS * self.modulation.bits_per_carrier()
    }

    /// Data bits per OFDM symbol (N_DBPS).
    pub fn data_bits_per_symbol(self) -> usize {
        let (num, den) = self.code_rate.fraction();
        self.coded_bits_per_symbol() * num / den
    }
}

/// The eight 802.11a rate points, 6–54 Mbit/s.
pub const RATES: [RateParams; 8] = [
    RateParams {
        mbps: 6,
        modulation: Modulation::Bpsk,
        code_rate: CodeRate::R12,
    },
    RateParams {
        mbps: 9,
        modulation: Modulation::Bpsk,
        code_rate: CodeRate::R34,
    },
    RateParams {
        mbps: 12,
        modulation: Modulation::Qpsk,
        code_rate: CodeRate::R12,
    },
    RateParams {
        mbps: 18,
        modulation: Modulation::Qpsk,
        code_rate: CodeRate::R34,
    },
    RateParams {
        mbps: 24,
        modulation: Modulation::Qam16,
        code_rate: CodeRate::R12,
    },
    RateParams {
        mbps: 36,
        modulation: Modulation::Qam16,
        code_rate: CodeRate::R34,
    },
    RateParams {
        mbps: 48,
        modulation: Modulation::Qam64,
        code_rate: CodeRate::R23,
    },
    RateParams {
        mbps: 54,
        modulation: Modulation::Qam64,
        code_rate: CodeRate::R34,
    },
];

/// Looks up a rate point by its Mbit/s value.
pub fn rate(mbps: u32) -> Option<RateParams> {
    RATES.iter().copied().find(|r| r.mbps == mbps)
}

/// The data-subcarrier indices (logical −26..26 without 0 and pilots),
/// in transmission order.
pub fn data_subcarriers() -> Vec<i32> {
    let pilots = [-21, -7, 7, 21];
    (-26..=26)
        .filter(|&k| k != 0 && !pilots.contains(&k))
        .collect()
}

/// The pilot subcarrier indices.
pub(crate) const PILOT_SUBCARRIERS: [i32; 4] = [-21, -7, 7, 21];

/// Converts a logical subcarrier index (−32..31) to an FFT bin (0..63).
pub fn subcarrier_to_bin(k: i32) -> usize {
    debug_assert!((-32..32).contains(&k));
    ((k + FFT_LEN as i32) % FFT_LEN as i32) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Sample rate in Hz (20 MHz channelisation).
    const SAMPLE_RATE_HZ: f64 = 20e6;

    #[test]
    fn rate_table_matches_standard() {
        assert_eq!(rate(6).unwrap().data_bits_per_symbol(), 24);
        assert_eq!(rate(9).unwrap().data_bits_per_symbol(), 36);
        assert_eq!(rate(12).unwrap().data_bits_per_symbol(), 48);
        assert_eq!(rate(18).unwrap().data_bits_per_symbol(), 72);
        assert_eq!(rate(24).unwrap().data_bits_per_symbol(), 96);
        assert_eq!(rate(36).unwrap().data_bits_per_symbol(), 144);
        assert_eq!(rate(48).unwrap().data_bits_per_symbol(), 192);
        assert_eq!(rate(54).unwrap().data_bits_per_symbol(), 216);
        assert!(rate(11).is_none());
    }

    #[test]
    fn symbol_duration_is_4_us() {
        let t = SYMBOL_LEN as f64 / SAMPLE_RATE_HZ;
        assert!((t - 4e-6).abs() < 1e-12);
    }

    #[test]
    fn rates_give_nominal_throughput() {
        for r in RATES {
            let bits_per_sec = r.data_bits_per_symbol() as f64 / 4e-6;
            assert!((bits_per_sec / 1e6 - r.mbps as f64).abs() < 1e-9, "{r:?}");
        }
    }

    #[test]
    fn data_subcarrier_layout() {
        let d = data_subcarriers();
        assert_eq!(d.len(), DATA_CARRIERS);
        assert!(!d.contains(&0));
        for p in PILOT_SUBCARRIERS {
            assert!(!d.contains(&p));
        }
    }

    #[test]
    fn bin_mapping_wraps_negative() {
        assert_eq!(subcarrier_to_bin(1), 1);
        assert_eq!(subcarrier_to_bin(26), 26);
        assert_eq!(subcarrier_to_bin(-1), 63);
        assert_eq!(subcarrier_to_bin(-26), 38);
        assert_eq!(subcarrier_to_bin(0), 0);
    }
}
