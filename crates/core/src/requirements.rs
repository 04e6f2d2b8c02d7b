//! Processing-power and data-rate requirement models (paper Figs. 1 and 2).
//!
//! Figure 1 charts MIPS demand per wireless access protocol; Figure 2 maps
//! each protocol's achievable data rate against terminal mobility. Both are
//! motivation-level models in the paper; here they are data the report
//! generator reproduces and the platform model checks itself against.

/// A wireless access protocol of the paper's landscape.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Protocol {
    /// 2G GSM voice.
    Gsm,
    /// 2.5G packet data (GPRS/HSCSD).
    GprsHscsd,
    /// 2.75G EDGE.
    Edge,
    /// 3G UMTS/W-CDMA.
    Umts,
    /// OFDM wireless LAN (IEEE 802.11a / HIPERLAN/2).
    OfdmWlan,
}

/// All protocols in Fig. 1 order.
pub const PROTOCOLS: [Protocol; 5] = [
    Protocol::Gsm,
    Protocol::GprsHscsd,
    Protocol::Edge,
    Protocol::Umts,
    Protocol::OfdmWlan,
];

impl Protocol {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Protocol::Gsm => "GSM",
            Protocol::GprsHscsd => "GPRS/HSCSD",
            Protocol::Edge => "EDGE",
            Protocol::Umts => "UMTS/W-CDMA",
            Protocol::OfdmWlan => "OFDM WLAN",
        }
    }

    /// Baseband processing demand in MIPS (paper Fig. 1: "Current GSM
    /// phones require approximately 10 MIPS. GPRS/HSCSD ... 100 MIPS.
    /// EDGE around 1000 MIPS. Potentially up to 10,000 MIPS ... UMTS.
    /// Wireless LAN protocols implementing OFDM require around 5000 MIPS").
    pub fn required_mips(self) -> f64 {
        match self {
            Protocol::Gsm => 10.0,
            Protocol::GprsHscsd => 100.0,
            Protocol::Edge => 1_000.0,
            Protocol::Umts => 10_000.0,
            Protocol::OfdmWlan => 5_000.0,
        }
    }

    /// Peak data rate in Mbit/s (paper Fig. 2 envelope).
    pub(crate) fn peak_rate_mbps(self) -> f64 {
        match self {
            Protocol::Gsm => 0.0096,
            Protocol::GprsHscsd => 0.057,
            Protocol::Edge => 0.2,
            Protocol::Umts => 2.0,
            Protocol::OfdmWlan => 54.0,
        }
    }

    /// Data rate at a given mobility (the Fig. 2 trade-off: UMTS delivers
    /// 2 Mbit/s only when stationary, a few hundred kbit/s when moving).
    pub fn rate_at_mbps(self, mobility: Mobility) -> f64 {
        match (self, mobility) {
            (Protocol::Umts, Mobility::Stationary) => 2.0,
            (Protocol::Umts, Mobility::Pedestrian) => 0.384,
            (Protocol::Umts, Mobility::Vehicular) => 0.144,
            (Protocol::OfdmWlan, Mobility::Stationary) => 54.0,
            (Protocol::OfdmWlan, Mobility::Pedestrian) => 24.0,
            (Protocol::OfdmWlan, Mobility::Vehicular) => 0.0,
            (p, _) => p.peak_rate_mbps(),
        }
    }
}

/// Terminal mobility classes of Fig. 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Mobility {
    /// Indoors/outdoors stationary.
    Stationary,
    /// On foot.
    Pedestrian,
    /// In a car.
    Vehicular,
}

/// What a 200 MHz-class DSP of the era delivers (paper: "Modern
/// high-performance DSPs can provide around 1600 MIPS at clock speeds of
/// 200 MHz").
pub(crate) const DSP_MIPS_AT_200_MHZ: f64 = 1_600.0;

/// True if the protocol's demand exceeds a single DSP — the paper's core
/// argument for reconfigurable hardware.
pub fn exceeds_single_dsp(p: Protocol) -> bool {
    p.required_mips() > DSP_MIPS_AT_200_MHZ
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_values_match_the_paper() {
        assert_eq!(Protocol::Gsm.required_mips(), 10.0);
        assert_eq!(Protocol::GprsHscsd.required_mips(), 100.0);
        assert_eq!(Protocol::Edge.required_mips(), 1_000.0);
        assert_eq!(Protocol::Umts.required_mips(), 10_000.0);
        assert_eq!(Protocol::OfdmWlan.required_mips(), 5_000.0);
    }

    #[test]
    fn demand_is_monotone_across_generations() {
        let mips: Vec<f64> = [
            Protocol::Gsm,
            Protocol::GprsHscsd,
            Protocol::Edge,
            Protocol::Umts,
        ]
        .iter()
        .map(|p| p.required_mips())
        .collect();
        assert!(mips.windows(2).all(|w| w[1] > w[0]));
    }

    #[test]
    fn the_papers_core_argument_holds() {
        // EDGE still fits a DSP; UMTS and OFDM WLAN do not.
        assert!(!exceeds_single_dsp(Protocol::Edge));
        assert!(exceeds_single_dsp(Protocol::Umts));
        assert!(exceeds_single_dsp(Protocol::OfdmWlan));
    }

    #[test]
    fn fig2_wlan_fast_but_immobile() {
        assert!(Protocol::OfdmWlan.peak_rate_mbps() > Protocol::Umts.peak_rate_mbps());
        assert_eq!(Protocol::OfdmWlan.rate_at_mbps(Mobility::Vehicular), 0.0);
    }

    #[test]
    fn umts_rate_degrades_with_mobility() {
        let s = Protocol::Umts.rate_at_mbps(Mobility::Stationary);
        let p = Protocol::Umts.rate_at_mbps(Mobility::Pedestrian);
        let v = Protocol::Umts.rate_at_mbps(Mobility::Vehicular);
        assert!(s > p && p > v && v > 0.0);
    }
}
