//! Cross-crate integration tests: full receiver chains where the
//! word-level kernels run on the simulated array instead of the golden
//! software models.

use xpp_sdr::dsp::Cplx;
use xpp_sdr::ofdm;
use xpp_sdr::wcdma;
use xpp_sdr::xpp::{Array, ConfigId, Netlist};

/// Configures one kernel alone on a fresh XPP-64A.
fn configured(netlist: &Netlist) -> (Array, ConfigId) {
    let mut array = Array::xpp64a();
    let cfg = array.configure(netlist).unwrap();
    (array, cfg)
}

/// The W-CDMA finger pipeline with every word-level stage executed on the
/// array: descramble (Fig. 5) → despread (Fig. 6) → correct (Fig. 7) must
/// reproduce the golden finger bit for bit, and the decisions must match
/// the transmitted bits.
#[test]
fn rake_finger_on_the_array_end_to_end() {
    use wcdma::channel::{propagate, AdcConfig, CellLink, Path};
    use wcdma::rake::estimator::{estimate_channel, quantize_weights};
    use wcdma::rake::finger as golden;
    use wcdma::tx::{CellConfig, CellTransmitter};
    use wcdma::xpp_map::{drive_corrector, drive_descrambler, drive_despreader, WcdmaKernel};

    let bits: Vec<u8> = (0..64).map(|i| ((i * 3 + 1) % 2) as u8).collect();
    let cfg = CellConfig::default();
    let mut tx = CellTransmitter::new(cfg);
    let signal = tx.transmit(&bits);
    let delay = 6;
    let link = CellLink::new(vec![Path::new(delay, Cplx::new(0.7, 0.3))]);
    let rx = propagate(&[(signal, link)], 0.02, 11, AdcConfig::default());
    let code = wcdma::ScramblingCode::downlink(cfg.scrambling_code);

    // DSP side: channel estimate → quantised weight.
    let h = estimate_channel(&rx, &code, delay, 8);
    let w = quantize_weights(&[h])[0];

    // Array side: the three kernels chained through host buffers (the
    // board's streaming interconnect).
    let (sf, code_index) = (cfg.dpch.sf, cfg.dpch.code_index);
    let n = ((rx.len() - delay) / sf) * sf;
    let (mut array, descrambler) = configured(&WcdmaKernel::Descrambler.build());
    let descrambled = drive_descrambler(&mut array, descrambler, &rx, &code, delay, 0, n).unwrap();
    let (mut array, despreader) = configured(&WcdmaKernel::Despreader { sf, code_index }.build());
    let symbols = drive_despreader(&mut array, despreader, &descrambled, sf).unwrap();
    let (mut array, corrector) = configured(&WcdmaKernel::Corrector { fingers: 1 }.build());
    let corrected = drive_corrector(&mut array, corrector, &[w], &symbols).unwrap();

    // Bit-exact against the golden finger.
    let golden_out = golden::finger(&rx, &code, delay, cfg.dpch.sf, cfg.dpch.code_index, w);
    assert_eq!(corrected, golden_out);

    // And the decisions recover the transmitted bits.
    let soft: Vec<Cplx<i64>> = corrected.iter().map(|s| s.widen()).collect();
    let decided = wcdma::rake::combiner::decide(&soft);
    assert_eq!(&decided[..bits.len()], &bits[..]);
}

/// The OFDM receiver with the FFT executed on the array (Fig. 9): the
/// spectrum of every data symbol must match the golden fixed-point FFT the
/// software receiver uses, so the decoded bits are identical.
#[test]
fn ofdm_fft_on_the_array_matches_receiver_path() {
    use ofdm::channel::WlanChannel;
    use ofdm::params::{rate, CP_LEN, SYMBOL_LEN};
    use ofdm::rx::OfdmReceiver;
    use ofdm::tx::Transmitter;
    use ofdm::xpp_map::{drive_fft64, OfdmKernel};
    use sdr_dsp::fft::Fft64Fixed;

    let r = rate(12).unwrap();
    let bits: Vec<u8> = (0..144).map(|i| ((i * 5 + 2) % 2) as u8).collect();
    let frame = Transmitter::new(r).transmit(&bits);
    let rx = WlanChannel::default().run(&frame.samples);

    let receiver = OfdmReceiver::new(r).with_fft_stage_shift(1);
    let out = receiver.receive(&rx, bits.len()).unwrap();
    assert_eq!(out.bits, bits);

    // Run the first two data-symbol windows through the array FFT and
    // compare against the golden FFT used inside the receiver.
    let (mut array, fft) = configured(&OfdmKernel::Fft64 { stage_shift: 1 }.build());
    let golden = Fft64Fixed::with_stage_shift(1);
    for s in 0..2 {
        let at = out.data_start + s * SYMBOL_LEN + CP_LEN;
        let mut buf = [Cplx::<i32>::ZERO; 64];
        buf.copy_from_slice(&rx[at..at + 64]);
        let spectrum = drive_fft64(&mut array, fft, &[buf]).unwrap();
        assert_eq!(spectrum[0], golden.run(&buf), "symbol {s}");
    }
}

/// Both standards resident on one array: the rake corrector and the OFDM
/// demodulator run as independent configurations, protected from each
/// other (the paper's multi-standard residency): a demodulator job between
/// two corrector jobs disturbs neither the corrector's resident weights
/// nor its output.
#[test]
fn both_standards_share_one_array() {
    use ofdm::xpp_map::{demodulator_netlist, drive_demodulator};
    use wcdma::xpp_map::{corrector_netlist, drive_corrector};

    let mut array = Array::xpp64a();
    let rake_cfg = array.configure(&corrector_netlist(4)).unwrap();
    let wlan_cfg = array.configure(&demodulator_netlist()).unwrap();

    // Rake corrector with unit weights (Q9) = identity.
    let unit = [Cplx::new(512, 0); 4];
    let rake_syms: Vec<Cplx<i32>> = (0..16).map(|k| Cplx::new(100 + k, -k)).collect();
    let rake_out = drive_corrector(&mut array, rake_cfg, &unit, &rake_syms).unwrap();
    assert_eq!(rake_out, rake_syms);

    // WLAN demodulator slices signs.
    let wlan_syms: Vec<Cplx<i32>> = (0..8)
        .map(|k| Cplx::new(if k % 2 == 0 { 800 } else { -800 }, 100))
        .collect();
    let wlan_w = vec![Cplx::new(512, 0); wlan_syms.len()];
    let bits = drive_demodulator(&mut array, wlan_cfg, &wlan_syms, &wlan_w).unwrap();
    for (k, (b0, b1)) in bits.iter().enumerate() {
        assert_eq!(*b0, (wlan_syms[k].re < 0) as u8, "carrier {k}");
        assert_eq!(*b1, 0, "carrier {k}");
    }

    // The corrector, untouched by the demodulator's job, repeats itself.
    assert_eq!(
        drive_corrector(&mut array, rake_cfg, &unit, &rake_syms).unwrap(),
        rake_out
    );
    assert_eq!(array.stats().configs_loaded, 2, "both stayed resident");
}

/// BER through the golden rake degrades monotonically (in trend) with
/// noise while the array-mapped kernels stay bit-exact — the two views of
/// the same receiver never diverge.
#[test]
fn golden_and_array_descramblers_agree_under_noise() {
    use wcdma::channel::{propagate, AdcConfig, CellLink, Path};
    use wcdma::rake::finger::descramble;
    use wcdma::tx::{CellConfig, CellTransmitter};
    use wcdma::xpp_map::{drive_descrambler, WcdmaKernel};

    let bits: Vec<u8> = (0..32).map(|i| (i % 2) as u8).collect();
    let mut tx = CellTransmitter::new(CellConfig::default());
    let signal = tx.transmit(&bits);
    let link = CellLink::new(vec![Path::new(0, Cplx::new(0.9, 0.0))]);
    let code = wcdma::ScramblingCode::downlink(0);
    let (mut array, descrambler) = configured(&WcdmaKernel::Descrambler.build());
    for sigma in [0.0, 0.2, 0.8] {
        let rx = propagate(
            &[(signal.clone(), link.clone())],
            sigma,
            99,
            AdcConfig::default(),
        );
        let out = drive_descrambler(&mut array, descrambler, &rx, &code, 0, 0, 512).unwrap();
        assert_eq!(out, descramble(&rx, &code, 0, 0, 512), "sigma {sigma}");
    }
}

/// The platform report aggregates activity from a real mixed run.
#[test]
fn platform_report_covers_a_mixed_run() {
    use xpp_sdr::platform::SdrPlatform;
    use xpp_sdr::xpp::Word;

    let mut p = SdrPlatform::evaluation_board();
    let cfg = p
        .array
        .configure(&wcdma::xpp_map::descrambler_netlist())
        .unwrap();
    let code = wcdma::ScramblingCode::downlink(3);
    let chips: Vec<Cplx<i32>> = (0..256).map(|i| Cplx::new(i, -i)).collect();
    p.array
        .push_input(cfg, "i_in", chips.iter().map(|c| Word::new(c.re)))
        .unwrap();
    p.array
        .push_input(cfg, "q_in", chips.iter().map(|c| Word::new(c.im)))
        .unwrap();
    let cbits: Vec<(u8, u8)> = (0..256).map(|i| code.chip_bits(i)).collect();
    p.array
        .push_input(cfg, "ci", cbits.iter().map(|b| Word::new(b.0 as i32)))
        .unwrap();
    p.array
        .push_input(cfg, "cq", cbits.iter().map(|b| Word::new(b.1 as i32)))
        .unwrap();
    p.array.run_until_idle(10_000).unwrap();
    p.dsp.charge("control", 4_000);
    p.charge_dedicated("scrambling-code-gen", 256);

    let report = p.report();
    assert!(report.array_stats.mul_fires >= 4 * 256);
    assert!(report.array_power.total_nj() > 0.0);
    assert_eq!(report.dsp_instructions, 4_000);
    assert_eq!(report.dedicated_items["scrambling-code-gen"], 256);
}
