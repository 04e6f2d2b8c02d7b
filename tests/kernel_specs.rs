//! Every array kernel is a spec, a drive function and a golden.
//!
//! [`SPECS`] names every `WcdmaKernel` / `OfdmKernel` variant. Each is
//! configured from its `build()` on **one shared XPP-64A**, beside whatever
//! earlier kernels are still resident (the oldest is unloaded only when
//! placement fails), driven through its `drive_*` function and compared
//! with its golden model; then a second job with the same inputs on the
//! warm configuration must reproduce the first. [`job`] matches every
//! variant without a wildcard, so a new kernel does not compile until it
//! has a drive function and a golden here — add its spec to [`SPECS`] too.

use std::collections::VecDeque;

use xpp_sdr::dsp::fft::Fft64Fixed;
use xpp_sdr::dsp::Cplx;
use xpp_sdr::engine::KernelSpec;
use xpp_sdr::ofdm::rx::autocorr_metric;
use xpp_sdr::ofdm::xpp_map::{drive_demodulator, drive_fft64, drive_preamble_detector, OfdmKernel};
use xpp_sdr::wcdma::rake::finger::{correct, descramble, despread, finger, WEIGHT_FRAC_BITS};
use xpp_sdr::wcdma::symbols::sttd_decode_fixed;
use xpp_sdr::wcdma::xpp_map::{
    drive_corrector, drive_descrambler, drive_despreader, drive_finger,
    drive_multiplexed_despreader, drive_sttd_corrector, WcdmaKernel,
};
use xpp_sdr::wcdma::ScramblingCode;
use xpp_sdr::xpp::{Array, ConfigId, Error};

/// Every kernel variant, in an order that keeps several resident at once
/// and forces evictions (the FFT alone takes 12 of the 16 RAM-PAEs).
const SPECS: [KernelSpec; 9] = [
    KernelSpec::Wcdma(WcdmaKernel::Descrambler),
    KernelSpec::Wcdma(WcdmaKernel::Despreader {
        sf: 16,
        code_index: 5,
    }),
    KernelSpec::Wcdma(WcdmaKernel::MultiplexedDespreader { fingers: 6, sf: 8 }),
    KernelSpec::Wcdma(WcdmaKernel::Corrector { fingers: 3 }),
    KernelSpec::Wcdma(WcdmaKernel::SttdCorrector),
    KernelSpec::Ofdm(OfdmKernel::Fft64 { stage_shift: 2 }),
    KernelSpec::Wcdma(WcdmaKernel::Finger {
        sf: 16,
        code_index: 5,
    }),
    KernelSpec::Ofdm(OfdmKernel::PreambleDetector),
    KernelSpec::Ofdm(OfdmKernel::Demodulator),
];

/// A deterministic stream of `n` complex samples in ±`amp`.
fn samples(n: usize, seed: i32, amp: i32) -> Vec<Cplx<i32>> {
    let span = 2 * amp + 1;
    (0..n as i32)
        .map(|i| {
            Cplx::new(
                (i * 131 + seed * 17).rem_euclid(span) - amp,
                (i * 57 + seed * 29).rem_euclid(span) - amp,
            )
        })
        .collect()
}

/// Flattens complex values to words: re, im, re, im, …
fn flat<'a>(values: impl IntoIterator<Item = &'a Cplx<i32>>) -> Vec<i32> {
    values.into_iter().flat_map(|c| [c.re, c.im]).collect()
}

/// Finger-major interleave of equal-length per-finger streams.
fn interleave(streams: &[Vec<Cplx<i32>>]) -> Vec<Cplx<i32>> {
    (0..streams[0].len())
        .flat_map(|k| streams.iter().map(move |s| s[k]))
        .collect()
}

/// One job of `spec` on the running configuration `cfg`: the drive
/// function's output and the golden model's, flattened to words.
fn job(array: &mut Array, cfg: ConfigId, spec: KernelSpec) -> (Vec<i32>, Vec<i32>) {
    let code = ScramblingCode::downlink(11);
    match spec {
        KernelSpec::Wcdma(WcdmaKernel::Descrambler) => {
            let rx = samples(300, 1, 2047);
            let (delay, phase, n) = (7, 5, 280);
            let out = drive_descrambler(array, cfg, &rx, &code, delay, phase, n).unwrap();
            (flat(&out), flat(&descramble(&rx, &code, delay, phase, n)))
        }
        KernelSpec::Wcdma(WcdmaKernel::Despreader { sf, code_index }) => {
            let chips = samples(10 * sf + 3, 2, 4095);
            let out = drive_despreader(array, cfg, &chips, sf).unwrap();
            (flat(&out), flat(&despread(&chips, sf, code_index)))
        }
        KernelSpec::Wcdma(WcdmaKernel::Finger { sf, code_index }) => {
            let rx = samples(40 * sf, 3, 2047);
            let delay = 9;
            let n = rx.len() - delay;
            let out = drive_finger(array, cfg, &rx, &code, delay, 0, n, sf).unwrap();
            // The golden finger with a unit weight: no correction.
            let unit = Cplx::new(1 << WEIGHT_FRAC_BITS, 0);
            let golden = finger(&rx, &code, delay, sf, code_index, unit);
            (flat(&out), flat(&golden))
        }
        KernelSpec::Wcdma(WcdmaKernel::MultiplexedDespreader { fingers, sf }) => {
            let code_index = sf / 2 + 1;
            let streams: Vec<_> = (0..fingers as i32)
                .map(|f| samples(4 * sf, 10 + f, 4095))
                .collect();
            let out = drive_multiplexed_despreader(array, cfg, &streams, sf, code_index).unwrap();
            let golden: Vec<_> = streams
                .iter()
                .map(|s| despread(s, sf, code_index))
                .collect();
            (flat(out.iter().flatten()), flat(golden.iter().flatten()))
        }
        KernelSpec::Wcdma(WcdmaKernel::Corrector { fingers }) => {
            let weights: Vec<_> = (0..fingers as i32)
                .map(|f| Cplx::new(500 - 90 * f, 60 * f - 120))
                .collect();
            let per_finger: Vec<_> = (0..fingers as i32)
                .map(|f| samples(12, 20 + f, 4095))
                .collect();
            let out = drive_corrector(array, cfg, &weights, &interleave(&per_finger)).unwrap();
            let golden: Vec<_> = per_finger
                .iter()
                .zip(&weights)
                .map(|(s, &w)| correct(s, w))
                .collect();
            (flat(&out), flat(&interleave(&golden)))
        }
        KernelSpec::Wcdma(WcdmaKernel::SttdCorrector) => {
            let (w1, w2) = (Cplx::new(430, -120), Cplx::new(-90, 380));
            let symbols = samples(24, 4, 4095);
            let out = drive_sttd_corrector(array, cfg, &symbols, w1, w2).unwrap();
            let golden: Vec<_> = symbols
                .chunks_exact(2)
                .flat_map(|p| {
                    let (s1, s2) = sttd_decode_fixed(p[0], p[1], w1, w2, WEIGHT_FRAC_BITS);
                    [s1, s2]
                })
                .collect();
            (flat(&out), flat(&golden))
        }
        KernelSpec::Ofdm(OfdmKernel::PreambleDetector) => {
            let rx = samples(200, 5, 511);
            let out = drive_preamble_detector(array, cfg, &rx).unwrap();
            (out, autocorr_metric(&rx))
        }
        KernelSpec::Ofdm(OfdmKernel::Demodulator) => {
            let y = samples(48, 6, 511);
            let w = samples(48, 7, 511);
            let bits = drive_demodulator(array, cfg, &y, &w).unwrap();
            // The slicer: the sign bits of y·conj(w) >> 9.
            let golden = y.iter().zip(&w).flat_map(|(y, w)| {
                let z = y.cmul_shr(w.conj(), 9);
                [(z.re < 0) as i32, (z.im < 0) as i32]
            });
            let out = bits.iter().flat_map(|&(b0, b1)| [b0 as i32, b1 as i32]);
            (out.collect(), golden.collect())
        }
        KernelSpec::Ofdm(OfdmKernel::Fft64 { stage_shift }) => {
            let frames: Vec<[Cplx<i32>; 64]> = (0..2)
                .map(|s| samples(64, 30 + s, 511).try_into().unwrap())
                .collect();
            let out = drive_fft64(array, cfg, &frames).unwrap();
            let fft = Fft64Fixed::with_stage_shift(stage_shift);
            let golden: Vec<_> = frames.iter().map(|x| fft.run(x)).collect();
            (flat(out.iter().flatten()), flat(golden.iter().flatten()))
        }
    }
}

/// Configures `spec` beside what is resident, unloading the oldest
/// resident configuration only while placement fails.
fn configure(array: &mut Array, resident: &mut VecDeque<ConfigId>, spec: KernelSpec) -> ConfigId {
    let netlist = spec.build();
    loop {
        match array.configure(&netlist) {
            Ok(cfg) => {
                resident.push_back(cfg);
                return cfg;
            }
            Err(Error::PlacementFailed { .. }) => {
                let oldest = resident
                    .pop_front()
                    .unwrap_or_else(|| panic!("{spec:?} does not fit an empty array"));
                array.unload(oldest).unwrap();
            }
            Err(e) => panic!("configuring {spec:?}: {e}"),
        }
    }
}

#[test]
fn every_kernel_spec_matches_its_golden_on_one_shared_array() {
    let mut array = Array::xpp64a();
    let mut resident = VecDeque::new();
    let mut most_resident = 0;
    for spec in SPECS {
        let cfg = configure(&mut array, &mut resident, spec);
        most_resident = most_resident.max(resident.len());
        let (first, golden) = job(&mut array, cfg, spec);
        assert!(!first.is_empty(), "{spec:?} produced nothing");
        assert_eq!(first, golden, "{spec:?} against its golden model");
        let (second, _) = job(&mut array, cfg, spec);
        assert_eq!(second, first, "{spec:?} again on its warm configuration");
    }
    assert_eq!(array.stats().configs_loaded, SPECS.len() as u64);
    assert!(
        most_resident >= 3,
        "kernels ran beside each other: at most {most_resident} resident"
    );
    assert!(
        resident.len() < SPECS.len(),
        "the shared array evicted on placement failure"
    );
}
