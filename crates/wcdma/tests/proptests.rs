//! Property-based tests: code-generator invariants and golden/array
//! equivalence over random streams.

use proptest::prelude::*;
use sdr_dsp::Cplx;
use sdr_wcdma::ovsf::{correlate, ovsf};
use sdr_wcdma::rake::finger::{correct, descramble, despread};
use sdr_wcdma::scrambling::ScramblingCode;
use sdr_wcdma::symbols::{qpsk_demap, qpsk_map_bits, sttd_decode, sttd_encode};
use sdr_wcdma::xpp_map::{
    descrambler_netlist, despreader_single_netlist, drive_descrambler, drive_despreader,
};
use xpp_array::Array;

fn arb_samples(n: usize) -> impl Strategy<Value = Vec<Cplx<i32>>> {
    proptest::collection::vec((-2048i32..=2047, -2048i32..=2047), n..=n)
        .prop_map(|v| v.into_iter().map(|(re, im)| Cplx::new(re, im)).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn ovsf_codes_orthogonal(sf_pow in 2u32..=9, k1 in 0usize..512, k2 in 0usize..512) {
        let sf = 1usize << sf_pow;
        let (k1, k2) = (k1 % sf, k2 % sf);
        let c = correlate(&ovsf(sf, k1), &ovsf(sf, k2));
        if k1 == k2 {
            prop_assert_eq!(c, sf as i32);
        } else {
            prop_assert_eq!(c, 0);
        }
    }

    #[test]
    fn scrambling_descrambling_identity(code_num in 0u32..1000, d_re in -1000i32..1000, d_im in -1000i32..1000, n in 1usize..64) {
        // d·S·conj(S) = 2d for every chip.
        let code = ScramblingCode::downlink(code_num);
        let d = Cplx::new(d_re, d_im);
        let rx: Vec<Cplx<i32>> = (0..n).map(|i| d * code.chip(i)).collect();
        let y = descramble(&rx, &code, 0, 0, n);
        prop_assert!(y.iter().all(|&v| v == d.scale(2)));
    }

    #[test]
    fn despread_linear_in_amplitude(sf_pow in 2u32..=7, k in 0usize..16, amp in 1i32..16) {
        let sf = 1usize << sf_pow;
        let k = k % sf;
        let code = ovsf(sf, k);
        let base: Vec<Cplx<i32>> = code.iter().map(|&c| Cplx::new(31 * c, -17 * c)).collect();
        let scaled: Vec<Cplx<i32>> = base.iter().map(|v| v.scale(amp)).collect();
        let y1 = despread(&base, sf, k);
        let y2 = despread(&scaled, sf, k);
        prop_assert_eq!(y2[0], y1[0].scale(amp));
    }

    #[test]
    fn qpsk_roundtrip_random(bits in proptest::collection::vec(0u8..=1, 2..64)) {
        let bits = if bits.len() % 2 == 0 { bits } else { bits[..bits.len()-1].to_vec() };
        let syms = qpsk_map_bits(&bits);
        let mut back = Vec::new();
        for s in syms {
            let (b0, b1) = qpsk_demap(s.widen());
            back.push(b0);
            back.push(b1);
        }
        prop_assert_eq!(back, bits);
    }

    #[test]
    fn sttd_roundtrip_random_channel(
        s_values in proptest::collection::vec((-1i32..=1, -1i32..=1), 2..10),
        h in ((-100i32..100), (-100i32..100), (-100i32..100), (-100i32..100)),
    ) {
        // Random QPSK-ish symbols through a random 2-antenna channel decode
        // to a positive multiple of the originals.
        let (h1r, h1i, h2r, h2i) = h;
        let h1 = Cplx::new(h1r as f64 / 50.0, h1i as f64 / 50.0);
        let h2 = Cplx::new(h2r as f64 / 50.0, h2i as f64 / 50.0);
        prop_assume!(h1.sqmag() + h2.sqmag() > 0.01);
        let mut syms: Vec<Cplx<i32>> = s_values
            .iter()
            .map(|&(r, i)| Cplx::new(if r >= 0 { 1 } else { -1 }, if i >= 0 { 1 } else { -1 }))
            .collect();
        if syms.len() % 2 == 1 { syms.pop(); }
        let (a1, a2) = sttd_encode(&syms);
        let gain = h1.sqmag() + h2.sqmag();
        for p in 0..syms.len() / 2 {
            let r1 = h1 * a1[2 * p].to_f64() + h2 * a2[2 * p].to_f64();
            let r2 = h1 * a1[2 * p + 1].to_f64() + h2 * a2[2 * p + 1].to_f64();
            let (d1, d2) = sttd_decode(r1, r2, h1, h2);
            let s1 = syms[2 * p].to_f64();
            let s2 = syms[2 * p + 1].to_f64();
            prop_assert!((d1.re - gain * s1.re).abs() < 1e-9);
            prop_assert!((d1.im - gain * s1.im).abs() < 1e-9);
            prop_assert!((d2.re - gain * s2.re).abs() < 1e-9);
            prop_assert!((d2.im - gain * s2.im).abs() < 1e-9);
        }
    }

    #[test]
    fn correct_is_linear_in_symbol(
        s in (-4000i32..4000, -4000i32..4000),
        w in (-1023i32..=1023, -1023i32..=1023),
    ) {
        let s = Cplx::new(s.0, s.1);
        let w = Cplx::new(w.0, w.1);
        // Doubling the weight scale before shifting equals shifting one less.
        let once = correct(&[s], w)[0];
        let expected = s.widen() * w.conj().widen();
        prop_assert_eq!(once, expected.shr(9).narrow());
    }
}

// Array-vs-golden equivalence over random data (fewer cases: each spins up a
// full array simulation).
proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn array_descrambler_matches_golden(code_num in 0u32..256, samples in arb_samples(64)) {
        let code = ScramblingCode::downlink(code_num);
        let mut array = Array::xpp64a();
        let cfg = array.configure(&descrambler_netlist()).unwrap();
        let out = drive_descrambler(&mut array, cfg, &samples, &code, 0, 0, samples.len()).unwrap();
        prop_assert_eq!(out, descramble(&samples, &code, 0, 0, samples.len()));
    }

    #[test]
    fn array_despreader_matches_golden(sf_pow in 2u32..=6, samples in arb_samples(256)) {
        let sf = 1usize << sf_pow;
        let k = sf / 2;
        let mut array = Array::xpp64a();
        let cfg = array.configure(&despreader_single_netlist(sf, k)).unwrap();
        let out = drive_despreader(&mut array, cfg, &samples, sf).unwrap();
        prop_assert_eq!(out, despread(&samples, sf, k));
    }
}
