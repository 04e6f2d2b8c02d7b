//! Criterion benches: one group per paper table/figure, plus the ablations
//! DESIGN.md §8 calls out. Array-kernel benches measure simulator
//! throughput (cycles are reported by the `report` binary; wall time here
//! tracks the simulation cost of each kernel).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use sdr_bench::{bits, chips_12bit, fft_frame, fresh, samples_10bit};
use sdr_dsp::fft::Fft64Fixed;
use sdr_dsp::Cplx;
use sdr_ofdm::channel::WlanChannel;
use sdr_ofdm::convolutional::{depuncture, encode, puncture, viterbi_decode};
use sdr_ofdm::params::{rate, CodeRate};
use sdr_ofdm::rx::{autocorr_metric, OfdmReceiver};
use sdr_ofdm::tx::Transmitter;
use sdr_ofdm::xpp_map::{drive_fft64, OfdmKernel};
use sdr_wcdma::channel::{propagate, AdcConfig, CellLink, Path};
use sdr_wcdma::rake::finger::{descramble, despread};
use sdr_wcdma::rake::searcher::PathSearcher;
use sdr_wcdma::rake::{RakeConfig, RakeReceiver};
use sdr_wcdma::scrambling::ScramblingCode;
use sdr_wcdma::tx::{CellConfig, CellTransmitter};
use sdr_wcdma::xpp_map::{drive_descrambler, drive_multiplexed_despreader, WcdmaKernel};
use xpp_array::{Array, NetlistBuilder, UnaryOp, Word};

/// Gold-code generation — the dedicated-hardware block of Fig. 4. The
/// three code numbers must read alike: jump-ahead makes the cost
/// independent of the start phase.
fn bench_gold_code(c: &mut Criterion) {
    let mut g = c.benchmark_group("gold_code");
    for number in [0, 8191, (1 << 18) - 2] {
        g.bench_function(format!("downlink_{number}"), |b| {
            b.iter(|| ScramblingCode::downlink(std::hint::black_box(number)))
        });
    }
    g.finish();
}

/// Fig. 5 — descrambler: golden model vs array simulation.
fn bench_fig5_descrambler(c: &mut Criterion) {
    let code = ScramblingCode::downlink(7);
    let rx = chips_12bit(2048, 5);
    let mut g = c.benchmark_group("fig5_descrambler");
    g.bench_function("golden", |b| {
        b.iter(|| descramble(std::hint::black_box(&rx), &code, 0, 0, rx.len()))
    });
    let netlist = WcdmaKernel::Descrambler.build();
    g.bench_function("array_sim", |b| {
        b.iter_batched(
            || fresh(&netlist),
            |(mut array, cfg)| {
                drive_descrambler(&mut array, cfg, &rx, &code, 0, 0, rx.len()).unwrap()
            },
            BatchSize::LargeInput,
        )
    });
    g.finish();
}

/// Fig. 6 — despreader: golden vs the 18-finger multiplexed array kernel.
fn bench_fig6_despreader(c: &mut Criterion) {
    let sf = 64;
    let streams: Vec<Vec<Cplx<i32>>> = (0..18).map(|f| chips_12bit(sf * 4, f as u32)).collect();
    let mut g = c.benchmark_group("fig6_despreader");
    g.bench_function("golden_18fingers", |b| {
        b.iter(|| {
            for s in &streams {
                std::hint::black_box(despread(s, sf, 17));
            }
        })
    });
    let netlist = WcdmaKernel::MultiplexedDespreader { fingers: 18, sf }.build();
    g.bench_function("array_sim_18fingers", |b| {
        b.iter_batched(
            || fresh(&netlist),
            |(mut array, cfg)| {
                drive_multiplexed_despreader(&mut array, cfg, &streams, sf, 17).unwrap()
            },
            BatchSize::LargeInput,
        )
    });
    g.finish();
}

/// Fig. 9 — FFT64: golden fixed-point vs array simulation.
fn bench_fig9_fft64(c: &mut Criterion) {
    let frame = fft_frame(11);
    let mut g = c.benchmark_group("fig9_fft64");
    g.bench_function("golden_shift2", |b| {
        let f = Fft64Fixed::with_stage_shift(2);
        b.iter(|| f.run(std::hint::black_box(&frame)))
    });
    let netlist = OfdmKernel::Fft64 { stage_shift: 2 }.build();
    g.bench_function("array_sim_shift2", |b| {
        b.iter_batched(
            || fresh(&netlist),
            |(mut array, cfg)| drive_fft64(&mut array, cfg, &[frame]).unwrap(),
            BatchSize::LargeInput,
        )
    });
    g.finish();
}

/// Fig. 10 support — the preamble-detection metric (config 2a's function).
fn bench_fig10_detector(c: &mut Criterion) {
    let samples = samples_10bit(4096, 3);
    c.bench_function("fig10_autocorr_metric", |b| {
        b.iter(|| autocorr_metric(std::hint::black_box(&samples)))
    });
}

/// Table 1 / E11 — the full rake receive over one buffer (3 paths).
fn bench_rake_receive(c: &mut Criterion) {
    let data = bits(256, 1);
    let mut tx = CellTransmitter::new(CellConfig::default());
    let signal = tx.transmit(&data);
    let link = CellLink::new(vec![
        Path::new(0, Cplx::new(0.6, 0.1)),
        Path::new(9, Cplx::new(-0.1, 0.5)),
        Path::new(21, Cplx::new(0.3, -0.2)),
    ]);
    let rx = propagate(&[(signal, link)], 0.05, 7, AdcConfig::default());
    let rake = RakeReceiver::new(vec![0], RakeConfig::default());
    c.bench_function("rake_receive_3paths", |b| {
        b.iter(|| rake.receive(std::hint::black_box(&rx)))
    });
}

/// E12 — the full OFDM receive chain at 6 and 54 Mb/s.
fn bench_ofdm_receive(c: &mut Criterion) {
    let mut g = c.benchmark_group("ofdm_receive");
    for mbps in [6u32, 54] {
        let r = rate(mbps).unwrap();
        let data = bits(4 * r.data_bits_per_symbol(), 2);
        let frame = Transmitter::new(r).transmit(&data);
        let rx = WlanChannel::default().run(&frame.samples);
        let receiver = OfdmReceiver::new(r);
        g.bench_function(format!("{mbps}mbps"), |b| {
            b.iter(|| {
                receiver
                    .receive(std::hint::black_box(&rx), data.len())
                    .unwrap()
            })
        });
    }
    g.finish();
}

/// The engine's OFDM frame (96 bits at 12 Mb/s): the two host-side calls
/// of the demodulation stage.
fn bench_ofdm_engine_frame(c: &mut Criterion) {
    let r = rate(12).unwrap();
    let data = bits(96, 2);
    let frame = Transmitter::new(r).transmit(&data);
    let rx = WlanChannel::default().run(&frame.samples);
    let receiver = OfdmReceiver::new(r);
    let coarse = receiver.detect(&rx).unwrap();
    let long_start = receiver.fine_timing(&rx, coarse).unwrap();
    c.bench_function("ofdm_fine_timing", |b| {
        b.iter(|| receiver.fine_timing(std::hint::black_box(&rx), coarse))
    });
    c.bench_function("ofdm_receive_at_12mbps_96bits", |b| {
        b.iter(|| {
            receiver
                .receive_at(std::hint::black_box(&rx), long_start, data.len())
                .unwrap()
        })
    });
}

/// The engine's W-CDMA search stage: the default searcher over one
/// 32-bit capture (2,054 chips, one path).
fn bench_path_search(c: &mut Criterion) {
    let mut tx = CellTransmitter::new(CellConfig::default());
    let signal = tx.transmit(&bits(32, 1));
    let link = CellLink::new(vec![Path::new(6, Cplx::new(0.8, 0.2))]);
    let rx = propagate(&[(signal, link)], 0.02, 7, AdcConfig::default());
    let code = tx.scrambling_code().clone();
    let searcher = PathSearcher::default();
    c.bench_function("path_search", |b| {
        b.iter(|| searcher.search(std::hint::black_box(&rx), &code))
    });
}

/// Dedicated-hardware block: the Viterbi decoder.
fn bench_viterbi(c: &mut Criterion) {
    let mut data = bits(480, 5);
    data.extend_from_slice(&[0; 6]);
    let coded = puncture(&encode(&data), CodeRate::R34);
    let llrs: Vec<i32> = coded
        .iter()
        .map(|&b| if b == 0 { 16 } else { -16 })
        .collect();
    let full = depuncture(&llrs, CodeRate::R34);
    c.bench_function("viterbi_480bits_r34", |b| {
        b.iter(|| viterbi_decode(std::hint::black_box(&full)))
    });
}

/// Ablation: channel capacity 1 vs 2 (why the XPP has forward registers).
fn bench_ablation_channel_capacity(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_channel_capacity");
    for cap in [1usize, 2] {
        g.bench_function(format!("cap{cap}"), |b| {
            b.iter_batched(
                || {
                    let mut nl = NetlistBuilder::new("pipe");
                    nl.set_default_capacity(cap);
                    let mut x = nl.input("x");
                    for _ in 0..4 {
                        x = nl.unary(UnaryOp::AddK(Word::ONE), x);
                    }
                    nl.output("y", x);
                    let mut array = Array::xpp64a();
                    let cfg = array.configure(&nl.build().unwrap()).unwrap();
                    array.push_input(cfg, "x", (0..512).map(Word::new)).unwrap();
                    array
                },
                |mut array| array.run_until_idle(100_000).unwrap(),
                BatchSize::LargeInput,
            )
        });
    }
    g.finish();
}

/// Ablation: reconfiguration cost — differential 2a→2b swap vs full reload.
fn bench_ablation_reconfig(c: &mut Criterion) {
    use sdr_ofdm::xpp_map::{demodulator_netlist, frontend_netlist, preamble_detector_netlist};
    let mut g = c.benchmark_group("ablation_reconfig");
    g.bench_function("differential_swap", |b| {
        b.iter_batched(
            || {
                let mut array = Array::xpp64a();
                let _c1 = array.configure(&frontend_netlist(2)).unwrap();
                let c2a = array.configure(&preamble_detector_netlist()).unwrap();
                array.run_until_idle(50_000).unwrap();
                (array, c2a)
            },
            |(mut array, c2a)| {
                array.unload(c2a).unwrap();
                let _c2b = array.configure(&demodulator_netlist()).unwrap();
                array.run_until_idle(50_000).unwrap();
            },
            BatchSize::LargeInput,
        )
    });
    g.bench_function("full_reload", |b| {
        b.iter_batched(
            Array::xpp64a,
            |mut array| {
                let _c1 = array.configure(&frontend_netlist(2)).unwrap();
                let _c2b = array.configure(&demodulator_netlist()).unwrap();
                array.run_until_idle(100_000).unwrap();
            },
            BatchSize::LargeInput,
        )
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets =
        bench_gold_code,
        bench_fig5_descrambler,
        bench_fig6_despreader,
        bench_fig9_fft64,
        bench_fig10_detector,
        bench_rake_receive,
        bench_ofdm_receive,
        bench_ofdm_engine_frame,
        bench_path_search,
        bench_viterbi,
        bench_ablation_channel_capacity,
        bench_ablation_reconfig,
}
criterion_main!(benches);
