//! Regenerates every table and figure of the paper's evaluation.
//!
//! Usage: `cargo run --release -p sdr-bench --bin report -- <experiment>`
//! where `<experiment>` is one of `fig1 fig2 table1 fig5 fig6 fig7 fig9
//! fig10 fig11 fig12 rake-ber ofdm-ber all` (default `all`).

use sdr_bench::{bits, chips_12bit, fft_frame, fresh};
use sdr_core::platform::SdrPlatform;
use sdr_core::requirements::{exceeds_single_dsp, Mobility, PROTOCOLS};
use sdr_core::scheduler::{schedule_edf, Job};
use sdr_core::{ofdm_partitioning, rake_partitioning};
use sdr_dsp::fft::{fft, Fft64Fixed};
use sdr_dsp::metrics::BerCounter;
use sdr_dsp::noise::sigma_for_ebn0;
use sdr_dsp::Cplx;
use sdr_ofdm::channel::WlanChannel;
use sdr_ofdm::params::{rate, RATES};
use sdr_ofdm::rx::OfdmReceiver;
use sdr_ofdm::tx::Transmitter;
use sdr_ofdm::xpp_map::{drive_fft64, OfdmKernel, ReconfigurableFrontend};
use sdr_wcdma::channel::{propagate, AdcConfig, CellLink, Path};
use sdr_wcdma::rake::finger::{correct, descramble, despread};
use sdr_wcdma::rake::searcher::PathSearcher;
use sdr_wcdma::rake::{RakeConfig, RakeReceiver};
use sdr_wcdma::scenario::{table1_scenarios, FingerScenario, FULL_RATE_MHZ};
use sdr_wcdma::scrambling::ScramblingCode;
use sdr_wcdma::symbols::sttd_decode_fixed;
use sdr_wcdma::tx::{CellConfig, CellTransmitter};
use sdr_wcdma::xpp_map::{
    drive_corrector, drive_descrambler, drive_multiplexed_despreader, drive_sttd_corrector,
    WcdmaKernel,
};
use xpp_array::power::{AreaModel, EnergyModel};
use xpp_array::{Array, ConfigId, Geometry};

fn main() {
    let which = std::env::args().nth(1).unwrap_or_else(|| "all".to_string());
    let all = which == "all";
    let mut ran = false;
    macro_rules! run {
        ($name:literal, $f:ident) => {
            if all || which == $name {
                println!("\n================ {} ================", $name);
                $f();
                ran = true;
            }
        };
    }
    run!("fig1", fig1);
    run!("fig2", fig2);
    run!("table1", table1);
    run!("fig5", fig5);
    run!("fig6", fig6);
    run!("fig7", fig7);
    run!("fig9", fig9);
    run!("fig10", fig10);
    run!("fig11", fig11);
    run!("fig12", fig12);
    run!("rake-ber", rake_ber);
    run!("ofdm-ber", ofdm_ber);
    if !ran {
        eprintln!("unknown experiment {which:?}");
        std::process::exit(1);
    }
}

/// Fig. 1 — processing-power requirements of wireless access protocols.
fn fig1() {
    println!(
        "{:<14} {:>12} {:>18}",
        "protocol", "MIPS", "fits 1600-MIPS DSP?"
    );
    for p in PROTOCOLS {
        println!(
            "{:<14} {:>12} {:>18}",
            p.name(),
            p.required_mips(),
            if exceeds_single_dsp(p) { "no" } else { "yes" }
        );
    }
}

/// Fig. 2 — data rate vs mobility.
fn fig2() {
    println!(
        "{:<14} {:>12} {:>12} {:>12}",
        "protocol", "stationary", "pedestrian", "vehicular"
    );
    for p in PROTOCOLS {
        println!(
            "{:<14} {:>10.3}Mb {:>10.3}Mb {:>10.3}Mb",
            p.name(),
            p.rate_at_mbps(Mobility::Stationary),
            p.rate_at_mbps(Mobility::Pedestrian),
            p.rate_at_mbps(Mobility::Vehicular),
        );
    }
}

/// Table 1 — rake finger scenarios and the single-physical-finger clock.
fn table1() {
    println!(
        "{:>4} {:>4} {:>4} {:>8} {:>10} {:>8}",
        "BTS", "path", "DCH", "fingers", "clock MHz", "status"
    );
    for s in table1_scenarios() {
        let status = if !s.feasible() {
            "infeasible"
        } else if s.needs_full_rate() {
            "FULL RATE" // the shaded cells of the paper's table
        } else {
            "ok"
        };
        println!(
            "{:>4} {:>4} {:>4} {:>8} {:>10.2} {:>8}",
            s.basestations,
            s.multipaths,
            s.channels,
            s.fingers(),
            s.required_mhz(),
            status
        );
    }
    let headline = FingerScenario::new(6, 3, 1);
    println!(
        "paper headline: 6 BTS x 3 paths = {} fingers -> {:.2} MHz (paper: {:.2} MHz)",
        headline.fingers(),
        headline.required_mhz(),
        FULL_RATE_MHZ
    );
}

fn kernel_summary(name: &str, array: &Array, cfg: ConfigId, tokens: u64, exact: bool) {
    let p = array.placement(cfg).unwrap();
    let stats = array.stats();
    let cycles = stats.cycles;
    let energy = EnergyModel::hcmos9_130nm().report(&stats, array.geometry(), 69.12e6);
    println!(
        "{name}: bit-exact={} | {} objects: {} ALU, {} REG, {} RAM-PAE, {} I/O | \
         {cycles} cycles for {tokens} tokens ({:.2} cyc/token) | {:.1} nJ ({:.1} mW @69.12MHz)",
        if exact { "YES" } else { "NO" },
        p.objects,
        p.counts.alu,
        p.counts.reg,
        p.counts.ram,
        p.counts.io,
        cycles as f64 / tokens as f64,
        energy.total_nj(),
        energy.avg_power_mw()
    );
}

/// Fig. 5 — the descrambler on the array.
fn fig5() {
    let code = ScramblingCode::downlink(7);
    let rx = chips_12bit(4096, 5);
    let (mut array, cfg) = fresh(&WcdmaKernel::Descrambler.build());
    let out = drive_descrambler(&mut array, cfg, &rx, &code, 0, 0, rx.len()).unwrap();
    let exact = out == descramble(&rx, &code, 0, 0, rx.len());
    kernel_summary("fig5 descrambler", &array, cfg, rx.len() as u64, exact);
}

/// Fig. 6 — the time-multiplexed despreader (the 18-finger physical finger).
fn fig6() {
    let fingers = 18;
    let sf = 64;
    let streams: Vec<Vec<Cplx<i32>>> = (0..fingers)
        .map(|f| chips_12bit(sf * 8, f as u32 + 1))
        .collect();
    let (mut array, cfg) = fresh(&WcdmaKernel::MultiplexedDespreader { fingers, sf }.build());
    let out = drive_multiplexed_despreader(&mut array, cfg, &streams, sf, 17).unwrap();
    let exact = streams
        .iter()
        .enumerate()
        .all(|(f, s)| out[f] == despread(s, sf, 17));
    let tokens = (fingers * sf * 8) as u64;
    kernel_summary("fig6 despreader (18 fingers)", &array, cfg, tokens, exact);
    println!(
        "    one chip/cycle at 69.12 MHz serves 69.12/3.84 = {} virtual fingers — the paper's scenario",
        (69.12f64 / 3.84).round()
    );
}

/// Fig. 7 — the channel-correction unit (resident weights + STTD decode).
fn fig7() {
    // Resident-weight corrector, 18 fingers.
    let fingers = 18;
    let weights: Vec<Cplx<i32>> = (0..fingers)
        .map(|f| Cplx::new(500 - 20 * f as i32, 10 * f as i32 - 90))
        .collect();
    let per: Vec<Vec<Cplx<i32>>> = (0..fingers)
        .map(|f| chips_12bit(64, 50 + f as u32))
        .collect();
    let mut muxed = Vec::new();
    for k in 0..64 {
        for s in &per {
            muxed.push(s[k]);
        }
    }
    let (mut array, cfg) = fresh(&WcdmaKernel::Corrector { fingers }.build());
    let out = drive_corrector(&mut array, cfg, &weights, &muxed).unwrap();
    let exact = (0..fingers).all(|f| {
        let got: Vec<Cplx<i32>> = out.iter().skip(f).step_by(fingers).copied().collect();
        got == correct(&per[f], weights[f])
    });
    kernel_summary(
        "fig7 corrector (18 fingers)",
        &array,
        cfg,
        muxed.len() as u64,
        exact,
    );

    // STTD decoding corrector.
    let w1 = Cplx::new(430, -120);
    let w2 = Cplx::new(-90, 380);
    let symbols = chips_12bit(256, 9);
    let (mut array, cfg) = fresh(&WcdmaKernel::SttdCorrector.build());
    let out = drive_sttd_corrector(&mut array, cfg, &symbols, w1, w2).unwrap();
    let exact = symbols.chunks_exact(2).enumerate().all(|(p, pair)| {
        let (s1, s2) = sttd_decode_fixed(pair[0], pair[1], w1, w2, 9);
        out[2 * p] == s1 && out[2 * p + 1] == s2
    });
    kernel_summary(
        "fig7 STTD corrector",
        &array,
        cfg,
        symbols.len() as u64,
        exact,
    );
}

/// Fig. 9 — the radix-4 FFT64: bit-exactness, throughput and the
/// stage-scaling precision trade-off.
fn fig9() {
    let (mut array, cfg) = fresh(&OfdmKernel::Fft64 { stage_shift: 2 }.build());
    let frames: Vec<[Cplx<i32>; 64]> = (0..8).map(|s| fft_frame(s + 1)).collect();
    let golden = Fft64Fixed::with_stage_shift(2);
    let before = array.stats().cycles;
    let out = drive_fft64(&mut array, cfg, &frames).unwrap();
    let cycles = array.stats().cycles - before;
    let exact = frames.iter().zip(&out).all(|(x, y)| golden.run(x) == *y);
    kernel_summary(
        "fig9 FFT64 (>>2/stage)",
        &array,
        cfg,
        256 * frames.len() as u64,
        exact,
    );
    let per_frame = cycles as f64 / frames.len() as f64;
    println!(
        "    {per_frame:.0} cycles/FFT; an 80-sample OFDM symbol at 20 Msps gives \
         {:.0} cycles of budget at 69.12 MHz -> {}",
        80.0 * 69.12 / 20.0,
        if per_frame < 80.0 * 69.12 / 20.0 {
            "meets real time"
        } else {
            "MISSES real time"
        }
    );

    // Precision ablation: per-stage shift vs output SNR (10-bit input) and
    // which WLAN rates survive.
    println!("    stage-shift ablation (paper uses >>2):");
    for shift in [0u32, 1, 2, 3] {
        let fixed = Fft64Fixed::with_stage_shift(shift);
        let mut sig = 0.0;
        let mut err = 0.0;
        for s in 0..4u32 {
            let x = fft_frame(s + 40);
            let reference = fft(&x.iter().map(|v| v.to_f64()).collect::<Vec<_>>());
            let scale = 1.0 / (1u64 << (3 * shift)) as f64;
            for (f, r) in fixed.run(&x).iter().zip(&reference) {
                let want = Cplx::new(r.re * scale, r.im * scale);
                sig += want.sqmag();
                err += (f.to_f64() - want).sqmag();
            }
        }
        let snr = 10.0 * (sig / err.max(1e-12)).log10();
        // Try every rate over a clean channel with this shift.
        let mut supported = Vec::new();
        for r in RATES {
            let data = bits(2 * r.data_bits_per_symbol(), 3);
            let frame = Transmitter::new(r).transmit(&data);
            let rxs = WlanChannel::default().run(&frame.samples);
            let ok = OfdmReceiver::new(r)
                .with_fft_stage_shift(shift)
                .receive(&rxs, data.len())
                .map(|o| o.bits == data)
                .unwrap_or(false);
            if ok {
                supported.push(r.mbps);
            }
        }
        println!(
            "      >>{shift}/stage: output SNR {snr:6.1} dB; clean-channel rates OK: {supported:?}"
        );
    }
}

/// Fig. 10 — runtime partial reconfiguration between detector and
/// demodulator.
fn fig10() {
    let mut fe = ReconfigurableFrontend::new(2).unwrap();
    // Search over a real frame preceded by noise.
    let r = rate(12).unwrap();
    let data = bits(96, 1);
    let frame = Transmitter::new(r).transmit(&data);
    // 2x oversample by sample-and-hold (the 40 Msps ADC).
    let ch = WlanChannel {
        leading_gap: 80,
        ..Default::default()
    };
    let rx20 = ch.run(&frame.samples);
    let mut rx40 = Vec::with_capacity(rx20.len() * 2);
    for s in &rx20 {
        rx40.push(*s);
        rx40.push(*s);
    }
    let metric = fe.search(&rx40[..4000.min(rx40.len())]).unwrap();
    let peak = *metric.iter().max().unwrap();
    let detect_at = metric.iter().position(|&m| m > peak / 2).unwrap();
    println!("search: preamble plateau detected at sample {detect_at} (gap was 80)");
    let cfg_cycles_before = fe.array().stats().config_cycles;
    fe.switch_to_demodulation().unwrap();
    let swap_cost = fe.array().stats().config_cycles;
    for e in fe.events() {
        println!(
            "  [{:>6} cfg-cycles] {} | free: {} ALU, {} RAM, {} I/O",
            e.config_cycles, e.action, e.free.alu, e.free.ram, e.free.io
        );
    }
    println!(
        "differential reconfiguration: 2a->2b swap completed in {} bus cycles \
         (a full-array reload would also re-send config 1's {} objects, ~{} cycles)",
        swap_cost - cfg_cycles_before,
        fe.array()
            .placement(fe.config1())
            .map(|p| p.objects)
            .unwrap_or(0),
        fe.array()
            .placement(fe.config1())
            .map(|p| p.objects as u64)
            .unwrap_or(0)
            * xpp_array::CONFIG_CYCLES_PER_OBJECT
            + (swap_cost - cfg_cycles_before),
    );
}

/// Fig. 3/4/8/11 — partitioning and the multi-standard platform.
fn fig11() {
    println!("rake receiver partitioning (Fig. 4):");
    for t in rake_partitioning() {
        println!(
            "  {:<28} -> {:<22} [{}]",
            t.task,
            t.resource.to_string(),
            t.implemented_by
        );
    }
    println!("OFDM decoder partitioning (Fig. 8):");
    for t in ofdm_partitioning() {
        println!(
            "  {:<28} -> {:<22} [{}]",
            t.task,
            t.resource.to_string(),
            t.implemented_by
        );
    }

    // Measure the two standards' kernel demands on the array simulator and
    // time-slice them (the paper's multi-link multi-standard argument).
    // Rake: 1 cycle per virtual chip (measured in fig6), so the full
    // 18-finger scenario demands 18 x 3.84 = 69.12 Mcycles/s regardless of
    // clock. OFDM: the measured serialized FFT64 cost per 4-us symbol.
    let (mut array, cfg) = fresh(&OfdmKernel::Fft64 { stage_shift: 2 }.build());
    let before = array.stats().cycles;
    let frames = [fft_frame(3), fft_frame(4), fft_frame(5), fft_frame(6)];
    drive_fft64(&mut array, cfg, &frames).unwrap();
    let fft_cycles = (array.stats().cycles - before) / 4;
    println!("measured: FFT64 {fft_cycles} cycles/symbol; rake 1 cycle/virtual-chip");

    println!("time-sliced feasibility (EDF over 10 W-CDMA slots):");
    println!(
        "{:>10} {:>12} {:>12} {:>8} {:>9}",
        "clock", "rake fingers", "u(rake+fft)", "misses", "feasible"
    );
    for (clock_mhz, fingers) in [
        (69.12, 18u64),
        (138.24, 18),
        (200.0, 18),
        (200.0, 12),
        (160.0, 6),
    ] {
        let clock = clock_mhz * 1e6;
        let slot_period = (clock * 2_560.0 / 3.84e6) as u64;
        let sym_period = (clock * 4e-6) as u64;
        let jobs = vec![
            Job::new("wcdma-rake-slot", 2_560 * fingers, slot_period),
            Job::new("ofdm-fft-symbol", fft_cycles, sym_period),
        ];
        let u: f64 = jobs.iter().map(Job::utilization).sum();
        let report = schedule_edf(&jobs, 10 * slot_period);
        println!(
            "{:>7.2}MHz {:>12} {:>12.3} {:>8} {:>9}",
            clock_mhz,
            fingers,
            u,
            report.misses.len(),
            report.feasible()
        );
    }
    println!("-> full 18-finger soft handover + continuous 54 Mb/s WLAN needs >200 MHz or");
    println!("   pass-overlapped FFT buffering; reduced scenarios time-slice comfortably.");

    let platform = SdrPlatform::evaluation_board();
    println!(
        "platform: XPP-64A ({} ALU-PAEs) + {:.0}-MIPS DSP + {} dedicated blocks",
        platform.array.geometry().alu_paes,
        platform.dsp.mips(),
        4
    );
}

/// Fig. 12 — silicon model vs the paper's 0.13 um implementation facts.
fn fig12() {
    let g = Geometry::xpp64a();
    let area = AreaModel::hcmos9_130nm();
    println!(
        "XPP-64A model: {} ALU-PAEs + {} RAM-PAEs, die ~{:.1} mm^2 at 0.13 um HCMOS9 \
         (paper: 0.13 um, 110 nm gate length, dual-Vt, 6-8 Cu layers; no die size printed)",
        g.alu_paes,
        g.ram_paes,
        area.die_mm2(g)
    );
    // A representative kernel's power at the headline clock.
    let code = ScramblingCode::downlink(0);
    let rx = chips_12bit(8192, 2);
    let (mut array, cfg) = fresh(&WcdmaKernel::Descrambler.build());
    drive_descrambler(&mut array, cfg, &rx, &code, 0, 0, rx.len()).unwrap();
    let e = EnergyModel::hcmos9_130nm().report(&array.stats(), g, 69.12e6);
    println!(
        "descrambler streaming at 69.12 MHz: {:.1} mW dynamic+leakage (activity-based model)",
        e.avg_power_mw()
    );
}

/// BER vs Eb/N0 for the rake receiver, including the soft-handover case.
///
/// With chip energy Ec = 2 (unit-amplitude QPSK through the complex
/// scrambler), SF = 128 and 2 bits/symbol: Eb/N0 = Ec·SF / (2·2σ²), so
/// σ = 8/√γ. The ADC gain follows the noise level (AGC) so the 12-bit
/// range is used, not clipped.
fn rake_ber() {
    println!(
        "{:>8} {:>12} {:>12} {:>12}",
        "Eb/N0", "1 path", "3 paths", "2-cell SHO"
    );
    let payload = 2048;
    let _ = sigma_for_ebn0(1.0, 1.0, 1.0, 0.0); // general helper; exact map below
    for ebn0 in [0.0f64, 2.0, 4.0, 6.0, 8.0] {
        let gamma = 10f64.powf(ebn0 / 10.0);
        let sigma = 8.0 / gamma.sqrt();
        let adc = AdcConfig {
            gain: 512.0 / (1.0 + sigma),
            bits: 12,
        };
        let mut row = Vec::new();
        for scenario in 0..3 {
            // Median of three noise realisations: at low Eb/N0 an
            // occasional acquisition failure (BER ~0.5) would otherwise
            // mask the trend a longer simulation shows.
            let mut trials = Vec::new();
            for trial in 0..3u64 {
                let data = bits(payload, ebn0 as u32 + scenario);
                let mut cells = Vec::new();
                match scenario {
                    0 => cells.push((
                        CellConfig::default(),
                        CellLink::new(vec![Path::new(2, Cplx::new(0.7, 0.2))]),
                    )),
                    1 => cells.push((
                        CellConfig::default(),
                        CellLink::new(vec![
                            Path::new(0, Cplx::new(0.55, 0.1)),
                            Path::new(7, Cplx::new(-0.1, 0.42)),
                            Path::new(19, Cplx::new(0.3, -0.25)),
                        ]),
                    )),
                    _ => {
                        cells.push((
                            CellConfig {
                                scrambling_code: 0,
                                ..Default::default()
                            },
                            CellLink::new(vec![Path::new(1, Cplx::new(0.5, 0.2))]),
                        ));
                        cells.push((
                            CellConfig {
                                scrambling_code: 32,
                                ..Default::default()
                            },
                            CellLink::new(vec![Path::new(9, Cplx::new(-0.15, 0.5))]),
                        ));
                    }
                }
                let mut signals = Vec::new();
                let mut codes = Vec::new();
                for (cfg, link) in cells {
                    let mut tx = CellTransmitter::new(cfg);
                    signals.push((tx.transmit(&data), link));
                    codes.push(cfg.scrambling_code);
                }
                let rx = propagate(&signals, sigma, 1000 + 77 * trial + ebn0 as u64, adc);
                // Longer pilot integration at low SNR (the coarse/fine
                // searcher's dwell-time trade, §3.1).
                let rake = RakeReceiver::new(
                    codes,
                    RakeConfig {
                        searcher: PathSearcher {
                            max_paths: 3,
                            coarse_symbols: 2,
                            fine_symbols: 12,
                            ..Default::default()
                        },
                        estimation_symbols: 16,
                        ..Default::default()
                    },
                );
                let out = rake.receive(&rx);
                let n = data.len().min(out.bits.len());
                let mut ber = BerCounter::new();
                ber.update(&data[..n], &out.bits[..n]);
                trials.push(ber.ber());
            }
            trials.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
            row.push(trials[1]);
        }
        println!(
            "{:>6.1}dB {:>12.5} {:>12.5} {:>12.5}",
            ebn0, row[0], row[1], row[2]
        );
    }
    println!("(BER ~0.5 = acquisition failure: with the CPICH 6 dB below the data");
    println!(" channel, 12-symbol pilot integration is marginal below ~2 dB Eb/N0)");
}

/// BER vs noise for all eight 802.11a rates.
fn ofdm_ber() {
    print!("{:>8}", "sigma");
    for r in RATES {
        print!(" {:>9}", format!("{}Mb/s", r.mbps));
    }
    println!();
    for sigma in [0.05f64, 0.10, 0.15, 0.20, 0.30] {
        print!("{sigma:>8.2}");
        for r in RATES {
            let data = bits(4 * r.data_bits_per_symbol(), 77);
            let frame = Transmitter::new(r).transmit(&data);
            let rx = WlanChannel::awgn(sigma, 9).run(&frame.samples);
            let ber = match OfdmReceiver::new(r).receive(&rx, data.len()) {
                Ok(out) => {
                    let mut b = BerCounter::new();
                    b.update(&data, &out.bits);
                    b.ber()
                }
                Err(_) => 0.5,
            };
            print!(" {ber:>9.4}");
        }
        println!();
    }
    println!("(0.5000 = frame lost; higher rates fail at lower noise — the Fig. 2 trade-off)");
}
