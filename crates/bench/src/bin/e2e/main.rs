//! `e2e`: host frames/s and CPU/frame of the basestation path over four
//! seeded workloads, with outside-in per-layer attribution. See
//! `README.md` beside this file.

mod compare;
mod json;
mod layers;
mod procfs;
mod report;
mod run;
mod spec;
mod stats;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

use layers::{Rec, Samples};
use report::{Layers, WorkloadReport};
use run::Budget;
use trace::Tracer;
use workload::{Workload, WORKLOADS};

const USAGE: &str = "usage: e2e [--workload NAME|all] [--seed N] [--seconds S] [--trace [0|1]] \
                     [--out FILE] [--smoke]\n       e2e compare A.json B.json";

struct Args {
    workloads: Vec<&'static Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
    smoke: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workloads: WORKLOADS.iter().collect(),
        seed: 1,
        seconds: 15.0,
        trace: false,
        out: None,
        smoke: false,
    };
    let mut it = argv.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                if name != "all" {
                    let w = workload::find(name).ok_or(format!("unknown workload {name:?}"))?;
                    args.workloads = vec![w];
                }
            }
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed must be a whole number")?;
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0 && *s <= 3600.0)
                    .ok_or("--seconds must be a number in (0, 3600]")?;
            }
            "--trace" => {
                // Bare `--trace` turns tracing on; the driver passes 0 or 1.
                args.trace = match it.next_if(|v| matches!(v.as_str(), "0" | "1")) {
                    Some(v) => v == "1",
                    None => true,
                };
            }
            "--out" => args.out = Some(PathBuf::from(value("--out")?)),
            "--smoke" => args.smoke = true,
            other => return Err(format!("unexpected argument {other:?}")),
        }
    }
    Ok(args)
}

fn run_compare(paths: &[String]) -> Result<bool, String> {
    let [a, b] = paths else {
        return Err("compare needs exactly two report files".into());
    };
    let load = |path: &String| -> Result<json::Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let mut out = String::new();
    let ok = compare::compare(&load(a)?, &load(b)?, &mut out).map_err(|e| e.to_string())?;
    print!("{out}");
    println!(
        "{}",
        if ok {
            "all within bounds"
        } else {
            "OUTSIDE bounds"
        }
    );
    Ok(ok)
}

/// Runs one workload: the timed rounds, and with `--trace` the traced
/// rounds, the layer replay and the direct measurements, whose spans go
/// to the workload's trace file.
fn run_one(w: &'static Workload, args: &Args) -> Result<WorkloadReport, String> {
    let budget = if args.smoke {
        Budget::Smoke
    } else {
        Budget::Seconds(args.seconds)
    };
    if !args.trace {
        let rounds = run::run_workload(w, args.seed, budget, None);
        return Ok(report::build(w, &rounds, None));
    }
    let mut tracer = Tracer::new();
    let rounds = run::run_workload(w, args.seed, budget, Some(&mut tracer));
    let mut samples = Samples::new();
    let mut rec = Rec {
        tracer: &mut tracer,
        samples: &mut samples,
    };
    let error = layers::replay(&mut rec, args.seed)
        .and_then(|()| layers::direct(&mut rec, args.seed))
        .err();
    let path = trace::trace_path(w.name);
    tracer
        .write(&path, w.name)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!(
        "trace: {} spans -> {}",
        tracer.spans().len(),
        path.display()
    );
    Ok(report::build(w, &rounds, Some(Layers { samples, error })))
}

fn run_bench(args: &Args) -> Result<bool, String> {
    println!(
        "e2e: seed {}, host_cores {}",
        args.seed,
        report::host_cores()
    );
    let mut reports = Vec::new();
    for w in &args.workloads {
        let report = run_one(w, args)?;
        report.print();
        reports.push(report);
    }
    if let Some(path) = &args.out {
        let doc = report::document(args.seed, args.seconds, args.trace, &reports);
        std::fs::write(path, format!("{doc}\n")).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    // Last on stdout: one result object per workload run.
    for report in &reports {
        println!("{}", report.result_line());
    }
    Ok(reports.iter().all(|r| r.correct))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match argv.split_first() {
        Some((cmd, rest)) if cmd == "compare" => run_compare(rest),
        _ => parse_args(&argv).and_then(|args| run_bench(&args)),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("e2e: {message}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn driver_and_interactive_trace_forms_both_parse() {
        let a = parse(&[
            "--workload",
            "mixed_gang",
            "--seed",
            "7",
            "--seconds",
            "2",
            "--trace",
            "0",
        ])
        .unwrap();
        assert_eq!(a.workloads[0].name, "mixed_gang");
        assert_eq!((a.seed, a.seconds, a.trace), (7, 2.0, false));
        assert!(parse(&["--trace", "1"]).unwrap().trace);
        let a = parse(&["--trace", "--smoke"]).unwrap();
        assert!(a.trace && a.smoke);
        assert_eq!(parse(&[]).unwrap().workloads.len(), 4);
        assert_eq!(parse(&["--workload", "all"]).unwrap().workloads.len(), 4);
    }

    #[test]
    fn bad_arguments_are_rejected_not_panicked_on() {
        for bad in [
            &["--workload", "nope"][..],
            &["--seed", "x"],
            &["--seed"],
            &["--seconds", "0"],
            &["--seconds", "nan"],
            &["banana"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?}");
        }
    }
}
