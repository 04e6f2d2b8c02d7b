//! `e2e compare A.json B.json`: the self-agreement check between two
//! reports, per workload and end-to-end metric.

use crate::json::Json;
use crate::spec::{Better, END_TO_END, FAILED_SHARE};

/// `setup_s` may worsen by max(its bound, this many seconds).
const SETUP_SLACK_S: f64 = 0.05;

/// Prints one line per workload and end-to-end metric (both values, the
/// ratio B/A with A as its base, and `within`/`outside` the metric's
/// bound) and returns whether every line is `within`. A workload or
/// metric of A that B lacks, and any rise in `failed_share`, is `outside`.
pub fn compare(
    a: &Json,
    b: &Json,
    out: &mut impl std::fmt::Write,
) -> Result<bool, std::fmt::Error> {
    let mut all_within = true;
    let metric = |doc: &Json, workload: &str, name: &str| -> Option<f64> {
        doc.get("timing")?
            .get(workload)?
            .get("end_to_end")?
            .get(name)?
            .get("value")?
            .as_f64()
    };
    let workloads = a.get("timing").map_or(&[][..], Json::entries);
    if workloads.is_empty() {
        writeln!(out, "A has no timing section")?;
        return Ok(false);
    }
    for (workload, _) in workloads {
        for spec in &END_TO_END {
            let (Some(va), Some(vb)) = (
                metric(a, workload, spec.name),
                metric(b, workload, spec.name),
            ) else {
                writeln!(out, "{workload:<18} {:<36} missing  outside", spec.name)?;
                all_within = false;
                continue;
            };
            // How much worse B is than A, as a share of A.
            let worse = if spec.name == FAILED_SHARE {
                vb - va
            } else if va == 0.0 {
                0.0
            } else {
                match spec.better {
                    Better::Lower => vb / va - 1.0,
                    Better::Higher => 1.0 - vb / va,
                }
            };
            // A set-up of a few milliseconds moves by more than its share
            // bound on scheduler noise alone, so it also gets an absolute one.
            let within =
                worse <= spec.bound || (spec.name == "setup_s" && vb - va <= SETUP_SLACK_S);
            all_within &= within;
            writeln!(
                out,
                "{workload:<18} {:<36} A {va:>12.4}  B {vb:>12.4} {:<6}  B/A {:>7.4} (base A)  bound {:>4.1}%  {}",
                spec.name,
                spec.unit,
                if va == 0.0 { 1.0 } else { vb / va },
                100.0 * spec.bound,
                if within { "within" } else { "outside" },
            )?;
        }
    }
    Ok(all_within)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A report with one workload whose end-to-end metrics all read 1,
    /// except `failed_share` (0) and the overrides.
    fn doc(overrides: &[(&str, f64)]) -> Json {
        let e2e = Json::obj(END_TO_END.iter().map(|s| {
            let default = if s.name == FAILED_SHARE { 0.0 } else { 1.0 };
            let value = overrides
                .iter()
                .find(|(name, _)| *name == s.name)
                .map_or(default, |(_, v)| *v);
            (s.name, Json::obj([("value", Json::Num(value))]))
        }));
        Json::obj([(
            "timing",
            Json::obj([("w", Json::obj([("end_to_end", e2e)]))]),
        )])
    }

    fn within(a: &[(&str, f64)], b: &[(&str, f64)]) -> bool {
        let mut out = String::new();
        let ok = compare(&doc(a), &doc(b), &mut out).unwrap();
        assert_eq!(ok, !out.contains("outside"), "{out}");
        ok
    }

    #[test]
    fn small_moves_are_within_and_direction_matters() {
        // Both metrics carry a 25 % bound.
        let base = [("frames_per_s", 100.0), ("cpu_ms_per_frame", 10.0)];
        let moved = |fps, cpu| [("frames_per_s", fps), ("cpu_ms_per_frame", cpu)];
        assert!(within(&base, &moved(80.0, 12.0)), "20% worse is inside");
        assert!(within(&base, &moved(300.0, 2.0)), "better is never outside");
        assert!(!within(&base, &moved(70.0, 10.0)), "30% fewer frames/s");
        assert!(!within(&base, &moved(100.0, 13.0)), "30% more CPU");
    }

    #[test]
    fn setup_gets_an_absolute_slack_as_well() {
        assert!(
            within(&[("setup_s", 0.004)], &[("setup_s", 0.006)]),
            "+50% but 2 ms"
        );
        assert!(
            !within(&[("setup_s", 1.0)], &[("setup_s", 1.3)]),
            "+30% and 0.3 s"
        );
    }

    #[test]
    fn any_rise_in_failed_share_is_outside() {
        assert!(!within(&[], &[(FAILED_SHARE, 0.001)]));
        assert!(within(&[(FAILED_SHARE, 0.001)], &[]), "a fall is fine");
    }

    #[test]
    fn missing_sections_are_outside() {
        let mut out = String::new();
        let empty = Json::obj([("timing", Json::Obj(vec![]))]);
        assert!(!compare(&doc(&[]), &empty, &mut out).unwrap());
        assert!(!compare(&Json::Null, &doc(&[]), &mut out).unwrap());
    }
}
