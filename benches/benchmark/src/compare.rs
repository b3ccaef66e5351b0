//! `benchmark compare A/ B/`: two sets of runs, metric by metric.
//!
//! For every workload and end-to-end metric it prints each side's
//! quartiles and a verdict against the metric's bound in
//! `BENCHMARK.json`:
//!
//! * `unresolved` — A's own quartile spread is wider than the bound, and
//!   not every B run reads better than every A run (then `better`);
//! * `worse` — B's median is worse than A's by more than the bound;
//! * `better` — B's median beats A's by more than A's quartile spread,
//!   and B wins at least nine in ten of at least ten pairs of runs of
//!   the same seed (the rule a claimed gain must meet);
//! * `same` — otherwise.
//!
//! A rise in the share of failed units is a regression whatever the
//! timings say. The command fails when any verdict is `worse`. Traced
//! runs add their per-layer medians, without verdicts.

use std::collections::BTreeMap;
use std::path::Path;

use crate::json::{self, Json, JsonExt};
use crate::stats::{median, quartiles};
use crate::WORKLOADS;

/// One end-to-end metric as `BENCHMARK.json` declares it.
struct Spec {
    name: String,
    higher_better: bool,
    bound: f64,
}

/// One run record from `results.jsonl`.
struct Run {
    workload: String,
    seed: u64,
    trace: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, f64>,
}

fn load_spec(path: &Path) -> Result<Vec<Spec>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = json::parse(&text)?;
    let metrics = doc
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    metrics
        .iter()
        .map(|m| {
            Ok(Spec {
                name: m
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or("metric without a name")?
                    .into(),
                higher_better: m.get("better").and_then(Json::as_str) == Some("higher"),
                bound: m
                    .get("bound")
                    .and_then(Json::as_f64)
                    .ok_or("metric without a bound")?,
            })
        })
        .collect()
}

fn load_runs(dir: &Path) -> Result<Vec<Run>, String> {
    let path = dir.join("results.jsonl");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| {
            let rec = json::parse(l)?;
            let result = rec.get("result").ok_or("record without a result")?;
            let metrics = match result.get("metrics") {
                Some(Json::Obj(m)) => m
                    .iter()
                    .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
                    .collect(),
                _ => BTreeMap::new(),
            };
            Ok(Run {
                workload: rec
                    .get("workload")
                    .and_then(Json::as_str)
                    .unwrap_or_default()
                    .into(),
                seed: rec.get("seed").and_then(Json::as_u64).unwrap_or_default(),
                trace: rec.get("trace") == Some(&Json::Bool(true)),
                attempted: result
                    .get("attempted")
                    .and_then(Json::as_u64)
                    .unwrap_or_default(),
                failed: result
                    .get("failed")
                    .and_then(Json::as_u64)
                    .unwrap_or_default(),
                metrics,
            })
        })
        .collect()
}

/// The runs of workload `w`, traced or not.
fn side<'r>(runs: &'r [Run], w: &str, trace: bool) -> Vec<&'r Run> {
    runs.iter()
        .filter(|r| r.workload == w && r.trace == trace)
        .collect()
}

/// Pairs runs of equal seed, in order of appearance.
fn pairs(a: &[&Run], b: &[&Run], metric: &str) -> Vec<(f64, f64)> {
    let mut used = vec![false; b.len()];
    let mut out = Vec::new();
    for ra in a {
        if let Some(j) = (0..b.len()).find(|&j| !used[j] && b[j].seed == ra.seed) {
            used[j] = true;
            if let (Some(&x), Some(&y)) = (ra.metrics.get(metric), b[j].metrics.get(metric)) {
                out.push((x, y));
            }
        }
    }
    out
}

/// The verdict of B against A (see the module docs).
fn verdict(a: &[f64], b: &[f64], pairs: &[(f64, f64)], spec: &Spec) -> &'static str {
    let better = |new: f64, old: f64| {
        if spec.higher_better {
            new > old
        } else {
            new < old
        }
    };
    let (aq1, am, aq3) = quartiles(a);
    let bm = median(b);
    let spread = aq3 - aq1;
    let gain = if spec.higher_better { bm - am } else { am - bm };
    let all_better = a.iter().all(|&x| b.iter().all(|&y| better(y, x)));
    if am == 0.0 || spread / am.abs() > spec.bound {
        return if all_better && !a.is_empty() && !b.is_empty() {
            "better"
        } else {
            "unresolved"
        };
    }
    if -gain / am.abs() > spec.bound {
        return "worse";
    }
    let wins = pairs.iter().filter(|&&(x, y)| better(y, x)).count();
    if gain > spread && pairs.len() >= 10 && wins * 10 >= pairs.len() * 9 {
        "better"
    } else {
        "same"
    }
}

fn fmt_q(v: &[f64]) -> String {
    let (q1, m, q3) = quartiles(v);
    format!("{m:.6e} [{q1:.4e}..{q3:.4e}] n={}", v.len())
}

/// `benchmark compare A/ B/ [--spec BENCHMARK.json]`.
///
/// # Errors
///
/// Unreadable inputs, or a regression: a `worse` verdict or a rise in
/// the share of failed units.
pub fn cmd_compare(args: &[String]) -> Result<(), String> {
    let mut dirs = Vec::new();
    let mut spec_path = "BENCHMARK.json".to_string();
    let mut i = 0;
    while i < args.len() {
        if args[i] == "--spec" {
            spec_path = args.get(i + 1).cloned().ok_or("--spec needs a path")?;
            i += 2;
        } else {
            dirs.push(args[i].clone());
            i += 1;
        }
    }
    let [a_dir, b_dir] = dirs.as_slice() else {
        return Err("compare needs two result directories".into());
    };
    let specs = load_spec(Path::new(&spec_path))?;
    let (ra, rb) = (load_runs(Path::new(a_dir))?, load_runs(Path::new(b_dir))?);
    let mut regressions = Vec::new();
    for w in WORKLOADS {
        let (a, b) = (side(&ra, w, false), side(&rb, w, false));
        if !a.is_empty() || !b.is_empty() {
            let frac = |runs: &[&Run]| {
                let att: u64 = runs.iter().map(|r| r.attempted).sum();
                runs.iter().map(|r| r.failed).sum::<u64>() as f64 / att.max(1) as f64
            };
            let (fa, fb) = (frac(&a), frac(&b));
            let failed_verdict = if fb > fa { "worse" } else { "same" };
            println!("{w}: failed share A {fa} B {fb} {failed_verdict}");
            if fb > fa {
                regressions.push(format!("{w} failed share"));
            }
            for spec in &specs {
                let vals = |runs: &[&Run]| {
                    runs.iter()
                        .filter_map(|r| r.metrics.get(&spec.name).copied())
                        .collect::<Vec<_>>()
                };
                let (va, vb) = (vals(&a), vals(&b));
                let v = verdict(&va, &vb, &pairs(&a, &b, &spec.name), spec);
                let delta = 100.0 * (median(&vb) / median(&va) - 1.0);
                println!(
                    "  {:<18} A {}  B {}  {delta:+.1}%  {v}",
                    spec.name,
                    fmt_q(&va),
                    fmt_q(&vb)
                );
                if v == "worse" {
                    regressions.push(format!("{w} {}", spec.name));
                }
            }
        }
        let (ta, tb) = (side(&ra, w, true), side(&rb, w, true));
        if !ta.is_empty() && !tb.is_empty() {
            println!(
                "  per-layer medians (traced runs A n={}, B n={}):",
                ta.len(),
                tb.len()
            );
            for (name, _) in crate::per_layer() {
                let med = |runs: &[&Run]| {
                    median(
                        &runs
                            .iter()
                            .filter_map(|r| r.metrics.get(&name).copied())
                            .collect::<Vec<_>>(),
                    )
                };
                let (ma, mb) = (med(&ta), med(&tb));
                if ma != 0.0 || mb != 0.0 {
                    println!("    {name:<46} A {ma:.6e}  B {mb:.6e}");
                }
            }
        }
    }
    if regressions.is_empty() {
        Ok(())
    } else {
        Err(format!("regressions: {}", regressions.join(", ")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(higher_better: bool, bound: f64) -> Spec {
        Spec {
            name: "m".into(),
            higher_better,
            bound,
        }
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        let s = spec(true, 0.1);
        assert_eq!(verdict(&a, &a, &[], &s), "same");
        assert_eq!(verdict(&a, &[80.0, 81.0, 79.0], &[], &s), "worse");
        // A gain needs ten paired runs, however clear the medians are.
        assert_eq!(verdict(&a, &[110.0, 111.0, 109.0], &[], &s), "same");
        // Lower is better: a 20 % rise is worse.
        assert_eq!(
            verdict(&a, &[120.0, 121.0], &[], &spec(false, 0.1)),
            "worse"
        );
        // A spread wider than the bound cannot call "same" or "worse".
        let noisy = [50.0, 100.0, 150.0, 75.0, 125.0];
        assert_eq!(verdict(&noisy, &[60.0, 70.0], &[], &s), "unresolved");
        assert_eq!(verdict(&noisy, &[200.0, 210.0], &[], &s), "better");
    }

    #[test]
    fn paired_runs_need_nine_wins_in_ten() {
        let a = [100.0; 10];
        let b = [110.0; 10];
        let mut p: Vec<(f64, f64)> = a.iter().copied().zip(b).collect();
        assert_eq!(verdict(&a, &b, &p, &spec(true, 0.2)), "better");
        p[0].1 = 90.0;
        p[1].1 = 90.0;
        assert_eq!(verdict(&a, &b, &p, &spec(true, 0.2)), "same");
    }
}
