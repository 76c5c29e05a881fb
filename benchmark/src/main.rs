//! The repository benchmark.
//!
//! `--workload NAME --seed N --seconds S --trace 0|1` runs one workload and
//! prints, as the last line of standard output, one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! of `BENCHMARK.json` for `--trace 0`, its per-layer metrics for
//! `--trace 1`. Without `--workload`, every workload runs in a process of
//! its own and the results go to a `kplock-benchmark/v1` file that
//! `--compare` reads. `README.md` beside this package has the details.

mod compare;
mod harness;
mod json;
mod layers;
mod spec;
mod stats;
mod trace;
mod workloads;
mod yardstick;

use harness::{run_workload, RunConfig, RunResult, Scale};
use json::Json;
use spec::{MetricSpec, Spec};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

/// Schema tag of the result files.
pub const RESULT_SCHEMA: &str = "kplock-benchmark/v1";

const USAGE: &str = "\
usage: kplock-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
                        [--smoke] [--out DIR]
       kplock-benchmark --compare A.json B.json

  --workload NAME  run one workload and print the driver's result line;
                   without it, run every workload, each in its own process,
                   and write DIR/result-seed<N>.json
  --seed N         inputs are generated from N alone (default 1)
  --seconds S      how long the timed passes run (default: BENCHMARK.json's
                   run_seconds)
  --trace 0|1      1 adds a traced pass and the reference arms and reports
                   the per-layer metrics; spans go to DIR/trace-<NAME>.jsonl
  --smoke          every workload at a fiftieth of its size, one pass
  --out DIR        where result and trace files go (default benchmark/out)
  --compare A B    B against A: fails when an end-to-end metric is worse
                   beyond its bound or an exact count differs under one seed";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    out: PathBuf,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        smoke: false,
        out: PathBuf::from("benchmark/out"),
        compare: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?.clone()),
            "--seed" => {
                args.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes a whole number")?;
            }
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err("--seconds must be zero or more".into());
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--smoke" => args.smoke = true,
            "--out" => args.out = PathBuf::from(value()?),
            "--compare" => args.compare = Some((value()?.into(), value()?.into())),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

fn metric_json(m: &MetricSpec, value: f64) -> (String, Json) {
    (
        m.name.clone(),
        Json::obj([("value", Json::Num(value)), ("unit", Json::str(&m.unit))]),
    )
}

/// The metrics object of a run: every end-to-end metric of an untraced
/// run, every per-layer metric of a traced one. A layer the workload never
/// calls reads 0.
fn metrics_json(spec: &Spec, result: &RunResult, trace: bool) -> Result<Json, String> {
    let listed = if trace {
        &spec.per_layer
    } else {
        &spec.end_to_end
    };
    if let Some(stray) = result
        .metrics
        .keys()
        .find(|k| !listed.iter().any(|m| &m.name == *k))
    {
        return Err(format!("metric {stray:?} is not listed in BENCHMARK.json"));
    }
    let mut pairs = Vec::new();
    for m in listed {
        let value = match result.metrics.get(&m.name) {
            Some(&v) if v.is_finite() => v,
            Some(v) => return Err(format!("metric {} is {v}", m.name)),
            None if trace => 0.0,
            None => return Err(format!("end-to-end metric {} was not measured", m.name)),
        };
        pairs.push(metric_json(m, value));
    }
    Ok(Json::Obj(pairs))
}

/// The result line the driver reads.
fn result_line(spec: &Spec, result: &RunResult, trace: bool) -> Result<String, String> {
    Ok(Json::obj([
        ("correct", Json::Bool(result.correct)),
        ("attempted", Json::Num(result.attempted as f64)),
        ("failed", Json::Num(result.failed as f64)),
        ("metrics", metrics_json(spec, result, trace)?),
    ])
    .to_line())
}

/// One workload, for the driver. A wrong output is a result, not a crash:
/// the line says `"correct": false` and the exit code stays 0.
fn run_one(spec: &Spec, args: &Args, workload: &str) -> Result<(), String> {
    if !spec.workloads.iter().any(|w| w == workload) {
        return Err(format!(
            "unknown workload {workload:?}; BENCHMARK.json lists {}",
            spec.workloads.join(", ")
        ));
    }
    let cfg = RunConfig {
        workload: workload.to_string(),
        seed: args.seed,
        seconds: args
            .seconds
            .unwrap_or(if args.smoke { 0.0 } else { spec.run_seconds }),
        trace: args.trace,
        scale: if args.smoke {
            Scale::SMOKE
        } else {
            Scale::FULL
        },
        out_dir: args.trace.then(|| args.out.clone()),
    };
    let result = run_workload(&cfg)?;
    eprintln!(
        "{workload}: seed {} — {} calls a pass, {} timed passes, {} of {} calls failed",
        cfg.seed, result.calls, result.passes, result.failed, result.attempted
    );
    println!("{}", result_line(spec, &result, cfg.trace)?);
    Ok(())
}

/// Runs `workload` in a child process and parses its result line.
fn run_child(args: &Args, workload: &str, trace: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &args.seed.to_string()]);
    cmd.args(["--trace", if trace { "1" } else { "0" }]);
    cmd.arg("--out").arg(&args.out);
    if let Some(s) = args.seconds {
        cmd.args(["--seconds", &s.to_string()]);
    }
    if args.smoke {
        cmd.arg("--smoke");
    }
    // The child's stderr (failed calls, progress) goes straight through.
    let output = cmd
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().unwrap_or_default();
    if !output.status.success() && line.is_empty() {
        return Err(format!("{workload} exited with {}", output.status));
    }
    Json::parse(line).map_err(|e| format!("{workload}: result line: {e}"))
}

fn git_revision() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Every workload, one child process at a time (so `peak_rss_mb` is per
/// workload), then the result file. `Ok(false)` when any output was wrong.
fn run_all(spec: &Spec, args: &Args) -> Result<bool, String> {
    let mut all_correct = true;
    let mut workloads = Vec::new();
    for name in &spec.workloads {
        let untraced = run_child(args, name, false)?;
        let field = |key: &str| {
            let value = untraced.get(key).cloned().unwrap_or(Json::Null);
            (key.to_string(), value)
        };
        let mut entry = vec![
            field("correct"),
            field("attempted"),
            field("failed"),
            (
                "end_to_end".to_string(),
                untraced.get("metrics").cloned().unwrap_or(Json::Null),
            ),
        ];
        let mut correct = untraced.get("correct").and_then(Json::as_bool) == Some(true);
        if args.trace {
            let traced = run_child(args, name, true)?;
            correct &= traced.get("correct").and_then(Json::as_bool) == Some(true);
            entry.push((
                "per_layer".to_string(),
                traced.get("metrics").cloned().unwrap_or(Json::Null),
            ));
        }
        all_correct &= correct;
        let entry = Json::Obj(entry);
        for group in ["end_to_end", "per_layer"] {
            for (metric, v) in entry.get(group).and_then(Json::as_obj).unwrap_or_default() {
                let value = v.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
                let unit = v.get("unit").and_then(Json::as_str).unwrap_or("?");
                println!("{name:<14} {metric:<46} {value:>18.4} {unit}");
            }
        }
        println!(
            "{name:<14} {}",
            if correct { "correct" } else { "INCORRECT" }
        );
        workloads.push((name.clone(), entry));
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let doc = Json::obj([
        ("schema", Json::str(RESULT_SCHEMA)),
        ("seed", Json::Num(args.seed as f64)),
        (
            "seconds",
            Json::Num(args.seconds.unwrap_or(spec.run_seconds)),
        ),
        ("smoke", Json::Bool(args.smoke)),
        ("nproc", Json::Num(nproc as f64)),
        ("git_revision", Json::str(git_revision())),
        ("workloads", Json::Obj(workloads)),
    ]);
    let path = args.out.join(format!("result-seed{}.json", args.seed));
    std::fs::create_dir_all(&args.out)
        .and_then(|()| std::fs::write(&path, doc.to_pretty()))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("results written to {}", path.display());
    Ok(all_correct)
}

fn read_json(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn real_main() -> Result<bool, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return Ok(true);
    }
    let args = parse_args(&argv).map_err(|e| format!("{e}\n{USAGE}"))?;
    let spec = Spec::load();
    if let Some((a, b)) = &args.compare {
        let (report, pass) = compare::compare(&spec, &read_json(a)?, &read_json(b)?)?;
        print!("{report}");
        println!("{}", if pass { "PASS" } else { "FAIL" });
        return Ok(pass);
    }
    match &args.workload {
        Some(workload) => run_one(&spec, &args, workload).map(|()| true),
        None => run_all(&spec, &args),
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("kplock-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_drivers_arguments() {
        let a = parse_args(&argv("--workload sim_hot --seed 7 --seconds 10 --trace 1")).unwrap();
        assert_eq!(a.workload.as_deref(), Some("sim_hot"));
        assert_eq!(
            (a.seed, a.seconds, a.trace, a.smoke),
            (7, Some(10.0), true, false)
        );
        let a = parse_args(&argv("--compare a.json b.json")).unwrap();
        assert_eq!(a.compare, Some(("a.json".into(), "b.json".into())));
        for bad in [
            "--seed",
            "--seed x",
            "--trace 2",
            "--seconds -1",
            "--frobnicate",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }

    /// Every workload at smoke size, untraced and traced: each run must be
    /// correct and must emit exactly the names `BENCHMARK.json` lists.
    #[test]
    fn smoke_emits_every_listed_metric() {
        let spec = Spec::load();
        let started = std::time::Instant::now();
        for workload in &spec.workloads {
            for trace in [false, true] {
                let cfg = RunConfig {
                    workload: workload.clone(),
                    seed: 3,
                    seconds: 0.0,
                    trace,
                    scale: Scale::SMOKE,
                    out_dir: None,
                };
                let result = run_workload(&cfg).unwrap_or_else(|e| panic!("{workload}: {e}"));
                assert!(
                    result.correct,
                    "{workload} trace={trace}: {} failed",
                    result.failed
                );
                assert!(result.attempted >= 1);
                let line = result_line(&spec, &result, trace)
                    .unwrap_or_else(|e| panic!("{workload} trace={trace}: {e}"));
                let parsed = Json::parse(&line).unwrap();
                let names: Vec<&str> = parsed
                    .get("metrics")
                    .and_then(Json::as_obj)
                    .unwrap()
                    .iter()
                    .map(|(k, _)| k.as_str())
                    .collect();
                let listed = if trace {
                    &spec.per_layer
                } else {
                    &spec.end_to_end
                };
                let expected: Vec<&str> = listed.iter().map(|m| m.name.as_str()).collect();
                assert_eq!(names, expected, "{workload} trace={trace}");
                if !trace {
                    // End-to-end metrics are never 0.
                    for (k, v) in parsed.get("metrics").and_then(Json::as_obj).unwrap() {
                        let value = v.get("value").and_then(Json::as_f64).unwrap();
                        assert!(value > 0.0, "{workload}: {k} = {value}");
                    }
                }
            }
        }
        assert!(
            started.elapsed().as_secs() < 10,
            "smoke took {:?}",
            started.elapsed()
        );
    }

    /// Every per-layer metric is produced by at least one workload, and the
    /// layer/workload separation the workloads exist for holds.
    #[test]
    fn every_layer_metric_has_a_workload_and_layers_stay_apart() {
        let spec = Spec::load();
        let mut seen = std::collections::BTreeSet::new();
        let mut by_workload = std::collections::BTreeMap::new();
        for workload in &spec.workloads {
            let cfg = RunConfig {
                workload: workload.clone(),
                seed: 5,
                seconds: 0.0,
                trace: true,
                scale: Scale::SMOKE,
                out_dir: None,
            };
            let result = run_workload(&cfg).unwrap_or_else(|e| panic!("{workload}: {e}"));
            seen.extend(result.metrics.keys().cloned());
            by_workload.insert(workload.clone(), result.metrics);
        }
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        for m in &spec.per_layer {
            // The threaded runner needs a second core.
            if threads < 2 && m.name.starts_with("sim.threaded.") {
                continue;
            }
            assert!(seen.contains(&m.name), "no workload produces {}", m.name);
        }
        let get = |w: &str, m: &str| by_workload[w].get(m).copied().unwrap_or(0.0);
        for w in &spec.workloads {
            let slowdowns =
                get(w, "sim.engine.audit_slowdown.hot") + get(w, "sim.engine.audit_slowdown.scan");
            assert_eq!(slowdowns > 0.0, w == "sim_audit", "{w}");
            assert_eq!(
                get(w, "sim.engine.cache_hit_share") > 0.0,
                w == "sim_deleg",
                "{w}"
            );
            assert_eq!(
                get(w, "core.sat_check.vars") > 0.0,
                w == "analysis_sat",
                "{w}"
            );
        }
        assert!(get("sim_hot", "aborts_per_commit") > 2.0);
        assert!(get("sim_open", "aborts_per_commit") < 0.05);
        assert!(get("sim_scan", "aborts_per_commit") < 0.05);
    }
}
