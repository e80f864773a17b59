//! The parent side: one hermetic child process per workload and mode, the
//! driver-facing single run, the full `run`, and `check-repeat`.

use crate::child::trace_path;
use crate::spec::{E2eSpec, WorkloadSpec, E2E, LAYERS, WORKLOADS};
use crate::Res;
use spbc_trace::json::{escape, parse, Json};
use spbc_trace::JsonObj;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

/// Measuring time of one run when `--seconds` is not given; equals
/// `run_seconds` in `BENCHMARK.json`.
pub const DEFAULT_SECONDS: f64 = 24.0;
const SMOKE_SECONDS: f64 = 0.5;

/// glibc keeps freed memory instead of returning it to the OS and
/// re-faulting it: without these, page-fault storms from log and blob
/// memory swing wall time by +-25 % on this kind of sandbox. The mmap
/// threshold is glibc's largest accepted value (larger ones are ignored).
const MALLOC_ENV: [(&str, &str); 3] = [
    ("MALLOC_ARENA_MAX", "1"),
    ("MALLOC_TRIM_THRESHOLD_", "1073741824"),
    ("MALLOC_MMAP_THRESHOLD_", "33554432"),
];

/// `benchmark/out`, next to this package's manifest.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

pub struct RunOpts {
    pub seed: u64,
    pub seconds: Option<f64>,
    pub smoke: bool,
}

impl RunOpts {
    pub fn seconds(&self) -> f64 {
        self.seconds.unwrap_or(if self.smoke { SMOKE_SECONDS } else { DEFAULT_SECONDS })
    }
}

/// Run one workload in one mode in a child process of its own (fresh
/// allocator, own peak RSS) and parse the result document it prints.
pub fn run_child(w: &WorkloadSpec, trace: bool, opts: &RunOpts) -> Res<Json> {
    let mut cmd = Command::new(std::env::current_exe()?);
    cmd.arg("child")
        .args(["--workload", w.name])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds().to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if opts.smoke {
        cmd.arg("--smoke");
    }
    // `SpbcConfig::default()`, `Scale::from_env()` and the transport default
    // all read `SPBC_*`; none may leak into a measurement.
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("SPBC_") {
            cmd.env_remove(key);
        }
    }
    cmd.envs(MALLOC_ENV);
    let out = cmd.output()?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or("");
    let doc = parse(last).map_err(|e| {
        format!("child for {} (exit {:?}) printed no result: {e}", w.name, out.status.code())
    })?;
    if !out.status.success() && num(&doc, "ops_failed") == 0.0 {
        return Err(format!("child for {} exited {:?}", w.name, out.status.code()).into());
    }
    Ok(doc)
}

fn json_bool(b: bool) -> &'static str {
    if b {
        "true"
    } else {
        "false"
    }
}

fn num(doc: &Json, key: &str) -> f64 {
    doc.get(key).and_then(Json::as_num).unwrap_or(0.0)
}

fn failures(doc: &Json) -> Vec<String> {
    doc.get("failures")
        .and_then(Json::as_arr)
        .map(|a| a.iter().filter_map(Json::as_str).map(str::to_string).collect())
        .unwrap_or_default()
}

fn metric(doc: &Json, name: &str) -> Option<f64> {
    doc.get("metrics")?.get(name)?.get("value")?.as_num()
}

/// The one-line result of a driver run: exactly `correct`, `attempted`,
/// `failed`, `metrics`, with every metric of the mode's list.
fn driver_line(doc: &Json, names: &[&'static str]) -> Res<String> {
    let mut ms = JsonObj::new();
    for name in names {
        let v = metric(doc, name).ok_or_else(|| format!("child reported no {name}"))?;
        let mut m = JsonObj::new();
        m.field_f64("value", v).field_str("unit", crate::spec::unit_of(name).unwrap_or(""));
        ms.field_raw(name, &m.finish());
    }
    let failed = num(doc, "ops_failed") as u64;
    let mut line = JsonObj::new();
    line.field_raw("correct", json_bool(failed == 0))
        .field("attempted", (num(doc, "ops_attempted") as u64).max(1))
        .field("failed", failed)
        .field_raw("metrics", &ms.finish());
    Ok(line.finish())
}

/// The metric names `BENCHMARK.json` lists for a mode: with tracing off,
/// the end-to-end metrics every workload has; with tracing on, every
/// per-layer metric plus the end-to-end metrics only some workloads have.
pub fn driver_metric_names(trace: bool) -> Vec<&'static str> {
    if trace {
        LAYERS
            .iter()
            .map(|m| m.name)
            .chain(E2E.iter().filter(|m| !m.universal()).map(|m| m.name))
            .collect()
    } else {
        E2E.iter().filter(|m| m.universal()).map(|m| m.name).collect()
    }
}

/// `run --workload W --seed N --seconds S --trace T`: one child, one line.
/// Returns whether every operation succeeded.
pub fn run_single(w: &WorkloadSpec, trace: bool, opts: &RunOpts) -> Res<bool> {
    let doc = run_child(w, trace, opts)?;
    for f in failures(&doc) {
        eprintln!("FAILED: {f}");
    }
    println!("{}", driver_line(&doc, &driver_metric_names(trace))?);
    Ok(num(&doc, "ops_failed") == 0.0)
}

/// Facts about the machine and the tree a full run was made on.
fn environment() -> String {
    let read = |p: &str| std::fs::read_to_string(p).unwrap_or_default();
    let tool = |cmd: &str, args: &[&str]| {
        Command::new(cmd)
            .args(args)
            .stdin(Stdio::null())
            .stderr(Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map_or("unknown".to_string(), |o| {
                String::from_utf8_lossy(&o.stdout).trim().to_string()
            })
    };
    let out = out_dir();
    // The filesystem the on-disk layer drives write to: longest mount point
    // that prefixes the output directory.
    let fs = read("/proc/mounts")
        .lines()
        .filter_map(|l| {
            let mut f = l.split(' ');
            let (_, mount, kind) = (f.next()?, f.next()?, f.next()?);
            out.starts_with(mount).then(|| (mount.len(), kind.to_string()))
        })
        .max()
        .map_or("unknown".to_string(), |(_, kind)| kind);
    let mut o = JsonObj::new();
    o.field("nproc", std::thread::available_parallelism().map_or(0, |n| n.get()) as u64)
        .field_str("loadavg", read("/proc/loadavg").trim())
        .field_str("tmp_filesystem", &fs)
        .field_str("rustc", &tool("rustc", &["--version"]))
        .field_str("git_commit", &tool("git", &["rev-parse", "HEAD"]));
    o.finish()
}

/// Results of one full set: per workload, the end-to-end child's and the
/// traced child's documents.
pub struct FullSet {
    pub docs: Vec<(&'static WorkloadSpec, Json, Option<Json>)>,
}

impl FullSet {
    pub fn failed(&self) -> u64 {
        self.docs
            .iter()
            .map(|(_, e, t)| {
                num(e, "ops_failed") + t.as_ref().map_or(0.0, |t| num(t, "ops_failed"))
            })
            .sum::<f64>() as u64
    }

    pub fn e2e(&self, w: &WorkloadSpec, m: &E2eSpec) -> Option<f64> {
        let (_, doc, _) = self.docs.iter().find(|(d, _, _)| d.name == w.name)?;
        m.applies_to(w).then(|| metric(doc, m.name)).flatten()
    }
}

/// Run every workload, end to end and (unless `e2e_only`) traced.
pub fn run_set(opts: &RunOpts, e2e_only: bool) -> Res<FullSet> {
    let mut docs = Vec::new();
    for w in &WORKLOADS {
        eprintln!("spbc-perf: {} (end to end) ...", w.name);
        let e2e = run_child(w, false, opts)?;
        let traced = if e2e_only {
            None
        } else {
            eprintln!("spbc-perf: {} (traced, layer drives) ...", w.name);
            Some(run_child(w, true, opts)?)
        };
        docs.push((w, e2e, traced));
    }
    Ok(FullSet { docs })
}

fn raw(doc: &Json, key: &str) -> String {
    doc.get(key).map_or("null".to_string(), render_json)
}

/// Re-render a parsed value (the parser keeps no source text).
fn render_json(v: &Json) -> String {
    match v {
        Json::Null => "null".to_string(),
        Json::Bool(b) => b.to_string(),
        Json::Num(n) if n.is_finite() => n.to_string(),
        Json::Num(_) => "null".to_string(),
        Json::Str(s) => escape(s),
        Json::Arr(a) => format!("[{}]", a.iter().map(render_json).collect::<Vec<_>>().join(",")),
        Json::Obj(m) => {
            let mut o = JsonObj::new();
            for (k, v) in m {
                o.field_raw(k, &render_json(v));
            }
            o.finish()
        }
    }
}

fn print_metrics(doc: &Json, names: impl Iterator<Item = &'static str>) {
    for name in names {
        if let Some(v) = metric(doc, name) {
            let unit = crate::spec::unit_of(name).unwrap_or("");
            let spread = doc
                .get("summaries")
                .and_then(|s| s.get(name))
                .map(|s| {
                    format!(
                        "  [q1 {:.4} q3 {:.4} min {:.4} max {:.4} n {}]",
                        num(s, "q1"),
                        num(s, "q3"),
                        num(s, "min"),
                        num(s, "max"),
                        num(s, "n")
                    )
                })
                .unwrap_or_default();
            println!("  {name:<46} {v:>14.4} {unit}{spread}");
        }
    }
}

/// `run [--seed N] [--smoke]`: all four workloads, every metric by name
/// with its unit, `out/result.json`, one Chrome trace per workload.
pub fn run_full(opts: &RunOpts) -> Res<bool> {
    let env = environment();
    let set = run_set(opts, false)?;
    let mut workloads = JsonObj::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    for (w, e2e, traced) in &set.docs {
        let traced = traced.as_ref().expect("full set");
        println!("\n== {} — {}", w.name, w.why);
        println!(
            " end to end ({} timed SPBC reps):",
            num(e2e.get("summaries").and_then(|s| s.get("wall_s")).unwrap_or(&Json::Null), "n")
        );
        print_metrics(e2e, E2E.iter().filter(|m| m.applies_to(w)).map(|m| m.name));
        println!(" per layer (traced run):");
        print_metrics(traced, LAYERS.iter().map(|m| m.name));
        println!(" span self times, ms (trace: {}):", trace_path(&out_dir(), w.name).display());
        if let Some(Json::Obj(times)) = traced.get("self_times_ms") {
            for (name, ms) in times {
                println!("  {name:<46} {:>14.3} ms", ms.as_num().unwrap_or(0.0));
            }
        }
        let ops = |key| (num(e2e, key) + num(traced, key)) as u64;
        attempted += ops("ops_attempted");
        failed += ops("ops_failed");
        for doc in [e2e, traced] {
            for f in failures(doc) {
                println!(" FAILED: {f}");
            }
            let flagged = num(doc, "flagged_reps");
            if flagged > 0.0 {
                println!(" note: {flagged} timed rep(s) had more than 1 % of the cold rep's minor faults");
            }
        }
        let mut o = JsonObj::new();
        o.field_str("why", w.why)
            .field_raw("sizes", &raw(e2e, "sizes"))
            .field("ops_attempted", ops("ops_attempted"))
            .field("ops_failed", ops("ops_failed"))
            .field_raw("end_to_end", &raw(e2e, "metrics"))
            .field_raw("end_to_end_summaries", &raw(e2e, "summaries"))
            .field_raw("end_to_end_reps", &raw(e2e, "reps"))
            .field_raw("per_layer", &raw(traced, "metrics"))
            .field_raw("per_layer_self_times_ms", &raw(traced, "self_times_ms"))
            .field_raw("traced_reps", &raw(traced, "reps"));
        workloads.field_raw(w.name, &o.finish());
    }
    println!("\nops_attempted = {attempted}, ops_failed = {failed}");
    let mut doc = JsonObj::new();
    doc.field("seed", opts.seed)
        .field_raw("smoke", json_bool(opts.smoke))
        .field_f64("seconds", opts.seconds())
        .field_raw("environment", &env)
        .field("ops_attempted", attempted)
        .field("ops_failed", failed)
        .field_raw("workloads", &workloads.finish());
    let path = out_dir().join("result.json");
    std::fs::create_dir_all(out_dir())?;
    std::fs::write(&path, doc.finish() + "\n")?;
    println!("wrote {}", path.display());
    Ok(failed == 0)
}

/// `check-repeat`: two full end-to-end sets back to back; every metric of
/// every workload must agree within its bound.
pub fn check_repeat(opts: &RunOpts) -> Res<bool> {
    let a = run_set(opts, true)?;
    let b = run_set(opts, true)?;
    let mut rows = Vec::new();
    let mut ok = a.failed() + b.failed() == 0;
    println!(
        "{:<11} {:<20} {:>12} {:>12} {:>8} {:>6}  verdict",
        "workload", "metric", "set A", "set B", "delta %", "bound"
    );
    for w in &WORKLOADS {
        for m in &E2E {
            let (Some(va), Some(vb)) = (a.e2e(w, m), b.e2e(w, m)) else { continue };
            // Every end-to-end metric is lower-is-better: B may not be
            // worse than A by more than the bound, nor A than B.
            let delta = (vb - va) / va.abs().max(1e-12);
            let within = delta.abs() <= m.bound;
            ok &= within;
            let verdict = if within { "ok" } else { "UNRESOLVED" };
            println!(
                "{:<11} {:<20} {va:>12.4} {vb:>12.4} {:>8.2} {:>6.0}  {verdict}",
                w.name,
                m.name,
                delta * 100.0,
                m.bound * 100.0
            );
            let mut o = JsonObj::new();
            o.field_str("workload", w.name)
                .field_str("metric", m.name)
                .field_str("unit", m.unit)
                .field_f64("a", va)
                .field_f64("b", vb)
                .field_f64("delta_pct", delta * 100.0)
                .field_f64("bound_pct", m.bound * 100.0)
                .field_raw("ok", json_bool(within));
            rows.push(o.finish());
        }
    }
    let mut doc = JsonObj::new();
    doc.field("seed", opts.seed)
        .field_f64("seconds", opts.seconds())
        .field_raw("environment", &environment())
        .field("ops_failed", a.failed() + b.failed())
        .field_raw("ok", json_bool(ok))
        .field_raw("rows", &format!("[{}]", rows.join(",")));
    std::fs::create_dir_all(out_dir())?;
    let path = out_dir().join("repeat.json");
    std::fs::write(&path, doc.finish() + "\n")?;
    println!("wrote {}", path.display());
    Ok(ok)
}

/// The contents of `BENCHMARK.json`, from the spec tables.
pub fn benchmark_json() -> String {
    let list = |items: Vec<String>| format!("[\n    {}\n  ]", items.join(",\n    "));
    let workloads = WORKLOADS
        .iter()
        .map(|w| {
            let mut o = JsonObj::new();
            o.field_str("name", w.name).field_str("why", w.why);
            o.finish()
        })
        .collect();
    let end_to_end = E2E
        .iter()
        .filter(|m| m.universal())
        .map(|m| {
            let mut o = JsonObj::new();
            o.field_str("name", m.name)
                .field_str("unit", m.unit)
                .field_str("better", m.better.as_str())
                .field_f64("bound", m.bound);
            o.finish()
        })
        .collect();
    let per_layer = LAYERS
        .iter()
        .map(|m| (m.name, m.unit, m.better))
        .chain(E2E.iter().filter(|m| !m.universal()).map(|m| (m.name, m.unit, m.better)))
        .map(|(name, unit, better)| {
            let mut o = JsonObj::new();
            o.field_str("name", name).field_str("unit", unit).field_str("better", better.as_str());
            o.finish()
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\", \"run\"],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {},\n  \"workloads\": {},\n  \"end_to_end\": {},\n  \"per_layer\": {}\n}}\n",
        DEFAULT_SECONDS as u64,
        list(workloads),
        list(end_to_end),
        list(per_layer)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_writer_round_trips() {
        let src = r#"{"a":[1,2.5,-3],"b":{"s":"x\ny \"q\"","t":true,"n":null},"c":0.1}"#;
        let v = parse(src).unwrap();
        assert_eq!(parse(&render_json(&v)).unwrap(), v);
        let n = parse(&render_json(&Json::Num(1234.567891234))).unwrap();
        assert_eq!(n.as_num(), Some(1234.567891234));
    }

    #[test]
    fn driver_line_has_exactly_the_contract_keys() {
        let names = driver_metric_names(false);
        let mut ms = JsonObj::new();
        for n in &names {
            ms.field_raw(n, r#"{"value":1.5,"unit":"x"}"#);
        }
        let mut doc = JsonObj::new();
        doc.field("ops_attempted", 9).field("ops_failed", 0).field_raw("metrics", &ms.finish());
        let line = driver_line(&parse(&doc.finish()).unwrap(), &names).unwrap();
        let v = parse(&line).unwrap();
        let Json::Obj(map) = &v else { panic!("object") };
        let keys: Vec<&str> = map.keys().map(String::as_str).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(v.get("correct"), Some(&Json::Bool(true)));
        let Json::Obj(metrics) = v.get("metrics").unwrap() else { panic!("object") };
        assert_eq!(metrics.len(), names.len());
        assert!(names.contains(&"setup_s"));
        // A missing metric is an error, not a silent omission.
        assert!(driver_line(&parse(r#"{"metrics":{}}"#).unwrap(), &names).is_err());
    }

    #[test]
    fn benchmark_json_is_what_the_repository_commits() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        assert_eq!(std::fs::read_to_string(path).unwrap(), benchmark_json());
        let doc = parse(&benchmark_json()).unwrap();
        let layers = doc.get("per_layer").and_then(Json::as_arr).unwrap();
        assert_eq!(layers.len(), driver_metric_names(true).len());
    }
}
