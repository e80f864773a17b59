//! The measuring process: one workload, one mode (end-to-end or traced),
//! one JSON result on the last line of standard output.
//!
//! The runner starts this process with the allocator told to keep freed
//! memory and every `SPBC_*` variable removed (see `runner`).

use crate::layers::fresh_dir;
use crate::layers::{self, Checks, Drive};
use crate::procstat;
use crate::spans::{splice_into_chrome_trace, Spans};
use crate::spec::{WorkloadSpec, CKPT_STORE, E2E, LAYERS, LAYER_OPS, SMOKE_LAYER_OPS};
use crate::stats::{median, summarize};
use crate::workloads::{build, check, run_native, run_spbc, run_spbc_with, Built, Rep};
use crate::Res;
use mini_mpi::types::RankId;
use spbc_core::{MetricsSnapshot, Phase};
use spbc_trace::JsonObj;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Set-ups per end-to-end run; `setup_s` is their median.
const SETUPS: usize = 3;
/// A warm-up rep runs this fraction of the workload's iterations (same
/// number of checkpoint waves, same failure shape).
const WARMUP_DIVISOR: u64 = 4;
/// Timed pairs (triples when traced) never number fewer than this.
const MIN_ROUNDS: usize = 3;

pub struct ChildArgs {
    pub spec: WorkloadSpec,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    /// `benchmark/out`: traces and the layer drives' scratch directory go
    /// here.
    pub out_dir: PathBuf,
    /// When the process started.
    pub started: Instant,
}

/// Samples and bookkeeping of one run.
struct Run<'a> {
    args: &'a ChildArgs,
    spans: Spans,
    attempted: u64,
    failures: Vec<String>,
    /// Per-series samples (seconds, ratios, ...), one per rep.
    samples: BTreeMap<&'static str, Vec<f64>>,
    reps: Vec<String>,
    /// Minor faults of the first (cold) SPBC rep: later reps with more than
    /// 1 % of it are flagged.
    cold_faults: Option<u64>,
    flagged: u64,
}

impl Run<'_> {
    fn push(&mut self, series: &'static str, v: f64) {
        self.samples.entry(series).or_default().push(v);
    }

    /// Median of a series (0 when it has no sample).
    fn median_of(&self, series: &str) -> f64 {
        self.samples.get(series).map_or(0.0, |v| median(v))
    }

    /// Count one rep as an operation, record its accounting, and hand it
    /// back if it ran.
    fn account(&mut self, kind: &'static str, timed: bool, rep: Res<Rep>) -> Option<Rep> {
        self.attempted += 1;
        let rep = match rep {
            Ok(rep) => rep,
            Err(e) => {
                self.failures.push(format!("{} {kind} rep errored: {e}", self.args.spec.name));
                return None;
            }
        };
        let faults = rep.usage.minor_faults;
        let mut flagged = false;
        if kind != "native" {
            match self.cold_faults {
                None => self.cold_faults = Some(faults),
                Some(cold) if timed && faults * 100 > cold => {
                    flagged = true;
                    self.flagged += 1;
                }
                Some(_) => {}
            }
        }
        let mut o = JsonObj::new();
        o.field_str("kind", kind)
            .field("timed", u64::from(timed))
            .field_f64("wall_s", rep.wall_s())
            .field_f64("cpu_s", rep.usage.cpu_s)
            .field_f64("cpu_user_s", rep.usage.user_s)
            .field_f64("cpu_sys_s", rep.usage.sys_s)
            .field("minor_faults", faults)
            .field("flagged", u64::from(flagged));
        self.reps.push(o.finish());
        Some(rep)
    }

    /// Check an SPBC rep against the native reference outputs.
    fn verify(&mut self, b: &Built, reference: &Rep, rep: &Rep, what: &str) {
        if let Some(why) = check(b, &reference.report, &rep.report) {
            self.failures.push(format!("{} {what}: {why}", b.spec.name));
        }
    }
}

/// The checkpoint phases a rank passes through in one wave.
const WAVE_PHASES: [(Phase, &str); 7] = [
    (Phase::Quiesce, "core.protocol.quiesce_ms"),
    (Phase::Encode, "core.protocol.encode_ms"),
    (Phase::Admission, "core.protocol.admission_ms"),
    (Phase::Write, "core.protocol.write_ms"),
    (Phase::Fsync, "core.protocol.fsync_ms"),
    (Phase::Replicate, "core.protocol.replicate_ms"),
    (Phase::CommitBarrier, "core.protocol.commit_barrier_ms"),
];

const RESTORE_PHASES: [(Phase, &str); 3] = [
    (Phase::RestoreLoad, "core.protocol.restore_load_ms"),
    (Phase::RestoreMaterialize, "core.protocol.restore_materialize_ms"),
    (Phase::RestoreReplay, "core.protocol.restore_replay_ms"),
];

/// Mean milliseconds a rank spends in `phase` per checkpoint it takes.
fn phase_ms_per_wave(m: &MetricsSnapshot, phase: Phase) -> f64 {
    m.phases.get(phase).sum as f64 / 1e3 / m.checkpoints.max(1) as f64
}

/// Mean milliseconds per occurrence of a restore phase (0 when none ran).
fn phase_ms_mean(m: &MetricsSnapshot, phase: Phase) -> f64 {
    let h = m.phases.get(phase);
    h.sum as f64 / 1e3 / h.count().max(1) as f64
}

fn ratio(num: u64, den: u64) -> f64 {
    num as f64 / den.max(1) as f64
}

/// One timed rep under a span named after its kind, counted as an operation.
fn timed_rep(run: &mut Run<'_>, kind: &'static str, rep: impl FnOnce() -> Res<Rep>) -> Option<Rep> {
    let id = run.spans.enter(&format!("rep.{kind}"));
    let rep = rep();
    run.spans.exit(id);
    run.account(kind, true, rep)
}

fn record_native(run: &mut Run<'_>, rep: &Rep) {
    run.push("native_wall_s", rep.wall_s());
    run.push("native_cpu_s", rep.usage.cpu_s);
}

/// Record the per-rep samples every SPBC rep contributes.
fn record_spbc(run: &mut Run<'_>, rep: &Rep) {
    let m = rep.metrics.as_ref().expect("SPBC reps carry metrics");
    run.push("wall_s", rep.wall_s());
    run.push("cpu_s", rep.usage.cpu_s);
    run.push("ckpt_ms_per_wave", WAVE_PHASES.iter().map(|&(p, _)| phase_ms_per_wave(m, p)).sum());
    run.push("store_amplification", ratio(m.ckpt_bytes_physical, m.ckpt_bytes_logical));
    run.push("repl_amplification", ratio(m.repl_bytes, m.ckpt_bytes_logical));
    if run.args.spec.fail {
        run.push("recovery_s", rep.recovery_s());
    }
}

/// One set-up: inputs from the seed, one warm-up native rep and one warm-up
/// SPBC rep (checked against each other).
fn set_up(run: &mut Run<'_>) -> Built {
    let args = run.args;
    let built = build(args.spec, args.seed);
    let mut warm = args.spec;
    warm.iters = (warm.iters / WARMUP_DIVISOR).max(2);
    warm.ckpt_every = (warm.ckpt_every / WARMUP_DIVISOR).max(1);
    let warm = build(warm, args.seed);
    let native = run_native(&warm);
    let native = run.account("native", false, native);
    let spbc = run_spbc(&warm, false);
    let spbc = run.account("spbc", false, spbc);
    if let (Some(native), Some(spbc)) = (native, spbc) {
        run.verify(&warm, &native, &spbc, "warm-up rep");
    }
    built
}

/// Run rounds of `round(run, i)` until the time budget is spent: at least
/// [`MIN_ROUNDS`], and no new round once the average round no longer fits.
fn rounds(run: &mut Run<'_>, budget_s: f64, mut round: impl FnMut(&mut Run<'_>, usize)) {
    let start = Instant::now();
    let min = if run.args.smoke { 2 } else { MIN_ROUNDS };
    for i in 0.. {
        round(run, i);
        let elapsed = start.elapsed().as_secs_f64();
        if i + 1 >= min && elapsed + elapsed / (i + 1) as f64 > budget_s {
            break;
        }
    }
}

fn end_to_end(run: &mut Run<'_>) -> BTreeMap<&'static str, f64> {
    let args = run.args;
    let mut built = None;
    for i in 0..SETUPS {
        let t = if i == 0 { args.started } else { Instant::now() };
        let id = run.spans.enter("setup");
        built = Some(set_up(run));
        run.spans.exit(id);
        run.push("setup_s", t.elapsed().as_secs_f64());
    }
    let built = built.expect("SETUPS > 0");

    let mut reference: Option<Rep> = None;
    rounds(run, args.seconds, |run, i| {
        // Alternate which side runs first, so drift favours neither.
        let (mut native, mut spbc) = (None, None);
        for native_side in if i % 2 == 0 { [true, false] } else { [false, true] } {
            if native_side {
                native = timed_rep(run, "native", || run_native(&built));
            } else {
                spbc = timed_rep(run, "spbc", || run_spbc(&built, false));
            }
        }
        if let Some(native) = &native {
            record_native(run, native);
            match &reference {
                Some(r) if r.report.outputs != native.report.outputs => run.failures.push(format!(
                    "{} native rep {i}: outputs differ between native reps",
                    built.spec.name
                )),
                _ => {}
            }
        }
        if let Some(spbc) = &spbc {
            record_spbc(run, spbc);
            if let Some(native) = reference.as_ref().or(native.as_ref()) {
                run.verify(&built, native, spbc, &format!("SPBC rep {i}"));
            }
        }
        if let (Some(native), Some(spbc)) = (&native, &spbc) {
            run.push("slowdown", spbc.wall_s() / native.wall_s());
        }
        if reference.is_none() {
            reference = native;
        }
    });

    let mut out = BTreeMap::new();
    for m in E2E.iter().filter(|m| m.applies_to(&args.spec)) {
        let v = match m.name {
            "peak_rss_mb" => procstat::peak_rss_mb(),
            "recovery_norm" => recovery_norm(run, &args.spec),
            name => run.median_of(name),
        };
        out.insert(m.name, v);
    }
    out
}

/// Fig. 5's y-axis: recovery time over the native time of the re-executed
/// iterations.
fn recovery_norm(run: &Run<'_>, spec: &WorkloadSpec) -> f64 {
    let native_per_iter = run.median_of("native_wall_s") / spec.iters as f64;
    run.median_of("recovery_s") / (native_per_iter * spec.reexecuted_iters() as f64).max(1e-12)
}

/// Two consecutive committed checkpoint bodies of rank 0 of a short
/// `ckpt-store` run — what the store's layer drives chew on.
fn checkpoint_bodies(seed: u64) -> Res<(Vec<u8>, Vec<u8>)> {
    let mut spec = *WorkloadSpec::by_name(CKPT_STORE).expect("the store workload");
    spec.iters = 2 * spec.ckpt_every;
    let (_, bodies) = run_spbc_with(&build(spec, seed), false, |provider| {
        let store = provider.ckptstore();
        store.flush_all()?;
        let mut bodies = Vec::new();
        for epoch in [1, 2] {
            let (body, _) = store
                .load(RankId(0), epoch)?
                .ok_or_else(|| format!("epoch {epoch} of rank 0 is not in the store"))?;
            bodies.push(body);
        }
        Ok(bodies)
    })?;
    let [a, b]: [Vec<u8>; 2] = bodies.try_into().map_err(|_| "two bodies expected")?;
    Ok((a, b))
}

fn traced(run: &mut Run<'_>) -> Res<BTreeMap<&'static str, f64>> {
    let args = run.args;
    let id = run.spans.enter("setup");
    let built = set_up(run);
    let (body_a, body_b) = checkpoint_bodies(args.seed)?;
    run.spans.exit(id);

    // Triples of native, untraced SPBC and traced SPBC reps, rotating which
    // goes first; half of the time budget.
    let mut reference: Option<Rep> = None;
    let mut last_traced: Option<Rep> = None;
    let mut traced_metrics: Vec<MetricsSnapshot> = Vec::new();
    rounds(run, args.seconds / 2.0, |run, i| {
        for k in 0..3 {
            match (i + k) % 3 {
                0 => {
                    if let Some(rep) = timed_rep(run, "native", || run_native(&built)) {
                        record_native(run, &rep);
                        reference.get_or_insert(rep);
                    }
                }
                1 => {
                    if let Some(rep) = timed_rep(run, "spbc", || run_spbc(&built, false)) {
                        record_spbc(run, &rep);
                        if let Some(native) = &reference {
                            run.verify(&built, native, &rep, &format!("SPBC rep {i}"));
                        }
                    }
                }
                _ => {
                    if let Some(rep) = timed_rep(run, "spbc.traced", || run_spbc(&built, true)) {
                        run.push("traced_wall_s", rep.wall_s());
                        traced_metrics.extend(rep.metrics);
                        if let Some(native) = &reference {
                            run.verify(&built, native, &rep, &format!("traced SPBC rep {i}"));
                        }
                        last_traced = Some(rep);
                    }
                }
            }
        }
    });
    // The on-disk drives work in a scratch directory of this run's own.
    let tmp = fresh_dir(&args.out_dir.join("tmp"), args.spec.name);
    std::fs::create_dir_all(&tmp)?;
    let mut drive = Drive {
        ops: if args.smoke { SMOKE_LAYER_OPS } else { LAYER_OPS },
        passes: if args.smoke { 2 } else { 7 },
        body_a,
        body_b,
        tmp: tmp.clone(),
        spans: &mut run.spans,
        checks: Checks::default(),
        out: Vec::new(),
    };
    let id = drive.spans.enter("layers");
    layers::run_all(&mut drive);
    drive.spans.exit(id);
    let Drive { checks, out: driven, .. } = drive;
    std::fs::remove_dir_all(&tmp)?;
    // The scratch root goes too once empty; a sibling run's keeps it alive.
    let _ = std::fs::remove_dir(args.out_dir.join("tmp"));
    run.attempted += checks.attempted;
    run.failures.extend(checks.failures);

    let mut out: BTreeMap<&'static str, f64> = driven.into_iter().collect();
    let per_traced_rep = |f: &dyn Fn(&MetricsSnapshot) -> f64| median_over(&traced_metrics, f);
    for (phase, name) in WAVE_PHASES {
        out.insert(name, per_traced_rep(&|m| phase_ms_per_wave(m, phase)));
    }
    for (phase, name) in RESTORE_PHASES {
        out.insert(name, per_traced_rep(&|m| phase_ms_mean(m, phase)));
    }
    out.insert(
        "core.protocol.write_hidden_ms",
        per_traced_rep(&|m| m.ckpt_write_hidden_us as f64 / 1e3 / m.checkpoints.max(1) as f64),
    );
    out.insert("core.protocol.logged_msgs", per_traced_rep(&|m| m.logged_msgs as f64));
    out.insert("core.protocol.logged_bytes", per_traced_rep(&|m| m.logged_bytes as f64));
    out.insert("core.protocol.ctrl_msgs", per_traced_rep(&|m| m.ctrl_msgs as f64));
    out.insert("core.protocol.suppressed_sends", per_traced_rep(&|m| m.suppressed_sends as f64));
    out.insert(
        "core.replay.msgs_per_s",
        per_traced_rep(&|m| {
            let replay_s = m.phases.get(Phase::RestoreReplay).sum as f64 / 1e6;
            if replay_s > 0.0 {
                m.replayed_msgs as f64 / replay_s
            } else {
                0.0
            }
        }),
    );

    let untraced = run.median_of("wall_s");
    out.insert(
        "trace.overhead_pct",
        100.0 * (run.median_of("traced_wall_s") - untraced) / untraced.max(1e-12),
    );
    out.insert("attribution.ff_explained_pct", explained_pct(run, &out, &traced_metrics));
    // The end-to-end metrics that belong to one workload, from this run's
    // untraced reps. Every workload checkpoints, so the store's three have a
    // value everywhere; recovery time is 0 where nothing failed.
    for m in E2E.iter().filter(|m| !m.universal()) {
        let v = match m.name {
            "recovery_norm" if args.spec.fail => recovery_norm(run, &args.spec),
            name => run.median_of(name),
        };
        out.insert(m.name, v);
    }

    if let Some(flight) = last_traced.as_ref().and_then(|r| r.report.flight.as_ref()) {
        let trace = splice_into_chrome_trace(
            &spbc_trace::chrome_trace(flight),
            &run.spans.chrome_events(1, "spbc-perf (benchmark spans; own clock)"),
        );
        std::fs::create_dir_all(&args.out_dir)?;
        std::fs::write(trace_path(&args.out_dir, args.spec.name), trace)?;
    } else {
        run.failures.push(format!("{}: no traced rep produced a flight log", args.spec.name));
    }
    Ok(out)
}

pub fn trace_path(out_dir: &Path, workload: &str) -> PathBuf {
    out_dir.join(format!("trace-{workload}.json"))
}

/// Median over the traced reps of a figure read from each one's counters.
fn median_over(traced: &[MetricsSnapshot], f: &dyn Fn(&MetricsSnapshot) -> f64) -> f64 {
    median(&traced.iter().map(f).collect::<Vec<_>>())
}

/// Share of the protocol's CPU cost (SPBC minus native, per rep) that the
/// isolated layer costs account for: what SPBC *adds* to a run, priced at
/// the per-op costs the layer drives measured. The rest is the residual.
fn explained_pct(
    run: &Run<'_>,
    layer: &BTreeMap<&'static str, f64>,
    traced: &[MetricsSnapshot],
) -> f64 {
    let of = |f: &dyn Fn(&MetricsSnapshot) -> f64| median_over(traced, f);
    let get = |name: &str| layer.get(name).copied().unwrap_or(0.0);
    let log_s = of(&|m| m.logged_msgs as f64) * get("core.log.append_ns") / 1e9;
    let ctrl_s = of(&|m| m.ctrl_msgs as f64) * get("mpi.transport.inproc_send_ns") / 1e9;
    let encode_s =
        of(&|m| m.ckpt_bytes_logical as f64) / 1e6 / get("mpi.wire.encode_2m_mb_s").max(1e-12);
    let overhead_s = run.median_of("cpu_s") - run.median_of("native_cpu_s");
    if overhead_s.abs() < 1e-9 {
        0.0
    } else {
        100.0 * (log_s + ctrl_s + encode_s) / overhead_s
    }
}

/// Run the child; returns its result document and whether every operation
/// succeeded.
pub fn run(args: &ChildArgs) -> (String, bool) {
    let mut run = Run {
        args,
        spans: Spans::new(),
        attempted: 0,
        failures: Vec::new(),
        samples: BTreeMap::new(),
        reps: Vec::new(),
        cold_faults: None,
        flagged: 0,
    };
    let metrics = if args.trace {
        traced(&mut run).unwrap_or_else(|e| {
            run.failures.push(format!("{}: {e}", args.spec.name));
            BTreeMap::new()
        })
    } else {
        end_to_end(&mut run)
    };
    (render(&run, &metrics), run.failures.is_empty())
}

fn render(run: &Run<'_>, metrics: &BTreeMap<&'static str, f64>) -> String {
    let args = run.args;
    let mut sizes = JsonObj::new();
    sizes
        .field_str("app", args.spec.app.name())
        .field("elems", args.spec.elems as u64)
        .field("iters", args.spec.iters)
        .field("ckpt_every", args.spec.ckpt_every)
        .field("fail", u64::from(args.spec.fail));

    // In the order of the spec tables, so every run prints alike.
    let mut ms = JsonObj::new();
    let names = E2E.iter().map(|m| m.name).chain(LAYERS.iter().map(|m| m.name));
    for name in names {
        if let Some(&v) = metrics.get(name) {
            let mut m = JsonObj::new();
            m.field_f64("value", v).field_str("unit", crate::spec::unit_of(name).unwrap_or(""));
            ms.field_raw(name, &m.finish());
        }
    }
    let mut summaries = JsonObj::new();
    for (series, values) in &run.samples {
        if let Some(s) = summarize(values) {
            summaries.field_raw(series, &s.to_json());
        }
    }
    let mut self_times = JsonObj::new();
    for (name, ms) in run.spans.self_times_ms() {
        self_times.field_f64(&name, ms);
    }
    let failures: Vec<String> = run.failures.iter().map(|f| spbc_trace::json::escape(f)).collect();

    let mut doc = JsonObj::new();
    doc.field_str("workload", args.spec.name)
        .field("seed", args.seed)
        .field("trace", u64::from(args.trace))
        .field("smoke", u64::from(args.smoke))
        .field_f64("seconds", args.seconds)
        .field_raw("sizes", &sizes.finish())
        .field("ops_attempted", run.attempted.max(1))
        .field("ops_failed", run.failures.len() as u64)
        .field_raw("failures", &format!("[{}]", failures.join(",")))
        .field("flagged_reps", run.flagged)
        .field_raw("metrics", &ms.finish())
        .field_raw("summaries", &summaries.finish())
        .field_raw("self_times_ms", &self_times.finish())
        .field_raw("reps", &format!("[{}]", run.reps.join(",")));
    doc.finish()
}
