//! The repository benchmark: end-to-end metrics of the `rtl2tlm mutate`
//! and Table I campaign flows, and a traced run with per-layer metrics.
//!
//! ```text
//! cargo run --release --manifest-path repobench/Cargo.toml -- \
//!     --workload mutate-matrix --seed 2015 --seconds 20 --trace 0
//! ```
//!
//! One process, one campaign worker, closed loop: the next pass starts
//! when the previous one ends. Every pass is checked against the verdict
//! oracle. The last line of standard output is one JSON object with the
//! keys `correct`, `attempted`, `failed` and `metrics`; the lines above it
//! print the same figures for people. See `README.md` for the metrics.

mod oracle;
mod replay;
mod spans;
mod workload;

use std::hint::black_box;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use designs::AbsLevel;
use desim::SimStats;

use crate::oracle::Oracle;
use crate::replay::{Replay, Replayed};
use crate::spans::{Recorder, SpanTime};
use crate::workload::{Plan, Workload};

/// Fresh processes that each measure set-up once; `setup_s` is their
/// median.
const SETUP_PROBES: usize = 21;

/// Traced passes written to the Chrome trace file (all of them feed the
/// metrics).
const EXPORTED_PASSES: u32 = 3;

/// The per-level split of a metric: the total, then each level.
const SPLITS: [(&str, Option<AbsLevel>); 4] = [
    ("", None),
    (".rtl", Some(AbsLevel::Rtl)),
    (".tlm-ca", Some(AbsLevel::TlmCa)),
    (".tlm-at", Some(AbsLevel::TlmAt)),
];

/// Timed layer calls, each reported as the median over traced passes of
/// the pass's summed self time, and whether it is split per level.
const LAYERS: [(&str, bool); 12] = [
    ("psl.parse", false),
    ("core.abstract", true),
    ("designs.prep", true),
    ("campaign.validate", false),
    ("designs.build", true),
    ("checker.attach", true),
    ("desim.run", true),
    ("checker.collect", false),
    ("desim.teardown", false),
    ("campaign.assemble", false),
    ("mutate.fold", false),
    ("mutate.json", false),
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    setup_probe: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = workload::DEFAULT_SEED;
    let mut seconds = 10;
    let mut trace = false;
    let mut setup_probe = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--setup-probe" {
            setup_probe = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("bad {flag} {value}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?.max(1),
            "--trace" => trace = number()? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        setup_probe,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("repobench: {msg}");
            eprintln!(
                "usage: repobench --workload <mutate-matrix|verify-full|verify-bare> \
                 --seed <n> --seconds <n> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let result = if args.setup_probe {
        setup_probe(&args);
        Ok(())
    } else if args.trace {
        traced(&args)
    } else {
        measured(&args)
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("repobench: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// Runs attempted and runs that disagreed with the oracle.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn add(&mut self, runs: usize, failed: u64) {
        self.attempted += runs as u64;
        self.failed += failed;
    }

    fn print(&self) {
        println!(
            "  {:<28} {} ({} of {} runs disagree with the oracle)",
            "error_rate",
            self.failed as f64 / self.attempted as f64,
            self.failed,
            self.attempted
        );
    }
}

/// Set-up in a fresh process: plan construction, `CampaignPlan::validate`
/// and the first (cold) pass. Prints `setup <seconds> <runs> <errors>`.
fn setup_probe(args: &Args) {
    let start = Instant::now();
    let plan = Plan::new(args.workload, args.seed);
    let campaign = plan.campaign_plan();
    campaign.validate().expect("workload plan is valid");
    let out = plan.run_pass();
    let setup = start.elapsed();
    let errors = Oracle::new(args.workload, args.seed).check(&out);
    println!(
        "setup {} {} {errors}",
        setup.as_secs_f64(),
        campaign.total_runs()
    );
}

/// Runs `SETUP_PROBES` set-up probes, one fresh process each, and returns
/// their set-up times.
fn setup_times(args: &Args, tally: &mut Tally) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let seed = args.seed.to_string();
    let mut times = Vec::with_capacity(SETUP_PROBES);
    for _ in 0..SETUP_PROBES {
        let out = Command::new(&exe)
            .args([
                "--setup-probe",
                "--workload",
                args.workload.name(),
                "--seed",
                &seed,
            ])
            .stdin(Stdio::null())
            .output()
            .map_err(|e| format!("set-up probe: {e}"))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        let fields: Vec<&str> = stdout
            .lines()
            .last()
            .unwrap_or_default()
            .split(' ')
            .collect();
        match (out.status.success(), fields.as_slice()) {
            (true, ["setup", secs, runs, errors]) => {
                let parse = |s: &str| s.parse::<f64>().map_err(|e| format!("set-up probe: {e}"));
                times.push(parse(secs)?);
                tally.add(parse(runs)? as usize, parse(errors)? as u64);
            }
            _ => {
                return Err(format!(
                    "set-up probe failed ({}): {}",
                    out.status,
                    String::from_utf8_lossy(&out.stderr)
                ))
            }
        }
    }
    Ok(times)
}

/// The end-to-end run: set-up probes, one warm-up pass, then closed-loop
/// passes for `--seconds`, with tracing off.
fn measured(args: &Args) -> Result<(), String> {
    let mut tally = Tally::default();
    let setups = setup_times(args, &mut tally)?;
    let plan = Plan::new(args.workload, args.seed);
    let runs = plan.campaign_plan().total_runs();
    let mut oracle = Oracle::new(args.workload, args.seed);
    tally.add(runs, oracle.check(&plan.run_pass()));

    let mut passes = Vec::new();
    let mut calib = Vec::new();
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    while passes.is_empty() || Instant::now() < deadline {
        calib.push(ms(calibration()));
        let start = Instant::now();
        let out = plan.run_pass();
        passes.push(ms(start.elapsed()));
        tally.add(runs, oracle.check(&out));
    }

    let metrics = end_to_end(runs, &passes, &setups);
    println!(
        "{} seed {}: {} timed passes of {runs} runs, 1 worker, closed loop",
        args.workload.name(),
        args.seed,
        passes.len()
    );
    print_metrics(&metrics);
    tally.print();
    println!(
        "  {:<28} {} ms (diagnostic: min {}, max {})",
        "host.calib_ms",
        quantile(&calib, 0.5),
        quantile(&calib, 0.0),
        quantile(&calib, 1.0)
    );
    println!("{}", result_json(tally.failed == 0, &tally, &metrics));
    Ok(())
}

/// The traced run: untraced passes interleaved with replayed, traced
/// passes and their probes, for `--seconds`. Reports per-layer metrics
/// and writes the first passes as a Chrome trace.
fn traced(args: &Args) -> Result<(), String> {
    let plan = Plan::new(args.workload, args.seed);
    let runs = plan.campaign_plan().total_runs();
    let mut tally = Tally::default();
    let mut oracle = Oracle::new(args.workload, args.seed);
    tally.add(runs, oracle.check(&plan.run_pass()));
    let replay = Replay::new(plan.clone())?;

    let mut rec = Recorder::new();
    let mut untraced = Vec::new();
    let mut calib = Vec::new();
    let mut first: Option<(Vec<Metric>, [f64; 4])> = None;
    let mut mismatches = 0;
    let mut drifts = 0;
    let mut pass = 0u32;
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    while pass == 0 || Instant::now() < deadline {
        calib.push(ms(calibration()));
        let start = Instant::now();
        let out = plan.run_pass();
        untraced.push(ms(start.elapsed()));
        tally.add(runs, oracle.check(&out));

        let replayed = replay.pass(&mut rec, pass);
        tally.add(runs, oracle.check(&replayed.output));
        mismatches += replay.mismatches(&replayed);
        let counted = (counts(&replayed), bare_events(&replayed));
        match &first {
            None => first = Some(counted),
            Some(first) => drifts += usize::from(*first != counted),
        }
        pass += 1;
    }

    let first = first.expect("at least one traced pass");
    let metrics = per_layer(&rec, pass as usize, first, &untraced, &calib);

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    let file = format!("{path}/trace-{}.json", args.workload.name());
    let events = rec.trace_events(args.workload.pid(), args.workload.name(), EXPORTED_PASSES);
    match std::fs::create_dir_all(path)
        .and_then(|()| std::fs::write(&file, abv_obs::chrome_trace_json(&events)))
    {
        Ok(()) => println!("trace: {file} ({} events)", events.len()),
        Err(e) => eprintln!("repobench: trace not written to {file}: {e}"),
    }
    println!(
        "{} seed {}: {pass} traced passes of {runs} runs; {mismatches} replayed runs differ \
         from execute_run; {drifts} passes with drifting counts",
        args.workload.name(),
        args.seed
    );
    print_metrics(&metrics);
    tally.print();
    let correct = tally.failed == 0 && mismatches == 0 && drifts == 0;
    println!("{}", result_json(correct, &tally, &metrics));
    Ok(())
}

/// The end-to-end metrics: `passes` are pass times in ms, `setups`
/// set-up times in s.
///
/// `runs_per_s` is the throughput of the median pass. The quotient of all
/// runs by all pass time is a mean, and the host's slow episodes of a few
/// seconds move it between runs more than they move the median.
fn end_to_end(runs_per_pass: usize, passes: &[f64], setups: &[f64]) -> Vec<Metric> {
    let p50 = quantile(passes, 0.5);
    vec![
        metric("runs_per_s", runs_per_pass as f64 * 1e3 / p50, "1/s"),
        metric("pass_ms_p50", p50, "ms"),
        metric("pass_ms_p90", quantile(passes, 0.9), "ms"),
        metric("setup_s", quantile(setups, 0.5), "s"),
    ]
}

/// The per-layer metrics of a traced run of `passes` passes: layer times
/// from the recorded spans, the exact counts and bare-twin events of the
/// first pass, and the untraced pass and calibration times in ms.
fn per_layer(
    rec: &Recorder,
    passes: usize,
    (counted, bare): (Vec<Metric>, [f64; 4]),
    untraced: &[f64],
    calib: &[f64],
) -> Vec<Metric> {
    let spans = rec.span_times();
    let layers = Layers {
        spans: &spans,
        passes,
    };
    let mut metrics = layers.metrics(&bare);
    let traced_p50 = quantile(&layers.per_pass("pass", None, true), 0.5);
    metrics.push(metric(
        "obs.trace_overhead_pct",
        (traced_p50 / quantile(untraced, 0.5) - 1.0) * 100.0,
        "%",
    ));
    metrics.push(metric("host.calib_ms", quantile(calib, 0.5), "ms"));
    metrics.extend(counted);
    metrics
}

/// Per-layer times from the traced passes' spans.
struct Layers<'a> {
    spans: &'a [SpanTime],
    passes: usize,
}

impl Layers<'_> {
    /// Per traced pass, the summed self time (or, with `total`, duration)
    /// in ms of the spans named `name`, at `level` or at every level.
    fn per_pass(&self, name: &str, level: Option<AbsLevel>, total: bool) -> Vec<f64> {
        let mut sums = vec![0u64; self.passes];
        for span in self.spans {
            if span.name == name && level.is_none_or(|l| span.id.level == Some(l)) {
                sums[span.id.pass as usize] += if total { span.dur_ns } else { span.self_ns };
            }
        }
        sums.into_iter().map(|ns| ns as f64 / 1e6).collect()
    }

    /// Every timed per-layer metric; `bare_events` holds the bare twins'
    /// events per split.
    fn metrics(&self, bare_events: &[f64; 4]) -> Vec<Metric> {
        let mut out = Vec::new();
        for (layer, split) in LAYERS {
            for &(suffix, level) in &SPLITS[..if split { 4 } else { 1 }] {
                let median = quantile(&self.per_pass(layer, level, false), 0.5);
                out.push(metric(format!("{layer}_ms{suffix}"), median, "ms"));
            }
        }
        for (i, &(suffix, level)) in SPLITS.iter().enumerate() {
            let checked = self.per_pass("desim.run", level, false);
            let bare = self.per_pass("desim.run_bare", level, false);
            let progress = median_of(&checked, &bare, |c, b| c - b);
            out.push(metric(
                format!("checker.progress_ms{suffix}"),
                progress,
                "ms",
            ));
            let per_event = quantile(&bare, 0.5) * 1e6 / bare_events[i];
            out.push(metric(
                format!("desim.ns_per_event{suffix}"),
                per_event,
                "ns",
            ));
            let overhead = median_of(&checked, &bare, |c, b| c / b);
            out.push(metric(format!("checker.overhead_x{suffix}"), overhead, "x"));
        }
        // Pass time outside every layer call: the pass's and the runs'
        // own self time.
        let own = self.per_pass("pass", None, false);
        let runs = self.per_pass("run", None, false);
        let unattributed: Vec<f64> = own.iter().zip(&runs).map(|(p, r)| p + r).collect();
        let wall = self.per_pass("pass", None, true);
        out.push(metric(
            "campaign.unattributed_ms",
            quantile(&unattributed, 0.5),
            "ms",
        ));
        out.push(metric(
            "campaign.unattributed_pct",
            median_of(&unattributed, &wall, |u, w| u * 100.0 / w),
            "%",
        ));
        out
    }
}

/// The median over passes of `f` applied to two per-pass series.
fn median_of(a: &[f64], b: &[f64], f: impl Fn(f64, f64) -> f64) -> f64 {
    let values: Vec<f64> = a.iter().zip(b).map(|(&a, &b)| f(a, b)).collect();
    quantile(&values, 0.5)
}

/// The bare twins' kernel events per split.
fn bare_events(replayed: &Replayed) -> [f64; 4] {
    SPLITS.map(|(_, level)| {
        let at_level = replayed.specs.iter().zip(&replayed.bare);
        at_level
            .filter(|(spec, _)| level.is_none_or(|l| spec.spec.level == l))
            .map(|(_, stats)| stats.events_processed as f64)
            .sum()
    })
}

/// The exact counts of a replayed pass, from `SimStats`,
/// `PropertyReport` and the kill matrix.
fn counts(replayed: &Replayed) -> Vec<Metric> {
    let cells = &replayed.output.campaign.cells;
    let stats: SimStats = cells.iter().map(|c| c.stats).sum();
    let mut out = Vec::new();
    for (suffix, level) in SPLITS {
        let events: u64 = cells
            .iter()
            .filter(|c| level.is_none_or(|l| c.spec.level == l))
            .map(|c| c.stats.events_processed)
            .sum();
        out.push(metric(
            format!("desim.events{suffix}"),
            events as f64,
            "count",
        ));
    }
    let bare_total = bare_events(replayed)[0];
    let props = || cells.iter().flat_map(|c| &c.report.properties);
    let sum = |f: fn(&abv_checker::PropertyReport) -> u64| props().map(f).sum::<u64>() as f64;
    let (activations, hits) = (sum(|p| p.activations), sum(|p| p.memo_hits));
    out.extend([
        metric("desim.deltas", stats.delta_cycles as f64, "count"),
        metric("desim.timestamps", stats.timestamps as f64, "count"),
        metric("desim.signal_changes", stats.signal_changes as f64, "count"),
        metric(
            "desim.checker_events",
            stats.events_processed as f64 - bare_total,
            "count",
        ),
        metric("checker.activations", activations, "count"),
        metric("checker.evaluations", sum(|p| p.evaluations), "count"),
        metric("checker.failures", sum(|p| p.failure_count), "count"),
        metric("checker.timeout_fails", sum(|p| p.timeout_fails), "count"),
        metric(
            "checker.vacuous_ratio",
            sum(|p| p.vacuous) / activations,
            "ratio",
        ),
        metric(
            "checker.memo_hit_ratio",
            hits / (hits + sum(|p| p.memo_misses)),
            "ratio",
        ),
        metric(
            "checker.arena_nodes",
            sum(|p| p.arena_nodes as u64),
            "count",
        ),
        metric(
            "checker.max_live_instances",
            props().map(|p| p.max_live_instances).max().unwrap_or(0) as f64,
            "count",
        ),
    ]);
    for (suffix, level) in SPLITS {
        let kills = replayed.output.matrix.as_ref().map_or(0, |(matrix, _)| {
            matrix
                .designs
                .iter()
                .flat_map(|dm| {
                    dm.mutants
                        .iter()
                        .filter(|m| m.fault != designs::Fault::None)
                })
                .flat_map(|row| &row.cells)
                .filter(|c| c.killed && level.is_none_or(|l| c.level == l))
                .count()
        });
        out.push(metric(
            format!("mutate.kills{suffix}"),
            kills as f64,
            "count",
        ));
    }
    out
}

/// Wall time of a fixed amount of work that uses no repository code: a
/// host-speed marker, interleaved with the workload passes. Diagnostic
/// only; it never scales a metric.
fn calibration() -> Duration {
    let start = Instant::now();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut v = vec![0u64; 1 << 13];
    for _ in 0..4 {
        for e in &mut v {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            *e = x;
        }
        v.sort_unstable();
        black_box(&v);
    }
    start.elapsed()
}

#[derive(Debug, Clone, PartialEq)]
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

/// A metric; a ratio without a base (0/0, such as the memo hit ratio of a
/// pass without checkers) reads 0.
fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value: if value.is_finite() { value } else { 0.0 },
        unit,
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The `q` quantile of `values` by linear interpolation between the
/// closest ranks (0 for an empty list).
fn quantile(values: &[f64], q: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let Some(last) = sorted.len().checked_sub(1) else {
        return 0.0;
    };
    let pos = q * last as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

fn print_metrics(metrics: &[Metric]) {
    for m in metrics {
        println!("  {:<28} {} {}", m.name, m.value, m.unit);
    }
}

fn result_json(correct: bool, tally: &Tally, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted,
        tally.failed,
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use abv_campaign::{CampaignPlan, CheckerMode};
    use designs::DesignKind;

    /// The metric names `BENCHMARK.json` declares under `section`.
    fn declared(section: &str) -> Vec<String> {
        let doc = include_str!(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"));
        let start = doc
            .find(&format!("\"{section}\": ["))
            .expect("section is declared");
        let body = &doc[start..];
        let body = &body[..body.find(']').expect("section is closed")];
        body.split("\"name\": \"")
            .skip(1)
            .map(|rest| rest[..rest.find('"').expect("name is closed")].to_owned())
            .collect()
    }

    fn names(metrics: &[Metric]) -> Vec<String> {
        metrics.iter().map(|m| m.name.clone()).collect()
    }

    #[test]
    fn metric_names_match_benchmark_json() {
        assert_eq!(
            names(&end_to_end(1, &[1.0], &[1.0])),
            declared("end_to_end")
        );
        let plan = CampaignPlan::new("names")
            .cell(DesignKind::Fir, AbsLevel::TlmAt, CheckerMode::All)
            .size(4);
        let replay = Replay::new(Plan::Campaign(plan)).expect("probe matches the engine");
        let mut rec = Recorder::new();
        let replayed = replay.pass(&mut rec, 0);
        assert_eq!(replay.mismatches(&replayed), 0);
        let first = (counts(&replayed), bare_events(&replayed));
        let metrics = per_layer(&rec, 1, first, &[1.0], &[1.0]);
        assert_eq!(names(&metrics), declared("per_layer"));
    }

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 0.5), 2.5);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(quantile(&[], 0.9), 0.0);
    }
}
