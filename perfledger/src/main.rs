//! sonet-perfledger — the repository's scenario benchmark.
//!
//! ```text
//! perfledger --workload W --seed N --seconds S --trace 0|1
//! perfledger --print-golden
//! ```
//!
//! `--trace 0` times workload `W` through the program's public entry
//! points for about `S` seconds, one child process per run so each run's
//! peak RSS is its own, and prints every end-to-end metric. `--trace 1`
//! runs the workload once untraced and once traced, checks that both
//! produce the same outputs, and prints the per-layer ledger. Every run
//! checks its outputs; the last line of standard output is one JSON
//! object with `correct`, `attempted`, `failed` and `metrics`.
//! See README.md beside this crate for the metric → layer → workload map.

mod check;
mod ledger;
mod report;
mod scenarios;
mod stats;

use check::Goldens;
use ledger::Ledger;
use report::Report;
use scenarios::Scenario;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

/// Output fingerprints for the default seed and one held-out seed.
const GOLDEN: &str = include_str!("../golden.tsv");
/// The seeds `golden.tsv` covers: the CLI's default and one held out.
const GOLDEN_SEEDS: [u64; 2] = [42, 7];
/// Set-up children per run of the benchmark, spread evenly between its
/// timed runs. The median over all their samples is reported. Set-up
/// speed follows the host's load from one second to the next, so many
/// short children spread across the run give a steadier median than a
/// few long ones.
const SETUP_CHILDREN: usize = 10;
/// Seconds one set-up child takes, start-up and warm-up included; their
/// share of `--seconds` is taken before inputs are counted.
const SETUP_CHILD_S: f64 = 0.4;
/// Set-up samples per set-up child, after a warm-up.
const SETUP_REPS: usize = 10;
/// Set-up repeated this long before sampling: on the fast plants the first
/// ~0.2 s of back-to-back set-ups run up to twice as slow as the rest while
/// the allocator settles, and a median taken across that step jumps
/// between the two levels from run to run.
const SETUP_WARMUP_S: f64 = 0.25;
/// Each set-up sample repeats set-up back to back for at least this long
/// and reports the mean: one set-up takes well under a millisecond on the
/// fast plants, too short to time alone.
const SETUP_SAMPLE_S: f64 = 0.01;
/// Timed runs per run of the benchmark, at least, however long they take.
const MIN_RUNS: usize = 2;
/// A run starts no further input that would, at its nominal cost, end
/// after this multiple of `--seconds`, so a host much slower than the
/// nominal costs cuts the run short instead of stretching it. At the
/// nominal costs it never triggers.
const MAX_OVERRUN: f64 = 1.25;

/// The inputs a timed run measures: as many as `seconds` holds, after the
/// set-up children, at the workload's nominal cost per input (at least
/// [`MIN_RUNS`]), the first being `seed` itself. A fixed function of its
/// arguments, so the same seed always measures the same inputs (or, on a
/// host too slow for them, a prefix of them: see [`MAX_OVERRUN`]).
fn inputs(w: Scenario, seed: u64, seconds: f64) -> Vec<u64> {
    let timed_s = seconds - SETUP_CHILDREN as f64 * SETUP_CHILD_S;
    let n = ((timed_s / w.nominal_s()).round() as usize).max(MIN_RUNS);
    (0..n as u64)
        .map(|i| seed.wrapping_add(i.wrapping_mul(1_000_003)))
        .collect()
}
/// The ROADMAP ledger's bar for the share of wall time spans must cover.
const COVERAGE_BAR: f64 = 0.9;

/// End-to-end metrics every workload reports, with their units.
const END_TO_END: [(&str, &str); 3] = [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MiB")];

/// Per-layer metrics of the traced run, with their units. Every
/// workload reports each; a layer a workload does not reach reads 0.
const PER_LAYER: [(&str, &str); 74] = [
    ("topology.build_s", "s"),
    ("workload.new_s", "s"),
    ("workload.generate_s", "s"),
    ("workload.calls", "count"),
    ("workload.ns_per_call", "ns"),
    ("netsim.new_s", "s"),
    ("netsim.run_s", "s"),
    ("netsim.finish_s", "s"),
    ("netsim.events", "count"),
    ("netsim.ns_per_event", "ns"),
    ("netsim.pending_peak", "count"),
    ("netsim.emitted_packets", "count"),
    ("netsim.drops", "count"),
    ("netsim.partitions", "count"),
    ("netsim.barriers", "count"),
    ("netsim.busy_s", "s"),
    ("netsim.idle_s", "s"),
    ("netsim.barrier_util", "ratio"),
    ("netsim.steals", "count"),
    ("netsim.bottleneck_frac", "ratio"),
    ("netsim.flows_fast", "count"),
    ("netsim.flows_packet", "count"),
    ("netsim.demotions", "count"),
    ("netsim.fast_share", "ratio"),
    ("netsim.faults_applied", "count"),
    ("netsim.reroutes", "count"),
    ("netsim.fault_drops", "count"),
    ("netsim.aborted_conns", "count"),
    ("telemetry.mirror_offered", "count"),
    ("telemetry.finish_s", "s"),
    ("telemetry.trace_build_s", "s"),
    ("fleet.new_s", "s"),
    ("fleet.generate_s", "s"),
    ("fleet.sort_s", "s"),
    ("fleet.records", "count"),
    ("telemetry.tag_s", "s"),
    ("telemetry.rows", "count"),
    ("telemetry.spool_s", "s"),
    ("telemetry.spool_bytes", "B"),
    ("telemetry.export_s", "s"),
    ("telemetry.import_s", "s"),
    ("analysis.table2_s", "s"),
    ("analysis.table3_s", "s"),
    ("analysis.table4_s", "s"),
    ("analysis.fig4_s", "s"),
    ("analysis.fig5_s", "s"),
    ("analysis.fig6_s", "s"),
    ("analysis.fig7_s", "s"),
    ("analysis.fig8_s", "s"),
    ("analysis.fig9_s", "s"),
    ("analysis.fig10_s", "s"),
    ("analysis.fig11_s", "s"),
    ("analysis.fig12_s", "s"),
    ("analysis.fig13_s", "s"),
    ("analysis.fig14_s", "s"),
    ("analysis.fig15_s", "s"),
    ("analysis.fig16_s", "s"),
    ("analysis.fig17_s", "s"),
    ("analysis.util_s", "s"),
    ("analysis.te_s", "s"),
    ("analysis.render_s", "s"),
    ("ckpt.count", "count"),
    ("ckpt.bytes", "B"),
    ("ckpt.encode_s", "s"),
    ("ckpt.write_s", "s"),
    ("ckpt.decode_s", "s"),
    ("ckpt.restore_s", "s"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_frac", "ratio"),
    ("sim_s_per_s", "sim_s/s"),
    ("records_per_s", "rows/s"),
    ("resume_s", "s"),
    ("ckpt_mb", "MiB"),
    ("failed_frac", "ratio"),
];

struct Args {
    workload: Scenario,
    seed: u64,
    seconds: f64,
    trace: bool,
    child: Option<String>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 42;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut child = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Scenario::parse(v).ok_or_else(|| {
                    let names: Vec<_> = Scenario::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload '{v}' (one of {})", names.join(", "))
                })?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not '{v}'")),
                }
            }
            "--child" => child = Some(value()?.clone()),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        child,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--print-golden") {
        return print_golden();
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfledger: {e}");
            eprintln!("usage: perfledger --workload W --seed N --seconds S --trace 0|1");
            return ExitCode::from(2);
        }
    };
    let goldens = match Goldens::parse(GOLDEN) {
        Ok(g) => g,
        Err(e) => {
            eprintln!("perfledger: golden.tsv: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(mode) = &args.child {
        return child_main(mode, &args);
    }
    let result = if args.trace {
        traced_main(&args, &goldens)
    } else {
        timed_main(&args, &goldens)
    };
    // Children remove their own scratch files; this catches any a crashed
    // child left behind.
    let _ = std::fs::remove_dir_all(scenarios::work_root());
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfledger: {e}");
            ExitCode::FAILURE
        }
    }
}

// ---------------------------------------------------------------------
// Child side: one run per process.
// ---------------------------------------------------------------------

fn child_main(mode: &str, args: &Args) -> ExitCode {
    let w = args.workload;
    let mut rep = Report::default();
    match mode {
        "setup" => {
            scenarios::setup_sample(w, args.seed, SETUP_WARMUP_S);
            let xs = (0..SETUP_REPS)
                .map(|_| scenarios::setup_sample(w, args.seed, SETUP_SAMPLE_S))
                .collect();
            rep.samples.insert("setup_s".into(), xs);
        }
        "timed" => scenarios::run(w, args.seed, &Ledger::off(), &mut rep),
        "reference" => scenarios::reference(args.seed, &mut rep),
        "traced" => {
            let led = Ledger::new();
            scenarios::run(w, args.seed, &led, &mut rep);
            let wall_s = rep.nums.get("wall_s").copied().unwrap_or(0.0);
            ledger_metrics(&led, (wall_s * 1e9) as u64, &mut rep);
            let run_id = format!("{}-{}-{}", w.name(), args.seed, std::process::id());
            let path = out_dir().join(format!("spans-{}-{}.jsonl", w.name(), args.seed));
            let spans = ledger::to_jsonl(&led.spans(), &run_id);
            if let Err(e) =
                std::fs::create_dir_all(out_dir()).and_then(|()| std::fs::write(&path, spans))
            {
                eprintln!("perfledger: could not write {}: {e}", path.display());
            }
        }
        other => {
            eprintln!("perfledger: unknown child mode '{other}'");
            return ExitCode::FAILURE;
        }
    }
    print!("{}", rep.to_text());
    ExitCode::SUCCESS
}

/// Where the traced run writes its spans, inside the benchmark's own
/// directory.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Folds the traced run's spans and counters into per-layer metrics:
/// each span name's summed self time as `NAME_s`, each counter as is,
/// and the ratios derived from them.
fn ledger_metrics(led: &Ledger, wall_ns: u64, rep: &mut Report) {
    let spans = led.spans();
    let self_s = ledger::self_times(&spans);
    let mut by_name: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for (s, t) in spans.iter().zip(&self_s) {
        by_name.entry(s.name.clone()).or_default().push(*t);
    }
    let mut m: BTreeMap<String, f64> = led.counts();
    for (name, xs) in &by_name {
        m.insert(format!("{name}_s"), xs.iter().sum());
        if xs.len() > 1 {
            rep.samples.insert(format!("span:{name}"), xs.clone());
        }
    }
    let get = |k: &str| m.get(k).copied().unwrap_or(0.0);
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let derived = [
        (
            "workload.ns_per_call",
            ratio(get("workload.generate_s") * 1e9, get("workload.calls")),
        ),
        (
            "netsim.ns_per_event",
            ratio(get("netsim.run_s") * 1e9, get("netsim.events")),
        ),
        (
            "netsim.barrier_util",
            ratio(
                get("netsim.busy_s"),
                get("netsim.busy_s") + get("netsim.idle_s"),
            ),
        ),
        (
            "netsim.bottleneck_frac",
            ratio(
                get("netsim.bottleneck_events"),
                get("netsim.partitioned_events"),
            ),
        ),
        (
            "netsim.fast_share",
            ratio(
                get("netsim.flows_fast"),
                get("netsim.flows_fast") + get("netsim.flows_packet"),
            ),
        ),
        ("trace.coverage", ledger::coverage(&spans, wall_ns)),
    ];
    m.extend(derived.into_iter().map(|(k, v)| (k.to_owned(), v)));
    rep.nums.extend(m);
}

// ---------------------------------------------------------------------
// Parent side.
// ---------------------------------------------------------------------

/// Runs one child and parses its report. A child that fails to start,
/// exits non-zero, or prints garbage is an `Err`.
fn spawn(mode: &str, w: Scenario, seed: u64) -> Result<Report, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(["--child", mode, "--workload", w.name(), "--seed"])
        .arg(seed.to_string())
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning {mode} child: {e}"))?;
    if !out.status.success() {
        return Err(format!("{mode} child exited with {}", out.status));
    }
    Report::parse(&String::from_utf8_lossy(&out.stdout))
}

/// A run whose child died: every op it would have attempted failed.
fn crashed(w: Scenario, why: &str) -> Report {
    Report {
        ops: w
            .ops()
            .into_iter()
            .map(|op| (op.to_owned(), Some(why.to_owned())))
            .collect(),
        ..Report::default()
    }
}

/// The git revision, read from `.git` above the working directory, or
/// "unknown" in a checkout without one.
fn git_rev() -> String {
    let mut dir = std::env::current_dir().ok();
    while let Some(d) = dir {
        if let Ok(head) = std::fs::read_to_string(d.join(".git/HEAD")) {
            let head = head.trim();
            return match head.strip_prefix("ref: ") {
                Some(r) => std::fs::read_to_string(d.join(".git").join(r))
                    .map_or_else(|_| head.to_owned(), |s| s.trim().to_owned()),
                None => head.to_owned(),
            };
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    "unknown".into()
}

fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn print_env(args: &Args, width: Option<f64>) {
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let width = width.map_or("?".into(), |v| format!("{v}"));
    println!(
        "env workload={} seed={} cores={} width={width} profile={profile} git={} trace={}",
        args.workload.name(),
        args.seed,
        cores(),
        git_rev(),
        u8::from(args.trace)
    );
    println!(
        "env results are comparable only with runs at cores={}",
        cores()
    );
}

/// Checks every op of `run` for an error, then its output against the
/// goldens and each named reference run. Prints each failed op and
/// returns how many failed.
fn check_run(
    w: Scenario,
    seed: u64,
    goldens: &Goldens,
    run: &Report,
    references: &[(&str, &Report)],
) -> usize {
    let mut failed = 0;
    for op in w.ops() {
        let outcome = run.ops.iter().find(|(o, _)| o == op);
        let mut why = match outcome {
            None => Some("not attempted".to_owned()),
            Some((_, err)) => err.clone(),
        };
        if why.is_none() {
            let hash = run.hashes.get(op).map(String::as_str);
            if let Some(g) = goldens.get(seed, w.name(), op) {
                if hash != Some(g) {
                    why = Some(format!("output {hash:?} differs from golden {g}"));
                }
            }
            for (what, r) in references {
                if let Some(h) = r.hashes.get(op) {
                    if hash != Some(h.as_str()) {
                        why = Some(format!("output {hash:?} differs from the {what} ({h})"));
                    }
                }
            }
        }
        if let Some(why) = why {
            println!("check FAIL {op}: {why}");
            failed += 1;
        }
    }
    failed
}

fn metric_line(name: &str, unit: &str, xs: &[f64]) {
    let q = |p| stats::quantile(xs, p).unwrap_or(f64::NAN);
    println!(
        "metric {name} = {:.6} {unit} (median over {} runs; q1 {:.6}, q3 {:.6})",
        q(0.5),
        xs.len(),
        q(0.25),
        q(0.75)
    );
}

fn result_json(correct: bool, attempted: usize, failed: usize, metrics: &[(&str, &str, f64)]) {
    let m: Vec<String> = metrics
        .iter()
        .map(|(k, u, v)| format!("\"{k}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        m.join(", ")
    );
}

fn timed_main(args: &Args, goldens: &Goldens) -> Result<(), String> {
    let w = args.workload;
    let (what, reference) = match w {
        Scenario::Supervised => ("uninterrupted capture", spawn("reference", w, args.seed)?),
        Scenario::PaperAll => ("no reference run", Report::default()),
    };
    // Each timed run gets its own input, so a run's medians average over
    // inputs as well as over runs; the first input is the seed itself.
    // Set-up is sampled in children spread evenly between the timed runs
    // (on the input of the run that follows), so its median, too, spans
    // the whole run instead of one moment of it.
    let mut inputs = inputs(w, args.seed, args.seconds);
    let n = inputs.len();
    let mut setup_xs = Vec::new();
    let mut runs = Vec::new();
    let started = Instant::now();
    for (k, &input) in inputs.iter().enumerate() {
        let due = started.elapsed().as_secs_f64() + w.nominal_s();
        if k >= MIN_RUNS && due > MAX_OVERRUN * args.seconds {
            break;
        }
        for _ in SETUP_CHILDREN * k / n..SETUP_CHILDREN * (k + 1) / n {
            let setup = spawn("setup", w, input)?;
            setup_xs.extend(setup.samples.get("setup_s").into_iter().flatten());
        }
        runs.push(spawn("timed", w, input).unwrap_or_else(|e| crashed(w, &e)));
    }
    inputs.truncate(runs.len());
    print_env(args, runs[0].nums.get("width").copied());
    let listed: Vec<String> = inputs.iter().map(u64::to_string).collect();
    println!("env inputs={}", listed.join(","));
    let mut failed = 0;
    for (r, &input) in runs.iter().zip(&inputs) {
        let refs = if input == args.seed {
            vec![(what, &reference)]
        } else {
            Vec::new()
        };
        failed += check_run(w, input, goldens, r, &refs);
    }
    let attempted = runs.len() * w.ops().len();
    let series =
        |f: &dyn Fn(&Report) -> Option<f64>| -> Vec<f64> { runs.iter().filter_map(f).collect() };
    let num = |k: &'static str| move |r: &Report| r.nums.get(k).copied();
    let wall = series(&num("wall_s"));
    let rss = series(&num("peak_rss_mb"));
    let rps = series(&|r| Some(r.nums.get("records")? / r.nums.get("records_s")?));
    metric_line("wall_s", "s", &wall);
    metric_line("setup_s", "s", &setup_xs);
    metric_line("peak_rss_mb", "MiB", &rss);
    metric_line("records_per_s", "rows/s", &rps);
    let sim = series(&|r| Some(r.nums.get("sim_s")? / r.nums.get("engine_s")?));
    if !sim.is_empty() {
        metric_line("sim_s_per_s", "sim_s/s", &sim);
    }
    let resume = series(&num("resume_s"));
    if !resume.is_empty() {
        metric_line("resume_s", "s", &resume);
    }
    let ckpt = series(&|r| Some(r.nums.get("ckpt_bytes")? / (1 << 20) as f64));
    if !ckpt.is_empty() {
        metric_line("ckpt_mb", "MiB", &ckpt);
    }
    let failed_frac = failed as f64 / attempted as f64;
    println!("metric failed_frac = {failed_frac} ratio ({failed} of {attempted} ops)");
    let golden = if goldens.covers(args.seed) {
        "golden"
    } else {
        "no golden for this seed"
    };
    println!(
        "check {} runs, {attempted} ops, {failed} failed (first input: {golden}, {what})",
        runs.len()
    );
    let med = |xs: &[f64]| stats::median(xs).unwrap_or(0.0);
    let metrics: Vec<(&str, &str, f64)> = END_TO_END
        .iter()
        .map(|&(k, u)| {
            let xs = match k {
                "wall_s" => &wall,
                "setup_s" => &setup_xs,
                _ => &rss,
            };
            (k, u, med(xs))
        })
        .collect();
    let measured = metrics.iter().all(|m| m.2 > 0.0);
    result_json(failed == 0 && measured, attempted, failed, &metrics);
    Ok(())
}

fn traced_main(args: &Args, goldens: &Goldens) -> Result<(), String> {
    let w = args.workload;
    let plain = spawn("timed", w, args.seed).unwrap_or_else(|e| crashed(w, &e));
    let traced = spawn("traced", w, args.seed).unwrap_or_else(|e| crashed(w, &e));
    print_env(args, plain.nums.get("width").copied());
    // Drift guard: the decomposed run must produce the entry points'
    // outputs byte for byte.
    let mut failed = check_run(w, args.seed, goldens, &plain, &[]);
    failed += check_run(w, args.seed, goldens, &traced, &[("untraced run", &plain)]);
    let attempted = 2 * w.ops().len();
    let mut m = traced.nums.clone();
    let untraced = |k: &str| plain.nums.get(k).copied();
    let wall = untraced("wall_s").unwrap_or(0.0);
    let extra = [
        (
            "sim_s_per_s",
            untraced("sim_s")
                .zip(untraced("engine_s"))
                .map(|(a, b)| a / b),
        ),
        (
            "records_per_s",
            untraced("records")
                .zip(untraced("records_s"))
                .map(|(a, b)| a / b),
        ),
        ("resume_s", untraced("resume_s")),
        (
            "ckpt_mb",
            untraced("ckpt_bytes").map(|b| b / (1 << 20) as f64),
        ),
        ("failed_frac", Some(failed as f64 / attempted as f64)),
        (
            "trace.overhead_frac",
            m.get("wall_s")
                .map(|t| if wall > 0.0 { t / wall - 1.0 } else { 0.0 }),
        ),
    ];
    for (k, v) in extra {
        m.insert(k.to_owned(), v.unwrap_or(0.0));
    }
    for (name, xs) in &traced.samples {
        println!("within-run {name} {}", stats::summary(xs));
    }
    let coverage = m.get("trace.coverage").copied().unwrap_or(0.0);
    if coverage < COVERAGE_BAR {
        println!(
            "flag trace.coverage {coverage:.3} is under the ledger's {COVERAGE_BAR} bar for {}",
            w.name()
        );
    }
    let metrics: Vec<(&str, &str, f64)> = PER_LAYER
        .iter()
        .map(|&(k, u)| (k, u, m.get(k).copied().unwrap_or(0.0)))
        .collect();
    for (k, u, v) in &metrics {
        println!("layer {k} = {v} {u}");
    }
    println!("check {attempted} ops, {failed} failed (untraced and traced runs; drift guard)");
    result_json(failed == 0, attempted, failed, &metrics);
    Ok(())
}

/// Prints `golden.tsv` for the golden seeds from fresh timed runs.
fn print_golden() -> ExitCode {
    println!("# seed workload op fnv1a64 — regenerate with --print-golden");
    for seed in GOLDEN_SEEDS {
        for w in Scenario::ALL {
            match spawn("timed", w, seed) {
                Ok(r) => {
                    for (op, h) in &r.hashes {
                        println!("{seed} {} {op} {h}", w.name());
                    }
                }
                Err(e) => {
                    eprintln!("perfledger: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_layer_names_are_unique_and_disjoint_from_end_to_end() {
        let mut names: Vec<&str> = PER_LAYER.iter().map(|m| m.0).collect();
        names.extend(END_TO_END.iter().map(|m| m.0));
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let json = include_str!("../../BENCHMARK.json");
        let listed = json.matches("\"name\": ").count();
        for w in Scenario::ALL {
            let entry = format!("\"name\": \"{}\"", w.name());
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let workloads = Scenario::ALL.len();
        assert_eq!(listed, workloads + END_TO_END.len() + PER_LAYER.len());
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
    }

    #[test]
    fn inputs_start_at_the_seed_and_repeat() {
        let a = inputs(Scenario::Supervised, 5, 24.0);
        assert_eq!(a[0], 5);
        assert_eq!(a.len(), 7);
        assert_eq!(a, inputs(Scenario::Supervised, 5, 24.0));
        assert_eq!(inputs(Scenario::PaperAll, 5, 1.0).len(), MIN_RUNS);
    }

    #[test]
    fn args_parse_and_reject_unknowns() {
        let argv: Vec<String> = "--workload supervised --seed 3 --seconds 5 --trace 1"
            .split(' ')
            .map(String::from)
            .collect();
        let a = parse_args(&argv).expect("valid");
        assert_eq!(a.workload, Scenario::Supervised);
        assert_eq!((a.seed, a.seconds, a.trace), (3, 5.0, true));
        assert!(parse_args(&["--workload".into(), "nope".into()]).is_err());
        assert!(parse_args(&["--bogus".into()]).is_err());
    }
}
