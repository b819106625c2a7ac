//! `perfbench`: the repository benchmark.
//!
//! One command per workload boots a simulated RStore cluster through the
//! public `rstore` API and drives a closed loop from this one OS thread:
//! every simulated client machine is a task on the single-threaded `sim`
//! executor and issues its next op only when the previous one returned.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--spans-dir <dir>]
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` reruns the
//! workload with the per-op ledger on and prints the per-layer metrics.
//! The last line of standard output is one JSON object. Any wrong byte,
//! or a traced run that differs from the untraced one in virtual time,
//! exits nonzero without it. See `README.md` for every metric.

mod host;
mod kv;
mod ladder;
mod metrics;
mod payload;
mod region;
mod stats;
mod window;

use std::io::Write as _;
use std::process::ExitCode;

use rstore::Cluster;

use metrics::{Counters, Metric, Traced, Virtual};
use window::{CtrlLatency, SetupTimes, Window};

#[global_allocator]
static GLOBAL: host::CountingAlloc = host::CountingAlloc;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_RUNS: usize = 3;
/// Slices of the measured window; a reference run follows each.
const SLICES: u64 = 20;

const USAGE: &str = "usage: perfbench --workload <kv-zipf-update|kv-uniform-read|region-stream> \
                     --seed <n> --seconds <1-600> --trace <0|1> [--spans-dir <dir>]";

/// A workload's full shape.
#[derive(Clone, Debug)]
enum Spec {
    Kv(kv::KvSpec),
    Region(region::RegionSpec),
}

impl Spec {
    /// The named workload, with a measured window sized to take about
    /// `seconds` of host time on a 2-vCPU x86-64 Xeon VM.
    fn named(name: &str, seconds: u64) -> Option<Spec> {
        let secs = seconds as usize;
        Some(match name {
            // E14's YCSB-A fleet: 112 clients update a Zipf-hot key set, so
            // puts convoy on CAS locks and some time out.
            "kv-zipf-update" => Spec::Kv(kv::KvSpec {
                servers: 4,
                clients: 112,
                keys: 1 << 20,
                buckets: 1 << 21,
                theta: Some(0.99),
                get_frac: 0.5,
                ops_per_client: 80 * secs,
                warmup_gets: 16,
            }),
            // The same table read uniformly: hint caches cover 0.4% of the
            // keys, so gets walk the probe chain; locks are uncontended.
            "kv-uniform-read" => Spec::Kv(kv::KvSpec {
                servers: 4,
                clients: 32,
                keys: 1 << 20,
                buckets: 1 << 21,
                theta: None,
                get_frac: 0.95,
                ops_per_client: 800 * secs,
                warmup_gets: 16,
            }),
            // No KV: batched 4 KiB reads and replicated 64 KiB writes load
            // the posting path and the fabric links.
            "region-stream" => Spec::Region(region::RegionSpec {
                servers: 8,
                clients: 8,
                region_bytes: 256 << 20,
                stripe: 64 << 10,
                replicas: 2,
                read_frac: 0.75,
                ops_per_client: 500 * secs,
                warmup_reads: 4,
            }),
            _ => return None,
        })
    }
}

/// A set-up cluster of either workload family.
enum Env {
    Kv(kv::KvEnv),
    Region(region::RegionEnv),
}

impl Env {
    fn setup(
        spec: &Spec,
        seed: u64,
        ledger: bool,
        flip_stored_byte: bool,
    ) -> (Env, SetupTimes, CtrlLatency) {
        match spec {
            Spec::Kv(s) => {
                let (e, t, c) = kv::setup(s, seed, ledger, flip_stored_byte);
                (Env::Kv(e), t, c)
            }
            Spec::Region(s) => {
                let (e, t, c) = region::setup(s, seed, ledger, flip_stored_byte);
                (Env::Region(e), t, c)
            }
        }
    }

    fn run_window(&mut self) -> Window {
        match self {
            Env::Kv(e) => kv::run_window(e, SLICES),
            Env::Region(e) => region::run_window(e, SLICES),
        }
    }

    fn verify(&self) -> Result<(), String> {
        match self {
            Env::Kv(e) => kv::verify(e),
            Env::Region(e) => region::verify(e),
        }
    }

    fn cluster(&self) -> &Cluster {
        match self {
            Env::Kv(e) => kv::cluster(e),
            Env::Region(e) => region::cluster(e),
        }
    }
}

#[derive(Clone, Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    spans_dir: Option<String>,
    setup_only: bool,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace, mut spans_dir) =
            (None, None, None, None, None);
        let mut setup_only = false;
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let number = || {
                value
                    .parse::<u64>()
                    .map_err(|_| format!("{flag}: not a number: {value:?}"))
            };
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = Some(number()?),
                "--seconds" => seconds = Some(number()?),
                "--trace" => trace = Some(number()?),
                "--spans-dir" => spans_dir = Some(value.clone()),
                "--setup-only" => setup_only = number()? == 1,
                _ => return Err(format!("unknown flag {flag:?}")),
            }
        }
        let seconds = seconds.ok_or("--seconds is required")?;
        if !(1..=600).contains(&seconds) {
            return Err(format!("--seconds {seconds} outside 1..=600"));
        }
        let trace = match trace.ok_or("--trace is required")? {
            0 => false,
            1 => true,
            t => return Err(format!("--trace {t} is neither 0 nor 1")),
        };
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds,
            trace,
            spans_dir,
            setup_only,
        })
    }
}

/// What a successful run prints.
struct Report {
    lines: Vec<String>,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

fn metric_lines(metrics: &[Metric]) -> Vec<String> {
    metrics
        .iter()
        .map(|m| {
            format!(
                "  {:<28} {:>14.4} {:<7} ({})",
                m.name, m.value, m.unit, m.note
            )
        })
        .collect()
}

fn failure_lines(v: &Virtual) -> Vec<String> {
    let mut lines = vec![format!(
        "  error_rate {:.6} ({} of {} ops returned a structured error)",
        v.error_rate(),
        v.failed,
        v.attempted
    )];
    for ((kind, variant), n) in &v.failures {
        lines.push(format!("    {kind} {variant}: {n}"));
    }
    lines
}

/// Reference runs taken on each side of a timed set-up.
const SETUP_REFS: u32 = 3;

/// One untraced set-up, timed from its start, with the factor that
/// scales its host seconds like `host_us_per_op` (from reference runs
/// taken just before and just after it).
fn timed_setup(spec: &Spec, seed: u64) -> (Env, SetupTimes, f64, CtrlLatency) {
    let before = host::reference_mean_ns(SETUP_REFS);
    let (env, times, ctrl) = Env::setup(spec, seed, false, false);
    let after = host::reference_mean_ns(SETUP_REFS);
    (
        env,
        times,
        metrics::REF_NOMINAL_NS / ((before + after) / 2.0),
        ctrl,
    )
}

/// The untraced run: several set-ups, one measured window, verification.
///
/// All but the last set-up run in child processes (`--setup-only`): a
/// dropped cluster does not return its memory (its tasks and devices hold
/// each other), so repeating set-ups in one process would stack clusters.
fn untraced(spec: &Spec, args: &Args) -> Result<Report, String> {
    let mut setups = Vec::with_capacity(SETUP_RUNS);
    for _ in 1..SETUP_RUNS {
        setups.push(child_setup(args)?);
    }
    let (mut env, times, scale, _) = timed_setup(spec, args.seed);
    setups.push((times.total() * scale, times.total()));
    let w = env.run_window();
    // Peak memory of set-up plus the measured window; the verification
    // pass after it is not part of the workload.
    let peak_rss_kb = host::peak_rss_kb();
    env.verify()?;
    drop(env);
    let v = Virtual::of(&w);
    let metrics = metrics::end_to_end(&w, &v, &setups, peak_rss_kb);
    let mut lines = metric_lines(&metrics);
    lines.push(v.read.describe("read"));
    lines.push(v.write.describe("write"));
    lines.extend(failure_lines(&v));
    Ok(Report {
        lines,
        attempted: v.attempted,
        failed: v.failed,
        metrics,
    })
}

/// Runs one set-up in a child process of this binary and returns its
/// `(scaled, raw)` seconds.
fn child_setup(args: &Args) -> Result<(f64, f64), String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate this binary: {e}"))?;
    let out = std::process::Command::new(exe)
        .args(["--workload", &args.workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", "0", "--setup-only", "1"])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("run a set-up child: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let parsed = stdout
        .lines()
        .last()
        .and_then(|l| l.strip_prefix("setup_s "))
        .and_then(|v| v.split_once(' '))
        .and_then(|(scaled, raw)| Some((scaled.parse().ok()?, raw.parse().ok()?)));
    match parsed {
        Some(s) if out.status.success() => Ok(s),
        _ => Err(format!("set-up child failed ({}): {stdout}", out.status)),
    }
}

/// The traced run: the untraced window again, the same window with the
/// ledger on (which must match it exactly in virtual time), and the ladder.
fn traced(spec: &Spec, args: &Args) -> Result<Report, String> {
    let (mut env, setup, scale, ctrl) = timed_setup(spec, args.seed);
    let plain = env.run_window();
    env.verify()?;
    drop(env);
    let plain_v = Virtual::of(&plain);

    let (mut env, _, _) = Env::setup(spec, args.seed, true, false);
    let traced = env.run_window();
    // Before verification, which resets the registry as it goes.
    let counters = Counters::read(env.cluster(), traced.v_ns);
    env.verify()?;
    drop(env);
    if let Some(i) = (0..plain.spans.len().max(traced.spans.len()))
        .find(|&i| plain.spans.get(i) != traced.spans.get(i))
    {
        return Err(format!(
            "the traced run left the untraced run's virtual timeline at span {i}: {:?} vs {:?}",
            plain.spans.get(i),
            traced.spans.get(i)
        ));
    }

    if let Some(dir) = &args.spans_dir {
        let path = std::path::Path::new(dir)
            .join(format!("spans-{}-seed{}.csv", args.workload, args.seed));
        write_spans(&path, &traced).map_err(|e| format!("write {}: {e}", path.display()))?;
    }

    let ladder = ladder::measure();
    let metrics = metrics::per_layer(&Traced {
        setup: setup.scaled(scale),
        plain: (&plain, &plain_v),
        traced: &traced,
        counters: &counters,
        ladder: &ladder,
    });
    let mut lines = metric_lines(&metrics);
    lines.extend(metrics::virtual_constants(ctrl, &ladder, &counters));
    lines.extend(failure_lines(&plain_v));
    Ok(Report {
        lines,
        attempted: plain_v.attempted,
        failed: plain_v.failed,
        metrics,
    })
}

fn write_spans(path: &std::path::Path, w: &Window) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "kind,client,start_ns,end_ns,outcome")?;
    for s in &w.spans {
        writeln!(out, "{}", metrics::span_line(s))?;
    }
    out.flush()
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some(spec) = Spec::named(&args.workload, args.seconds) else {
        eprintln!("perfbench: unknown workload {:?}\n{USAGE}", args.workload);
        return ExitCode::from(2);
    };
    if args.setup_only {
        let (_env, times, scale, _) = timed_setup(&spec, args.seed);
        println!("setup_s {:?} {:?}", times.total() * scale, times.total());
        return ExitCode::SUCCESS;
    }
    let result = if args.trace {
        traced(&spec, &args)
    } else {
        untraced(&spec, &args)
    };
    match result {
        Ok(r) => {
            println!(
                "perfbench {} seed={} seconds={} trace={}",
                args.workload, args.seed, args.seconds, args.trace as u8
            );
            for l in &r.lines {
                println!("{l}");
            }
            println!("{}", metrics::json_line(r.attempted, r.failed, &r.metrics));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: FAILED: {e}");
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use fabric::FaultPlan;

    use super::*;
    use window::Mark;

    fn tiny_kv() -> Spec {
        Spec::Kv(kv::KvSpec {
            servers: 2,
            clients: 4,
            keys: 512,
            buckets: 1024,
            theta: Some(0.99),
            get_frac: 0.5,
            ops_per_client: 100,
            warmup_gets: 4,
        })
    }

    fn tiny_region() -> Spec {
        Spec::Region(region::RegionSpec {
            servers: 2,
            clients: 2,
            region_bytes: 4 << 20,
            stripe: 64 << 10,
            replicas: 2,
            read_frac: 0.75,
            ops_per_client: 40,
            warmup_reads: 1,
        })
    }

    /// One set-up, window and verification.
    fn pass(spec: &Spec, seed: u64, ledger: bool, flip: bool) -> (Window, Result<(), String>) {
        let (mut env, _, _) = Env::setup(spec, seed, ledger, flip);
        let w = env.run_window();
        let verified = env.verify();
        (w, verified)
    }

    #[test]
    fn a_flipped_stored_byte_fails_the_run() {
        for spec in [tiny_kv(), tiny_region()] {
            let (_, clean) = pass(&spec, 7, false, false);
            assert_eq!(clean, Ok(()), "{spec:?}");
            let (_, flipped) = pass(&spec, 7, false, true);
            let err = flipped.expect_err("a flipped stored byte went unnoticed");
            assert!(err.contains("wrong"), "{err}");
        }
    }

    #[test]
    fn same_seed_and_traced_runs_share_one_virtual_timeline() {
        for spec in [tiny_kv(), tiny_region()] {
            let (a, _) = pass(&spec, 3, false, false);
            let (b, _) = pass(&spec, 3, false, false);
            let (traced, _) = pass(&spec, 3, true, false);
            assert_eq!(a.spans, b.spans, "{spec:?}: same seed, same timeline");
            assert_eq!(
                a.spans, traced.spans,
                "{spec:?}: the ledger moved virtual time"
            );
            assert_eq!(Virtual::of(&a), Virtual::of(&traced));
            let (other, _) = pass(&spec, 4, false, false);
            assert_ne!(
                a.spans, other.spans,
                "{spec:?}: the seed must change the inputs"
            );
        }
    }

    #[test]
    fn structured_errors_are_counted_and_every_metric_still_prints() {
        let spec = tiny_kv();
        let (mut env, _, _) = Env::setup(&spec, 5, false, false);
        FaultPlan::new(5)
            .loss_window(Duration::ZERO, Duration::from_millis(50), 0.2)
            .install(&env.cluster().fabric);
        let w = env.run_window();
        assert_eq!(
            env.verify(),
            Ok(()),
            "message loss must never yield wrong bytes"
        );
        let v = Virtual::of(&w);
        assert_eq!(v.attempted, 400, "every scripted op ran to an outcome");
        assert!(v.error_rate() > 0.0, "the loss window must fail some ops");
        assert_eq!(v.failures.values().sum::<u64>(), v.failed);
        let metrics = metrics::end_to_end(&w, &v, &[(1.0, 1.0), (2.0, 2.0), (3.0, 3.0)], 1 << 20);
        assert_eq!(names(&metrics), benchmark_names("end_to_end"));
        assert!(metrics.iter().all(|m| m.value.is_finite() && m.value > 0.0));
        let line = metrics::json_line(v.attempted, v.failed, &metrics);
        assert!(line.starts_with(&format!(
            "{{\"correct\": true, \"attempted\": 400, \"failed\": {}, ",
            v.failed
        )));
    }

    fn names(metrics: &[Metric]) -> Vec<String> {
        metrics.iter().map(|m| m.name.to_string()).collect()
    }

    /// The `name`s listed under `section` of the repository's
    /// `BENCHMARK.json` (sections appear in the order the file keeps).
    fn benchmark_names(section: &str) -> Vec<String> {
        let json = include_str!(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"));
        let start = json
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &json[start..];
        let end = ["\"workloads\"", "\"end_to_end\"", "\"per_layer\""]
            .iter()
            .filter_map(|k| body[1..].find(k).map(|i| i + 1))
            .min()
            .unwrap_or(body.len());
        body[..end]
            .split("\"name\": \"")
            .skip(1)
            .map(|s| s[..s.find('"').expect("closing quote")].to_string())
            .collect()
    }

    #[test]
    fn benchmark_json_names_what_the_benchmark_prints() {
        for name in benchmark_names("workloads") {
            assert!(Spec::named(&name, 10).is_some(), "unknown workload {name}");
        }
        let span = window::Span {
            kind: window::Kind::Get,
            client: 0,
            start_ns: 0,
            end_ns: 1_000,
            bytes: 64,
            err: None,
        };
        let w = Window {
            spans: vec![span],
            v_ns: 1_000,
            marks: vec![
                Mark {
                    ops: 0,
                    cpu_ns: 0,
                    ref_ns: 10,
                },
                Mark {
                    ops: 1,
                    cpu_ns: 1_000,
                    ref_ns: 10,
                },
            ],
            allocs: 1,
            rss_growth_kb: 1,
        };
        let v = Virtual::of(&w);
        let per_layer = metrics::per_layer(&Traced {
            setup: SetupTimes::default(),
            plain: (&w, &v),
            traced: &w,
            counters: &Counters::default(),
            ladder: &ladder::Ladder::default(),
        });
        assert_eq!(names(&per_layer), benchmark_names("per_layer"));
        let end_to_end = metrics::end_to_end(&w, &v, &[(1.0, 1.0)], 1);
        assert_eq!(names(&end_to_end), benchmark_names("end_to_end"));
    }
}
