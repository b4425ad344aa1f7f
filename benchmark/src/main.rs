//! End-to-end and per-layer benchmark of the HASTM reproduction.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <sim-solo|sim-multi|native-update|native-snapshot|all> \
//!     [--seed N] [--seconds S] [--trace 0|1] [--check-registry]
//! ```
//!
//! With `--trace 0` the result's metrics are the end-to-end ones; with
//! `--trace 1` they are the per-layer ones, a Chrome trace of the run is
//! written under `benchmark/out/`, and the run also reports what the
//! tracing cost. The last line of output is the result object. See
//! `benchmark/README.md` for every metric and workload.

mod native;
mod report;
mod sim;
mod trace;

use std::process::ExitCode;

use report::{host_cpus, Metric, Outcome};
use trace::Tracer;

/// Whether a run records spans (and so reports per-layer metrics).
#[derive(Copy, Clone)]
pub enum Mode<'a> {
    Plain,
    Traced(&'a Tracer),
}

impl<'a> Mode<'a> {
    pub fn tracer(self) -> Option<&'a Tracer> {
        match self {
            Mode::Plain => None,
            Mode::Traced(t) => Some(t),
        }
    }
}

/// Offset applied to each layer's default seed. Seed 0 maps to offset 0,
/// so it reproduces the figure registry's own inputs.
pub fn derive_seed(seed: u64) -> u64 {
    seed.wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

const WORKLOADS: [&str; 4] = ["sim-solo", "sim-multi", "native-update", "native-snapshot"];

/// End-to-end metrics, reported by every workload with tracing off.
const END_TO_END: [(&str, &str); 2] = [("ops_per_s", "1/s"), ("setup_s", "s")];

/// Per-layer metrics, reported by every workload with tracing on (0 where
/// the workload does not exercise the layer).
const PER_LAYER: [(&str, &str); 48] = [
    ("sim.host_ns_per_op", "ns"),
    ("sim.mem_ops", "count"),
    ("sim.mcycles", "Mcycles"),
    ("sim.l1_miss_rate", "fraction"),
    ("sim.mem_accesses", "count"),
    ("sim.back_invalidations", "count"),
    ("sim.prefetch_fills", "count"),
    ("sim.marked_lost.capacity", "count"),
    ("sim.marked_lost.conflict", "count"),
    ("sim.mark_filter_rate", "fraction"),
    ("core.cycles.tls", "Mcycles"),
    ("core.cycles.read_barrier", "Mcycles"),
    ("core.cycles.write_barrier", "Mcycles"),
    ("core.cycles.validate", "Mcycles"),
    ("core.cycles.commit", "Mcycles"),
    ("core.cycles.contention", "Mcycles"),
    ("core.cycles.app", "Mcycles"),
    ("core.attempts_per_commit", "ratio"),
    ("core.aborts.conflict", "count"),
    ("core.aborts.mark_dirty", "count"),
    ("core.read_fast_frac", "fraction"),
    ("core.validations_skipped_frac", "fraction"),
    ("core.aggressive_commit_frac", "fraction"),
    ("core.mcycles", "Mcycles"),
    ("core.host_s", "s"),
    ("htm.mcycles", "Mcycles"),
    ("htm.host_s", "s"),
    ("locks.mcycles", "Mcycles"),
    ("locks.host_s", "s"),
    ("workloads.cell_s.p50", "s"),
    ("workloads.cell_s.max", "s"),
    ("workloads.populate_s", "s"),
    ("workloads.warmup_s", "s"),
    ("native.update_ns.p50", "ns"),
    ("native.update_ns.p99", "ns"),
    ("native.read_ns.p50", "ns"),
    ("native.read_ns.p99", "ns"),
    ("native.attempts_per_commit", "ratio"),
    ("native.aborts.conflict", "count"),
    ("native.aborts.filter_stale", "count"),
    ("native.fast_read_frac", "fraction"),
    ("native.filter_retained", "count"),
    ("native.snapshot_reads_per_ro", "ratio"),
    ("native.ro_aborts", "count"),
    ("native.versions_published", "count"),
    ("native.versions_reclaimed", "count"),
    ("trace.overhead_frac", "fraction"),
    ("trace.spans", "count"),
];

const USAGE: &str =
    "usage: hastm-benchmark --workload <sim-solo|sim-multi|native-update|native-snapshot|all> \
[--seed N] [--seconds S] [--trace 0|1] | --check-registry";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

enum Command {
    Run(Args),
    CheckRegistry,
}

fn parse(mut it: impl Iterator<Item = String>) -> Result<Command, String> {
    let mut workload = None;
    let mut seed = 0u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    while let Some(flag) = it.next() {
        if flag == "--check-registry" {
            return Ok(Command::CheckRegistry);
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                if value != "all" && !WORKLOADS.contains(&value.as_str()) {
                    return Err(format!("unknown workload {value}"));
                }
                workload = Some(value);
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && *s <= 3600.0)
                    .ok_or(format!("bad seconds {value} (want 0 < S <= 3600)"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value} (want 0 or 1)")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Command::Run(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    }))
}

fn run_one(name: &str, args: &Args, mode: Mode<'_>) -> Outcome {
    let (seed, seconds) = (args.seed, args.seconds);
    match name {
        "sim-solo" => sim::run(1, seed, seconds, mode),
        "sim-multi" => sim::run(2, seed, seconds, mode),
        "native-update" => native::run(&native::UPDATE, seed, seconds, mode),
        "native-snapshot" => native::run(&native::SNAPSHOT, seed, seconds, mode),
        _ => unreachable!("workload names are checked when parsed"),
    }
}

/// Runs one workload and prints its report.
fn bench(name: &str, args: &Args) {
    let tracer = args.trace.then(Tracer::new);
    let mode = tracer.as_ref().map_or(Mode::Plain, Mode::Traced);
    let mut out = run_one(name, args, mode);

    let listed: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    if let Some(tr) = &tracer {
        let json = tr.chrome_json();
        let valid = match hastm_sim::validate_chrome_trace(&json) {
            Ok(events) => events,
            Err(e) => {
                out.fail(0, format!("trace rejected by validate_chrome_trace: {e}"));
                0
            }
        };
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = dir.join(format!("trace-{name}.json"));
        if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, &json)) {
            out.fail(0, format!("cannot write {}: {e}", path.display()));
        }
        println!("trace {} ({valid} events)", path.display());
        out.metrics
            .push(report::metric("trace.spans", tr.len() as f64, "count"));
    }
    for m in &out.metrics {
        assert!(
            listed.iter().any(|(n, u)| *n == m.name && *u == m.unit),
            "metric {} [{}] is not declared",
            m.name,
            m.unit
        );
    }
    let metrics: Vec<Metric> = listed
        .iter()
        .map(|&(name, unit)| {
            let value = out
                .metrics
                .iter()
                .find(|m| m.name == name)
                .map_or(0.0, |m| m.value);
            report::metric(name, if value.is_finite() { value } else { 0.0 }, unit)
        })
        .collect();

    let correct = out.failed == 0 && out.errors.is_empty() && out.attempted > 0;
    println!(
        "meta {{\"workload\":\"{name}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"reps\":{},\"host_cpus\":{},\"revision\":\"{}\",\"sim_scale\":\"{:?}\",\"native_threads\":{}}}",
        args.seed,
        args.seconds,
        u8::from(args.trace),
        out.reps,
        host_cpus(),
        report::revision(),
        sim::SCALE,
        native::THREADS,
    );
    for m in metrics.iter().chain(&out.info) {
        println!("{:<32} {:>18.6} {}", m.name, m.value, m.unit);
    }
    println!(
        "{:<32} {:>18.6} fraction ({} of {} failed)",
        "error_rate",
        report::frac(out.failed, out.attempted),
        out.failed,
        out.attempted
    );
    for e in out.errors.iter().take(20) {
        eprintln!("check failed: {e}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.attempted,
        out.failed,
        body.join(",")
    );
}

fn main() -> ExitCode {
    let cmd = match parse(std::env::args().skip(1)) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match cmd {
        Command::CheckRegistry => {
            for cores in [1, 2] {
                match sim::check_registry(cores) {
                    Ok(n) => println!("{n} {cores}-core cells match figures::run_cell at seed 0"),
                    Err(e) => {
                        eprintln!("error: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            ExitCode::SUCCESS
        }
        Command::Run(args) => {
            let names: Vec<&str> = if args.workload == "all" {
                WORKLOADS.to_vec()
            } else {
                vec![args.workload.as_str()]
            };
            // A failed output check is reported as `"correct":false` in the
            // result, not through the exit code.
            for name in names {
                bench(name, &args);
            }
            ExitCode::SUCCESS
        }
    }
}
