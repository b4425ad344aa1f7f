//! The simulator workloads: every distinct cell of the figure registry
//! with a given core count, run one at a time through the workloads
//! layer's public entry points (`run_workload`, `run_kernel`).

use std::collections::HashMap;
use std::time::{Duration, Instant};

use hastm::{Granularity, ModePolicy, TxnStats};
use hastm_bench::{Cell, CellOutput, MachinePreset, Scale, FIGURES};
use hastm_sim::RunReport;
use hastm_workloads::{
    generate_stream, run_kernel, run_workload, KernelParams, KernelStream, Scheme, Structure,
    WorkloadConfig,
};

use crate::report::{frac, median, metric, peak_rss_mib, quantile, Metric, Outcome};
use crate::trace::Tracer;
use crate::{derive_seed, Mode};

/// Experiment scale of the registry cells: the CI scale, so a run holds
/// enough passes for each cell's fastest call to settle.
pub const SCALE: Scale = Scale::Quick;

/// Set-up repetitions per run; `setup_s` is the fastest, as for the
/// cells (each set-up repeats identical work).
const SETUP_REPS: usize = 9;

/// One registry cell with its inputs built from the benchmark seed.
struct Case {
    cell: Cell,
    label: String,
    scheme: Scheme,
    input: Input,
}

enum Input {
    Ds(Box<WorkloadConfig>),
    Kernel(KernelStream),
}

/// What one call returned.
#[derive(Clone, Debug)]
struct CallOut {
    cycles: u64,
    digest: Option<u64>,
    report: RunReport,
    txn: TxnStats,
}

impl CallOut {
    fn mem_ops(&self) -> u64 {
        self.report.total(|c| c.memory_ops())
    }

    /// The facts every pass of a run must reproduce exactly.
    fn fingerprint(&self) -> (u64, Option<u64>, u64) {
        (self.cycles, self.digest, self.mem_ops())
    }
}

/// Timings of one pass over every case.
struct Pass {
    traced: bool,
    host_s: f64,
    mem_ops: u64,
    cell_s: Vec<f64>,
    layer_s: HashMap<&'static str, f64>,
}

impl Pass {
    fn ops_per_s(&self) -> f64 {
        self.mem_ops as f64 / self.host_s
    }
}

/// The registry's distinct cells at [`SCALE`] that run on `cores`
/// simulated cores, in registry order.
pub fn registry_cells(cores: usize) -> Vec<Cell> {
    let mut seen = std::collections::HashSet::new();
    FIGURES
        .iter()
        .flat_map(|f| (f.cells)(SCALE))
        .filter(|c| c.cores() == cores && seen.insert(c.clone()))
        .collect()
}

/// Builds one cell's inputs exactly as `figures::run_cell` does, except
/// that the workload and kernel seeds are offset by the benchmark seed
/// (seed 0 keeps the registry's own seeds).
fn build_case(cell: &Cell, seed: u64) -> Case {
    let input = match *cell {
        Cell::Ds {
            structure,
            scheme,
            threads,
            scale,
            machine,
            size_mult,
        } => {
            let mut cfg = WorkloadConfig::paper_default(structure, scheme, threads);
            cfg.ops_per_thread = (scale.ops() * 4 / threads as u64).max(1);
            cfg.prepopulate = scale.prepopulate() * size_mult;
            cfg.key_range = cfg.prepopulate * 2;
            cfg.granularity = Granularity::CacheLine;
            cfg.machine = machine.config();
            if size_mult > 1 {
                cfg.mode_policy_override = Some(ModePolicy::AbortRatioWatermark { watermark: 0.1 });
            }
            cfg.seed ^= derive_seed(seed);
            Input::Ds(Box::new(cfg))
        }
        Cell::Kernel {
            load_pct,
            miss_pct,
            sections,
            ..
        } => {
            let mut params = KernelParams {
                load_pct,
                load_reuse_pct: 100 - miss_pct,
                store_reuse_pct: 40,
                sections,
                ..KernelParams::default()
            };
            params.seed ^= derive_seed(seed);
            Input::Kernel(generate_stream(&params))
        }
    };
    let scheme = match *cell {
        Cell::Ds { scheme, .. } | Cell::Kernel { scheme, .. } => scheme,
    };
    Case {
        label: cell.label(),
        cell: cell.clone(),
        scheme,
        input,
    }
}

fn call(case: &Case) -> CallOut {
    match &case.input {
        Input::Ds(cfg) => {
            let r = run_workload(cfg);
            CallOut {
                cycles: r.cycles,
                digest: Some(r.digest),
                report: r.report,
                txn: r.txn,
            }
        }
        Input::Kernel(stream) => {
            let r = run_kernel(case.scheme, stream);
            CallOut {
                cycles: r.cycles,
                digest: None,
                report: r.report,
                txn: r.txn,
            }
        }
    }
}

fn span_name(case: &Case) -> &'static str {
    match case.input {
        Input::Ds(_) => "workloads::run_workload",
        Input::Kernel(_) => "workloads::run_kernel",
    }
}

/// The layer a scheme's transactions run in (`None` for sequential).
fn layer(scheme: Scheme) -> Option<&'static str> {
    match scheme {
        Scheme::Sequential => None,
        Scheme::Lock => Some("locks"),
        Scheme::Hytm => Some("htm"),
        Scheme::Stm
        | Scheme::HastmCautious
        | Scheme::Hastm
        | Scheme::HastmNoReuse
        | Scheme::NaiveAggressive => Some("core"),
    }
}

/// Set-up: enumerate the registry, build every cell's inputs (including
/// the kernel streams) and make one warm-up call of the first cell.
fn setup(cores: usize, seed: u64) -> (Vec<Case>, CallOut) {
    let cases: Vec<Case> = registry_cells(cores)
        .iter()
        .map(|c| build_case(c, seed))
        .collect();
    assert!(!cases.is_empty(), "no {cores}-core cells in the registry");
    let warm = call(&cases[0]);
    (cases, warm)
}

/// Runs the `cores`-core registry cells in passes for about `seconds`.
pub fn run(cores: usize, seed: u64, seconds: f64, mode: Mode<'_>) -> Outcome {
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut built = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let s = setup(cores, seed);
        setup_s.push(t.elapsed().as_secs_f64());
        built = Some(s);
    }
    let (cases, warm) = built.expect("at least one set-up");

    let tracer = mode.tracer();
    let min_passes = if tracer.is_some() { 2 } else { 1 };
    let budget = Duration::from_secs_f64(seconds);
    let begin = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    let mut first: Vec<CallOut> = Vec::new();
    let mut out = Outcome::default();
    loop {
        // Traced runs alternate traced and untraced passes (traced first)
        // so the untraced ones price the tracing.
        let traced = tracer.is_some() && passes.len().is_multiple_of(2);
        let pass_id = tracer.map_or(0, Tracer::id);
        let pass_start = Instant::now();
        let mut pass = Pass {
            traced,
            host_s: 0.0,
            mem_ops: 0,
            cell_s: Vec::with_capacity(cases.len()),
            layer_s: HashMap::new(),
        };
        for (i, case) in cases.iter().enumerate() {
            let t0 = Instant::now();
            let res = call(case);
            let t1 = Instant::now();
            let dt = (t1 - t0).as_secs_f64();
            if let (true, Some(tr)) = (traced, tracer) {
                tr.record(tr.span(
                    span_name(case),
                    case.label.clone(),
                    0,
                    t0,
                    t1,
                    tr.id(),
                    pass_id,
                ));
            }
            pass.host_s += dt;
            pass.mem_ops += res.mem_ops();
            pass.cell_s.push(dt);
            if let Some(l) = layer(case.scheme) {
                *pass.layer_s.entry(l).or_default() += dt;
            }
            out.attempted += 1;
            match first.get(i) {
                None => first.push(res),
                Some(f) if f.fingerprint() != res.fingerprint() => out.fail(
                    1,
                    format!(
                        "{}: pass {} gave (cycles, digest, mem ops) {:?}, pass 0 gave {:?}",
                        case.label,
                        passes.len(),
                        res.fingerprint(),
                        f.fingerprint()
                    ),
                ),
                Some(_) => {}
            }
        }
        if let (true, Some(tr)) = (traced, tracer) {
            let detail = format!("pass {}", passes.len());
            tr.record(tr.span(
                "bench::sim_pass",
                detail,
                0,
                pass_start,
                Instant::now(),
                pass_id,
                0,
            ));
        }
        passes.push(pass);
        let elapsed = begin.elapsed();
        let per_pass = elapsed / passes.len() as u32;
        if passes.len() >= min_passes && elapsed + per_pass > budget {
            break;
        }
    }
    out.reps = passes.len();

    check(&cases, &first, &warm, &mut out);

    let untraced: Vec<f64> = passes
        .iter()
        .filter(|p| !p.traced)
        .map(Pass::ops_per_s)
        .collect();
    let mem_ops: u64 = first.iter().map(CallOut::mem_ops).sum();
    match mode {
        Mode::Plain => {
            // Every pass repeats the same work exactly (the checks above
            // compare fingerprints), so each cell's fastest call is its
            // least-disturbed time; summing those resists the host's slow
            // drift better than a median over whole passes.
            let best_s: f64 = (0..cases.len())
                .map(|i| {
                    passes
                        .iter()
                        .map(|p| p.cell_s[i])
                        .fold(f64::INFINITY, f64::min)
                })
                .sum();
            out.metrics = vec![
                metric("ops_per_s", mem_ops as f64 / best_s, "1/s"),
                metric("setup_s", quantile(&setup_s, 0.0), "s"),
            ];
        }
        Mode::Traced(_) => {
            let traced: Vec<&Pass> = passes.iter().filter(|p| p.traced).collect();
            let traced_rate: Vec<f64> = traced.iter().map(|p| p.ops_per_s()).collect();
            out.metrics = layer_metrics(&cases, &first, &traced);
            out.metrics.push(metric(
                "trace.overhead_frac",
                1.0 - median(&traced_rate) / median(&untraced),
                "fraction",
            ));
        }
    }
    let cycles: u64 = first.iter().map(|o| o.cycles).sum();
    out.info = vec![
        metric("sim_mcycles", cycles as f64 / 1e6, "Mcycles"),
        metric("sim_mem_ops", mem_ops as f64, "count"),
        metric("cells", cases.len() as f64, "count"),
        metric("peak_rss_mib", peak_rss_mib(), "MiB"),
        metric("pass_ops_per_s.p50", median(&untraced), "1/s"),
        metric("pass_ops_per_s.min", quantile(&untraced, 0.0), "1/s"),
        metric("pass_ops_per_s.max", quantile(&untraced, 1.0), "1/s"),
    ];
    out
}

/// Output checks: the warm-up call matches pass 0, and every one-core
/// data-structure cell ends in the same map state (digest) as the
/// sequential scheme on the same stream.
fn check(cases: &[Case], first: &[CallOut], warm: &CallOut, out: &mut Outcome) {
    if warm.fingerprint() != first[0].fingerprint() {
        out.fail(
            1,
            format!(
                "{}: warm-up call gave {:?}, pass 0 gave {:?}",
                cases[0].label,
                warm.fingerprint(),
                first[0].fingerprint()
            ),
        );
    }
    type Key = (Structure, MachinePreset, u64);
    let key = |c: &Cell| -> Option<Key> {
        match *c {
            Cell::Ds {
                structure,
                threads: 1,
                machine,
                size_mult,
                ..
            } => Some((structure, machine, size_mult)),
            _ => None,
        }
    };
    let mut reference: HashMap<Key, u64> = HashMap::new();
    for (case, res) in cases.iter().zip(first) {
        if let (Scheme::Sequential, Some(k), Some(d)) = (case.scheme, key(&case.cell), res.digest) {
            reference.insert(k, d);
        }
    }
    for (case, res) in cases.iter().zip(first) {
        let (Some(k), Input::Ds(cfg)) = (key(&case.cell), &case.input) else {
            continue;
        };
        let want = *reference.entry(k).or_insert_with(|| {
            // No sequential twin in the registry: run one.
            let mut seq = cfg.clone();
            seq.scheme = Scheme::Sequential;
            run_workload(&seq).digest
        });
        if res.digest != Some(want) {
            out.fail(
                1,
                format!(
                    "{}: digest {:?} differs from the sequential digest {want}",
                    case.label, res.digest
                ),
            );
        }
    }
}

/// Per-layer metrics of the traced passes. Counters are exact and come
/// from pass 0 (every pass reproduces them); host times are medians over
/// the traced passes.
fn layer_metrics(cases: &[Case], first: &[CallOut], traced: &[&Pass]) -> Vec<Metric> {
    let sum = |f: &dyn Fn(&CallOut) -> u64| -> u64 { first.iter().map(f).sum() };
    let core = |f: &dyn Fn(&hastm_sim::CoreStats) -> u64| -> u64 {
        first.iter().map(|o| o.report.total(f)).sum()
    };
    let tx = |f: &dyn Fn(&TxnStats) -> u64| -> u64 { first.iter().map(|o| f(&o.txn)).sum() };
    let bd =
        |f: &dyn Fn(&hastm::TimeBreakdown) -> u64| -> f64 { tx(&|t| f(&t.breakdown)) as f64 / 1e6 };

    let mem_ops = sum(&|o| o.mem_ops());
    let l1_hits = core(&|c| c.l1_hits);
    let l1_misses = core(&|c| c.l1_misses);
    let commits = tx(&|t| t.commits);
    let aborts =
        tx(&|t| t.aborts_conflict + t.aborts_mark_dirty + t.aborts_retry + t.aborts_explicit);
    let fast = tx(&|t| t.read_fast_path);
    let slow = tx(&|t| t.read_slow_path);
    let skipped = tx(&|t| t.validations_skipped);
    let full = tx(&|t| t.validations_full);
    let aggressive = tx(&|t| t.aggressive_commits);
    let cautious = tx(&|t| t.cautious_commits);

    let host_ns: Vec<f64> = traced
        .iter()
        .map(|p| p.host_s * 1e9 / mem_ops as f64)
        .collect();
    let cell_s: Vec<f64> = traced
        .iter()
        .flat_map(|p| p.cell_s.iter().copied())
        .collect();
    let layer_mcycles = |l: &str| -> f64 {
        cases
            .iter()
            .zip(first)
            .filter(|(c, _)| layer(c.scheme) == Some(l))
            .map(|(_, o)| o.cycles)
            .sum::<u64>() as f64
            / 1e6
    };
    let layer_host = |l: &str| -> f64 {
        let xs: Vec<f64> = traced
            .iter()
            .map(|p| p.layer_s.get(l).copied().unwrap_or(0.0))
            .collect();
        median(&xs)
    };

    let mut m = vec![
        metric("sim.host_ns_per_op", median(&host_ns), "ns"),
        metric("sim.mem_ops", mem_ops as f64, "count"),
        metric("sim.mcycles", sum(&|o| o.cycles) as f64 / 1e6, "Mcycles"),
        metric(
            "sim.l1_miss_rate",
            frac(l1_misses, l1_hits + l1_misses),
            "fraction",
        ),
        metric(
            "sim.mem_accesses",
            core(&|c| c.mem_accesses) as f64,
            "count",
        ),
        metric(
            "sim.back_invalidations",
            sum(&|o| o.report.machine.back_invalidations) as f64,
            "count",
        ),
        metric(
            "sim.prefetch_fills",
            core(&|c| c.prefetch_fills) as f64,
            "count",
        ),
        metric(
            "sim.marked_lost.capacity",
            core(&|c| c.marked_lost_capacity) as f64,
            "count",
        ),
        metric(
            "sim.marked_lost.conflict",
            core(&|c| c.marked_lost_conflict) as f64,
            "count",
        ),
        metric(
            "sim.mark_filter_rate",
            frac(core(&|c| c.mark_test_hits), core(&|c| c.mark_tests)),
            "fraction",
        ),
        metric("core.cycles.tls", bd(&|b| b.tls), "Mcycles"),
        metric(
            "core.cycles.read_barrier",
            bd(&|b| b.read_barrier),
            "Mcycles",
        ),
        metric(
            "core.cycles.write_barrier",
            bd(&|b| b.write_barrier),
            "Mcycles",
        ),
        metric("core.cycles.validate", bd(&|b| b.validate), "Mcycles"),
        metric("core.cycles.commit", bd(&|b| b.commit), "Mcycles"),
        metric("core.cycles.contention", bd(&|b| b.contention), "Mcycles"),
        metric("core.cycles.app", bd(&|b| b.app), "Mcycles"),
        metric(
            "core.attempts_per_commit",
            frac(commits + aborts, commits),
            "ratio",
        ),
        metric(
            "core.aborts.conflict",
            tx(&|t| t.aborts_conflict) as f64,
            "count",
        ),
        metric(
            "core.aborts.mark_dirty",
            tx(&|t| t.aborts_mark_dirty) as f64,
            "count",
        ),
        metric("core.read_fast_frac", frac(fast, fast + slow), "fraction"),
        metric(
            "core.validations_skipped_frac",
            frac(skipped, skipped + full),
            "fraction",
        ),
        metric(
            "core.aggressive_commit_frac",
            frac(aggressive, aggressive + cautious),
            "fraction",
        ),
    ];
    for (mc, hs, l) in [
        ("core.mcycles", "core.host_s", "core"),
        ("htm.mcycles", "htm.host_s", "htm"),
        ("locks.mcycles", "locks.host_s", "locks"),
    ] {
        m.push(metric(mc, layer_mcycles(l), "Mcycles"));
        m.push(metric(hs, layer_host(l), "s"));
    }
    m.push(metric("workloads.cell_s.p50", median(&cell_s), "s"));
    m.push(metric("workloads.cell_s.max", quantile(&cell_s, 1.0), "s"));
    m
}

/// Checks that, at seed 0, the benchmark builds every cell exactly as
/// `figures::run_cell` does: same cycles, counters and digest.
pub fn check_registry(cores: usize) -> Result<usize, String> {
    let cells = registry_cells(cores);
    for cell in &cells {
        let case = build_case(cell, 0);
        let ours = call(&case);
        let theirs = hastm_bench::run_cell(cell);
        let same = match &theirs {
            CellOutput::Ds(r) => {
                (r.cycles, Some(r.digest), &r.report, &r.txn)
                    == (ours.cycles, ours.digest, &ours.report, &ours.txn)
            }
            CellOutput::Kernel(r) => {
                (r.cycles, None, &r.report, &r.txn)
                    == (ours.cycles, ours.digest, &ours.report, &ours.txn)
            }
        };
        if !same {
            return Err(format!(
                "{}: benchmark input differs from run_cell",
                case.label
            ));
        }
    }
    Ok(cells.len())
}
