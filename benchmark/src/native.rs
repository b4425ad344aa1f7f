//! The native workloads: a closed loop of map transactions on host
//! threads over the TL2 backend, driven through `NativeRuntime` and
//! `NativeExec::atomic`/`atomic_ro` on a `hastm_workloads::AnyMap`.
//!
//! Each repetition builds a fresh runtime, populates the map, spawns the
//! threads and warms them up (the set-up), then starts the clock when
//! the threads leave a barrier and stops it when the last one finishes.

use std::hint::black_box;
use std::sync::Barrier;
use std::time::{Duration, Instant};

use hastm::{TmExec, Versioning};
use hastm_native::{NativeConfig, NativeExec, NativeRuntime, NativeStats};
use hastm_workloads::{AnyMap, HashTable, NativeWorkloadConfig, Structure, TxMap};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::report::{frac, median, metric, peak_rss_mib, quantile, Metric, Outcome};
use crate::trace::{Span, Tracer};
use crate::{derive_seed, Mode};

/// Host threads (the 2-CPU host's `nproc`).
pub const THREADS: usize = 2;
/// Measured transactions per thread per repetition.
const OPS_PER_THREAD: usize = 200_000;
/// Warm-up transactions per thread (a quarter, as the workload drivers do).
const WARM_OPS: usize = OPS_PER_THREAD / 4;
/// In a traced repetition, every `LATENCY_EVERY`-th call is timed ...
const LATENCY_EVERY: usize = 8;
/// ... and every `SPAN_EVERY`-th call also becomes a span.
const SPAN_EVERY: usize = 4096;

/// A transaction mix over the paper-default hash table.
pub struct Mix {
    pub update_pct: u32,
    /// Lookups go through `atomic_ro` (snapshot reads under `Multi`).
    pub ro_reads: bool,
    pub versioning: Versioning,
}

/// 20 % updates, one version per word.
pub const UPDATE: Mix = Mix {
    update_pct: 20,
    ro_reads: false,
    versioning: Versioning::Single,
};

/// 4 % updates, lookups as snapshot reads over 3-deep version rings.
pub const SNAPSHOT: Mix = Mix {
    update_pct: 4,
    ro_reads: true,
    versioning: Versioning::Multi { k: 3 },
};

#[derive(Copy, Clone)]
enum Op {
    Insert(u64),
    Remove(u64),
    Lookup(u64),
}

/// The shape of the paper-default native workload the mixes start from.
fn base() -> NativeWorkloadConfig {
    NativeWorkloadConfig::paper_default(Structure::HashTable, THREADS)
}

/// One thread's op stream, with the same seed derivations and op roll as
/// the native workload driver.
fn gen_ops(mix: &Mix, seed: u64, n: usize) -> Vec<Op> {
    let key_range = base().key_range;
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let key = rng.gen_range(0..key_range);
            let roll: u32 = rng.gen_range(0..100);
            if roll < mix.update_pct / 2 {
                Op::Insert(key)
            } else if roll < mix.update_pct {
                Op::Remove(key)
            } else {
                Op::Lookup(key)
            }
        })
        .collect()
}

/// Successful inserts and removes as the ops returned them.
#[derive(Default)]
struct Counts {
    inserted: u64,
    removed: u64,
    lookups: u64,
}

#[inline]
fn apply(ex: &mut NativeExec<'_>, map: AnyMap, op: Op, ro_reads: bool, n: &mut Counts) {
    match op {
        Op::Insert(k) => n.inserted += u64::from(ex.atomic(|ctx| map.insert(ctx, k, k ^ 0xff))),
        Op::Remove(k) => n.removed += u64::from(ex.atomic(|ctx| map.remove(ctx, k))),
        Op::Lookup(k) => {
            n.lookups += 1;
            if ro_reads {
                black_box(ex.atomic_ro(|ctx| map.get(ctx, k)));
            } else {
                black_box(ex.atomic(|ctx| map.get(ctx, k)));
            }
        }
    }
}

/// What one worker thread measured.
struct ThreadOut {
    start: Instant,
    end: Instant,
    counts: Counts,
    issued: u64,
    /// Lookups among the measured transactions.
    lookups: u64,
    delta: NativeStats,
    update_ns: Vec<u32>,
    read_ns: Vec<u32>,
    spans: Vec<Span>,
}

/// What one repetition measured.
struct Rep {
    traced: bool,
    setup_s: f64,
    populate_s: f64,
    warmup_s: f64,
    txns_per_s: f64,
    stats: NativeStats,
    update_ns: Vec<u32>,
    read_ns: Vec<u32>,
}

fn delta(after: &NativeStats, before: &NativeStats) -> NativeStats {
    NativeStats {
        commits: after.commits - before.commits,
        aborts_conflict: after.aborts_conflict - before.aborts_conflict,
        aborts_filter_stale: after.aborts_filter_stale - before.aborts_filter_stale,
        fast_reads: after.fast_reads - before.fast_reads,
        slow_reads: after.slow_reads - before.slow_reads,
        filter_retained: after.filter_retained - before.filter_retained,
        ro_commits: after.ro_commits - before.ro_commits,
        ro_aborts: after.ro_aborts - before.ro_aborts,
        snapshot_reads: after.snapshot_reads - before.snapshot_reads,
        versions_published: after.versions_published - before.versions_published,
        versions_reclaimed: after.versions_reclaimed - before.versions_reclaimed,
        serial_commits: after.serial_commits - before.serial_commits,
        phase_transitions: after.phase_transitions - before.phase_transitions,
    }
}

#[allow(clippy::too_many_arguments)]
fn worker(
    rt: &NativeRuntime,
    map: AnyMap,
    mix: &Mix,
    warm: &[Op],
    ops: &[Op],
    barrier: &Barrier,
    tid: usize,
    tracer: Option<(&Tracer, u64)>,
) -> ThreadOut {
    let mut ex = NativeExec::new(rt);
    let mut counts = Counts::default();
    let warm_start = Instant::now();
    for &op in warm {
        apply(&mut ex, map, op, mix.ro_reads, &mut counts);
    }
    let warm_end = Instant::now();
    let before = ex.stats().clone();
    let warm_lookups = counts.lookups;
    barrier.wait();
    let start = Instant::now();
    let mut update_ns = Vec::new();
    let mut read_ns = Vec::new();
    let mut spans = Vec::new();
    let end = match tracer {
        None => {
            for &op in ops {
                apply(&mut ex, map, op, mix.ro_reads, &mut counts);
            }
            Instant::now()
        }
        Some((tr, rep_id)) => {
            let loop_id = tr.id();
            update_ns.reserve(ops.len() / LATENCY_EVERY + 1);
            read_ns.reserve(ops.len() / LATENCY_EVERY + 1);
            for (i, &op) in ops.iter().enumerate() {
                if i % LATENCY_EVERY != 0 {
                    apply(&mut ex, map, op, mix.ro_reads, &mut counts);
                    continue;
                }
                let t0 = Instant::now();
                apply(&mut ex, map, op, mix.ro_reads, &mut counts);
                let t1 = Instant::now();
                let ns = u32::try_from((t1 - t0).as_nanos()).unwrap_or(u32::MAX);
                let (name, sink) = match op {
                    Op::Lookup(_) if mix.ro_reads => ("native::atomic_ro", &mut read_ns),
                    Op::Lookup(_) => ("native::atomic", &mut read_ns),
                    _ => ("native::atomic", &mut update_ns),
                };
                sink.push(ns);
                if i % SPAN_EVERY == 0 {
                    spans.push(tr.span(name, String::new(), tid + 1, t0, t1, tr.id(), loop_id));
                }
            }
            let end = Instant::now();
            let detail = format!("{} txns", ops.len());
            spans.push(tr.span(
                "native::measured_loop",
                detail,
                tid + 1,
                start,
                end,
                loop_id,
                rep_id,
            ));
            let detail = format!("{} txns", warm.len());
            let warm_id = tr.id();
            spans.push(tr.span(
                "native::warmup",
                detail,
                tid + 1,
                warm_start,
                warm_end,
                warm_id,
                rep_id,
            ));
            end
        }
    };
    ThreadOut {
        start,
        end,
        issued: ops.len() as u64,
        lookups: counts.lookups - warm_lookups,
        counts,
        delta: delta(ex.stats(), &before),
        update_ns,
        read_ns,
        spans,
    }
}

/// One repetition: set up, measure, check. Check failures are charged to
/// `out` as failed transactions.
fn rep(mix: &Mix, seed: u64, tracer: Option<&Tracer>, index: usize, out: &mut Outcome) -> Rep {
    let t0 = Instant::now();
    let rep_id = tracer.map_or(0, Tracer::id);
    // Inputs: per-thread warm-up and measured streams.
    let streams: Vec<(Vec<Op>, Vec<Op>)> = (0..THREADS)
        .map(|tid| {
            let tid = tid as u64;
            (
                gen_ops(mix, seed ^ 0xaaaa ^ tid << 17, WARM_OPS),
                gen_ops(mix, seed ^ tid.wrapping_mul(0x9e37), OPS_PER_THREAD),
            )
        })
        .collect();

    // Runtime and map, populated on this thread exactly as the native
    // workload driver does.
    let populate_start = Instant::now();
    let cfg = base();
    let rt = NativeRuntime::new(NativeConfig {
        versioning: mix.versioning,
        ..NativeConfig::default()
    });
    let mut ex = NativeExec::new(&rt);
    let buckets = (cfg.key_range / 2).next_power_of_two().clamp(64, 8192) as u32;
    let map = ex.atomic(|ctx| Ok(AnyMap::Hash(HashTable::create(ctx, buckets))));
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9);
    let mut inserted = 0;
    while inserted < cfg.prepopulate {
        let key = rng.gen_range(0..cfg.key_range);
        if ex.atomic(|ctx| map.insert(ctx, key, key.wrapping_mul(7))) {
            inserted += 1;
        }
    }
    let populated = Instant::now();
    if let Some(tr) = tracer {
        let detail = format!("{} keys", cfg.prepopulate);
        tr.record(tr.span(
            "native::populate",
            detail,
            0,
            populate_start,
            populated,
            tr.id(),
            rep_id,
        ));
    }

    let barrier = Barrier::new(THREADS);
    let threads: Vec<ThreadOut> = std::thread::scope(|s| {
        let handles: Vec<_> = streams
            .iter()
            .enumerate()
            .map(|(tid, (warm, ops))| {
                let (rt, barrier) = (&rt, &barrier);
                let tr = tracer.map(|t| (t, rep_id));
                s.spawn(move || worker(rt, map, mix, warm, ops, barrier, tid, tr))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("native worker panicked"))
            .collect()
    });
    let start = threads.iter().map(|t| t.start).min().expect("threads ran");
    let end = threads.iter().map(|t| t.end).max().expect("threads ran");
    let final_len = ex.atomic(|ctx| map.len(ctx));

    let mut stats = NativeStats::default();
    let mut counts = Counts::default();
    let (mut issued, mut lookups) = (0, 0);
    let (mut update_ns, mut read_ns) = (Vec::new(), Vec::new());
    for t in threads {
        stats.merge(&t.delta);
        counts.inserted += t.counts.inserted;
        counts.removed += t.counts.removed;
        issued += t.issued;
        lookups += t.lookups;
        update_ns.extend(t.update_ns);
        read_ns.extend(t.read_ns);
        if let Some(tr) = tracer {
            tr.extend(t.spans);
        }
    }
    if let Some(tr) = tracer {
        tr.record(tr.span(
            "bench::native_rep",
            format!("rep {index}"),
            0,
            t0,
            Instant::now(),
            rep_id,
            0,
        ));
    }

    // Output checks.
    out.attempted += issued;
    let expected_len = cfg.prepopulate + counts.inserted - counts.removed;
    let mut problems = Vec::new();
    if stats.commits != issued {
        problems.push(format!(
            "{} commits for {issued} issued txns",
            stats.commits
        ));
    }
    if final_len != expected_len {
        problems.push(format!(
            "final size {final_len}, expected {} + {} inserted - {} removed = {expected_len}",
            cfg.prepopulate, counts.inserted, counts.removed
        ));
    }
    if mix.ro_reads && rt.is_multi() {
        if stats.ro_aborts != 0 {
            problems.push(format!("{} read-only aborts", stats.ro_aborts));
        }
        if stats.ro_commits != lookups {
            problems.push(format!(
                "{} snapshot commits for {lookups} lookups",
                stats.ro_commits
            ));
        }
    }
    if !problems.is_empty() {
        out.fail(issued, format!("rep {index}: {}", problems.join("; ")));
    }

    Rep {
        traced: tracer.is_some(),
        setup_s: (start - t0).as_secs_f64(),
        populate_s: (populated - populate_start).as_secs_f64(),
        warmup_s: (start - populated).as_secs_f64(),
        txns_per_s: issued as f64 / (end - start).as_secs_f64(),
        stats,
        update_ns,
        read_ns,
    }
}

/// Runs repetitions of `mix` for about `seconds`.
pub fn run(mix: &Mix, seed: u64, seconds: f64, mode: Mode<'_>) -> Outcome {
    let seed = base().seed ^ derive_seed(seed);
    let tracer = mode.tracer();
    let min_reps = if tracer.is_some() { 2 } else { 1 };
    let budget = Duration::from_secs_f64(seconds);
    let begin = Instant::now();
    let mut out = Outcome::default();
    let mut reps: Vec<Rep> = Vec::new();
    loop {
        // Traced runs alternate traced and untraced repetitions.
        let traced = tracer.filter(|_| reps.len().is_multiple_of(2));
        reps.push(rep(mix, seed, traced, reps.len(), &mut out));
        let elapsed = begin.elapsed();
        let per_rep = elapsed / reps.len() as u32;
        if reps.len() >= min_reps && elapsed + per_rep > budget {
            break;
        }
    }
    out.reps = reps.len();

    let of = |traced: bool, f: &dyn Fn(&Rep) -> f64| -> Vec<f64> {
        reps.iter().filter(|r| r.traced == traced).map(f).collect()
    };
    let untraced_rate = of(false, &|r| r.txns_per_s);
    out.info = vec![
        metric("ops_per_s.min", quantile(&untraced_rate, 0.0), "1/s"),
        metric("ops_per_s.max", quantile(&untraced_rate, 1.0), "1/s"),
        metric("peak_rss_mib", peak_rss_mib(), "MiB"),
    ];
    out.metrics = match mode {
        Mode::Plain => vec![
            metric("ops_per_s", median(&untraced_rate), "1/s"),
            metric("setup_s", median(&of(false, &|r| r.setup_s)), "s"),
        ],
        Mode::Traced(_) => {
            let traced: Vec<&Rep> = reps.iter().filter(|r| r.traced).collect();
            let mut m = layer_metrics(&traced);
            m.push(metric(
                "workloads.populate_s",
                median(&of(true, &|r| r.populate_s)),
                "s",
            ));
            m.push(metric(
                "workloads.warmup_s",
                median(&of(true, &|r| r.warmup_s)),
                "s",
            ));
            m.push(metric(
                "trace.overhead_frac",
                1.0 - median(&of(true, &|r| r.txns_per_s)) / median(&untraced_rate),
                "fraction",
            ));
            m
        }
    };
    out
}

/// Percentile `q` of nanosecond samples (nearest rank).
fn percentile(xs: &mut [u32], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_unstable();
    let rank = ((q * xs.len() as f64).ceil() as usize).clamp(1, xs.len());
    f64::from(xs[rank - 1])
}

/// Per-layer metrics of the traced repetitions. Counts are medians per
/// repetition (each repetition issues the same fixed number of
/// transactions); ratios pool every traced repetition.
fn layer_metrics(traced: &[&Rep]) -> Vec<Metric> {
    let per_rep = |f: &dyn Fn(&NativeStats) -> u64| -> f64 {
        median(
            &traced
                .iter()
                .map(|r| f(&r.stats) as f64)
                .collect::<Vec<_>>(),
        )
    };
    let mut all = NativeStats::default();
    let (mut update_ns, mut read_ns) = (Vec::new(), Vec::new());
    for r in traced {
        all.merge(&r.stats);
        update_ns.extend_from_slice(&r.update_ns);
        read_ns.extend_from_slice(&r.read_ns);
    }
    vec![
        metric(
            "native.update_ns.p50",
            percentile(&mut update_ns, 0.50),
            "ns",
        ),
        metric(
            "native.update_ns.p99",
            percentile(&mut update_ns, 0.99),
            "ns",
        ),
        metric("native.read_ns.p50", percentile(&mut read_ns, 0.50), "ns"),
        metric("native.read_ns.p99", percentile(&mut read_ns, 0.99), "ns"),
        metric(
            "native.attempts_per_commit",
            frac(all.commits + all.aborts(), all.commits),
            "ratio",
        ),
        metric(
            "native.aborts.conflict",
            per_rep(&|s| s.aborts_conflict),
            "count",
        ),
        metric(
            "native.aborts.filter_stale",
            per_rep(&|s| s.aborts_filter_stale),
            "count",
        ),
        metric(
            "native.fast_read_frac",
            frac(all.fast_reads, all.fast_reads + all.slow_reads),
            "fraction",
        ),
        metric(
            "native.filter_retained",
            per_rep(&|s| s.filter_retained),
            "count",
        ),
        metric(
            "native.snapshot_reads_per_ro",
            frac(all.snapshot_reads, all.ro_commits),
            "ratio",
        ),
        metric("native.ro_aborts", per_rep(&|s| s.ro_aborts), "count"),
        metric(
            "native.versions_published",
            per_rep(&|s| s.versions_published),
            "count",
        ),
        metric(
            "native.versions_reclaimed",
            per_rep(&|s| s.versions_reclaimed),
            "count",
        ),
    ]
}
