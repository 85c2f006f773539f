//! The untraced run (end-to-end metrics) and the traced run (per-layer
//! metrics) of one workload.

use std::time::Instant;

use hta_core::driver::{RunResult, SystemDriver};
use hta_core::policy::ScaleAction;
use hta_core::whatif::{BranchSpec, WhatIf};
use hta_des::{Duration, SimTime};
use hta_metrics::TimeSeries;
use hta_trace::ArrivalSource;

use crate::harness;
use crate::report::{median, quantile, Metrics};
use crate::spans::{timed, SharedTracer, TimedPolicy, TimedWorld, Tracer};
use crate::workloads::{attempted_tasks, check, Case, Fingerprint, Workload, TRACE_SEED};

/// Set-up batches timed before the first simulation of a run; one more
/// runs before every pass over the cases, so the batches span the whole
/// run and a slow spell of the host at its start cannot decide `setup_s`
/// alone. `setup_s` is the median batch.
const SETUP_BATCHES: usize = 11;

/// Host time one set-up batch should take, so that a batch is long
/// against timer resolution and scheduler noise.
const SETUP_BATCH_S: f64 = 0.03;

/// `advance_until` slices per traced simulation.
const SLICES: u64 = 64;

/// `advance_until` segments per timed repetition of the untraced run. A
/// segment of an open run takes about 0.2 s, short against the host's
/// fast and slow spells; a whole open run (2-3 s) is not.
const SEGMENTS: u64 = 16;

/// Branches the traced run forks at mid-run. HTA forks none, so these
/// probes are what measure the what-if and forecast layers.
const PROBE_BRANCHES: u64 = 8;

/// Counts of operations attempted and failed by one run.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Count one simulation; a failed check is reported on stderr.
    fn record(&mut self, what: &str, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            eprintln!("FAILED {what}: {e}");
            self.failed += 1;
        }
    }
}

/// What one simulation produced, for the simulated metrics.
pub struct Outcome {
    pub fp: Fingerprint,
    pub completed: usize,
    pub attempted_tasks: usize,
    pub makespan_s: f64,
    pub waste_core_s: f64,
    pub shortage_core_s: f64,
    pub supply_core_s: f64,
    /// `∫ tasks_waiting dt` over the run.
    pub waiting_core: f64,
    /// Per-task waits (arrival or submission to start), seconds.
    pub waits: Vec<f64>,
    pub peak_nodes: f64,
    pub peak_workers: f64,
    pub peak_backlog: f64,
    pub running_max: f64,
    pub samples: usize,
    pub task_retries: u64,
    pub msgs_dropped: u64,
    pub wal_replayed: u64,
    pub requeued: u64,
}

impl Outcome {
    fn of(r: &RunResult, arrivals_ms: &[u64]) -> Outcome {
        let rec = &r.recorder;
        let end = rec.end_time_s();
        let waits = if r.arrivals.is_some() {
            fifo_waits(arrivals_ms, &rec.tasks_waiting)
        } else {
            r.task_spans
                .iter()
                .filter_map(|s| s.started_s.map(|t| t - s.submitted_s))
                .collect()
        };
        let f = &r.summary.faults;
        Outcome {
            fp: Fingerprint::of(r),
            completed: r.completed,
            attempted_tasks: attempted_tasks(r),
            makespan_s: r.makespan_s,
            waste_core_s: r.summary.accumulated_waste_core_s,
            shortage_core_s: r.summary.accumulated_shortage_core_s,
            supply_core_s: rec.supply.integral_until(end),
            waiting_core: rec.tasks_waiting.integral_until(end),
            waits,
            peak_nodes: r.summary.peak_nodes,
            peak_workers: r.summary.peak_workers,
            peak_backlog: rec.tasks_waiting.max_value(),
            running_max: rec.tasks_running.max_value(),
            samples: rec.supply.len(),
            task_retries: f.task_retries,
            msgs_dropped: f.msgs_dropped,
            wal_replayed: f.wal_replayed,
            requeued: f.recovery_requeued,
        }
    }
}

/// Per-task queueing delays of an open run, rebuilt from the arrival
/// times and the sampled waiting-queue length: by each sample, arrivals
/// minus waiting tasks have left the queue, and they are attributed in
/// arrival (FIFO) order. Streaming admission retires task records, so
/// the run keeps no per-task spans; this reconstruction has the
/// sampling interval (1 s) as its resolution.
fn fifo_waits(arrivals_ms: &[u64], waiting: &TimeSeries) -> Vec<f64> {
    let mut waits = Vec::with_capacity(arrivals_ms.len());
    let mut arrived = 0usize;
    let mut departed = 0usize;
    for (t, w) in waiting.iter() {
        let t_ms = (t * 1000.0).round() as u64;
        while arrived < arrivals_ms.len() && arrivals_ms[arrived] <= t_ms {
            arrived += 1;
        }
        let left = arrived.saturating_sub(w as usize);
        while departed < left {
            waits.push((t - arrivals_ms[departed] as f64 / 1000.0).max(0.0));
            departed += 1;
        }
    }
    waits
}

/// Arrival instants (ms) of an open workload's fixed trace; empty for
/// closed workloads.
fn arrival_times(w: Workload) -> Vec<u64> {
    let Some(spec) = w.trace_spec() else {
        return Vec::new();
    };
    let mut s = ArrivalSource::synth(spec, TRACE_SEED).expect("valid synth spec");
    let mut out = Vec::new();
    while let Some((at, _)) = s.replay_next() {
        out.push(at.as_millis());
    }
    out
}

fn compare_fp(what: &str, want: Fingerprint, got: Fingerprint) -> Result<(), String> {
    if want == got {
        Ok(())
    } else {
        Err(format!("{what}: fingerprint {got:?} differs from {want:?}"))
    }
}

/// Times building one pass's drivers. One build takes micro- to
/// milliseconds, too short to time alone, so builds are timed in batches
/// of about [`SETUP_BATCH_S`]; each driver is dropped outside the timer
/// right after its build, so every build starts from the same heap.
struct SetupTimer {
    per_batch: usize,
    batches: Vec<f64>,
}

impl SetupTimer {
    fn new(w: Workload, cases: &[Case]) -> SetupTimer {
        let one = Self::pass(w, cases);
        SetupTimer {
            per_batch: ((SETUP_BATCH_S / one.max(1e-9)).ceil() as usize).clamp(1, 100_000),
            batches: Vec::new(),
        }
    }

    fn pass(w: Workload, cases: &[Case]) -> f64 {
        let mut secs = 0.0;
        for c in cases {
            let start = Instant::now();
            let driver = w.build(*c, |p| p);
            secs += start.elapsed().as_secs_f64();
            drop(driver);
        }
        secs
    }

    /// Time one batch and record its host seconds per pass.
    fn batch(&mut self, w: Workload, cases: &[Case]) {
        let total: f64 = (0..self.per_batch).map(|_| Self::pass(w, cases)).sum();
        self.batches.push(total / self.per_batch as f64);
    }
}

/// Peak resident set (`VmHWM`) of this process in MB, or 0 without
/// procfs. One process runs one workload, so the peak is the workload's.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Simulated metrics of one pass (identical on every pass of a seed).
fn simulated(outcomes: &[Outcome], m: &mut Metrics) {
    let n = outcomes.len() as f64;
    let mean = |f: fn(&Outcome) -> f64| outcomes.iter().map(f).sum::<f64>() / n;
    let completed: usize = outcomes.iter().map(|o| o.completed).sum();
    let attempted: usize = outcomes.iter().map(|o| o.attempted_tasks).sum();
    let waits: Vec<f64> = outcomes
        .iter()
        .flat_map(|o| o.waits.iter().copied())
        .collect();
    m.put("makespan_s", mean(|o| o.makespan_s), "s");
    m.put("shortage_core_s", mean(|o| o.shortage_core_s), "core-s");
    m.put("supply_core_s", mean(|o| o.supply_core_s), "core-s");
    m.put(
        "task_wait_mean_s",
        outcomes.iter().map(|o| o.waiting_core).sum::<f64>() / completed.max(1) as f64,
        "s",
    );
    m.put("task_wait_p99_s", quantile(&waits, 0.99), "s");
    m.put(
        "tasks_done_frac",
        completed as f64 / attempted.max(1) as f64,
        "ratio",
    );
}

/// Run one repetition in [`SEGMENTS`] `advance_until` segments, then
/// `run()`, and lower each entry of `fastest` to that part's host
/// seconds. As in the traced run, the segments stop 1 ms short of the
/// case's makespan, so `run()` processes the rest and the fingerprint
/// matches a straight `run()`.
fn segmented_run(
    mut driver: SystemDriver,
    makespan_ms: u64,
    fastest: &mut [f64],
) -> Result<RunResult, String> {
    let stop = makespan_ms.saturating_sub(1);
    for k in 1..=SEGMENTS {
        let t = Instant::now();
        let done = driver.advance_until(SimTime::from_millis(stop * k / SEGMENTS));
        let secs = t.elapsed().as_secs_f64();
        let slot = &mut fastest[k as usize - 1];
        *slot = slot.min(secs);
        if done {
            return Err(format!(
                "finished before its first makespan, in segment {k}"
            ));
        }
    }
    let t = Instant::now();
    let r = driver.run();
    let slot = &mut fastest[SEGMENTS as usize];
    *slot = slot.min(t.elapsed().as_secs_f64());
    Ok(r)
}

/// The untraced run: time whole simulations, round-robin over the pass's
/// cases until `seconds` have passed and every case ran at least once.
/// A case's first repetition is a straight `run()`; later ones are timed
/// in segments. `host_wall_s` sums, over cases and segments, the fastest
/// repetition of each segment.
pub fn untraced(w: Workload, seed: u64, seconds: f64) -> (Metrics, Tally) {
    let cases = w.cases(seed);
    let mut setup = SetupTimer::new(w, &cases);
    for _ in 0..SETUP_BATCHES {
        setup.batch(w, &cases);
    }
    let arrivals = arrival_times(w);
    let mut tally = Tally::default();
    let mut first_wall = vec![0.0; cases.len()];
    let mut fastest = vec![vec![f64::INFINITY; SEGMENTS as usize + 1]; cases.len()];
    let mut outcomes: Vec<Option<Outcome>> = cases.iter().map(|_| None).collect();
    let start = Instant::now();
    let mut i = 0;
    while i < cases.len() || start.elapsed().as_secs_f64() < seconds {
        let c = i % cases.len();
        if c == 0 {
            setup.batch(w, &cases);
        }
        let driver = w.build(cases[c], |p| p);
        let what = format!("{} {:?}", w.name(), cases[c]);
        match &outcomes[c] {
            None => {
                let t = Instant::now();
                let r = driver.run();
                first_wall[c] = t.elapsed().as_secs_f64();
                tally.record(&what, check(&r));
                outcomes[c] = Some(Outcome::of(&r, &arrivals));
            }
            Some(first) => {
                let ok =
                    segmented_run(driver, first.fp.makespan_ms, &mut fastest[c]).and_then(|r| {
                        check(&r)?;
                        compare_fp("repeat", first.fp, Fingerprint::of(&r))
                    });
                tally.record(&what, ok);
            }
        }
        i += 1;
    }
    let peak_rss = peak_rss_mb();
    let outcomes: Vec<Outcome> = outcomes.into_iter().flatten().collect();
    // The host alternates, every 5-20 s, between an uncontended state and
    // one in which other tenants slow this process by up to 75%. A
    // segment is short against those spells, so its fastest repetition
    // measures the uncontended state whenever the run catches one; a case
    // that ran only once counts its single straight run (see
    // perfbench/README.md, "Why the fastest segment").
    let wall: f64 = fastest
        .iter()
        .zip(&first_wall)
        .map(|(segs, first)| {
            if segs.iter().all(|s| s.is_finite()) {
                segs.iter().sum()
            } else {
                *first
            }
        })
        .sum();
    let completed: usize = outcomes.iter().map(|o| o.completed).sum();
    let events: u64 = outcomes.iter().map(|o| o.fp.events).sum();
    let mut m = Metrics::default();
    m.put("host_wall_s", wall, "s");
    m.put("tasks_per_host_s", completed as f64 / wall, "1/s");
    m.put("events_per_host_s", events as f64 / wall, "1/s");
    m.put("peak_rss_mb", peak_rss, "MB");
    m.put("setup_s", median(&setup.batches), "s");
    simulated(&outcomes, &mut m);
    (m, tally)
}

/// One `advance_until` slice of a traced simulation.
struct Slice {
    index: u64,
    secs: f64,
    completed: usize,
}

/// Mid-run measurements taken on the first case of the traced pass.
#[derive(Default)]
struct Probe {
    fork_ms: Vec<f64>,
    secs: f64,
}

fn probe(driver: &SystemDriver, tracer: &SharedTracer) -> Probe {
    let start = Instant::now();
    let mut p = Probe::default();
    for salt in 1..=5 {
        let (branch, secs) = timed(tracer, "core.whatif.fork", || driver.fork_branch(salt));
        drop(branch);
        p.fork_ms.push(secs * 1e3);
    }
    let world = TimedWorld {
        inner: driver,
        tracer,
    };
    timed(tracer, "forecast.probe", || {
        for salt in 1..=PROBE_BRANCHES {
            let initial_action = match salt % 3 {
                0 => ScaleAction::None,
                1 => ScaleAction::CreateWorkers(2),
                _ => ScaleAction::DrainWorkers(1),
            };
            world.branch(&BranchSpec {
                salt,
                initial_action,
                horizon: Duration::from_secs(300),
                max_events: 100_000,
            });
        }
    });
    p.secs = start.elapsed().as_secs_f64();
    p
}

/// Run one case sliced with `advance_until`, under the timing policy
/// wrapper, and finish it with `run()`.
///
/// Stepping until `advance_until` reports the run finished and then
/// calling `run()` would process one event more than a straight `run()`,
/// so the slices stop 1 ms short of the untraced makespan (the run cannot
/// finish before its workload does) and `run()` processes the rest.
fn traced_case(
    w: Workload,
    case: Case,
    makespan_ms: u64,
    tracer: &SharedTracer,
    probe_here: bool,
    slices: &mut Vec<Slice>,
) -> (Result<RunResult, String>, Probe, usize) {
    let mut driver = w.build(case, |p| TimedPolicy::wrap(p, tracer));
    let stop = makespan_ms.saturating_sub(1);
    let mut live_max = 0;
    let mut probed = Probe::default();
    for k in 1..=SLICES {
        let until = SimTime::from_millis(stop * k / SLICES);
        let before = driver.completed_tasks();
        let (done, secs) = timed(tracer, "core.driver.slice", || driver.advance_until(until));
        if done {
            return (
                Err(format!(
                    "finished before its untraced makespan, in slice {k}"
                )),
                probed,
                live_max,
            );
        }
        slices.push(Slice {
            index: k,
            secs,
            completed: driver.completed_tasks() - before,
        });
        live_max = live_max.max(driver.live_workers());
        if probe_here && k == SLICES / 2 {
            probed = probe(&driver, tracer);
        }
    }
    let (r, _) = timed(tracer, "core.driver.finish", || driver.run());
    (Ok(r), probed, live_max)
}

/// Host microseconds per completed task over the slices in
/// `[from, to]` (1-based, inclusive).
fn us_per_task(slices: &[Slice], from: u64, to: u64) -> f64 {
    let (secs, done) = slices
        .iter()
        .filter(|s| (from..=to).contains(&s.index))
        .fold((0.0, 0usize), |(t, n), s| (t + s.secs, n + s.completed));
    secs * 1e6 / done.max(1) as f64
}

/// The traced run: one untraced reference pass, one traced pass whose
/// fingerprints must match it, then the standalone layer harnesses.
/// Spans are written to `spans_path` when the run ends.
pub fn traced(w: Workload, seed: u64, spans_path: &std::path::Path) -> (Metrics, Tally) {
    let cases = w.cases(seed);
    let arrivals = arrival_times(w);
    let mut tally = Tally::default();

    let mut reference = Vec::with_capacity(cases.len());
    let mut untraced_s = 0.0;
    for c in &cases {
        let driver = w.build(*c, |p| p);
        let t = Instant::now();
        let r = driver.run();
        untraced_s += t.elapsed().as_secs_f64();
        tally.record(&format!("{} {c:?} untraced", w.name()), check(&r));
        reference.push(Fingerprint::of(&r));
    }

    let tracer = Tracer::new();
    let mut slices = Vec::new();
    let mut outcomes = Vec::with_capacity(cases.len());
    let mut probed = Probe::default();
    let mut live_max = 0;
    for (i, c) in cases.iter().enumerate() {
        tracer.borrow_mut().run = i as u32;
        let (r, p, live) = traced_case(
            w,
            *c,
            reference[i].makespan_ms,
            &tracer,
            i == 0,
            &mut slices,
        );
        live_max = live_max.max(live);
        if i == 0 {
            probed = p;
        }
        let what = format!("{} {c:?} traced", w.name());
        match r {
            Ok(r) => {
                let ok = check(&r).and_then(|()| {
                    compare_fp("traced vs untraced", reference[i], Fingerprint::of(&r))
                });
                tally.record(&what, ok);
                outcomes.push(Outcome::of(&r, &arrivals));
            }
            Err(e) => tally.record(&what, Err(e)),
        }
    }

    let t = tracer.borrow();
    let traced_s: f64 = t.durations("core.driver.slice").iter().sum::<f64>()
        + t.durations("core.driver.finish").iter().sum::<f64>();
    let policy_us: Vec<f64> = t
        .durations("core.policy.decide")
        .iter()
        .map(|s| s * 1e6)
        .collect();
    let policy_busy = policy_us.iter().sum::<f64>() * 1e-6;
    let branch_us: Vec<f64> = t
        .durations("forecast.branch")
        .iter()
        .map(|s| s * 1e6)
        .collect();
    let branch_busy = branch_us.iter().sum::<f64>() * 1e-6;
    let driver_self = t.self_secs("core.driver.slice") + t.self_secs("core.driver.finish");
    let policy_self = t.self_secs("core.policy.decide");
    let waiting_seen_max = t.waiting_seen_max;
    let workers_seen = t.workers_seen;
    let branch_events = t.branch_events;
    drop(t);

    let q = SLICES / 4;
    let q1 = us_per_task(&slices, 1, q);
    let q4 = us_per_task(&slices, SLICES - q + 1, SLICES);
    let mut m = Metrics::default();
    m.put("core.driver.host_us_per_task.q1", q1, "us");
    m.put("core.driver.host_us_per_task.q4", q4, "us");
    m.put("core.driver.cost_growth", q4 / q1, "ratio");
    m.put("core.driver.live_workers_max", live_max as f64, "count");
    m.put("core.driver.other_s", driver_self, "s");
    m.put("core.policy.calls", policy_us.len() as f64, "count");
    m.put("core.policy.busy_s", policy_busy, "s");
    m.put("core.policy.self_s", policy_self, "s");
    m.put("core.policy.share", policy_busy / traced_s, "ratio");
    m.put(
        "core.policy.us_per_call.p50",
        quantile(&policy_us, 0.5),
        "us",
    );
    m.put(
        "core.policy.us_per_call.p90",
        quantile(&policy_us, 0.9),
        "us",
    );
    m.put(
        "core.policy.waiting_seen_max",
        waiting_seen_max as f64,
        "count",
    );
    m.put("core.whatif.fork_ms", median(&probed.fork_ms), "ms");
    m.put("forecast.branches", branch_us.len() as f64, "count");
    m.put("forecast.branch_busy_s", branch_busy, "s");
    m.put(
        "forecast.branch_share",
        branch_busy / (traced_s + probed.secs),
        "ratio",
    );
    m.put("forecast.branch_events", branch_events as f64, "count");
    m.put(
        "forecast.branch_events_per_s",
        branch_events as f64 / branch_busy,
        "1/s",
    );
    m.put("forecast.branch_us.p50", quantile(&branch_us, 0.5), "us");
    m.put("forecast.branch_us.p90", quantile(&branch_us, 0.9), "us");
    m.put("tracing.overhead_s", traced_s - untraced_s, "s");

    // Harness parameters come from this workload's traced pass.
    let max = |f: fn(&Outcome) -> f64| outcomes.iter().map(f).fold(0.0, f64::max);
    let tombstones = workers_seen.saturating_sub(harness::LIVE_WORKERS as u64);
    let depth = (max(|o| o.peak_backlog) as usize).max(1_000);
    let pending = max(|o| o.running_max) as usize + 16;
    let samples = outcomes.first().map_or(1, |o| o.samples);
    let run = cases.len() as u32;
    let (fresh, tombstoned) = harness::in_span(&tracer, run, "harness.workqueue.dispatch", || {
        harness::master_ns_per_event(tombstones)
    });
    let refresh_1k = harness::in_span(&tracer, run + 1, "harness.workqueue.refresh_1k", || {
        harness::refresh_ns_per_waiting(1_000)
    });
    let refresh_deep = harness::in_span(&tracer, run + 2, "harness.workqueue.refresh_deep", || {
        harness::refresh_ns_per_waiting(depth)
    });
    let cluster = harness::in_span(&tracer, run + 3, "harness.cluster", || {
        harness::cluster_costs(workers_seen, seed)
    });
    let trace_spec = w.trace_spec().unwrap_or("blast-1m,tasks=100000");
    let arrival_ns = harness::in_span(&tracer, run + 4, "harness.trace", || {
        harness::trace_ns_per_arrival(trace_spec, TRACE_SEED)
    });
    let des_ns = harness::in_span(&tracer, run + 5, "harness.des", || {
        harness::des_ns_per_event(pending, seed)
    });
    let record_ns = harness::in_span(&tracer, run + 6, "harness.metrics", || {
        harness::record_ns_per_sample(samples)
    });
    let build_ms = harness::in_span(&tracer, run + 7, "harness.workloads", || {
        match w.trace_spec() {
            Some(spec) => harness::build_ms(|| {
                std::hint::black_box(
                    ArrivalSource::synth(spec, TRACE_SEED).expect("valid synth spec"),
                );
            }),
            None => harness::build_ms(|| {
                std::hint::black_box(hta_bench::fig10_workload(false));
            }),
        }
    });
    m.put("workqueue.tombstones", tombstones as f64, "count");
    m.put("workqueue.handle_ns_per_event.fresh", fresh, "ns");
    m.put("workqueue.handle_ns_per_event.tombstoned", tombstoned, "ns");
    m.put("workqueue.tombstone_penalty", tombstoned / fresh, "ratio");
    m.put("workqueue.refresh_depth", depth as f64, "count");
    m.put("workqueue.refresh_ns_per_waiting", refresh_deep, "ns");
    m.put("workqueue.refresh_ns_per_waiting.1k", refresh_1k, "ns");
    m.put(
        "cluster.handle_ns_per_event",
        cluster.handle_ns_per_event,
        "ns",
    );
    m.put(
        "cluster.group_replicas_ns.fresh",
        cluster.group_replicas_ns_fresh,
        "ns",
    );
    m.put(
        "cluster.group_replicas_ns.churned",
        cluster.group_replicas_ns_churned,
        "ns",
    );
    m.put("trace.ns_per_arrival", arrival_ns, "ns");
    m.put("des.ns_per_event", des_ns, "ns");
    m.put("metrics.record_ns_per_sample", record_ns, "ns");
    m.put("workloads.build_ms", build_ms, "ms");

    // Simulated component counts: a simulator-only change leaves them
    // identical.
    let sum = |f: fn(&Outcome) -> u64| outcomes.iter().map(f).sum::<u64>() as f64;
    let n = outcomes.len().max(1) as f64;
    m.put(
        "waste_core_s",
        outcomes.iter().map(|o| o.waste_core_s).sum::<f64>() / n,
        "core-s",
    );
    m.put("cluster.peak_nodes", max(|o| o.peak_nodes), "count");
    m.put("workqueue.peak_workers", max(|o| o.peak_workers), "count");
    m.put("workqueue.peak_backlog", max(|o| o.peak_backlog), "count");
    m.put("workqueue.task_retries", sum(|o| o.task_retries), "count");
    m.put("workqueue.msgs_dropped", sum(|o| o.msgs_dropped), "count");
    m.put(
        "core.recovery.wal_replayed",
        sum(|o| o.wal_replayed),
        "count",
    );
    m.put("core.recovery.requeued", sum(|o| o.requeued), "count");

    if let Some(dir) = spans_path.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    if let Err(e) = std::fs::write(spans_path, tracer.borrow().to_json()) {
        eprintln!("could not write spans to {}: {e}", spans_path.display());
    }
    (m, tally)
}
