//! Naive references for the policies' reading of the queue, and a
//! property test against them.
//!
//! The master hands policies a bounded waiting view: a FIFO prefix of
//! [`WAITING_PREFIX`] tasks plus per-requirement counts for the rest. The
//! references below read the full-queue copy the view replaced, the way
//! each consumer did before: Algorithm 1's input truncated at the cap with
//! the tail grouped by a walk past it, the target-tracking backlog, the
//! oracle's demand and the MPC horizon's execution window.

use hta_des::{CategoryId, Duration, EffectSink, EventQueue, Interner, SimTime};
use hta_resources::Resources;
use hta_workqueue::master::{
    Master, MasterConfig, QueueStatus, TaskFaults, WqEvent, WAITING_PREFIX,
};
use hta_workqueue::task::{ExecModel, Measured, TaskSpec};
use hta_workqueue::{FileCatalog, TaskId, WorkerId, WorkerState};
use proptest::prelude::*;

use crate::category_stats::CategoryStats;
use crate::estimator::{estimate, EstimatorInput, RunningTask, WaitingTask};
use crate::oracle::OraclePolicy;
use crate::policy::{HtaConfig, HtaPolicy, PolicyContext};
use crate::target_tracking::TargetTrackingPolicy;

/// Algorithm 1's input from the full queue: the first
/// [`WAITING_PREFIX`] tasks simulated, the rest grouped by a walk that
/// skips past the cap.
fn estimator_input_reference(cfg: &HtaConfig, ctx: &PolicyContext<'_>) -> EstimatorInput {
    let stats = ctx.stats;
    let running = ctx
        .queue
        .running
        .values()
        .map(|r| {
            let mean = stats
                .estimate(r.cat)
                .map(|e| e.mean_wall)
                .unwrap_or(cfg.default_exec);
            let elapsed = r
                .started_at
                .map(|s| ctx.now.since(s))
                .unwrap_or(Duration::ZERO);
            RunningTask {
                remaining: mean.saturating_sub(elapsed),
                allocation: r.allocation,
            }
        })
        .collect();
    let mut waiting: Vec<WaitingTask> = ctx
        .queue
        .waiting
        .iter()
        .take(WAITING_PREFIX)
        .map(|w| {
            let est = stats.estimate(w.cat);
            WaitingTask {
                resources: w
                    .declared
                    .or(est.map(|e| e.resources))
                    .unwrap_or(ctx.worker_unit),
                exec: est.map(|e| e.mean_wall).unwrap_or(cfg.default_exec),
            }
        })
        .collect();
    let mut overflow: Vec<(Resources, usize)> = Vec::new();
    for w in ctx.queue.waiting.iter().skip(WAITING_PREFIX) {
        let resources = w
            .declared
            .or(stats.estimate(w.cat).map(|e| e.resources))
            .unwrap_or(ctx.worker_unit);
        match overflow.iter_mut().find(|(r, _)| *r == resources) {
            Some((_, n)) => *n += 1,
            None => overflow.push((resources, 1)),
        }
    }
    for (cat, count) in ctx.held_jobs {
        if let Some(est) = stats.estimate(*cat) {
            for _ in 0..*count {
                waiting.push(WaitingTask {
                    resources: est.resources,
                    exec: est.mean_wall,
                });
            }
        }
    }
    let mut active_workers: Vec<Resources> = ctx
        .queue
        .workers
        .values()
        .filter(|w| w.state == WorkerState::Active)
        .map(|w| w.capacity)
        .collect();
    active_workers.extend(std::iter::repeat_n(
        ctx.worker_unit,
        ctx.pending_worker_pods,
    ));
    EstimatorInput {
        rsrc_init_time: ctx.init_time,
        default_cycle: cfg.default_cycle,
        running,
        waiting,
        active_workers,
        worker_unit: ctx.worker_unit,
        overflow,
    }
}

/// The oracle's demand from the full queue, one waiting task at a time.
fn oracle_demand_reference(oracle: &OraclePolicy, ctx: &PolicyContext<'_>) -> Vec<Resources> {
    let mut demands = Vec::new();
    for w in &ctx.queue.waiting {
        demands.push(oracle.requirement(ctx.interner.name(w.cat), ctx.worker_unit));
    }
    for r in ctx.queue.running.values() {
        demands.push(oracle.requirement(ctx.interner.name(r.cat), r.allocation));
    }
    for (cat, count) in ctx.held_jobs {
        let req = oracle.requirement(ctx.interner.name(*cat), ctx.worker_unit);
        demands.extend(std::iter::repeat_n(req, *count));
    }
    demands
}

/// The MPC horizon's execution window from the full queue.
fn pending_mean_wall_reference(ctx: &PolicyContext<'_>) -> Duration {
    let mut exec = Duration::ZERO;
    for w in &ctx.queue.waiting {
        if let Some(e) = ctx.stats.estimate(w.cat) {
            exec = exec.max(e.mean_wall);
        }
    }
    for (cat, _) in ctx.held_jobs {
        if let Some(e) = ctx.stats.estimate(*cat) {
            exec = exec.max(e.mean_wall);
        }
    }
    exec
}

fn key(r: &Resources) -> (i64, i64, i64) {
    (r.millicores, r.memory_mb, r.disk_mb)
}

fn sorted(mut v: Vec<Resources>) -> Vec<Resources> {
    v.sort_by_key(key);
    v
}

fn sorted_groups(mut v: Vec<(Resources, usize)>) -> Vec<(Resources, usize)> {
    v.sort_by_key(|(r, n)| (key(r), *n));
    v
}

fn worker_unit() -> Resources {
    Resources::cores(3, 12_000, 50_000)
}

/// A master with failing attempts (re-queues) and one event queue.
struct Rig {
    m: Master,
    q: EventQueue<WqEvent>,
    fx: EffectSink<WqEvent>,
    next_id: u64,
}

impl Rig {
    fn new() -> Rig {
        let cfg = MasterConfig {
            faults: TaskFaults {
                transient_rate: 0.2,
                max_retries: 2,
                ..TaskFaults::default()
            },
            ..MasterConfig::default()
        };
        Rig {
            m: Master::new(cfg, FileCatalog::new()),
            q: EventQueue::new(),
            fx: EffectSink::new(),
            next_id: 0,
        }
    }

    fn sched(&mut self) {
        for (d, e) in self.fx.drain() {
            self.q.schedule_in(d, e);
        }
    }

    /// Apply one random operation `(kind, a, b)`.
    fn apply(&mut self, (kind, a, b): (u8, u16, u8)) {
        let now = self.q.now();
        let live: Vec<WorkerId> = self.m.snapshot().workers.keys().copied().collect();
        let worker = live.get(a as usize % live.len().max(1)).copied();
        let cores = |x: u8| Resources::cores(1 + (x % 3) as i64, 2_000, 2_000);
        match kind {
            0 | 1 => {
                for _ in 0..a {
                    let id = self.next_id;
                    self.next_id += 1;
                    // Kind 0 interleaves categories and requirements, so
                    // the tail mixes groups and undeclared tasks; kind 1
                    // submits one category, so prefix and tail can hold
                    // different ones.
                    let cat = if kind == 0 { id + b as u64 } else { b as u64 };
                    let spec = TaskSpec {
                        id: TaskId(id),
                        category: format!("c{}", cat % 4),
                        inputs: Vec::new(),
                        output_mb: 0.0,
                        declared: (!id.is_multiple_of(3)).then(|| cores(b.wrapping_add(id as u8))),
                        actual: Resources::cores(1, 2_000, 2_000),
                        exec: ExecModel::cpu_bound(Duration::from_secs(30 + id % 60)),
                    };
                    self.m.submit(now, spec, &mut self.fx);
                }
            }
            2 => {
                self.m.worker_connect(now, worker_unit(), &mut self.fx);
            }
            3 => {
                if let Some(w) = worker {
                    self.m.kill_worker(now, w, &mut self.fx);
                }
            }
            4 => {
                if let Some(w) = worker {
                    self.m.drain_worker(w);
                }
            }
            5 => {
                let cat = self.m.intern_category(&format!("c{}", b % 4));
                self.m.declare_category(cat, cores(a as u8));
            }
            _ => {
                for _ in 0..a % 300 {
                    let Some((now, ev)) = self.q.pop() else {
                        break;
                    };
                    self.m.handle(now, ev, &mut self.fx);
                    self.sched();
                }
            }
        }
        self.sched();
        let _ = self.m.drain_notifications();
    }
}

/// Compare every consumer of the bounded view with its full-copy
/// reference at the master's current state.
fn check(m: &mut Master, stats: &CategoryStats, held: &[(CategoryId, usize)], pending: usize) {
    m.refresh_queue_status();
    let full = QueueStatus {
        waiting: m.waiting_tasks().collect(),
        waiting_tail: Vec::new(),
        running: m.snapshot().running.clone(),
        workers: m.snapshot().workers.clone(),
    };
    let interner: &Interner = m.interner();
    let ctx = |queue| PolicyContext {
        now: SimTime::from_secs(3_600),
        queue,
        interner,
        held_jobs: held,
        stats,
        init_time: Duration::from_secs(157),
        worker_unit: worker_unit(),
        live_worker_pods: full.workers.len() + pending,
        pending_worker_pods: pending,
        utilization: None,
        max_workers: 20,
        workload_done: false,
        telemetry_age: Duration::ZERO,
    };
    let view = ctx(m.snapshot());
    let reference = ctx(&full);

    let cfg = HtaConfig::default();
    let got = HtaPolicy::new(cfg.clone()).build_input(&view);
    let want = estimator_input_reference(&cfg, &reference);
    assert_eq!(got.running, want.running);
    assert_eq!(got.waiting, want.waiting);
    assert_eq!(got.active_workers, want.active_workers);
    assert_eq!(
        sorted_groups(got.overflow.clone()),
        sorted_groups(want.overflow.clone())
    );
    assert_eq!(estimate(&got), estimate(&want));

    let held_total: usize = held.iter().map(|(_, n)| n).sum();
    assert_eq!(
        TargetTrackingPolicy::backlog(&view),
        full.waiting.len() + held_total
    );

    let oracle = OraclePolicy::new(
        [("c0", 1), ("c1", 2), ("c3", 3)]
            .into_iter()
            .map(|(name, c)| (name.to_string(), Resources::cores(c, 1_000, 1_000)))
            .collect(),
    );
    let demand = oracle.demands(&view);
    let demand_ref = oracle_demand_reference(&oracle, &reference);
    if full.waiting.len() <= WAITING_PREFIX {
        assert_eq!(demand, demand_ref, "a queue within the prefix is exact");
    }
    assert_eq!(sorted(demand), sorted(demand_ref));

    assert_eq!(
        view.max_pending_mean_wall(),
        pending_mean_wall_reference(&reference)
    );
}

/// Cases per run. Debug builds re-check every sanitizer invariant after
/// each master call, which makes one case far slower there.
const CASES: u32 = if cfg!(debug_assertions) { 1 } else { 24 };

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    /// Over random submit / dispatch / kill / drain / declare / re-queue
    /// sequences with backlogs past the prefix, every policy reading of
    /// the bounded view equals its full-queue reference.
    #[test]
    fn bounded_view_matches_full_queue_references(
        ops in proptest::collection::vec((0u8..7, 0u16..700, 0u8..16), 6..30),
        held in (0usize..8, 0usize..8),
        pending in 0usize..3,
    ) {
        let mut rig = Rig::new();
        let mut stats = CategoryStats::new();
        // Three measured categories and one never measured (`c2`).
        for (name, cores, wall) in [("c0", 1, 45), ("c1", 2, 80), ("c3", 1, 150)] {
            let cat = rig.m.intern_category(name);
            stats.observe(
                cat,
                Measured {
                    peak: Resources::cores(cores, 2_000, 2_000),
                    wall: Duration::from_secs(wall),
                },
            );
        }
        let held = [
            (rig.m.intern_category("c1"), held.0),
            (rig.m.intern_category("c2"), held.1),
        ];
        // Open with a backlog past the prefix whose tail holds a category
        // (`c3`, the longest) the prefix lacks, then a small pool.
        for op in [(1, 1100, 0), (1, 300, 3), (0, 400, 7), (2, 0, 0), (2, 0, 0)]
            .into_iter()
            .chain(ops)
        {
            rig.apply(op);
            check(&mut rig.m, &stats, &held, pending);
        }
    }
}
