//! Naive references for the master's bounded views, and a differential
//! property test against them.
//!
//! * The full-queue copy: what [`QueueStatus`]'s waiting view summarises
//!   ([`Master::refresh_queue_status`] copies only [`WAITING_PREFIX`]
//!   tasks and derives the rest from the demand histogram).
//! * First-fit over a worker table that never evicts, with no admission
//!   gate and no early exit ([`Master::dispatch_naive`]): what the gated
//!   dispatch over the free-worker table must reproduce, placement for
//!   placement. The reference walks the worker map and `suspects` itself
//!   and never reads the free table.

use proptest::prelude::*;

use super::*;
use crate::task::ExecModel;
use hta_des::EventQueue;

/// The waiting view before it was bounded: every queued task, FIFO.
fn full_queue_copy(m: &Master) -> Vec<WaitingSnapshot> {
    let mut out = Vec::with_capacity(m.waiting.len());
    for t in &m.waiting {
        if let Some(r) = m.tasks.get(t) {
            out.push(WaitingSnapshot {
                id: r.spec.id,
                cat: r.cat,
                declared: r.spec.declared,
            });
        }
    }
    out
}

type Demand = (CategoryId, Option<Resources>, usize);

/// Order-free form of a `(category, declared, count)` list.
fn sorted(mut v: Vec<Demand>) -> Vec<Demand> {
    v.sort_by_key(|(c, d, n)| {
        (
            c.index(),
            d.map(|r| (r.millicores, r.memory_mb, r.disk_mb)),
            *n,
        )
    });
    v
}

/// Recount a slice of the full copy into `(category, declared, count)`.
fn recount(tasks: &[WaitingSnapshot]) -> Vec<Demand> {
    let mut out: Vec<Demand> = Vec::new();
    for w in tasks {
        match out
            .iter_mut()
            .find(|(c, d, _)| *c == w.cat && *d == w.declared)
        {
            Some(slot) => slot.2 += 1,
            None => out.push((w.cat, w.declared, 1)),
        }
    }
    out
}

/// One master with its own event queue and effect sink.
struct Rig {
    m: Master,
    q: EventQueue<WqEvent>,
    fx: EffectSink<WqEvent>,
}

impl Rig {
    /// A master with task faults (failed attempts re-queue) and, when
    /// `lossy`, a lossy control channel with heartbeat leases and one
    /// partition (expired leases re-queue and mark suspects).
    fn new(naive: bool, lossy: bool) -> Rig {
        let mut catalog = FileCatalog::new();
        catalog.register("db", 20.0, true);
        let net = if lossy {
            NetworkFaults {
                delay: Duration::from_millis(20),
                loss: 0.05,
                lease: Duration::from_secs(30),
                partitions: vec![hta_des::Partition {
                    start: Duration::from_secs(60),
                    duration: Duration::from_secs(400),
                    asymmetric: false,
                }],
                ..NetworkFaults::default()
            }
        } else {
            NetworkFaults::default()
        };
        let cfg = MasterConfig {
            egress_base_mbps: 100.0,
            egress_overhead_per_flow: 0.0,
            faults: TaskFaults {
                transient_rate: 0.2,
                max_retries: 2,
                ..TaskFaults::default()
            },
            net,
            ..MasterConfig::default()
        };
        let mut m = Master::new(cfg, catalog);
        m.naive_dispatch = naive;
        Rig {
            m,
            q: EventQueue::new(),
            fx: EffectSink::new(),
        }
    }

    fn sched(&mut self) {
        for (d, e) in self.fx.drain() {
            self.q.schedule_in(d, e);
        }
    }
}

/// A random operation `(kind, a, b)`, decoded against the optimised
/// master's current state so both masters receive the same call.
type Op = (u8, u16, u8);

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec((0u8..8, 0u16..700, 0u8..16), 8..40)
}

#[derive(Debug, Clone, Copy)]
enum Action {
    Submit {
        first: u64,
        n: u64,
        cat: u8,
        req: u8,
    },
    Connect(i64),
    Kill(WorkerId),
    Drain(WorkerId),
    DeclareCategory(u8, Resources),
    Declare(TaskId, Resources),
    Step(usize),
}

fn decode(m: &Master, (kind, a, b): Op, next_id: &mut u64) -> Option<Action> {
    let live: Vec<WorkerId> = m.snapshot().workers.keys().copied().collect();
    let worker = || live.get(a as usize % live.len().max(1)).copied();
    let cores = |x: u16| Resources::cores(1 + (x % 3) as i64, 1_000, 1_000);
    Some(match kind {
        0 | 1 => {
            let first = *next_id;
            *next_id += a as u64;
            Action::Submit {
                first,
                n: a as u64,
                cat: b % 3,
                req: b,
            }
        }
        2 => Action::Connect(1 + (b % 4) as i64),
        3 => Action::Kill(worker()?),
        4 => Action::Drain(worker()?),
        5 => Action::DeclareCategory(b % 3, cores(a)),
        6 => {
            let t = m.waiting.get(a as usize % m.waiting.len().max(1))?;
            Action::Declare(*t, cores(b as u16))
        }
        _ => Action::Step(a as usize % 300),
    })
}

fn task(id: u64, cat: u8, req: u8) -> TaskSpec {
    TaskSpec {
        id: TaskId(id),
        category: format!("c{cat}"),
        inputs: if id.is_multiple_of(2) {
            vec![FileId(0)]
        } else {
            Vec::new()
        },
        output_mb: 0.5,
        declared: match req % 4 {
            0 => None,
            c => Some(Resources::cores(c as i64, 1_000, 1_000)),
        },
        actual: Resources::cores(1, 1_000, 1_000),
        exec: ExecModel::cpu_bound(Duration::from_secs(20 + id % 90)),
    }
}

fn apply(rig: &mut Rig, act: Action) {
    let now = rig.q.now();
    match act {
        Action::Submit { first, n, cat, req } => {
            for id in first..first + n {
                rig.m.submit(now, task(id, cat, req), &mut rig.fx);
            }
        }
        Action::Connect(cores) => {
            rig.m.worker_connect(
                now,
                Resources::cores(cores, 4_000 * cores, 50_000),
                &mut rig.fx,
            );
        }
        Action::Kill(w) => rig.m.kill_worker(now, w, &mut rig.fx),
        Action::Drain(w) => rig.m.drain_worker(w),
        Action::DeclareCategory(cat, r) => {
            let cat = rig.m.intern_category(&format!("c{cat}"));
            rig.m.declare_category(cat, r);
        }
        Action::Declare(t, r) => rig.m.declare_resources(t, r),
        Action::Step(_) => {}
    }
    rig.sched();
}

/// Deliver up to `k` events to both masters in lockstep; the two event
/// streams must stay identical.
fn step([x, y]: &mut [Rig; 2], k: usize) -> Result<(), TestCaseError> {
    for _ in 0..k {
        let ex = x.q.pop();
        prop_assert_eq!(ex, y.q.pop(), "event streams diverged");
        let Some((now, ev)) = ex else {
            break;
        };
        x.m.handle(now, ev, &mut x.fx);
        y.m.handle(now, ev, &mut y.fx);
        x.sched();
        y.sched();
    }
    Ok(())
}

/// Compare the optimised master (`rigs[0]`) with the naive one, and its
/// bounded waiting view with the full-queue copy.
fn check(rigs: &mut [Rig; 2]) -> Result<(), TestCaseError> {
    let placements = |m: &Master| -> Vec<(TaskId, TaskState, Option<Resources>)> {
        m.task_records()
            .map(|r| (r.spec.id, r.state, r.allocation))
            .collect()
    };
    prop_assert_eq!(placements(&rigs[0].m), placements(&rigs[1].m));
    let notes = rigs[0].m.drain_notifications();
    prop_assert_eq!(notes, rigs[1].m.drain_notifications());
    for rig in rigs.iter_mut() {
        rig.m.refresh_queue_status();
    }
    prop_assert_eq!(
        format!("{:?}", rigs[0].m.snapshot()),
        format!("{:?}", rigs[1].m.snapshot())
    );

    let m = &rigs[0].m;
    let snap = m.snapshot();
    let full = full_queue_copy(m);
    let cut = full.len().min(WAITING_PREFIX);
    prop_assert_eq!(format!("{:?}", snap.waiting), format!("{:?}", &full[..cut]));
    prop_assert_eq!(
        sorted(snap.waiting_tail.clone()),
        sorted(recount(&full[cut..]))
    );
    prop_assert_eq!(snap.waiting_total(), full.len());

    // Bounded worker state: live records only, mirrored by the snapshot,
    // and no liveness entry outliving its worker.
    prop_assert!(m.workers.keys().eq(snap.workers.keys()));
    prop_assert!(m
        .last_heartbeat
        .keys()
        .chain(m.suspects.iter())
        .all(|w| m.workers.contains_key(w)));
    Ok(())
}

/// Cases per run. Debug builds re-check every sanitizer invariant after
/// each master call, which makes one case far slower there.
const CASES: u32 = if cfg!(debug_assertions) { 1 } else { 24 };

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    /// Over random submit / dispatch / kill / drain / declare / re-queue
    /// sequences with backlogs past the prefix, the gated dispatch over
    /// live workers places exactly like the naive scan over the
    /// never-evicting table, and the bounded waiting view summarises the
    /// full-queue copy exactly.
    #[test]
    fn bounded_views_match_naive_references(ops in arb_ops(), lossy in any::<bool>()) {
        let mut rigs = [Rig::new(false, lossy), Rig::new(true, lossy)];
        let mut next_id = 0;
        // Open with two workers, so first-fit has a choice, then a backlog
        // past the prefix of 3-core, then 2-core tasks: the 4-core worker
        // keeps a core no waiting task fits, so a worker presumed dead in
        // that state must not take a later 1-core task.
        let opening: [Op; 4] = [(2, 0, 3), (2, 0, 1), (0, 700, 3), (0, 500, 6)];
        for op in opening.into_iter().chain(ops) {
            match decode(&rigs[0].m, op, &mut next_id) {
                Some(Action::Step(k)) => step(&mut rigs, k)?,
                Some(act) => {
                    for rig in rigs.iter_mut() {
                        apply(rig, act);
                    }
                }
                None => {}
            }
            check(&mut rigs)?;
        }
    }
}
