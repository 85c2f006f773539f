//! Standalone harnesses: each drives one layer through its public API,
//! outside any `SystemDriver`, so its cost can be timed on its own.
//! Every harness repeats its measurement and reports the median.

use std::hint::black_box;
use std::time::Instant;

use hta_cluster::{Cluster, ClusterConfig, ClusterEvent, MachineType, PodPhase, PodSpec};
use hta_des::{Duration, EffectSink, EventQueue, SimTime};
use hta_metrics::{RunRecorder, Sample};
use hta_resources::Resources;
use hta_trace::ArrivalSource;
use hta_workqueue::master::{Master, MasterConfig, WqEvent};
use hta_workqueue::task::{ExecModel, TaskSpec};
use hta_workqueue::{FileCatalog, TaskId};

use crate::report::median;
use crate::spans::{timed, SharedTracer};

/// Live workers in the Work Queue harness: the trace cluster's cap.
pub const LIVE_WORKERS: usize = 96;

/// Tasks streamed through the Work Queue harness per repetition.
const MASTER_TASKS: u64 = 20_000;

/// Repetitions of each harness measurement.
const REPS: usize = 5;

fn worker_capacity() -> Resources {
    Resources::cores(3, 12_000, 50_000)
}

fn task(i: u64) -> TaskSpec {
    TaskSpec {
        id: TaskId(i),
        category: "bench".into(),
        inputs: Vec::new(),
        output_mb: 0.0,
        declared: Some(Resources::cores(1, 2_000, 2_000)),
        actual: Resources::cores(1, 2_000, 2_000),
        exec: ExecModel::cpu_bound(Duration::from_secs(4)),
    }
}

/// Host nanoseconds per master event with [`LIVE_WORKERS`] live workers,
/// without and with `tombstones` workers that connected and were killed
/// first. The two variants alternate, so a slow spell of the host hits
/// both alike. Tasks arrive every 16 ms (about 87% of the pool's 3-slot,
/// 4 s capacity), so the backlog stays short and dispatch cost tracks the
/// worker table.
pub fn master_ns_per_event(tombstones: u64) -> (f64, f64) {
    let (mut fresh, mut tombstoned) = (Vec::new(), Vec::new());
    for _ in 0..REPS {
        fresh.push(master_run(0));
        tombstoned.push(master_run(tombstones));
    }
    (median(&fresh), median(&tombstoned))
}

fn master_run(tombstones: u64) -> f64 {
    let mut m = Master::new(MasterConfig::default(), FileCatalog::new());
    let mut q: EventQueue<WqEvent> = EventQueue::new();
    let mut fx = EffectSink::new();
    for _ in 0..tombstones {
        let id = m.worker_connect(SimTime::ZERO, worker_capacity(), &mut fx);
        m.kill_worker(SimTime::ZERO, id, &mut fx);
    }
    for _ in 0..LIVE_WORKERS {
        m.worker_connect(SimTime::ZERO, worker_capacity(), &mut fx);
    }
    for (d, e) in fx.drain() {
        q.schedule_in(d, e);
    }
    let gap_ms = 16;
    let mut next = 0u64;
    let mut events = 0u64;
    let start = Instant::now();
    loop {
        let due = SimTime::from_millis(next * gap_ms);
        if next < MASTER_TASKS && q.peek_time().is_none_or(|t| due <= t) {
            m.submit(due, task(next), &mut fx);
            for (d, e) in fx.drain() {
                q.schedule_at(SimTime::from_millis(due.as_millis() + d.as_millis()), e);
            }
            next += 1;
            continue;
        }
        let Some((now, ev)) = q.pop() else { break };
        m.handle(now, ev, &mut fx);
        events += 1;
        for (d, e) in fx.drain() {
            q.schedule_in(d, e);
        }
        if next == MASTER_TASKS && m.all_complete() {
            break;
        }
    }
    let secs = start.elapsed().as_secs_f64();
    assert_eq!(m.completed_count() as u64, MASTER_TASKS);
    secs * 1e9 / (events + MASTER_TASKS) as f64
}

/// Host nanoseconds per waiting task for one `refresh_queue_status`
/// rebuild at `depth` waiting tasks (no workers, so nothing dispatches).
pub fn refresh_ns_per_waiting(depth: usize) -> f64 {
    let mut m = Master::new(MasterConfig::default(), FileCatalog::new());
    let mut fx = EffectSink::new();
    for i in 0..depth as u64 {
        m.submit(SimTime::ZERO, task(i), &mut fx);
    }
    fx.drain().for_each(drop);
    let reps = (20_000_000 / depth.max(1)).clamp(5, 200);
    let runs: Vec<f64> = (0..reps)
        .map(|r| {
            // Re-declaring a waiting task marks the snapshot stale, as a
            // submit or a re-queue does in a run.
            m.declare_resources(
                TaskId((r % depth) as u64),
                Resources::cores(1, 2_000, 2_000),
            );
            let start = Instant::now();
            m.refresh_queue_status();
            let secs = start.elapsed().as_secs_f64();
            black_box(m.snapshot().waiting.len());
            secs
        })
        .collect();
    median(&runs) * 1e9 / depth as f64
}

/// Cluster harness results.
pub struct ClusterCosts {
    pub handle_ns_per_event: f64,
    pub group_replicas_ns_fresh: f64,
    pub group_replicas_ns_churned: f64,
}

const WORKER_GROUP: &str = "wq-worker";

fn trace_cluster(seed: u64) -> (Cluster, EventQueue<ClusterEvent>, hta_cluster::ImageId) {
    let mut c = Cluster::new(ClusterConfig {
        machine: MachineType::n1_standard_4(),
        min_nodes: 3,
        max_nodes: 100,
        seed,
        ..ClusterConfig::default()
    });
    let image = c.registry_mut().register("wq-worker:latest", 500.0);
    let mut q = EventQueue::new();
    for (d, e) in c.bootstrap(SimTime::ZERO) {
        q.schedule_in(d, e);
    }
    (c, q, image)
}

/// Create [`LIVE_WORKERS`] worker pods and step the cluster until all of
/// them run. Returns the pods and the events handled.
fn start_pool(
    c: &mut Cluster,
    q: &mut EventQueue<ClusterEvent>,
    image: hta_cluster::ImageId,
) -> (Vec<hta_cluster::PodId>, u64) {
    let mut pods = Vec::with_capacity(LIVE_WORKERS);
    for _ in 0..LIVE_WORKERS {
        let (pod, fx) = c.create_pod(
            q.now(),
            PodSpec {
                request: worker_capacity(),
                image,
                group: WORKER_GROUP.into(),
                anti_affinity: false,
            },
        );
        for (d, e) in fx {
            q.schedule_in(d, e);
        }
        pods.push(pod);
    }
    let mut events = 0u64;
    while !pods
        .iter()
        .all(|p| c.pod(*p).is_some_and(|p| p.phase == PodPhase::Running))
    {
        let Some((now, ev)) = q.pop() else { break };
        for (d, e) in c.handle(now, ev) {
            q.schedule_in(d, e);
        }
        events += 1;
        c.drain_watch();
    }
    (pods, events)
}

fn group_replicas_ns(c: &Cluster) -> f64 {
    let runs: Vec<f64> = (0..REPS)
        .map(|_| {
            let n = 2_000;
            let start = Instant::now();
            for _ in 0..n {
                black_box(c.group_replicas(black_box(WORKER_GROUP)));
            }
            start.elapsed().as_secs_f64() * 1e9 / n as f64
        })
        .collect();
    median(&runs)
}

/// Cluster costs: event handling over `churned` worker pods started and
/// deleted in pools of [`LIVE_WORKERS`], and `group_replicas` on a live
/// pool with and without that history.
pub fn cluster_costs(churned: u64, seed: u64) -> ClusterCosts {
    let (mut c, mut q, image) = trace_cluster(seed);
    start_pool(&mut c, &mut q, image);
    let fresh = group_replicas_ns(&c);

    let (mut c, mut q, image) = trace_cluster(seed);
    let mut events = 0u64;
    let mut busy = 0f64;
    let cycles = churned.div_ceil(LIVE_WORKERS as u64).max(1);
    for _ in 0..cycles {
        let start = Instant::now();
        let (pods, n) = start_pool(&mut c, &mut q, image);
        for p in pods {
            for (d, e) in c.delete_pod(q.now(), p) {
                q.schedule_in(d, e);
            }
        }
        c.drain_watch();
        busy += start.elapsed().as_secs_f64();
        events += n + LIVE_WORKERS as u64;
    }
    start_pool(&mut c, &mut q, image);
    ClusterCosts {
        handle_ns_per_event: busy * 1e9 / events as f64,
        group_replicas_ns_fresh: fresh,
        group_replicas_ns_churned: group_replicas_ns(&c),
    }
}

/// Host nanoseconds per arrival drained from a fresh source with
/// `pop_due`.
pub fn trace_ns_per_arrival(spec: &str, seed: u64) -> f64 {
    let runs: Vec<f64> = (0..3)
        .map(|_| {
            let mut s = ArrivalSource::synth(spec, seed).expect("valid synth spec");
            let start = Instant::now();
            let mut n = 0u64;
            while let Some(t) = s.peek_next_time() {
                while let Some(spec) = s.pop_due(t) {
                    black_box(spec);
                    n += 1;
                }
            }
            start.elapsed().as_secs_f64() * 1e9 / n as f64
        })
        .collect();
    median(&runs)
}

/// Host nanoseconds per `pop` plus `schedule_in` with `depth` events
/// pending (the hold model: every popped event schedules one more).
pub fn des_ns_per_event(depth: usize, seed: u64) -> f64 {
    let mut state = seed | 1;
    let mut next_delay = move || {
        // xorshift64: cheap, seeded delays in [0, 10 s).
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        Duration::from_millis(state % 10_000)
    };
    let runs: Vec<f64> = (0..REPS)
        .map(|_| {
            let mut q: EventQueue<u64> = EventQueue::new();
            for i in 0..depth as u64 {
                q.schedule_in(next_delay(), i);
            }
            let n = 500_000u64;
            let start = Instant::now();
            for _ in 0..n {
                let (_, ev) = q.pop().expect("queue never drains");
                q.schedule_in(next_delay(), black_box(ev));
            }
            start.elapsed().as_secs_f64() * 1e9 / n as f64
        })
        .collect();
    median(&runs)
}

/// Host nanoseconds per `RunRecorder::record` over a run of `samples`.
pub fn record_ns_per_sample(samples: usize) -> f64 {
    let samples = samples.max(1);
    let per_rep = (200_000 / samples).max(1);
    let runs: Vec<f64> = (0..REPS)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..per_rep {
                let mut rec = RunRecorder::new();
                for i in 0..samples {
                    let x = (i % 97) as f64;
                    rec.record(Sample {
                        time_s: i as f64,
                        supply_cores: x,
                        in_use_cores: x * 0.5,
                        shortage_cores: 97.0 - x,
                        nodes: x,
                        workers_connected: x,
                        workers_idle: 1.0,
                        workers_desired: x,
                        tasks_waiting: x * 3.0,
                        tasks_running: x * 2.0,
                        egress_mbps: 0.0,
                        cpu_utilization: 0.5,
                    });
                }
                black_box(&rec);
            }
            start.elapsed().as_secs_f64() * 1e9 / (per_rep * samples) as f64
        })
        .collect();
    median(&runs)
}

/// Milliseconds to build the workload's input: the DAG for closed
/// workloads, the arrival source for open ones.
pub fn build_ms(build: impl Fn()) -> f64 {
    let runs: Vec<f64> = (0..21)
        .map(|_| {
            let start = Instant::now();
            build();
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&runs)
}

/// Run `f` inside a root span called `name` on its own run id.
pub fn in_span<T>(tracer: &SharedTracer, run: u32, name: &'static str, f: impl FnOnce() -> T) -> T {
    tracer.borrow_mut().run = run;
    timed(tracer, name, f).0
}
