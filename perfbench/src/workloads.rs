//! The three benchmark workloads: how each one builds its simulations from
//! the seed, and how each run is checked.

use hta_bench::{fig10_driver, fig10_workload, trace_driver, PolicyKind};
use hta_core::driver::{RunResult, SystemDriver};
use hta_core::policy::{HtaConfig, HtaPolicy, ScalingPolicy};
use hta_core::FaultPlan;
use hta_trace::ArrivalSource;

/// Sub-seeds per `closed-faulted` pass; each runs clean and faulted.
pub const CLOSED_SEEDS: u64 = 8;

/// Seed of the open workloads' arrival trace. The trace is the workload,
/// as the DAG is for the closed ones, so it stays fixed; `--seed` drives
/// the simulated system's own streams (provisioning, image pulls, master
/// and operator). With the trace seed varying too, one open run's
/// makespan, shortage and waste move by 15-25% from seed to seed.
pub const TRACE_SEED: u64 = 42;

/// Jobs in the Fig. 10 multistage BLAST DAG.
pub const FIG10_JOBS: usize = 398;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 200k open-loop arrivals on the 100-node / 96-worker trace cluster:
    /// bounded backlog, long worker-churn history.
    OpenChurn,
    /// 250k open-loop arrivals capped at 20 nodes / 20 workers: deep
    /// backlog, little churn.
    OpenBacklog,
    /// Fig. 10 multistage BLAST under HTA over a seed sweep, each seed
    /// clean and under `FaultPlan::heavy`.
    ClosedFaulted,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::OpenChurn,
        Workload::OpenBacklog,
        Workload::ClosedFaulted,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::OpenChurn => "open-churn",
            Workload::OpenBacklog => "open-backlog",
            Workload::ClosedFaulted => "closed-faulted",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The synthetic trace spec of an open workload.
    pub fn trace_spec(self) -> Option<&'static str> {
        match self {
            Workload::OpenChurn => Some("blast-1m,tasks=200000"),
            Workload::OpenBacklog => Some("blast-1m,tasks=250000"),
            _ => None,
        }
    }

    /// The simulations one pass of this workload runs.
    pub fn cases(self, seed: u64) -> Vec<Case> {
        match self {
            Workload::ClosedFaulted => (0..CLOSED_SEEDS)
                .flat_map(|i| {
                    let s = seed.wrapping_mul(1000).wrapping_add(i);
                    [
                        Case {
                            seed: s,
                            faulted: false,
                        },
                        Case {
                            seed: s,
                            faulted: true,
                        },
                    ]
                })
                .collect(),
            Workload::OpenChurn | Workload::OpenBacklog => vec![Case {
                seed,
                faulted: false,
            }],
        }
    }

    /// Build one case's driver; `wrap` may decorate the policy.
    pub fn build(
        self,
        case: Case,
        wrap: impl FnOnce(Box<dyn ScalingPolicy>) -> Box<dyn ScalingPolicy>,
    ) -> SystemDriver {
        let policy = wrap(Box::new(HtaPolicy::new(HtaConfig::default())));
        match self {
            Workload::OpenChurn | Workload::OpenBacklog => {
                let mut cfg = trace_driver(case.seed);
                if self == Workload::OpenBacklog {
                    cfg.cluster.max_nodes = 20;
                    cfg.max_workers = 20;
                }
                let spec = self.trace_spec().expect("open workload");
                let source = ArrivalSource::synth(spec, TRACE_SEED).expect("valid synth spec");
                SystemDriver::new_traced(cfg, source, policy)
            }
            Workload::ClosedFaulted => {
                let mut cfg = fig10_driver(PolicyKind::Hta, case.seed);
                if case.faulted {
                    cfg.faults = FaultPlan::heavy(case.seed);
                }
                SystemDriver::new(cfg, fig10_workload(false), policy)
            }
        }
    }
}

/// One simulation of a pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Case {
    pub seed: u64,
    pub faulted: bool,
}

/// What must repeat exactly between runs of one case.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    pub events: u64,
    pub completed_digest: u64,
    pub makespan_ms: u64,
}

impl Fingerprint {
    pub fn of(r: &RunResult) -> Fingerprint {
        Fingerprint {
            events: r.events,
            completed_digest: r.completed_digest,
            makespan_ms: (r.makespan_s * 1000.0).round() as u64,
        }
    }
}

/// Tasks a run was asked to do: the trace length for open runs, the DAG
/// size for closed ones.
pub fn attempted_tasks(r: &RunResult) -> usize {
    match &r.arrivals {
        Some(a) => a.total_tasks as usize,
        None => FIG10_JOBS,
    }
}

/// Check one finished run; `Err` names what is wrong.
pub fn check(r: &RunResult) -> Result<(), String> {
    if r.timed_out {
        return Err("run hit the simulated-time cut-off".into());
    }
    match &r.arrivals {
        Some(a) => {
            if !a.exhausted || r.completed as u64 != a.total_tasks {
                return Err(format!(
                    "open run completed {} of {} arrivals (exhausted: {})",
                    r.completed, a.total_tasks, a.exhausted
                ));
            }
        }
        None => {
            let resolved = r.completed + r.jobs_failed + r.jobs_abandoned;
            if resolved != FIG10_JOBS {
                return Err(format!(
                    "closed run resolved {resolved} of {FIG10_JOBS} jobs ({} completed, {} failed, {} abandoned)",
                    r.completed, r.jobs_failed, r.jobs_abandoned
                ));
            }
        }
    }
    Ok(())
}
