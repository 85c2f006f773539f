//! In-memory spans for the traced run, and the two wrappers that time
//! calls into the policy and what-if layers from outside them.
//!
//! The simulator crates are never modified: the policy wrapper implements
//! the public `ScalingPolicy` trait around the real policy, and hands the
//! real policy a `WhatIf` wrapper around the driver, so every policy call
//! and every branch rollout gets its own span.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::rc::Rc;
use std::time::Instant;

use hta_core::policy::{PolicyContext, ScaleAction, ScalingPolicy};
use hta_core::whatif::{BranchOutcome, BranchSpec, WhatIf};
use hta_des::Duration;

/// One timed interval. Times are nanoseconds since the tracer started.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// Simulation run (case index) or harness the span belongs to.
    pub run: u32,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Span store plus the counts the wrappers see at the layer boundaries.
pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
    open: Vec<usize>,
    pub run: u32,
    /// Largest waiting-queue length a policy call was handed.
    pub waiting_seen_max: usize,
    /// One past the largest worker id a policy call saw: the number of
    /// workers that had connected by then (ids are handed out in order).
    pub workers_seen: u64,
    /// Events simulated inside branch rollouts.
    pub branch_events: u64,
}

pub type SharedTracer = Rc<RefCell<Tracer>>;

impl Tracer {
    pub fn new() -> SharedTracer {
        Rc::new(RefCell::new(Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            run: 0,
            waiting_seen_max: 0,
            workers_seen: 0,
            branch_events: 0,
        }))
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span as a child of the innermost open span.
    pub fn begin(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            run: self.run,
        });
        self.open.push(id);
        id
    }

    /// Close span `id`, which must be the innermost open one.
    pub fn end(&mut self, id: usize) -> f64 {
        let popped = self.open.pop();
        assert_eq!(popped, Some(id), "spans must close innermost first");
        let end_ns = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = end_ns;
        span.secs()
    }

    /// Durations in seconds of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .collect()
    }

    /// Self time of every span called `name`, summed: each span's
    /// duration minus the part its direct children cover.
    pub fn self_secs(&self, name: &str) -> f64 {
        let mut total: f64 = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .sum();
        for s in &self.spans {
            if let Some(p) = s.parent {
                if self.spans[p].name == name {
                    total -= s.secs();
                }
            }
        }
        total
    }

    /// The spans as a JSON array.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"run\":{}}}",
                s.name, s.start_ns, s.end_ns, s.run
            );
            out.push_str(if i + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push(']');
        out
    }
}

/// Time `f` as a span called `name`.
pub fn timed<T>(tracer: &SharedTracer, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
    let id = tracer.borrow_mut().begin(name);
    let out = f();
    let secs = tracer.borrow_mut().end(id);
    (out, secs)
}

/// A `ScalingPolicy` that times every call into the policy it wraps.
///
/// Clones share the tracer, so a policy restored from a control-plane
/// checkpoint keeps reporting into the same spans.
#[derive(Clone)]
pub struct TimedPolicy {
    inner: Box<dyn ScalingPolicy>,
    tracer: SharedTracer,
}

impl TimedPolicy {
    pub fn wrap(inner: Box<dyn ScalingPolicy>, tracer: &SharedTracer) -> Box<dyn ScalingPolicy> {
        Box::new(TimedPolicy {
            inner,
            tracer: Rc::clone(tracer),
        })
    }

    fn observe(&self, ctx: &PolicyContext<'_>) {
        let mut t = self.tracer.borrow_mut();
        t.waiting_seen_max = t.waiting_seen_max.max(ctx.queue.waiting.len());
        if let Some(id) = ctx.queue.workers.keys().next_back() {
            t.workers_seen = t.workers_seen.max(id.0 + 1);
        }
    }
}

impl ScalingPolicy for TimedPolicy {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn decide(&mut self, ctx: &PolicyContext<'_>) -> (ScaleAction, Duration) {
        self.observe(ctx);
        let tracer = Rc::clone(&self.tracer);
        timed(&tracer, "core.policy.decide", || self.inner.decide(ctx)).0
    }

    fn desired(&self) -> usize {
        self.inner.desired()
    }

    fn clone_box(&self) -> Box<dyn ScalingPolicy> {
        Box::new(self.clone())
    }

    fn decide_with_world(
        &mut self,
        ctx: &PolicyContext<'_>,
        world: &dyn WhatIf,
    ) -> (ScaleAction, Duration) {
        self.observe(ctx);
        let tracer = Rc::clone(&self.tracer);
        let world = TimedWorld {
            inner: world,
            tracer: &tracer,
        };
        timed(&tracer, "core.policy.decide", || {
            self.inner.decide_with_world(ctx, &world)
        })
        .0
    }
}

/// A `WhatIf` world that times every branch rollout of the world it
/// wraps.
pub struct TimedWorld<'a> {
    pub inner: &'a dyn WhatIf,
    pub tracer: &'a SharedTracer,
}

impl WhatIf for TimedWorld<'_> {
    fn branch(&self, spec: &BranchSpec) -> BranchOutcome {
        let (outcome, _) = timed(self.tracer, "forecast.branch", || self.inner.branch(spec));
        self.tracer.borrow_mut().branch_events += outcome.events;
        outcome
    }
}
