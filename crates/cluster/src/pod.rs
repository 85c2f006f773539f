//! Pods: the primary deployment unit.
//!
//! The lifecycle mirrors the paper's Fig. 9 exactly:
//!
//! 1. **No Available Node** — `Pending` with reason
//!    [`PendingReason::InsufficientResource`]: no ready node can fit the
//!    pod's request; the cloud controller manager will notice and reserve
//!    a node.
//! 2. **No Container Image** — scheduled onto a node, `Pending` with
//!    reason [`PendingReason::PullingImage`] while kubelet pulls.
//! 3. **Running** — containers started.
//! 4. **Stopped** — for HTA worker pods, the worker process exits after
//!    draining and the pod turns `Succeeded` and is removed. Evictions
//!    (HPA scale-down of a plain pod group) turn the pod `Failed`.

use hta_des::SimTime;
use hta_resources::Resources;
use serde::{Deserialize, Serialize};

use crate::ids::{ImageId, NodeId, PodId};

/// Why a pod is still `Pending` (surfaced as Kubernetes events).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PendingReason {
    /// `FailedScheduling: Insufficient cpu/memory` — no node fits.
    InsufficientResource,
    /// Scheduled; kubelet is pulling the container image.
    PullingImage,
}

/// Pod phase (Kubernetes `status.phase` plus an explicit `Deleted`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PodPhase {
    /// Accepted but containers not running yet; see [`PendingReason`].
    Pending(PendingReason),
    /// Containers running.
    Running,
    /// All containers exited successfully (graceful worker drain).
    Succeeded,
    /// Terminated abnormally (eviction / kill).
    Failed,
    /// Object removed from the API server.
    Deleted,
}

impl PodPhase {
    /// True for phases that still hold node resources.
    pub fn holds_resources(self) -> bool {
        matches!(
            self,
            PodPhase::Pending(PendingReason::PullingImage) | PodPhase::Running
        )
    }

    /// True once the pod has permanently stopped.
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            PodPhase::Succeeded | PodPhase::Failed | PodPhase::Deleted
        )
    }
}

/// What the user submits to the API server.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PodSpec {
    /// Resource request (drives scheduling and node sizing).
    pub request: Resources,
    /// Container image to run.
    pub image: ImageId,
    /// Logical group (e.g. `"wq-worker"`): HPA and the provisioner act on
    /// groups, mirroring a Deployment/label-selector.
    pub group: String,
    /// Pod anti-affinity: when set, the scheduler never co-locates two
    /// pods of this group on one node (`requiredDuringScheduling` pod
    /// anti-affinity on the group label) — the hard guarantee behind the
    /// paper's one-worker-pod-per-node layout (§IV-A).
    pub anti_affinity: bool,
}

/// A pod object plus the timestamps the informer exposes.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Pod {
    /// Identity.
    pub id: PodId,
    /// The submitted spec.
    pub spec: PodSpec,
    /// Current phase.
    pub phase: PodPhase,
    /// Node the pod is bound to (set when scheduled).
    pub node: Option<NodeId>,
    /// When the create request reached the API server.
    pub created_at: SimTime,
    /// When the pod was bound to a node.
    pub scheduled_at: Option<SimTime>,
    /// When containers started running.
    pub running_at: Option<SimTime>,
    /// Whether this pod ever waited for a node (needed by HTA's init-time
    /// tracker: only pods that traversed *No Available Node* →
    /// *No Container Image* → *Running* measure a full initialization).
    pub waited_for_node: bool,
    /// Whether the image had to be pulled (vs. already cached).
    pub pulled_image: bool,
}

impl Pod {
    /// A new pod in the *No Available Node* state.
    pub fn new(id: PodId, spec: PodSpec, created_at: SimTime) -> Self {
        Pod {
            id,
            spec,
            phase: PodPhase::Pending(PendingReason::InsufficientResource),
            node: None,
            created_at,
            scheduled_at: None,
            running_at: None,
            waited_for_node: false,
            pulled_image: false,
        }
    }

    /// End-to-end initialization latency (create → running), if running.
    pub fn init_latency(&self) -> Option<hta_des::Duration> {
        self.running_at.map(|r| r.since(self.created_at))
    }

    /// True if this pod measured a *full* resource-initialization cycle in
    /// the paper's sense (§V-B): it experienced all three creation states.
    pub fn measured_full_init(&self) -> bool {
        self.waited_for_node && self.pulled_image && self.running_at.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> PodSpec {
        PodSpec {
            request: Resources::cores(3, 12_000, 50_000),
            image: ImageId(0),
            group: "wq-worker".into(),
            anti_affinity: false,
        }
    }

    #[test]
    fn new_pod_is_waiting_for_node() {
        let p = Pod::new(PodId(1), spec(), SimTime::from_secs(5));
        assert_eq!(
            p.phase,
            PodPhase::Pending(PendingReason::InsufficientResource)
        );
        assert!(p.node.is_none());
        assert!(!p.phase.is_terminal());
        assert!(!p.phase.holds_resources());
    }

    #[test]
    fn phase_resource_semantics() {
        assert!(PodPhase::Running.holds_resources());
        assert!(PodPhase::Pending(PendingReason::PullingImage).holds_resources());
        assert!(!PodPhase::Pending(PendingReason::InsufficientResource).holds_resources());
        assert!(!PodPhase::Succeeded.holds_resources());
        assert!(PodPhase::Failed.is_terminal());
        assert!(PodPhase::Deleted.is_terminal());
        assert!(!PodPhase::Running.is_terminal());
    }

    #[test]
    fn init_latency_and_full_init() {
        let mut p = Pod::new(PodId(1), spec(), SimTime::from_secs(10));
        assert_eq!(p.init_latency(), None);
        assert!(!p.measured_full_init());
        p.waited_for_node = true;
        p.pulled_image = true;
        p.running_at = Some(SimTime::from_secs(167));
        assert_eq!(p.init_latency().unwrap(), hta_des::Duration::from_secs(157));
        assert!(p.measured_full_init());
    }

    #[test]
    fn warm_pod_does_not_measure_full_init() {
        let mut p = Pod::new(PodId(2), spec(), SimTime::ZERO);
        p.running_at = Some(SimTime::from_secs(2));
        p.pulled_image = false; // image was cached
        assert!(!p.measured_full_init());
    }
}
