//! Admission-control scheme types (Table 1 of the paper).
//!
//! | Scheme | Who participates in a new-connection admission test |
//! |--------|-----------------------------------------------------|
//! | AC1    | calculation of `B_r` in the current cell only |
//! | AC2    | current cell **and** all adjacent cells |
//! | AC3    | current cell and only the adjacent cells that appear unable to reserve their previous target |
//! | static | nobody — a fixed guard band `G` is always set aside |
//!
//! The decision *logic* lives in [`crate::system`], because AC2/AC3 need
//! whole-network access; this module defines the vocabulary types.

use qres_cellnet::Bandwidth;

use crate::ns_scheme::NsParams;

/// Which predictive admission-control variant to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AcKind {
    /// AC1 — Eq. 1 in the requesting cell only.
    Ac1,
    /// AC2 — AC1 plus `Σ b(C_i,j) ≤ C(i) − B_r,i` in every adjacent cell.
    Ac2,
    /// AC3 — AC1 plus the AC2 test only in adjacent cells whose previously
    /// computed target no longer fits (`Σ b + B_r,i^prev > C(i)`).
    Ac3,
}

impl AcKind {
    /// Scheme name as printed in the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            AcKind::Ac1 => "AC1",
            AcKind::Ac2 => "AC2",
            AcKind::Ac3 => "AC3",
        }
    }
}

/// The admission-control scheme, including the baseline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SchemeConfig {
    /// Static reservation: `G` BUs permanently reserved for hand-offs in
    /// every cell (the mid-80s guard-channel scheme the paper compares
    /// against).
    Static {
        /// The guard band `G`.
        guard: Bandwidth,
    },
    /// The paper's predictive/adaptive reservation with one of the three
    /// admission-control variants.
    Predictive {
        /// The admission-control variant.
        kind: AcKind,
    },
    /// The Naghshineh–Schwartz distributed admission control of reference
    /// \[10\] — the related-work baseline (exponential sojourns, no
    /// direction prediction, fixed window). See [`crate::ns_scheme`].
    NaghshinehSchwartz {
        /// The scheme's fixed parameters.
        params: NsParams,
    },
}

impl SchemeConfig {
    /// Scheme name for reports.
    pub fn label(&self) -> String {
        match self {
            SchemeConfig::Static { guard } => format!("static(G={})", guard.as_bus()),
            SchemeConfig::Predictive { kind } => kind.label().to_string(),
            SchemeConfig::NaghshinehSchwartz { params } => {
                format!(
                    "NS(T={},tau={})",
                    params.window_secs, params.mean_sojourn_secs
                )
            }
        }
    }

    /// Validates against a cell capacity. Panics on violation.
    pub fn validate(&self, capacity: Bandwidth) {
        match self {
            SchemeConfig::Static { guard } => assert!(
                *guard < capacity,
                "static guard band must be smaller than the cell capacity"
            ),
            SchemeConfig::Predictive { .. } => {}
            SchemeConfig::NaghshinehSchwartz { params } => params.validate(),
        }
    }

    /// True for the predictive schemes (which maintain HOE caches and
    /// window controllers).
    pub fn is_predictive(&self) -> bool {
        matches!(self, SchemeConfig::Predictive { .. })
    }
}

/// The outcome of a new-connection admission test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AdmissionDecision {
    /// The connection was admitted and its bandwidth allocated.
    Admitted,
    /// The requesting cell failed the Eq. 1 test.
    BlockedLocal,
    /// An adjacent cell failed its reservation-feasibility test (AC2/AC3).
    BlockedByNeighbor {
        /// The neighbor that vetoed, as an index into the requesting
        /// cell's sorted neighbor list.
        neighbor_rank: u8,
    },
}

impl AdmissionDecision {
    /// True when the connection was admitted.
    pub fn is_admitted(self) -> bool {
        matches!(self, AdmissionDecision::Admitted)
    }

    /// True when the connection was blocked for any reason.
    pub fn is_blocked(self) -> bool {
        !self.is_admitted()
    }

    /// The vetoing neighbor's rank, when an adjacent cell blocked the
    /// request (the `blocked_by_neighbor` field of the telemetry
    /// `admission` event).
    pub fn blocking_neighbor(self) -> Option<u8> {
        match self {
            AdmissionDecision::BlockedByNeighbor { neighbor_rank } => Some(neighbor_rank),
            _ => None,
        }
    }
}

/// The Eq.-1 admission predicate on raw `f64` operands:
/// `used + requested <= capacity - reserve`.
///
/// This is the single comparison every scheme's local test reduces to.
/// It is exposed as a pure function so `qres obs replay` can re-execute a
/// recorded decision from its flight-record inputs and land on the exact
/// same verdict: BU counts are integers well below 2^53, so the `f64`
/// arithmetic here is bit-identical to the `Bandwidth` path that
/// delegates to it.
pub fn admits_with_reserve(used: f64, requested: f64, capacity: f64, reserve: f64) -> bool {
    used + requested <= capacity - reserve
}

/// The AC2/AC3 neighbor reservation-feasibility predicate:
/// `used <= capacity - br`. Shared with `qres obs replay` like
/// [`admits_with_reserve`].
pub fn neighbor_reserve_feasible(used: f64, capacity: f64, br: f64) -> bool {
    used <= capacity - br
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replay_predicates() {
        assert!(admits_with_reserve(25.0, 1.0, 30.0, 4.0));
        assert!(!admits_with_reserve(25.0, 1.0, 30.0, 4.5));
        // Boundary: exactly filling the reserve-free headroom admits.
        assert!(admits_with_reserve(
            25.0,
            1.0,
            30.0,
            4.0 - f64::EPSILON * 4.0
        ));
        assert!(neighbor_reserve_feasible(26.0, 30.0, 4.0));
        assert!(!neighbor_reserve_feasible(26.0, 30.0, 4.25));
    }

    #[test]
    fn labels() {
        assert_eq!(AcKind::Ac1.label(), "AC1");
        assert_eq!(AcKind::Ac3.label(), "AC3");
        assert_eq!(
            SchemeConfig::Static {
                guard: Bandwidth::from_bus(10)
            }
            .label(),
            "static(G=10)"
        );
        assert_eq!(
            SchemeConfig::Predictive { kind: AcKind::Ac2 }.label(),
            "AC2"
        );
    }

    #[test]
    fn predictive_flag() {
        assert!(SchemeConfig::Predictive { kind: AcKind::Ac1 }.is_predictive());
        assert!(!SchemeConfig::Static {
            guard: Bandwidth::from_bus(5)
        }
        .is_predictive());
    }

    #[test]
    fn decision_predicates() {
        assert!(AdmissionDecision::Admitted.is_admitted());
        assert!(AdmissionDecision::BlockedLocal.is_blocked());
        assert!(AdmissionDecision::BlockedByNeighbor { neighbor_rank: 0 }.is_blocked());
        assert_eq!(AdmissionDecision::Admitted.blocking_neighbor(), None);
        assert_eq!(AdmissionDecision::BlockedLocal.blocking_neighbor(), None);
        assert_eq!(
            AdmissionDecision::BlockedByNeighbor { neighbor_rank: 3 }.blocking_neighbor(),
            Some(3)
        );
    }

    #[test]
    fn guard_validation() {
        SchemeConfig::Static {
            guard: Bandwidth::from_bus(99),
        }
        .validate(Bandwidth::from_bus(100));
    }

    #[test]
    #[should_panic(expected = "guard")]
    fn guard_equal_to_capacity_rejected() {
        SchemeConfig::Static {
            guard: Bandwidth::from_bus(100),
        }
        .validate(Bandwidth::from_bus(100));
    }
}
