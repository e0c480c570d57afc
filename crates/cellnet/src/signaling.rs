//! Inter-BS signaling substrate.
//!
//! The reservation scheme is distributed: to compute its target reservation
//! bandwidth `B_r,0`, a cell's BS announces its current `T_est,0` to every
//! adjacent BS, each adjacent BS computes its contribution `B_i,0` over its
//! own connections, and replies (Section 4.1). Where those messages travel
//! depends on the backbone topology of Fig. 1:
//!
//! * **star** — BSs talk only to a Mobile Switching Center (MSC), which
//!   relays; every BS↔BS exchange costs 2 hops, and the MSC can centralize
//!   the computation (the currently-deployed configuration);
//! * **fully-connected** — BSs talk directly; 1 hop per exchange.
//!
//! The paper's complexity metric `N_calc` (Fig. 13) counts `B_r`
//! *calculations*; this module additionally counts the underlying messages
//! and hops so the examples can contrast the two backbone options.

use crate::ids::CellId;

/// The backbone interconnection among BSs (paper Fig. 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BsNetworkKind {
    /// Star topology: all BS-to-BS traffic relays through the MSC (2 hops).
    StarViaMsc,
    /// Fully-connected: direct BS-to-BS links (1 hop).
    FullyConnected,
}

impl BsNetworkKind {
    /// Hops per BS-to-BS message under this backbone.
    pub fn hops_per_message(self) -> u64 {
        match self {
            BsNetworkKind::StarViaMsc => 2,
            BsNetworkKind::FullyConnected => 1,
        }
    }
}

/// The control messages of the reservation protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MessageKind {
    /// Cell 0 announces its current `T_est,0` to an adjacent BS, asking for
    /// that BS's hand-off bandwidth contribution.
    ReservationQuery,
    /// An adjacent BS returns its computed contribution `B_i,0`.
    ReservationReply,
    /// A BS asks an adjacent BS to run its own admission check
    /// (`Σ b ≤ C(i) − B_r,i`) as part of AC2/AC3.
    AdmissionCheckRequest,
    /// The adjacent BS's pass/fail verdict.
    AdmissionCheckReply,
}

impl MessageKind {
    /// Nominal payload size in bytes, for backbone-load accounting.
    /// (A `T_est` or a bandwidth value plus addressing; deliberately coarse.)
    pub fn nominal_bytes(self) -> u64 {
        match self {
            MessageKind::ReservationQuery => 16,
            MessageKind::ReservationReply => 16,
            MessageKind::AdmissionCheckRequest => 24,
            MessageKind::AdmissionCheckReply => 8,
        }
    }
}

/// Aggregate counters of backbone signaling traffic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MessageStats {
    /// Messages sent.
    pub messages: u64,
    /// Link hops traversed.
    pub hops: u64,
    /// Payload bytes carried.
    pub bytes: u64,
}

impl MessageStats {
    /// Merges another counter set into this one.
    pub fn merge(&mut self, other: &MessageStats) {
        self.messages += other.messages;
        self.hops += other.hops;
        self.bytes += other.bytes;
    }
}

/// The inter-BS signaling fabric: a backbone kind plus traffic accounting.
#[derive(Debug, Clone)]
pub struct BsNetwork {
    kind: BsNetworkKind,
    stats: MessageStats,
    per_kind: [(u64, u64); 4],
}

impl BsNetwork {
    /// Creates a signaling fabric over the given backbone.
    pub fn new(kind: BsNetworkKind) -> Self {
        BsNetwork {
            kind,
            stats: MessageStats::default(),
            per_kind: [(0, 0); 4],
        }
    }

    /// The backbone kind.
    pub fn kind(&self) -> BsNetworkKind {
        self.kind
    }

    /// Records one BS-to-BS message of `msg` kind from `from` to `to`.
    ///
    /// The endpoints are recorded for interface symmetry and debug tracing;
    /// cost depends only on the backbone kind.
    pub fn send(&mut self, from: CellId, to: CellId, msg: MessageKind) {
        debug_assert_ne!(from, to, "BS does not message itself");
        let hops = self.kind.hops_per_message();
        self.stats.messages += 1;
        self.stats.hops += hops;
        self.stats.bytes += msg.nominal_bytes();
        let slot = match msg {
            MessageKind::ReservationQuery => 0,
            MessageKind::ReservationReply => 1,
            MessageKind::AdmissionCheckRequest => 2,
            MessageKind::AdmissionCheckReply => 3,
        };
        self.per_kind[slot].0 += 1;
        self.per_kind[slot].1 += msg.nominal_bytes();
    }

    /// A full reservation round-trip (query + reply) with one neighbor.
    pub fn reservation_exchange(&mut self, requester: CellId, neighbor: CellId) {
        self.send(requester, neighbor, MessageKind::ReservationQuery);
        self.send(neighbor, requester, MessageKind::ReservationReply);
    }

    /// A full admission-check round-trip with one neighbor.
    pub fn admission_check_exchange(&mut self, requester: CellId, neighbor: CellId) {
        self.send(requester, neighbor, MessageKind::AdmissionCheckRequest);
        self.send(neighbor, requester, MessageKind::AdmissionCheckReply);
    }

    /// Aggregate traffic counters.
    pub fn stats(&self) -> MessageStats {
        self.stats
    }

    /// `(messages, bytes)` for one message kind.
    pub fn stats_for(&self, msg: MessageKind) -> (u64, u64) {
        let slot = match msg {
            MessageKind::ReservationQuery => 0,
            MessageKind::ReservationReply => 1,
            MessageKind::AdmissionCheckRequest => 2,
            MessageKind::AdmissionCheckReply => 3,
        };
        self.per_kind[slot]
    }

    /// Resets all counters (e.g. after a warm-up period).
    pub fn reset_stats(&mut self) {
        self.stats = MessageStats::default();
        self.per_kind = [(0, 0); 4];
    }
}

qres_json::json_unit_enum!(BsNetworkKind {
    StarViaMsc,
    FullyConnected
});
qres_json::json_struct!(MessageStats {
    messages,
    hops,
    bytes
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn star_costs_two_hops() {
        let mut net = BsNetwork::new(BsNetworkKind::StarViaMsc);
        net.send(CellId(0), CellId(1), MessageKind::ReservationQuery);
        assert_eq!(net.stats().messages, 1);
        assert_eq!(net.stats().hops, 2);
        assert_eq!(net.stats().bytes, 16);
    }

    #[test]
    fn mesh_costs_one_hop() {
        let mut net = BsNetwork::new(BsNetworkKind::FullyConnected);
        net.send(CellId(0), CellId(1), MessageKind::ReservationQuery);
        assert_eq!(net.stats().hops, 1);
    }

    #[test]
    fn reservation_exchange_is_round_trip() {
        let mut net = BsNetwork::new(BsNetworkKind::FullyConnected);
        net.reservation_exchange(CellId(0), CellId(1));
        assert_eq!(net.stats().messages, 2);
        assert_eq!(net.stats_for(MessageKind::ReservationQuery).0, 1);
        assert_eq!(net.stats_for(MessageKind::ReservationReply).0, 1);
    }

    #[test]
    fn admission_exchange_counts() {
        let mut net = BsNetwork::new(BsNetworkKind::StarViaMsc);
        net.admission_check_exchange(CellId(2), CellId(3));
        assert_eq!(net.stats().messages, 2);
        assert_eq!(net.stats().hops, 4);
        assert_eq!(
            net.stats().bytes,
            MessageKind::AdmissionCheckRequest.nominal_bytes()
                + MessageKind::AdmissionCheckReply.nominal_bytes()
        );
    }

    #[test]
    fn reset_clears_counters() {
        let mut net = BsNetwork::new(BsNetworkKind::FullyConnected);
        net.reservation_exchange(CellId(0), CellId(1));
        net.reset_stats();
        assert_eq!(net.stats(), MessageStats::default());
        assert_eq!(net.stats_for(MessageKind::ReservationReply), (0, 0));
    }

    #[test]
    fn merge_stats() {
        let mut a = MessageStats {
            messages: 1,
            hops: 2,
            bytes: 16,
        };
        a.merge(&MessageStats {
            messages: 3,
            hops: 3,
            bytes: 48,
        });
        assert_eq!(a.messages, 4);
        assert_eq!(a.hops, 5);
        assert_eq!(a.bytes, 64);
    }
}
