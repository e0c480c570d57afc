//! The simulation engine: the event loop of the Section 5 evaluation.
//!
//! Five event kinds drive a run:
//!
//! * **Arrival** — per-cell Poisson process; sample the mobile's attribute
//!   bundle, run the admission test, and on admission schedule the
//!   mobile's one pending event. Always reschedules the cell's next
//!   arrival.
//! * **Retry** — a previously blocked user re-requests (time-varying mode).
//! * **Handoff** — a mobile reaches a cell boundary. If the road continues
//!   (ring, or interior cell) the hand-off is attempted against the target
//!   cell; success re-schedules the next full-cell crossing, failure drops
//!   the connection. At a disconnected border the mobile leaves the system
//!   (a release, not a drop).
//! * **ConnectionEnd** — the exponential lifetime expires wherever the
//!   mobile currently is.
//! * **HourTick** — time-varying mode: switch λ and the speed range to the
//!   current schedule entry.
//!
//! A connection's exponential lifetime races its next boundary crossing
//! (paper §5). The expiry time is fixed at admission, so the race is
//! decided when the mobile enters a cell: each admitted mobile has exactly
//! one pending event, the earlier of the two, and nothing is cancelled.
//! That event carries the mobile's state, so the engine keeps no table of
//! mobiles.

use qres_cellnet::ids::ConnectionIdAllocator;
use qres_cellnet::{
    CellId, ConnectionId, Direction, HexDir, HexGrid, RoadGeometry, Topology, WiredNetwork,
};
use qres_core::{NewConnectionRequest, ReservationSystem};
use qres_des::{Duration, EventQueue, Handler, SimTime, Simulation};

use crate::metrics::{Metrics, RunResult};
use crate::scenario::Scenario;
use crate::workload::{MobileAttrs, Workload};

/// The simulator's event vocabulary; a pending event costs the queue 72 bytes.
#[derive(Debug, Clone, PartialEq)]
enum Event {
    /// Next Poisson arrival in a cell.
    Arrival { cell: CellId },
    /// A blocked user re-requests with its original attributes (boxed:
    /// only time-varying runs retry, and inline they would enlarge every
    /// event).
    Retry {
        cell: CellId,
        attrs: Box<MobileAttrs>,
        attempts: u32,
    },
    /// A mobile reaches its current cell's boundary.
    Handoff(MobileState),
    /// A connection's lifetime expires in `cell`, before it leaves it.
    ConnectionEnd { id: ConnectionId, cell: CellId },
    /// Hourly schedule switch (time-varying mode).
    HourTick,
    /// End of the warm-up period: reset measurement counters.
    WarmupEnd,
}

/// Live state of one admitted mobile, carried by its pending hand-off.
#[derive(Debug, Clone, Copy, PartialEq)]
struct MobileState {
    id: ConnectionId,
    cell: CellId,
    speed_kmh: f64,
    /// Road: 0 = up, 1 = down. Hex: a [`HexDir`] index.
    heading: u8,
    /// Lifetime expiry, fixed at admission.
    end_at: SimTime,
}

/// Schedules the one pending event of `mobile`, whose next boundary
/// crossing is at `crossing_at`: its lifetime expiry if that comes first,
/// or at the same instant, else the hand-off.
fn schedule_next(mobile: MobileState, crossing_at: SimTime, queue: &mut EventQueue<Event>) {
    if mobile.end_at <= crossing_at {
        let (id, cell) = (mobile.id, mobile.cell);
        queue.schedule(mobile.end_at, Event::ConnectionEnd { id, cell });
    } else {
        queue.schedule(crossing_at, Event::Handoff(mobile));
    }
}

/// The movement geometry of a run: the paper's 1-D road, or the 2-D
/// hexagonal extension (Section 7).
#[derive(Debug, Clone, Copy)]
enum Mobility {
    Road(RoadGeometry),
    Hex { grid: HexGrid, diameter_km: f64 },
}

impl Mobility {
    /// Time from a fresh admission (at in-cell fraction `pos_frac`) to the
    /// first cell boundary. On the road this is exact 1-D geometry; on the
    /// hex grid the mobile is modeled at uniform progress through the
    /// cell, so the residual crossing is `(1 − frac) · diameter / speed`.
    fn first_crossing(&self, cell: CellId, pos_frac: f64, heading: u8, speed_kmh: f64) -> Duration {
        match self {
            Mobility::Road(geo) => {
                let pos = geo.position_in_cell(cell, pos_frac);
                geo.time_to_boundary(pos, speed_kmh, road_direction(heading))
            }
            Mobility::Hex { diameter_km, .. } => {
                Duration::from_secs((1.0 - pos_frac) * diameter_km / speed_kmh * 3_600.0)
            }
        }
    }

    /// Time to cross one full cell.
    fn full_crossing(&self, speed_kmh: f64) -> Duration {
        match self {
            Mobility::Road(geo) => geo.full_crossing_time(speed_kmh),
            Mobility::Hex { diameter_km, .. } => {
                Duration::from_secs(diameter_km / speed_kmh * 3_600.0)
            }
        }
    }

    /// The cell entered when leaving `cell` along `heading`; `None` when
    /// the mobile exits the system at an edge.
    fn next_cell(&self, cell: CellId, heading: u8) -> Option<CellId> {
        match self {
            Mobility::Road(geo) => geo.next_cell(cell, road_direction(heading)),
            Mobility::Hex { grid, .. } => grid.neighbor(cell, HexDir::from_index(heading)),
        }
    }
}

fn road_direction(heading: u8) -> Direction {
    match heading {
        0 => Direction::Up,
        1 => Direction::Down,
        other => panic!("road heading must be 0 or 1, got {other}"),
    }
}

/// Connections a run of `s` is expected to hold at once at most, for
/// sizing the event queue up front: per cell, the `M/M/∞` mean
/// `λ·τ·(1 − e^(−T/τ))` at the horizon `T`, capped by the cell's capacity
/// (a connection holds at least one BU).
///
/// Growing the queue by doubling copies it into a fresh block once per
/// doubling; where the allocator finds that block depends on the heap the
/// runs before left, so a process running several scenarios peaked at a
/// resident size that differed from one process to the next.
fn peak_connections(s: &Scenario) -> usize {
    let tau = s.mean_lifetime_secs;
    let per_cell = s.arrival_rate() * tau * -(-s.duration_secs / tau).exp_m1();
    let per_cell = per_cell.min(f64::from(s.capacity_bus));
    (per_cell * s.num_cells as f64).ceil() as usize
}

/// The full simulation engine for one scenario.
pub struct Engine {
    scenario: Scenario,
    mobility: Mobility,
    system: ReservationSystem,
    workload: Workload,
    /// Admitted connections still in the system.
    live_connections: usize,
    ids: ConnectionIdAllocator,
    metrics: Metrics,
    /// Pre-fetched neighbor lists for `B_r` trace updates.
    neighbor_lists: Vec<Vec<CellId>>,
    /// Wired backbone with per-connection paths (Section 7 extension).
    wired: Option<WiredNetwork>,
}

/// Watchdog tick cadence, in sim-seconds: with telemetry on, the driver
/// runs the flight-capture trigger's tick whenever the DES clock crosses
/// one of these boundaries, before dispatching the boundary-crossing
/// event. The trigger evaluates on its own, coarser grid.
const WATCHDOG_EPOCH_SECS: f64 = 10.0;

impl Engine {
    /// Builds an engine from a scenario. Panics if
    /// [`Scenario::validate`] rejects it.
    pub fn new(scenario: Scenario) -> Self {
        if let Err(e) = scenario.validate() {
            panic!("{e}");
        }
        // The QoS violation clock and the capture trigger's burn rate
        // measure against this scenario's contract, not the global default.
        qres_obs::set_qos_target_p_hd(scenario.p_hd_target);
        let (mobility, topology) = match scenario.hex_grid {
            Some((rows, cols)) => {
                let grid = HexGrid::new(rows, cols);
                (
                    Mobility::Hex {
                        grid,
                        diameter_km: scenario.cell_diameter_km,
                    },
                    grid.topology(),
                )
            }
            None => (
                Mobility::Road(RoadGeometry::new(
                    scenario.num_cells,
                    scenario.cell_diameter_km,
                    scenario.ring,
                )),
                if scenario.ring {
                    Topology::ring(scenario.num_cells)
                } else {
                    Topology::linear(scenario.num_cells)
                },
            ),
        };
        let neighbor_lists = topology
            .cells()
            .map(|c| topology.neighbors(c).to_vec())
            .collect();
        let system = ReservationSystem::new(scenario.qres_config(), topology, scenario.backbone);
        let workload = Workload::new(&scenario);
        let total_hours = (scenario.duration_secs / 3_600.0).ceil() as usize + 1;
        let metrics = Metrics::new(
            scenario.num_cells,
            SimTime::ZERO,
            total_hours,
            &scenario.trace_cell_ids(),
        );
        let wired = scenario.wired.as_ref().map(|w| w.build(scenario.num_cells));
        Engine {
            scenario,
            mobility,
            system,
            workload,
            live_connections: 0,
            ids: ConnectionIdAllocator::new(),
            metrics,
            neighbor_lists,
            wired,
        }
    }

    /// Runs the scenario to its horizon and returns the results.
    pub fn run(mut self) -> RunResult {
        self.run_keeping_state()
    }

    /// Runs the scenario but keeps the engine alive afterwards, so callers
    /// can dissect the trained state (estimation caches, footprints) —
    /// see the `mobility_explorer` example. Calling it a second time is
    /// not supported (the event queue is gone).
    pub fn run_keeping_state(&mut self) -> RunResult {
        // One pending event per connection, the next arrival per cell, the
        // hour tick and the warm-up end.
        let mut sim: Simulation<Event> = Simulation::with_capacity(
            peak_connections(&self.scenario) + self.scenario.num_cells + 2,
        );
        // Apply the hour-0 schedule before anything arrives.
        if self.scenario.time_varying.is_some() {
            self.apply_schedule(SimTime::ZERO);
            sim.queue_mut()
                .schedule(SimTime::from_hours(1.0), Event::HourTick);
        }
        // Seed one arrival process per cell.
        for cell in 0..self.scenario.num_cells {
            let gap = self.workload.next_interarrival(cell);
            sim.queue_mut().schedule(
                SimTime::from_secs(gap),
                Event::Arrival {
                    cell: CellId(cell as u32),
                },
            );
        }
        if self.scenario.warmup_secs > 0.0 {
            sim.queue_mut().schedule(
                SimTime::from_secs(self.scenario.warmup_secs),
                Event::WarmupEnd,
            );
        }
        let horizon = SimTime::from_secs(self.scenario.duration_secs);
        let mut driver = Driver {
            engine: self,
            next_epoch: SimTime::from_secs(WATCHDOG_EPOCH_SECS),
        };
        sim.run_until(horizon, u64::MAX, &mut driver);
        if qres_obs::enabled() {
            // The run's forecasts end with it: the next run on this
            // thread scores only its own.
            qres_obs::calib::settle(qres_obs::sim_time());
        }
        debug_assert!(self.system.check_invariants());
        debug_assert!(self
            .wired
            .as_ref()
            .is_none_or(WiredNetwork::check_invariants));
        self.finalize(horizon, sim.dispatched())
    }

    /// Mutable access to the reservation system (post-run inspection).
    pub fn system_mut(&mut self) -> &mut ReservationSystem {
        &mut self.system
    }

    /// The wired backbone, when configured (post-run inspection).
    pub fn wired(&self) -> Option<&WiredNetwork> {
        self.wired.as_ref()
    }

    fn finalize(&self, now: SimTime, events: u64) -> RunResult {
        let n = self.scenario.num_cells;
        let final_t_est: Vec<u64> = (0..n)
            .map(|i| self.system.t_est(CellId(i as u32)).as_secs() as u64)
            .collect();
        let final_br: Vec<f64> = (0..n)
            .map(|i| self.system.last_br(CellId(i as u32)))
            .collect();
        let final_bu: Vec<u32> = (0..n)
            .map(|i| self.system.used_bus(CellId(i as u32)))
            .collect();
        let label = format!(
            "{} L={} R_vo={} [{}-{} km/h]",
            self.scenario.scheme.label(),
            self.scenario.offered_load,
            self.scenario.voice_ratio,
            self.scenario.speed_range_kmh.0,
            self.scenario.speed_range_kmh.1,
        );
        self.metrics.clone().finalize(
            label,
            now,
            &final_t_est,
            &final_br,
            &final_bu,
            self.system.n_calc_stats().mean().unwrap_or(0.0),
            self.system.signaling().stats(),
            events,
        )
    }

    /// Applies the schedule entry for the hour containing `now`.
    fn apply_schedule(&mut self, now: SimTime) {
        let Some(tv) = &self.scenario.time_varying else {
            return;
        };
        let entry = tv.schedule.at_hour(now.hour_of_day());
        let range = tv.schedule.speed_range_at(now.hour_of_day());
        self.workload
            .set_arrival_rate(self.scenario.arrival_rate_for_load(entry.offered_load));
        self.workload.set_speed_range(range);
    }

    /// Runs one admission attempt (fresh arrival or retry).
    fn attempt_admission(
        &mut self,
        now: SimTime,
        cell: CellId,
        attrs: MobileAttrs,
        attempts: u32,
        queue: &mut EventQueue<Event>,
    ) {
        let id = self.ids.allocate();
        let known_next = self
            .scenario
            .route_aware
            .then(|| self.mobility.next_cell(cell, attrs.heading))
            .flatten();
        let bandwidth = attrs.media.bandwidth();
        // Joint admission (Section 7 wired extension): the wired path to
        // the gateway must be feasible too. Checked first — a request the
        // backbone cannot carry is blocked without disturbing the radio
        // reservation state.
        let wired_ok = self
            .wired
            .as_ref()
            .is_none_or(|w| w.can_allocate(cell, bandwidth));
        if !wired_ok {
            self.metrics.record_request(now, cell, true);
            if qres_obs::enabled() {
                qres_obs::qos::record_admission_outcome(now.as_secs(), cell.0, true);
            }
            self.maybe_schedule_retry(now, cell, attrs, attempts, queue);
            return;
        }
        let decision = self.system.request_new_connection(
            now,
            NewConnectionRequest {
                cell,
                id,
                bandwidth,
                known_next,
            },
        );
        let blocked = decision.is_blocked();
        self.metrics.record_request(now, cell, blocked);
        if qres_obs::enabled() {
            qres_obs::qos::record_admission_outcome(now.as_secs(), cell.0, blocked);
        }
        self.after_admission_test(now, cell);
        if blocked {
            self.maybe_schedule_retry(now, cell, attrs, attempts, queue);
            return;
        }
        self.metrics
            .update_bu(now, cell, self.system.used_bus(cell));
        if let Some(wired) = &mut self.wired {
            wired
                .allocate(id, cell, bandwidth)
                .expect("can_allocate held under the same event");
        }
        let mobile = MobileState {
            id,
            cell,
            speed_kmh: attrs.speed_kmh,
            heading: attrs.heading,
            end_at: now + Duration::from_secs(attrs.lifetime_secs),
        };
        // First boundary crossing from the sampled in-cell position.
        let crossing =
            self.mobility
                .first_crossing(cell, attrs.position_frac, attrs.heading, attrs.speed_kmh);
        schedule_next(mobile, now + crossing, queue);
        self.live_connections += 1;
        if qres_obs::enabled() {
            qres_obs::metrics::ACTIVE_MOBILES.observe(self.live_connections as u64);
        }
    }

    /// Updates `B_r` metrics after an admission test in `cell`: the test
    /// recomputed the cell's own target and possibly (AC2/AC3) those of its
    /// neighbors, so refresh all of them from the system's `last_br`.
    fn after_admission_test(&mut self, now: SimTime, cell: CellId) {
        self.metrics.update_br(now, cell, self.system.last_br(cell));
        let neighbors = std::mem::take(&mut self.neighbor_lists[cell.index()]);
        for &nb in &neighbors {
            self.metrics.update_br(now, nb, self.system.last_br(nb));
        }
        self.neighbor_lists[cell.index()] = neighbors;
    }

    fn maybe_schedule_retry(
        &mut self,
        now: SimTime,
        cell: CellId,
        attrs: MobileAttrs,
        attempts: u32,
        queue: &mut EventQueue<Event>,
    ) {
        let Some(tv) = &self.scenario.time_varying else {
            return; // stationary experiments have no retry model
        };
        let p = tv.retry.retry_probability(attempts);
        let wait = tv.retry.wait_secs;
        if self.workload.retry_decision(p) {
            queue.schedule(
                now + Duration::from_secs(wait),
                Event::Retry {
                    cell,
                    attrs: Box::new(attrs),
                    attempts: attempts + 1,
                },
            );
        }
    }

    fn handle_handoff(
        &mut self,
        now: SimTime,
        mut mobile: MobileState,
        queue: &mut EventQueue<Event>,
    ) {
        let (id, from) = (mobile.id, mobile.cell);
        let Some(to) = self.mobility.next_cell(from, mobile.heading) else {
            // Disconnected border: the mobile leaves the system.
            self.handle_end(now, id, from);
            return;
        };
        // Route-aware mode: declare the cell after `to` (the declaration
        // assumes the current heading persists, so a later turn makes it
        // stale — deliberately).
        let known_next = self
            .scenario
            .route_aware
            .then(|| self.mobility.next_cell(to, mobile.heading))
            .flatten();
        // Section 7 wired extension: a hand-off also needs a re-routable
        // wired path; an infeasible backbone drops it even when the radio
        // link has room.
        let wired_veto = self.wired.as_ref().is_some_and(|w| !w.can_reroute(id, to));
        let outcome = self
            .system
            .attempt_handoff_constrained(now, id, from, to, known_next, wired_veto);
        let dropped = outcome.is_dropped();
        self.metrics.record_handoff(now, to, dropped);
        if qres_obs::enabled() {
            qres_obs::qos::record_handoff_outcome(now.as_secs(), to.0, dropped);
        }
        self.metrics
            .trace_t_est(now, to, self.system.t_est(to).as_secs() as u64);
        self.metrics
            .update_bu(now, from, self.system.used_bus(from));
        self.metrics.update_bu(now, to, self.system.used_bus(to));
        if dropped {
            self.live_connections -= 1;
            if let Some(wired) = &mut self.wired {
                wired.release(id).expect("dropped connection held a path");
            }
            return;
        }
        if let Some(wired) = &mut self.wired {
            wired
                .reroute(id, to)
                .expect("can_reroute held under the same event");
        }
        // Robustness extension: optional heading change at cell crossings
        // (probability 0 under the paper's A4).
        mobile.cell = to;
        if self.workload.turn_decision() {
            mobile.heading = self.workload.turn_target(mobile.heading);
        }
        let crossing = self.mobility.full_crossing(mobile.speed_kmh);
        schedule_next(mobile, now + crossing, queue);
    }

    /// Releases a connection whose lifetime expired in `cell`, or which
    /// left the system there at a disconnected border.
    fn handle_end(&mut self, now: SimTime, id: ConnectionId, cell: CellId) {
        self.system.end_connection(now, id, cell);
        self.metrics
            .update_bu(now, cell, self.system.used_bus(cell));
        self.live_connections -= 1;
        if let Some(wired) = &mut self.wired {
            wired.release(id).expect("ended connection held a path");
        }
    }
}

/// Borrow shim implementing the DES handler over the engine.
struct Driver<'a> {
    engine: &'a mut Engine,
    /// Next watchdog cadence boundary.
    next_epoch: SimTime,
}

impl Handler<Event> for Driver<'_> {
    fn handle(&mut self, now: SimTime, event: Event, queue: &mut EventQueue<Event>) {
        if now >= self.next_epoch {
            if qres_obs::enabled() {
                // Capture-trigger tick: evaluate the P_HD burn on the QoS
                // windows when an evaluation grid boundary was crossed.
                // Runs on the sim clock, before the boundary-crossing
                // event dispatches, so the captures are bit-identical
                // across reruns — and strictly derived: nothing flows
                // back into simulation state.
                qres_obs::watchdog_tick(now.as_secs());
            }
            while now >= self.next_epoch {
                self.next_epoch += Duration::from_secs(WATCHDOG_EPOCH_SECS);
            }
        }
        let e = &mut *self.engine;
        match event {
            Event::Arrival { cell } => {
                let attrs = e.workload.sample_attrs();
                e.attempt_admission(now, cell, attrs, 1, queue);
                let gap = e.workload.next_interarrival(cell.index());
                queue.schedule(now + Duration::from_secs(gap), Event::Arrival { cell });
            }
            Event::Retry {
                cell,
                attrs,
                attempts,
            } => {
                e.attempt_admission(now, cell, *attrs, attempts, queue);
            }
            Event::Handoff(mobile) => e.handle_handoff(now, mobile, queue),
            Event::ConnectionEnd { id, cell } => e.handle_end(now, id, cell),
            Event::HourTick => {
                e.apply_schedule(now);
                queue.schedule(now + Duration::from_hours(1.0), Event::HourTick);
            }
            Event::WarmupEnd => e.metrics.reset_for_measurement(now),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::SchemeKind;

    fn quick(scheme: SchemeKind, load: f64, seed: u64) -> RunResult {
        Engine::new(
            Scenario::paper_baseline()
                .scheme(scheme)
                .offered_load(load)
                .duration_secs(300.0)
                .seed(seed),
        )
        .run()
    }

    #[test]
    fn peak_connections_follows_the_transient_up_to_capacity() {
        // λ·τ = L / b̄ = 30 per cell; after one half-lifetime the M/M/∞
        // mean is 30·(1 − e^(−1/2)) = 11.8 per cell, 118.04 over ten.
        let short = Scenario::paper_baseline()
            .offered_load(30.0)
            .duration_secs(60.0);
        assert_eq!(peak_connections(&short), 119);
        // At L = 300 the steady mean of 300 per cell exceeds the 100 BUs
        // a cell holds.
        let long = Scenario::paper_baseline()
            .offered_load(300.0)
            .duration_secs(10_000.0);
        assert_eq!(peak_connections(&long), 1_000);
    }

    /// A pending event costs the queue 72 bytes: a 24-byte heap entry and
    /// a 48-byte slot holding the 40-byte event.
    #[test]
    fn event_fits_a_40_byte_payload() {
        assert_eq!(std::mem::size_of::<Event>(), 40);
    }

    #[test]
    fn one_pending_event_per_mobile() {
        let mut s = Scenario::paper_baseline().scheme(SchemeKind::Ac1);
        s.turn_probability = 1.0;
        let mut engine = Engine::new(s);
        let mut queue = EventQueue::new();
        let attrs = MobileAttrs {
            position_frac: 0.5,
            heading: 0,
            lifetime_secs: 1e6,
            ..engine.workload.sample_attrs()
        };
        engine.attempt_admission(SimTime::ZERO, CellId(4), attrs, 1, &mut queue);
        let Some((at, Event::Handoff(mobile))) = queue.pop() else {
            panic!("the crossing comes before the expiry");
        };
        assert_eq!(mobile.end_at, SimTime::from_secs(1e6));
        // A successful hand-off moves the mobile, and every crossing turns:
        // on the road that reverses the heading.
        engine.handle_handoff(at, mobile, &mut queue);
        let to = engine.mobility.next_cell(mobile.cell, 0).unwrap();
        let moved = MobileState {
            cell: to,
            heading: 1,
            ..mobile
        };
        let crossing = at + engine.mobility.full_crossing(attrs.speed_kmh);
        assert_eq!(queue.pop(), Some((crossing, Event::Handoff(moved))));
        // The expiry wins an exact tie.
        schedule_next(moved, moved.end_at, &mut queue);
        let end = Event::ConnectionEnd {
            id: moved.id,
            cell: to,
        };
        assert_eq!(queue.pop(), Some((moved.end_at, end)));
        assert!(queue.is_empty());
    }

    #[test]
    fn light_load_admits_nearly_everything() {
        let r = quick(SchemeKind::Ac3, 30.0, 1);
        assert!(r.system_cb.trials() > 300, "arrivals happened");
        assert!(r.p_cb() < 0.02, "P_CB = {} too high at L = 30", r.p_cb());
        assert!(r.p_hd() <= 0.02, "P_HD = {} too high at L = 30", r.p_hd());
        assert!(r.system_hd.trials() > 100, "hand-offs happened");
    }

    #[test]
    fn overload_blocks_many() {
        let r = quick(SchemeKind::Ac3, 300.0, 2);
        assert!(r.p_cb() > 0.3, "P_CB = {} too low at L = 300", r.p_cb());
    }

    #[test]
    fn deterministic_runs() {
        let a = quick(SchemeKind::Ac3, 150.0, 7);
        let b = quick(SchemeKind::Ac3, 150.0, 7);
        assert_eq!(a.system_cb, b.system_cb);
        assert_eq!(a.system_hd, b.system_hd);
        assert_eq!(a.events_dispatched, b.events_dispatched);
        assert_eq!(a.avg_br(), b.avg_br());
    }

    #[test]
    fn common_random_numbers_across_schemes() {
        // Same seed, different schemes: identical arrival counts (the
        // workload streams are scheme-independent).
        let a = quick(SchemeKind::Ac1, 150.0, 7);
        let b = quick(SchemeKind::Static { guard_bus: 10 }, 150.0, 7);
        assert_eq!(a.system_cb.trials(), b.system_cb.trials());
    }

    #[test]
    fn static_scheme_runs() {
        let r = quick(SchemeKind::Static { guard_bus: 10 }, 100.0, 3);
        assert!(r.system_cb.trials() > 0);
        assert_eq!(r.n_calc_mean, 0.0, "static performs no B_r calculations");
        assert_eq!(r.signaling.messages, 0);
    }

    #[test]
    fn ac1_ncalc_is_one_ac2_is_three() {
        let a = quick(SchemeKind::Ac1, 100.0, 4);
        assert_eq!(a.n_calc_mean, 1.0);
        let b = quick(SchemeKind::Ac2, 100.0, 4);
        assert_eq!(b.n_calc_mean, 3.0);
        let c = quick(SchemeKind::Ac3, 60.0, 4);
        assert!(c.n_calc_mean >= 1.0 && c.n_calc_mean < 1.5);
    }

    #[test]
    fn traces_populate() {
        let r = Engine::new(
            Scenario::paper_baseline()
                .offered_load(200.0)
                .duration_secs(300.0)
                .trace_cells(&[4, 5])
                .seed(5),
        )
        .run();
        assert_eq!(r.traces.len(), 2);
        assert!(!r.traces[&4].b_r.is_empty());
        assert!(!r.traces[&4].t_est.is_empty());
    }

    #[test]
    fn one_directional_border_has_no_drops() {
        let r = Engine::new(
            Scenario::paper_baseline()
                .one_directional()
                .offered_load(300.0)
                .scheme(SchemeKind::Ac1)
                .duration_secs(400.0)
                .seed(6),
        )
        .run();
        // Cell 0 receives no hand-offs at all (nothing upstream).
        assert_eq!(r.cells[0].handoffs, 0);
        assert_eq!(r.cells[0].p_hd, 0.0);
        // Downstream cells do receive hand-offs.
        assert!(r.cells[5].handoffs > 0);
    }

    #[test]
    fn time_varying_mode_runs_with_retries() {
        use crate::timevarying::TimeVaryingConfig;
        let mut tv = TimeVaryingConfig::paper_like();
        tv.days = 1;
        let mut scenario = Scenario::paper_baseline()
            .scheme(SchemeKind::Ac1)
            .time_varying(tv)
            .seed(8);
        // Cover the morning ramp and the 9:00 peak only — enough to
        // exercise retries and the hourly buckets without simulating a
        // whole day in a unit test (fig14 runs the full two days).
        scenario.duration_secs = 10.0 * 3_600.0;
        let r = Engine::new(scenario).run();
        assert!(!r.hourly_cb.is_empty());
        // Bucket count follows the (shortened) duration: ceil(10 h) + 1.
        assert_eq!(r.hourly_requests.len(), 11);
        // The 9:00 rush hour saw more requests than the night hours.
        assert!(r.hourly_requests[9] > 2 * r.hourly_requests[2]);
    }

    #[test]
    fn warmup_resets_measurement() {
        let mut s = Scenario::paper_baseline()
            .offered_load(100.0)
            .duration_secs(400.0)
            .seed(9);
        s.warmup_secs = 200.0;
        let r = Engine::new(s).run();
        assert!((r.duration_secs - 200.0).abs() < 1e-9);
        let full = quick(SchemeKind::Ac3, 100.0, 9);
        assert!(r.system_cb.trials() < full.system_cb.trials());
    }

    #[test]
    fn hex_grid_simulation_runs() {
        let mut s = Scenario::paper_baseline()
            .hex(4, 5)
            .scheme(SchemeKind::Ac3)
            .offered_load(150.0)
            .duration_secs(300.0)
            .seed(11);
        s.turn_probability = 0.2;
        let r = Engine::new(s).run();
        assert_eq!(r.cells.len(), 20);
        assert!(r.system_cb.trials() > 0);
        assert!(r.system_hd.trials() > 0, "hand-offs occur on the grid");
        // Interior cells with six neighbors see hand-offs.
        assert!(r.cells.iter().filter(|c| c.handoffs > 0).count() >= 15);
    }

    #[test]
    fn hex_grid_deterministic() {
        let s = Scenario::paper_baseline()
            .hex(3, 4)
            .offered_load(100.0)
            .duration_secs(200.0)
            .seed(12);
        let a = Engine::new(s.clone()).run();
        let b = Engine::new(s).run();
        assert_eq!(a.system_cb, b.system_cb);
        assert_eq!(a.system_hd, b.system_hd);
        assert_eq!(a.events_dispatched, b.events_dispatched);
    }

    #[test]
    fn turn_probability_keeps_invariants() {
        let mut s = Scenario::paper_baseline()
            .offered_load(150.0)
            .duration_secs(300.0)
            .seed(10);
        s.turn_probability = 0.3;
        let r = Engine::new(s).run();
        assert!(r.system_hd.trials() > 0);
    }

    #[test]
    fn wired_backbone_with_ample_capacity_changes_nothing() {
        use crate::scenario::WiredConfig;
        let base = Scenario::paper_baseline()
            .scheme(SchemeKind::Ac3)
            .offered_load(150.0)
            .duration_secs(300.0)
            .seed(13);
        let radio_only = Engine::new(base.clone()).run();
        let wired = Engine::new(base.wired(WiredConfig::Star {
            access_bus: 100,
            trunk_bus: 10_000,
        }))
        .run();
        // Access links match the radio capacity and the trunk is huge: the
        // backbone never binds, so results are identical.
        assert_eq!(radio_only.system_cb, wired.system_cb);
        assert_eq!(radio_only.system_hd, wired.system_hd);
    }

    #[test]
    fn underprovisioned_trunk_blocks_and_drops() {
        use crate::scenario::WiredConfig;
        let base = Scenario::paper_baseline()
            .scheme(SchemeKind::Ac3)
            .offered_load(150.0)
            .duration_secs(300.0)
            .seed(13);
        let radio_only = Engine::new(base.clone()).run();
        // Trunk carries at most 300 BU for the whole 10-cell system whose
        // radio layer could hold ~850: the backbone becomes the
        // bottleneck.
        let starved = Engine::new(base.wired(WiredConfig::Star {
            access_bus: 100,
            trunk_bus: 300,
        }))
        .run();
        assert!(
            starved.p_cb() > radio_only.p_cb() + 0.1,
            "trunk starvation must inflate blocking: {} vs {}",
            starved.p_cb(),
            radio_only.p_cb()
        );
        assert!(starved.avg_bu() < radio_only.avg_bu());
    }

    #[test]
    fn tree_backbone_reroutes_with_crossover() {
        use crate::scenario::WiredConfig;
        let mut engine = Engine::new(
            Scenario::paper_baseline()
                .scheme(SchemeKind::Ac1)
                .offered_load(100.0)
                .duration_secs(300.0)
                .seed(14)
                .wired(WiredConfig::Tree {
                    branching: 2,
                    access_bus: 100,
                    trunk_bus: 500,
                }),
        );
        let r = engine.run_keeping_state();
        assert!(r.system_hd.trials() > 100);
        let (changed, kept) = engine.wired().unwrap().reroute_stats();
        assert!(changed > 0, "re-routes happened");
        // Roughly half the ring's hand-offs are between siblings under one
        // switch, so a visible fraction of links is kept by crossover.
        assert!(kept > 0, "crossover kept no links");
        assert!(engine.wired().unwrap().check_invariants());
    }

    #[test]
    fn ns_scheme_runs_end_to_end() {
        let r = quick(
            SchemeKind::Ns {
                window_secs: 30.0,
                mean_sojourn_secs: 36.0,
            },
            150.0,
            15,
        );
        assert!(r.system_cb.trials() > 500);
        assert_eq!(r.n_calc_mean, 1.0);
        // The exponential model reserves aggressively on the road: drops
        // are rare.
        assert!(r.p_hd() < 0.02);
    }
}
