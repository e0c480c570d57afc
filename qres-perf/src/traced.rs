//! The traced run: the engine's event loop replayed over the public layer
//! APIs, with a span around every call into a layer.
//!
//! [`TracedEngine`] mirrors `qres_sim::Engine` step for step: the same
//! construction, the same event vocabulary scheduled in the same order,
//! the same calls into `qres-des`, `qres-sim`'s workload sampler and
//! metrics, `qres-cellnet`'s geometry, `qres-core`'s reservation system
//! and the engine-side `qres-obs` hooks. It runs its own loop over
//! [`EventQueue`] (the peek-then-pop sequence of
//! `qres_des::Simulation::run_until`) so that the queue's `pop` is timed
//! from outside too. It supports only what the benchmark's workloads use
//! and refuses any scenario with a wired backbone, route-aware
//! reservation or a warm-up period.
//!
//! Each loop iteration (one dispatched event) is a root span; every
//! `every`-th one is timed, with child spans around each layer call, and
//! stands for `every` iterations. Call counts are exact; the cost of
//! timing a span, calibrated on empty spans ([`calibrate`]), is subtracted
//! from the row it lands in.

use std::collections::HashMap;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::Instant;

use qres_cellnet::ids::ConnectionIdAllocator;
use qres_cellnet::{
    CellId, ConnectionId, Direction, HexDir, HexGrid, MessageKind, RoadGeometry, Topology,
};
use qres_core::{NewConnectionRequest, ReservationSystem};
use qres_des::{Duration, EventHandle, EventQueue, SimTime};
use qres_sim::workload::{MobileAttrs, Workload as Sampler};
use qres_sim::{Metrics, RunResult, Scenario};
use qres_stats::LogLinearHistogram;

/// The layers a traced run attributes time to, named after the crates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `qres_des::EventQueue::{schedule, peek_time, pop, cancel}`.
    Des,
    /// `qres_sim::workload::Workload` sampling and schedule switches.
    Workload,
    /// `qres-cellnet` geometry (crossing times, next cell) and id
    /// allocation.
    Cellnet,
    /// `ReservationSystem::request_new_connection`.
    CoreAdmission,
    /// `ReservationSystem::attempt_handoff_constrained`.
    CoreHandoff,
    /// `ReservationSystem::end_connection`.
    CoreEnd,
    /// `qres_sim::Metrics` updates and finalization.
    SimMetrics,
    /// The engine-side `qres_obs` hooks.
    Obs,
}

/// Every layer, in report order.
pub const LAYERS: [Layer; 8] = [
    Layer::Des,
    Layer::Workload,
    Layer::Cellnet,
    Layer::CoreAdmission,
    Layer::CoreHandoff,
    Layer::CoreEnd,
    Layer::SimMetrics,
    Layer::Obs,
];

impl Layer {
    /// The metric-name prefix of the layer.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Des => "des",
            Layer::Workload => "workload",
            Layer::Cellnet => "cellnet",
            Layer::CoreAdmission => "core.admission",
            Layer::CoreHandoff => "core.handoff",
            Layer::CoreEnd => "core.end",
            Layer::SimMetrics => "sim.metrics",
            Layer::Obs => "obs",
        }
    }
}

/// Spans kept for the span file.
const SPAN_LOG_CAP: usize = 100_000;

/// One recorded span.
struct SpanRec {
    /// Span id (root spans are events, `seed` or `finalize`).
    id: u64,
    /// Parent span id; 0 for a root span.
    parent: u64,
    /// Layer or root name.
    name: &'static str,
    /// Start, in nanoseconds since the tracer was created.
    start_ns: u64,
    /// Raw measured duration in nanoseconds.
    dur_ns: u64,
}

/// What timing one span adds, measured on empty spans through the same
/// code path (see [`calibrate`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanCost {
    /// Added inside a child span's measured interval.
    pub child_in_ns: f64,
    /// Added to the enclosing root span outside the child's interval:
    /// the rest of the two clock reads and the bookkeeping.
    pub child_out_ns: f64,
    /// Added inside a root span's own measured interval.
    pub root_ns: f64,
}

impl SpanCost {
    /// Total cost of one child span.
    pub fn child_ns(&self) -> f64 {
        self.child_in_ns + self.child_out_ns
    }
}

struct Root {
    id: u64,
    name: &'static str,
    start: Instant,
    /// Loop iterations the span stands for: the sampling stride for a
    /// timed event, 1 for seeding and finalization.
    weight: f64,
    /// Raw nanoseconds and number of its child spans so far.
    child_raw_ns: u64,
    children: u64,
}

/// In-memory span aggregation.
pub struct Tracer {
    origin: Instant,
    cost: SpanCost,
    log_cap: usize,
    root: Option<Root>,
    next_id: u64,
    calls: [u64; LAYERS.len()],
    /// Busy nanoseconds per layer, span cost removed and weighted.
    busy_ns: [f64; LAYERS.len()],
    /// Self nanoseconds of the root spans, span cost removed and weighted.
    driver_ns: f64,
    iterations: u64,
    timed_iterations: u64,
    admission_ns: LogLinearHistogram,
    handoff_ns: LogLinearHistogram,
    log: Vec<SpanRec>,
}

impl Tracer {
    fn new(cost: SpanCost, log_cap: usize) -> Self {
        Tracer {
            origin: Instant::now(),
            cost,
            log_cap,
            root: None,
            next_id: 1,
            calls: [0; LAYERS.len()],
            busy_ns: [0.0; LAYERS.len()],
            driver_ns: 0.0,
            iterations: 0,
            timed_iterations: 0,
            admission_ns: LogLinearHistogram::new(),
            handoff_ns: LogLinearHistogram::new(),
            log: Vec::with_capacity(log_cap),
        }
    }

    /// Starts one loop iteration; a timed one stands for `every`.
    #[inline(always)]
    fn begin_event(&mut self, timed: bool, every: u64) {
        self.iterations += 1;
        if timed {
            self.timed_iterations += 1;
            self.open_root("event", every as f64);
        }
    }

    /// Starts a root span that is always timed and stands for itself.
    fn begin_once(&mut self, name: &'static str) {
        self.open_root(name, 1.0);
    }

    fn open_root(&mut self, name: &'static str, weight: f64) {
        let id = self.next_id;
        self.next_id += 1;
        self.root = Some(Root {
            id,
            name,
            start: Instant::now(),
            weight,
            child_raw_ns: 0,
            children: 0,
        });
    }

    /// Closes the current root span, if it is timed.
    #[inline(always)]
    fn end(&mut self) {
        if let Some(root) = self.root.take() {
            self.close_root(root);
        }
    }

    fn close_root(&mut self, root: Root) {
        let raw = ns(root.start.elapsed());
        let self_ns = raw as f64
            - root.child_raw_ns as f64
            - root.children as f64 * self.cost.child_out_ns
            - self.cost.root_ns;
        self.driver_ns += self_ns * root.weight;
        self.log_span(root.id, 0, root.name, root.start, raw);
    }

    /// Runs `f` as one call into `layer`, timed when the current root span
    /// is.
    #[inline(always)]
    fn time<R>(&mut self, layer: Layer, f: impl FnOnce() -> R) -> R {
        self.calls[layer as usize] += 1;
        if self.root.is_none() {
            return f();
        }
        let t0 = Instant::now();
        let r = f();
        let t1 = Instant::now();
        self.close_child(layer, t0, t1);
        r
    }

    fn close_child(&mut self, layer: Layer, t0: Instant, t1: Instant) {
        let raw = ns(t1 - t0);
        let Some(root) = &mut self.root else {
            return;
        };
        root.child_raw_ns += raw;
        root.children += 1;
        let (parent, weight) = (root.id, root.weight);
        let net = raw as f64 - self.cost.child_in_ns;
        self.busy_ns[layer as usize] += net * weight;
        match layer {
            Layer::CoreAdmission => self.admission_ns.add(net.max(0.0) as u64),
            Layer::CoreHandoff => self.handoff_ns.add(net.max(0.0) as u64),
            _ => {}
        }
        let id = self.next_id;
        self.next_id += 1;
        self.log_span(id, parent, layer.name(), t0, raw);
    }

    fn log_span(&mut self, id: u64, parent: u64, name: &'static str, start: Instant, dur_ns: u64) {
        if self.log.len() < self.log_cap {
            self.log.push(SpanRec {
                id,
                parent,
                name,
                start_ns: ns(start - self.origin),
                dur_ns,
            });
        }
    }

    /// Exact number of calls into `layer`.
    pub fn calls(&self, layer: Layer) -> u64 {
        self.calls[layer as usize]
    }

    /// Estimated busy seconds of `layer`, span cost removed. A layer
    /// whose calls take less than the span cost's error reads 0, never
    /// less.
    pub fn busy_s(&self, layer: Layer) -> f64 {
        self.busy_ns[layer as usize].max(0.0) / 1e9
    }

    /// Estimated self time of the root spans (dispatch, the mobile table,
    /// and everything between layer calls), span cost removed.
    pub fn driver_busy_s(&self) -> f64 {
        self.driver_ns.max(0.0) / 1e9
    }

    /// Share of loop iterations that were timed.
    pub fn timed_event_frac(&self) -> f64 {
        self.timed_iterations as f64 / self.iterations.max(1) as f64
    }

    /// Calibrated cost of one child span, in nanoseconds.
    pub fn span_cost_ns(&self) -> f64 {
        self.cost.child_ns()
    }

    /// Admission-test latency quantile in microseconds.
    pub fn admission_us(&self, q: f64) -> f64 {
        quantile_us(&self.admission_ns, q)
    }

    /// Hand-off latency quantile in microseconds.
    pub fn handoff_us(&self, q: f64) -> f64 {
        quantile_us(&self.handoff_ns, q)
    }

    /// Writes the first spans, with their parent ids, as JSON.
    pub fn write_spans(&self, path: &Path, provenance: &str) -> std::io::Result<()> {
        let mut out = BufWriter::new(std::fs::File::create(path)?);
        write!(
            out,
            "{{\"provenance\":{provenance},\"span_cost_ns\":{},\"spans\":[",
            self.cost.child_ns()
        )?;
        for (i, s) in self.log.iter().enumerate() {
            if i > 0 {
                out.write_all(b",\n")?;
            }
            write!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"dur_ns\":{}}}",
                s.id, s.parent, s.name, s.start_ns, s.dur_ns
            )?;
        }
        out.write_all(b"]}\n")?;
        out.flush()
    }
}

fn ns(d: std::time::Duration) -> u64 {
    d.as_nanos() as u64
}

fn quantile_us(h: &LogLinearHistogram, q: f64) -> f64 {
    h.value_at_quantile(q).map_or(0.0, |v| v as f64 / 1e3)
}

/// Measures [`SpanCost`] on empty spans run through the tracer itself:
/// the median over nine batches.
pub fn calibrate() -> SpanCost {
    const SPANS: u32 = 50_000;
    let per_span = |total: f64| total / f64::from(SPANS);
    let mut batches: Vec<SpanCost> = (0..9)
        .map(|_| {
            let mut children = Tracer::new(SpanCost::default(), 0);
            children.begin_once("calibrate");
            for _ in 0..SPANS {
                children.time(Layer::Cellnet, || std::hint::black_box(()));
            }
            children.end();
            let mut roots = Tracer::new(SpanCost::default(), 0);
            for _ in 0..SPANS {
                roots.begin_once("calibrate");
                roots.end();
            }
            SpanCost {
                child_in_ns: per_span(children.busy_ns[Layer::Cellnet as usize]),
                child_out_ns: per_span(children.driver_ns),
                root_ns: per_span(roots.driver_ns),
            }
        })
        .collect();
    batches.sort_by(|a, b| a.child_ns().total_cmp(&b.child_ns()));
    batches[batches.len() / 2]
}

/// End-of-run state of the reservation system that `RunResult` does not
/// carry; a traced run must reproduce it exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SystemProbe {
    /// `(messages, bytes)` per signaling message kind.
    pub per_kind: [(u64, u64); 4],
    /// Neighbor contributions answered from the `B_r` memo.
    pub br_memo_hits: u64,
    /// `B_r` computations.
    pub br_calcs: u64,
    /// Admission tests.
    pub admissions: u64,
    /// Quadruplets held in all estimation caches.
    pub hoe_stored_events: u64,
    /// Sum over cells of the estimation caches' mutation counters.
    pub hoe_mutations: u64,
}

/// Reads a finished run's [`SystemProbe`].
pub fn probe(system: &mut ReservationSystem) -> SystemProbe {
    let per_kind = [
        MessageKind::ReservationQuery,
        MessageKind::ReservationReply,
        MessageKind::AdmissionCheckRequest,
        MessageKind::AdmissionCheckReply,
    ]
    .map(|k| system.signaling().stats_for(k));
    let (mut stored, mut mutations) = (0u64, 0u64);
    for i in 0..system.num_cells() {
        let hoe = system.hoe_cache_mut(CellId(i as u32));
        stored += hoe.stored_events() as u64;
        mutations += hoe.version();
    }
    SystemProbe {
        per_kind,
        br_memo_hits: system.br_memo_hits(),
        br_calcs: system.br_calcs_total(),
        admissions: system.admission_requests_total(),
        hoe_stored_events: stored,
        hoe_mutations: mutations,
    }
}

/// Outcome counts the traced driver observes at the layer boundaries.
#[derive(Debug, Clone, Copy, Default)]
pub struct Outcomes {
    /// Admission tests.
    pub admissions: u64,
    /// Blocked admission tests.
    pub blocked: u64,
    /// Admission tests after which the requesting cell's `last_br` is
    /// bit-equal to its value before the test.
    pub br_unchanged: u64,
    /// Hand-off attempts.
    pub handoffs: u64,
    /// Dropped hand-offs.
    pub dropped: u64,
    /// Events scheduled on the queue.
    pub scheduled: u64,
    /// Most live events the queue held at once.
    pub live_high_water: u64,
}

/// Everything one traced run produced.
pub struct TracedRun {
    /// The run's result; must equal `Engine::run`'s.
    pub result: RunResult,
    /// End-of-run system state; must equal the untraced run's.
    pub probe: SystemProbe,
    /// Wall seconds of the run (seeding, loop and finalization).
    pub wall_s: f64,
    /// Layer boundary outcome counts.
    pub outcomes: Outcomes,
    /// The span aggregation.
    pub tracer: Tracer,
}

/// Epoch length of `Engine`'s barrier clock, in sim-seconds; the
/// telemetry watchdog ticks on it.
const EPOCH_SECS: f64 = 10.0;

#[derive(Debug, Clone, Copy, PartialEq)]
enum Event {
    Arrival {
        cell: CellId,
    },
    Retry {
        cell: CellId,
        attrs: MobileAttrs,
        attempts: u32,
    },
    Handoff {
        id: ConnectionId,
    },
    ConnectionEnd {
        id: ConnectionId,
    },
    HourTick,
}

#[derive(Debug, Clone, Copy)]
struct MobileState {
    cell: CellId,
    speed_kmh: f64,
    heading: u8,
    end_handle: EventHandle,
    handoff_handle: Option<EventHandle>,
}

#[derive(Debug, Clone, Copy)]
enum Mobility {
    Road(RoadGeometry),
    Hex { grid: HexGrid, diameter_km: f64 },
}

impl Mobility {
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

    fn full_crossing(&self, speed_kmh: f64) -> Duration {
        match self {
            Mobility::Road(geo) => geo.full_crossing_time(speed_kmh),
            Mobility::Hex { diameter_km, .. } => {
                Duration::from_secs(diameter_km / speed_kmh * 3_600.0)
            }
        }
    }

    fn next_cell(&self, cell: CellId, heading: u8) -> Option<CellId> {
        match self {
            Mobility::Road(geo) => geo.next_cell(cell, road_direction(heading)),
            Mobility::Hex { grid, .. } => grid.neighbor(cell, HexDir::from_index(heading)),
        }
    }
}

fn road_direction(heading: u8) -> Direction {
    if heading == 0 {
        Direction::Up
    } else {
        Direction::Down
    }
}

/// The traced replay of `qres_sim::Engine` for one scenario.
pub struct TracedEngine {
    scenario: Scenario,
    mobility: Mobility,
    system: ReservationSystem,
    workload: Sampler,
    mobiles: HashMap<ConnectionId, MobileState>,
    ids: ConnectionIdAllocator,
    metrics: Metrics,
    neighbor_lists: Vec<Vec<CellId>>,
    next_epoch: SimTime,
    epoch: u64,
    last_barrier: Option<Instant>,
    outcomes: Outcomes,
    tr: Tracer,
}

impl TracedEngine {
    /// Builds the traced engine the way `Engine::new` builds its own.
    /// Refuses scenarios with features the traced driver does not replay.
    pub fn new(scenario: Scenario, cost: SpanCost) -> Result<Self, String> {
        if scenario.wired.is_some() || scenario.route_aware || scenario.warmup_secs > 0.0 {
            return Err(
                "the traced driver replays no wired backbone, route-aware reservation or warm-up"
                    .into(),
            );
        }
        scenario.validate();
        qres_obs::metrics::ensure_cell_shards(scenario.num_cells);
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
        let workload = Sampler::new(&scenario);
        let total_hours = (scenario.duration_secs / 3_600.0).ceil() as usize + 1;
        let metrics = Metrics::new(
            scenario.num_cells,
            SimTime::ZERO,
            total_hours,
            &scenario.trace_cell_ids(),
        );
        Ok(TracedEngine {
            scenario,
            mobility,
            system,
            workload,
            mobiles: HashMap::new(),
            ids: ConnectionIdAllocator::new(),
            metrics,
            neighbor_lists,
            next_epoch: SimTime::from_secs(EPOCH_SECS),
            epoch: 0,
            last_barrier: None,
            outcomes: Outcomes::default(),
            tr: Tracer::new(cost, SPAN_LOG_CAP),
        })
    }

    /// Runs to the horizon, timing every `every`-th loop iteration.
    pub fn run(mut self, every: u64) -> TracedRun {
        let every = every.max(1);
        let wall0 = Instant::now();
        let mut queue: EventQueue<Event> = EventQueue::new();
        self.tr.begin_once("seed");
        if self.scenario.time_varying.is_some() {
            self.apply_schedule(SimTime::ZERO);
            self.tr.time(Layer::Des, || {
                queue.schedule(SimTime::from_hours(1.0), Event::HourTick)
            });
        }
        for cell in 0..self.scenario.num_cells {
            let gap = self
                .tr
                .time(Layer::Workload, || self.workload.next_interarrival(cell));
            self.tr.time(Layer::Des, || {
                queue.schedule(
                    SimTime::from_secs(gap),
                    Event::Arrival {
                        cell: CellId(cell as u32),
                    },
                )
            });
        }
        self.tr.end();
        let horizon = SimTime::from_secs(self.scenario.duration_secs);
        self.last_barrier = qres_obs::enabled().then(Instant::now);
        let mut now = SimTime::ZERO;
        let mut dispatched = 0u64;
        let mut until_timed = 0u64;
        loop {
            self.tr.begin_event(until_timed == 0, every);
            until_timed = until_timed.checked_sub(1).unwrap_or(every - 1);
            let next = self.tr.time(Layer::Des, || queue.peek_time());
            if next.is_none_or(|at| at >= horizon) {
                self.tr.end();
                break;
            }
            let (at, event) = self
                .tr
                .time(Layer::Des, || queue.pop())
                .expect("peeked entry must pop");
            assert!(
                at >= now,
                "non-monotonic clock: event at {at} popped at {now}"
            );
            now = at;
            dispatched += 1;
            if qres_obs::enabled() {
                self.tr
                    .time(Layer::Obs, || qres_obs::set_sim_time(at.as_secs()));
                let t0 = Instant::now();
                self.handle(at, event, &mut queue);
                self.tr.time(Layer::Obs, || {
                    qres_obs::metrics::EVENT_DISPATCH_NS.record_duration(t0.elapsed())
                });
            } else {
                self.handle(at, event, &mut queue);
            }
            self.tr.end();
        }
        self.tr.begin_once("finalize");
        let result = self.finalize(horizon, dispatched);
        self.tr.end();
        let wall_s = wall0.elapsed().as_secs_f64();
        self.outcomes.scheduled = queue.scheduled_total();
        self.outcomes.live_high_water = queue.live_high_water() as u64;
        TracedRun {
            result,
            probe: probe(&mut self.system),
            wall_s,
            outcomes: self.outcomes,
            tracer: self.tr,
        }
    }

    fn finalize(&mut self, now: SimTime, events: u64) -> RunResult {
        let n = self.scenario.num_cells;
        let cells = || (0..n).map(|i| CellId(i as u32));
        let final_t_est: Vec<u64> = cells()
            .map(|c| self.system.t_est(c).as_secs() as u64)
            .collect();
        let final_br: Vec<f64> = cells().map(|c| self.system.last_br(c)).collect();
        let final_bu: Vec<u32> = cells().map(|c| self.system.used_bus(c)).collect();
        let s = &self.scenario;
        let label = format!(
            "{} L={} R_vo={} [{}-{} km/h]",
            s.scheme.label(),
            s.offered_load,
            s.voice_ratio,
            s.speed_range_kmh.0,
            s.speed_range_kmh.1,
        );
        let n_calc = self.system.n_calc_stats().mean().unwrap_or(0.0);
        let signaling = self.system.signaling().stats();
        self.tr.time(Layer::SimMetrics, || {
            self.metrics.clone().finalize(
                label,
                now,
                &final_t_est,
                &final_br,
                &final_bu,
                n_calc,
                signaling,
                events,
            )
        })
    }

    fn apply_schedule(&mut self, now: SimTime) {
        let Some(tv) = &self.scenario.time_varying else {
            return;
        };
        let entry = tv.schedule.at_hour(now.hour_of_day());
        let range = tv.schedule.speed_range_at(now.hour_of_day());
        let rate = self.scenario.arrival_rate_for_load(entry.offered_load);
        self.tr
            .time(Layer::Workload, || self.workload.set_arrival_rate(rate));
        self.tr
            .time(Layer::Workload, || self.workload.set_speed_range(range));
    }

    fn handle(&mut self, now: SimTime, event: Event, queue: &mut EventQueue<Event>) {
        if now >= self.next_epoch {
            let barrier_t0 = qres_obs::enabled().then(Instant::now);
            self.system.quiesce();
            if let Some(t0) = barrier_t0 {
                self.epoch += 1;
                let barrier_ns = ns(t0.elapsed());
                let done = Instant::now();
                if let Some(prev) = self.last_barrier {
                    let wall_ns = ns(done.duration_since(prev));
                    let epoch = self.epoch;
                    self.tr.time(Layer::Obs, || {
                        let (blocked_ns, serial_ns) = qres_obs::record_epoch(wall_ns, barrier_ns);
                        qres_obs::record(qres_obs::ObsEvent::EpochBarrier {
                            t: now.as_secs(),
                            epoch,
                            wall_ns,
                            barrier_ns,
                            blocked_ns,
                            serial_ns,
                        });
                    });
                }
                self.last_barrier = Some(done);
            }
            if qres_obs::enabled() {
                self.tr
                    .time(Layer::Obs, || qres_obs::watchdog_tick(now.as_secs()));
            }
            while now >= self.next_epoch {
                self.next_epoch += Duration::from_secs(EPOCH_SECS);
            }
        }
        match event {
            Event::Arrival { cell } => {
                let attrs = self
                    .tr
                    .time(Layer::Workload, || self.workload.sample_attrs());
                self.attempt_admission(now, cell, attrs, 1, queue);
                let gap = self.tr.time(Layer::Workload, || {
                    self.workload.next_interarrival(cell.index())
                });
                self.tr.time(Layer::Des, || {
                    queue.schedule(now + Duration::from_secs(gap), Event::Arrival { cell })
                });
            }
            Event::Retry {
                cell,
                attrs,
                attempts,
            } => self.attempt_admission(now, cell, attrs, attempts, queue),
            Event::Handoff { id } => self.handle_handoff(now, id, queue),
            Event::ConnectionEnd { id } => self.handle_end(now, id, queue),
            Event::HourTick => {
                self.apply_schedule(now);
                self.tr.time(Layer::Des, || {
                    queue.schedule(now + Duration::from_hours(1.0), Event::HourTick)
                });
            }
        }
    }

    fn attempt_admission(
        &mut self,
        now: SimTime,
        cell: CellId,
        attrs: MobileAttrs,
        attempts: u32,
        queue: &mut EventQueue<Event>,
    ) {
        let id = self.tr.time(Layer::Cellnet, || self.ids.allocate());
        let bandwidth = attrs.media.bandwidth();
        let br_before = self.system.last_br(cell);
        let decision = self.tr.time(Layer::CoreAdmission, || {
            self.system.request_new_connection(
                now,
                NewConnectionRequest {
                    cell,
                    id,
                    bandwidth,
                    known_next: None,
                },
            )
        });
        let blocked = decision.is_blocked();
        let o = &mut self.outcomes;
        o.admissions += 1;
        o.blocked += u64::from(blocked);
        o.br_unchanged += u64::from(self.system.last_br(cell).to_bits() == br_before.to_bits());
        self.tr.time(Layer::SimMetrics, || {
            self.metrics.record_request(now, cell, blocked)
        });
        if qres_obs::enabled() {
            self.tr.time(Layer::Obs, || {
                qres_obs::qos::record_admission_outcome(now.as_secs(), cell.0, blocked)
            });
        }
        // The test recomputed the cell's own target and possibly its
        // neighbors': refresh all of them, as the engine does.
        let br = self.system.last_br(cell);
        self.tr
            .time(Layer::SimMetrics, || self.metrics.update_br(now, cell, br));
        for &nb in &self.neighbor_lists[cell.index()] {
            let br = self.system.last_br(nb);
            self.tr
                .time(Layer::SimMetrics, || self.metrics.update_br(now, nb, br));
        }
        if blocked {
            self.maybe_schedule_retry(now, cell, attrs, attempts, queue);
            return;
        }
        let used = self.system.used_bus(cell);
        self.tr.time(Layer::SimMetrics, || {
            self.metrics.update_bu(now, cell, used)
        });
        let end_handle = self.tr.time(Layer::Des, || {
            queue.schedule(
                now + Duration::from_secs(attrs.lifetime_secs),
                Event::ConnectionEnd { id },
            )
        });
        let crossing = self.tr.time(Layer::Cellnet, || {
            self.mobility
                .first_crossing(cell, attrs.position_frac, attrs.heading, attrs.speed_kmh)
        });
        let handoff_handle = self.tr.time(Layer::Des, || {
            queue.schedule(now + crossing, Event::Handoff { id })
        });
        self.mobiles.insert(
            id,
            MobileState {
                cell,
                speed_kmh: attrs.speed_kmh,
                heading: attrs.heading,
                end_handle,
                handoff_handle: Some(handoff_handle),
            },
        );
        if qres_obs::enabled() {
            let active = self.mobiles.len() as u64;
            self.tr.time(Layer::Obs, || {
                qres_obs::metrics::ACTIVE_MOBILES.observe(active)
            });
        }
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
            return;
        };
        let p = tv.retry.retry_probability(attempts);
        let wait = tv.retry.wait_secs;
        if self
            .tr
            .time(Layer::Workload, || self.workload.retry_decision(p))
        {
            self.tr.time(Layer::Des, || {
                queue.schedule(
                    now + Duration::from_secs(wait),
                    Event::Retry {
                        cell,
                        attrs,
                        attempts: attempts + 1,
                    },
                )
            });
        }
    }

    fn handle_handoff(&mut self, now: SimTime, id: ConnectionId, queue: &mut EventQueue<Event>) {
        let state = *self
            .mobiles
            .get(&id)
            .expect("hand-off events are cancelled with their mobile");
        let from = state.cell;
        let next = self.tr.time(Layer::Cellnet, || {
            self.mobility.next_cell(from, state.heading)
        });
        let Some(to) = next else {
            // Disconnected border: the mobile leaves the system.
            self.tr
                .time(Layer::CoreEnd, || self.system.end_connection(now, id, from));
            let used = self.system.used_bus(from);
            self.tr.time(Layer::SimMetrics, || {
                self.metrics.update_bu(now, from, used)
            });
            self.tr.time(Layer::Des, || queue.cancel(state.end_handle));
            self.mobiles.remove(&id);
            return;
        };
        let outcome = self.tr.time(Layer::CoreHandoff, || {
            self.system
                .attempt_handoff_constrained(now, id, from, to, None, false)
        });
        let dropped = outcome.is_dropped();
        self.outcomes.handoffs += 1;
        self.outcomes.dropped += u64::from(dropped);
        self.tr.time(Layer::SimMetrics, || {
            self.metrics.record_handoff(now, to, dropped)
        });
        if qres_obs::enabled() {
            self.tr.time(Layer::Obs, || {
                qres_obs::qos::record_handoff_outcome(now.as_secs(), to.0, dropped)
            });
        }
        let t_est = self.system.t_est(to).as_secs() as u64;
        self.tr.time(Layer::SimMetrics, || {
            self.metrics.trace_t_est(now, to, t_est)
        });
        let used_from = self.system.used_bus(from);
        self.tr.time(Layer::SimMetrics, || {
            self.metrics.update_bu(now, from, used_from)
        });
        let used_to = self.system.used_bus(to);
        self.tr.time(Layer::SimMetrics, || {
            self.metrics.update_bu(now, to, used_to)
        });
        if dropped {
            self.tr.time(Layer::Des, || queue.cancel(state.end_handle));
            self.mobiles.remove(&id);
            return;
        }
        let turned = self
            .tr
            .time(Layer::Workload, || self.workload.turn_decision());
        let heading = if turned {
            self.tr
                .time(Layer::Workload, || self.workload.turn_target(state.heading))
        } else {
            state.heading
        };
        let crossing = self.tr.time(Layer::Cellnet, || {
            self.mobility.full_crossing(state.speed_kmh)
        });
        let handle = self.tr.time(Layer::Des, || {
            queue.schedule(now + crossing, Event::Handoff { id })
        });
        let m = self.mobiles.get_mut(&id).expect("mobile exists");
        m.cell = to;
        m.heading = heading;
        m.handoff_handle = Some(handle);
    }

    fn handle_end(&mut self, now: SimTime, id: ConnectionId, queue: &mut EventQueue<Event>) {
        let state = self
            .mobiles
            .remove(&id)
            .expect("end events are cancelled with their mobile");
        self.tr.time(Layer::CoreEnd, || {
            self.system.end_connection(now, id, state.cell)
        });
        let used = self.system.used_bus(state.cell);
        self.tr.time(Layer::SimMetrics, || {
            self.metrics.update_bu(now, state.cell, used)
        });
        if let Some(h) = state.handoff_handle {
            self.tr.time(Layer::Des, || queue.cancel(h));
        }
    }
}
