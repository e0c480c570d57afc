//! Declarative run configuration.
//!
//! A [`Scenario`] captures everything that varies between the paper's
//! experiments: the offered load and voice ratio, the mobility range, the
//! admission scheme, the topology variant (ring vs. disconnected linear),
//! the direction mode (random vs. the Table 3 one-directional pattern) and
//! the optional time-varying schedule. [`Scenario::paper_baseline`] is the
//! Section 5.1 parameter set; builder methods override single knobs.

use qres_cellnet::{Bandwidth, BsNetworkKind, CellId, MediaClass, WiredNetwork};
use qres_core::{AcKind, NsParams, QresConfig, SchemeConfig};

use crate::timevarying::TimeVaryingConfig;

/// The admission/reservation scheme of a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SchemeKind {
    /// Static guard-channel reservation with `G` BUs.
    Static {
        /// The guard band in BUs.
        guard_bus: u32,
    },
    /// Predictive reservation with admission control AC1.
    Ac1,
    /// Predictive reservation with admission control AC2.
    Ac2,
    /// Predictive reservation with admission control AC3.
    Ac3,
    /// The Naghshineh–Schwartz related-work baseline (reference \[10\]):
    /// exponential-sojourn, direction-blind expected hand-in load over a
    /// fixed window.
    Ns {
        /// Fixed estimation window `T_ns` (seconds).
        window_secs: f64,
        /// Assumed mean sojourn `τ` (seconds).
        mean_sojourn_secs: f64,
    },
}

impl SchemeKind {
    /// Maps to the core scheme configuration.
    pub fn to_scheme_config(self) -> SchemeConfig {
        match self {
            SchemeKind::Static { guard_bus } => SchemeConfig::Static {
                guard: Bandwidth::from_bus(guard_bus),
            },
            SchemeKind::Ac1 => SchemeConfig::Predictive { kind: AcKind::Ac1 },
            SchemeKind::Ac2 => SchemeConfig::Predictive { kind: AcKind::Ac2 },
            SchemeKind::Ac3 => SchemeConfig::Predictive { kind: AcKind::Ac3 },
            SchemeKind::Ns {
                window_secs,
                mean_sojourn_secs,
            } => SchemeConfig::NaghshinehSchwartz {
                params: NsParams {
                    window_secs,
                    mean_sojourn_secs,
                },
            },
        }
    }

    /// Display label ("AC3", "static(G=10)").
    pub fn label(self) -> String {
        self.to_scheme_config().label()
    }
}

/// Wired-backbone reservation (Section 7: "bandwidth reservation in the
/// wired links along the routes of hand-off connections"). Connections
/// additionally claim a path from their base station to the gateway;
/// admission requires wired feasibility, and hand-offs re-route with the
/// crossover optimization — a failed re-route drops the hand-off even if
/// the radio link had room.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WiredConfig {
    /// Star backbone (Fig. 1a): all BSs under one MSC.
    Star {
        /// BS ↔ MSC link capacity (BUs).
        access_bus: u32,
        /// MSC ↔ gateway trunk capacity (BUs).
        trunk_bus: u32,
    },
    /// Two-level tree: BSs in groups of `branching` under switches.
    Tree {
        /// BSs per switch.
        branching: usize,
        /// BS ↔ switch link capacity (BUs).
        access_bus: u32,
        /// switch ↔ gateway link capacity (BUs).
        trunk_bus: u32,
    },
}

impl WiredConfig {
    /// Builds the backbone for `num_cells` cells.
    pub fn build(&self, num_cells: usize) -> WiredNetwork {
        match *self {
            WiredConfig::Star {
                access_bus,
                trunk_bus,
            } => WiredNetwork::star(
                num_cells,
                Bandwidth::from_bus(access_bus),
                Bandwidth::from_bus(trunk_bus),
            ),
            WiredConfig::Tree {
                branching,
                access_bus,
                trunk_bus,
            } => WiredNetwork::tree(
                num_cells,
                branching,
                Bandwidth::from_bus(access_bus),
                Bandwidth::from_bus(trunk_bus),
            ),
        }
    }
}

/// How mobiles pick their travel direction (assumption A4 vs. Table 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DirectionMode {
    /// Either direction with equal probability (A4).
    Random,
    /// All mobiles travel from cell 1 toward cell 10 (the Table 3
    /// experiment, run with a disconnected linear topology).
    AllUp,
}

/// Full configuration of one simulation run.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Number of cells (paper: 10).
    pub num_cells: usize,
    /// Cell diameter in km (paper: 1).
    pub cell_diameter_km: f64,
    /// Connect the border cells into a ring (paper default: yes).
    pub ring: bool,
    /// Use a hexagonal `rows × cols` 2-D grid instead of the 1-D road
    /// (the paper's Section 7 extension). When set, `num_cells` must equal
    /// `rows · cols` and `ring` is ignored; mobiles hold one of six
    /// headings and cross cells in `diameter / speed`.
    pub hex_grid: Option<(usize, usize)>,
    /// Wireless link capacity per cell in BUs (paper: 100).
    pub capacity_bus: u32,
    /// The admission/reservation scheme.
    pub scheme: SchemeKind,
    /// Voice ratio `R_vo` (voice = 1 BU, video = 4 BU).
    pub voice_ratio: f64,
    /// Offered load per cell `L = λ · b̄ · lifetime` (Eq. 7).
    pub offered_load: f64,
    /// Mobile speed range `[SP_min, SP_max]` in km/h.
    pub speed_range_kmh: (f64, f64),
    /// Mean connection lifetime in seconds (paper: 120, exponential).
    pub mean_lifetime_secs: f64,
    /// Direction sampling mode.
    pub direction: DirectionMode,
    /// Probability that a mobile reverses direction at each successful
    /// cell crossing. The paper's A4 fixes this to 0 ("mobiles never turn
    /// around"); nonzero values deliberately violate the estimator's
    /// pattern assumption for the robustness experiments.
    pub turn_probability: f64,
    /// Route-aware reservation (the Section 7 ITS/GPS extension): mobiles
    /// declare their next cell, so neighbors reserve only toward the
    /// declared destination and the estimator predicts hand-off *time*
    /// only. With `turn_probability > 0` declarations can be wrong,
    /// exercising robustness to stale route data.
    pub route_aware: bool,
    /// Hand-off drop probability target (paper: 0.01).
    pub p_hd_target: f64,
    /// Simulated duration in seconds.
    pub duration_secs: f64,
    /// Warm-up span excluded from metrics (0 = measure from cold start,
    /// like the paper).
    pub warmup_secs: f64,
    /// Master RNG seed.
    pub seed: u64,
    /// Inter-BS backbone (affects signaling cost accounting only).
    pub backbone: BsNetworkKind,
    /// Optional wired-backbone reservation (Section 7 extension).
    pub wired: Option<WiredConfig>,
    /// Optional time-varying workload (Fig. 14).
    pub time_varying: Option<TimeVaryingConfig>,
    /// Cells whose `T_est` / `B_r` / running `P_HD` are traced over time
    /// (Figs. 10–11 trace cells 5 and 6; 1-based in the paper, 0-based
    /// here).
    pub trace_cells: Vec<u32>,
}

impl Scenario {
    /// The paper's Section 5.1 stationary baseline: 10-cell 1-km ring,
    /// `C = 100` BU, `R_vo = 1.0`, high mobility (80–120 km/h), offered
    /// load 100, AC3, `P_HD,target = 0.01`, 2000 s.
    pub fn paper_baseline() -> Self {
        Scenario {
            num_cells: 10,
            cell_diameter_km: 1.0,
            ring: true,
            hex_grid: None,
            capacity_bus: 100,
            scheme: SchemeKind::Ac3,
            voice_ratio: 1.0,
            offered_load: 100.0,
            speed_range_kmh: (80.0, 120.0),
            mean_lifetime_secs: 120.0,
            direction: DirectionMode::Random,
            turn_probability: 0.0,
            route_aware: false,
            p_hd_target: 0.01,
            duration_secs: 2_000.0,
            warmup_secs: 0.0,
            seed: 1,
            backbone: BsNetworkKind::FullyConnected,
            wired: None,
            time_varying: None,
            trace_cells: Vec::new(),
        }
    }

    /// The metro-scale preset: the paper's parameters scaled from the
    /// 10-cell ring to a 32 × 32 = 1024-cell hexagonal grid
    /// ([`qres_cellnet::HexGrid::metro`]), AC3, moderate per-cell load,
    /// occasional turns (the 2-D grid's headings are not the road's
    /// strict back-and-forth), 600 s (`qres template metro`).
    pub fn metro() -> Self {
        let mut s = Scenario::paper_baseline()
            .hex(
                qres_cellnet::HexGrid::METRO_ROWS,
                qres_cellnet::HexGrid::METRO_COLS,
            )
            .scheme(SchemeKind::Ac3)
            .offered_load(120.0)
            .duration_secs(600.0);
        s.turn_probability = 0.15;
        s
    }

    /// Builder: set the offered load `L`.
    pub fn offered_load(mut self, load: f64) -> Self {
        self.offered_load = load;
        self
    }

    /// Builder: set the scheme.
    pub fn scheme(mut self, scheme: SchemeKind) -> Self {
        self.scheme = scheme;
        self
    }

    /// Builder: set the voice ratio.
    pub fn voice_ratio(mut self, r_vo: f64) -> Self {
        self.voice_ratio = r_vo;
        self
    }

    /// Builder: high user mobility (80–120 km/h, the paper's setting).
    pub fn high_mobility(mut self) -> Self {
        self.speed_range_kmh = (80.0, 120.0);
        self
    }

    /// Builder: low user mobility (40–60 km/h).
    pub fn low_mobility(mut self) -> Self {
        self.speed_range_kmh = (40.0, 60.0);
        self
    }

    /// Builder: set the run duration.
    pub fn duration_secs(mut self, secs: f64) -> Self {
        self.duration_secs = secs;
        self
    }

    /// Builder: set the seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder: trace the given cells' `T_est`/`B_r`/`P_HD` over time.
    pub fn trace_cells(mut self, cells: &[u32]) -> Self {
        self.trace_cells = cells.to_vec();
        self
    }

    /// Builder: the Table 3 variant — one-directional traffic over a
    /// disconnected linear road.
    pub fn one_directional(mut self) -> Self {
        self.direction = DirectionMode::AllUp;
        self.ring = false;
        self
    }

    /// Builder: attach a wired backbone (Section 7 extension).
    pub fn wired(mut self, wired: WiredConfig) -> Self {
        self.wired = Some(wired);
        self
    }

    /// Builder: enable route-aware reservation (Section 7 extension).
    pub fn route_aware(mut self) -> Self {
        self.route_aware = true;
        self
    }

    /// Builder: switch to a hexagonal `rows × cols` grid (2-D extension).
    pub fn hex(mut self, rows: usize, cols: usize) -> Self {
        self.hex_grid = Some((rows, cols));
        self.num_cells = rows * cols;
        self
    }

    /// Builder: attach a time-varying workload.
    pub fn time_varying(mut self, tv: TimeVaryingConfig) -> Self {
        self.duration_secs = tv.total_secs();
        self.time_varying = Some(tv);
        self
    }

    /// Mean connection bandwidth `b̄` in BUs (Eq. 7's media mix factor).
    pub fn mean_bandwidth(&self) -> f64 {
        MediaClass::mean_bandwidth(self.voice_ratio)
    }

    /// The per-cell Poisson arrival rate λ (connections/s) that realizes
    /// `offered_load = λ · b̄ · mean_lifetime` (Eq. 7).
    pub fn arrival_rate(&self) -> f64 {
        self.offered_load / (self.mean_bandwidth() * self.mean_lifetime_secs)
    }

    /// Arrival rate for an arbitrary offered load under this scenario's
    /// media mix (used by the time-varying schedule).
    pub fn arrival_rate_for_load(&self, load: f64) -> f64 {
        load / (self.mean_bandwidth() * self.mean_lifetime_secs)
    }

    /// The core-layer configuration for this scenario.
    pub fn qres_config(&self) -> QresConfig {
        let scheme = self.scheme.to_scheme_config();
        let mut config = if self.time_varying.is_some() {
            QresConfig::paper_time_varying(scheme)
        } else {
            QresConfig::paper_stationary(scheme)
        };
        config.p_hd_target = self.p_hd_target;
        config.capacity = Bandwidth::from_bus(self.capacity_bus);
        config
    }

    /// Checks every field against its valid range. The error names each
    /// violated field with its value, `; `-separated. Non-finite values
    /// fail every range check.
    pub fn validate(&self) -> Result<(), String> {
        let (lo, hi) = self.speed_range_kmh;
        let guard = match self.scheme {
            SchemeKind::Static { guard_bus } => guard_bus < self.capacity_bus,
            _ => true,
        };
        let ns = match self.scheme {
            SchemeKind::Ns {
                window_secs,
                mean_sojourn_secs,
            } => positive(window_secs) && positive(mean_sojourn_secs),
            _ => true,
        };
        let tree = !matches!(self.wired, Some(WiredConfig::Tree { branching: 0, .. }));
        let mut violations = violations(&[
            (
                self.num_cells >= 3,
                "num_cells",
                &self.num_cells,
                "need at least 3 cells",
            ),
            (
                u32::try_from(self.num_cells).is_ok(),
                "num_cells",
                &self.num_cells,
                "must be at most u32::MAX (cell ids are u32)",
            ),
            (
                self.hex_grid
                    .is_none_or(|(r, c)| r.checked_mul(c) == Some(self.num_cells)),
                "num_cells",
                &self.num_cells,
                "must equal rows * cols on a hex grid",
            ),
            (
                self.hex_grid.is_none_or(|(r, c)| r >= 2 && c >= 2),
                "hex_grid",
                &self.hex_grid,
                "needs at least 2x2",
            ),
            (
                self.hex_grid.is_none_or(|(r, c)| {
                    r.checked_mul(c).is_some_and(|n| u32::try_from(n).is_ok())
                }),
                "hex_grid",
                &self.hex_grid,
                "rows * cols must be at most u32::MAX (cell ids are u32)",
            ),
            (
                self.capacity_bus > 0,
                "capacity_bus",
                &self.capacity_bus,
                "must be positive",
            ),
            (
                guard,
                "scheme",
                &self.scheme,
                "guard_bus must be smaller than capacity_bus",
            ),
            (
                ns,
                "scheme",
                &self.scheme,
                "window and mean sojourn must be positive and finite",
            ),
            (tree, "wired", &self.wired, "branching must be positive"),
            (
                positive(self.cell_diameter_km),
                "cell_diameter_km",
                &self.cell_diameter_km,
                "must be positive and finite",
            ),
            (
                (0.0..=1.0).contains(&self.voice_ratio),
                "voice_ratio",
                &self.voice_ratio,
                "must be in [0, 1]",
            ),
            (
                positive(self.offered_load),
                "offered_load",
                &self.offered_load,
                "must be positive and finite",
            ),
            (
                positive(lo) && positive(hi) && hi >= lo,
                "speed_range_kmh",
                &self.speed_range_kmh,
                "must be positive and finite with lo <= hi",
            ),
            (
                positive(self.mean_lifetime_secs),
                "mean_lifetime_secs",
                &self.mean_lifetime_secs,
                "must be positive and finite",
            ),
            (
                (0.0..=1.0).contains(&self.turn_probability),
                "turn_probability",
                &self.turn_probability,
                "must be in [0, 1]",
            ),
            (
                self.p_hd_target > 0.0 && self.p_hd_target < 1.0,
                "p_hd_target",
                &self.p_hd_target,
                "must be in (0, 1)",
            ),
            (
                positive(self.duration_secs),
                "duration_secs",
                &self.duration_secs,
                "must be positive and finite",
            ),
            (
                self.warmup_secs >= 0.0 && self.warmup_secs < self.duration_secs,
                "warmup_secs",
                &self.warmup_secs,
                "must be nonnegative and end before duration_secs",
            ),
            (
                self.trace_cells
                    .iter()
                    .all(|&c| (c as usize) < self.num_cells),
                "trace_cells",
                &self.trace_cells,
                "trace cell out of range",
            ),
        ]);
        if let Some(Err(e)) = self.time_varying.as_ref().map(TimeVaryingConfig::validate) {
            violations.push(e);
        }
        if violations.is_empty() {
            Ok(())
        } else {
            Err(format!("invalid scenario: {}", violations.join("; ")))
        }
    }

    /// The traced cells as ids.
    pub fn trace_cell_ids(&self) -> Vec<CellId> {
        self.trace_cells.iter().map(|&c| CellId(c)).collect()
    }
}

/// Whether `x` is a positive, finite number: JSON's `1e400` parses to
/// infinity, which no size, rate or duration of a run can be.
pub(crate) fn positive(x: f64) -> bool {
    x > 0.0 && x.is_finite()
}

/// `field = value: rule` for every failed `(holds, field, value, rule)`
/// check. Values are formatted only on failure.
pub(crate) fn violations(checks: &[(bool, &str, &dyn std::fmt::Debug, &str)]) -> Vec<String> {
    checks
        .iter()
        .filter(|(ok, ..)| !ok)
        .map(|(_, field, value, rule)| format!("{field} = {value:?}: {rule}"))
        .collect()
}

qres_json::json_unit_enum!(DirectionMode { Random, AllUp });

impl qres_json::ToJson for SchemeKind {
    fn to_json(&self) -> qres_json::Value {
        use qres_json::Value;
        match *self {
            SchemeKind::Ac1 => Value::Str("Ac1".into()),
            SchemeKind::Ac2 => Value::Str("Ac2".into()),
            SchemeKind::Ac3 => Value::Str("Ac3".into()),
            SchemeKind::Static { guard_bus } => Value::Object(vec![(
                "Static".into(),
                Value::Object(vec![("guard_bus".into(), guard_bus.to_json())]),
            )]),
            SchemeKind::Ns {
                window_secs,
                mean_sojourn_secs,
            } => Value::Object(vec![(
                "Ns".into(),
                Value::Object(vec![
                    ("window_secs".into(), window_secs.to_json()),
                    ("mean_sojourn_secs".into(), mean_sojourn_secs.to_json()),
                ]),
            )]),
        }
    }
}

impl qres_json::FromJson for SchemeKind {
    fn from_json(v: &qres_json::Value) -> Result<Self, qres_json::JsonError> {
        use qres_json::{FromJson, JsonError, Value};
        match v {
            Value::Str(s) => match s.as_str() {
                "Ac1" => Ok(SchemeKind::Ac1),
                "Ac2" => Ok(SchemeKind::Ac2),
                "Ac3" => Ok(SchemeKind::Ac3),
                other => Err(JsonError(format!("unknown SchemeKind variant `{other}`"))),
            },
            Value::Object(fields) if fields.len() == 1 => {
                let (tag, body) = &fields[0];
                match tag.as_str() {
                    "Static" => Ok(SchemeKind::Static {
                        guard_bus: FromJson::from_json(
                            body.get("guard_bus")
                                .ok_or_else(|| JsonError::missing_field("guard_bus"))?,
                        )?,
                    }),
                    "Ns" => Ok(SchemeKind::Ns {
                        window_secs: FromJson::from_json(
                            body.get("window_secs")
                                .ok_or_else(|| JsonError::missing_field("window_secs"))?,
                        )?,
                        mean_sojourn_secs: FromJson::from_json(
                            body.get("mean_sojourn_secs")
                                .ok_or_else(|| JsonError::missing_field("mean_sojourn_secs"))?,
                        )?,
                    }),
                    other => Err(JsonError(format!("unknown SchemeKind variant `{other}`"))),
                }
            }
            other => Err(JsonError::expected("SchemeKind variant", other)),
        }
    }
}

impl qres_json::ToJson for WiredConfig {
    fn to_json(&self) -> qres_json::Value {
        use qres_json::Value;
        match *self {
            WiredConfig::Star {
                access_bus,
                trunk_bus,
            } => Value::Object(vec![(
                "Star".into(),
                Value::Object(vec![
                    ("access_bus".into(), access_bus.to_json()),
                    ("trunk_bus".into(), trunk_bus.to_json()),
                ]),
            )]),
            WiredConfig::Tree {
                branching,
                access_bus,
                trunk_bus,
            } => Value::Object(vec![(
                "Tree".into(),
                Value::Object(vec![
                    ("branching".into(), branching.to_json()),
                    ("access_bus".into(), access_bus.to_json()),
                    ("trunk_bus".into(), trunk_bus.to_json()),
                ]),
            )]),
        }
    }
}

impl qres_json::FromJson for WiredConfig {
    fn from_json(v: &qres_json::Value) -> Result<Self, qres_json::JsonError> {
        use qres_json::{FromJson, JsonError, Value};
        let field = |body: &Value, name: &str| -> Result<Value, JsonError> {
            body.get(name)
                .cloned()
                .ok_or_else(|| JsonError::missing_field(name))
        };
        match v {
            Value::Object(fields) if fields.len() == 1 => {
                let (tag, body) = &fields[0];
                match tag.as_str() {
                    "Star" => Ok(WiredConfig::Star {
                        access_bus: FromJson::from_json(&field(body, "access_bus")?)?,
                        trunk_bus: FromJson::from_json(&field(body, "trunk_bus")?)?,
                    }),
                    "Tree" => Ok(WiredConfig::Tree {
                        branching: FromJson::from_json(&field(body, "branching")?)?,
                        access_bus: FromJson::from_json(&field(body, "access_bus")?)?,
                        trunk_bus: FromJson::from_json(&field(body, "trunk_bus")?)?,
                    }),
                    other => Err(JsonError(format!("unknown WiredConfig variant `{other}`"))),
                }
            }
            other => Err(JsonError::expected("WiredConfig variant", other)),
        }
    }
}

qres_json::json_struct!(Scenario {
    num_cells,
    cell_diameter_km,
    ring,
    hex_grid,
    capacity_bus,
    scheme,
    voice_ratio,
    offered_load,
    speed_range_kmh,
    mean_lifetime_secs,
    direction,
    turn_probability,
    route_aware,
    p_hd_target,
    duration_secs,
    warmup_secs,
    seed,
    backbone,
    wired,
    time_varying,
    trace_cells
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_matches_paper_section_51() {
        let s = Scenario::paper_baseline();
        s.validate().unwrap();
        assert_eq!(s.num_cells, 10);
        assert_eq!(s.capacity_bus, 100);
        assert_eq!(s.mean_lifetime_secs, 120.0);
        assert_eq!(s.p_hd_target, 0.01);
        assert!(s.ring);
    }

    #[test]
    fn arrival_rate_inverts_eq7() {
        // L = 300 with R_vo = 1 → λ = 300 / 120 = 2.5 conn/s/cell.
        let s = Scenario::paper_baseline().offered_load(300.0);
        assert!((s.arrival_rate() - 2.5).abs() < 1e-12);
        // R_vo = 0.5 → b̄ = 2.5 → λ = 1.
        let s = s.voice_ratio(0.5);
        assert!((s.arrival_rate() - 1.0).abs() < 1e-12);
        // Round trip: λ · b̄ · 120 = L.
        assert!((s.arrival_rate() * s.mean_bandwidth() * 120.0 - 300.0).abs() < 1e-9);
    }

    #[test]
    fn builders_compose() {
        let s = Scenario::paper_baseline()
            .offered_load(200.0)
            .scheme(SchemeKind::Ac1)
            .voice_ratio(0.8)
            .low_mobility()
            .duration_secs(500.0)
            .seed(42)
            .trace_cells(&[4, 5]);
        s.validate().unwrap();
        assert_eq!(s.offered_load, 200.0);
        assert_eq!(s.scheme, SchemeKind::Ac1);
        assert_eq!(s.speed_range_kmh, (40.0, 60.0));
        assert_eq!(s.trace_cell_ids(), vec![CellId(4), CellId(5)]);
    }

    #[test]
    fn one_directional_disconnects_ring() {
        let s = Scenario::paper_baseline().one_directional();
        s.validate().unwrap();
        assert!(!s.ring);
        assert_eq!(s.direction, DirectionMode::AllUp);
    }

    #[test]
    fn scheme_labels() {
        assert_eq!(SchemeKind::Ac3.label(), "AC3");
        assert_eq!(SchemeKind::Static { guard_bus: 10 }.label(), "static(G=10)");
    }

    #[test]
    fn qres_config_picks_window_mode() {
        let s = Scenario::paper_baseline();
        assert!(s.qres_config().hoe.weekday_window.t_int.is_infinite());
        let tv = Scenario::paper_baseline().time_varying(TimeVaryingConfig::paper_like());
        assert!((tv.qres_config().hoe.weekday_window.t_int.as_hours() - 1.0).abs() < 1e-12);
        assert_eq!(
            tv.duration_secs,
            tv.time_varying.as_ref().unwrap().total_secs()
        );
    }

    #[test]
    fn metro_preset_is_metro_scale() {
        let s = Scenario::metro();
        s.validate().unwrap();
        assert_eq!(s.num_cells, 1024);
        assert_eq!(s.hex_grid, Some((32, 32)));
        assert_eq!(s.scheme, SchemeKind::Ac3);
        assert!(s.turn_probability > 0.0);
    }

    #[test]
    fn trace_cell_range_checked() {
        let err = Scenario::paper_baseline()
            .trace_cells(&[10])
            .validate()
            .unwrap_err();
        assert!(err.contains("trace cell"), "{err}");
    }

    #[test]
    fn cell_counts_beyond_u32_ids_rejected() {
        let mut s = Scenario::paper_baseline();
        s.num_cells = u32::MAX as usize + 1;
        let err = s.validate().unwrap_err();
        assert!(
            err.contains("num_cells = 4294967296: must be at most"),
            "{err}"
        );
        s.num_cells = u32::MAX as usize;
        assert_eq!(s.validate(), Ok(()));

        let mut hex = Scenario::paper_baseline().hex(1 << 16, 1 << 16);
        let err = hex.validate().unwrap_err();
        assert!(
            err.contains("hex_grid = Some((65536, 65536)): rows * cols"),
            "{err}"
        );
        hex.hex_grid = Some((usize::MAX, 2));
        let err = hex.validate().unwrap_err();
        assert!(err.contains("rows * cols must be at most"), "{err}");
    }

    #[test]
    fn bad_voice_ratio_rejected() {
        let err = Scenario::paper_baseline()
            .voice_ratio(1.2)
            .validate()
            .unwrap_err();
        assert!(err.contains("voice_ratio = 1.2"), "{err}");
    }

    #[test]
    fn every_violated_field_is_named() {
        let mut s = Scenario::paper_baseline()
            .scheme(SchemeKind::Static { guard_bus: 100 })
            .offered_load(-1.0);
        s.p_hd_target = 1.0;
        s.time_varying = Some(TimeVaryingConfig {
            days: 0,
            ..TimeVaryingConfig::paper_like()
        });
        let err = s.validate().unwrap_err();
        for field in [
            "scheme = Static { guard_bus: 100 }",
            "offered_load = -1.0",
            "p_hd_target = 1.0",
            "time_varying.days = 0",
        ] {
            assert!(err.contains(field), "{field} missing from {err}");
        }
    }
}
