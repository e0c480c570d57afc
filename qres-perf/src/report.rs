//! Metric names, units and the per-layer budget of a traced run.

use crate::traced::{Layer, TracedRun};

/// End-to-end metrics `(name, unit)`, measured with tracing off; the
/// times are rescaled to the nominal host speed (see `reference`).
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("sim_s_per_wall_s", "sim-s/s"),
    ("admissions_per_s", "1/s"),
    ("peak_rss_mib", "MiB"),
    ("p_hd", "ratio"),
    ("p_cb", "ratio"),
];

/// Per-layer metrics `(name, unit)` of a traced run, in the order
/// [`layer_values`] returns them.
pub const PER_LAYER: [(&str, &str); 40] = [
    ("des.calls", "count"),
    ("des.busy_s", "s"),
    ("des.ns_per_call", "ns"),
    ("des.cancelled_frac", "ratio"),
    ("des.live_high_water", "count"),
    ("workload.calls", "count"),
    ("workload.busy_s", "s"),
    ("cellnet.calls", "count"),
    ("cellnet.busy_s", "s"),
    ("core.admission.calls", "count"),
    ("core.admission.busy_s", "s"),
    ("core.admission.p50_us", "us"),
    ("core.admission.p99_us", "us"),
    ("core.admission.p999_us", "us"),
    ("core.admission.blocked_frac", "ratio"),
    ("core.n_calc", "count"),
    ("core.signaling_msgs_per_admission", "count"),
    ("core.br_memo_hit_frac", "ratio"),
    ("core.br_unchanged_frac", "ratio"),
    ("core.handoff.calls", "count"),
    ("core.handoff.busy_s", "s"),
    ("core.handoff.p50_us", "us"),
    ("core.handoff.p99_us", "us"),
    ("core.handoff.p999_us", "us"),
    ("core.handoff.dropped_frac", "ratio"),
    ("core.end.calls", "count"),
    ("core.end.busy_s", "s"),
    ("mobility.hoe_stored_events", "count"),
    ("mobility.hoe_mutations", "count"),
    ("sim.metrics.calls", "count"),
    ("sim.metrics.busy_s", "s"),
    ("obs.calls", "count"),
    ("obs.busy_s", "s"),
    ("driver.busy_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.overhead_frac", "ratio"),
    ("trace.residual_frac", "ratio"),
    ("trace.timed_event_frac", "ratio"),
    ("trace.span_cost_ns", "ns"),
    ("trace.layer_sum_s", "s"),
];

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The per-layer metric values of one traced run, index-aligned with
/// [`PER_LAYER`]. `untraced_wall_s` is the same run's wall time with
/// tracing off.
pub fn layer_values(run: &TracedRun, untraced_wall_s: f64) -> [f64; PER_LAYER.len()] {
    let t = &run.tracer;
    let o = &run.outcomes;
    let r = &run.result;
    let p = &run.probe;
    let layer_sum_s: f64 = crate::traced::LAYERS
        .iter()
        .map(|&l| t.busy_s(l))
        .sum::<f64>()
        + t.driver_busy_s();
    let des_calls = t.calls(Layer::Des);
    let queries = p.per_kind[0].0;
    [
        des_calls as f64,
        t.busy_s(Layer::Des),
        t.busy_s(Layer::Des) * 1e9 / des_calls.max(1) as f64,
        1.0 - ratio(r.events_dispatched, o.scheduled),
        o.live_high_water as f64,
        t.calls(Layer::Workload) as f64,
        t.busy_s(Layer::Workload),
        t.calls(Layer::Cellnet) as f64,
        t.busy_s(Layer::Cellnet),
        t.calls(Layer::CoreAdmission) as f64,
        t.busy_s(Layer::CoreAdmission),
        t.admission_us(0.5),
        t.admission_us(0.99),
        t.admission_us(0.999),
        ratio(o.blocked, o.admissions),
        r.n_calc_mean,
        ratio(r.signaling.messages, o.admissions),
        ratio(p.br_memo_hits, queries),
        ratio(o.br_unchanged, o.admissions),
        t.calls(Layer::CoreHandoff) as f64,
        t.busy_s(Layer::CoreHandoff),
        t.handoff_us(0.5),
        t.handoff_us(0.99),
        t.handoff_us(0.999),
        ratio(o.dropped, o.handoffs),
        t.calls(Layer::CoreEnd) as f64,
        t.busy_s(Layer::CoreEnd),
        p.hoe_stored_events as f64,
        p.hoe_mutations as f64,
        t.calls(Layer::SimMetrics) as f64,
        t.busy_s(Layer::SimMetrics),
        t.calls(Layer::Obs) as f64,
        t.busy_s(Layer::Obs),
        t.driver_busy_s(),
        run.wall_s,
        run.wall_s / untraced_wall_s - 1.0,
        (layer_sum_s - untraced_wall_s).abs() / untraced_wall_s,
        t.timed_event_frac(),
        t.span_cost_ns(),
        layer_sum_s,
    ]
}
