//! Output checks. A repetition whose check fails is a failed operation.

use qres_sim::RunResult;

use crate::workloads::Workload;

/// FNV-1a over the run's headline outputs: the blocking and drop counts,
/// the `N_calc` mean's bits, the signaling totals and the event count.
pub fn digest(r: &RunResult) -> u64 {
    let words = [
        r.system_cb.hits(),
        r.system_cb.trials(),
        r.system_hd.hits(),
        r.system_hd.trials(),
        r.n_calc_mean.to_bits(),
        r.signaling.messages,
        r.signaling.hops,
        r.signaling.bytes,
        r.events_dispatched,
    ];
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Checks one repetition's output. `golden` is the digest it must have,
/// when one is pinned for its input. Returns one message per failed check.
pub fn check_run(
    w: &Workload,
    r: &RunResult,
    p_hd_target: f64,
    golden: Option<u64>,
) -> Vec<String> {
    let mut failures = Vec::new();
    if let Some(want) = golden {
        let got = digest(r);
        if got != want {
            failures.push(format!("digest {got:#018x} != golden {want:#018x}"));
        }
    }
    if w.predictive() && r.p_hd() > p_hd_target {
        failures.push(format!(
            "QoS claim broken: P_HD {} > target {p_hd_target}",
            r.p_hd()
        ));
    }
    if let Some(n) = w.expected_n_calc() {
        if r.n_calc_mean != n {
            failures.push(format!("N_calc identity broken: {} != {n}", r.n_calc_mean));
        }
    }
    if r.system_cb.trials() == 0 || r.system_hd.trials() == 0 {
        failures.push("run made no admission tests or no hand-offs".into());
    }
    failures
}
