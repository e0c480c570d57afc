//! The reference job: a fixed piece of work, independent of the
//! simulator's code, whose wall time tracks the host's current speed.
//!
//! The benchmark's host may be shared: its speed can drift by tens of
//! percent over minutes while the process stays on the CPU, because other
//! tenants contend for the same physical core. The median over a run's
//! repetitions cannot absorb a slow spell that lasts the whole run, so a
//! run also times this job before, between and after its repetitions,
//! and divides its times by the ratio of the median job time to
//! [`NOMINAL_S`]: they read as the times on a host that runs the job in
//! [`NOMINAL_S`]. The job is a small
//! discrete-event loop built from the standard library alone (a binary
//! heap of timestamps, a hash map of per-entity state, a xorshift
//! generator and some floating-point work), the mix of pointer chasing,
//! branches and arithmetic the simulator runs. It does not change with
//! the simulator, so a change to the program moves only the rescaled
//! time, never the reference.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::hint::black_box;
use std::sync::Once;
use std::time::Instant;

/// Wall seconds of one job on the host the baseline in `README.md` was
/// measured on, to the nearest 5 ms; rescaled times read as times on
/// that host.
pub const NOMINAL_S: f64 = 0.050;

/// Events one job dispatches.
const EVENTS: u32 = 400_000;
/// Entities live at any time, so the job's working set stays a few
/// hundred KiB and does not move the process's peak RSS.
const ENTITIES: u32 = 4_096;

/// Wall seconds of one run of the job.
pub fn time_s() -> f64 {
    // The first run in a process pays for cold caches and fresh pages,
    // up to a third more than the runs after it.
    static WARM_UP: Once = Once::new();
    WARM_UP.call_once(|| {
        black_box(job(EVENTS));
    });
    let t0 = Instant::now();
    black_box(job(EVENTS));
    t0.elapsed().as_secs_f64()
}

fn xorshift(s: &mut u64) -> u64 {
    *s ^= *s << 13;
    *s ^= *s >> 7;
    *s ^= *s << 17;
    *s
}

/// Dispatches `events` events over `ENTITIES` entities; one in ten ends
/// its entity and starts a new one. Returns a checksum of the state.
fn job(events: u32) -> u64 {
    let mut rng = 0x9e37_79b9_7f4a_7c15_u64;
    let mut queue = BinaryHeap::with_capacity(ENTITIES as usize);
    let mut state: HashMap<u32, [f64; 2]> = HashMap::with_capacity(ENTITIES as usize);
    for id in 0..ENTITIES {
        queue.push(Reverse((xorshift(&mut rng) >> 40, id)));
        state.insert(id, [f64::from(id); 2]);
    }
    let mut next_id = ENTITIES;
    let mut sum = 0u64;
    for _ in 0..events {
        let Reverse((at, id)) = queue.pop().expect("every entity has one event queued");
        let u = (xorshift(&mut rng) >> 11) as f64 / (1u64 << 53) as f64;
        let s = state.get_mut(&id).expect("queued entities have state");
        s[0] += -(1.0 - u).ln();
        s[1] = s[1] * 0.5 + s[0].sqrt();
        sum = sum.wrapping_add(s[1].to_bits());
        let id = if u < 0.1 {
            state.remove(&id);
            next_id += 1;
            state.insert(next_id, [u; 2]);
            next_id
        } else {
            id
        };
        queue.push(Reverse((at + 1 + (xorshift(&mut rng) >> 48), id)));
    }
    sum
}
