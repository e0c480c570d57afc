//! The simulation event loop.
//!
//! [`Simulation`] owns the clock and the [`EventQueue`]; a caller-provided
//! [`Handler`] receives each event together with mutable access to the queue
//! so it can schedule follow-on events. The loop enforces clock
//! monotonicity and supports a hard time horizon and an event-count budget
//! (a guard against run-away self-scheduling bugs).

use crate::queue::EventQueue;
use crate::time::SimTime;

/// Receives dispatched events.
///
/// A handler is the "model" half of the simulation: the engine supplies
/// *when*, the handler decides *what happens next* by mutating its own state
/// and scheduling further events.
pub trait Handler<E> {
    /// Handles one event occurring at simulation time `now`.
    fn handle(&mut self, now: SimTime, event: E, queue: &mut EventQueue<E>);
}

// Closures make handy ad-hoc handlers in tests and examples.
impl<E, F> Handler<E> for F
where
    F: FnMut(SimTime, E, &mut EventQueue<E>),
{
    fn handle(&mut self, now: SimTime, event: E, queue: &mut EventQueue<E>) {
        self(now, event, queue);
    }
}

/// Why a [`Simulation::run_until`] call returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// The pending-event set drained completely.
    Exhausted,
    /// The next event lies at or beyond the horizon; the clock was advanced
    /// to the horizon and the event left pending.
    HorizonReached,
    /// The per-call event budget was spent (indicates a likely bug or an
    /// intentionally incremental run).
    BudgetExhausted,
}

/// A discrete-event simulation: clock + pending-event set + dispatch loop.
pub struct Simulation<E> {
    now: SimTime,
    queue: EventQueue<E>,
    dispatched: u64,
}

impl<E> Default for Simulation<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Simulation<E> {
    /// Creates a simulation with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        Simulation {
            now: SimTime::ZERO,
            queue: EventQueue::new(),
            dispatched: 0,
        }
    }

    /// Creates a simulation whose pending-event set has room for
    /// `capacity` events before it reallocates.
    pub fn with_capacity(capacity: usize) -> Self {
        Simulation {
            queue: EventQueue::with_capacity(capacity),
            ..Self::new()
        }
    }

    /// Creates a simulation whose clock starts at `start`.
    pub fn starting_at(start: SimTime) -> Self {
        Simulation {
            now: start,
            ..Self::new()
        }
    }

    /// The current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total events dispatched so far.
    pub fn dispatched(&self) -> u64 {
        self.dispatched
    }

    /// Mutable access to the pending-event set (for seeding initial events).
    pub fn queue_mut(&mut self) -> &mut EventQueue<E> {
        &mut self.queue
    }

    /// Shared access to the pending-event set.
    pub fn queue(&self) -> &EventQueue<E> {
        &self.queue
    }

    /// Runs until the event set drains. Panics if an event was scheduled in
    /// the past (non-monotonic clock — a model bug).
    pub fn run<H: Handler<E>>(&mut self, handler: &mut H) -> RunOutcome {
        self.run_until(SimTime::FAR_FUTURE, u64::MAX, handler)
    }

    /// Runs until `horizon`, the event set drains, or `budget` events have
    /// been dispatched — whichever comes first.
    ///
    /// Events stamped exactly at the horizon are **not** dispatched: the
    /// horizon is exclusive, and the clock is left parked at the horizon so
    /// that time-weighted statistics can be finalized there.
    pub fn run_until<H: Handler<E>>(
        &mut self,
        horizon: SimTime,
        budget: u64,
        handler: &mut H,
    ) -> RunOutcome {
        let mut spent = 0u64;
        loop {
            if spent >= budget {
                return RunOutcome::BudgetExhausted;
            }
            let Some(next_at) = self.queue.peek_time() else {
                return RunOutcome::Exhausted;
            };
            if next_at >= horizon {
                self.now = horizon;
                return RunOutcome::HorizonReached;
            }
            let (at, event) = self.queue.pop().expect("peeked entry must pop");
            assert!(
                at >= self.now,
                "non-monotonic clock: event at {at} popped at {now}",
                at = at,
                now = self.now
            );
            self.now = at;
            self.dispatched += 1;
            spent += 1;
            if qres_obs::enabled() {
                // Publish the clock for record sites with no `now` in
                // scope, and time the dispatch. Telemetry is passive:
                // nothing read here feeds back into simulation state.
                qres_obs::set_sim_time(at.as_secs());
                let t0 = std::time::Instant::now();
                handler.handle(at, event, &mut self.queue);
                qres_obs::metrics::EVENT_DISPATCH_NS.record_duration(t0.elapsed());
            } else {
                handler.handle(at, event, &mut self.queue);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Duration;

    #[derive(Debug, PartialEq, Clone, Copy)]
    enum Ev {
        Tick(u32),
        Stop,
    }

    #[test]
    fn self_scheduling_chain_runs_to_exhaustion() {
        let mut sim = Simulation::new();
        sim.queue_mut().schedule(SimTime::ZERO, Ev::Tick(0));
        let mut count = 0u32;
        let outcome = sim.run(&mut |now: SimTime, ev: Ev, q: &mut EventQueue<Ev>| {
            if let Ev::Tick(n) = ev {
                count += 1;
                if n < 9 {
                    q.schedule(now + Duration::from_secs(1.0), Ev::Tick(n + 1));
                }
            }
        });
        assert_eq!(outcome, RunOutcome::Exhausted);
        assert_eq!(count, 10);
        assert_eq!(sim.now(), SimTime::from_secs(9.0));
        assert_eq!(sim.dispatched(), 10);
    }

    #[test]
    fn horizon_is_exclusive_and_parks_clock() {
        let mut sim = Simulation::new();
        sim.queue_mut().schedule(SimTime::from_secs(5.0), Ev::Stop);
        sim.queue_mut().schedule(SimTime::from_secs(15.0), Ev::Stop);
        let mut seen = 0;
        let outcome = sim.run_until(
            SimTime::from_secs(10.0),
            u64::MAX,
            &mut |_: SimTime, _: Ev, _: &mut EventQueue<Ev>| seen += 1,
        );
        assert_eq!(outcome, RunOutcome::HorizonReached);
        assert_eq!(seen, 1);
        assert_eq!(sim.now(), SimTime::from_secs(10.0));
        // The event at t=15 is still pending.
        assert_eq!(sim.queue().live_len(), 1);
    }

    #[test]
    fn event_at_horizon_not_dispatched() {
        let mut sim = Simulation::new();
        sim.queue_mut().schedule(SimTime::from_secs(10.0), Ev::Stop);
        let mut seen = 0;
        let outcome = sim.run_until(
            SimTime::from_secs(10.0),
            u64::MAX,
            &mut |_: SimTime, _: Ev, _: &mut EventQueue<Ev>| seen += 1,
        );
        assert_eq!(outcome, RunOutcome::HorizonReached);
        assert_eq!(seen, 0);
    }

    #[test]
    fn budget_stops_runaway() {
        let mut sim = Simulation::new();
        sim.queue_mut().schedule(SimTime::ZERO, Ev::Tick(0));
        let outcome = sim.run_until(
            SimTime::FAR_FUTURE,
            100,
            &mut |now: SimTime, _: Ev, q: &mut EventQueue<Ev>| {
                // Pathological: always reschedule.
                q.schedule(now + Duration::from_secs(1.0), Ev::Tick(0));
            },
        );
        assert_eq!(outcome, RunOutcome::BudgetExhausted);
        assert_eq!(sim.dispatched(), 100);
    }

    #[test]
    fn starting_clock_offset() {
        let start = SimTime::from_hours(6.0);
        let mut sim: Simulation<Ev> = Simulation::starting_at(start);
        assert_eq!(sim.now(), start);
        sim.queue_mut().schedule(start, Ev::Stop);
        let outcome = sim.run(&mut |_: SimTime, _: Ev, _: &mut EventQueue<Ev>| {});
        assert_eq!(outcome, RunOutcome::Exhausted);
    }

    #[test]
    #[should_panic(expected = "non-monotonic")]
    fn past_scheduling_panics_on_dispatch() {
        let mut sim = Simulation::new();
        sim.queue_mut().schedule(SimTime::from_secs(10.0), Ev::Stop);
        sim.run(&mut |_: SimTime, _: Ev, q: &mut EventQueue<Ev>| {
            q.schedule(SimTime::from_secs(1.0), Ev::Stop);
        });
    }

    #[test]
    fn handler_can_cancel_pending_events() {
        let mut sim = Simulation::new();
        let doomed = sim
            .queue_mut()
            .schedule(SimTime::from_secs(2.0), Ev::Tick(99));
        sim.queue_mut().schedule(SimTime::from_secs(1.0), Ev::Stop);
        let mut ticks = 0;
        sim.run(&mut |_: SimTime, ev: Ev, q: &mut EventQueue<Ev>| match ev {
            Ev::Stop => {
                q.cancel(doomed);
            }
            Ev::Tick(_) => ticks += 1,
        });
        assert_eq!(ticks, 0);
    }
}
