//! Deterministic daemon-population churn schedules.
//!
//! E12 already churns *availability* (silence windows over a fixed
//! population, [`crate::fault`]); the sustained-load harness churns the
//! **population itself**: daemons arrive and depart mid-run, the way hosts
//! join and leave a real enterprise network. Like the fault layer, the
//! schedule is pure data on a logical microsecond clock — no wall clock, no
//! shared RNG — so a run with the same [`ChurnPlan`] replays the same
//! arrivals and departures at the same points in the flow stream, and churn
//! tests can assert decision identity across replays.
//!
//! The plan says *when* and *how many*; the driver owns *who*. Departures
//! are picked from the live population with the schedule's own deterministic
//! [`ChurnSchedule::pick`] draw, and arrivals are minted by the driver
//! (fresh addresses, fresh daemons). Splitting it this way keeps the plan
//! independent of any directory type: the E11 harness applies it to the
//! shard tier's daemon directory (`identxx_controller::DaemonDirectory`),
//! tests apply it to plain vectors.

use crate::fault::Window;

/// A deterministic arrival/departure schedule: every `interval_micros` of
/// logical time inside `active`, `arrivals` new daemons join and
/// `departures` live ones leave.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChurnPlan {
    /// Logical microseconds between churn ticks.
    pub interval_micros: u64,
    /// Daemons arriving per tick.
    pub arrivals: usize,
    /// Daemons departing per tick.
    pub departures: usize,
    /// The window of logical time during which the plan is active.
    pub active: Window,
    /// Seed for the departure-pick stream.
    pub seed: u64,
}

impl ChurnPlan {
    /// A steady plan: `arrivals`/`departures` every `interval_micros`, for
    /// the whole run.
    pub fn steady(interval_micros: u64, arrivals: usize, departures: usize) -> ChurnPlan {
        assert!(interval_micros > 0, "churn interval must be positive");
        ChurnPlan {
            interval_micros,
            arrivals,
            departures,
            active: Window::always(),
            seed: 0xC4A2_11E5,
        }
    }

    /// The same plan restricted to a window of logical time.
    pub fn within(mut self, active: Window) -> ChurnPlan {
        self.active = active;
        self
    }

    /// The same plan with a different pick seed.
    pub fn with_seed(mut self, seed: u64) -> ChurnPlan {
        self.seed = seed;
        self
    }

    /// Compiles the plan into a replayable schedule.
    pub fn schedule(&self) -> ChurnSchedule {
        ChurnSchedule {
            plan: *self,
            next_tick: self.interval_micros,
            rng: self.seed | 1,
        }
    }
}

/// One due churn tick: at logical time `at`, apply `arrivals` joins and
/// `departures` leaves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChurnTick {
    /// The logical microsecond the tick fires at.
    pub at: u64,
    /// Daemons to mint and register.
    pub arrivals: usize,
    /// Daemons to pick (via [`ChurnSchedule::pick`]) and unregister.
    pub departures: usize,
}

/// A [`ChurnPlan`] in motion: the driver advances it with
/// [`ChurnSchedule::ticks_until`] in lock-step with the flow clock and
/// resolves each departure with [`ChurnSchedule::pick`].
#[derive(Debug, Clone)]
pub struct ChurnSchedule {
    plan: ChurnPlan,
    next_tick: u64,
    rng: u64,
}

impl ChurnSchedule {
    /// Every tick due at or before logical time `now`, in order. Ticks
    /// outside the plan's window are skipped, not deferred, so a driver
    /// that advances the clock coarsely stays aligned with one that
    /// advances it finely.
    pub fn ticks_until(&mut self, now: u64) -> Vec<ChurnTick> {
        let mut due = Vec::new();
        while self.next_tick <= now {
            let at = self.next_tick;
            self.next_tick += self.plan.interval_micros;
            if !self.plan.active.contains(at) {
                continue;
            }
            due.push(ChurnTick {
                at,
                arrivals: self.plan.arrivals,
                departures: self.plan.departures,
            });
        }
        due
    }

    /// A deterministic index draw in `[0, bound)` for choosing which live
    /// daemon departs (xorshift over the plan seed). Returns 0 for an empty
    /// bound so callers can use it unconditionally on `len()`.
    pub fn pick(&mut self, bound: usize) -> usize {
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        if bound == 0 {
            0
        } else {
            (self.rng % bound as u64) as usize
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_plan_replays_identically() {
        let plan = ChurnPlan::steady(1_000, 2, 1).with_seed(7);
        let mut a = plan.schedule();
        let mut b = plan.schedule();
        let ticks_a: Vec<ChurnTick> = (1..=10).flat_map(|i| a.ticks_until(i * 1_500)).collect();
        let ticks_b = b.ticks_until(15_000);
        assert_eq!(ticks_a, ticks_b, "coarse and fine clocks must agree");
        let picks_a: Vec<usize> = (0..32).map(|_| a.pick(17)).collect();
        let picks_b: Vec<usize> = (0..32).map(|_| b.pick(17)).collect();
        assert_eq!(picks_a, picks_b, "pick streams must replay");
        assert!(picks_a.iter().all(|&p| p < 17));
    }

    #[test]
    fn ticks_fire_once_per_interval_inside_the_window() {
        let plan = ChurnPlan::steady(1_000, 3, 2).within(Window::between(2_500, 6_500));
        let mut schedule = plan.schedule();
        let ticks = schedule.ticks_until(10_000);
        // Ticks land on the interval grid; only 3000..=6000 fall inside.
        assert_eq!(
            ticks.iter().map(|t| t.at).collect::<Vec<_>>(),
            vec![3_000, 4_000, 5_000, 6_000]
        );
        assert!(ticks.iter().all(|t| t.arrivals == 3 && t.departures == 2));
        // The clock never goes backwards: everything due was consumed.
        assert!(schedule.ticks_until(10_000).is_empty());
    }

    #[test]
    fn pick_handles_empty_and_singleton_bounds() {
        let mut schedule = ChurnPlan::steady(10, 0, 1).schedule();
        assert_eq!(schedule.pick(0), 0);
        assert_eq!(schedule.pick(1), 0);
    }
}
