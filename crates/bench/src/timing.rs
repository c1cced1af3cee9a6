//! Interleaved wall-clock sampling for the throughput benches.
//!
//! On a shared host a single timed loop measures whatever else the host
//! was doing at that moment. The benches instead register one [`Timer`]
//! per figure and let [`sample_interleaved`] run every timer's round in
//! turn, keeping each one's best round: every figure then gets the quiet
//! windows of the whole run.

use std::time::{Duration, Instant};

/// Rounds every measurement takes at least.
pub const MIN_ROUNDS: usize = 20;
/// Wall time the interleaved rounds take at least.
pub const MIN_TIME: Duration = Duration::from_secs(20);

/// One measurement: a round to repeat and its shortest wall-clock time
/// so far — the single-tenant peak.
pub struct Timer<'a> {
    round: Box<dyn FnMut() + 'a>,
    /// The shortest round so far.
    pub best: Duration,
}

impl<'a> Timer<'a> {
    /// A timer of `round`, not yet sampled.
    pub fn new(round: impl FnMut() + 'a) -> Timer<'a> {
        Timer {
            round: Box::new(round),
            best: Duration::MAX,
        }
    }

    fn sample(&mut self) {
        let start = Instant::now();
        (self.round)();
        self.best = self.best.min(start.elapsed());
    }
}

/// Round after round, sample every timer in turn, until each has had
/// [`MIN_ROUNDS`] rounds and [`MIN_TIME`] has passed. Interleaving
/// spreads every measurement over the whole run, so the quiet windows
/// of a shared host serve all of them, not only the figure timed at
/// that moment.
pub fn sample_interleaved(timers: &mut [Timer<'_>]) {
    let start = Instant::now();
    let mut rounds = 0;
    while rounds < MIN_ROUNDS || start.elapsed() < MIN_TIME {
        for timer in timers.iter_mut() {
            timer.sample();
        }
        rounds += 1;
    }
}
