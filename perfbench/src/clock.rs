//! The measured phase's clock, with pauses for recoveries.
//!
//! Recoveries (`recover_s`) take well under a second, so timing them back
//! to back samples the machine at one moment only. An untraced run instead
//! pauses the measured phase at evenly spaced points and recovers a few
//! times at each; paused time is not counted against the phase's length.

use std::time::{Duration, Instant};

/// Pauses per measured phase.
const PAUSES: u32 = 6;
/// Recover at least this long at each pause (and at least once).
const MIN_PAUSE: Duration = Duration::from_millis(250);

pub struct PhaseClock {
    start: Instant,
    length: Duration,
    paused: Duration,
    /// Measured time of the next pause; `None` once all are taken or when
    /// the phase takes no pauses.
    next_pause: Option<Duration>,
    pauses_taken: u32,
}

impl PhaseClock {
    /// A phase of `length` measured time, pausing `PAUSES` times if
    /// `pausing`.
    pub fn start(length: Duration, pausing: bool) -> PhaseClock {
        PhaseClock {
            start: Instant::now(),
            length,
            paused: Duration::ZERO,
            next_pause: pausing.then(|| length / (2 * PAUSES)),
            pauses_taken: 0,
        }
    }

    fn measured(&self) -> Duration {
        self.start.elapsed() - self.paused
    }

    pub fn running(&self) -> bool {
        self.measured() < self.length
    }

    /// Run `f` repeatedly for at least `MIN_PAUSE` if a pause is due, off
    /// the phase's clock.
    pub fn maybe_pause(&mut self, mut f: impl FnMut()) {
        match self.next_pause {
            Some(at) if self.measured() >= at => {}
            _ => return,
        }
        let t0 = Instant::now();
        loop {
            f();
            if t0.elapsed() >= MIN_PAUSE {
                break;
            }
        }
        self.paused += t0.elapsed();
        self.pauses_taken += 1;
        self.next_pause = (self.pauses_taken < PAUSES)
            .then(|| self.length * (2 * self.pauses_taken + 1) / (2 * PAUSES));
    }

    /// Take every pause not yet taken (a phase can end early between two).
    pub fn finish(mut self, mut f: impl FnMut()) {
        while self.next_pause.is_some() {
            self.next_pause = Some(Duration::ZERO);
            self.maybe_pause(&mut f);
        }
    }
}
