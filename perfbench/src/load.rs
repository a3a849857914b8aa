//! Open-loop accounting: actions fall due on a schedule whatever the
//! server is doing, wait for one of a fixed number of connections, and are
//! timed from when they were due, so a stall is charged to every request
//! it delays.

use std::collections::BTreeMap;
use std::time::Duration;

/// Due actions waiting for a connection, earliest first (ties in the order
/// they were scheduled), and the connections in use.
#[derive(Debug)]
pub struct OpenLoop<A> {
    queue: BTreeMap<(Duration, u64), A>,
    seq: u64,
    in_flight: usize,
    max_in_flight: usize,
}

impl<A> OpenLoop<A> {
    pub fn new(max_in_flight: usize) -> Self {
        Self {
            queue: BTreeMap::new(),
            seq: 0,
            in_flight: 0,
            max_in_flight,
        }
    }

    /// Schedules `action` to fall due at `due` (time since the load began).
    pub fn schedule(&mut self, due: Duration, action: A) {
        self.queue.insert((due, self.seq), action);
        self.seq += 1;
    }

    /// The earliest action already due at `now`, if a connection is free;
    /// it then holds that connection until [`OpenLoop::finish`].
    pub fn start(&mut self, now: Duration) -> Option<(Duration, A)> {
        if self.in_flight >= self.max_in_flight {
            return None;
        }
        let entry = self.queue.first_entry().filter(|e| e.key().0 <= now)?;
        let due = entry.key().0;
        self.in_flight += 1;
        Some((due, entry.remove()))
    }

    /// Releases the connection of a finished action.
    pub fn finish(&mut self) {
        self.in_flight = self.in_flight.checked_sub(1).expect("finish without start");
    }

    /// When the next queued action falls due.
    pub fn next_due(&self) -> Option<Duration> {
        self.queue.keys().next().map(|&(due, _)| due)
    }

    /// Whether nothing is queued or in flight.
    pub fn is_idle(&self) -> bool {
        self.queue.is_empty() && self.in_flight == 0
    }
}

/// When one request fell due, was sent, and completed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timing {
    pub due: Duration,
    pub sent: Duration,
    pub done: Duration,
}

impl Timing {
    /// From when it was due to completion, waiting included.
    pub fn latency(&self) -> Duration {
        self.done.saturating_sub(self.due)
    }

    /// How late the client sent it.
    pub fn late(&self) -> Duration {
        self.sent.saturating_sub(self.due)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    /// Drives `arrivals` through `conns` connections that each take
    /// `service` per request, the way the client's event loop does.
    fn simulate(arrivals: &[Duration], service: Duration, conns: usize) -> Vec<Timing> {
        let mut lp = OpenLoop::new(conns);
        for (i, &due) in arrivals.iter().enumerate() {
            lp.schedule(due, i);
        }
        let mut busy: Vec<(Duration, Timing, usize)> = Vec::new();
        let mut out = vec![None; arrivals.len()];
        let mut now = Duration::ZERO;
        while !lp.is_idle() {
            busy.retain(|&(end, t, i)| {
                if end <= now {
                    out[i] = Some(Timing { done: end, ..t });
                    lp.finish();
                    false
                } else {
                    true
                }
            });
            while let Some((due, i)) = lp.start(now) {
                let t = Timing {
                    due,
                    sent: now,
                    done: now,
                };
                busy.push((now + service, t, i));
            }
            now += Duration::from_micros(100);
        }
        out.into_iter().map(|t| t.unwrap()).collect()
    }

    #[test]
    fn a_request_waiting_for_a_connection_is_timed_from_its_arrival() {
        let t = simulate(&[ms(0), ms(1), ms(2)], ms(5), 2);
        assert_eq!(t[0].latency(), ms(5));
        assert_eq!(t[1].latency(), ms(5));
        // Both connections are busy until 5 ms: the third is sent 3 ms
        // late and its latency includes the wait.
        assert_eq!(t[2].sent, ms(5));
        assert_eq!(t[2].late(), ms(3));
        assert_eq!(t[2].latency(), ms(8));
    }

    #[test]
    fn at_most_the_connection_limit_is_in_flight() {
        let mut lp = OpenLoop::new(2);
        for i in 0..5 {
            lp.schedule(Duration::ZERO, i);
        }
        assert_eq!(lp.start(Duration::ZERO).map(|(_, a)| a), Some(0));
        assert_eq!(lp.start(Duration::ZERO).map(|(_, a)| a), Some(1));
        assert!(lp.start(Duration::ZERO).is_none());
        lp.finish();
        assert_eq!(lp.start(Duration::ZERO).map(|(_, a)| a), Some(2));
    }

    #[test]
    fn nothing_starts_before_it_is_due_and_ties_keep_order() {
        let mut lp = OpenLoop::new(4);
        lp.schedule(ms(10), "late");
        lp.schedule(ms(5), "b");
        lp.schedule(ms(5), "c");
        assert!(lp.start(ms(4)).is_none());
        assert_eq!(lp.next_due(), Some(ms(5)));
        assert_eq!(lp.start(ms(6)), Some((ms(5), "b")));
        assert_eq!(lp.start(ms(6)), Some((ms(5), "c")));
        assert!(lp.start(ms(6)).is_none());
        assert_eq!(lp.start(ms(10)), Some((ms(10), "late")));
    }
}
