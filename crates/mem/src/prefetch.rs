//! Stream prefetcher (paper Table 2: 32 streams, 16-line distance, 2-line
//! degree, prefetching into L2).

use crate::config::PrefetchConfig;

#[derive(Debug, Clone, Copy)]
struct Stream {
    /// Next line expected from the demand stream.
    next_line: u64,
    /// +1 for ascending streams, -1 for descending.
    direction: i64,
    /// How far ahead (in lines) prefetches have been issued.
    issued_ahead: u64,
    /// LRU timestamp.
    lru: u64,
    valid: bool,
}

/// How many recent miss lines the trainer remembers. Misses from distinct
/// interleaved streams (or out-of-order issue) separate adjacent-line
/// misses in time, so training must look further back than the single most
/// recent miss.
const TRAIN_HISTORY: usize = 16;

/// A classic stream prefetcher.
///
/// Trains on the L2 demand-miss address stream: a miss adjacent to any
/// recently seen miss line allocates a stream; subsequent demand accesses
/// that match a stream advance it and emit `degree` prefetch line addresses
/// up to `distance` lines ahead.
#[derive(Debug, Clone)]
pub struct StreamPrefetcher {
    config: PrefetchConfig,
    streams: Vec<Stream>,
    /// Recent demand-miss lines, used to detect new streams.
    miss_history: Vec<u64>,
    clock: u64,
    issued: u64,
}

impl StreamPrefetcher {
    /// Creates a prefetcher with the given parameters.
    pub fn new(config: PrefetchConfig) -> StreamPrefetcher {
        StreamPrefetcher {
            config,
            streams: vec![
                Stream {
                    next_line: 0,
                    direction: 1,
                    issued_ahead: 0,
                    lru: 0,
                    valid: false
                };
                config.streams
            ],
            miss_history: Vec::with_capacity(TRAIN_HISTORY),
            clock: 0,
            issued: 0,
        }
    }

    /// Total prefetch addresses emitted.
    pub fn issued(&self) -> u64 {
        self.issued
    }

    /// Observes a demand access to `line` at the L2 (`miss` = demand miss)
    /// and replaces `out`'s contents with the line addresses to prefetch.
    /// The caller owns the buffer so that one allocation serves every
    /// access.
    pub fn observe(&mut self, line: u64, miss: bool, out: &mut Vec<u64>) {
        out.clear();
        self.clock += 1;
        let clock = self.clock;

        // Advance an existing stream if this access matches its window.
        for s in &mut self.streams {
            if !s.valid {
                continue;
            }
            let delta = line as i64 - s.next_line as i64;
            // Accept the expected line or one slightly past it (skips).
            if s.direction * delta >= 0 && (delta * s.direction) <= 2 {
                s.lru = clock;
                s.next_line = (line as i64 + s.direction) as u64;
                s.issued_ahead = s.issued_ahead.saturating_sub((delta.unsigned_abs()).max(1));
                for _ in 0..self.config.degree {
                    if s.issued_ahead >= self.config.distance {
                        break;
                    }
                    s.issued_ahead += 1;
                    let pf = line as i64 + s.direction * (s.issued_ahead as i64);
                    if pf >= 0 {
                        out.push(pf as u64);
                    }
                }
                self.issued += out.len() as u64;
                return;
            }
        }

        // Train: a miss adjacent to any recent miss allocates a stream.
        if miss {
            let dir = self.miss_history.iter().rev().find_map(|&h| match line as i64 - h as i64 {
                1 => Some(1),
                -1 => Some(-1),
                _ => None,
            });
            if let Some(direction) = dir {
                let victim =
                    self.streams.iter_mut().min_by_key(|s| if s.valid { s.lru } else { 0 });
                if let Some(victim) = victim {
                    *victim = Stream {
                        next_line: (line as i64 + direction) as u64,
                        direction,
                        issued_ahead: 0,
                        lru: clock,
                        valid: true,
                    };
                }
            }
            if self.miss_history.len() == TRAIN_HISTORY {
                self.miss_history.remove(0);
            }
            self.miss_history.push(line);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pf() -> StreamPrefetcher {
        StreamPrefetcher::new(PrefetchConfig::default())
    }

    /// One observation into a buffer holding a stale line, so every test
    /// also checks that `observe` replaces the buffer's contents.
    fn observe(p: &mut StreamPrefetcher, line: u64, miss: bool) -> Vec<u64> {
        let mut out = vec![u64::MAX];
        p.observe(line, miss, &mut out);
        out
    }

    #[test]
    fn two_adjacent_misses_allocate_then_prefetch() {
        let mut p = pf();
        assert!(observe(&mut p, 100, true).is_empty(), "first miss only trains");
        assert!(observe(&mut p, 101, true).is_empty(), "second miss allocates");
        let out = observe(&mut p, 102, true);
        assert_eq!(out, vec![103, 104], "degree-2 prefetch ahead of the stream");
    }

    #[test]
    fn descending_stream_detected() {
        let mut p = pf();
        observe(&mut p, 200, true);
        observe(&mut p, 199, true);
        let out = observe(&mut p, 198, true);
        assert_eq!(out, vec![197, 196]);
    }

    #[test]
    fn distance_caps_runahead() {
        let mut p = pf();
        observe(&mut p, 0, true);
        observe(&mut p, 1, true);
        let distance = PrefetchConfig::default().distance;
        // Hammer the stream without consuming prefetches: each access
        // consumes one line of run-ahead and issues up to `degree` more, so
        // the run-ahead must climb to the configured distance and stop there.
        let mut ahead: u64 = 0;
        for line in 2..42 {
            let out = observe(&mut p, line, true);
            ahead = ahead.saturating_sub(1) + out.len() as u64;
            assert!(ahead <= distance, "run-ahead {ahead} exceeds the {distance}-line cap");
            for &o in &out {
                assert!(o <= line + distance, "within distance window");
            }
        }
        assert_eq!(ahead, distance, "run-ahead saturates at the distance cap");
    }

    #[test]
    fn interleaved_streams_both_train() {
        // Two streams whose misses alternate: A(n), B(m), A(n+1), B(m+1)...
        // A single-last-miss trainer never sees adjacent consecutive misses;
        // the history-based trainer must catch both.
        let mut p = pf();
        let mut fired = [false, false];
        for i in 0..12u64 {
            if !observe(&mut p, 1000 + i, true).is_empty() {
                fired[0] = true;
            }
            if !observe(&mut p, 5000 + i, true).is_empty() {
                fired[1] = true;
            }
        }
        assert!(fired[0] && fired[1], "both interleaved streams trained: {fired:?}");
    }

    #[test]
    fn random_misses_never_prefetch() {
        let mut p = pf();
        for line in [5u64, 900, 17, 4000, 33, 77777] {
            assert!(observe(&mut p, line, true).is_empty());
        }
        assert_eq!(p.issued(), 0);
    }

    #[test]
    fn stream_table_is_bounded_with_lru_reuse() {
        let mut p = StreamPrefetcher::new(PrefetchConfig { streams: 2, distance: 4, degree: 1 });
        // Allocate 3 streams; table holds 2.
        for base in [1000u64, 2000, 3000] {
            observe(&mut p, base, true);
            observe(&mut p, base + 1, true);
        }
        // Oldest (1000) must have been evicted; continuing it re-trains.
        assert!(observe(&mut p, 1002, true).is_empty(), "evicted stream does not advance");
    }
}
