//! Independent units of work on every core. The write path's Scribe shards
//! and DWRF files share nothing, so running them side by side keeps every
//! output byte.

use std::sync::OnceLock;
use std::thread;

/// Applies `work` to every unit and returns the results in unit order.
///
/// The units are cut into `min(available_parallelism, units.len())`
/// contiguous lanes of near-equal length, one scoped thread each: the
/// caller's thread runs the first lane, so a single lane runs inline. More
/// lanes than cores would only wait for a core. A panic in a lane resumes on
/// the caller's thread.
pub fn map<T: Send, R: Send>(units: Vec<T>, work: impl Fn(T) -> R + Sync) -> Vec<R> {
    static CORES: OnceLock<usize> = OnceLock::new();
    let cores = *CORES.get_or_init(|| thread::available_parallelism().map_or(1, |n| n.get()));
    map_in(cores, units, work)
}

fn map_in<T: Send, R: Send>(lanes: usize, units: Vec<T>, work: impl Fn(T) -> R + Sync) -> Vec<R> {
    let lanes = lanes.clamp(1, units.len().max(1));
    let (base, extra) = (units.len() / lanes, units.len() % lanes);
    let mut units = units.into_iter();
    let mut cut = (0..lanes).map(|lane| -> Vec<T> {
        let len = base + usize::from(lane < extra);
        units.by_ref().take(len).collect()
    });
    let run = |lane: Vec<T>| lane.into_iter().map(&work).collect::<Vec<R>>();
    let first = cut.next().expect("at least one lane");
    thread::scope(|scope| {
        let rest: Vec<_> = cut.map(|lane| scope.spawn(move || run(lane))).collect();
        let mut out = run(first);
        for lane in rest {
            out.extend(lane.join().unwrap_or_else(|p| std::panic::resume_unwind(p)));
        }
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    #[test]
    fn every_unit_runs_once_and_results_keep_unit_order() {
        for lanes in 1..=5 {
            for n in 0..=9 {
                let seen = Mutex::new(Vec::new());
                let out = map_in(lanes, (0..n).collect(), |u: usize| {
                    seen.lock().unwrap().push((u, thread::current().id()));
                    u * 10
                });
                assert_eq!(out, (0..n).map(|u| u * 10).collect::<Vec<_>>());
                let mut seen = seen.into_inner().unwrap();
                seen.sort_by_key(|&(u, _)| u);
                assert_eq!(
                    seen.iter().map(|&(u, _)| u).collect::<Vec<_>>(),
                    (0..n).collect::<Vec<_>>()
                );
                // Lanes are contiguous, the first runs on the caller's thread
                // and no lane is empty.
                let mut threads: Vec<_> = seen.iter().map(|&(_, t)| t).collect();
                threads.dedup();
                assert_eq!(threads.len(), lanes.min(n));
                if n > 0 {
                    assert_eq!(threads[0], thread::current().id());
                }
            }
        }
    }

    #[test]
    fn units_borrow_mutably_across_lanes() {
        let mut shards = vec![0u64; 7];
        map_in(3, shards.iter_mut().enumerate().collect(), |(i, s)| {
            *s = i as u64 + 1
        });
        assert_eq!(shards, [1, 2, 3, 4, 5, 6, 7]);
    }

    #[test]
    #[should_panic(expected = "unit 4")]
    fn a_panic_in_a_spawned_lane_reaches_the_caller() {
        map_in(2, (0..6).collect(), |u: usize| assert!(u != 4, "unit {u}"));
    }
}
