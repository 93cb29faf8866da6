//! Process CPU time and peak memory, read from `/proc` so the harness needs
//! no dependency and no foreign call.

use std::fs;

/// CPU seconds (user + system) this process has consumed so far, on every
/// thread it ever had.
///
/// `utime + stime` of `/proc/self/stat` keep the time of threads that have
/// exited, so work moved onto short-lived threads (`thread::scope`) still
/// counts; the per-thread `schedstat` files resolve nanoseconds but forget a
/// thread when it ends. The price is the 10 ms clock tick: callers measure
/// intervals of about a second or longer.
pub fn cpu_s() -> f64 {
    // Fields 14 and 15 (utime, stime) counted after the parenthesised
    // command name, which may itself contain spaces.
    let text = fs::read_to_string("/proc/self/stat").unwrap_or_default();
    let after = text.rsplit_once(')').map_or("", |(_, rest)| rest);
    let mut fields = after.split_whitespace().skip(11);
    let mut tick = || {
        fields
            .next()
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    // USER_HZ is 100 on every Linux ABI.
    (tick() + tick()) as f64 / 100.0
}

/// Peak resident set size (`VmHWM`) in MiB, or 0 where `/proc` lacks it.
pub fn peak_rss_mb() -> f64 {
    let text = fs::read_to_string("/proc/self/status").unwrap_or_default();
    text.lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `(steal, total)` clock ticks of the whole machine since boot. Steal is
/// time the hypervisor ran something else while this guest wanted the CPU;
/// a run measured while it is high says more about the host than the code.
pub fn host_ticks() -> (u64, u64) {
    let text = fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = text
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .take(8)
        .filter_map(|field| field.parse().ok())
        .collect();
    (ticks.get(7).copied().unwrap_or(0), ticks.iter().sum())
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_counts_threads_that_have_exited() {
        let before = cpu_s();
        // Burn well over one clock tick on a thread that is gone by the time
        // the counter is read again.
        std::thread::spawn(|| {
            let started = std::time::Instant::now();
            let mut x = 1u64;
            while started.elapsed().as_millis() < 100 {
                x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
            }
            std::hint::black_box(x);
        })
        .join()
        .expect("the spinning thread ends");
        assert!(cpu_s() - before >= 0.05);
        assert!(peak_rss_mb() > 0.0);
        assert!(nproc() >= 1);
    }
}
