//! Process accounting read from `/proc/self`: CPU time, minor faults, peak
//! resident set.

/// `/proc/self/stat` reports CPU time in clock ticks of `USER_HZ`, which is
/// 100 on every Linux ABI; without `libc` there is no `sysconf` to ask.
const TICKS_PER_SEC: f64 = 100.0;

/// Cumulative CPU time and minor page faults of this process.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Usage {
    /// User + system CPU time of every thread, living or gone, from the
    /// process CPU clock (nanosecond resolution); the `/proc` tick counts
    /// below resolve 10 ms, 2 % of a short rep.
    pub cpu_s: f64,
    pub user_s: f64,
    pub sys_s: f64,
    pub minor_faults: u64,
}

impl Usage {
    /// What was consumed between `earlier` and `self`.
    pub fn since(&self, earlier: &Usage) -> Usage {
        Usage {
            cpu_s: self.cpu_s - earlier.cpu_s,
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
            minor_faults: self.minor_faults.saturating_sub(earlier.minor_faults),
        }
    }
}

/// Parse the text of `/proc/<pid>/stat`. The command name (field 2) may hold
/// spaces and parentheses, so fields are counted from the last `)`.
pub fn parse_stat(text: &str) -> Option<Usage> {
    let rest = text.get(text.rfind(')')? + 1..)?;
    let fields: Vec<&str> = rest.split_ascii_whitespace().collect();
    // After the command name: state(0) ... minflt(7) ... utime(11) stime(12).
    let user_s = fields.get(11)?.parse::<f64>().ok()? / TICKS_PER_SEC;
    let sys_s = fields.get(12)?.parse::<f64>().ok()? / TICKS_PER_SEC;
    Some(Usage { cpu_s: user_s + sys_s, user_s, sys_s, minor_faults: fields.get(7)?.parse().ok()? })
}

/// The process CPU clock, where the platform's `timespec` is two 64-bit
/// words (every 64-bit Linux).
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn process_cpu_clock_s() -> Option<f64> {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clk_id: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a live, writable `timespec` of the layout
    // clock_gettime(2) fills on this target; the call keeps no pointer.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    (rc == 0).then(|| ts.tv_sec as f64 + ts.tv_nsec as f64 / 1e9)
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
fn process_cpu_clock_s() -> Option<f64> {
    None
}

/// Parse `VmHWM` (peak resident set, kB) out of `/proc/<pid>/status`.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_ascii_whitespace().nth(1)?.parse().ok()
}

/// This process's usage so far (zeros where `/proc` is unreadable; tick
/// resolution where the CPU clock is).
pub fn usage() -> Usage {
    let mut u = std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_stat(&s))
        .unwrap_or_default();
    if let Some(cpu_s) = process_cpu_clock_s() {
        u.cpu_s = cpu_s;
    }
    u
}

/// This process's peak resident set in MB (10^6 bytes).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_vm_hwm_kb(&s))
        .map_or(0.0, |kb| kb as f64 * 1024.0 / 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_are_counted_from_the_last_paren() {
        let text =
            "4242 (spbc perf (x)) S 1 4242 4242 0 -1 4194304 1234 0 7 0 250 125 0 0 20 0 5 0 \
                    100 1000000 500 18446744073709551615";
        let u = parse_stat(text).unwrap();
        assert_eq!(u, Usage { cpu_s: 3.75, user_s: 2.5, sys_s: 1.25, minor_faults: 1234 });
        assert!(parse_stat("garbage").is_none());
        assert!(parse_stat("1 (x) S 1 2").is_none());
    }

    #[test]
    fn usage_delta() {
        let a = Usage { cpu_s: 1.5, user_s: 1.0, sys_s: 0.5, minor_faults: 10 };
        let b = Usage { cpu_s: 3.75, user_s: 3.0, sys_s: 0.75, minor_faults: 25 };
        assert_eq!(b.since(&a), Usage { cpu_s: 2.25, user_s: 2.0, sys_s: 0.25, minor_faults: 15 });
    }

    #[test]
    fn vm_hwm_line() {
        let status = "Name:\tspbc-perf\nVmPeak:\t  999 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(20480));
        assert_eq!(parse_vm_hwm_kb("Name:\tx\n"), None);
    }

    #[test]
    fn live_proc_is_readable() {
        assert!(peak_rss_mb() > 0.0);
        let before = usage();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i));
        }
        assert!(usage().since(&before).cpu_s > 0.0);
    }
}
