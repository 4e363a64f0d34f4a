//! Process accounting read from `/proc`: CPU time and peak resident set.

use std::time::Duration;

/// Clock ticks per second of the `/proc/<pid>/stat` time fields (Linux's
/// fixed `USER_HZ`).
const USER_HZ: u64 = 100;

/// User plus system CPU time of process `pid` (`"self"` for this one),
/// threads that already exited included.
pub fn cpu_time(pid: &str) -> Result<Duration, String> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat"))
        .map_err(|e| format!("cannot read /proc/{pid}/stat: {e}"))?;
    // The command name may hold spaces; fields restart after its ')'.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, rest)| rest)
        .ok_or("malformed stat line")?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // utime and stime are fields 14 and 15 of the line: indices 11 and 12 here.
    let tick = |i: usize| -> Result<u64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse().ok())
            .ok_or_else(|| format!("malformed stat field {i}"))
    };
    let ticks = tick(11)? + tick(12)?;
    Ok(Duration::from_millis(ticks * 1000 / USER_HZ))
}

/// Peak resident set (`VmHWM`) of process `pid`, in MiB.
pub fn peak_rss_mb(pid: &str) -> Result<f64, String> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
        .map_err(|e| format!("cannot read /proc/{pid}/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .ok_or("no VmHWM in status")?;
    Ok(kb / 1024.0)
}
