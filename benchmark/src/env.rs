//! What the machine was while the numbers were taken: the fingerprint
//! printed with every result, and the `/proc` readers behind `proc.*`.

use crate::json::Json;
use std::path::Path;
use std::process::Command;

/// Kernel clock ticks per second in `/proc/*/stat` (USER_HZ, 100 on Linux).
const TICKS_PER_S: f64 = 100.0;

/// Logical processors this process may run on; engine threads, server
/// workers and client connections are all set to it.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn read(path: &str) -> Option<String> {
    std::fs::read_to_string(path).ok()
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

fn cgroup_cpu_quota() -> String {
    if let Some(max) = read("/sys/fs/cgroup/cpu.max") {
        return max.trim().to_string();
    }
    match read("/sys/fs/cgroup/cpu/cpu.cfs_quota_us") {
        Some(q) => format!("{} us per period", q.trim()),
        None => "none".to_string(),
    }
}

/// Filesystem type of the mount holding `path` (longest mount-point prefix).
pub fn filesystem_of(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let mounts = read("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, at, kind) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(at).then(|| (at.len(), kind.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".to_string(), |(_, kind)| kind)
}

/// The static part of the fingerprint; the run adds its own sizes.
pub fn fingerprint(scratch: &Path) -> Vec<(&'static str, Json)> {
    vec![
        ("nproc", nproc().into()),
        ("cgroup_cpu_quota", cgroup_cpu_quota().into()),
        (
            "commit",
            command_line("git", &["rev-parse", "--short", "HEAD"]).into(),
        ),
        ("rustc", command_line("rustc", &["--version"]).into()),
        (
            "profile",
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }
            .into(),
        ),
        ("scratch_dir", scratch.display().to_string().into()),
        ("scratch_filesystem", filesystem_of(scratch).into()),
        (
            "flush_policy",
            "WalConfig::default() (256 records per frame, fsync every 8 frames); \
             save_bytes = temp file + fsync + rename + directory fsync"
                .into(),
        ),
        (
            "page_cache",
            "warm: every file is read by the process that just wrote it; caches are not dropped"
                .into(),
        ),
    ]
}

/// A reading of the counters `proc.*` are differences of.
#[derive(Clone, Copy, Default)]
pub struct ProcSnapshot {
    /// User + system CPU seconds of this process, its reaped children and
    /// `also` (a live child).
    pub cpu_s: f64,
    /// Minor page faults of the same processes.
    pub minor_faults: f64,
    /// Machine-wide stolen ticks and all ticks, from `/proc/stat`.
    pub steal_ticks: f64,
    pub all_ticks: f64,
}

fn stat_fields(pid: &str) -> Option<Vec<f64>> {
    let stat = read(&format!("/proc/{pid}/stat"))?;
    // Fields after the parenthesised command name, which may hold spaces.
    let rest = &stat[stat.rfind(')')? + 2..];
    Some(
        rest.split_whitespace()
            .map(|f| f.parse().unwrap_or(0.0))
            .collect(),
    )
}

impl ProcSnapshot {
    /// Reads this process and, when given, one live child.
    pub fn take(also: Option<u32>) -> ProcSnapshot {
        let mut snap = ProcSnapshot::default();
        let pids = std::iter::once("self".to_string()).chain(also.map(|p| p.to_string()));
        for pid in pids {
            if let Some(f) = stat_fields(&pid) {
                // After the command: state is index 0, so minflt (field 10)
                // is index 7, cminflt 8, utime 11, stime 12, cutime 13,
                // cstime 14.
                let at = |i: usize| f.get(i).copied().unwrap_or(0.0);
                snap.minor_faults += at(7) + at(8);
                snap.cpu_s += (at(11) + at(12) + at(13) + at(14)) / TICKS_PER_S;
            }
        }
        if let Some(stat) = read("/proc/stat") {
            if let Some(cpu) = stat.lines().next() {
                let ticks: Vec<f64> = cpu
                    .split_whitespace()
                    .skip(1)
                    .map(|f| f.parse().unwrap_or(0.0))
                    .collect();
                // user nice system idle iowait irq softirq steal; guest
                // time is already inside user.
                snap.all_ticks = ticks.iter().take(8).sum();
                snap.steal_ticks = ticks.get(7).copied().unwrap_or(0.0);
            }
        }
        snap
    }

    /// The `proc.*` rows every workload reports, over `ops` operations
    /// since `earlier`.
    pub fn layers_since(&self, earlier: &ProcSnapshot, ops: f64) -> [(&'static str, f64); 3] {
        [
            (
                "proc.cpu_s_per_mop",
                (self.cpu_s - earlier.cpu_s) / ops * 1e6,
            ),
            (
                "proc.minor_faults_per_kop",
                (self.minor_faults - earlier.minor_faults) / ops * 1e3,
            ),
            ("proc.steal_share", self.steal_share_since(earlier)),
        ]
    }

    /// Share of machine time stolen by the hypervisor since `earlier`.
    pub fn steal_share_since(&self, earlier: &ProcSnapshot) -> f64 {
        let all = self.all_ticks - earlier.all_ticks;
        if all > 0.0 {
            (self.steal_ticks - earlier.steal_ticks) / all
        } else {
            0.0
        }
    }
}

/// Peak resident set (`VmHWM`) of a process in MB (10^6 bytes).
pub fn peak_rss_mb(pid: Option<u32>) -> f64 {
    let pid = pid.map_or_else(|| "self".to_string(), |p| p.to_string());
    read(&format!("/proc/{pid}/status"))
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}

/// Bytes of every regular file directly inside `dir`.
pub fn dir_bytes(dir: &Path, keep: impl Fn(&str) -> bool) -> u64 {
    std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .filter(|e| e.file_name().to_str().is_some_and(&keep))
        .filter_map(|e| e.metadata().ok())
        .filter(|m| m.is_file())
        .map(|m| m.len())
        .sum()
}
