//! The host and run stamp, and process CPU time.

use std::fs;
use std::path::Path;

#[derive(Debug, Clone)]
pub struct Host {
    pub nproc: usize,
    pub cpu_model: String,
    pub llc_bytes: Option<u64>,
    /// The checkout's `HEAD` commit, when it is a git checkout.
    pub git_head: Option<String>,
}

impl Host {
    pub fn probe() -> Host {
        let cpuinfo = fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
        let field = |key: &str| {
            cpuinfo.lines().find_map(|line| {
                let (k, v) = line.split_once(':')?;
                (k.trim() == key).then(|| v.trim().to_string())
            })
        };
        Host {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model: field("model name").unwrap_or_else(|| "unknown".into()),
            llc_bytes: field("cache size").and_then(|v| {
                let kb = v.strip_suffix("KB")?.trim().parse::<u64>().ok()?;
                Some(kb * 1024)
            }),
            git_head: git_head(Path::new(".git")),
        }
    }
}

/// Resolves `HEAD` by reading the git directory's files, without running
/// git (which would search directories above the checkout).
fn git_head(git: &Path) -> Option<String> {
    let head = fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(sha) = fs::read_to_string(git.join(reference)) {
        return Some(sha.trim().to_string());
    }
    let packed = fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|line| {
        let (sha, name) = line.split_once(' ')?;
        (name == reference).then(|| sha.to_string())
    })
}

/// User plus system CPU seconds of this process, all threads included
/// (`/proc/self/stat`, in the kernel's fixed 100 Hz user-visible ticks).
pub fn process_cpu_seconds() -> Option<f64> {
    let stat = fs::read_to_string("/proc/self/stat").ok()?;
    // Fields after the parenthesised command name start at `state`
    // (field 3); utime and stime are fields 14 and 15.
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) / 100.0)
}
