//! Process-level measurements from `/proc/self` and the run's identity.

use std::path::Path;

/// Clock ticks per second of the `/proc/<pid>/stat` time fields
/// (`USER_HZ`, fixed at 100 in the Linux user-space ABI).
const USER_HZ: f64 = 100.0;

/// User plus system CPU time of this process so far, in milliseconds
/// (10 ms resolution).
pub fn cpu_ms() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // The command name (field 2) may hold spaces; fields after its
    // closing parenthesis are space-separated: state is field 3, utime
    // field 14, stime field 15.
    let Some(rest) = stat.rfind(')').map(|i| &stat[i + 1..]) else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) * 1000.0 / USER_HZ
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The commit under test: `git rev-parse HEAD` when the working
/// directory is the root of a git checkout, else an FNV-1a fingerprint of
/// the workspace sources (`Cargo.lock` and every file under `crates/`),
/// so results from a plain export still identify the code they measured.
pub fn commit() -> String {
    if Path::new(".git").exists() {
        let git = std::process::Command::new("git")
            .args(["rev-parse", "HEAD"])
            .stderr(std::process::Stdio::null())
            .output();
        if let Ok(out) = git {
            let head = String::from_utf8_lossy(&out.stdout).trim().to_owned();
            if out.status.success() && !head.is_empty() {
                return head;
            }
        }
    }
    let mut files = Vec::new();
    collect_files(Path::new("crates"), &mut files);
    files.sort();
    files.insert(0, Path::new("Cargo.lock").to_path_buf());
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for f in files {
        for b in f
            .to_string_lossy()
            .bytes()
            .chain(std::fs::read(&f).unwrap_or_default())
        {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("src-fnv1a:{hash:016x}")
}

fn collect_files(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let path = e.path();
        if path.is_dir() {
            collect_files(&path, out);
        } else {
            out.push(path);
        }
    }
}
