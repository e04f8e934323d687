//! What the host looked like when a number was taken, and where the
//! benchmark may write.

use std::path::{Path, PathBuf};
use std::process::Command;

use crate::json::{num, obj, str, Value};

/// Logical processors available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// `benchmark/out`: the only directory a run writes to. The command runs
/// from the checkout root; `cargo test` runs from the package directory.
pub fn out_dir() -> PathBuf {
    if Path::new("benchmark/Cargo.toml").exists() {
        PathBuf::from("benchmark/out")
    } else {
        PathBuf::from("out")
    }
}

fn first_line(program: &str, args: &[&str]) -> Option<String> {
    let output = Command::new(program).args(args).output().ok()?;
    if !output.status.success() {
        return None;
    }
    let text = String::from_utf8(output.stdout).ok()?;
    text.lines().next().map(|line| line.trim().to_string())
}

/// File-system type of the mount holding `path` (longest matching mount
/// point in `/proc/mounts`); "unknown" off Linux.
pub fn fs_type(path: &Path) -> String {
    let Ok(path) = path.canonicalize() else {
        return "unknown".to_string();
    };
    let Ok(mounts) = std::fs::read_to_string("/proc/mounts") else {
        return "unknown".to_string();
    };
    mounts
        .lines()
        .filter_map(|line| {
            let mut fields = line.split_whitespace();
            let (_, mount, kind) = (fields.next()?, fields.next()?, fields.next()?);
            path.starts_with(mount)
                .then(|| (mount.len(), kind.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".to_string(), |(_, kind)| kind)
}

/// Peak resident set of this process (`VmHWM`), MiB. 0 when unreadable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The result header: enough to tell two results apart that should not be
/// compared.
pub fn header(seed: u64, smoke: bool) -> Value {
    let out = out_dir();
    // The fs type is read off the directory the WAL will live in.
    let _ = std::fs::create_dir_all(&out);
    obj([
        (
            "commit",
            str(first_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".into())),
        ),
        ("seed", num(seed as f64)),
        ("smoke", Value::Bool(smoke)),
        ("nproc", num(nproc() as f64)),
        (
            "rustc",
            str(first_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into())),
        ),
        (
            "threads_used",
            num(crate::workloads::MAX_LOAD_THREADS as f64),
        ),
        ("wal_dir_fs", str(fs_type(&out))),
        ("wal_flush_policy", str("sync_data on every commit")),
    ])
}
