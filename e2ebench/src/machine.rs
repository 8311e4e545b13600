//! Machine context recorded with every result, and the process's peak
//! memory.

use std::path::Path;
use std::process::Command;

/// Hardware threads the process may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Size of the last-level cache of CPU 0 in bytes, from sysfs (`None`
/// when the kernel does not expose it).
pub fn l3_bytes() -> Option<u64> {
    let text = std::fs::read_to_string("/sys/devices/system/cpu/cpu0/cache/index3/size").ok()?;
    let text = text.trim();
    let (digits, scale) = match text.as_bytes().last()? {
        b'K' => (&text[..text.len() - 1], 1u64 << 10),
        b'M' => (&text[..text.len() - 1], 1 << 20),
        b'G' => (&text[..text.len() - 1], 1 << 30),
        _ => (text, 1),
    };
    digits.parse::<u64>().ok().map(|v| v * scale)
}

/// The process's peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// The commit the benchmark's sources were checked out at, when they sit
/// in a git work tree (a plain source checkout reports `unknown`).
fn commit() -> String {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    // Stop git at the source root so it never reports an enclosing repo.
    let ceiling = root.join("..");
    Command::new("git")
        .arg("-C")
        .arg(&root)
        .args(["rev-parse", "--short=12", "HEAD"])
        .env("GIT_CEILING_DIRECTORIES", ceiling)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// `(key, value)` pairs describing the machine and build.
pub fn context() -> Vec<(&'static str, String)> {
    vec![
        ("nproc", nproc().to_string()),
        ("pool_threads", rayon::current_num_threads().to_string()),
        (
            "l3_bytes",
            l3_bytes().map_or("unknown".into(), |b| b.to_string()),
        ),
        ("rustc", env!("E2EBENCH_RUSTC").to_string()),
        ("commit", commit()),
    ]
}

/// Mebibytes, for working-set context lines.
pub fn mib(bytes: u64) -> String {
    format!("{:.1} MiB", bytes as f64 / (1u64 << 20) as f64)
}
