//! What the benchmark reads about the machine and its processes from
//! outside the program: peak resident memory through `/proc`, the host
//! stamp through `/proc` and `/sys`, and directory sizes.

use std::path::Path;

/// Resets the peak resident set size (`VmHWM`) of `pid` to its current
/// resident set size.
pub fn reset_peak_rss(pid: u32) -> std::io::Result<()> {
    std::fs::write(format!("/proc/{pid}/clear_refs"), "5")
}

/// Peak resident set size (`VmHWM`) of `pid` since the last reset, in MiB.
pub fn peak_rss_mb(pid: u32) -> std::io::Result<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))?;
    status_kib(&status, "VmHWM:")
        .map(|kib| kib as f64 / 1024.0)
        .ok_or_else(|| std::io::Error::other(format!("no VmHWM in /proc/{pid}/status")))
}

/// The kB value of the `key` line in a `/proc/*/status` or
/// `/proc/meminfo` text.
fn status_kib(text: &str, key: &str) -> Option<u64> {
    text.lines()
        .find_map(|line| line.strip_prefix(key))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|v| v.parse().ok())
}

/// The machine the numbers were taken on.
#[derive(Debug)]
pub struct Host {
    /// `std::thread::available_parallelism`.
    pub parallelism: usize,
    /// Installed memory, MiB.
    pub mem_mb: f64,
    /// Last-level (L3) cache of CPU 0, bytes; 0 when `/sys` does not say.
    pub l3_bytes: u64,
    /// Kernel release.
    pub kernel: String,
    /// Compiler that built the benchmark.
    pub rustc: &'static str,
}

impl Host {
    /// Reads the host stamp.
    pub fn read() -> Self {
        let meminfo = std::fs::read_to_string("/proc/meminfo").unwrap_or_default();
        Self {
            parallelism: std::thread::available_parallelism().map_or(1, |n| n.get()),
            mem_mb: status_kib(&meminfo, "MemTotal:").unwrap_or(0) as f64 / 1024.0,
            l3_bytes: l3_bytes(),
            kernel: std::fs::read_to_string("/proc/sys/kernel/osrelease")
                .map(|s| s.trim().to_string())
                .unwrap_or_default(),
            rustc: env!("PERFBENCH_RUSTC"),
        }
    }

    /// The stamp as one JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"available_parallelism\":{},\"mem_mb\":{:.0},\"l3_mib\":{},\"kernel\":\"{}\",\"rustc\":\"{}\"}}",
            self.parallelism,
            self.mem_mb,
            self.l3_bytes as f64 / MIB,
            self.kernel,
            self.rustc
        )
    }
}

const MIB: f64 = 1024.0 * 1024.0;

/// Size of the level-3 cache CPU 0 sees, from `/sys`.
fn l3_bytes() -> u64 {
    let base = Path::new("/sys/devices/system/cpu/cpu0/cache");
    let Ok(entries) = std::fs::read_dir(base) else {
        return 0;
    };
    for entry in entries.flatten() {
        let dir = entry.path();
        let level = std::fs::read_to_string(dir.join("level")).unwrap_or_default();
        if level.trim() != "3" {
            continue;
        }
        let size = std::fs::read_to_string(dir.join("size")).unwrap_or_default();
        return parse_cache_size(size.trim()).unwrap_or(0);
    }
    0
}

/// Parses a `/sys` cache size such as `107520K` or `32M`.
fn parse_cache_size(text: &str) -> Option<u64> {
    let (digits, mult) = match text.strip_suffix('K') {
        Some(d) => (d, 1u64 << 10),
        None => match text.strip_suffix('M') {
            Some(d) => (d, 1 << 20),
            None => (text, 1),
        },
    };
    digits.parse::<u64>().ok().map(|v| v * mult)
}

/// Total bytes of the regular files under `dir` (0 when it is absent).
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|entry| match entry.metadata() {
            Ok(meta) if meta.is_dir() => dir_bytes(&entry.path()),
            Ok(meta) => meta.len(),
            Err(_) => 0,
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_kib_lines() {
        let text = "Name:\tx\nVmPeak:\t  9000 kB\nVmHWM:\t    1252 kB\n";
        assert_eq!(status_kib(text, "VmHWM:"), Some(1252));
        assert_eq!(status_kib(text, "VmRSS:"), None);
    }

    #[test]
    fn parses_sys_cache_sizes() {
        assert_eq!(parse_cache_size("107520K"), Some(107520 * 1024));
        assert_eq!(parse_cache_size("32M"), Some(32 << 20));
        assert_eq!(parse_cache_size("bogus"), None);
    }
}
