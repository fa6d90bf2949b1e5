//! What the benchmark needs from the machine: CPU pinning, the resident-set
//! high-water mark, and the environment record printed with every run.

use std::path::PathBuf;
use std::process::Command;

use crate::json::Json;

/// A `cpu_set_t`: 1024 CPU bits.
pub type CpuMask = [u64; 16];

#[cfg(target_os = "linux")]
mod affinity {
    use super::CpuMask;

    // glibc's thread-affinity calls, declared here so the package needs no
    // `libc` crate; `pid == 0` means the calling thread.
    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuMask) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuMask) -> i32;
    }

    pub fn get() -> Option<CpuMask> {
        let mut mask: CpuMask = [0; 16];
        // SAFETY: `mask` is a live, writable buffer of exactly the size
        // passed; the kernel writes at most that many bytes.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuMask>(), &mut mask) };
        (rc == 0).then_some(mask)
    }

    pub fn set(mask: &CpuMask) -> bool {
        // SAFETY: `mask` is a live buffer of exactly the size passed; the
        // call only reads it.
        unsafe { sched_setaffinity(0, std::mem::size_of::<CpuMask>(), mask) == 0 }
    }
}

#[cfg(not(target_os = "linux"))]
mod affinity {
    use super::CpuMask;

    pub fn get() -> Option<CpuMask> {
        None
    }

    pub fn set(_mask: &CpuMask) -> bool {
        false
    }
}

/// The calling thread's affinity: the mask it started with and, when pinning
/// worked, the single CPU it now runs on. Threads spawned later inherit the
/// spawning thread's mask, so pinning `main` before any spawn pins the run.
#[derive(Debug, Clone)]
pub struct Pinning {
    original: Option<CpuMask>,
    pub cpu: Option<usize>,
}

impl Pinning {
    /// Pin the calling thread to the first CPU of its affinity mask. On any
    /// failure the run continues unpinned (`cpu == None`) with a warning.
    pub fn pin_to_first_cpu() -> Pinning {
        let original = affinity::get();
        let cpu = original.and_then(|mask| {
            let cpu = first_cpu(&mask)?;
            affinity::set(&single_cpu(cpu)).then_some(cpu)
        });
        if cpu.is_none() {
            eprintln!("warning: could not pin to one CPU; timings will be noisier (pinned: false)");
        }
        Pinning { original, cpu }
    }

    pub fn pinned(&self) -> bool {
        self.cpu.is_some()
    }

    /// CPUs the process was allowed before pinning.
    fn nproc(&self) -> usize {
        match &self.original {
            Some(mask) => mask.iter().map(|w| w.count_ones() as usize).sum(),
            None => std::thread::available_parallelism().map_or(0, |n| n.get()),
        }
    }

    /// Run `f` on the original (unpinned) mask, then pin again. Used only
    /// for the ungated two-worker numbers of the traced pass.
    pub fn unpinned<R>(&self, f: impl FnOnce() -> R) -> R {
        let (Some(original), Some(cpu)) = (&self.original, self.cpu) else {
            return f();
        };
        affinity::set(original);
        let r = f();
        affinity::set(&single_cpu(cpu));
        r
    }
}

fn first_cpu(mask: &CpuMask) -> Option<usize> {
    mask.iter()
        .enumerate()
        .find(|(_, w)| **w != 0)
        .map(|(i, w)| i * 64 + w.trailing_zeros() as usize)
}

fn single_cpu(cpu: usize) -> CpuMask {
    let mut mask: CpuMask = [0; 16];
    mask[cpu / 64] = 1 << (cpu % 64);
    mask
}

/// Peak resident set size of this process so far (`VmHWM`), in MB.
pub fn vm_hwm_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The benchmark package's directory: where `out/` lives. Cargo sets
/// `CARGO_MANIFEST_DIR` for `cargo run`; the compile-time value covers a
/// binary started by hand.
pub fn package_dir() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")))
}

fn cpu_model() -> Option<String> {
    let info = std::fs::read_to_string("/proc/cpuinfo").ok()?;
    let line = info.lines().find(|l| l.starts_with("model name"))?;
    Some(line.split(':').nth(1)?.trim().to_string())
}

fn rustc_version() -> Option<String> {
    let out = Command::new("rustc").arg("--version").output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// `HEAD` of the repository holding this package, read from `.git` directly
/// (the driver's checkout is not a git repository: then `None`).
fn git_commit() -> Option<String> {
    let git = package_dir().parent()?.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => Some(
            std::fs::read_to_string(git.join(r))
                .ok()?
                .trim()
                .to_string(),
        ),
        None => Some(head.to_string()),
    }
}

/// The environment record: enough to tell two result files apart.
pub fn environment(pin: &Pinning) -> Vec<(&'static str, Json)> {
    let unknown = || "unknown".to_string();
    vec![
        ("nproc", Json::Int(pin.nproc() as u64)),
        ("cpu_model", Json::Str(cpu_model().unwrap_or_else(unknown))),
        ("pinned", Json::Bool(pin.pinned())),
        (
            "pinned_cpu",
            pin.cpu.map_or(Json::str("none"), |c| Json::Int(c as u64)),
        ),
        ("rustc", Json::Str(rustc_version().unwrap_or_else(unknown))),
        (
            "git_commit",
            Json::Str(git_commit().unwrap_or_else(unknown)),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mask_helpers() {
        assert_eq!(first_cpu(&[0; 16]), None);
        assert_eq!(first_cpu(&single_cpu(0)), Some(0));
        assert_eq!(first_cpu(&single_cpu(70)), Some(70));
        let mut m = single_cpu(5);
        m[2] = 1;
        assert_eq!(first_cpu(&m), Some(5));
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn pin_and_unpin_round_trip() {
        // Run on a thread of its own: affinity is per thread, and the test
        // harness's other threads must keep theirs.
        std::thread::spawn(|| {
            let before = affinity::get().expect("affinity readable on linux");
            let pin = Pinning::pin_to_first_cpu();
            let cpu = pin.cpu.expect("pinning to an allowed CPU succeeds");
            assert_eq!(affinity::get(), Some(single_cpu(cpu)));
            assert_eq!(pin.unpinned(affinity::get), Some(before));
            assert_eq!(affinity::get(), Some(single_cpu(cpu)));
        })
        .join()
        .unwrap();
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn rss_is_readable() {
        assert!(vm_hwm_mb().expect("VmHWM present") > 0.0);
    }
}
