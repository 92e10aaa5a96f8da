//! Keeps the device side and the cloud side of the pipeline on different
//! cores.
//!
//! ProvLight's devices are separate single-core boards; here they share a
//! 2-core host with the server. Left to the scheduler, the server's
//! threads sometimes settle on the generator's core and preempt it inside
//! every capture call, and sometimes not, so capture cost changed tenfold
//! from run to run. The benchmark therefore pins the server's threads
//! (broker, translator, the monitor's query thread) to one core and the
//! generator with its clients' transmitter threads to another. Threads
//! inherit the affinity of the thread that spawns them, so pinning the
//! calling thread before each start call places the threads it spawns.

/// Words of a kernel `cpu_set_t` (1024 CPUs).
const WORDS: usize = 16;

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// The CPUs the calling thread may run on, lowest first.
#[cfg(target_os = "linux")]
fn allowed() -> Vec<usize> {
    let mut mask = [0u64; WORDS];
    // SAFETY: `mask` is a writable buffer of exactly the size passed, and
    // pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Vec::new();
    }
    (0..WORDS * 64)
        .filter(|&c| mask[c / 64] & (1 << (c % 64)) != 0)
        .collect()
}

#[cfg(target_os = "linux")]
fn pin(cpu: usize) {
    let mut mask = [0u64; WORDS];
    mask[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `mask` is a readable buffer of exactly the size passed, and
    // pid 0 names the calling thread. Failure leaves the affinity as it
    // was, which only costs steadiness.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
}

#[cfg(not(target_os = "linux"))]
fn allowed() -> Vec<usize> {
    Vec::new()
}

#[cfg(not(target_os = "linux"))]
fn pin(_cpu: usize) {}

/// The process's placement, chosen on first use (before any pinning).
pub fn get() -> Placement {
    static PLACEMENT: std::sync::OnceLock<Placement> = std::sync::OnceLock::new();
    *PLACEMENT.get_or_init(Placement::detect)
}

/// Which core each side runs on; `None` when fewer than two are allowed.
#[derive(Clone, Copy, Debug)]
pub struct Placement {
    cores: Option<(usize, usize)>,
}

impl Placement {
    /// Chooses the first two allowed cores: the lower one for the device
    /// side, the next for the cloud side.
    fn detect() -> Placement {
        let cpus = allowed();
        Placement {
            cores: (cpus.len() >= 2).then(|| (cpus[0], cpus[1])),
        }
    }

    /// Pins the calling thread to the device core.
    pub fn device(&self) {
        if let Some((device, _)) = self.cores {
            pin(device);
        }
    }

    /// Pins the calling thread to the cloud core.
    pub fn cloud(&self) {
        if let Some((_, cloud)) = self.cores {
            pin(cloud);
        }
    }

    /// Run-fact rendering.
    pub fn describe(&self) -> String {
        match self.cores {
            Some((d, c)) => format!("device side on cpu {d}, cloud side on cpu {c}"),
            None => "unpinned (fewer than 2 cpus allowed)".to_owned(),
        }
    }
}
