//! Thread placement for the wire workloads. The load generator polls and
//! never sleeps; the server's threads sleep when idle. Left to itself the
//! scheduler sometimes wakes a server thread on the generator's core and
//! leaves it there for seconds while the other core idles, and throughput
//! drops to a quarter. Which of the two placements a run gets is luck, so
//! the harness takes luck out: the generator's thread gets the first allowed
//! CPU to itself, and every other thread of the process (the program's) is
//! confined to the rest.
//!
//! The standard library has no call for this and the build has no `libc`,
//! hence the raw `sched_setaffinity` system call.

/// CPUs this process may run on, from `Cpus_allowed_list` (`0-1,4`) as it
/// was at the first call: later calls would see the main thread's own
/// narrowed mask.
fn allowed_cpus() -> &'static [usize] {
    static ALLOWED: std::sync::OnceLock<Vec<usize>> = std::sync::OnceLock::new();
    ALLOWED.get_or_init(|| {
        let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
        let list = status
            .lines()
            .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
            .unwrap_or("");
        let mut cpus = Vec::new();
        for part in list.trim().split(',') {
            let (lo, hi) = part.split_once('-').unwrap_or((part, part));
            if let (Ok(lo), Ok(hi)) = (lo.parse::<usize>(), hi.parse::<usize>()) {
                cpus.extend(lo..=hi);
            }
        }
        cpus
    })
}

const MASK_WORDS: usize = 16;

fn mask_of(cpus: &[usize]) -> [u64; MASK_WORDS] {
    let mut mask = [0u64; MASK_WORDS];
    for &cpu in cpus.iter().filter(|&&c| c < 64 * MASK_WORDS) {
        mask[cpu / 64] |= 1 << (cpu % 64);
    }
    mask
}

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
fn sched_setaffinity(tid: u32, mask: &[u64; MASK_WORDS]) -> bool {
    let ret: i64;
    // SAFETY: system call 203 is sched_setaffinity(pid, cpusetsize, mask).
    // The kernel only reads `cpusetsize` bytes from `mask`, which points to
    // a live array of exactly that size; it writes no memory of ours. The
    // `syscall` instruction clobbers rcx and r11, declared below.
    unsafe {
        std::arch::asm!(
            "syscall",
            inlateout("rax") 203i64 => ret,
            in("rdi") i64::from(tid),
            in("rsi") std::mem::size_of_val(mask),
            in("rdx") mask.as_ptr(),
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack, readonly),
        );
    }
    ret == 0
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
fn sched_setaffinity(_tid: u32, _mask: &[u64; MASK_WORDS]) -> bool {
    false
}

/// Gives the calling thread, which must be the process's main thread, the
/// first allowed CPU, and confines every other thread that exists now to the
/// other allowed CPUs. Returns false, having changed nothing that matters,
/// when there is only one CPU or the kernel refuses.
pub fn isolate_main_thread() -> bool {
    let cpus = allowed_cpus();
    if cpus.len() < 2 {
        return false;
    }
    let main_tid = std::process::id();
    let (mine, theirs) = (mask_of(&cpus[..1]), mask_of(&cpus[1..]));
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return false;
    };
    let mut all = true;
    for tid in tasks.filter_map(|e| e.ok()?.file_name().to_str()?.parse::<u32>().ok()) {
        all &= sched_setaffinity(tid, if tid == main_tid { &mine } else { &theirs });
    }
    all
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn masks_set_the_right_bits() {
        let m = mask_of(&[0, 1, 65]);
        assert_eq!((m[0], m[1]), (0b11, 0b10));
        assert!(m[2..].iter().all(|&w| w == 0));
    }

    #[test]
    fn this_process_is_allowed_somewhere() {
        assert!(!allowed_cpus().is_empty());
    }
}
