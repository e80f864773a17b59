//! Process-level controls of the measuring child: pin it to one CPU, and
//! have it die with the runner.
//!
//! Pinned, the four rank threads of a workload interleave on one core
//! instead of waking each other across cores. On a small virtual machine
//! those cross-CPU wake-ups go through the hypervisor and are the largest
//! source of run-to-run spread (see the calibration in `README.md`); on one
//! core, wall time is close to CPU time and repeats.

#[cfg(target_os = "linux")]
mod sys {
    /// Words of the kernel's CPU mask this program passes: 1024 CPUs.
    pub const WORDS: usize = 16;

    pub const PR_SET_PDEATHSIG: i32 = 1;
    pub const SIGKILL: u64 = 9;

    extern "C" {
        pub fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        pub fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
        pub fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
    }
}

/// Ask the kernel to kill this process when its parent (the runner) dies, so
/// a runner that is killed leaves no measuring process behind.
#[cfg(target_os = "linux")]
pub fn die_with_parent() {
    // SAFETY: prctl(PR_SET_PDEATHSIG) takes a signal number by value and
    // touches no memory of this process.
    unsafe { sys::prctl(sys::PR_SET_PDEATHSIG, sys::SIGKILL, 0, 0, 0) };
}

#[cfg(not(target_os = "linux"))]
pub fn die_with_parent() {}

/// Restrict this process (pid 0 = the caller; threads spawned later inherit
/// the mask) to the highest-numbered CPU it may run on — CPU 0 is where a
/// virtual machine's interrupts usually land. Returns the CPU, or `None`
/// when the mask cannot be read or set (the run then goes on unpinned).
#[cfg(target_os = "linux")]
pub fn pin_to_one_cpu() -> Option<usize> {
    let mut mask = [0u64; sys::WORDS];
    let bytes = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a live, writable buffer of exactly `bytes` bytes,
    // which is what sched_getaffinity(2) fills; pid 0 names the caller.
    let got = unsafe { sys::sched_getaffinity(0, bytes, mask.as_mut_ptr()) };
    if got != 0 {
        return None;
    }
    let cpu = highest_set_bit(&mask)?;
    let mut one = [0u64; sys::WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a live buffer of exactly `bytes` bytes that
    // sched_setaffinity(2) only reads; pid 0 names the caller.
    let set = unsafe { sys::sched_setaffinity(0, bytes, one.as_ptr()) };
    (set == 0).then_some(cpu)
}

#[cfg(not(target_os = "linux"))]
pub fn pin_to_one_cpu() -> Option<usize> {
    None
}

#[cfg_attr(not(target_os = "linux"), allow(dead_code))]
fn highest_set_bit(mask: &[u64]) -> Option<usize> {
    mask.iter()
        .enumerate()
        .rev()
        .find(|(_, w)| **w != 0)
        .map(|(i, w)| i * 64 + 63 - w.leading_zeros() as usize)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn highest_bit_across_words() {
        assert_eq!(highest_set_bit(&[0, 0]), None);
        assert_eq!(highest_set_bit(&[0b11, 0]), Some(1));
        assert_eq!(highest_set_bit(&[u64::MAX, 0b100]), Some(66));
    }
}
