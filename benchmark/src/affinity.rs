//! Pinning the whole benchmark to one CPU.
//!
//! The host gives the benchmark two virtual CPUs of a shared machine. With
//! the cluster's threads spread over both, every hop between processes is
//! a cross-CPU wake-up (an inter-processor interrupt, often out of a halted
//! virtual CPU, both of which exit to the hypervisor), and a neighbour that
//! slows either virtual CPU stalls the whole pipeline: the same binary ran
//! `pipelined_1g` at 4 100 msg/s and at 14 700 msg/s half an hour apart.
//! On one CPU a hop is a context switch, nothing halts while there is work,
//! and only that CPU's speed is left to vary (7 900 against 11 900 msg/s in
//! the same two spells). What is measured is then the CPU work a multicast
//! costs, end to end; the parallelism two CPUs would add is not.

use std::io;

/// `cpu_set_t` of glibc: 1024 bits.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
}

/// The highest-numbered CPU in `set`: device interrupts land on the lowest
/// ones, and whatever else the host's guest runs is free to use those.
fn last_cpu(set: &CpuSet) -> Option<usize> {
    set.iter()
        .enumerate()
        .rev()
        .find(|(_, word)| **word != 0)
        .map(|(i, word)| i * 64 + 63 - word.leading_zeros() as usize)
}

/// Restricts the calling thread to the highest-numbered CPU it may run on and
/// returns that CPU. Call it before any thread or process is started: they
/// inherit the restriction.
pub fn pin_to_last_cpu() -> io::Result<usize> {
    let mut set: CpuSet = [0; 16];
    // SAFETY: `set` is a live, writable buffer of the size passed.
    if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) } != 0 {
        return Err(io::Error::last_os_error());
    }
    let cpu = last_cpu(&set).ok_or_else(|| io::Error::other("empty CPU affinity mask"))?;
    let mut only: CpuSet = [0; 16];
    only[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `only` is a live buffer of the size passed.
    if unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &only) } != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(cpu)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn last_cpu_is_the_highest_set_bit() {
        let mut set: CpuSet = [0; 16];
        assert_eq!(last_cpu(&set), None);
        set[0] = 0b11;
        assert_eq!(last_cpu(&set), Some(1));
        set[1] = 1 << 5;
        assert_eq!(last_cpu(&set), Some(69));
    }
}
