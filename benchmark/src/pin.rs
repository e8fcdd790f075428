//! Where the threads of a run execute: the driver and the probe on one
//! *home* CPU, the program's workers there too — except a cluster's shards,
//! which get a CPU each.
//!
//! Why a home CPU: the speed probe runs on the driver thread. On a 2-vCPU
//! shared machine one vCPU can lose half its speed for minutes while the
//! other is fine; with the program's worker threads free to run on either,
//! a run's numbers then depend on where the scheduler happened to put them,
//! and the probe — on the healthy vCPU — sees nothing (measured:
//! `serve-mixed` `read_ms` 39 ms → 75 ms for six minutes, probe unchanged).
//! Threads inherit the affinity of the thread that creates them, so pinning
//! the main thread before anything is spawned puts every worker on the
//! probe's CPU. Three of the four workloads lose nothing by that: they are
//! lock-step with one busy thread at a time.
//!
//! A cluster is the exception — its shards flush at the same time — so
//! [`spread`] moves each shard's worker to a CPU of its own, and the probe
//! then also runs on those CPUs ([`on_cpu`]), so that a slow one is seen.

use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// The CPUs this process may use, the home CPU first.
static CPUS: OnceLock<Vec<usize>> = OnceLock::new();

/// Pin the calling thread (and every thread it later spawns) to the fastest
/// of the CPUs it may run on, judged by `score` (lower is better; called
/// once per candidate while pinned to it). Returns the chosen CPU, or
/// `None` where pinning is not possible (other OS, restricted sandbox) —
/// the run then proceeds unpinned, and [`spread`] and [`on_cpu`] do nothing.
pub fn pin_to_fastest_cpu(score: impl FnMut() -> f64) -> Option<usize> {
    let (home, mut cpus) = imp::pin_to_fastest_cpu(score)?;
    cpus.retain(|&c| c != home);
    cpus.insert(0, home);
    // A second call keeps the first placement: workers already follow it.
    Some(CPUS.get_or_init(|| cpus)[0])
}

/// The first `n` CPUs of the placement, the home CPU first; fewer when the
/// machine has fewer, none when the process is not pinned.
pub fn cpus(n: usize) -> &'static [usize] {
    let all = CPUS.get().map_or(&[][..], Vec::as_slice);
    &all[..n.min(all.len())]
}

/// Run `spawn`, then give the `count` threads it started under the name
/// `name` a CPU each, in turn, starting with the home CPU. Other new threads
/// stay on the home CPU they inherited.
pub fn spread<R>(name: &str, count: usize, spawn: impl FnOnce() -> R) -> R {
    let all = cpus(usize::MAX);
    if all.len() < 2 {
        return spawn();
    }
    let before = imp::thread_ids();
    let r = spawn();
    // A thread names itself once it runs, which on a shared CPU may be a
    // moment after `spawn` returned.
    let deadline = Instant::now() + Duration::from_millis(500);
    let new = loop {
        let new: Vec<i32> = imp::thread_ids()
            .into_iter()
            .filter(|t| !before.contains(t) && imp::thread_is_named(*t, name))
            .collect();
        if new.len() >= count || Instant::now() > deadline {
            break new;
        }
        std::thread::sleep(Duration::from_micros(200));
    };
    if new.len() != count {
        eprintln!(
            "pin: expected {count} new threads named {name:?}, found {}; placement differs",
            new.len()
        );
    }
    for (i, tid) in new.into_iter().enumerate() {
        imp::pin_thread(tid, all[i % all.len()]);
    }
    r
}

/// Run `f` on `cpu` and come back to the home CPU.
pub fn on_cpu<R>(cpu: usize, f: impl FnOnce() -> R) -> R {
    let Some(&home) = cpus(1).first() else {
        return f();
    };
    imp::pin_thread(0, cpu);
    let r = f();
    imp::pin_thread(0, home);
    r
}

#[cfg(target_os = "linux")]
mod imp {
    /// 1024 CPUs: the size of glibc's `cpu_set_t`.
    const WORDS: usize = 16;
    /// Candidates tried at most (the first allowed ones).
    const MAX_CANDIDATES: usize = 8;
    /// The kernel keeps this many bytes of a thread's name.
    const COMM_LEN: usize = 15;

    // std links libc on Linux; these two are declared here because the repo
    // builds offline without the `libc` crate.
    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }

    fn set(tid: i32, mask: &[u64; WORDS]) -> bool {
        // SAFETY: `mask` points to `WORDS * 8` readable bytes, the size
        // passed; a thread id of 0 names the calling thread, any other one
        // is only looked up by the kernel.
        unsafe { sched_setaffinity(tid, std::mem::size_of_val(mask), mask.as_ptr()) == 0 }
    }

    /// Pin thread `tid` (0 = the calling one) to `cpu`.
    pub fn pin_thread(tid: i32, cpu: usize) -> bool {
        let mut mask = [0u64; WORDS];
        mask[cpu / 64] = 1 << (cpu % 64);
        set(tid, &mask)
    }

    /// `(chosen CPU, every candidate)`.
    pub fn pin_to_fastest_cpu(mut score: impl FnMut() -> f64) -> Option<(usize, Vec<usize>)> {
        let mut allowed = [0u64; WORDS];
        // SAFETY: `allowed` has room for the `WORDS * 8` bytes passed as
        // its size; pid 0 names the calling thread.
        if unsafe { sched_getaffinity(0, std::mem::size_of_val(&allowed), allowed.as_mut_ptr()) }
            != 0
        {
            return None;
        }
        let cpus: Vec<usize> = (0..WORDS * 64)
            .filter(|&c| allowed[c / 64] >> (c % 64) & 1 == 1)
            .take(MAX_CANDIDATES)
            .collect();
        let mut best: Option<(f64, usize)> = None;
        for &cpu in &cpus {
            if !pin_thread(0, cpu) {
                continue;
            }
            let s = score();
            if best.is_none_or(|(b, _)| s < b) {
                best = Some((s, cpu));
            }
        }
        match best {
            Some((_, cpu)) if pin_thread(0, cpu) => Some((cpu, cpus)),
            _ => {
                // Could not pin: leave the thread where it was allowed.
                set(0, &allowed);
                None
            }
        }
    }

    /// Kernel ids of this process's threads, ascending (creation order).
    pub fn thread_ids() -> Vec<i32> {
        let mut ids: Vec<i32> = std::fs::read_dir("/proc/self/task")
            .into_iter()
            .flatten()
            .filter_map(|e| e.ok()?.file_name().to_str()?.parse().ok())
            .collect();
        ids.sort_unstable();
        ids
    }

    /// Whether thread `tid` carries `name` (as much of it as the kernel keeps).
    pub fn thread_is_named(tid: i32, name: &str) -> bool {
        let kept = &name.as_bytes()[..name.len().min(COMM_LEN)];
        std::fs::read(format!("/proc/self/task/{tid}/comm"))
            .is_ok_and(|comm| comm.trim_ascii_end() == kept)
    }
}

#[cfg(not(target_os = "linux"))]
mod imp {
    pub fn pin_to_fastest_cpu(_score: impl FnMut() -> f64) -> Option<(usize, Vec<usize>)> {
        None
    }

    pub fn pin_thread(_tid: i32, _cpu: usize) -> bool {
        false
    }

    pub fn thread_ids() -> Vec<i32> {
        Vec::new()
    }

    pub fn thread_is_named(_tid: i32, _name: &str) -> bool {
        false
    }
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;
    use std::sync::{Arc, Barrier};

    /// The one CPU the calling thread may run on, from the kernel's view.
    fn my_cpu() -> usize {
        let status = std::fs::read_to_string("/proc/thread-self/status").unwrap();
        let list = status
            .lines()
            .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
            .unwrap();
        list.trim().parse().expect("pinned to exactly one CPU")
    }

    #[test]
    fn pins_this_thread_spreads_named_workers_and_visits_other_cpus() {
        // Run on a scratch thread so the test harness's own threads keep
        // their affinity.
        std::thread::spawn(|| {
            let mut calls = 0;
            let Some(home) = pin_to_fastest_cpu(|| {
                calls += 1;
                calls as f64 // the first candidate scores best
            }) else {
                return; // a sandbox that forbids it: nothing to check
            };
            assert!(calls >= 1);
            assert_eq!(my_cpu(), home);
            assert_eq!(cpus(1), [home]);
            let child = std::thread::spawn(my_cpu).join().unwrap();
            assert_eq!(child, home, "spawned threads inherit the pin");

            // Two workers under one name get a CPU each; a thread under
            // another name stays at home. They look once `spread` is done.
            let names = ["pin-test-worker", "pin-test-worker", "other"];
            let placed = Arc::new(Barrier::new(names.len() + 1));
            let handles = spread("pin-test-worker", 2, || {
                names.map(|name| {
                    let placed = Arc::clone(&placed);
                    std::thread::Builder::new()
                        .name(name.to_string())
                        .spawn(move || {
                            placed.wait();
                            my_cpu()
                        })
                        .unwrap()
                })
            });
            placed.wait();
            let got = handles.map(|h| h.join().unwrap());
            let other = *cpus(2).last().unwrap();
            assert_eq!(got, [home, other, home]);

            for &cpu in cpus(usize::MAX) {
                assert_eq!(on_cpu(cpu, my_cpu), cpu);
                assert_eq!(my_cpu(), home);
            }
        })
        .join()
        .unwrap();
    }
}
