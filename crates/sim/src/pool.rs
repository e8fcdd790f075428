//! Persistent host worker pool that executes kernel lanes.
//!
//! Kernel launches are frequent (a GPMA+ batch issues dozens), so spawning OS
//! threads per launch would dominate runtime. Instead each [`crate::Device`]
//! owns one pool whose workers live as long as the device. Jobs carry a
//! lifetime-erased reference to the launch closure; [`Pool::run`] blocks until
//! every job acknowledged completion, which is what makes the erasure sound.

use crossbeam::channel::{bounded, unbounded, Receiver, Sender};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::thread::JoinHandle;

type Task = dyn Fn(usize, usize) + Sync;

/// A `&'static` view of a launch closure. Constructed only inside
/// [`Pool::run`], which joins all jobs before returning, so the reference
/// never outlives the closure it points at.
#[derive(Clone, Copy)]
struct TaskRef(&'static Task);

// SAFETY: the pointee is `Sync`, so sharing the reference across worker
// threads is sound; the lifetime is enforced dynamically by `Pool::run`.
unsafe impl Send for TaskRef {}

struct Job {
    task: TaskRef,
    start: usize,
    end: usize,
    done: Sender<Result<(), String>>,
}

enum Msg {
    Job(Job),
    Shutdown,
}

pub(crate) struct Pool {
    tx: Sender<Msg>,
    workers: Vec<JoinHandle<()>>,
    pub(crate) size: usize,
}

impl Pool {
    /// Create a pool with `size` workers. `size <= 1` creates no threads;
    /// jobs then run inline on the caller.
    pub(crate) fn new(size: usize) -> Self {
        if size <= 1 {
            let (tx, _rx) = unbounded();
            return Pool {
                tx,
                workers: Vec::new(),
                size: 1,
            };
        }
        let (tx, rx): (Sender<Msg>, Receiver<Msg>) = unbounded();
        let workers = (0..size)
            .map(|w| {
                let rx = rx.clone();
                std::thread::Builder::new()
                    .name(format!("gpma-sim-worker-{w}"))
                    .spawn(move || worker_loop(rx))
                    .expect("spawn sim worker")
            })
            .collect();
        Pool { tx, workers, size }
    }

    /// Whether jobs run inline on the caller (no worker threads).
    pub(crate) fn is_inline(&self) -> bool {
        self.workers.is_empty()
    }

    /// Execute `f` over each `(start, end)` range, in parallel when workers
    /// exist. Blocks until all ranges complete; propagates worker panics.
    pub(crate) fn run<F>(&self, ranges: &[(usize, usize)], f: &F)
    where
        F: Fn(usize, usize) + Sync,
    {
        if self.is_inline() || ranges.len() == 1 {
            for &(s, e) in ranges {
                f(s, e);
            }
            return;
        }
        let task: &(dyn Fn(usize, usize) + Sync + '_) = f;
        // SAFETY: lifetime erasure justified because this function does not
        // return until every job has reported completion below.
        let task: TaskRef = TaskRef(unsafe {
            std::mem::transmute::<&(dyn Fn(usize, usize) + Sync + '_), &'static Task>(task)
        });
        let (done_tx, done_rx) = bounded(ranges.len());
        for &(start, end) in ranges {
            self.tx
                .send(Msg::Job(Job {
                    task,
                    start,
                    end,
                    done: done_tx.clone(),
                }))
                .expect("sim pool send");
        }
        drop(done_tx);
        let mut panic_msg = None;
        for _ in 0..ranges.len() {
            match done_rx.recv().expect("sim pool recv") {
                Ok(()) => {}
                Err(msg) => panic_msg = Some(msg),
            }
        }
        if let Some(msg) = panic_msg {
            panic!("kernel lane panicked: {msg}");
        }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        for _ in &self.workers {
            let _ = self.tx.send(Msg::Shutdown);
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

fn worker_loop(rx: Receiver<Msg>) {
    while let Ok(msg) = rx.recv() {
        match msg {
            Msg::Shutdown => break,
            Msg::Job(job) => {
                let result = catch_unwind(AssertUnwindSafe(|| (job.task.0)(job.start, job.end)))
                    .map_err(|e| panic_payload(&e));
                // The launch side may have bailed already on a previous
                // panic; ignore send failure.
                let _ = job.done.send(result);
            }
        }
    }
}

fn panic_payload(e: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = e.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = e.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn runs_all_ranges_in_parallel() {
        let pool = Pool::new(4);
        let sum = AtomicUsize::new(0);
        let ranges: Vec<(usize, usize)> = (0..16).map(|i| (i * 10, (i + 1) * 10)).collect();
        pool.run(&ranges, &|s, e| {
            sum.fetch_add((s..e).sum::<usize>(), Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), (0..160).sum::<usize>());
    }

    #[test]
    fn inline_mode_without_workers() {
        let pool = Pool::new(1);
        assert!(pool.workers.is_empty());
        let sum = AtomicUsize::new(0);
        pool.run(&[(0, 5), (5, 10)], &|s, e| {
            sum.fetch_add(e - s, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 10);
    }

    #[test]
    #[should_panic(expected = "kernel lane panicked")]
    fn worker_panic_propagates() {
        let pool = Pool::new(2);
        pool.run(&[(0, 1), (1, 2)], &|s, _| {
            if s == 1 {
                panic!("boom");
            }
        });
    }

    #[test]
    fn pool_survives_many_rounds() {
        let pool = Pool::new(3);
        for round in 0..100 {
            let count = AtomicUsize::new(0);
            let ranges: Vec<(usize, usize)> = (0..7).map(|i| (i, i + 1)).collect();
            pool.run(&ranges, &|_, _| {
                count.fetch_add(1, Ordering::Relaxed);
            });
            assert_eq!(count.load(Ordering::Relaxed), 7, "round {round}");
        }
    }
}
