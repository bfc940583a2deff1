//! Work-stealing task scheduling on scoped threads.
//!
//! A [`Scheduler`] runs *dependency-counted tasks* from a [`DepGraph`] on a
//! work-stealing substrate — an injector queue plus one deque per worker;
//! owners pop their own deque LIFO (locality), thieves steal FIFO (oldest,
//! likely largest, work) — so a worker only waits when the whole frontier
//! is empty. Tasks may borrow the run's data ([`Scheduler::run`] uses
//! [`std::thread::scope`]); the Monte Carlo trials of [`crate::perturb`]
//! run on it.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};
use std::time::Instant;

use tels_metrics::instruments as metrics;

/// Dependency bookkeeping for a set of tasks identified by dense `u32`
/// indices: each task holds a count of unfinished prerequisites and a list
/// of dependents to release on completion.
///
/// The graph itself is not thread-safe; the [`Scheduler`] guards it with
/// its own lock.
#[derive(Debug, Default)]
pub struct DepGraph {
    /// Unfinished-prerequisite count per task.
    deps: Vec<usize>,
    /// Tasks released when the indexed task completes.
    dependents: Vec<Vec<u32>>,
}

impl DepGraph {
    /// A graph of `n` tasks with no edges.
    pub fn new(n: usize) -> DepGraph {
        DepGraph {
            deps: vec![0; n],
            dependents: vec![Vec::new(); n],
        }
    }

    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.deps.len()
    }

    /// Whether the graph holds no tasks.
    pub fn is_empty(&self) -> bool {
        self.deps.is_empty()
    }

    /// Requires `before` to complete before `after` may start. Duplicate
    /// edges are ignored; callers must not introduce cycles (a cycle
    /// deadlocks its member tasks — the scheduler runs every task
    /// whose dependencies resolve and then stops).
    pub fn add_edge(&mut self, before: u32, after: u32) {
        if before == after || self.dependents[before as usize].contains(&after) {
            return;
        }
        self.dependents[before as usize].push(after);
        self.deps[after as usize] += 1;
    }

    /// Tasks with no prerequisites, in index order.
    pub fn initial_ready(&self) -> Vec<u32> {
        (0..self.deps.len() as u32)
            .filter(|&t| self.deps[t as usize] == 0)
            .collect()
    }

    /// Marks a task complete, returning the tasks this newly releases.
    pub fn complete(&mut self, task: u32) -> Vec<u32> {
        let mut ready = Vec::new();
        let dependents = std::mem::take(&mut self.dependents[task as usize]);
        for d in dependents {
            self.deps[d as usize] -= 1;
            if self.deps[d as usize] == 0 {
                ready.push(d);
            }
        }
        ready
    }
}

/// Shared scheduler state: the dependency graph, the injector queue, and
/// the wakeup bookkeeping.
struct SchedState {
    graph: DepGraph,
    /// Tasks ready to run that no worker has claimed into a local deque.
    injector: VecDeque<u32>,
    /// Tasks not yet completed (including running ones).
    outstanding: usize,
    /// Bumped on every publish of new work; idle workers re-scan when it
    /// moves (the lost-wakeup guard for the condvar).
    version: u64,
}

/// A work-stealing scheduler over a [`DepGraph`], executed on scoped
/// threads: [`Scheduler::run`] blocks until every task has completed.
///
/// # Example
///
/// ```
/// use std::sync::atomic::{AtomicUsize, Ordering};
/// use tels_core::sched::{DepGraph, Scheduler};
///
/// let mut g = DepGraph::new(3);
/// g.add_edge(0, 2); // task 2 runs after 0
/// g.add_edge(1, 2); // ... and after 1
/// let done = AtomicUsize::new(0);
/// Scheduler::new(g).run(4, |_, task| {
///     if task == 2 {
///         assert_eq!(done.load(Ordering::SeqCst), 2);
///     }
///     done.fetch_add(1, Ordering::SeqCst);
/// });
/// assert_eq!(done.load(Ordering::SeqCst), 3);
/// ```
pub struct Scheduler {
    state: Mutex<SchedState>,
    work: Condvar,
}

impl Scheduler {
    /// Wraps a dependency graph for execution. Tasks that are initially
    /// dependency-free seed the injector in index order.
    pub fn new(graph: DepGraph) -> Scheduler {
        let injector: VecDeque<u32> = graph.initial_ready().into();
        let outstanding = graph.len();
        Scheduler {
            state: Mutex::new(SchedState {
                graph,
                injector,
                outstanding,
                version: 0,
            }),
            work: Condvar::new(),
        }
    }

    /// Bumps the work version and wakes idle workers (call after making
    /// new work visible in a deque or the injector).
    fn publish(&self) {
        self.state.lock().expect("scheduler state poisoned").version += 1;
        self.work.notify_all();
    }

    /// Runs every task on `threads` scoped workers, blocking until the
    /// graph is drained. The callback receives the worker index (in
    /// `0..threads`) and the task index; it runs exactly once per task, only after all the
    /// task's prerequisites completed.
    pub fn run<F>(&self, threads: usize, f: F)
    where
        F: Fn(usize, u32) + Sync,
    {
        let threads = threads.max(1);
        let locals: Vec<Mutex<VecDeque<u32>>> =
            (0..threads).map(|_| Mutex::new(VecDeque::new())).collect();
        std::thread::scope(|s| {
            for index in 0..threads {
                let (locals, f) = (&locals, &f);
                s.spawn(move || self.worker_loop(index, locals, f));
            }
        });
    }

    fn worker_loop<F>(&self, index: usize, locals: &[Mutex<VecDeque<u32>>], f: &F)
    where
        F: Fn(usize, u32) + Sync,
    {
        loop {
            match self.find_task(index, locals) {
                Some(task) => {
                    let t0 = tels_metrics::enabled().then(Instant::now);
                    f(index, task);
                    self.finish(task, &locals[index]);
                    metrics::SCHED_TASKS.inc(index);
                    if let Some(t0) = t0 {
                        metrics::SCHED_BUSY_NS.add(index, t0.elapsed().as_nanos() as u64);
                    }
                }
                None => {
                    metrics::SCHED_STEAL_FAILS.inc(index);
                    let t0 = tels_metrics::enabled().then(Instant::now);
                    let more = self.park();
                    if let Some(t0) = t0 {
                        metrics::SCHED_IDLE_NS.add(index, t0.elapsed().as_nanos() as u64);
                    }
                    if !more {
                        return; // graph drained
                    }
                }
            }
        }
    }

    /// Blocks until new work is published or the graph drains. Returns
    /// `false` when drained. Never sleeps while the injector is non-empty
    /// (work could otherwise arrive between a worker's deque scan and its
    /// wait, with nobody left awake to claim it).
    fn park(&self) -> bool {
        let mut st = self.state.lock().expect("scheduler state poisoned");
        loop {
            if st.outstanding == 0 {
                // Drained: wake any parked peers so they exit too.
                self.work.notify_all();
                return false;
            }
            if !st.injector.is_empty() {
                return true;
            }
            let seen = st.version;
            st = self.work.wait(st).expect("scheduler state poisoned");
            if st.version != seen {
                return true;
            }
        }
    }

    /// Claims one ready task: own deque back (LIFO), then the injector,
    /// then steal from peers front (FIFO).
    fn find_task(&self, index: usize, locals: &[Mutex<VecDeque<u32>>]) -> Option<u32> {
        if let Some(t) = locals[index]
            .lock()
            .expect("worker deque poisoned")
            .pop_back()
        {
            return Some(t);
        }
        if let Some(t) = self
            .state
            .lock()
            .expect("scheduler state poisoned")
            .injector
            .pop_front()
        {
            return Some(t);
        }
        for off in 1..locals.len() {
            let victim = (index + off) % locals.len();
            if let Some(t) = locals[victim]
                .lock()
                .expect("worker deque poisoned")
                .pop_front()
            {
                metrics::SCHED_STEALS.inc(index);
                return Some(t);
            }
        }
        None
    }

    /// Completes a task: releases its dependents onto the finishing
    /// worker's deque and wakes idle workers.
    fn finish(&self, task: u32, local: &Mutex<VecDeque<u32>>) {
        let ready = {
            let mut st = self.state.lock().expect("scheduler state poisoned");
            st.outstanding -= 1;
            st.graph.complete(task)
        };
        if !ready.is_empty() {
            local
                .lock()
                .expect("worker deque poisoned")
                .extend(ready.iter().copied());
        }
        // Publish even when nothing became ready: an idle worker may be
        // waiting solely for `outstanding` to reach zero.
        self.publish();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn dep_graph_release_order() {
        let mut g = DepGraph::new(4);
        g.add_edge(0, 2);
        g.add_edge(1, 2);
        g.add_edge(2, 3);
        g.add_edge(0, 2); // duplicate is ignored
        assert_eq!(g.initial_ready(), vec![0, 1]);
        assert_eq!(g.complete(0), Vec::<u32>::new());
        assert_eq!(g.complete(1), vec![2]);
        assert_eq!(g.complete(2), vec![3]);
    }

    #[test]
    fn scheduler_respects_dependencies() {
        // A diamond per column, 64 columns: every task records its finish
        // position; dependents must finish after their prerequisites.
        let n = 64;
        let mut g = DepGraph::new(4 * n);
        for c in 0..n as u32 {
            let (a, b1, b2, d) = (4 * c, 4 * c + 1, 4 * c + 2, 4 * c + 3);
            g.add_edge(a, b1);
            g.add_edge(a, b2);
            g.add_edge(b1, d);
            g.add_edge(b2, d);
        }
        let clock = AtomicUsize::new(0);
        let stamp: Vec<AtomicUsize> = (0..4 * n).map(|_| AtomicUsize::new(0)).collect();
        Scheduler::new(g).run(4, |_, t| {
            stamp[t as usize].store(clock.fetch_add(1, Ordering::SeqCst) + 1, Ordering::SeqCst);
        });
        for c in 0..n {
            let s = |i: usize| stamp[4 * c + i].load(Ordering::SeqCst);
            assert!(s(0) != 0 && s(3) != 0, "every task ran");
            assert!(s(0) < s(1) && s(0) < s(2), "root before branches");
            assert!(s(1) < s(3) && s(2) < s(3), "branches before join");
        }
    }

    #[test]
    fn scheduler_single_thread_and_empty() {
        let ran = AtomicUsize::new(0);
        Scheduler::new(DepGraph::new(5)).run(1, |_, _| {
            ran.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(ran.load(Ordering::SeqCst), 5);
        Scheduler::new(DepGraph::new(0)).run(4, |_, _| unreachable!("no tasks"));
    }
}
