//! The deterministic scheduler.
//!
//! Model threads are real OS threads, but at most one runs at a time: every
//! shared-memory operation funnels through `Scheduler::yield_point`,
//! which hands the single "turn" to the thread chosen by the current
//! schedule. A schedule is the sequence of choices made at *branch points*
//! (yield points where more than one thread is runnable); the explorer in
//! [`super::Config::explore`] replays a chosen prefix and extends it
//! depth-first, which makes runs exactly reproducible.
//!
//! Failure handling never panics across the scheduler: invariant
//! violations, detected data races, replay divergence, and deadlocks all
//! record a message and flip `aborting`, after which every yield point
//! becomes a no-op and all threads free-run (serialized only by the plain
//! mutexes inside the model primitives) to termination, so a failing run
//! still joins cleanly.

use super::sync::{Ord, VClock};
use std::cell::RefCell;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

thread_local! {
    static CTX: RefCell<Option<(Arc<Scheduler>, usize)>> = const { RefCell::new(None) };
}

/// Runs `f` with the current model context. Panics outside a model run.
pub(crate) fn with_ctx<R>(f: impl FnOnce(&Arc<Scheduler>, usize) -> R) -> R {
    CTX.with(|c| {
        let b = c.borrow();
        // Invariant: model primitives are only constructed/used inside a
        // loomlite model body, which installs the context.
        let (s, t) = b.as_ref().expect("loomlite primitive used outside a model run");
        f(s, *t)
    })
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Status {
    Runnable,
    BlockedJoin(usize),
    /// In a spin-wait: not runnable until another thread writes an atomic.
    Spinning,
    Finished,
}

struct ThreadInfo {
    status: Status,
    clock: VClock,
}

struct AtomicMeta {
    value: u64,
    sync: VClock,
}

struct CellMeta {
    label: &'static str,
    last_write: Option<(usize, VClock)>,
    reads_since_write: Vec<(usize, VClock)>,
}

struct MutexMeta {
    sync: VClock,
}

/// A branch point discovered past the replayed prefix.
#[derive(Debug, Clone)]
pub(crate) struct PathEntry {
    /// Thread chosen at this branch point.
    pub chosen: usize,
    /// Unexplored alternatives, each within the preemption budget.
    pub alts: Vec<usize>,
}

struct SchedState {
    threads: Vec<ThreadInfo>,
    current: usize,
    /// Index of the next branch point (forced moves don't count).
    step: usize,
    replay: Vec<usize>,
    fresh: Vec<PathEntry>,
    trace: Vec<usize>,
    preemptions: usize,
    bound: usize,
    failures: Vec<String>,
    aborting: bool,
    atomics: Vec<AtomicMeta>,
    cells: Vec<CellMeta>,
    mutexes: Vec<MutexMeta>,
    real_handles: Vec<std::thread::JoinHandle<()>>,
}

impl SchedState {
    /// An atomic changed: every spin-waiting thread may look again.
    fn wake_spinners(&mut self) {
        for t in &mut self.threads {
            if t.status == Status::Spinning {
                t.status = Status::Runnable;
            }
        }
    }
}

/// The per-run deterministic scheduler. See the module docs.
pub struct Scheduler {
    state: Mutex<SchedState>,
    cv: Condvar,
}

/// Everything the explorer needs from one completed run.
pub(crate) struct RunOutcome {
    pub fresh: Vec<PathEntry>,
    pub trace: Vec<usize>,
    pub failures: Vec<String>,
}

impl Scheduler {
    pub(crate) fn new(bound: usize, replay: Vec<usize>) -> Arc<Self> {
        Arc::new(Scheduler {
            state: Mutex::new(SchedState {
                threads: vec![ThreadInfo {
                    status: Status::Runnable,
                    clock: {
                        let mut c = VClock::default();
                        c.inc(0);
                        c
                    },
                }],
                current: 0,
                step: 0,
                replay,
                fresh: Vec::new(),
                trace: Vec::new(),
                preemptions: 0,
                bound,
                failures: Vec::new(),
                aborting: false,
                atomics: Vec::new(),
                cells: Vec::new(),
                mutexes: Vec::new(),
                real_handles: Vec::new(),
            }),
            cv: Condvar::new(),
        })
    }

    fn lock(&self) -> MutexGuard<'_, SchedState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Launches the model body as thread 0 of this scheduler.
    pub(crate) fn start(self: &Arc<Self>, body: Arc<dyn Fn() + Send + Sync>) {
        let sched = Arc::clone(self);
        let h = std::thread::spawn(move || {
            CTX.with(|c| *c.borrow_mut() = Some((Arc::clone(&sched), 0)));
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body()));
            if let Err(p) = result {
                sched.record_failure(0, &format!("model thread 0 panicked: {}", panic_msg(&p)));
            }
            sched.finish_thread(0);
            CTX.with(|c| *c.borrow_mut() = None);
        });
        self.lock().real_handles.push(h);
    }

    /// Waits for every model thread to terminate and returns the outcome.
    pub(crate) fn wait(self: &Arc<Self>) -> RunOutcome {
        loop {
            let h = {
                let mut st = self.lock();
                st.real_handles.pop()
            };
            match h {
                Some(h) => {
                    if h.join().is_err() {
                        // The wrapper catches panics; reaching here means the
                        // TLS teardown itself failed, which we surface too.
                        self.lock()
                            .failures
                            .push("model thread terminated abnormally".into());
                    }
                }
                None => break,
            }
        }
        let st = self.lock();
        RunOutcome {
            fresh: st.fresh.clone(),
            trace: st.trace.clone(),
            failures: st.failures.clone(),
        }
    }

    /// Records a failure and aborts the run (all threads free-run to exit).
    pub(crate) fn record_failure(&self, tid: usize, msg: &str) {
        let mut st = self.lock();
        let note = format!("[thread {tid}] {msg}");
        st.failures.push(note);
        st.aborting = true;
        drop(st);
        self.cv.notify_all();
    }

    /// Spawns a model thread; returns its tid. The child inherits the
    /// parent's clock (spawn is a happens-before edge) and becomes runnable
    /// at the next branch point (spawn itself yields).
    pub(crate) fn spawn_thread(
        self: &Arc<Self>,
        parent: usize,
        f: Box<dyn FnOnce() + Send>,
    ) -> usize {
        let tid = {
            let mut st = self.lock();
            let mut clock = st.threads[parent].clock.clone();
            let tid = st.threads.len();
            clock.inc(tid);
            st.threads.push(ThreadInfo {
                status: Status::Runnable,
                clock,
            });
            tid
        };
        let sched = Arc::clone(self);
        let h = std::thread::spawn(move || {
            CTX.with(|c| *c.borrow_mut() = Some((Arc::clone(&sched), tid)));
            sched.wait_for_turn(tid);
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
            if let Err(p) = result {
                sched.record_failure(tid, &format!("panicked: {}", panic_msg(&p)));
            }
            sched.finish_thread(tid);
            CTX.with(|c| *c.borrow_mut() = None);
        });
        self.lock().real_handles.push(h);
        // Decision point: the child may be scheduled before the parent
        // continues.
        self.yield_point(parent);
        tid
    }

    /// Blocks the caller until `child` finishes, then joins its clock.
    pub(crate) fn join_thread(&self, child: usize, tid: usize) {
        loop {
            let mut st = self.lock();
            if st.aborting {
                return;
            }
            if st.threads[child].status == Status::Finished {
                let child_clock = st.threads[child].clock.clone();
                st.threads[tid].clock.join(&child_clock);
                return;
            }
            st.threads[tid].status = Status::BlockedJoin(child);
            self.schedule(&mut st, tid);
            drop(st);
            self.cv.notify_all();
            self.wait_for_turn(tid);
        }
    }

    /// One turn of a spin-wait loop whose condition the caller has just found
    /// false: the thread is not scheduled again until another thread has
    /// written an atomic (nothing else can change what it is waiting for),
    /// and leaving it is not a preemption. If every unfinished thread ends up
    /// here, or blocked in a join, the run fails as a deadlock. Returns false
    /// when the run is aborting: the caller must stop waiting.
    pub(crate) fn spin_wait(&self, tid: usize) -> bool {
        let mut st = self.lock();
        if st.aborting {
            return false;
        }
        st.threads[tid].status = Status::Spinning;
        self.schedule(&mut st, tid);
        drop(st);
        self.cv.notify_all();
        self.wait_for_turn(tid);
        !self.lock().aborting
    }

    fn finish_thread(&self, tid: usize) {
        let mut st = self.lock();
        st.threads[tid].status = Status::Finished;
        for t in 0..st.threads.len() {
            if st.threads[t].status == Status::BlockedJoin(tid) {
                st.threads[t].status = Status::Runnable;
            }
        }
        if !st.aborting {
            self.schedule(&mut st, tid);
        }
        drop(st);
        self.cv.notify_all();
    }

    fn wait_for_turn(&self, tid: usize) {
        let mut st = self.lock();
        while st.current != tid && !st.aborting {
            st = self
                .cv
                .wait(st)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// One yield point: possibly hand the turn to another thread.
    pub(crate) fn yield_point(&self, tid: usize) {
        let mut st = self.lock();
        if st.aborting {
            return;
        }
        debug_assert_eq!(st.current, tid, "yield from a non-current thread");
        st.threads[tid].clock.inc(tid);
        self.schedule(&mut st, tid);
        let must_wait = st.current != tid && !st.aborting;
        drop(st);
        if must_wait {
            self.cv.notify_all();
            self.wait_for_turn(tid);
        }
    }

    /// Picks the next thread to run. `prev` is the thread giving up the
    /// turn (it may or may not still be runnable).
    fn schedule(&self, st: &mut SchedState, prev: usize) {
        if st.aborting {
            return;
        }
        let runnable: Vec<usize> = st
            .threads
            .iter()
            .enumerate()
            .filter(|(_, t)| t.status == Status::Runnable)
            .map(|(i, _)| i)
            .collect();
        if runnable.is_empty() {
            if st.threads.iter().all(|t| t.status == Status::Finished) {
                st.current = usize::MAX; // run complete
                return;
            }
            let blocked: Vec<String> = st
                .threads
                .iter()
                .enumerate()
                .filter(|(_, t)| t.status != Status::Finished)
                .map(|(i, t)| format!("thread {i} {:?}", t.status))
                .collect();
            st.failures
                .push(format!("deadlock: no runnable threads ({})", blocked.join(", ")));
            st.aborting = true;
            return;
        }
        let prev_runnable = runnable.contains(&prev);
        let chosen = if runnable.len() == 1 {
            runnable[0] // forced move: not a branch point
        } else {
            let step = st.step;
            st.step += 1;
            if step < st.replay.len() {
                let c = st.replay[step];
                if !runnable.contains(&c) {
                    st.failures.push(format!(
                        "schedule replay diverged at branch {step}: thread {c} not runnable"
                    ));
                    st.aborting = true;
                    return;
                }
                c
            } else {
                // Fresh branch point: default to continuing the current
                // thread (a context switch away from a runnable thread is a
                // preemption and costs budget).
                let default = if prev_runnable { prev } else { runnable[0] };
                let budget_left = st.preemptions < st.bound;
                let alts: Vec<usize> = runnable
                    .iter()
                    .copied()
                    .filter(|&t| t != default)
                    .filter(|_| !prev_runnable || budget_left)
                    .collect();
                st.fresh.push(PathEntry {
                    chosen: default,
                    alts,
                });
                default
            }
        };
        if runnable.len() > 1 {
            st.trace.push(chosen);
        }
        if prev_runnable && chosen != prev {
            st.preemptions += 1;
        }
        st.current = chosen;
    }

    // ---- model-primitive hooks -------------------------------------------

    pub(crate) fn register_atomic(&self, _label: &'static str, value: u64) -> usize {
        let mut st = self.lock();
        st.atomics.push(AtomicMeta {
            value,
            sync: VClock::default(),
        });
        st.atomics.len() - 1
    }

    pub(crate) fn register_cell(&self, label: &'static str) -> usize {
        let mut st = self.lock();
        st.cells.push(CellMeta {
            label,
            last_write: None,
            reads_since_write: Vec::new(),
        });
        st.cells.len() - 1
    }

    pub(crate) fn register_mutex(&self, _label: &'static str) -> usize {
        let mut st = self.lock();
        st.mutexes.push(MutexMeta {
            sync: VClock::default(),
        });
        st.mutexes.len() - 1
    }

    pub(crate) fn atomic_load(&self, id: usize, tid: usize, ord: Ord) -> u64 {
        self.yield_point(tid);
        let mut st = self.lock();
        if ord.acquires() {
            let sync = st.atomics[id].sync.clone();
            st.threads[tid].clock.join(&sync);
        }
        st.atomics[id].value
    }

    pub(crate) fn atomic_store(&self, id: usize, tid: usize, value: u64, ord: Ord) {
        self.yield_point(tid);
        let mut st = self.lock();
        if ord.releases() {
            st.atomics[id].sync = st.threads[tid].clock.clone();
        } else {
            // A plain relaxed store breaks the release sequence: a later
            // acquire load of this value synchronizes with nothing.
            st.atomics[id].sync = VClock::default();
        }
        st.atomics[id].value = value;
        st.wake_spinners();
    }

    pub(crate) fn atomic_rmw(
        &self,
        id: usize,
        tid: usize,
        ord: Ord,
        f: &mut dyn FnMut(u64) -> u64,
    ) -> u64 {
        self.yield_point(tid);
        let mut st = self.lock();
        if ord.acquires() {
            let sync = st.atomics[id].sync.clone();
            st.threads[tid].clock.join(&sync);
        }
        let prev = st.atomics[id].value;
        st.atomics[id].value = f(prev);
        st.wake_spinners();
        if ord.releases() {
            // An RMW continues the release sequence: join rather than reset.
            let clock = st.threads[tid].clock.clone();
            st.atomics[id].sync.join(&clock);
        }
        prev
    }

    pub(crate) fn atomic_cas(
        &self,
        id: usize,
        tid: usize,
        current: u64,
        new: u64,
        success: Ord,
        failure: Ord,
    ) -> Result<u64, u64> {
        self.yield_point(tid);
        let mut st = self.lock();
        let prev = st.atomics[id].value;
        if prev == current {
            if success.acquires() {
                let sync = st.atomics[id].sync.clone();
                st.threads[tid].clock.join(&sync);
            }
            st.atomics[id].value = new;
            st.wake_spinners();
            if success.releases() {
                let clock = st.threads[tid].clock.clone();
                st.atomics[id].sync.join(&clock);
            }
            Ok(prev)
        } else {
            if failure.acquires() {
                let sync = st.atomics[id].sync.clone();
                st.threads[tid].clock.join(&sync);
            }
            Err(prev)
        }
    }

    /// Race-checks a cell access; `write` selects write vs read semantics.
    pub(crate) fn cell_access(&self, id: usize, tid: usize, write: bool) {
        self.yield_point(tid);
        let mut st = self.lock();
        if st.aborting {
            return;
        }
        let me = st.threads[tid].clock.clone();
        let mut race: Option<String> = None;
        {
            let cell = &st.cells[id];
            if let Some((w, wclock)) = &cell.last_write {
                if *w != tid && !me.has_seen(*w, wclock) {
                    race = Some(format!(
                        "data race on cell `{}`: {} by thread {tid} not ordered after write by thread {w}",
                        cell.label,
                        if write { "write" } else { "read" },
                    ));
                }
            }
            if write && race.is_none() {
                for (r, rclock) in &cell.reads_since_write {
                    if *r != tid && !me.has_seen(*r, rclock) {
                        race = Some(format!(
                            "data race on cell `{}`: write by thread {tid} not ordered after read by thread {r}",
                            cell.label,
                        ));
                        break;
                    }
                }
            }
        }
        if let Some(msg) = race {
            st.failures.push(format!("[thread {tid}] {msg}"));
            st.aborting = true;
            drop(st);
            self.cv.notify_all();
            return;
        }
        let cell = &mut st.cells[id];
        if write {
            cell.last_write = Some((tid, me));
            cell.reads_since_write.clear();
        } else {
            cell.reads_since_write.push((tid, me));
        }
    }

    pub(crate) fn mutex_enter(&self, id: usize, tid: usize) {
        self.yield_point(tid);
        let mut st = self.lock();
        let sync = st.mutexes[id].sync.clone();
        st.threads[tid].clock.join(&sync);
    }

    pub(crate) fn mutex_exit(&self, id: usize, tid: usize) {
        let mut st = self.lock();
        st.mutexes[id].sync = st.threads[tid].clock.clone();
    }
}

fn panic_msg(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}
