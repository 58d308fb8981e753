//! Job lifecycle bookkeeping shared between connection handlers and the
//! worker pool.
//!
//! A job moves `Queued → Running → Done`; the terminal state carries a
//! [`JobOutcome`]. The table owns each job's [`CancelToken`], so both the
//! `cancel` verb (any connection) and the worker's deadline arming act on
//! the same token the engine polls at pass boundaries.
//!
//! Completed entries are retained for the daemon's lifetime so `status`
//! and `wait` stay answerable after completion; the table grows with the
//! number of *accepted* jobs, which admission control already bounds per
//! unit time.

use crate::wire::SubmitRequest;
use prop_core::CancelToken;
use std::collections::HashMap;
use std::sync::{Condvar, Mutex};

/// Where a job is in its lifecycle.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum JobPhase {
    /// Admitted, waiting for a worker.
    Queued,
    /// Claimed by a worker.
    Running,
    /// Terminal; a [`JobOutcome`] is available.
    Done,
}

impl JobPhase {
    /// Wire name (`queued` / `running` / `done`).
    pub fn name(self) -> &'static str {
        match self {
            JobPhase::Queued => "queued",
            JobPhase::Running => "running",
            JobPhase::Done => "done",
        }
    }
}

/// How a job ended.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum JobStatus {
    /// Ran to completion.
    Completed,
    /// Stopped early by an explicit `cancel`; the outcome still carries
    /// the best feasible partition found before the stop.
    Cancelled,
    /// Stopped early by its `timeout_ms` deadline; like a cancel, the
    /// partial result is feasible and usable.
    TimedOut,
    /// The engine returned an error (or a worker panic was contained).
    Failed,
}

impl JobStatus {
    /// Wire name (`completed` / `cancelled` / `timed_out` / `failed`).
    pub fn name(self) -> &'static str {
        match self {
            JobStatus::Completed => "completed",
            JobStatus::Cancelled => "cancelled",
            JobStatus::TimedOut => "timed_out",
            JobStatus::Failed => "failed",
        }
    }
}

/// The terminal record of a job.
#[derive(Clone, PartialEq, Debug)]
pub struct JobOutcome {
    /// How the job ended.
    pub status: JobStatus,
    /// Typed refusal code when `status == Failed` because the engine
    /// cannot take the netlist (`unsupported_input`); `None` otherwise.
    pub code: Option<&'static str>,
    /// Failure message when `status == Failed`.
    pub error: Option<String>,
    /// Best cut cost found (absent on failure).
    pub cut: Option<f64>,
    /// Side-A / side-B node counts.
    pub sides: (usize, usize),
    /// Total engine passes across runs.
    pub passes: usize,
    /// Final cut of each completed run, in run order (the seed
    /// trajectory: run `r` used `seed + r`).
    pub run_cuts: Vec<f64>,
    /// FNV-1a 64 hash of the node→side assignment.
    pub assignment_hash: Option<u64>,
    /// Multi-start runs actually started before any early stop.
    pub started_runs: usize,
    /// Worker wall-clock for the job, in milliseconds.
    pub wall_ms: u64,
    /// Part count of a k-way job; `None` for the classic bipartition
    /// path (which reports through `sides`).
    pub k: Option<usize>,
    /// Per-part node weights of a k-way job, in part order.
    pub part_weights: Vec<f64>,
    /// Connectivity (λ − 1) objective of a k-way job; `cut` carries the
    /// hyperedge-cut objective.
    pub connectivity: Option<f64>,
}

impl JobOutcome {
    /// A `Failed` outcome carrying only an error message.
    pub fn failed(message: impl Into<String>, wall_ms: u64) -> Self {
        JobOutcome {
            status: JobStatus::Failed,
            code: None,
            error: Some(message.into()),
            cut: None,
            sides: (0, 0),
            passes: 0,
            run_cuts: Vec::new(),
            assignment_hash: None,
            started_runs: 0,
            wall_ms,
            k: None,
            part_weights: Vec::new(),
            connectivity: None,
        }
    }
}

/// A point-in-time view of one job, as returned to clients.
#[derive(Clone, PartialEq, Debug)]
pub struct JobView {
    /// Lifecycle phase.
    pub phase: JobPhase,
    /// Whether an explicit `cancel` was requested.
    pub cancel_requested: bool,
    /// The terminal record, once `phase == Done`.
    pub outcome: Option<JobOutcome>,
}

struct JobEntry {
    token: CancelToken,
    cancel_requested: bool,
    phase: JobPhase,
    work: Option<SubmitRequest>,
    outcome: Option<JobOutcome>,
}

/// The shared job registry: id allocation, work hand-off, cancellation,
/// and completion signalling.
pub struct JobTable {
    state: Mutex<Inner>,
    done: Condvar,
}

struct Inner {
    next_id: u64,
    jobs: HashMap<u64, JobEntry>,
}

impl Default for JobTable {
    fn default() -> Self {
        Self::new()
    }
}

impl JobTable {
    /// An empty table; ids start at 1.
    pub fn new() -> Self {
        JobTable {
            state: Mutex::new(Inner {
                next_id: 1,
                jobs: HashMap::new(),
            }),
            done: Condvar::new(),
        }
    }

    /// Registers a new queued job and returns its id.
    pub fn insert(&self, work: SubmitRequest) -> u64 {
        let mut state = self.state.lock().expect("job table lock");
        let id = state.next_id;
        state.next_id += 1;
        state.jobs.insert(
            id,
            JobEntry {
                token: CancelToken::new(),
                cancel_requested: false,
                phase: JobPhase::Queued,
                work: Some(work),
                outcome: None,
            },
        );
        id
    }

    /// Allocates an id from the shared namespace without inserting an
    /// entry. The coordinator's batches live in their own table but
    /// draw ids here, so `status`/`wait`/`cancel`/`watch` address jobs
    /// and batches through one number space with no collisions.
    pub fn reserve(&self) -> u64 {
        let mut state = self.state.lock().expect("job table lock");
        let id = state.next_id;
        state.next_id += 1;
        id
    }

    /// Claims a queued job for a worker: marks it `Running` and hands
    /// back its payload plus the cancellation token to install. `None`
    /// if the id is unknown or already claimed.
    pub fn take_work(&self, id: u64) -> Option<(SubmitRequest, CancelToken)> {
        let mut state = self.state.lock().expect("job table lock");
        let entry = state.jobs.get_mut(&id)?;
        let work = entry.work.take()?;
        entry.phase = JobPhase::Running;
        Some((work, entry.token.clone()))
    }

    /// Records a job's terminal outcome and wakes `wait`ers.
    pub fn finish(&self, id: u64, outcome: JobOutcome) {
        let mut state = self.state.lock().expect("job table lock");
        if let Some(entry) = state.jobs.get_mut(&id) {
            entry.phase = JobPhase::Done;
            entry.outcome = Some(outcome);
        }
        drop(state);
        self.done.notify_all();
    }

    /// Removes a job that was never admitted to the queue (its submit
    /// was rejected), so rejected bursts don't grow the table.
    pub fn forget(&self, id: u64) {
        let mut state = self.state.lock().expect("job table lock");
        state.jobs.remove(&id);
    }

    /// Trips the job's cancellation token. Returns `false` for unknown
    /// ids; `true` otherwise (idempotent, including on finished jobs).
    pub fn cancel(&self, id: u64) -> bool {
        let mut state = self.state.lock().expect("job table lock");
        match state.jobs.get_mut(&id) {
            Some(entry) => {
                entry.cancel_requested = true;
                entry.token.cancel();
                true
            }
            None => false,
        }
    }

    /// Whether an explicit `cancel` hit this job (distinguishes a
    /// tripped token's `Cancelled` from a deadline's `TimedOut`).
    pub fn cancel_requested(&self, id: u64) -> bool {
        let state = self.state.lock().expect("job table lock");
        state.jobs.get(&id).is_some_and(|e| e.cancel_requested)
    }

    /// A point-in-time view of the job; `None` for unknown ids.
    pub fn view(&self, id: u64) -> Option<JobView> {
        let state = self.state.lock().expect("job table lock");
        state.jobs.get(&id).map(|e| JobView {
            phase: e.phase,
            cancel_requested: e.cancel_requested,
            outcome: e.outcome.clone(),
        })
    }

    /// Blocks until the job is `Done` and returns its final view;
    /// `None` for unknown ids.
    pub fn wait(&self, id: u64) -> Option<JobView> {
        let mut state = self.state.lock().expect("job table lock");
        loop {
            match state.jobs.get(&id) {
                None => return None,
                Some(e) if e.phase == JobPhase::Done => {
                    return Some(JobView {
                        phase: e.phase,
                        cancel_requested: e.cancel_requested,
                        outcome: e.outcome.clone(),
                    })
                }
                Some(_) => state = self.done.wait(state).expect("job table lock"),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    fn submit() -> SubmitRequest {
        SubmitRequest {
            payload: "2 2\n1 2\n1 2\n".into(),
            ..SubmitRequest::default()
        }
    }

    #[test]
    fn lifecycle_queued_running_done() {
        let table = JobTable::new();
        let id = table.insert(submit());
        assert_eq!(table.view(id).unwrap().phase, JobPhase::Queued);

        let (work, token) = table.take_work(id).unwrap();
        assert_eq!(work, submit());
        assert!(!token.is_cancelled());
        assert_eq!(table.view(id).unwrap().phase, JobPhase::Running);
        // A second claim finds no payload.
        assert!(table.take_work(id).is_none());

        table.finish(id, JobOutcome::failed("x", 1));
        let view = table.view(id).unwrap();
        assert_eq!(view.phase, JobPhase::Done);
        assert_eq!(view.outcome.unwrap().status, JobStatus::Failed);
    }

    #[test]
    fn cancel_trips_the_worker_visible_token() {
        let table = JobTable::new();
        let id = table.insert(submit());
        let (_, token) = table.take_work(id).unwrap();
        assert!(table.cancel(id));
        assert!(token.is_cancelled());
        assert!(table.cancel_requested(id));
        assert!(!table.cancel(999));
    }

    #[test]
    fn wait_blocks_until_finish() {
        let table = Arc::new(JobTable::new());
        let id = table.insert(submit());
        let waiter = {
            let table = Arc::clone(&table);
            thread::spawn(move || table.wait(id))
        };
        thread::sleep(std::time::Duration::from_millis(20));
        table.finish(id, JobOutcome::failed("done", 3));
        let view = waiter.join().unwrap().unwrap();
        assert_eq!(view.phase, JobPhase::Done);
        assert_eq!(view.outcome.unwrap().wall_ms, 3);
        assert_eq!(table.wait(424_242), None);
    }

    #[test]
    fn ids_are_unique_and_monotone() {
        let table = JobTable::new();
        let a = table.insert(submit());
        let b = table.insert(submit());
        assert!(b > a);
        // Reserved ids share the namespace but own no entry.
        let r = table.reserve();
        assert!(r > b);
        assert!(table.view(r).is_none());
        assert!(table.insert(submit()) > r);
    }
}
