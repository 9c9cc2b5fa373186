//! Loom-lite deterministic interleaving model checker.
//!
//! The static audit in [`crate::concurrency`] checks that every atomic
//! site *declares* an ordering contract; this module checks that the
//! *protocols built from those sites* are actually correct, by
//! exhaustively exploring thread interleavings of small-bound models of
//! the hand-rolled primitives:
//!
//! - the `OnlineSelector` drift flip (generation bump published before
//!   the adaptive flag), and
//! - the ingress `submitted == served + shed` accounting identity with
//!   tenant hold/release, the queue-occupancy reservation and the
//!   dispatcher's chunk-level release.
//!
//! **How it explores.** CHESS-style stateless search: a model is a
//! deterministic function of a *decision tape*. Every nondeterministic
//! point — which runnable thread steps next, which visible write a load
//! observes — calls [`Trace::choose`], which replays a recorded
//! decision or records a new zero. After each complete execution the
//! explorer backtracks by incrementing the last decision that has
//! alternatives left and truncating the tape after it, re-running the
//! model from scratch.
//! The search is seed-free, fully deterministic, and exhaustive at the
//! configured bounds; a violation's counterexample *is* the tape.
//!
//! **Memory model.** Mutex-protected state takes coarse atomic critical
//! sections (sound for data races — interleavings inside a region the
//! lock serialises are invisible — while still catching protocol bugs:
//! check-then-act races, leaked slots). Atomics get an operational
//! release/acquire model ([`WeakMemory`]): each location keeps an
//! append-only write history; a `Release` write captures the
//! writer's view (per-location visibility floors); a load chooses *any*
//! write at or after the thread's floor, and an `Acquire` load of a
//! released write joins the writer's captured view. RMWs always read
//! the latest write (modification-order atomicity) and carry the read
//! write's view forward, modelling C++20 release sequences. `SeqCst`
//! is treated as `AcqRel`: the checker models coherence + RA
//! synchronisation, not the SC total order — none of the audited
//! protocols rely on it.
//!
//! **What the bounds prove.** Exhaustive at 2–4 threads and one or two
//! operations per thread: enough to exhibit every two-party ordering
//! bug seeded in the mutation suite (weakened `Release`, reordered
//! publication, late occupancy reservation, leaked tenant slot,
//! double-counted shed, a chunk released once per tenant), and small
//! enough to finish in well under a second. They are *not* a proof for
//! unbounded thread counts.
//!
//! [`self_check`] runs every faithful model (expecting a clean
//! exhaustive pass) and every seeded mutation (expecting the checker to
//! catch it); the `concurrency_audit` binary folds the rows into the
//! SARIF report, pinning the exact execution counts in the golden.

use crate::concurrency::ModelCheckRow;

/// One recorded nondeterministic decision.
#[derive(Debug, Clone)]
struct Decision {
    chosen: usize,
    limit: usize,
}

/// Replayable decision tape driving one execution of a model.
#[derive(Debug, Default)]
pub struct Trace {
    decisions: Vec<Decision>,
    cursor: usize,
}

impl Trace {
    /// Resolve a nondeterministic point with `n` alternatives,
    /// returning a value in `0..n`: the recorded decision during
    /// replay, `0` (and a new record) past the end of the tape.
    pub fn choose(&mut self, n: usize) -> usize {
        if n == 0 {
            return 0;
        }
        let idx = self.cursor;
        self.cursor += 1;
        match self.decisions.get(idx) {
            Some(d) => d.chosen.min(n - 1),
            None => {
                self.decisions.push(Decision {
                    chosen: 0,
                    limit: n,
                });
                0
            }
        }
    }

    fn tape(&self) -> Vec<usize> {
        self.decisions.iter().map(|d| d.chosen).collect()
    }
}

/// A completed exhaustive exploration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Exploration {
    /// Complete executions explored.
    pub executions: usize,
    /// Whether every schedule at the bounds was visited (`false` when
    /// the execution budget truncated the search).
    pub complete: bool,
}

/// A violating execution: the invariant message plus the decision tape
/// that reproduces it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterExample {
    /// What went wrong.
    pub message: String,
    /// The decision tape reproducing the violation.
    pub schedule: Vec<usize>,
}

impl std::fmt::Display for CounterExample {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} [schedule {:?}]", self.message, self.schedule)
    }
}

/// Exhaustive DFS over decision tapes.
#[derive(Debug, Clone, Copy)]
pub struct Explorer {
    /// Execution budget; exploration truncates (incomplete) beyond it.
    pub max_executions: usize,
}

impl Default for Explorer {
    fn default() -> Self {
        Explorer {
            max_executions: 2_000_000,
        }
    }
}

impl Explorer {
    /// Run `model` under every decision tape at the configured bounds.
    /// Returns the first violation found, or the exploration summary.
    pub fn explore(
        &self,
        mut model: impl FnMut(&mut Trace) -> Result<(), String>,
    ) -> Result<Exploration, CounterExample> {
        let mut prefix: Vec<Decision> = Vec::new();
        let mut executions = 0usize;
        loop {
            let mut trace = Trace {
                decisions: std::mem::take(&mut prefix),
                cursor: 0,
            };
            let outcome = model(&mut trace);
            executions += 1;
            if let Err(message) = outcome {
                return Err(CounterExample {
                    message,
                    schedule: trace.tape(),
                });
            }
            if executions >= self.max_executions {
                return Ok(Exploration {
                    executions,
                    complete: false,
                });
            }
            prefix = trace.decisions;
            loop {
                match prefix.last_mut() {
                    None => {
                        return Ok(Exploration {
                            executions,
                            complete: true,
                        })
                    }
                    Some(d) if d.chosen + 1 < d.limit => {
                        d.chosen += 1;
                        break;
                    }
                    Some(_) => {
                        prefix.pop();
                    }
                }
            }
        }
    }
}

/// Step bound per execution — a backstop against modelling bugs, far
/// above what any of the bundled models can reach.
const MAX_STEPS: usize = 512;

/// Drive a model's threads to completion under `trace`: at every step
/// one runnable (unfinished, enabled) thread is chosen and stepped.
/// All threads blocked but unfinished is a deadlock.
fn drive<S>(
    trace: &mut Trace,
    state: &mut S,
    threads: usize,
    finished: impl Fn(&S, usize) -> bool,
    enabled: impl Fn(&S, usize) -> bool,
    mut step: impl FnMut(&mut S, usize, &mut Trace) -> Result<(), String>,
) -> Result<(), String> {
    let mut steps = 0usize;
    loop {
        let mut runnable = Vec::with_capacity(threads);
        for t in 0..threads {
            if !finished(state, t) && enabled(state, t) {
                runnable.push(t);
            }
        }
        if runnable.is_empty() {
            if (0..threads).all(|t| finished(state, t)) {
                return Ok(());
            }
            let blocked: Vec<usize> = (0..threads).filter(|&t| !finished(state, t)).collect();
            return Err(format!("deadlock: threads {blocked:?} blocked forever"));
        }
        let pick = runnable[trace.choose(runnable.len()).min(runnable.len() - 1)];
        step(state, pick, trace)?;
        steps += 1;
        if steps > MAX_STEPS {
            return Err("step bound exceeded (livelock?)".to_string());
        }
    }
}

// ---------------------------------------------------------------------
// Operational release/acquire memory
// ---------------------------------------------------------------------

/// Memory ordering strength for [`WeakMemory`] operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ord {
    /// No synchronisation.
    Relaxed,
    /// Load half of a synchronises-with edge.
    Acquire,
    /// Store half of a synchronises-with edge.
    Release,
    /// Both halves (RMW).
    AcqRel,
}

impl Ord {
    fn acquires(self) -> bool {
        matches!(self, Ord::Acquire | Ord::AcqRel)
    }
    fn releases(self) -> bool {
        matches!(self, Ord::Release | Ord::AcqRel)
    }
}

#[derive(Debug, Clone)]
struct WriteRec {
    value: u64,
    /// Writer's visibility floors captured at a release write; carried
    /// along RMW chains (release sequences).
    view: Option<Vec<usize>>,
}

/// Append-only per-location write histories plus per-thread visibility
/// floors — an operational release/acquire memory model.
#[derive(Debug, Clone)]
pub struct WeakMemory {
    locs: Vec<Vec<WriteRec>>,
    /// `views[tid][loc]`: earliest write index this thread may observe.
    views: Vec<Vec<usize>>,
}

impl WeakMemory {
    /// `n_locs` zero-initialised locations shared by `n_threads`.
    pub fn new(n_locs: usize, n_threads: usize) -> WeakMemory {
        WeakMemory {
            locs: (0..n_locs)
                .map(|_| {
                    vec![WriteRec {
                        value: 0,
                        view: None,
                    }]
                })
                .collect(),
            views: (0..n_threads).map(|_| vec![0; n_locs]).collect(),
        }
    }

    fn join(view: &mut [usize], other: &[usize]) {
        for (v, &o) in view.iter_mut().zip(other) {
            *v = (*v).max(o);
        }
    }

    /// Load: observe any write at or after this thread's floor (the
    /// choice comes from `trace`); an acquire load of a released write
    /// joins the writer's view.
    pub fn load(&mut self, trace: &mut Trace, tid: usize, loc: usize, ord: Ord) -> u64 {
        let floor = self.views[tid][loc];
        let latest = self.locs[loc].len() - 1;
        let idx = floor + trace.choose(latest - floor + 1);
        let rec = self.locs[loc][idx].clone();
        if ord.acquires() {
            if let Some(view) = &rec.view {
                Self::join(&mut self.views[tid], view);
            }
        }
        self.views[tid][loc] = self.views[tid][loc].max(idx);
        rec.value
    }

    /// Store: append a new write; a release store captures this
    /// thread's view for later acquirers.
    pub fn store(&mut self, tid: usize, loc: usize, value: u64, ord: Ord) {
        let idx = self.locs[loc].len();
        self.views[tid][loc] = idx;
        let view = ord.releases().then(|| self.views[tid].clone());
        self.locs[loc].push(WriteRec { value, view });
    }

    /// Atomic read-modify-write: always reads the latest write
    /// (modification-order atomicity), acquires its view when `ord`
    /// acquires, and carries the read write's view into the new write
    /// regardless of `ord` (release sequences), additionally merging
    /// this thread's view when `ord` releases. Returns the old value.
    pub fn rmw(&mut self, tid: usize, loc: usize, f: impl Fn(u64) -> u64, ord: Ord) -> u64 {
        let latest = self.locs[loc].len() - 1;
        let rec = self.locs[loc][latest].clone();
        if ord.acquires() {
            if let Some(view) = &rec.view {
                Self::join(&mut self.views[tid], view);
            }
        }
        let idx = self.locs[loc].len();
        self.views[tid][loc] = idx;
        let own = ord.releases().then(|| self.views[tid].clone());
        let view = match (rec.view, own) {
            (None, None) => None,
            (Some(v), None) | (None, Some(v)) => Some(v),
            (Some(mut a), Some(b)) => {
                Self::join(&mut a, &b);
                Some(a)
            }
        };
        self.locs[loc].push(WriteRec {
            value: f(rec.value),
            view,
        });
        rec.value
    }

    /// The latest value in modification order (for final-state checks).
    pub fn latest(&self, loc: usize) -> u64 {
        self.locs[loc].last().map_or(0, |r| r.value)
    }
}

// ---------------------------------------------------------------------
// Models and mutations
// ---------------------------------------------------------------------

/// The modelled subsystems.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Model {
    /// OnlineSelector drift flip: generation bump before adaptive flag.
    Drift,
    /// Ingress `submitted == served + shed` with tenant hold/release,
    /// the queue-occupancy reservation and chunk-level release.
    Ingress,
}

impl Model {
    /// All models, in reporting order.
    pub const ALL: [Model; 2] = [Model::Drift, Model::Ingress];

    /// Stable name used in reports.
    pub fn name(&self) -> &'static str {
        match self {
            Model::Drift => "drift-publication",
            Model::Ingress => "ingress-accounting",
        }
    }
}

/// Seeded bugs the checker must catch — each is a deliberately broken
/// variant of one model, mirroring a real class of concurrency bug.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutation {
    /// Adaptive flag stored relaxed instead of release: readers see the
    /// flag without the generation bump it publishes.
    DriftRelaxedFlagStore,
    /// Adaptive flag flipped *before* the generation bump.
    DriftFlipBeforeBump,
    /// Queue-full shed path forgets to release the tenant slot.
    IngressLeakTenantOnShed,
    /// Shed path double-counts, breaking the accounting identity.
    IngressDoubleCountShed,
    /// The producer reserves its occupancy slot in a separate step
    /// after enqueueing, so the dispatcher can release it first. A real
    /// `AtomicUsize` wraps to `usize::MAX` and sheds every Batch
    /// request until the late increment lands.
    IngressReserveAfterSend,
    /// The dispatcher releases one slot per tenant per chunk instead of
    /// one per request: a tenant with two requests in one chunk keeps a
    /// slot forever and is eventually shed by its own quota.
    IngressReleaseOncePerChunk,
}

impl Mutation {
    /// All mutations, in reporting order.
    pub const ALL: [Mutation; 6] = [
        Mutation::DriftRelaxedFlagStore,
        Mutation::DriftFlipBeforeBump,
        Mutation::IngressLeakTenantOnShed,
        Mutation::IngressDoubleCountShed,
        Mutation::IngressReserveAfterSend,
        Mutation::IngressReleaseOncePerChunk,
    ];

    /// The model this mutation breaks.
    pub fn model(&self) -> Model {
        match self {
            Mutation::DriftRelaxedFlagStore | Mutation::DriftFlipBeforeBump => Model::Drift,
            Mutation::IngressLeakTenantOnShed
            | Mutation::IngressDoubleCountShed
            | Mutation::IngressReserveAfterSend
            | Mutation::IngressReleaseOncePerChunk => Model::Ingress,
        }
    }

    /// Stable name used in reports.
    pub fn name(&self) -> &'static str {
        match self {
            Mutation::DriftRelaxedFlagStore => "relaxed-flag-store",
            Mutation::DriftFlipBeforeBump => "flip-before-bump",
            Mutation::IngressLeakTenantOnShed => "leak-tenant-on-shed",
            Mutation::IngressDoubleCountShed => "double-count-shed",
            Mutation::IngressReserveAfterSend => "reserve-after-send",
            Mutation::IngressReleaseOncePerChunk => "release-once-per-chunk",
        }
    }
}

/// Check one model, optionally with a seeded mutation.
pub fn check(model: Model, mutation: Option<Mutation>) -> Result<Exploration, CounterExample> {
    debug_assert!(mutation.is_none_or(|m| m.model() == model));
    let explorer = Explorer::default();
    match model {
        Model::Drift => explorer.explore(|t| run_drift(t, mutation)),
        Model::Ingress => explorer.explore(|t| run_ingress(t, mutation)),
    }
}

/// Run every faithful model and every seeded mutation. Each row's
/// `expected` records whether the outcome matched: faithful models must
/// pass a *complete* exploration, mutated models must be caught.
pub fn self_check() -> Vec<ModelCheckRow> {
    let mut rows = Vec::new();
    for model in Model::ALL {
        let row = match check(model, None) {
            Ok(exp) => ModelCheckRow {
                model: model.name().to_string(),
                mutation: "none".to_string(),
                executions: exp.executions,
                violation: None,
                expected: exp.complete,
            },
            Err(cex) => ModelCheckRow {
                model: model.name().to_string(),
                mutation: "none".to_string(),
                executions: 0,
                violation: Some(cex.to_string()),
                expected: false,
            },
        };
        rows.push(row);
    }
    for mutation in Mutation::ALL {
        let row = match check(mutation.model(), Some(mutation)) {
            Ok(exp) => ModelCheckRow {
                model: mutation.model().name().to_string(),
                mutation: mutation.name().to_string(),
                executions: exp.executions,
                violation: None,
                expected: false,
            },
            Err(cex) => ModelCheckRow {
                model: mutation.model().name().to_string(),
                mutation: mutation.name().to_string(),
                executions: 0,
                violation: Some(cex.to_string()),
                expected: true,
            },
        };
        rows.push(row);
    }
    rows
}

// ---------------------------- drift model ----------------------------

const D_GEN: usize = 0;
const D_FLAG: usize = 1;

/// Writer performs the drift flip (generation bump `AcqRel`, then
/// adaptive flag store `Release`); reader does the decide-path check
/// (flag load `Acquire`; if set, the generation must be visible).
fn run_drift(trace: &mut Trace, mutation: Option<Mutation>) -> Result<(), String> {
    let relaxed_store = matches!(mutation, Some(Mutation::DriftRelaxedFlagStore));
    let flip_first = matches!(mutation, Some(Mutation::DriftFlipBeforeBump));
    struct St {
        mem: WeakMemory,
        pc: [usize; 2],
        flag: u64,
    }
    let mut st = St {
        mem: WeakMemory::new(2, 2),
        pc: [0; 2],
        flag: 0,
    };
    drive(
        trace,
        &mut st,
        2,
        |s, t| s.pc[t] == 2,
        |_, _| true,
        |s, t, trace| {
            if t == 0 {
                let bump_now = (s.pc[t] == 0) != flip_first;
                if bump_now {
                    s.mem.rmw(t, D_GEN, |v| v + 1, Ord::AcqRel);
                } else {
                    let ord = if relaxed_store {
                        Ord::Relaxed
                    } else {
                        Ord::Release
                    };
                    s.mem.store(t, D_FLAG, 1, ord);
                }
                s.pc[t] += 1;
            } else {
                match s.pc[t] {
                    0 => {
                        s.flag = s.mem.load(trace, t, D_FLAG, Ord::Acquire);
                        s.pc[t] = 1;
                    }
                    _ => {
                        if s.flag == 1 {
                            let generation = s.mem.load(trace, t, D_GEN, Ord::Acquire);
                            if generation == 0 {
                                return Err("adaptive flag observed without its generation bump: \
                                     decide path would reuse a stale generation tag"
                                    .to_string());
                            }
                        }
                        s.pc[t] = 2;
                    }
                }
            }
            Ok(())
        },
    )
}

// --------------------------- ingress model ---------------------------

/// Three producers submit one request each through the tenant gate
/// (producers 0 and 1 are tenant 0, producer 2 is tenant 1; quota 2,
/// so all fit) into a capacity-2 queue. A dispatcher step drains up to
/// two queued requests as one chunk: it releases their occupancy
/// slots, releases tenant slots as `(tenant, n)` runs, and counts them
/// `served`. Queue-full submissions take the shed path: release the
/// slot, count `shed`. Each producer also reserves a queue-occupancy
/// slot in its gate step, released when it sheds or when the
/// dispatcher dequeues its request. Checks the `submitted == served +
/// shed` identity, that no tenant slot leaks, and that the occupancy
/// counter never goes below zero and is zero after the drain.
fn run_ingress(trace: &mut Trace, mutation: Option<Mutation>) -> Result<(), String> {
    let leak = matches!(mutation, Some(Mutation::IngressLeakTenantOnShed));
    let double = matches!(mutation, Some(Mutation::IngressDoubleCountShed));
    let late_reserve = matches!(mutation, Some(Mutation::IngressReserveAfterSend));
    let once_per_chunk = matches!(mutation, Some(Mutation::IngressReleaseOncePerChunk));
    /// Producers, and the dispatcher's thread id.
    const PRODUCERS: usize = 3;
    /// Each producer's tenant.
    const TENANT: [usize; PRODUCERS] = [0, 0, 1];
    /// Queue capacity, and so the largest chunk a dispatcher step drains.
    const CAPACITY: usize = 2;
    /// Program counter of a finished thread.
    const DONE: usize = 3;
    struct St {
        held: [usize; 2],
        queued: usize,
        queue: Vec<usize>,
        submitted: u64,
        served: u64,
        shed: u64,
        pc: [usize; PRODUCERS + 1],
    }
    fn release(queued: &mut usize, n: usize) -> Result<(), String> {
        *queued = queued
            .checked_sub(n)
            .ok_or("occupancy counter released below zero")?;
        Ok(())
    }
    let mut st = St {
        held: [0; 2],
        queued: 0,
        queue: Vec::new(),
        submitted: 0,
        served: 0,
        shed: 0,
        pc: [0; PRODUCERS + 1],
    };
    let producers_done = |s: &St| s.pc[..PRODUCERS].iter().all(|&pc| pc == DONE);
    drive(
        trace,
        &mut st,
        PRODUCERS + 1,
        |s, t| s.pc[t] == DONE,
        |s, t| t < PRODUCERS || !s.queue.is_empty() || producers_done(s),
        |s, t, _trace| {
            if t < PRODUCERS {
                let tenant = TENANT[t];
                match s.pc[t] {
                    0 => {
                        // Tenant gate (quota 2 — all fit), submit
                        // count and occupancy reservation.
                        s.submitted += 1;
                        s.held[tenant] += 1;
                        if !late_reserve {
                            s.queued += 1;
                        }
                        s.pc[t] = 1;
                    }
                    1 => {
                        // Enqueue, or shed on a full queue.
                        if s.queue.len() < CAPACITY {
                            s.queue.push(t);
                            s.pc[t] = if late_reserve { 2 } else { DONE };
                        } else {
                            if !leak {
                                s.held[tenant] -= 1;
                            }
                            if !late_reserve {
                                release(&mut s.queued, 1)?;
                            }
                            s.shed += 1;
                            if double {
                                s.shed += 1;
                            }
                            s.pc[t] = DONE;
                        }
                    }
                    _ => {
                        // reserve-after-send: the reservation lands
                        // after the request is already in the queue.
                        s.queued += 1;
                        s.pc[t] = DONE;
                    }
                }
            } else if !s.queue.is_empty() {
                // Dequeue everything queued as one chunk, release its
                // occupancy, then its tenant slots as (tenant, n) runs
                // under one lock.
                let chunk: Vec<usize> = s.queue.drain(..).collect();
                release(&mut s.queued, chunk.len())?;
                let mut runs: Vec<(usize, usize)> = Vec::new();
                for &producer in &chunk {
                    match runs.last_mut() {
                        Some((tenant, n)) if *tenant == TENANT[producer] => *n += 1,
                        _ => runs.push((TENANT[producer], 1)),
                    }
                }
                for (tenant, n) in runs {
                    s.held[tenant] -= if once_per_chunk { 1 } else { n };
                }
                s.served += chunk.len() as u64;
            } else {
                // Queue empty and producers done: dispatcher exits.
                s.pc[t] = DONE;
            }
            Ok(())
        },
    )?;
    if st.submitted != st.served + st.shed {
        return Err(format!(
            "accounting identity broken: submitted {} != served {} + shed {}",
            st.submitted, st.served, st.shed
        ));
    }
    let held: usize = st.held.iter().sum();
    if held != 0 {
        return Err(format!(
            "tenant slot leak: {held} slots still held after drain"
        ));
    }
    if st.queued != 0 {
        return Err(format!(
            "occupancy counter is {} after drain, not 0",
            st.queued
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explorer_enumerates_all_tapes() {
        // Two binary choices -> 4 executions.
        let mut seen = Vec::new();
        let exp = Explorer::default()
            .explore(|t| {
                let a = t.choose(2);
                let b = t.choose(2);
                seen.push((a, b));
                Ok(())
            })
            .expect("no violation");
        assert_eq!(exp.executions, 4);
        assert!(exp.complete);
        assert_eq!(seen, vec![(0, 0), (0, 1), (1, 0), (1, 1)]);
    }

    #[test]
    fn explorer_returns_the_violating_tape() {
        let cex = Explorer::default()
            .explore(|t| {
                if t.choose(3) == 2 && t.choose(2) == 1 {
                    return Err("boom".to_string());
                }
                Ok(())
            })
            .expect_err("must find the violation");
        assert_eq!(cex.schedule, vec![2, 1]);
        assert_eq!(cex.message, "boom");
    }

    #[test]
    fn weak_memory_stale_read_requires_acquire() {
        // Without acquire, a reader may see the flag but stale data; the
        // release/acquire pair forbids it.
        let cex = Explorer::default().explore(|trace| {
            let mut mem = WeakMemory::new(2, 2);
            // Writer (inline, sequential for this unit test).
            mem.store(0, 0, 42, Ord::Relaxed);
            mem.store(0, 1, 1, Ord::Release);
            // Reader.
            if mem.load(trace, 1, 1, Ord::Acquire) == 1 {
                let data = mem.load(trace, 1, 0, Ord::Relaxed);
                if data != 42 {
                    return Err(format!("stale data {data}"));
                }
            }
            Ok(())
        });
        assert!(cex.is_ok(), "release/acquire forbids the stale read");

        let cex = Explorer::default().explore(|trace| {
            let mut mem = WeakMemory::new(2, 2);
            mem.store(0, 0, 42, Ord::Relaxed);
            mem.store(0, 1, 1, Ord::Relaxed); // no release
            if mem.load(trace, 1, 1, Ord::Acquire) == 1 {
                let data = mem.load(trace, 1, 0, Ord::Relaxed);
                if data != 42 {
                    return Err(format!("stale data {data}"));
                }
            }
            Ok(())
        });
        assert!(cex.is_err(), "without release the stale read exists");
    }

    #[test]
    fn faithful_models_pass_exhaustively() {
        for model in Model::ALL {
            let exp =
                check(model, None).unwrap_or_else(|cex| panic!("{} violated: {cex}", model.name()));
            assert!(exp.complete, "{} exploration truncated", model.name());
            assert!(exp.executions > 1, "{} explored nothing", model.name());
        }
    }

    #[test]
    fn every_seeded_mutation_is_caught() {
        for mutation in Mutation::ALL {
            let outcome = check(mutation.model(), Some(mutation));
            assert!(
                outcome.is_err(),
                "mutation {} on {} was not caught",
                mutation.name(),
                mutation.model().name()
            );
        }
    }

    #[test]
    fn self_check_rows_are_all_expected() {
        let rows = self_check();
        assert_eq!(rows.len(), Model::ALL.len() + Mutation::ALL.len());
        for row in &rows {
            assert!(
                row.expected,
                "{}/{} unexpected outcome",
                row.model, row.mutation
            );
        }
    }
}
