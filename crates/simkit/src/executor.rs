//! The deterministic virtual-time executor.
//!
//! A [`Sim`] owns a set of tasks (plain Rust futures) and an event heap of
//! timers. The run loop polls every ready task until quiescence, then pops
//! the earliest timer batch, advances virtual time to it, and wakes its
//! tasks. Ties on the heap are broken by insertion sequence number, so a
//! given program always produces the same schedule — simulations are
//! exactly reproducible.
//!
//! The executor is single-threaded and `!Send`; cross-configuration sweeps
//! parallelize at the granularity of whole `Sim` instances instead.
//!
//! # Hot-path design
//!
//! The scheduling loop is the inner loop of every experiment, so it pays
//! for nothing it does not need (DESIGN.md §15):
//!
//! - **Lock-free ready queue.** Tasks are woken through a custom
//!   [`RawWaker`] vtable over a non-atomic `Rc`, pushing into a plain
//!   `RefCell<VecDeque>` — no `Mutex`, no atomic reference counts.
//! - **One allocation per task.** A task's wake state and its future
//!   share one `Rc` allocation; the future is polled in place and every
//!   waker handed to it points at that allocation (a per-future-type
//!   vtable), so polls borrow it without touching the reference count.
//!   [`SimHandle::spawn`] adds a join slot; [`SimHandle::spawn_detached`]
//!   does not.
//! - **Slab task storage.** Tasks live in a `Vec<Option<Slot>>` indexed
//!   by task id with a free list; a poll clones the task's `Rc` out of its
//!   slot, instead of a `HashMap` remove + re-insert per poll.
//! - **Wake deduplication.** A per-task `queued` flag makes duplicate
//!   wakes of an already-queued task no-ops at enqueue time instead of
//!   round-tripping through the queue as spurious polls.
//! - **Wakers in the timer heap.** A pending timer carries its sleep's
//!   waker itself, so registering and firing one touches no shared slot
//!   and allocates nothing; the rare sleep re-polled from another task
//!   leaves its newer waker in a side map that the firing timer checks.
//! - **Batched timer pops.** All timers at the next instant are popped
//!   from the heap in one borrow and woken in `(time, seq)` order before
//!   the ready queue drains again.
//!
//! ## Safety invariant
//!
//! `std::task::Waker` is unconditionally `Send + Sync`, but the wakers
//! minted here wrap a non-atomic `Rc` and must never leave the executor's
//! thread. [`Sim`] and every handle into it are `!Send`, and the
//! simulation's futures run only on the thread that owns the `Sim`, so a
//! waker can only escape if a task deliberately smuggles it to another
//! thread (e.g. via `std::thread::spawn`) — which nothing in this
//! workspace does and which the simulation model (single-threaded virtual
//! time) rules out by construction.

use std::cell::{Cell, RefCell, UnsafeCell};
use std::collections::VecDeque;
use std::future::Future;
use std::mem::ManuallyDrop;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, RawWaker, RawWakerVTable, Waker};

use crate::hash::FxHashMap;
use crate::time::{SimDuration, SimTime};
use crate::timerheap::TimerHeap;

/// Ready queue of `(slab index, spawn serial)` pairs. The serial lets the
/// run loop reject entries whose slot was freed and reused since enqueue.
type ReadyQueue = Rc<RefCell<VecDeque<(usize, u64)>>>;

/// Per-task wake state: the header of a task's single allocation,
/// shared (via the raw vtables below) with every waker handed to the
/// task's polls.
struct WakeState {
    /// Slab index of the task.
    index: usize,
    /// Monotonic spawn serial; survives slot reuse and is what the
    /// schedule fingerprint records.
    serial: u64,
    /// True while the task sits in the ready queue: duplicate wakes
    /// dedupe here instead of producing spurious polls.
    queued: Cell<bool>,
    /// Set when the task completes; late wakes from stale timers or
    /// abandoned channels become no-ops.
    dead: Cell<bool>,
    ready: ReadyQueue,
}

impl WakeState {
    fn wake(&self) {
        if !self.dead.get() && !self.queued.get() {
            self.queued.set(true);
            self.ready.borrow_mut().push_back((self.index, self.serial));
        }
    }
}

/// A spawned task: its wake state and its future in one `Rc`
/// allocation. The allocation never moves, so the future is polled in
/// place (pinned); it is dropped in place when the task completes, while
/// the allocation lives on until the last outstanding waker lets go.
struct TaskCell<F> {
    state: WakeState,
    /// `None` once the task has completed. Only the run loop touches
    /// it, one poll at a time.
    fut: UnsafeCell<Option<F>>,
}

/// The slab's type-erased view of a [`TaskCell`].
trait Task {
    /// Poll the future once under this task's waker. A completed task
    /// is marked dead and its future dropped before this returns.
    fn poll(self: Rc<Self>) -> Poll<()>;
    /// Drop a still-pending future (simulation teardown), breaking any
    /// cycle through a waker the future holds for its own task.
    fn abandon(&self);
}

impl<F: Future<Output = ()> + 'static> TaskCell<F> {
    /// Waker vtable over `Rc<TaskCell<F>>`: cloning and dropping touch a
    /// non-atomic reference count and waking is a flag check plus a
    /// `VecDeque` push — no allocation, no locks, no atomics. See the
    /// module-level safety invariant.
    const VTABLE: RawWakerVTable = RawWakerVTable::new(
        Self::clone_waker,
        Self::wake_waker,
        Self::wake_by_ref_waker,
        Self::drop_waker,
    );

    // SAFETY (all four): `ptr` came from `Rc::as_ptr` of a live
    // `Rc<TaskCell<F>>`, and each waker owns one strong count.

    unsafe fn clone_waker(ptr: *const ()) -> RawWaker {
        Rc::increment_strong_count(ptr as *const Self);
        RawWaker::new(ptr, &Self::VTABLE)
    }

    unsafe fn wake_waker(ptr: *const ()) {
        Rc::from_raw(ptr as *const Self).state.wake();
    }

    unsafe fn wake_by_ref_waker(ptr: *const ()) {
        (*(ptr as *const Self)).state.wake();
    }

    unsafe fn drop_waker(ptr: *const ()) {
        drop(Rc::from_raw(ptr as *const Self));
    }
}

impl<F: Future<Output = ()> + 'static> Task for TaskCell<F> {
    fn poll(self: Rc<Self>) -> Poll<()> {
        self.state.queued.set(false);
        // Lend this `Rc`'s count to the waker without touching it;
        // `self` outlives the context.
        // SAFETY: the pointer comes from a live `Rc` and the
        // `ManuallyDrop` suppresses the borrowed count decrement.
        let waker = ManuallyDrop::new(unsafe {
            Waker::from_raw(RawWaker::new(Rc::as_ptr(&self).cast(), &Self::VTABLE))
        });
        let mut cx = Context::from_waker(&waker);
        // SAFETY: only the run loop polls, one poll at a time, so this
        // is the only reference to the future; it never moves out of the
        // `Rc` allocation and is dropped in place.
        let cell = unsafe { &mut *self.fut.get() };
        let Some(fut) = cell.as_mut() else {
            return Poll::Ready(());
        };
        let poll = unsafe { Pin::new_unchecked(fut) }.poll(&mut cx);
        if poll.is_ready() {
            self.state.dead.set(true);
            *cell = None;
        }
        poll
    }

    fn abandon(&self) {
        self.state.dead.set(true);
        // SAFETY: called only at teardown, never during a poll.
        drop(unsafe { (*self.fut.get()).take() });
    }
}

/// A live task in the slab, with its spawn serial kept beside it so the
/// run loop can reject a stale ready-queue entry without a virtual call.
struct Slot {
    serial: u64,
    task: Rc<dyn Task>,
}

/// Slab of tasks indexed by task id, with a free list of vacated slots.
#[derive(Default)]
struct Slab {
    slots: Vec<Option<Slot>>,
    free: Vec<usize>,
}

impl Slab {
    /// Reserve a slot index for a new task.
    fn alloc(&mut self) -> usize {
        match self.free.pop() {
            Some(i) => i,
            None => {
                self.slots.push(None);
                self.slots.len() - 1
            }
        }
    }
}

impl Drop for Slab {
    fn drop(&mut self) {
        for slot in self.slots.iter().flatten() {
            slot.task.abandon();
        }
    }
}

/// FNV-1a offset basis; the schedule fingerprint folds each polled task's
/// spawn serial into this running hash.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

#[inline]
fn fnv_fold(acc: u64, v: u64) -> u64 {
    let mut acc = acc;
    for byte in v.to_le_bytes() {
        acc = (acc ^ byte as u64).wrapping_mul(FNV_PRIME);
    }
    acc
}

/// Poll ready tasks until the queue is empty — the scheduler hot loop.
fn drain_ready(core: &Core) {
    loop {
        let next = core.ready.borrow_mut().pop_front();
        let Some((index, serial)) = next else { break };
        // Hold the task across the poll (which may re-borrow the slab
        // to spawn); a vacated or reused slot means the wake went stale
        // in the queue.
        let task = match &core.tasks.borrow().slots[index] {
            Some(slot) if slot.serial == serial => Rc::clone(&slot.task),
            _ => continue,
        };
        core.events_processed.set(core.events_processed.get() + 1);
        core.fingerprint
            .set(fnv_fold(core.fingerprint.get(), serial));
        if task.poll().is_ready() {
            let mut slab = core.tasks.borrow_mut();
            slab.slots[index] = None;
            slab.free.push(index);
        }
    }
}

/// Fire one popped timer: wake the most recent poller of its [`Sleep`]
/// and drain the ready queue. The heap entry carries the first poller's
/// waker; a sleep re-polled from another task before firing left the
/// newer waker in [`Core::retargets`], which wins.
fn fire(core: &Core, seq: u64, waker: Waker) {
    let waker = {
        let mut retargets = core.retargets.borrow_mut();
        if retargets.is_empty() {
            waker
        } else {
            retargets.remove(&seq).unwrap_or(waker)
        }
    };
    waker.wake();
    drain_ready(core);
}

struct Core {
    now: Cell<SimTime>,
    seq: Cell<u64>,
    /// Pending timers, keyed `(time, seq)`, each holding the waker of
    /// its sleep's first poller. The 4-ary flat heap pops the same total
    /// order a binary heap would (seq is unique), at half the tree depth.
    timers: RefCell<TimerHeap<Waker>>,
    /// Newer wakers of pending timers whose sleep was re-polled from
    /// another task (select/race patterns), by timer seq. Almost always
    /// empty.
    retargets: RefCell<FxHashMap<u64, Waker>>,
    ready: ReadyQueue,
    tasks: RefCell<Slab>,
    next_serial: Cell<u64>,
    events_processed: Cell<u64>,
    fingerprint: Cell<u64>,
    /// Reusable buffer for batched same-instant timer pops.
    timer_batch: RefCell<Vec<(u64, Waker)>>,
}

/// A cloneable, lightweight handle into a running simulation.
///
/// Handles are captured by tasks to read the clock, sleep, and spawn
/// subtasks. All clones refer to the same simulation.
#[derive(Clone)]
pub struct SimHandle {
    core: Rc<Core>,
}

/// A deterministic discrete-event simulation.
pub struct Sim {
    handle: SimHandle,
}

impl Default for Sim {
    fn default() -> Self {
        Self::new()
    }
}

impl Sim {
    /// Create an empty simulation at virtual time zero.
    pub fn new() -> Sim {
        Sim {
            handle: SimHandle {
                core: Rc::new(Core {
                    now: Cell::new(SimTime::ZERO),
                    seq: Cell::new(0),
                    timers: RefCell::new(TimerHeap::new()),
                    retargets: RefCell::new(FxHashMap::default()),
                    ready: Rc::new(RefCell::new(VecDeque::new())),
                    tasks: RefCell::new(Slab::default()),
                    next_serial: Cell::new(0),
                    events_processed: Cell::new(0),
                    fingerprint: Cell::new(FNV_OFFSET),
                    timer_batch: RefCell::new(Vec::new()),
                }),
            },
        }
    }

    /// The handle used by tasks to interact with the simulation.
    pub fn handle(&self) -> SimHandle {
        self.handle.clone()
    }

    /// Spawn a root task. Equivalent to `handle().spawn(fut)`.
    pub fn spawn<T: 'static>(&self, fut: impl Future<Output = T> + 'static) -> JoinHandle<T> {
        self.handle.spawn(fut)
    }

    /// Run until no runnable task and no pending timer remain, and return
    /// the final virtual time.
    ///
    /// Tasks still blocked on a channel/barrier with no peer are simply
    /// dropped when the simulation ends (deadlock is not an error at this
    /// layer; higher layers assert on join handles instead).
    pub fn run(&mut self) -> SimTime {
        let core = &self.handle.core;
        loop {
            // Drain the ready queue to quiescence at the current instant.
            drain_ready(core);
            // Advance to the next timer instant. Every entry at that
            // instant is popped off the heap in one batch (single heap
            // borrow), then woken one at a time with a ready-queue drain
            // after each wake. The per-wake drain preserves the legacy
            // executor's schedule exactly — the wake chain set off by
            // timer k is fully polled before timer k+1 fires — which is
            // what keeps virtual times bit-identical across the rewrite
            // in contention-heavy runs. Timers a woken task registers
            // *at the same instant* carry later seqs and fire on the
            // next trip around the outer loop, still in (time, seq)
            // order, matching the legacy pop-one-at-a-time heap order.
            let mut batch = core.timer_batch.borrow_mut();
            {
                let mut timers = core.timers.borrow_mut();
                let Some((time, seq, waker)) = timers.pop() else {
                    break;
                };
                debug_assert!(time >= core.now.get());
                core.now.set(time);
                let instant = time;
                batch.push((seq, waker));
                while timers.peek().is_some_and(|(t, _)| t == instant) {
                    let (_, seq, waker) = timers.pop().expect("peeked entry");
                    batch.push((seq, waker));
                }
            }
            for (seq, waker) in batch.drain(..) {
                fire(core, seq, waker);
            }
        }
        core.now.get()
    }
    /// Run a single root future to completion and return its output along
    /// with the final virtual time. Panics if the future deadlocks (cannot
    /// complete before the event queue empties).
    pub fn run_to_completion<T: 'static>(
        fut: impl FnOnce(SimHandle) -> Pin<Box<dyn Future<Output = T>>>,
    ) -> (T, SimTime) {
        let mut sim = Sim::new();
        let handle = sim.handle();
        let jh = sim.spawn(fut(handle));
        let end = sim.run();
        let out = jh
            .try_take()
            .expect("root task did not complete: simulation deadlocked");
        (out, end)
    }

    /// Number of task polls performed so far (a rough event count, useful
    /// for performance diagnostics).
    pub fn events_processed(&self) -> u64 {
        self.handle.core.events_processed.get()
    }

    /// Order-sensitive hash of the schedule so far: an FNV-1a fold of the
    /// spawn serial of every task poll, in poll order. Two runs of the
    /// same program produce the same fingerprint if and only if the
    /// executor polled the same tasks in the same order — the regression
    /// oracle for scheduler changes.
    pub fn schedule_fingerprint(&self) -> u64 {
        self.handle.core.fingerprint.get()
    }
}

/// Tasks still pending when the simulation is dropped are abandoned
/// here. A pending task may hold a [`SimHandle`] (a daemon holding the
/// machine does), which keeps the core, and with it the slab that owns
/// the task, alive: a reference cycle that only taking the slab out
/// breaks.
impl Drop for Sim {
    fn drop(&mut self) {
        let slab = std::mem::take(&mut *self.handle.core.tasks.borrow_mut());
        drop(slab);
    }
}

impl SimHandle {
    /// Current virtual time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.core.now.get()
    }

    fn next_seq(&self) -> u64 {
        let s = self.core.seq.get();
        self.core.seq.set(s + 1);
        s
    }

    /// Register a timer that, at `deadline`, wakes `waker` (or the
    /// waker a later [`SimHandle::retarget_timer`] names); returns its seq.
    fn register_timer(&self, deadline: SimTime, waker: Waker) -> u64 {
        let seq = self.next_seq();
        self.core
            .timers
            .borrow_mut()
            .push(deadline.max(self.now()), seq, waker);
        seq
    }

    /// Make the pending timer `seq` wake `waker` instead.
    fn retarget_timer(&self, seq: u64, waker: Waker) {
        self.core.retargets.borrow_mut().insert(seq, waker);
    }

    /// Spawn a task; it begins running when the executor next reaches the
    /// scheduling loop (at the current virtual instant).
    pub fn spawn<T: 'static>(&self, fut: impl Future<Output = T> + 'static) -> JoinHandle<T> {
        let slot: Rc<RefCell<JoinSlot<T>>> = Rc::new(RefCell::new(JoinSlot {
            value: None,
            waker: None,
            finished: false,
        }));
        let slot2 = Rc::clone(&slot);
        self.spawn_task(async move {
            let v = fut.await;
            let mut s = slot2.borrow_mut();
            s.value = Some(v);
            s.finished = true;
            if let Some(w) = s.waker.take() {
                w.wake();
            }
        });
        JoinHandle { slot }
    }

    /// Spawn a task whose completion nobody awaits (fire-and-forget, like
    /// an open-loop client's request). Scheduling is identical to
    /// [`SimHandle::spawn`] — same spawn serial, same first poll — but no
    /// join slot is allocated: the task is one heap allocation.
    pub fn spawn_detached(&self, fut: impl Future<Output = ()> + 'static) {
        self.spawn_task(fut);
    }

    /// Slab a task under the next spawn serial, in one allocation, and
    /// queue its first poll.
    fn spawn_task<F: Future<Output = ()> + 'static>(&self, fut: F) {
        let serial = self.core.next_serial.get();
        self.core.next_serial.set(serial + 1);
        let mut slab = self.core.tasks.borrow_mut();
        let index = slab.alloc();
        // Allocate first and build the task in place: a future is often
        // hundreds of bytes, and `Rc::new` would copy it once more.
        let mut task = Rc::<TaskCell<F>>::new_uninit();
        Rc::get_mut(&mut task)
            .expect("fresh allocation")
            .write(TaskCell {
                state: WakeState {
                    index,
                    serial,
                    queued: Cell::new(false),
                    dead: Cell::new(false),
                    ready: Rc::clone(&self.core.ready),
                },
                fut: UnsafeCell::new(Some(fut)),
            });
        // SAFETY: initialized just above.
        let task = unsafe { task.assume_init() };
        task.state.wake();
        slab.slots[index] = Some(Slot { serial, task });
    }

    /// Sleep for `dur` of virtual time.
    pub fn sleep(&self, dur: SimDuration) -> Sleep {
        self.sleep_until(self.now() + dur)
    }

    /// Sleep until the given instant (no-op if already past).
    pub fn sleep_until(&self, deadline: SimTime) -> Sleep {
        Sleep {
            handle: self.clone(),
            deadline,
            timer: None,
        }
    }

    /// Yield to let other already-runnable tasks at this instant run
    /// first. (A zero-duration sleep would complete without yielding,
    /// since its deadline is already reached on the first poll.)
    pub fn yield_now(&self) -> YieldNow {
        YieldNow { yielded: false }
    }
}

/// Future returned by [`SimHandle::yield_now`]: pending once, then ready.
pub struct YieldNow {
    yielded: bool,
}

impl Future for YieldNow {
    type Output = ();
    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if self.yielded {
            Poll::Ready(())
        } else {
            self.yielded = true;
            cx.waker().wake_by_ref();
            Poll::Pending
        }
    }
}

struct JoinSlot<T> {
    value: Option<T>,
    waker: Option<Waker>,
    /// Completion flag, independent of `value` so [`JoinHandle::is_finished`]
    /// stays true after the output is taken.
    finished: bool,
}

/// Awaits the completion of a spawned task and yields its output.
pub struct JoinHandle<T> {
    slot: Rc<RefCell<JoinSlot<T>>>,
}

impl<T> JoinHandle<T> {
    /// Take the task output if it has completed, without awaiting.
    pub fn try_take(&self) -> Option<T> {
        self.slot.borrow_mut().value.take()
    }

    /// Whether the task has finished (output may already be taken).
    pub fn is_finished(&self) -> bool {
        self.slot.borrow().finished
    }
}

impl<T> Future for JoinHandle<T> {
    type Output = T;
    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<T> {
        let mut slot = self.slot.borrow_mut();
        if let Some(v) = slot.value.take() {
            Poll::Ready(v)
        } else {
            // Skip the clone when the same task re-polls (cached wakers
            // make `will_wake` an exact identity test).
            match &slot.waker {
                Some(w) if w.will_wake(cx.waker()) => {}
                _ => slot.waker = Some(cx.waker().clone()),
            }
            Poll::Pending
        }
    }
}

/// Future returned by [`SimHandle::sleep`].
pub struct Sleep {
    handle: SimHandle,
    deadline: SimTime,
    /// Once registered: the timer's seq and the waker it will wake. The
    /// timer wakes the *most recent* poller, so a re-poll from another
    /// task (select/race patterns) retargets it instead of leaving a
    /// stale waker; a sleep dropped before its deadline still wakes its
    /// last poller then.
    timer: Option<(u64, Waker)>,
}

impl Future for Sleep {
    type Output = ();
    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if self.handle.now() >= self.deadline {
            return Poll::Ready(());
        }
        let this = &mut *self;
        match &mut this.timer {
            None => {
                let waker = cx.waker().clone();
                let seq = this.handle.register_timer(this.deadline, waker.clone());
                this.timer = Some((seq, waker));
            }
            Some((seq, waker)) => {
                if !waker.will_wake(cx.waker()) {
                    *waker = cx.waker().clone();
                    this.handle.retarget_timer(*seq, waker.clone());
                }
            }
        }
        Poll::Pending
    }
}

/// Await `fut` with a virtual-time deadline: `Some(output)` if it
/// completes within `dur`, `None` otherwise. The future is spawned, so on
/// timeout it keeps running detached (like an abandoned I/O request);
/// callers that need cancellation should check a flag inside the future.
pub async fn with_timeout<T: 'static>(
    handle: &SimHandle,
    dur: SimDuration,
    fut: impl Future<Output = T> + 'static,
) -> Option<T> {
    let deadline = handle.now() + dur;
    let jh = handle.spawn(fut);
    // Poll the join handle against the deadline via a race future.
    struct Race<T> {
        jh: JoinHandle<T>,
        sleep: Sleep,
    }
    impl<T> Future for Race<T> {
        type Output = Option<T>;
        fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Option<T>> {
            // All fields are Unpin, so the struct is too.
            let this = self.get_mut();
            if let Poll::Ready(v) = Pin::new(&mut this.jh).poll(cx) {
                return Poll::Ready(Some(v));
            }
            if Pin::new(&mut this.sleep).poll(cx).is_ready() {
                return Poll::Ready(None);
            }
            Poll::Pending
        }
    }
    Race {
        jh,
        sleep: handle.sleep_until(deadline),
    }
    .await
}

/// Await every future in `futs` (spawned concurrently in virtual time) and
/// collect their outputs in order.
///
/// Because awaiting a [`JoinHandle`] consumes no virtual time, the caller
/// resumes at the virtual instant when the *last* future finishes — i.e.
/// this is a fork/join with correct parallel timing.
pub async fn join_all<T: 'static, F>(handle: &SimHandle, futs: Vec<F>) -> Vec<T>
where
    F: Future<Output = T> + 'static,
{
    let handles: Vec<JoinHandle<T>> = futs.into_iter().map(|f| handle.spawn(f)).collect();
    let mut out = Vec::with_capacity(handles.len());
    for h in handles {
        out.push(h.await);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sleep_advances_virtual_time() {
        let mut sim = Sim::new();
        let h = sim.handle();
        let jh = sim.spawn(async move {
            h.sleep(SimDuration::from_millis(250)).await;
            h.now()
        });
        let end = sim.run();
        assert_eq!(end, SimTime(250_000_000));
        assert_eq!(jh.try_take().unwrap(), SimTime(250_000_000));
    }

    #[test]
    fn tasks_interleave_deterministically() {
        let mut sim = Sim::new();
        let log: Rc<RefCell<Vec<(u32, u64)>>> = Rc::new(RefCell::new(Vec::new()));
        for id in 0..3u32 {
            let h = sim.handle();
            let log = Rc::clone(&log);
            sim.spawn(async move {
                for _step in 0..3u64 {
                    h.sleep(SimDuration::from_millis(10 * (id as u64 + 1)))
                        .await;
                    log.borrow_mut().push((id, h.now().as_nanos() / 1_000_000));
                }
            });
        }
        sim.run();
        let got = log.borrow().clone();
        // Task 0 ticks at 10,20,30; task 1 at 20,40,60; task 2 at 30,60,90.
        // Ties resolve by timer registration order: task 1 registered its
        // t=20 timer at t=0, before task 0 re-registered at t=10, so task 1
        // fires first at t=20; likewise at t=30 and t=60.
        assert_eq!(
            got,
            vec![
                (0, 10),
                (1, 20),
                (0, 20),
                (2, 30),
                (0, 30),
                (1, 40),
                (2, 60),
                (1, 60),
                (2, 90)
            ]
        );
    }

    #[test]
    fn join_all_resumes_at_last_completion() {
        let mut sim = Sim::new();
        let h = sim.handle();
        let jh = sim.spawn(async move {
            let h2 = h.clone();
            let futs: Vec<_> = (1..=4u64)
                .map(|i| {
                    let h3 = h2.clone();
                    async move {
                        h3.sleep(SimDuration::from_secs(i)).await;
                        i
                    }
                })
                .collect();
            let outs = join_all(&h2, futs).await;
            (outs, h2.now())
        });
        sim.run();
        let (outs, t) = jh.try_take().unwrap();
        assert_eq!(outs, vec![1, 2, 3, 4]);
        assert_eq!(t, SimTime::ZERO + SimDuration::from_secs(4));
    }

    #[test]
    fn nested_spawn_runs_at_same_instant() {
        let (val, end) = Sim::run_to_completion(|h| {
            Box::pin(async move {
                let child = h.spawn(async { 42 });
                child.await
            })
        });
        assert_eq!(val, 42);
        assert_eq!(end, SimTime::ZERO);
    }

    #[test]
    fn run_returns_final_time_with_no_tasks() {
        let mut sim = Sim::new();
        assert_eq!(sim.run(), SimTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "deadlocked")]
    fn run_to_completion_detects_deadlock() {
        Sim::run_to_completion(|_h| {
            Box::pin(async move {
                // A future that is never woken.
                std::future::pending::<()>().await;
            })
        });
    }

    #[test]
    fn sleep_until_past_instant_is_noop() {
        let (t, end) = Sim::run_to_completion(|h| {
            Box::pin(async move {
                h.sleep(SimDuration::from_secs(5)).await;
                h.sleep_until(SimTime(1)).await; // already past
                h.now()
            })
        });
        assert_eq!(t, SimTime::ZERO + SimDuration::from_secs(5));
        assert_eq!(end, t);
    }

    #[test]
    fn blocked_tasks_are_dropped_cleanly_at_sim_end() {
        // A task waiting on a channel with no sender left alive at the
        // end of the run is simply dropped — no panic, no leak observable
        // through the join handle.
        let mut sim = Sim::new();
        let (tx, rx) = crate::sync::channel::<u32>();
        let jh = sim.spawn(async move { rx.recv().await });
        let end = sim.run(); // tx still alive: recv never resolves
        assert_eq!(end, SimTime::ZERO);
        assert!(!jh.is_finished());
        drop(tx);
    }

    #[test]
    fn dropping_the_sim_drops_tasks_that_hold_its_handle() {
        // A task parked forever that holds a handle into its own
        // simulation (as a daemon holding the machine does) must still
        // be dropped with the simulation, not leaked through the cycle
        // handle → core → slab → task.
        struct Guard(Rc<Cell<bool>>);
        impl Drop for Guard {
            fn drop(&mut self) {
                self.0.set(true);
            }
        }
        let dropped = Rc::new(Cell::new(false));
        let mut sim = Sim::new();
        let h = sim.handle();
        let guard = Guard(Rc::clone(&dropped));
        let (_tx, rx) = crate::sync::channel::<u32>();
        sim.handle().spawn_detached(async move {
            let _guard = guard;
            let _h = h;
            let _ = rx.recv().await;
        });
        sim.run();
        assert!(!dropped.get(), "the task is parked, not finished");
        drop(sim);
        assert!(dropped.get(), "the parked task leaked with its simulation");
    }

    #[test]
    fn yield_now_lets_peers_run_first() {
        let (order, _) = Sim::run_to_completion(|h| {
            Box::pin(async move {
                let log: Rc<RefCell<Vec<u32>>> = Rc::default();
                let l1 = Rc::clone(&log);
                let peer = h.spawn(async move {
                    l1.borrow_mut().push(1);
                });
                h.yield_now().await;
                log.borrow_mut().push(2);
                peer.await;
                let order = log.borrow().clone();
                order
            })
        });
        assert_eq!(order, vec![1, 2]);
    }

    #[test]
    fn with_timeout_returns_some_when_fast() {
        let (out, _) = Sim::run_to_completion(|h| {
            Box::pin(async move {
                let h2 = h.clone();
                with_timeout(&h, SimDuration::from_secs(10), async move {
                    h2.sleep(SimDuration::from_secs(1)).await;
                    42
                })
                .await
            })
        });
        assert_eq!(out, Some(42));
    }

    #[test]
    fn with_timeout_returns_none_when_slow() {
        let (out, end) = Sim::run_to_completion(|h| {
            Box::pin(async move {
                let h2 = h.clone();
                let r = with_timeout(&h, SimDuration::from_secs(1), async move {
                    h2.sleep(SimDuration::from_secs(10)).await;
                    42
                })
                .await;
                (r, h.now())
            })
        });
        let (r, t) = out;
        assert_eq!(r, None);
        assert_eq!(t, SimTime(1_000_000_000));
        // The abandoned future still runs to completion.
        assert_eq!(end, SimTime(10_000_000_000));
    }

    #[test]
    fn events_processed_counts_polls() {
        let mut sim = Sim::new();
        let h = sim.handle();
        sim.spawn(async move {
            for _ in 0..10 {
                h.sleep(SimDuration::from_millis(1)).await;
            }
        });
        sim.run();
        assert!(sim.events_processed() >= 10);
    }

    #[test]
    fn is_finished_survives_try_take() {
        let mut sim = Sim::new();
        let jh = sim.spawn(async { 7u32 });
        assert!(!jh.is_finished());
        sim.run();
        assert!(jh.is_finished());
        assert_eq!(jh.try_take(), Some(7));
        // The documented contract: "output may already be taken".
        assert!(jh.is_finished());
        assert_eq!(jh.try_take(), None);
    }

    #[test]
    fn schedule_fingerprint_is_deterministic_and_order_sensitive() {
        let run_once = |flip: bool| {
            let mut sim = Sim::new();
            let h = sim.handle();
            for i in 0..4u64 {
                let h2 = h.clone();
                let d = if flip { 4 - i } else { i + 1 };
                sim.spawn(async move {
                    h2.sleep(SimDuration::from_millis(d)).await;
                });
            }
            sim.run();
            sim.schedule_fingerprint()
        };
        assert_eq!(run_once(false), run_once(false));
        assert_ne!(run_once(false), run_once(true));
    }

    #[test]
    fn duplicate_wakes_dedupe_to_one_poll() {
        // Two sends at the same instant enqueue the receiver once, not
        // twice: the `queued` flag absorbs the duplicate wake.
        let (polls, _) = Sim::run_to_completion(|h| {
            Box::pin(async move {
                let (tx, rx) = crate::sync::channel::<u32>();
                let h2 = h.clone();
                let consumer = h.spawn(async move {
                    let mut got = Vec::new();
                    while let Some(v) = rx.recv().await {
                        got.push(v);
                    }
                    got
                });
                h2.yield_now().await; // let the consumer block first
                tx.send(1);
                tx.send(2); // duplicate wake: consumer already queued
                drop(tx);
                consumer.await
            })
        });
        assert_eq!(polls, vec![1, 2]);
    }

    #[test]
    fn slab_slots_are_reused_without_cross_talk() {
        // Churn through many short-lived tasks so slots recycle, while a
        // long-lived task keeps its slot; stale wakes must never reach
        // the wrong task.
        let (total, _) = Sim::run_to_completion(|h| {
            Box::pin(async move {
                let mut total = 0u64;
                for round in 0..50u64 {
                    let h2 = h.clone();
                    let jh = h.spawn(async move {
                        h2.sleep(SimDuration::from_micros(1)).await;
                        round
                    });
                    total += jh.await;
                }
                total
            })
        });
        assert_eq!(total, (0..50).sum());
    }

    #[test]
    fn sleep_wakes_most_recent_poller() {
        // A Sleep first polled inside one task and then re-polled from a
        // different waker must wake the second one at fire time (the
        // stale-waker bug of the old register-once `Sleep`).
        use std::sync::atomic::{AtomicU32, Ordering};
        use std::sync::Arc;

        struct CountWaker(AtomicU32);
        impl std::task::Wake for CountWaker {
            fn wake(self: Arc<Self>) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }

        let mut sim = Sim::new();
        let h = sim.handle();
        let mut sleep = h.sleep(SimDuration::from_millis(5));
        // First poll with a throwaway waker (simulating the first branch
        // of a race that later loses interest).
        let counter = Arc::new(CountWaker(AtomicU32::new(0)));
        let first = Waker::from(Arc::clone(&counter));
        let mut cx = Context::from_waker(&first);
        assert!(Pin::new(&mut sleep).poll(&mut cx).is_pending());
        // Re-poll from a real task, which then awaits the same sleep.
        let jh = sim.spawn(async move {
            sleep.await;
            h.now()
        });
        sim.run();
        // The timer woke the task (the most recent poller), not the
        // throwaway waker.
        assert_eq!(jh.try_take().unwrap(), SimTime(5_000_000));
        assert_eq!(counter.0.load(Ordering::SeqCst), 0);
    }

    type PollLog = Rc<RefCell<Vec<(u32, u64)>>>;

    /// `fut`, logging `(id, virtual ms)` at every poll.
    fn logged<F: Future + 'static>(
        id: u32,
        h: SimHandle,
        log: PollLog,
        fut: F,
    ) -> impl Future<Output = F::Output> {
        let mut fut = Box::pin(fut);
        std::future::poll_fn(move |cx| {
            log.borrow_mut().push((id, h.now().as_nanos() / 1_000_000));
            fut.as_mut().poll(cx)
        })
    }

    fn ms(n: u64) -> SimDuration {
        SimDuration::from_millis(n)
    }

    #[test]
    fn dropped_sleep_still_wakes_its_last_poller_at_its_deadline() {
        // Task 0 races a 10 ms sleep against a 1 ms one and drops the
        // loser. Its timer still fires at 10 ms and wakes task 0 (one
        // extra poll); no other task, such as task 1 sleeping across that
        // instant, is woken by it.
        let mut sim = Sim::new();
        let h = sim.handle();
        let log = PollLog::default();
        let (tx, rx) = crate::sync::channel::<u32>();
        let h0 = h.clone();
        sim.spawn(logged(0, h.clone(), Rc::clone(&log), async move {
            let mut long = h0.sleep(ms(10));
            let mut short = h0.sleep(ms(1));
            std::future::poll_fn(|cx| {
                let _ = Pin::new(&mut long).poll(cx);
                Pin::new(&mut short).poll(cx)
            })
            .await;
            drop(long);
            rx.recv().await
        }));
        let h1 = h.clone();
        sim.spawn(logged(1, h.clone(), Rc::clone(&log), async move {
            h1.sleep(ms(2)).await;
            h1.sleep(ms(30)).await;
        }));
        let h2 = h.clone();
        sim.spawn(async move {
            h2.sleep(ms(20)).await;
            tx.send(7);
        });
        assert_eq!(sim.run(), SimTime::ZERO + ms(32));
        assert_eq!(
            *log.borrow(),
            [(0, 0), (1, 0), (0, 1), (1, 2), (0, 10), (0, 20), (1, 32)]
        );
    }

    #[test]
    fn sleep_polled_again_from_another_task_wakes_that_task() {
        // Task 0 polls a 5 ms sleep once, then moves it into task 1,
        // which awaits it. The timer must wake task 1, which then
        // finishes and wakes task 0 through its join handle.
        let mut sim = Sim::new();
        let h = sim.handle();
        let log = PollLog::default();
        let (h0, l1) = (h.clone(), Rc::clone(&log));
        sim.spawn(logged(0, h.clone(), Rc::clone(&log), async move {
            let mut sleep = h0.sleep(ms(5));
            std::future::poll_fn(|cx| {
                assert!(Pin::new(&mut sleep).poll(cx).is_pending());
                Poll::Ready(())
            })
            .await;
            let child = h0.spawn(logged(1, h0.clone(), l1, sleep));
            child.await;
        }));
        assert_eq!(sim.run(), SimTime::ZERO + ms(5));
        assert_eq!(*log.borrow(), [(0, 0), (1, 0), (1, 5), (0, 5)]);
    }

    #[test]
    fn same_instant_timers_fire_in_registration_order() {
        // Three tasks register timers for 10 ms in the reverse of their
        // spawn order (task 2 at 0 ms, task 1 at 1 ms, task 0 at 2 ms);
        // at 10 ms they resume in registration (seq) order.
        let mut sim = Sim::new();
        let h = sim.handle();
        let order: Rc<RefCell<Vec<u32>>> = Rc::default();
        for id in 0..3u32 {
            let (h, order) = (h.clone(), Rc::clone(&order));
            sim.spawn(async move {
                h.sleep(ms(u64::from(2 - id))).await;
                h.sleep_until(SimTime::ZERO + ms(10)).await;
                order.borrow_mut().push(id);
            });
        }
        assert_eq!(sim.run(), SimTime::ZERO + ms(10));
        assert_eq!(*order.borrow(), [2, 1, 0]);
    }

    #[test]
    fn late_wake_of_a_finished_task_is_a_noop() {
        // Task 0 leaks its waker and finishes; task 1 then reuses its
        // slab slot. Waking the stale waker later polls nobody.
        let mut sim = Sim::new();
        let h = sim.handle();
        let log = PollLog::default();
        let stash: Rc<RefCell<Option<Waker>>> = Rc::default();
        let s0 = Rc::clone(&stash);
        sim.spawn(std::future::poll_fn(move |cx| {
            *s0.borrow_mut() = Some(cx.waker().clone());
            Poll::Ready(())
        }));
        let (h2, l1) = (h.clone(), Rc::clone(&log));
        sim.spawn(async move {
            h2.sleep(ms(1)).await;
            let h1 = h2.clone();
            let reuser = h2.spawn(logged(1, h2.clone(), l1, async move {
                h1.sleep(ms(5)).await;
            }));
            h2.sleep(ms(2)).await;
            let stale = stash.borrow_mut().take().expect("task 0 left its waker");
            stale.wake_by_ref();
            stale.wake();
            reuser.await;
        });
        assert_eq!(sim.run(), SimTime::ZERO + ms(6));
        assert_eq!(*log.borrow(), [(1, 1), (1, 6)]);
        // Task 0 once, the driver at 0, 1, 3 and 6 ms, task 1 twice.
        assert_eq!(sim.events_processed(), 7);
    }

    #[test]
    fn same_instant_timers_fire_in_seq_order() {
        // Three tasks sleeping to the same deadline resume in the order
        // their timers were registered, even though the heap pops them as
        // one batch.
        let (order, end) = Sim::run_to_completion(|h| {
            Box::pin(async move {
                let log: Rc<RefCell<Vec<u32>>> = Rc::default();
                let futs: Vec<_> = (0..3u32)
                    .map(|i| {
                        let h2 = h.clone();
                        let log = Rc::clone(&log);
                        async move {
                            h2.sleep_until(SimTime(1_000)).await;
                            log.borrow_mut().push(i);
                        }
                    })
                    .collect();
                join_all(&h, futs).await;
                let order = log.borrow().clone();
                order
            })
        });
        assert_eq!(order, vec![0, 1, 2]);
        assert_eq!(end, SimTime(1_000));
    }
}
