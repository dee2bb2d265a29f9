//! A one-shot result slot on the same Mutex/Condvar substrate as [`crate::queue`].
//!
//! The job-service runtime needs a wake-up primitive with exactly-once
//! delivery semantics: a scheduler worker finishes a job and hands the result
//! to whichever thread is parked on the job's ticket.  An MPMC queue is the
//! wrong shape for that (two endpoints per job, no "value already taken"
//! state), so [`oneshot`] provides the minimal slot:
//!
//! * [`OneshotSender::send`] consumes the sender — a slot delivers at most
//!   one value, enforced by the type system rather than a runtime check;
//! * [`OneshotReceiver::recv`] blocks on a condition variable until the value
//!   arrives (or the sender is dropped unfired), with
//!   [`OneshotReceiver::recv_timeout`] and the non-blocking
//!   [`OneshotReceiver::try_recv`] mirroring the queue's API — including its
//!   [`QueueRecvError`] vocabulary, so callers polling a ticket and callers
//!   polling a queue handle errors identically;
//! * dropping either endpoint is observed by the other: an unfired dropped
//!   sender turns every receive into [`QueueRecvError::Disconnected`], and a
//!   dropped receiver makes [`OneshotSender::send`] hand the value back;
//! * [`OneshotReceiver::on_ready`] registers a completion hook that runs
//!   once the slot can no longer block — so a thread that multiplexes many
//!   slots (a streaming server session) parks on one event queue and is
//!   woken by the slot itself instead of polling each receiver.
//!
//! Like the queue, values need not be `'static` and the primitive never
//! spins.

use crate::queue::{QueueRecvError, QueueSendError};
use std::fmt;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// A completion hook registered through [`OneshotReceiver::on_ready`].
type Hook = Box<dyn FnOnce() + Send>;

/// Interior state of a oneshot slot.
struct SlotState<T> {
    value: Option<T>,
    sender_alive: bool,
    receiver_alive: bool,
    /// Hooks waiting for the slot to stop blocking, run in registration
    /// order.  Always run (or dropped) after the state lock is released.
    hooks: Vec<Hook>,
}

impl<T> SlotState<T> {
    /// `true` once a receive cannot block: the value is ready or the sender
    /// is gone.
    fn settled(&self) -> bool {
        self.value.is_some() || !self.sender_alive
    }
}

struct Shared<T> {
    state: Mutex<SlotState<T>>,
    /// Signalled when the value arrives or the sender departs unfired.
    ready: Condvar,
}

impl<T> Shared<T> {
    /// Locks the state, recovering from poisoning (the lock only ever guards
    /// slot bookkeeping, which cannot be left inconsistent).
    fn lock(&self) -> MutexGuard<'_, SlotState<T>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// The firing half of a [`oneshot`] slot.  [`OneshotSender::send`] consumes
/// it; dropping it unfired disconnects the receiver.
pub struct OneshotSender<T> {
    /// `Some` until the sender fires; `Drop` only reports a disconnect when
    /// the slot was never fired.
    shared: Option<Arc<Shared<T>>>,
}

/// The receiving half of a [`oneshot`] slot.
pub struct OneshotReceiver<T> {
    shared: Arc<Shared<T>>,
}

/// Creates a one-shot slot: a single value travels from the
/// [`OneshotSender`] to the [`OneshotReceiver`], with disconnection observed
/// on both ends.
pub fn oneshot<T>() -> (OneshotSender<T>, OneshotReceiver<T>) {
    let shared = Arc::new(Shared {
        state: Mutex::new(SlotState {
            value: None,
            sender_alive: true,
            receiver_alive: true,
            hooks: Vec::new(),
        }),
        ready: Condvar::new(),
    });
    (
        OneshotSender {
            shared: Some(Arc::clone(&shared)),
        },
        OneshotReceiver { shared },
    )
}

/// Creates a receiver whose value is already delivered: no sender ever
/// exists, [`OneshotReceiver::recv`] returns immediately and
/// [`OneshotReceiver::try_recv`] reports `Ok` then `Disconnected`, exactly
/// as a normal slot reads after its sender fired.
///
/// This is the resolve-from-cached-value path of the job service: a
/// scheduler that already holds the answer at submit time hands the caller a
/// ticket backed by this slot, skipping the worker round-trip entirely.
pub fn resolved<T>(value: T) -> OneshotReceiver<T> {
    OneshotReceiver {
        shared: Arc::new(Shared {
            state: Mutex::new(SlotState {
                value: Some(value),
                sender_alive: false,
                receiver_alive: true,
                hooks: Vec::new(),
            }),
            ready: Condvar::new(),
        }),
    }
}

impl<T> OneshotSender<T> {
    /// Fires the slot, waking the receiver.  Fails (returning the value) if
    /// the receiver is gone.
    pub fn send(mut self, value: T) -> Result<(), QueueSendError<T>> {
        let shared = self.shared.take().expect("sender fires at most once");
        let mut state = shared.lock();
        if !state.receiver_alive {
            return Err(QueueSendError(value));
        }
        state.value = Some(value);
        state.sender_alive = false;
        let hooks = std::mem::take(&mut state.hooks);
        drop(state);
        // At most one thread ever waits on a ticket's slot, but notify_all
        // keeps the primitive safe if a receiver is cloned-by-move between
        // threads in the future.
        shared.ready.notify_all();
        run_hooks(hooks);
        Ok(())
    }

    /// Returns `true` if the receiving end has been dropped (a send would
    /// fail).
    pub fn is_disconnected(&self) -> bool {
        match &self.shared {
            Some(shared) => !shared.lock().receiver_alive,
            None => true,
        }
    }
}

impl<T> Drop for OneshotSender<T> {
    fn drop(&mut self) {
        if let Some(shared) = self.shared.take() {
            let hooks = {
                let mut state = shared.lock();
                state.sender_alive = false;
                std::mem::take(&mut state.hooks)
            };
            shared.ready.notify_all();
            run_hooks(hooks);
        }
    }
}

impl<T> fmt::Debug for OneshotSender<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("OneshotSender")
            .field("fired", &self.shared.is_none())
            .finish()
    }
}

impl<T> OneshotReceiver<T> {
    /// Blocks until the value arrives, consuming the receiver.
    ///
    /// # Errors
    /// [`QueueRecvError::Disconnected`] if the sender was dropped unfired.
    pub fn recv(self) -> Result<T, QueueRecvError> {
        let mut state = self.shared.lock();
        loop {
            if let Some(value) = state.value.take() {
                return Ok(value);
            }
            if !state.sender_alive {
                return Err(QueueRecvError::Disconnected);
            }
            state = self
                .shared
                .ready
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Blocks until the value arrives, the sender departs unfired, or
    /// `timeout` elapses.  The receiver survives a timeout, so callers can
    /// keep polling.
    ///
    /// Like the queue's flavour, the timeout re-arms on every call; loops
    /// enforcing one overall budget should use
    /// [`OneshotReceiver::recv_deadline`].
    pub fn recv_timeout(&self, timeout: Duration) -> Result<T, QueueRecvError> {
        self.recv_deadline(Instant::now() + timeout)
    }

    /// Blocks until the value arrives, the sender departs unfired, or the
    /// absolute `deadline` passes.  The receiver survives a timeout; a
    /// deadline already in the past degrades to a non-blocking poll that
    /// still delivers an already-fired value.  This is how a streaming
    /// server waits on a job ticket *and* keeps its heartbeat cadence: one
    /// deadline serves the whole wait, with no per-call drift.
    pub fn recv_deadline(&self, deadline: Instant) -> Result<T, QueueRecvError> {
        let mut state = self.shared.lock();
        loop {
            if let Some(value) = state.value.take() {
                return Ok(value);
            }
            if !state.sender_alive {
                return Err(QueueRecvError::Disconnected);
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(QueueRecvError::Timeout);
            }
            let (guard, _result) = self
                .shared
                .ready
                .wait_timeout(state, deadline - now)
                .unwrap_or_else(PoisonError::into_inner);
            state = guard;
        }
    }

    /// Takes the value without blocking.
    ///
    /// # Errors
    /// [`QueueRecvError::Empty`] while the sender is alive and has not fired;
    /// [`QueueRecvError::Disconnected`] once it was dropped unfired (or the
    /// value was already taken).
    pub fn try_recv(&self) -> Result<T, QueueRecvError> {
        let mut state = self.shared.lock();
        match state.value.take() {
            Some(value) => Ok(value),
            None if state.sender_alive => Err(QueueRecvError::Empty),
            None => Err(QueueRecvError::Disconnected),
        }
    }

    /// Returns `true` once a receive cannot block: the value is ready or the
    /// sender is gone.
    pub fn is_ready(&self) -> bool {
        self.shared.lock().settled()
    }

    /// Registers `hook` to run exactly once, as soon as a receive can no
    /// longer block: when the sender fires, when it is dropped unfired, or
    /// right here if that already happened (a [`resolved`] slot included).
    ///
    /// The hook never runs under the slot's lock, so it may touch the slot
    /// again.  It runs on whichever thread resolves the slot — typically a
    /// worker — so it should be cheap: a queue send that wakes the thread
    /// doing the real work.  Several hooks may be registered; each runs
    /// once.  A hook still pending when the receiver is dropped is dropped
    /// without running.
    pub fn on_ready(&self, hook: Box<dyn FnOnce() + Send>) {
        let mut state = self.shared.lock();
        if state.settled() {
            drop(state);
            hook();
        } else {
            state.hooks.push(hook);
        }
    }
}

/// Runs completion hooks taken out of a slot (after its lock is released).
fn run_hooks(hooks: Vec<Hook>) {
    for hook in hooks {
        hook();
    }
}

impl<T> Drop for OneshotReceiver<T> {
    fn drop(&mut self) {
        // Take any undelivered value out under the lock but drop it after
        // releasing it: its destructor may take other locks (the queue's
        // receiver drop does the same).
        let orphaned = {
            let mut state = self.shared.lock();
            state.receiver_alive = false;
            (state.value.take(), std::mem::take(&mut state.hooks))
        };
        drop(orphaned);
    }
}

impl<T> fmt::Debug for OneshotReceiver<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let state = self.shared.lock();
        f.debug_struct("OneshotReceiver")
            .field("ready", &state.value.is_some())
            .field("sender_alive", &state.sender_alive)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::thread;

    #[test]
    fn value_travels_once() {
        let (tx, rx) = oneshot();
        tx.send(42u32).unwrap();
        assert!(rx.is_ready());
        assert_eq!(rx.recv(), Ok(42));
    }

    #[test]
    fn try_recv_polls_without_blocking() {
        let (tx, rx) = oneshot();
        assert_eq!(rx.try_recv(), Err(QueueRecvError::Empty));
        assert!(!rx.is_ready());
        tx.send(7u8).unwrap();
        assert_eq!(rx.try_recv(), Ok(7));
        // The slot delivers exactly once; afterwards it reads as
        // disconnected, not empty.
        assert_eq!(rx.try_recv(), Err(QueueRecvError::Disconnected));
    }

    #[test]
    fn blocked_receiver_is_woken_by_send() {
        let (tx, rx) = oneshot();
        let waiter = thread::spawn(move || rx.recv());
        thread::sleep(Duration::from_millis(20));
        tx.send("done").unwrap();
        assert_eq!(waiter.join().unwrap(), Ok("done"));
    }

    #[test]
    fn dropped_sender_disconnects_a_blocked_receiver() {
        let (tx, rx) = oneshot::<u8>();
        let waiter = thread::spawn(move || rx.recv());
        thread::sleep(Duration::from_millis(20));
        drop(tx);
        assert_eq!(waiter.join().unwrap(), Err(QueueRecvError::Disconnected));
    }

    #[test]
    fn dropped_receiver_fails_the_send_and_returns_the_value() {
        let (tx, rx) = oneshot();
        drop(rx);
        assert!(tx.is_disconnected());
        assert_eq!(tx.send(5u64), Err(QueueSendError(5)));
    }

    #[test]
    fn recv_timeout_expires_and_recovers() {
        let (tx, rx) = oneshot();
        let start = Instant::now();
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(30)),
            Err(QueueRecvError::Timeout)
        );
        assert!(start.elapsed() >= Duration::from_millis(30));
        tx.send(3u32).unwrap();
        assert_eq!(rx.recv_timeout(Duration::from_millis(30)), Ok(3));
    }

    #[test]
    fn recv_deadline_expires_at_the_absolute_instant() {
        let (tx, rx) = oneshot();
        let deadline = Instant::now() + Duration::from_millis(40);
        assert_eq!(rx.recv_deadline(deadline), Err(QueueRecvError::Timeout));
        assert!(Instant::now() >= deadline);
        // A past deadline is a poll, and a poll still delivers a fired value.
        tx.send(11u32).unwrap();
        assert_eq!(rx.recv_deadline(deadline), Ok(11));
    }

    #[test]
    fn resolved_slot_reads_like_a_fired_slot() {
        let rx = resolved(99u32);
        assert!(rx.is_ready());
        assert_eq!(rx.try_recv(), Ok(99));
        // Exactly-once delivery, same as the post-send state of a normal
        // slot: afterwards the slot reads as disconnected, not empty.
        assert_eq!(rx.try_recv(), Err(QueueRecvError::Disconnected));
        let rx = resolved("cached");
        assert_eq!(rx.recv(), Ok("cached"));
    }

    /// A hook that counts its runs.
    fn counting_hook(count: &Arc<AtomicUsize>) -> Box<dyn FnOnce() + Send> {
        let count = Arc::clone(count);
        Box::new(move || {
            count.fetch_add(1, Ordering::SeqCst);
        })
    }

    #[test]
    fn hook_runs_once_on_send() {
        let (tx, rx) = oneshot();
        let count = Arc::new(AtomicUsize::new(0));
        rx.on_ready(counting_hook(&count));
        rx.on_ready(counting_hook(&count));
        assert_eq!(count.load(Ordering::SeqCst), 0, "nothing fired yet");
        tx.send(1u8).unwrap();
        assert_eq!(count.load(Ordering::SeqCst), 2, "each hook runs once");
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(count.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn hook_runs_once_when_the_sender_is_dropped_unfired() {
        let (tx, rx) = oneshot::<u8>();
        let count = Arc::new(AtomicUsize::new(0));
        rx.on_ready(counting_hook(&count));
        let dropper = thread::spawn(move || drop(tx));
        dropper.join().unwrap();
        assert_eq!(count.load(Ordering::SeqCst), 1);
        assert_eq!(rx.try_recv(), Err(QueueRecvError::Disconnected));
        assert_eq!(count.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn hook_registered_after_the_fire_runs_at_once() {
        let count = Arc::new(AtomicUsize::new(0));
        let (tx, rx) = oneshot();
        tx.send(2u8).unwrap();
        rx.on_ready(counting_hook(&count));
        assert_eq!(count.load(Ordering::SeqCst), 1);
        // Still ready once the value is taken: a receive cannot block.
        assert_eq!(rx.try_recv(), Ok(2));
        rx.on_ready(counting_hook(&count));
        assert_eq!(count.load(Ordering::SeqCst), 2);

        let cached = resolved(3u8);
        cached.on_ready(counting_hook(&count));
        assert_eq!(count.load(Ordering::SeqCst), 3);
        assert_eq!(cached.recv(), Ok(3));
    }

    #[test]
    fn hook_runs_outside_the_slot_lock() {
        // The hook re-enters the slot it was registered on; running it under
        // the lock would deadlock here (std's Mutex is not re-entrant).
        let (tx, rx) = oneshot();
        let rx = Arc::new(rx);
        let (seen_tx, seen_rx) = std::sync::mpsc::channel();
        let inner = Arc::clone(&rx);
        rx.on_ready(Box::new(move || {
            let _ = seen_tx.send((inner.is_ready(), inner.try_recv()));
        }));
        thread::spawn(move || tx.send(9u32).unwrap())
            .join()
            .unwrap();
        assert_eq!(
            seen_rx.recv_timeout(Duration::from_secs(5)),
            Ok((true, Ok(9)))
        );

        // Same for a hook that runs at registration time.
        let rx = Arc::new(resolved(4u32));
        let (seen_tx, seen_rx) = std::sync::mpsc::channel();
        let inner = Arc::clone(&rx);
        rx.on_ready(Box::new(move || {
            let _ = seen_tx.send(inner.try_recv());
        }));
        assert_eq!(seen_rx.recv_timeout(Duration::from_secs(5)), Ok(Ok(4)));
    }

    #[test]
    fn hook_is_dropped_unrun_with_the_receiver() {
        let (tx, rx) = oneshot();
        let count = Arc::new(AtomicUsize::new(0));
        rx.on_ready(counting_hook(&count));
        drop(rx);
        assert_eq!(Arc::strong_count(&count), 1, "the hook was released");
        assert_eq!(tx.send(5u8), Err(QueueSendError(5)));
        assert_eq!(count.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn undelivered_value_is_dropped_with_the_receiver() {
        // A value carrying a reply handle: dropping the receiver must drop
        // the undelivered value so the nested channel observes the hang-up.
        let (tx, rx) = oneshot();
        let (reply_tx, reply_rx) = std::sync::mpsc::channel::<u8>();
        tx.send(reply_tx).unwrap();
        drop(rx);
        assert_eq!(
            reply_rx.recv_timeout(Duration::from_secs(5)),
            Err(std::sync::mpsc::RecvTimeoutError::Disconnected)
        );
    }
}
