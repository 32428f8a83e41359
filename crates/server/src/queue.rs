//! The admission gate behind the server's backpressure story.
//!
//! Each connection handler corrects its own requests; the gate bounds how
//! many do so at once (`workers` permits) and how many may wait for a
//! permit (`queue_capacity`). Admission is **fail-fast**:
//! [`AdmissionGate::enter`] refuses at once with [`Full`] when the waiting
//! room is full, and the handler replies `Overloaded` on the wire. That
//! keeps the server's memory bounded under any flood: the only admitted
//! state is `workers + queue_capacity` requests.
//!
//! Waiters get permits in arrival order (a ticket counter), and a permit is
//! an RAII guard, so a request that unwinds still gives its permit back.
//! There is no close: with no consumer thread behind the gate, draining is
//! the handlers finishing what they admitted.

use std::sync::{Condvar, Mutex};

/// Why [`AdmissionGate::enter`] refused: every permit is held and the
/// waiting room is full.
#[derive(Debug, PartialEq, Eq)]
pub struct Full;

struct State {
    running: usize,
    waiting: usize,
    /// Ticket the next waiter draws.
    next_ticket: u64,
    /// Ticket of the waiter whose turn it is.
    now_serving: u64,
}

/// A counting semaphore with a bounded, first-come-first-served waiting
/// room.
pub struct AdmissionGate {
    state: Mutex<State>,
    workers: usize,
    queue_capacity: usize,
    turn: Condvar,
}

/// One of the gate's `workers` permits, given back on drop (also on unwind).
pub struct Permit<'a> {
    gate: &'a AdmissionGate,
}

impl AdmissionGate {
    /// A gate with `workers` permits and room for `queue_capacity` waiters
    /// (each minimum 1).
    pub fn new(workers: usize, queue_capacity: usize) -> AdmissionGate {
        AdmissionGate {
            state: Mutex::new(State { running: 0, waiting: 0, next_ticket: 0, now_serving: 0 }),
            workers: workers.max(1),
            queue_capacity: queue_capacity.max(1),
            turn: Condvar::new(),
        }
    }

    /// The configured waiting-room capacity.
    pub fn queue_capacity(&self) -> usize {
        self.queue_capacity
    }

    /// Permits held right now (racy by nature; for telemetry only).
    pub fn running(&self) -> usize {
        self.state.lock().unwrap().running
    }

    /// Callers waiting for a permit right now (telemetry only).
    pub fn waiting(&self) -> usize {
        self.state.lock().unwrap().waiting
    }

    /// Take a permit: at once if one is free and nobody waits, otherwise
    /// after every earlier waiter. Also returns the number waiting when
    /// this caller joined them, itself included (0 for an immediate
    /// permit). Refuses without blocking when the waiting room is full.
    pub fn enter(&self) -> Result<(Permit<'_>, usize), Full> {
        let mut state = self.state.lock().unwrap();
        if state.waiting == 0 && state.running < self.workers {
            state.running += 1;
            return Ok((Permit { gate: self }, 0));
        }
        if state.waiting >= self.queue_capacity {
            return Err(Full);
        }
        state.waiting += 1;
        let queued = state.waiting;
        let ticket = state.next_ticket;
        state.next_ticket += 1;
        while state.now_serving != ticket || state.running >= self.workers {
            state = self.turn.wait(state).unwrap();
        }
        state.waiting -= 1;
        state.running += 1;
        state.now_serving += 1;
        drop(state);
        // The next ticket may be admissible too (more than one permit free).
        self.turn.notify_all();
        Ok((Permit { gate: self }, queued))
    }
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        self.gate.state.lock().unwrap().running -= 1;
        self.gate.turn.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{mpsc, Arc};
    use std::time::Duration;

    /// Spin until `n` callers wait at the gate.
    fn await_waiting(gate: &AdmissionGate, n: usize) {
        while gate.waiting() < n {
            std::thread::yield_now();
        }
    }

    #[test]
    fn capacity_is_a_hard_ceiling() {
        let gate = Arc::new(AdmissionGate::new(2, 2));
        let (a, queued_a) = gate.enter().unwrap();
        let (b, queued_b) = gate.enter().unwrap();
        assert_eq!((queued_a, queued_b), (0, 0), "free permits are taken at once");
        assert_eq!(gate.running(), 2);
        let (tx, rx) = mpsc::channel();
        let waiters: Vec<_> = (0..2)
            .map(|_| {
                let (gate, tx) = (gate.clone(), tx.clone());
                std::thread::spawn(move || {
                    let (_permit, queued) = gate.enter().unwrap();
                    tx.send(queued).unwrap();
                })
            })
            .collect();
        await_waiting(&gate, 2);
        assert_eq!(gate.enter().err(), Some(Full), "the waiting room is full");
        drop(a);
        drop(b);
        let mut queued: Vec<usize> = rx.iter().take(2).collect();
        queued.sort_unstable();
        assert_eq!(queued, [1, 2], "each waiter counts itself and those ahead");
        for w in waiters {
            w.join().unwrap();
        }
        assert_eq!((gate.running(), gate.waiting()), (0, 0));
        assert_eq!(gate.enter().map(|(_, queued)| queued), Ok(0));
    }

    #[test]
    fn waiters_are_admitted_in_arrival_order() {
        let gate = Arc::new(AdmissionGate::new(1, 8));
        let held = gate.enter().unwrap();
        let order = Arc::new(Mutex::new(Vec::new()));
        let waiters: Vec<_> = (0..5)
            .map(|i| {
                let (g, order) = (gate.clone(), order.clone());
                // Each waiter is queued before the next one starts.
                let w = std::thread::spawn(move || {
                    let _permit = g.enter().unwrap();
                    order.lock().unwrap().push(i);
                    std::thread::sleep(Duration::from_millis(1));
                });
                await_waiting(&gate, i + 1);
                w
            })
            .collect();
        drop(held);
        for w in waiters {
            w.join().unwrap();
        }
        assert_eq!(*order.lock().unwrap(), [0, 1, 2, 3, 4]);
    }

    #[test]
    fn a_panicking_holder_gives_its_permit_back() {
        let gate = Arc::new(AdmissionGate::new(1, 1));
        let g = gate.clone();
        let died = std::thread::spawn(move || {
            let _permit = g.enter().unwrap();
            panic!("holder dies");
        });
        assert!(died.join().is_err());
        assert_eq!(gate.running(), 0);
        let (_permit, queued) = gate.enter().expect("the permit came back");
        assert_eq!(queued, 0);
    }

    #[test]
    fn many_producers_and_consumers_conserve_items() {
        let workers = 2;
        let gate = Arc::new(AdmissionGate::new(workers, 3));
        let (inside, peak) = (Arc::new(AtomicUsize::new(0)), Arc::new(AtomicUsize::new(0)));
        let callers: Vec<_> = (0..6)
            .map(|_| {
                let (gate, inside, peak) = (gate.clone(), inside.clone(), peak.clone());
                std::thread::spawn(move || {
                    let (mut admitted, mut refused) = (0usize, 0usize);
                    for i in 0..100 {
                        match gate.enter() {
                            Ok((_permit, _)) => {
                                let now = inside.fetch_add(1, Ordering::SeqCst) + 1;
                                peak.fetch_max(now, Ordering::SeqCst);
                                if i % 7 == 0 {
                                    std::thread::yield_now();
                                }
                                inside.fetch_sub(1, Ordering::SeqCst);
                                admitted += 1;
                            }
                            Err(Full) => refused += 1,
                        }
                    }
                    (admitted, refused)
                })
            })
            .collect();
        let (mut admitted, mut refused) = (0, 0);
        for c in callers {
            let (a, r) = c.join().unwrap();
            admitted += a;
            refused += r;
        }
        assert!(admitted > 0);
        assert_eq!(admitted + refused, 600, "every call is admitted exactly once or refused");
        assert!(peak.load(Ordering::SeqCst) <= workers, "never more than `workers` inside");
        assert_eq!((gate.running(), gate.waiting()), (0, 0), "every permit came back");
    }
}
