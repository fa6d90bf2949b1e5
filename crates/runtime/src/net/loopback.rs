//! In-process loopback transport: one mailbox per rank.
//!
//! The reference implementation — delivery is a queue push under a mutex,
//! yet every frame still round-trips the [`super::wire`] codec so the
//! serialized format is exercised bit for bit even without a socket.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};

use super::wire::{decode_frame, encode_frame, Frame};
use super::{Transport, TransportError};

#[derive(Default)]
struct MailboxState {
    queue: VecDeque<(usize, Vec<u8>)>,
    closed: bool,
}

#[derive(Default)]
struct Mailbox {
    state: Mutex<MailboxState>,
    ready: Condvar,
}

/// One rank's endpoint of a loopback set.
pub struct LoopbackEndpoint {
    rank: usize,
    boxes: Arc<Vec<Mailbox>>,
}

/// Create a fully-connected in-process set of `n` endpoints.
pub fn loopback_set(n: usize) -> Vec<Arc<LoopbackEndpoint>> {
    let boxes: Arc<Vec<Mailbox>> = Arc::new((0..n).map(|_| Mailbox::default()).collect());
    (0..n)
        .map(|rank| {
            Arc::new(LoopbackEndpoint {
                rank,
                boxes: Arc::clone(&boxes),
            })
        })
        .collect()
}

impl Transport for LoopbackEndpoint {
    fn rank(&self) -> usize {
        self.rank
    }

    fn nranks(&self) -> usize {
        self.boxes.len()
    }

    /// Each frame is pushed into the mailbox in turn, under one lock, with
    /// one wake-up for the batch.
    fn send_batch(&self, to: usize, frames: &[Frame]) -> Result<(), TransportError> {
        if to >= self.boxes.len() {
            return Err(TransportError::Protocol(format!("no such rank {to}")));
        }
        let encoded = frames.iter().map(|frame| (self.rank, encode_frame(frame)));
        let mailbox = &self.boxes[to];
        let mut state = mailbox.state.lock().unwrap_or_else(|e| e.into_inner());
        // Frames to an already-closed peer are dropped: the run protocol
        // only reaches this during teardown races and error unwinding.
        if !state.closed && !frames.is_empty() {
            state.queue.extend(encoded);
            mailbox.ready.notify_one();
        }
        Ok(())
    }

    fn recv(&self) -> Result<(usize, Frame), TransportError> {
        let mailbox = &self.boxes[self.rank];
        let mut state = mailbox.state.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some((from, bytes)) = state.queue.pop_front() {
                return decode_frame(&bytes).map(|f| (from, f));
            }
            if state.closed {
                return Err(TransportError::Closed);
            }
            state = mailbox.ready.wait(state).unwrap_or_else(|e| e.into_inner());
        }
    }

    fn shutdown(&self) {
        let mailbox = &self.boxes[self.rank];
        let mut state = mailbox.state.lock().unwrap_or_else(|e| e.into_inner());
        state.closed = true;
        mailbox.ready.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_flow_between_endpoints() {
        let set = loopback_set(2);
        set[0].send(1, &Frame::Hello { rank: 0 }).unwrap();
        set[0].send(1, &Frame::Done).unwrap();
        assert_eq!(set[1].recv().unwrap(), (0, Frame::Hello { rank: 0 }));
        assert_eq!(set[1].recv().unwrap(), (0, Frame::Done));
    }

    #[test]
    fn shutdown_releases_a_blocked_recv() {
        let set = loopback_set(1);
        let ep = Arc::clone(&set[0]);
        let h = std::thread::spawn(move || ep.recv());
        std::thread::sleep(std::time::Duration::from_millis(20));
        set[0].shutdown();
        assert_eq!(h.join().unwrap(), Err(TransportError::Closed));
    }
}
