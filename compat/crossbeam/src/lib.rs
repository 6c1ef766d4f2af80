//! Offline stand-in for the `crossbeam` crate.
//!
//! Provides the one piece this workspace uses: [`channel`] — cloneable
//! MPMC channels with bounded (blocking) and unbounded flavors,
//! implemented with a mutex-protected deque and condition variables.
//! Only test code calls it.

pub mod channel {
    use std::collections::VecDeque;
    use std::fmt;
    use std::sync::{Arc, Condvar, Mutex};
    use std::time::{Duration, Instant};

    struct Inner<T> {
        queue: VecDeque<T>,
        capacity: Option<usize>,
        senders: usize,
        receivers: usize,
    }

    struct Shared<T> {
        inner: Mutex<Inner<T>>,
        not_empty: Condvar,
        not_full: Condvar,
    }

    pub struct Sender<T> {
        shared: Arc<Shared<T>>,
    }

    pub struct Receiver<T> {
        shared: Arc<Shared<T>>,
    }

    /// Error returned by `send` when all receivers are gone; carries the
    /// unsent value back, as upstream does.
    pub struct SendError<T>(pub T);

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RecvError;

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum TryRecvError {
        Empty,
        Disconnected,
    }

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum RecvTimeoutError {
        /// The deadline passed with no message available.
        Timeout,
        /// All senders are gone and the queue is drained.
        Disconnected,
    }

    impl fmt::Display for RecvTimeoutError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                RecvTimeoutError::Timeout => {
                    f.write_str("timed out waiting on receive operation")
                }
                RecvTimeoutError::Disconnected => {
                    f.write_str("channel is empty and disconnected")
                }
            }
        }
    }

    impl std::error::Error for RecvTimeoutError {}

    impl<T> fmt::Debug for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("SendError(..)")
        }
    }

    impl<T> fmt::Display for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("sending on a disconnected channel")
        }
    }

    impl fmt::Display for RecvError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("receiving on an empty and disconnected channel")
        }
    }

    impl<T> std::error::Error for SendError<T> {}
    impl std::error::Error for RecvError {}

    fn channel<T>(capacity: Option<usize>) -> (Sender<T>, Receiver<T>) {
        let shared = Arc::new(Shared {
            inner: Mutex::new(Inner {
                queue: VecDeque::new(),
                capacity,
                senders: 1,
                receivers: 1,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        });
        (
            Sender { shared: Arc::clone(&shared) },
            Receiver { shared },
        )
    }

    /// A channel that blocks senders once `cap` messages are queued.
    /// `cap` of zero (a rendezvous channel upstream) is treated as 1.
    pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        channel(Some(cap.max(1)))
    }

    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        channel(None)
    }

    impl<T> Sender<T> {
        /// Block until the value is enqueued (or all receivers are gone).
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            let mut inner = self.shared.inner.lock().unwrap();
            loop {
                if inner.receivers == 0 {
                    return Err(SendError(value));
                }
                let full = inner
                    .capacity
                    .is_some_and(|cap| inner.queue.len() >= cap);
                if !full {
                    inner.queue.push_back(value);
                    drop(inner);
                    self.shared.not_empty.notify_one();
                    return Ok(());
                }
                inner = self.shared.not_full.wait(inner).unwrap();
            }
        }
    }

    impl<T> Receiver<T> {
        /// Block until a value arrives (or all senders are gone and the
        /// queue is drained).
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut inner = self.shared.inner.lock().unwrap();
            loop {
                if let Some(value) = inner.queue.pop_front() {
                    drop(inner);
                    self.shared.not_full.notify_one();
                    return Ok(value);
                }
                if inner.senders == 0 {
                    return Err(RecvError);
                }
                inner = self.shared.not_empty.wait(inner).unwrap();
            }
        }

        /// Block until a value arrives, the channel disconnects, or
        /// `timeout` elapses — whichever happens first.
        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            let deadline = Instant::now() + timeout;
            let mut inner = self.shared.inner.lock().unwrap();
            loop {
                if let Some(value) = inner.queue.pop_front() {
                    drop(inner);
                    self.shared.not_full.notify_one();
                    return Ok(value);
                }
                if inner.senders == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                let now = Instant::now();
                if now >= deadline {
                    return Err(RecvTimeoutError::Timeout);
                }
                let (guard, _timed_out) = self
                    .shared
                    .not_empty
                    .wait_timeout(inner, deadline - now)
                    .unwrap();
                inner = guard;
            }
        }

        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut inner = self.shared.inner.lock().unwrap();
            if let Some(value) = inner.queue.pop_front() {
                drop(inner);
                self.shared.not_full.notify_one();
                Ok(value)
            } else if inner.senders == 0 {
                Err(TryRecvError::Disconnected)
            } else {
                Err(TryRecvError::Empty)
            }
        }

        /// Blocking iterator that ends when the channel disconnects.
        pub fn iter(&self) -> Iter<'_, T> {
            Iter { receiver: self }
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Sender<T> {
            self.shared.inner.lock().unwrap().senders += 1;
            Sender { shared: Arc::clone(&self.shared) }
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Receiver<T> {
            self.shared.inner.lock().unwrap().receivers += 1;
            Receiver { shared: Arc::clone(&self.shared) }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let mut inner = self.shared.inner.lock().unwrap();
            inner.senders -= 1;
            if inner.senders == 0 {
                drop(inner);
                self.shared.not_empty.notify_all();
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            let mut inner = self.shared.inner.lock().unwrap();
            inner.receivers -= 1;
            if inner.receivers == 0 {
                drop(inner);
                self.shared.not_full.notify_all();
            }
        }
    }

    pub struct Iter<'a, T> {
        receiver: &'a Receiver<T>,
    }

    impl<T> Iterator for Iter<'_, T> {
        type Item = T;
        fn next(&mut self) -> Option<T> {
            self.receiver.recv().ok()
        }
    }

    impl<'a, T> IntoIterator for &'a Receiver<T> {
        type Item = T;
        type IntoIter = Iter<'a, T>;
        fn into_iter(self) -> Iter<'a, T> {
            self.iter()
        }
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn bounded_channel_mpmc() {
        let (tx, rx) = crate::channel::bounded::<usize>(2);
        let consumer = {
            let rx = rx.clone();
            std::thread::spawn(move || rx.iter().sum::<usize>())
        };
        let consumer2 = std::thread::spawn(move || rx.iter().sum::<usize>());
        for i in 0..100 {
            tx.send(i).unwrap();
        }
        drop(tx);
        let got = consumer.join().unwrap() + consumer2.join().unwrap();
        assert_eq!(got, (0..100).sum::<usize>());
    }

    #[test]
    fn recv_timeout_times_out_then_delivers() {
        use crate::channel::RecvTimeoutError;
        use std::time::Duration;
        let (tx, rx) = crate::channel::bounded::<u8>(1);
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(10)),
            Err(RecvTimeoutError::Timeout)
        );
        tx.send(7).unwrap();
        assert_eq!(rx.recv_timeout(Duration::from_millis(10)), Ok(7));
        drop(tx);
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(10)),
            Err(RecvTimeoutError::Disconnected)
        );
    }

    #[test]
    fn send_fails_after_receivers_drop() {
        let (tx, rx) = crate::channel::unbounded::<u8>();
        drop(rx);
        assert!(tx.send(1).is_err());
    }
}
