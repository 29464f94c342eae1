//! Cooperative cancellation: the one stop signal every search polls.
//!
//! A [`CancelToken`] is a cloneable flag, optionally with an absolute
//! wall-clock deadline. It fires once the flag is set or the deadline has
//! passed. A portfolio driver hands one to every racing backend; a caller
//! with a time budget hands one with a deadline to the optimal backends.
//! The backends poll it at fixed points (per simplex pivot batch and per
//! node, per backtrack, per CDCL conflict, per II) and abandon the search
//! promptly once it fires. The token lives here rather than in a scheduler
//! crate because `swp-obs` is the one crate every backend already
//! depends on.
//!
//! Whether a token fires before a search finishes depends on the wall
//! clock, so every backend reports a search it stopped as `deadline_hit`,
//! and the schedule cache and the compile service's store refuse to keep
//! such results. A token that never fires cannot change a search, so the
//! token is no part of any cache key.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A shared cancellation flag with an optional deadline.
///
/// The `Default` token is *inert*: it can never fire, costs one `None`
/// check to poll, and allocates nothing — options structs embed one so
/// that the paths without a stop signal stay untouched.
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    live: Option<Live>,
}

/// What a token that can fire carries.
#[derive(Clone, Debug)]
struct Live {
    flag: Arc<AtomicBool>,
    deadline: Option<Instant>,
}

impl CancelToken {
    /// A live token that can later be [`cancel`](Self::cancel)led.
    pub fn new() -> CancelToken {
        CancelToken::live(None)
    }

    /// A live token that also fires by itself once `deadline` has passed.
    pub fn with_deadline(deadline: Instant) -> CancelToken {
        CancelToken::live(Some(deadline))
    }

    fn live(deadline: Option<Instant>) -> CancelToken {
        CancelToken {
            live: Some(Live {
                flag: Arc::new(AtomicBool::new(false)),
                deadline,
            }),
        }
    }

    /// The inert token (same as `Default`): never fires.
    pub fn never() -> CancelToken {
        CancelToken { live: None }
    }

    /// The deadline this token fires at, if it has one.
    pub fn deadline(&self) -> Option<Instant> {
        self.live.as_ref().and_then(|l| l.deadline)
    }

    /// A live token with a fresh flag and this token's deadline:
    /// cancelling the fork reaches no clone of `self`, and the deadline
    /// still reaches the fork.
    pub fn fork(&self) -> CancelToken {
        CancelToken::live(self.deadline())
    }

    /// The same flag without the deadline: cancelling `self` still stops
    /// the result, the deadline no longer does. For work that must finish
    /// once a timed search has given up, like a heuristic fallback.
    pub fn without_deadline(&self) -> CancelToken {
        CancelToken {
            live: self.live.as_ref().map(|l| Live {
                flag: Arc::clone(&l.flag),
                deadline: None,
            }),
        }
    }

    /// Whether this token can fire at all (i.e. is not the inert default).
    /// Pollers use it to decide whether periodic checks are worth paying.
    #[inline]
    pub fn is_real(&self) -> bool {
        self.live.is_some()
    }

    /// Fire the flag. All clones observe it; inert tokens ignore it.
    pub fn cancel(&self) {
        if let Some(l) = &self.live {
            l.flag.store(true, Ordering::Relaxed);
        }
    }

    /// Whether the flag has fired or the deadline has passed.
    #[inline]
    pub fn is_cancelled(&self) -> bool {
        self.live.as_ref().is_some_and(|l| {
            l.flag.load(Ordering::Relaxed) || l.deadline.is_some_and(|d| Instant::now() >= d)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn default_token_is_inert() {
        let t = CancelToken::default();
        assert!(!t.is_real());
        assert!(!t.is_cancelled());
        assert_eq!(t.deadline(), None);
        t.cancel();
        assert!(!t.is_cancelled(), "inert tokens never fire");
    }

    #[test]
    fn clones_share_the_flag() {
        let t = CancelToken::new();
        let u = t.clone();
        assert!(t.is_real() && !t.is_cancelled());
        u.cancel();
        assert!(t.is_cancelled());
        assert!(u.is_cancelled());
    }

    #[test]
    fn independent_tokens_do_not_share() {
        let t = CancelToken::new();
        let u = CancelToken::new();
        t.cancel();
        assert!(!u.is_cancelled());
    }

    #[test]
    fn a_token_fires_at_its_deadline() {
        let at = Instant::now() + Duration::from_millis(30);
        let t = CancelToken::with_deadline(at);
        assert!(t.is_real());
        assert_eq!(t.deadline(), Some(at));
        assert!(!t.is_cancelled(), "not before the deadline");
        std::thread::sleep(Duration::from_millis(40));
        assert!(t.is_cancelled(), "once the deadline has passed");
        assert!(CancelToken::with_deadline(Instant::now()).is_cancelled());
    }

    #[test]
    fn a_fork_keeps_the_deadline_but_has_its_own_flag() {
        let at = Instant::now() + Duration::from_secs(3600);
        let t = CancelToken::with_deadline(at);
        let f = t.fork();
        assert_eq!(f.deadline(), Some(at));
        f.cancel();
        assert!(f.is_cancelled());
        assert!(!t.is_cancelled(), "cancelling a fork leaves the parent");
        t.cancel();
        assert!(!t.fork().is_cancelled(), "a fork starts unfired");
        let expired = CancelToken::with_deadline(Instant::now());
        assert!(expired.fork().is_cancelled(), "but keeps the deadline");
        let inert = CancelToken::never().fork();
        assert!(inert.is_real() && inert.deadline().is_none());
    }

    #[test]
    fn without_deadline_keeps_only_the_flag() {
        let t = CancelToken::with_deadline(Instant::now());
        let u = t.without_deadline();
        assert!(t.is_cancelled() && !u.is_cancelled());
        assert_eq!(u.deadline(), None);
        t.cancel();
        assert!(u.is_cancelled(), "the flag is shared");
        assert!(!CancelToken::never().without_deadline().is_real());
    }
}
