//! Why an online run failed, with the full cause chain intact.

use std::error::Error;
use std::fmt;

use mb_sim::{MemError, RunError};
use warp_core::WarpError;
use workloads::VerifyError;

/// Why an [`OnlineSession`](crate::OnlineSession) run failed.
///
/// Every wrapping variant exposes its phase-specific error through
/// [`Error::source`], and the wrapped errors do the same
/// ([`WarpError`] in particular forwards to the decompile / fabric /
/// patch error beneath it), so a caller can walk the chain end-to-end
/// instead of string-matching display output.
#[derive(Debug)]
pub enum OnlineError {
    /// The simulated program did something illegal during a slice.
    Run(RunError),
    /// An online CAD phase failed for a reason that is not simply "this
    /// region is not WCLA-implementable" (those regions are skipped and
    /// blacklisted, not fatal).
    Warp(WarpError),
    /// Applying or reverting a binary patch faulted on instruction
    /// memory.
    Patch(MemError),
    /// End-of-run memory did not match the workload's golden model.
    Verify(VerifyError),
    /// The timeline budget elapsed before the program exited.
    BudgetExhausted {
        /// Simulated cycles consumed when the runtime gave up.
        cycles: u64,
        /// The configured budget.
        limit: u64,
    },
    /// Advancing the session panicked (in its warp policy, say, or in a
    /// CAD job whose panic the join re-raised); carries the message.
    Panicked(String),
}

impl fmt::Display for OnlineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OnlineError::Run(e) => write!(f, "online run faulted: {e}"),
            OnlineError::Warp(e) => write!(f, "online warp failed: {e}"),
            OnlineError::Patch(e) => write!(f, "online patch failed: {e}"),
            OnlineError::Verify(e) => write!(f, "online run diverged from the golden model: {e}"),
            OnlineError::BudgetExhausted { cycles, limit } => {
                write!(f, "timeline budget exhausted: {cycles} cycles of {limit}")
            }
            OnlineError::Panicked(message) => write!(f, "session panicked: {message}"),
        }
    }
}

impl Error for OnlineError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            OnlineError::Run(e) => Some(e),
            OnlineError::Warp(e) => Some(e),
            OnlineError::Patch(e) => Some(e),
            OnlineError::Verify(e) => Some(e),
            OnlineError::BudgetExhausted { .. } | OnlineError::Panicked(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn source_chain_walks_end_to_end() {
        let inner = WarpError::Patch(warp_wcla::patch::PatchError::NoScratchRegister);
        let outer = OnlineError::Warp(inner);
        let mid = outer.source().expect("OnlineError exposes the WarpError");
        assert!(mid.to_string().contains("patch"));
        let leaf = mid.source().expect("WarpError exposes the PatchError");
        assert!(leaf.to_string().contains("scratch"));
        assert!(leaf.source().is_none());
    }

    #[test]
    fn budget_has_no_source() {
        let e = OnlineError::BudgetExhausted { cycles: 10, limit: 5 };
        assert!(e.source().is_none());
        assert!(e.to_string().contains("10"));
    }
}
