//! Unified error type of the Laminar runtime.

use laminar_difc::{FlowError, LabelChangeError};
use laminar_os::OsError;
use std::error::Error;
use std::fmt;

/// Result alias used throughout the `laminar` crate.
pub type LaminarResult<T> = Result<T, LaminarError>;

/// Errors raised by the Laminar runtime.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum LaminarError {
    /// A barrier on a [`crate::Labeled`] cell detected an illegal flow.
    Flow(FlowError),
    /// A label change (e.g. `copy_and_label`) lacked capabilities.
    LabelChange(LabelChangeError),
    /// The security-region entry rules (§4.3.2) rejected the region.
    RegionEntry(&'static str),
    /// The operation is only legal inside a security region.
    NotInRegion,
    /// Another use of the principal excludes this one: a region open on
    /// another OS thread, or kernel access taken outside regions while a
    /// region would push its labels to the same kernel task.
    Busy(&'static str),
    /// An OS syscall performed on behalf of the runtime failed.
    Os(OsError),
    /// An application exception raised by region code (the payload is the
    /// application's message); confined by the region's catch semantics.
    App(String),
    /// A runtime-internal invariant failed; the operation was abandoned
    /// fail-closed (no security state was changed) instead of unwinding.
    Internal(&'static str),
}

impl fmt::Display for LaminarError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LaminarError::Flow(e) => write!(f, "flow violation: {e}"),
            LaminarError::LabelChange(e) => write!(f, "label change rejected: {e}"),
            LaminarError::RegionEntry(why) => {
                write!(f, "security region entry denied: {why}")
            }
            LaminarError::NotInRegion => {
                f.write_str("labeled data may only be accessed inside a security region")
            }
            LaminarError::Busy(why) => write!(f, "principal busy: {why}"),
            LaminarError::Os(e) => write!(f, "os error: {e}"),
            LaminarError::App(msg) => write!(f, "application exception: {msg}"),
            LaminarError::Internal(msg) => {
                write!(f, "internal runtime fault: {msg}")
            }
        }
    }
}

impl Error for LaminarError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            LaminarError::Flow(e) => Some(e),
            LaminarError::LabelChange(e) => Some(e),
            LaminarError::Os(e) => Some(e),
            _ => None,
        }
    }
}

impl From<FlowError> for LaminarError {
    fn from(e: FlowError) -> Self {
        LaminarError::Flow(e)
    }
}

impl From<LabelChangeError> for LaminarError {
    fn from(e: LabelChangeError) -> Self {
        LaminarError::LabelChange(e)
    }
}

impl From<OsError> for LaminarError {
    fn from(e: OsError) -> Self {
        LaminarError::Os(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays() {
        assert!(LaminarError::NotInRegion.to_string().contains("security region"));
        assert!(LaminarError::App("boom".into()).to_string().contains("boom"));
    }

    #[test]
    fn conversions() {
        let e: LaminarError = OsError::NotFound.into();
        assert!(matches!(e, LaminarError::Os(OsError::NotFound)));
    }
}
