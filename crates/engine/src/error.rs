//! Typed errors for stage execution.
//!
//! The engine never panics on behalf of user code: a job that panics on a
//! worker is caught there, the worker survives, and the failure surfaces to
//! the submitting stage as an [`EngineError`] carrying the stage name and
//! the panic payload. Callers decide whether to abort the pipeline or
//! retry — the pool itself stays usable either way.

use std::fmt;

/// Why a stage failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EngineErrorKind {
    /// A job panicked on a worker thread; the payload is the panic message.
    JobPanicked(String),
    /// The pool is shutting down and no longer accepts work.
    PoolShutdown,
    /// A worker died without reporting its result (should not happen while
    /// panics are caught; kept as a defensive terminal state).
    ResultsLost,
}

/// A failed engine stage: which stage, and why.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EngineError {
    /// The stage name as passed to [`crate::Engine::run_tasks`].
    pub stage: String,
    /// The failure kind.
    pub kind: EngineErrorKind,
}

impl EngineError {
    /// Builds an error for `stage`.
    pub fn new(stage: impl Into<String>, kind: EngineErrorKind) -> EngineError {
        EngineError {
            stage: stage.into(),
            kind,
        }
    }
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.kind {
            EngineErrorKind::JobPanicked(msg) => {
                write!(f, "stage '{}': job panicked: {msg}", self.stage)
            }
            EngineErrorKind::PoolShutdown => {
                write!(f, "stage '{}': thread pool shut down", self.stage)
            }
            EngineErrorKind::ResultsLost => {
                write!(f, "stage '{}': stage results lost", self.stage)
            }
        }
    }
}

impl std::error::Error for EngineError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_stage_and_cause() {
        let e = EngineError::new("clean:ranges", EngineErrorKind::JobPanicked("boom".into()));
        let s = e.to_string();
        assert!(s.contains("clean:ranges") && s.contains("boom"), "{s}");
        let e = EngineError::new("x", EngineErrorKind::PoolShutdown);
        assert!(e.to_string().contains("shut down"));
    }
}
