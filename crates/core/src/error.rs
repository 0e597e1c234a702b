//! The pipeline's error type.
//!
//! [`crate::fused::run_fused`] returns `Result`: execution failures (a
//! panicking closure on a worker, an engine shutting down)
//! arrive as [`pol_engine::EngineError`], persistence failures as
//! [`crate::codec::CodecError`]. Both convert into [`PipelineError`] via
//! `?`, so drivers handle one type.

use crate::codec::CodecError;
use pol_engine::EngineError;
use std::fmt;

/// Why a pipeline run failed.
#[derive(Debug)]
pub enum PipelineError {
    /// A stage failed on the execution engine.
    Engine(EngineError),
    /// Loading or storing an inventory failed.
    Codec(CodecError),
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::Engine(e) => write!(f, "pipeline execution failed: {e}"),
            PipelineError::Codec(e) => write!(f, "inventory codec failed: {e}"),
        }
    }
}

impl std::error::Error for PipelineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PipelineError::Engine(e) => Some(e),
            PipelineError::Codec(e) => Some(e),
        }
    }
}

impl From<EngineError> for PipelineError {
    fn from(e: EngineError) -> Self {
        PipelineError::Engine(e)
    }
}

impl From<CodecError> for PipelineError {
    fn from(e: CodecError) -> Self {
        PipelineError::Codec(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pol_engine::EngineErrorKind;

    #[test]
    fn wraps_engine_errors() {
        let e: PipelineError =
            EngineError::new("trips:extract", EngineErrorKind::ResultsLost).into();
        assert!(e.to_string().contains("trips:extract"));
        assert!(std::error::Error::source(&e).is_some());
    }
}
