//! Error type of the serving layer.

use lhnn::ModelIoError;

/// Errors surfaced by the registry and the inference engine.
#[derive(Debug)]
pub enum ServeError {
    /// No model registered under the requested name.
    UnknownModel(String),
    /// A model failed registry validation, or a request's inputs do not
    /// match the resolved model's architecture.
    Incompatible(String),
    /// Loading a checkpoint failed (I/O, format or architecture mismatch).
    Model(ModelIoError),
    /// A name is already registered (use `replace` to hot-swap).
    AlreadyRegistered(String),
    /// A placement-loop session could not build or rebuild its pipeline
    /// (e.g. every net filtered out at the current placement), or refused
    /// a delta naming a cell outside its circuit or a non-finite position.
    Session(String),
    /// State behind a lock was lost to a panic and cannot be re-derived
    /// (e.g. a session pipeline wedged mid-update). Unlike re-derivable
    /// engine state — caches, stats, queues — which recovers from mutex
    /// poisoning transparently, this error is permanent for the surface
    /// that returns it: drop and reopen it.
    Poisoned(String),
    /// The engine is shutting down; the request was not accepted.
    ShuttingDown,
    /// The worker serving this request died before replying (a panic in
    /// the forward pass). Other workers keep serving.
    WorkerLost,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::UnknownModel(name) => write!(f, "no model registered as `{name}`"),
            ServeError::Incompatible(msg) => write!(f, "incompatible request: {msg}"),
            ServeError::Model(e) => write!(f, "checkpoint rejected: {e}"),
            ServeError::AlreadyRegistered(name) => {
                write!(f, "model `{name}` is already registered")
            }
            ServeError::Session(msg) => write!(f, "session pipeline failed: {msg}"),
            ServeError::Poisoned(msg) => write!(f, "state lost to a panic: {msg}"),
            ServeError::ShuttingDown => write!(f, "inference engine is shutting down"),
            ServeError::WorkerLost => write!(f, "worker died before replying"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Model(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ModelIoError> for ServeError {
    fn from(e: ModelIoError) -> Self {
        ServeError::Model(e)
    }
}

/// Convenience alias.
pub type Result<T> = std::result::Result<T, ServeError>;
