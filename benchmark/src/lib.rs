//! The SeeSaw interactive-loop benchmark (see `README.md`).
//!
//! One load generator drives the real `seesaw_server::Server`, running
//! as a child process, through user sessions — show a batch, take box
//! feedback, realign, look up again — and reports what the user and
//! the operator see ([`endtoend`]). A second, traced run replays the
//! same seeded sessions in-process at three depths and times the calls
//! into each layer from outside ([`traced`]).

pub mod child;
pub mod corpus;
pub mod endtoend;
pub mod load;
pub mod plan;
pub mod report;
pub mod script;
pub mod spec;
pub mod traced;

use std::fmt;

/// Why a benchmark run could not produce a result.
#[derive(Debug)]
pub enum Error {
    /// Bad command-line arguments.
    Usage(String),
    /// Filesystem or process plumbing failed.
    Io(std::io::Error),
    /// Dataset generation, index build, save or load failed.
    Setup(String),
    /// The server child misbehaved (no `ready`, bad exit, bad stats).
    Child(String),
    /// A request failed: an error response, a shed request, an
    /// exhausted session, or a broken connection.
    Failed(String),
    /// The outputs were wrong: depths disagreed, a replay differed, or
    /// the child's request count is not the client's.
    Incorrect(String),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Usage(m) => write!(f, "usage: {m}"),
            Self::Io(e) => write!(f, "i/o: {e}"),
            Self::Setup(m) => write!(f, "set-up: {m}"),
            Self::Child(m) => write!(f, "server child: {m}"),
            Self::Failed(m) => write!(f, "request failed: {m}"),
            Self::Incorrect(m) => write!(f, "incorrect output: {m}"),
        }
    }
}

impl std::error::Error for Error {}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}

impl From<seesaw_server::ClientError> for Error {
    fn from(e: seesaw_server::ClientError) -> Self {
        Self::Failed(e.to_string())
    }
}
