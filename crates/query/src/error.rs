//! Error type for query construction and parsing.

use std::fmt;

/// Errors produced while building or parsing conjunctive queries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryError {
    /// Syntax error in the SPARQL fragment.
    Parse(String),
    /// A predicate label that does not exist in the graph's dictionary.
    UnknownPredicate(String),
    /// A constant node label that does not exist in the graph's dictionary.
    UnknownNode(String),
    /// A variable used but never declared (internal constructor misuse), or
    /// projected but bound by no triple pattern.
    UnknownVariable(String),
    /// The query has no triple patterns.
    EmptyQuery,
    /// The query's query graph is not connected; the engines require a single
    /// connected component (a cross product of components is out of scope).
    Disconnected,
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::Parse(msg) => write!(f, "parse error: {msg}"),
            QueryError::UnknownPredicate(p) => write!(f, "unknown predicate label: {p}"),
            QueryError::UnknownNode(n) => write!(f, "unknown node label: {n}"),
            QueryError::UnknownVariable(v) => write!(f, "unknown variable: {v}"),
            QueryError::EmptyQuery => write!(f, "query has no triple patterns"),
            QueryError::Disconnected => write!(f, "query graph is not connected"),
        }
    }
}

impl std::error::Error for QueryError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert!(QueryError::Parse("x".into()).to_string().contains("parse"));
        assert!(QueryError::UnknownPredicate("p".into())
            .to_string()
            .contains("p"));
        assert!(QueryError::EmptyQuery.to_string().contains("no triple"));
        assert!(QueryError::Disconnected.to_string().contains("connected"));
    }
}
