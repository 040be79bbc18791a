//! Parser for the SPARQL conjunctive-query fragment.
//!
//! Supported grammar (whitespace-separated tokens):
//!
//! ```text
//! query    := SELECT [DISTINCT] (var+ | '*') WHERE '{' pattern ('.' pattern)* ['.'] '}'
//! pattern  := term pred term
//! term     := '?'name | '<'iri'>' | label
//! pred     := [':']label | '<'iri'>'
//! ```
//!
//! Keywords are case-insensitive. Constant node and predicate labels are
//! resolved against the graph's [`Dictionary`]; unknown labels are errors so
//! that typos surface early rather than silently producing empty results.

use wireframe_graph::Dictionary;

use crate::cq::{ConjunctiveQuery, CqBuilder};
use crate::error::QueryError;

/// Parses a SPARQL conjunctive query against `dictionary`.
pub fn parse_query(input: &str, dictionary: &Dictionary) -> Result<ConjunctiveQuery, QueryError> {
    let tokens = tokenize(input);
    let mut cur = Cursor {
        tokens: &tokens,
        pos: 0,
    };

    expect_keyword(cur.next(), "SELECT")?;

    let mut builder = CqBuilder::new(dictionary);
    let mut projection: Vec<String> = Vec::new();
    let mut project_all = false;
    let mut distinct = false;

    // Projection list up to WHERE.
    loop {
        let tok = cur
            .next()
            .ok_or_else(|| QueryError::Parse("unexpected end after SELECT".into()))?;
        if tok.eq_ignore_ascii_case("DISTINCT") {
            distinct = true;
        } else if tok.eq_ignore_ascii_case("WHERE") {
            break;
        } else if tok == "*" {
            project_all = true;
        } else if let Some(name) = tok.strip_prefix('?') {
            if name.is_empty() {
                return Err(QueryError::Parse("empty variable name in SELECT".into()));
            }
            projection.push(name.to_owned());
        } else {
            return Err(QueryError::Parse(format!(
                "expected variable, '*', DISTINCT or WHERE, found {tok:?}"
            )));
        }
    }
    if projection.is_empty() && !project_all {
        return Err(QueryError::Parse("SELECT list is empty".into()));
    }

    match cur.next() {
        Some("{") => {}
        other => {
            return Err(QueryError::Parse(format!(
                "expected '{{' after WHERE, found {other:?}"
            )))
        }
    }

    if distinct {
        builder.distinct();
    }
    if !project_all {
        for name in &projection {
            builder.project(name);
        }
    }

    // Triple patterns until '}'.
    let mut saw_pattern = false;
    loop {
        let tok = match cur.next() {
            Some(t) => t,
            None => return Err(QueryError::Parse("unterminated WHERE block".into())),
        };
        if tok == "}" {
            break;
        }
        if tok == "." {
            continue; // stray separator
        }
        let subject = tok.to_owned();
        let predicate = cur
            .next()
            .ok_or_else(|| {
                QueryError::Parse(format!("pattern starting at {subject:?} is truncated"))
            })?
            .to_owned();
        if predicate == "." || predicate == "}" {
            return Err(QueryError::Parse(format!(
                "pattern starting at {subject:?} is truncated"
            )));
        }
        let object = cur
            .next()
            .ok_or_else(|| {
                QueryError::Parse(format!("pattern starting at {subject:?} is truncated"))
            })?
            .to_owned();
        if object == "." || object == "}" {
            return Err(QueryError::Parse(format!(
                "pattern starting at {subject:?} is truncated"
            )));
        }
        builder.pattern(
            &strip_iri(&subject),
            &strip_iri(&predicate),
            &strip_iri(&object),
        )?;
        saw_pattern = true;
        // Optional '.' separator before the next pattern or '}'.
        if cur.peek() == Some(".") {
            cur.next();
        }
    }
    if !saw_pattern {
        return Err(QueryError::EmptyQuery);
    }
    if let Some(extra) = cur.peek() {
        return Err(QueryError::Parse(format!(
            "unexpected trailing token {extra:?} after '}}'"
        )));
    }

    builder.build()
}

/// A simple token cursor.
struct Cursor<'a> {
    tokens: &'a [String],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn next(&mut self) -> Option<&'a str> {
        let t = self.tokens.get(self.pos).map(String::as_str);
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn peek(&self) -> Option<&'a str> {
        self.tokens.get(self.pos).map(String::as_str)
    }
}

fn expect_keyword(tok: Option<&str>, kw: &str) -> Result<(), QueryError> {
    match tok {
        Some(t) if t.eq_ignore_ascii_case(kw) => Ok(()),
        other => Err(QueryError::Parse(format!("expected {kw}, found {other:?}"))),
    }
}

fn strip_iri(tok: &str) -> String {
    let t = tok
        .strip_prefix('<')
        .and_then(|t| t.strip_suffix('>'))
        .unwrap_or(tok);
    t.to_owned()
}

/// Splits the input into tokens, treating `{`, `}` and standalone `.` as their
/// own tokens. A trailing `.` attached to a term (`?z.`) is split off; dots
/// inside labels (dates, decimals) are preserved.
fn tokenize(input: &str) -> Vec<String> {
    let mut tokens = Vec::new();
    for raw in input.split_whitespace() {
        let mut rest = raw;
        loop {
            if rest.is_empty() {
                break;
            }
            if let Some(stripped) = rest.strip_prefix('{') {
                tokens.push("{".to_owned());
                rest = stripped;
                continue;
            }
            if let Some(stripped) = rest.strip_prefix('}') {
                tokens.push("}".to_owned());
                rest = stripped;
                continue;
            }
            // Find the earliest brace so "x}" splits correctly.
            let brace = rest.find(['{', '}']);
            let (head, tail) = match brace {
                Some(i) => rest.split_at(i),
                None => (rest, ""),
            };
            let mut head_owned = head.to_owned();
            // Split a trailing '.' that terminates the term (`?z.`), keeping
            // interior dots (dates, decimals) intact.
            if head_owned.len() > 1 && head_owned.ends_with('.') {
                head_owned.pop();
                if !head_owned.is_empty() {
                    tokens.push(head_owned);
                }
                tokens.push(".".to_owned());
            } else if !head_owned.is_empty() {
                tokens.push(head_owned);
            }
            rest = tail;
        }
    }
    tokens
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::Var;
    use wireframe_graph::GraphBuilder;

    fn dict() -> Dictionary {
        let mut b = GraphBuilder::new();
        b.add("alice", "knows", "bob");
        b.add("bob", "worksAt", "acme");
        b.add("acme", "locatedIn", "toronto");
        b.build().dictionary().clone()
    }

    #[test]
    fn parse_chain() {
        let d = dict();
        let q = parse_query(
            "SELECT ?x ?y ?z WHERE { ?x :knows ?y . ?y :worksAt ?z . }",
            &d,
        )
        .unwrap();
        assert_eq!(q.num_patterns(), 2);
        assert_eq!(q.projection().len(), 3);
        assert!(!q.distinct());
    }

    #[test]
    fn parse_distinct_and_star() {
        let d = dict();
        let q = parse_query("select distinct * where { ?x knows ?y }", &d).unwrap();
        assert!(q.distinct());
        assert_eq!(q.projection().len(), 2);
    }

    #[test]
    fn parse_without_trailing_dot() {
        let d = dict();
        let q = parse_query("SELECT ?x WHERE { ?x knows ?y . ?y worksAt ?z }", &d).unwrap();
        assert_eq!(q.num_patterns(), 2);
    }

    #[test]
    fn parse_dot_glued_to_term() {
        let d = dict();
        let q = parse_query("SELECT ?x WHERE { ?x knows ?y. ?y worksAt ?z. }", &d).unwrap();
        assert_eq!(q.num_patterns(), 2);
        assert_eq!(q.num_vars(), 3);
    }

    #[test]
    fn parse_constant_object() {
        let d = dict();
        let q = parse_query("SELECT ?x WHERE { ?x worksAt acme . }", &d).unwrap();
        assert!(q.patterns()[0].object.as_const().is_some());
    }

    #[test]
    fn parse_iri_brackets() {
        let d = dict();
        let q = parse_query("SELECT ?x WHERE { ?x <knows> <bob> . }", &d).unwrap();
        assert!(q.patterns()[0].object.as_const().is_some());
    }

    #[test]
    fn projection_order_is_select_order() {
        let d = dict();
        let q = parse_query("SELECT ?y ?x WHERE { ?x knows ?y . }", &d).unwrap();
        assert_eq!(q.var_name(q.projection()[0]), "y");
        assert_eq!(q.var_name(q.projection()[1]), "x");
        // Variables are numbered by first mention, which is the SELECT list here.
        assert_eq!(q.projection(), &[Var(0), Var(1)]);
    }

    #[test]
    fn errors_missing_select() {
        let d = dict();
        assert!(matches!(
            parse_query("ASK { ?x knows ?y }", &d),
            Err(QueryError::Parse(_))
        ));
    }

    #[test]
    fn errors_empty_select_list() {
        let d = dict();
        assert!(parse_query("SELECT WHERE { ?x knows ?y }", &d).is_err());
    }

    #[test]
    fn errors_unknown_predicate() {
        let d = dict();
        assert!(matches!(
            parse_query("SELECT ?x WHERE { ?x flies ?y }", &d),
            Err(QueryError::UnknownPredicate(_))
        ));
    }

    #[test]
    fn errors_truncated_pattern() {
        let d = dict();
        assert!(parse_query("SELECT ?x WHERE { ?x knows . }", &d).is_err());
        assert!(parse_query("SELECT ?x WHERE { ?x knows }", &d).is_err());
    }

    #[test]
    fn errors_unterminated_block() {
        let d = dict();
        assert!(parse_query("SELECT ?x WHERE { ?x knows ?y .", &d).is_err());
    }

    #[test]
    fn errors_empty_body() {
        let d = dict();
        assert!(matches!(
            parse_query("SELECT ?x WHERE { }", &d),
            Err(QueryError::EmptyQuery)
        ));
    }

    #[test]
    fn errors_on_a_projected_variable_no_pattern_binds() {
        let d = dict();
        assert_eq!(
            parse_query("SELECT ?x ?z WHERE { ?x :knows ?y . }", &d).unwrap_err(),
            QueryError::UnknownVariable("?z".into())
        );
    }

    #[test]
    fn errors_trailing_garbage() {
        let d = dict();
        assert!(parse_query("SELECT ?x WHERE { ?x knows ?y } LIMIT 5", &d).is_err());
    }

    #[test]
    fn tokenizer_splits_braces_and_dots() {
        let toks = tokenize("SELECT ?x WHERE {?x knows ?y.}");
        assert_eq!(
            toks,
            vec!["SELECT", "?x", "WHERE", "{", "?x", "knows", "?y", ".", "}"]
        );
    }

    #[test]
    fn tokenizer_keeps_interior_dots() {
        let toks = tokenize("?d wasBornOnDate 1994-05-12.5 .");
        assert_eq!(toks, vec!["?d", "wasBornOnDate", "1994-05-12.5", "."]);
    }
}
