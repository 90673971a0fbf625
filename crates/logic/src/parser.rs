//! A recursive-descent parser for the ASCII PLTL syntax.
//!
//! Grammar, from loosest to tightest binding (matching
//! [`Formula`]'s `Display`):
//!
//! ```text
//! iff    := imp ( "<->" imp )*                (left-assoc)
//! imp    := or ( "->" imp )?                  (right-assoc)
//! or     := and ( "|" and )*
//! and    := until ( "&" until )*
//! until  := unary ( ("U" | "R" | "B" | "W") until )?   (right-assoc)
//! unary  := ("!" | "X" | "F" | "G" | "[]" | "<>") unary
//!         | "true" | "false" | ident | "(" iff ")"
//! ```
//!
//! `F`/`<>` are eventually, `G`/`[]` always. Identifiers are
//! `[A-Za-z_][A-Za-z0-9_]*` except the keywords.
//!
//! Formulas nest at most [`MAX_DEPTH`] levels deep, counting operators and
//! parentheses: every later pass over a formula recurses on its structure,
//! and a deeper input would overflow a worker thread's stack instead of
//! failing cleanly.

use std::error::Error;
use std::fmt;

use crate::ast::Formula;

/// Parse error with a character position and message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset in the input where the error was detected.
    pub position: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at {}: {}", self.position, self.message)
    }
}

impl Error for ParseError {}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Tok {
    Ident(String),
    True,
    False,
    Not,
    And,
    Or,
    Implies,
    Iff,
    Next,
    Until,
    Release,
    Before,
    WeakUntil,
    Eventually,
    Always,
    LParen,
    RParen,
}

fn lex(input: &str) -> Result<Vec<(usize, Tok)>, ParseError> {
    let bytes = input.as_bytes();
    let mut toks = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            ' ' | '\t' | '\n' | '\r' => i += 1,
            '(' => {
                toks.push((i, Tok::LParen));
                i += 1;
            }
            ')' => {
                toks.push((i, Tok::RParen));
                i += 1;
            }
            '!' => {
                toks.push((i, Tok::Not));
                i += 1;
            }
            '&' => {
                // accept both & and &&
                toks.push((i, Tok::And));
                i += if input[i..].starts_with("&&") { 2 } else { 1 };
            }
            '|' => {
                toks.push((i, Tok::Or));
                i += if input[i..].starts_with("||") { 2 } else { 1 };
            }
            '-' => {
                if input[i..].starts_with("->") {
                    toks.push((i, Tok::Implies));
                    i += 2;
                } else {
                    return Err(ParseError {
                        position: i,
                        message: "expected '->'".into(),
                    });
                }
            }
            '<' => {
                if input[i..].starts_with("<->") {
                    toks.push((i, Tok::Iff));
                    i += 3;
                } else if input[i..].starts_with("<>") {
                    toks.push((i, Tok::Eventually));
                    i += 2;
                } else {
                    return Err(ParseError {
                        position: i,
                        message: "expected '<->' or '<>'".into(),
                    });
                }
            }
            '[' => {
                if input[i..].starts_with("[]") {
                    toks.push((i, Tok::Always));
                    i += 2;
                } else {
                    return Err(ParseError {
                        position: i,
                        message: "expected '[]'".into(),
                    });
                }
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                while i < bytes.len()
                    && ((bytes[i] as char).is_ascii_alphanumeric() || bytes[i] == b'_')
                {
                    i += 1;
                }
                let word = &input[start..i];
                let tok = match word {
                    "true" => Tok::True,
                    "false" => Tok::False,
                    "U" => Tok::Until,
                    "R" => Tok::Release,
                    "B" => Tok::Before,
                    "W" => Tok::WeakUntil,
                    "X" => Tok::Next,
                    "F" => Tok::Eventually,
                    "G" => Tok::Always,
                    _ => Tok::Ident(word.to_owned()),
                };
                toks.push((start, tok));
            }
            other => {
                return Err(ParseError {
                    position: i,
                    message: format!("unexpected character {other:?}"),
                })
            }
        }
    }
    Ok(toks)
}

/// The deepest formula [`parse`] accepts. A formula's depth is its height
/// as a syntax tree, and the parser also counts each open parenthesis,
/// prefix operator and right-associative step while it descends. At this
/// depth a formula still parses, translates and checks on a 2 MiB worker
/// stack in an unoptimized build; one level more is a [`ParseError`].
pub const MAX_DEPTH: usize = 200;

/// A parsed subformula and its depth.
type Term = (Formula, usize);

struct Parser {
    toks: Vec<(usize, Tok)>,
    pos: usize,
    end: usize,
    /// Parentheses, prefix operators and right-associative steps open on
    /// the current descent.
    open: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos).map(|(_, t)| t)
    }

    fn bump(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.pos).map(|(_, t)| t.clone());
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn here(&self) -> usize {
        self.toks.get(self.pos).map_or(self.end, |(p, _)| *p)
    }

    fn error(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            position: self.here(),
            message: message.into(),
        }
    }

    /// `depth`, or an error when it exceeds [`MAX_DEPTH`].
    fn within(&self, depth: usize) -> Result<usize, ParseError> {
        if depth > MAX_DEPTH {
            return Err(self.error(format!("formula nests deeper than {MAX_DEPTH} levels")));
        }
        Ok(depth)
    }

    /// Parses `inner` one level further down the descent.
    fn nested(
        &mut self,
        inner: fn(&mut Parser) -> Result<Term, ParseError>,
    ) -> Result<Term, ParseError> {
        self.open = self.within(self.open + 1)?;
        let term = inner(self)?;
        self.open -= 1;
        Ok(term)
    }

    fn binary_node(
        &self,
        (l, dl): Term,
        (r, dr): Term,
        op: fn(Formula, Formula) -> Formula,
    ) -> Result<Term, ParseError> {
        Ok((op(l, r), self.within(dl.max(dr) + 1)?))
    }

    fn iff(&mut self) -> Result<Term, ParseError> {
        let mut left = self.imp()?;
        while self.peek() == Some(&Tok::Iff) {
            self.bump();
            let right = self.imp()?;
            left = self.binary_node(left, right, Formula::iff)?;
        }
        Ok(left)
    }

    fn imp(&mut self) -> Result<Term, ParseError> {
        let left = self.or()?;
        if self.peek() == Some(&Tok::Implies) {
            self.bump();
            let right = self.nested(Parser::imp)?;
            self.binary_node(left, right, Formula::implies)
        } else {
            Ok(left)
        }
    }

    fn or(&mut self) -> Result<Term, ParseError> {
        let mut left = self.and()?;
        while self.peek() == Some(&Tok::Or) {
            self.bump();
            let right = self.and()?;
            left = self.binary_node(left, right, Formula::or)?;
        }
        Ok(left)
    }

    fn and(&mut self) -> Result<Term, ParseError> {
        let mut left = self.until()?;
        while self.peek() == Some(&Tok::And) {
            self.bump();
            let right = self.until()?;
            left = self.binary_node(left, right, Formula::and)?;
        }
        Ok(left)
    }

    fn until(&mut self) -> Result<Term, ParseError> {
        let left = self.unary()?;
        let op: fn(Formula, Formula) -> Formula = match self.peek() {
            Some(&Tok::Until) => Formula::until,
            Some(&Tok::Release) => Formula::release,
            Some(&Tok::Before) => Formula::before,
            Some(&Tok::WeakUntil) => Formula::weak_until,
            _ => return Ok(left),
        };
        self.bump();
        let right = self.nested(Parser::until)?;
        self.binary_node(left, right, op)
    }

    fn unary(&mut self) -> Result<Term, ParseError> {
        let op: fn(Formula) -> Formula = match self.peek() {
            Some(&Tok::Not) => Formula::not,
            Some(&Tok::Next) => Formula::next,
            Some(&Tok::Eventually) => Formula::eventually,
            Some(&Tok::Always) => Formula::always,
            Some(&Tok::True) => {
                self.bump();
                return Ok((Formula::True, 1));
            }
            Some(&Tok::False) => {
                self.bump();
                return Ok((Formula::False, 1));
            }
            Some(Tok::Ident(_)) => {
                let Some(Tok::Ident(name)) = self.bump() else {
                    unreachable!()
                };
                return Ok((Formula::atom(name), 1));
            }
            Some(&Tok::LParen) => {
                self.bump();
                let inner = self.nested(Parser::iff)?;
                if self.bump() != Some(Tok::RParen) {
                    return Err(self.error("expected ')'"));
                }
                return Ok(inner);
            }
            _ => return Err(self.error("expected a formula")),
        };
        self.bump();
        let (operand, depth) = self.nested(Parser::unary)?;
        Ok((op(operand), self.within(depth + 1)?))
    }
}

/// Parses a PLTL formula from ASCII syntax.
///
/// # Errors
///
/// Returns a [`ParseError`] with position information on malformed input.
///
/// # Example
///
/// ```
/// use rl_logic::{parse, Formula};
///
/// # fn main() -> Result<(), rl_logic::ParseError> {
/// let f = parse("[]<>result")?;
/// assert_eq!(f, Formula::atom("result").eventually().always());
/// let g = parse("a U (b & !c)")?;
/// assert_eq!(g.to_string(), "a U (b & !c)");
/// # Ok(())
/// # }
/// ```
pub fn parse(input: &str) -> Result<Formula, ParseError> {
    let toks = lex(input)?;
    let mut p = Parser {
        toks,
        pos: 0,
        end: input.len(),
        open: 0,
    };
    let (f, _) = p.iff()?;
    if p.pos != p.toks.len() {
        return Err(p.error("trailing input"));
    }
    Ok(f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_paper_property() {
        assert_eq!(
            parse("[]<>result").unwrap(),
            Formula::atom("result").eventually().always()
        );
        assert_eq!(parse("G F result").unwrap(), parse("[]<>result").unwrap());
    }

    #[test]
    fn precedence_until_tighter_than_and() {
        assert_eq!(
            parse("a & b U c").unwrap(),
            Formula::atom("a").and(Formula::atom("b").until(Formula::atom("c")))
        );
    }

    #[test]
    fn until_is_right_associative() {
        assert_eq!(
            parse("a U b U c").unwrap(),
            Formula::atom("a").until(Formula::atom("b").until(Formula::atom("c")))
        );
    }

    #[test]
    fn implication_is_right_associative() {
        assert_eq!(
            parse("a -> b -> c").unwrap(),
            Formula::atom("a").implies(Formula::atom("b").implies(Formula::atom("c")))
        );
    }

    #[test]
    fn before_operator() {
        assert_eq!(
            parse("a B b").unwrap(),
            Formula::atom("a").before(Formula::atom("b"))
        );
    }

    #[test]
    fn errors_have_positions() {
        let err = parse("a U").unwrap_err();
        assert_eq!(err.position, 3);
        let err = parse("a @ b").unwrap_err();
        assert_eq!(err.position, 2);
        let err = parse("(a").unwrap_err();
        assert!(err.message.contains(")"));
    }

    /// Formulas of depth `d` in each shape the cap must see: parentheses,
    /// prefix operators, right-associative chains and left-associative
    /// chains.
    fn deep(d: usize) -> Vec<String> {
        let chain = |op: &str| vec!["a"; d].join(op);
        vec![
            format!("{}a{}", "(".repeat(d), ")".repeat(d)),
            format!("{}a", "X ".repeat(d - 1)),
            format!("{}a", "!".repeat(d - 1)),
            format!(
                "{}{}a{}",
                "X ".repeat(d % 2),
                "X(".repeat(d / 2),
                ")".repeat(d / 2)
            ),
            chain(" -> "),
            chain(" U "),
            chain(" & "),
            chain(" <-> "),
        ]
    }

    #[test]
    fn nesting_is_capped_at_max_depth() {
        for text in deep(MAX_DEPTH) {
            assert!(parse(&text).is_ok(), "{text}");
        }
        for text in deep(MAX_DEPTH + 1) {
            let err = parse(&text).unwrap_err();
            assert_eq!(
                err.message,
                format!("formula nests deeper than {MAX_DEPTH} levels"),
                "{text}"
            );
        }
    }

    #[test]
    fn double_ampersand_accepted() {
        assert_eq!(parse("a && b").unwrap(), parse("a & b").unwrap());
        assert_eq!(parse("a || b").unwrap(), parse("a | b").unwrap());
    }

    #[test]
    fn display_parse_roundtrip_samples() {
        for text in [
            "a U b & c",
            "(a U b) & c",
            "!(a | b) -> X c",
            "[](<>a <-> b R c)",
            "a B (b U c)",
            "X(a & b) | false",
        ] {
            let f = parse(text).unwrap();
            let again = parse(&f.to_string()).unwrap();
            assert_eq!(f, again, "round-trip of {text} via {f}");
        }
    }
}
