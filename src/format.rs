//! Text formats for systems, used by the `rlcheck` CLI.
//!
//! Two self-describing line-based formats are supported; the first
//! non-comment line selects the kind.
//!
//! # Transition systems (`system`)
//!
//! ```text
//! system
//! alphabet: request result reject lock free
//! initial: idle
//! idle  request -> busy
//! busy  result  -> idle
//! # comments and blank lines are ignored
//! ```
//!
//! States are named and interned on first use.
//!
//! # Petri nets (`petri`)
//!
//! ```text
//! petri
//! place idle 1
//! place busy 0
//! trans request: idle -> busy
//! trans grab:    busy 2*idle -> busy
//! ```
//!
//! `place <name> <initial-tokens>` declares places; `trans <name>: <pre> ->
//! <post>` declares transitions where each side lists places, optionally
//! weighted as `k*<place>`. The net's behavior is its bounded reachability
//! graph.

use std::collections::{BTreeMap, HashMap};
use std::error::Error;
use std::fmt;

use rl_automata::{Alphabet, TransitionSystem};
use rl_petri::{reachability_graph, PetriNet, DEFAULT_MARKING_LIMIT};

/// Errors from parsing system descriptions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FormatError {
    /// 1-based line number (0 when the error is global).
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for FormatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(f, "{}", self.message)
        } else {
            write!(f, "line {}: {}", self.line, self.message)
        }
    }
}

impl Error for FormatError {}

fn err(line: usize, message: impl Into<String>) -> FormatError {
    FormatError {
        line,
        message: message.into(),
    }
}

/// Parses either format, dispatching on the header line.
///
/// # Errors
///
/// Returns a [`FormatError`] with a line number on malformed input, or
/// without one (line 0) when a Petri net declares no transitions or its
/// reachability graph exceeds the default marking limit.
pub fn parse_system(text: &str) -> Result<TransitionSystem, FormatError> {
    let mut lines = text
        .lines()
        .enumerate()
        .map(|(i, l)| (i + 1, l.split('#').next().unwrap_or("").trim()))
        .filter(|(_, l)| !l.is_empty());
    match lines.next() {
        Some((_, "system")) => parse_transition_system(lines),
        Some((_, "petri")) => parse_petri(lines),
        Some((n, other)) => Err(err(
            n,
            format!("expected header 'system' or 'petri', found {other:?}"),
        )),
        None => Err(err(0, "empty input")),
    }
}

fn parse_transition_system<'a>(
    lines: impl Iterator<Item = (usize, &'a str)>,
) -> Result<TransitionSystem, FormatError> {
    let mut alphabet: Option<Alphabet> = None;
    let mut initial_name: Option<&str> = None;
    let mut transitions: Vec<(usize, &str, &str, &str)> = Vec::new();

    for (n, line) in lines {
        if let Some(rest) = line.strip_prefix("alphabet:") {
            if alphabet.is_some() {
                return Err(err(n, "second 'alphabet:' line"));
            }
            alphabet =
                Some(Alphabet::new(rest.split_whitespace()).map_err(|e| err(n, e.to_string()))?);
        } else if let Some(rest) = line.strip_prefix("initial:") {
            if initial_name.is_some() {
                return Err(err(n, "second 'initial:' line"));
            }
            let mut names = rest.split_whitespace();
            let (Some(name), None) = (names.next(), names.next()) else {
                return Err(err(n, "'initial:' must name exactly one state"));
            };
            initial_name = Some(name);
        } else {
            // "<src> <action> -> <dst>"
            let Some((lhs, rhs)) = line.split_once("->") else {
                return Err(err(n, format!("expected a transition, found {line:?}")));
            };
            let mut parts = lhs
                .split_whitespace()
                .chain(["->"])
                .chain(rhs.split_whitespace());
            let (Some(src), Some(action), Some("->"), Some(dst), None) = (
                parts.next(),
                parts.next(),
                parts.next(),
                parts.next(),
                parts.next(),
            ) else {
                return Err(err(n, "transition must be '<src> <action> -> <dst>'"));
            };
            transitions.push((n, src, action, dst));
        }
    }
    let alphabet = alphabet.ok_or_else(|| err(0, "missing 'alphabet:' line"))?;
    let initial_name = initial_name.ok_or_else(|| err(0, "missing 'initial:' line"))?;

    let mut ts = TransitionSystem::new(alphabet.clone());
    // State names come from outside the program: keep the default,
    // collision-resistant hasher.
    let mut states: HashMap<&str, usize> = HashMap::new();
    let mut intern = |name: &'a str, ts: &mut TransitionSystem| -> usize {
        *states
            .entry(name)
            .or_insert_with(|| ts.add_labeled_state(name))
    };
    let init = intern(initial_name, &mut ts);
    ts.set_initial(init);
    for (n, src, action, dst) in transitions {
        let sym = alphabet
            .symbol(action)
            .ok_or_else(|| err(n, format!("unknown action {action:?}")))?;
        let s = intern(src, &mut ts);
        let d = intern(dst, &mut ts);
        ts.add_transition(s, sym, d);
    }
    Ok(ts)
}

fn parse_weighted(
    n: usize,
    text: &str,
    places: &BTreeMap<String, usize>,
) -> Result<Vec<(usize, u32)>, FormatError> {
    let mut out = Vec::new();
    for token in text.split_whitespace() {
        let (weight, name) = match token.split_once('*') {
            Some((w, name)) => (
                w.parse::<u32>()
                    .map_err(|_| err(n, format!("bad weight in {token:?}")))?,
                name,
            ),
            None => (1, token),
        };
        let &place = places
            .get(name)
            .ok_or_else(|| err(n, format!("unknown place {name:?}")))?;
        out.push((place, weight));
    }
    Ok(out)
}

fn parse_petri<'a>(
    lines: impl Iterator<Item = (usize, &'a str)>,
) -> Result<TransitionSystem, FormatError> {
    let mut net = PetriNet::new();
    let mut places: BTreeMap<String, usize> = BTreeMap::new();
    for (n, line) in lines {
        if let Some(rest) = line.strip_prefix("place ") {
            let parts: Vec<&str> = rest.split_whitespace().collect();
            let [name, tokens] = parts.as_slice() else {
                return Err(err(n, "place line must be 'place <name> <tokens>'"));
            };
            let tokens: u32 = tokens
                .parse()
                .map_err(|_| err(n, format!("bad token count {tokens:?}")))?;
            let id = net
                .add_place(*name, tokens)
                .map_err(|e| err(n, e.to_string()))?;
            places.insert((*name).to_owned(), id);
        } else if let Some(rest) = line.strip_prefix("trans ") {
            let Some((name, arcs)) = rest.split_once(':') else {
                return Err(err(n, "transition must be 'trans <name>: <pre> -> <post>'"));
            };
            let Some((pre, post)) = arcs.split_once("->") else {
                return Err(err(n, "transition arcs must be '<pre> -> <post>'"));
            };
            let pre = parse_weighted(n, pre, &places)?;
            let post = parse_weighted(n, post, &places)?;
            net.add_transition(name.trim(), pre, post)
                .map_err(|e| err(n, e.to_string()))?;
        } else {
            return Err(err(
                n,
                format!("expected 'place' or 'trans', found {line:?}"),
            ));
        }
    }
    // Errors about the whole net carry no line (line 0).
    if net.transitions().is_empty() {
        return Err(err(
            0,
            "petri net declares no transitions; add a 'trans <name>: <pre> -> <post>' line",
        ));
    }
    reachability_graph(&net, DEFAULT_MARKING_LIMIT).map_err(|e| err(0, e.to_string()))
}

/// Renders a transition system back into the `system` text format.
pub fn render_system(ts: &TransitionSystem) -> String {
    let mut out = String::from("system\n");
    out.push_str("alphabet:");
    for name in ts.alphabet().names() {
        out.push(' ');
        out.push_str(&name);
    }
    out.push('\n');
    let name_of = |q: usize| -> String { ts.state_label(q).unwrap_or_else(|| format!("s{q}")) };
    out.push_str(&format!("initial: {}\n", name_of(ts.initial())));
    for (p, a, q) in ts.transitions() {
        out.push_str(&format!(
            "{} {} -> {}\n",
            name_of(p),
            ts.alphabet().name(a),
            name_of(q)
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const CLOCK: &str = "\
system
alphabet: tick tock
initial: s0
s0 tick -> s1   # advance
s1 tock -> s0
";

    #[test]
    fn parses_transition_system() {
        let ts = parse_system(CLOCK).unwrap();
        assert_eq!(ts.state_count(), 2);
        assert_eq!(ts.transition_count(), 2);
        let tick = ts.alphabet().symbol("tick").unwrap();
        assert!(ts.admits(&[tick]));
    }

    #[test]
    fn roundtrips_through_render() {
        let ts = parse_system(CLOCK).unwrap();
        let text = render_system(&ts);
        let back = parse_system(&text).unwrap();
        assert_eq!(ts.state_count(), back.state_count());
        assert_eq!(ts.transition_count(), back.transition_count());
    }

    #[test]
    fn parses_petri_net() {
        let src = "\
petri
place idle 1
place busy 0
trans go:   idle -> busy
trans back: busy -> idle
";
        let ts = parse_system(src).unwrap();
        assert_eq!(ts.state_count(), 2);
        let go = ts.alphabet().symbol("go").unwrap();
        let back = ts.alphabet().symbol("back").unwrap();
        assert!(ts.admits(&[go, back, go]));
    }

    #[test]
    fn weighted_arcs_parse() {
        let src = "\
petri
place pool 4
place out 0
trans take2: 2*pool -> out
";
        let ts = parse_system(src).unwrap();
        // 4 → 2 → 0 tokens: three markings.
        assert_eq!(ts.state_count(), 3);
    }

    #[test]
    fn error_messages_carry_lines() {
        let bad = "system\nalphabet: a\ninitial: s0\ns0 zz -> s1\n";
        let e = parse_system(bad).unwrap_err();
        assert_eq!(e.line, 4);
        assert!(e.message.contains("zz"));

        let bad2 = "nope\n";
        assert!(parse_system(bad2).unwrap_err().message.contains("header"));

        let bad3 = "system\ninitial: s0\ns0 a -> s1\n";
        assert!(parse_system(bad3).unwrap_err().message.contains("alphabet"));
    }

    #[test]
    fn malformed_headers_and_state_names_are_rejected() {
        let cases = [
            ("alphabet: a\nalphabet: b\n", 3, "second 'alphabet:'"),
            (
                "alphabet: a\ninitial: s\ninitial: t\n",
                4,
                "second 'initial:'",
            ),
            ("alphabet: a\ninitial:\n", 3, "exactly one state"),
            ("alphabet: a\ninitial: s t\n", 3, "exactly one state"),
            ("alphabet: a\ninitial: x\nx a -> y z\n", 4, "<dst>"),
            ("alphabet: a\ninitial: x\nx a ->\n", 4, "<dst>"),
        ];
        for (body, line, needle) in cases {
            let e = parse_system(&format!("system\n{body}s a -> s\n")).unwrap_err();
            assert_eq!(e.line, line, "{body:?}: {e}");
            assert!(e.message.contains(needle), "{body:?}: {e}");
        }
    }

    #[test]
    fn unbounded_net_reported() {
        let src = "petri\nplace p 0\ntrans spawn: -> p\n";
        let e = parse_system(src).unwrap_err();
        assert!(e.message.contains("exceeded"));
        // A whole-net error names no line.
        assert_eq!(e.line, 0);
        assert!(!e.to_string().contains("line"), "{e}");
    }
}
