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
//! States are named and numbered on first mention: the initial state is 0,
//! then each transition names its source, then its target. The headers may
//! come anywhere. `#` starts a comment; whitespace is whatever
//! `char::is_whitespace` accepts. The first `->` of a line splits it, so
//! `s a->t` is a transition and a target may itself hold `->`.
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

use std::collections::hash_map::RandomState;
use std::collections::{BTreeMap, HashMap};
use std::error::Error;
use std::fmt;
use std::hash::{BuildHasher, BuildHasherDefault, Hash, Hasher};

use rl_automata::{Alphabet, Symbol, TransitionSystem};
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
    let mut lines = Lines { text, pos: 0, n: 0 };
    match lines.next_line() {
        Some(Line { text: "system", .. }) => parse_transition_system(&mut lines),
        Some(Line { text: "petri", .. }) => parse_petri(std::iter::from_fn(|| {
            lines.next_line().map(|l| (l.n, l.text))
        })),
        Some(Line { n, text: other, .. }) => Err(err(
            n,
            format!("expected header 'system' or 'petri', found {other:?}"),
        )),
        None => Err(err(0, "empty input")),
    }
}

/// One non-blank line, read by [`Lines::next_line`].
struct Line<'a> {
    /// 1-based line number.
    n: usize,
    /// The line up to its first `#`, trimmed.
    text: &'a str,
    /// Whether `text` holds `->`.
    arrow: bool,
    /// The words of `text` as `<src> <action> -> <dst>` reads them: the
    /// whitespace-separated words before the first `->`, that `->`, then
    /// the words after it. Only the first four are kept.
    parts: [&'a str; 4],
    /// How many words there are, kept or not.
    words: usize,
}

/// The lines of a text, each read in one pass over its bytes that cuts the
/// comment, trims and splits the words. Whitespace is `char::is_whitespace`,
/// as for `str::trim` and `str::split_whitespace`: ASCII bytes are judged by
/// [`CLASS`], any other char is decoded in the same loop.
struct Lines<'a> {
    text: &'a str,
    /// Where the next line starts.
    pos: usize,
    /// The number of the line read last.
    n: usize,
}

/// A byte inside a word.
const WORD: u8 = 0;
/// ASCII whitespace.
const SPACE: u8 = 1;
/// `\n` or `#`: the end of what a line says.
const STOP: u8 = 2;
/// `-`: maybe the start of `->`.
const DASH: u8 = 3;
/// The first byte of a non-ASCII char.
const WIDE: u8 = 4;

/// The class of every byte value.
static CLASS: [u8; 256] = {
    let mut class = [WORD; 256];
    let mut b = 0x80;
    while b < 256 {
        class[b] = WIDE;
        b += 1;
    }
    class[b' ' as usize] = SPACE;
    class[b'\t' as usize] = SPACE;
    class[b'\r' as usize] = SPACE;
    class[0x0b] = SPACE;
    class[0x0c] = SPACE;
    class[b'\n' as usize] = STOP;
    class[b'#' as usize] = STOP;
    class[b'-' as usize] = DASH;
    class
};

impl<'a> Lines<'a> {
    /// The next line that is not blank once its comment is cut.
    fn next_line(&mut self) -> Option<Line<'a>> {
        let text = self.text;
        let bytes = text.as_bytes();
        let class = |i: usize| bytes.get(i).map_or(STOP, |&b| CLASS[usize::from(b)]);
        // The char starting at `i`, for a `WIDE` byte there.
        let wide = |i: usize| text[i..].chars().next().expect("i is a char boundary");
        while self.pos < bytes.len() {
            self.n += 1;
            let mut line = Line {
                n: self.n,
                text: "",
                arrow: false,
                parts: [""; 4],
                words: 0,
            };
            let (mut first, mut last) = (usize::MAX, 0);
            let mut i = self.pos;
            loop {
                // Between words.
                match class(i) {
                    SPACE => {
                        i += 1;
                        continue;
                    }
                    STOP => break,
                    WIDE if wide(i).is_whitespace() => {
                        i += wide(i).len_utf8();
                        continue;
                    }
                    _ => {}
                }
                let from = i;
                if !line.arrow && bytes[i..].starts_with(b"->") {
                    line.arrow = true;
                    i += 2;
                } else {
                    // Inside a word.
                    loop {
                        while class(i) == WORD {
                            i += 1;
                        }
                        match class(i) {
                            DASH if line.arrow || !bytes[i..].starts_with(b"->") => i += 1,
                            WIDE if !wide(i).is_whitespace() => i += wide(i).len_utf8(),
                            _ => break,
                        }
                    }
                }
                if let Some(slot) = line.parts.get_mut(line.words) {
                    *slot = &text[from..i];
                }
                line.words += 1;
                first = first.min(from);
                last = i;
            }
            self.pos = match bytes.get(i) {
                Some(b'\n') => i + 1,
                _ => text[i..].find('\n').map_or(bytes.len(), |k| i + k + 1),
            };
            if line.words > 0 {
                line.text = &text[first..last];
                return Some(line);
            }
        }
        None
    }
}

fn parse_transition_system(lines: &mut Lines<'_>) -> Result<TransitionSystem, FormatError> {
    let text_len = lines.text.len();
    let mut alphabet: Option<Alphabet> = None;
    let mut initial_name: Option<&str> = None;
    // Transitions are resolved as they are read once both headers are
    // known; those read before then wait here, in line order.
    let mut rows: Option<Rows<'_>> = None;
    let mut early: Vec<Edge<'_>> = Vec::new();

    while let Some(line) = lines.next_line() {
        let n = line.n;
        if let Some(rest) = line.text.strip_prefix("alphabet:") {
            if alphabet.is_some() {
                return Err(err(n, "second 'alphabet:' line"));
            }
            alphabet =
                Some(Alphabet::new(rest.split_whitespace()).map_err(|e| err(n, e.to_string()))?);
        } else if let Some(rest) = line.text.strip_prefix("initial:") {
            if initial_name.is_some() {
                return Err(err(n, "second 'initial:' line"));
            }
            let mut names = rest.split_whitespace();
            let (Some(name), None) = (names.next(), names.next()) else {
                return Err(err(n, "'initial:' must name exactly one state"));
            };
            initial_name = Some(name);
        } else if !line.arrow {
            return Err(err(
                n,
                format!("expected a transition, found {:?}", line.text),
            ));
        } else if let (4, [src, action, "->", dst]) = (line.words, line.parts) {
            let edge = Edge {
                n,
                src,
                action,
                dst,
            };
            match (&mut rows, &alphabet, initial_name) {
                (Some(rows), _, _) => rows.add(edge),
                (None, Some(alphabet), Some(initial)) => {
                    let rows = rows.insert(Rows::new(alphabet.clone(), initial, text_len));
                    early.drain(..).for_each(|e| rows.add(e));
                    rows.add(edge);
                }
                _ => early.push(edge),
            }
        } else {
            return Err(err(n, "transition must be '<src> <action> -> <dst>'"));
        }
    }
    let alphabet = alphabet.ok_or_else(|| err(0, "missing 'alphabet:' line"))?;
    let initial_name = initial_name.ok_or_else(|| err(0, "missing 'initial:' line"))?;
    let mut rows = rows.unwrap_or_else(|| Rows::new(alphabet, initial_name, text_len));
    early.into_iter().for_each(|e| rows.add(e));
    rows.finish()
}

/// A transition line `<src> <action> -> <dst>`, with its line number.
struct Edge<'a> {
    n: usize,
    src: &'a str,
    action: &'a str,
    dst: &'a str,
}

/// A state name with its hash, computed once: the table re-buckets by the
/// stored hash when it grows instead of hashing every name again. The hash
/// comes from the default keyed hasher, since state names come from
/// outside the program.
#[derive(Clone, Copy, PartialEq, Eq)]
struct HashedName<'a> {
    hash: u64,
    name: &'a str,
}

impl Hash for HashedName<'_> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

/// Hands on the one `u64` a [`HashedName`] writes.
#[derive(Default)]
struct StoredHash(u64);

impl Hasher for StoredHash {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // Only `write_u64` is ever called; fold anything else in anyway.
        for &b in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(b);
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = n;
    }
}

/// The system being read: states numbered in order of first mention (the
/// initial state first), each with its row of `(symbol, successor)` pairs.
struct Rows<'a> {
    alphabet: Alphabet,
    keys: RandomState,
    index: HashMap<HashedName<'a>, usize, BuildHasherDefault<StoredHash>>,
    names: Vec<&'a str>,
    rows: Vec<Vec<(Symbol, usize)>>,
    /// Names resolved so far, so that a repeated name is resolved without
    /// a hash or a search.
    actions: Memo<'a, Symbol>,
    states: Memo<'a, usize>,
    /// The source of the line before: consecutive lines often share it.
    last_src: (&'a str, usize),
    /// The first transition with an action outside the alphabet. Later
    /// lines are still read, since a malformed line anywhere wins.
    unknown: Option<FormatError>,
}

impl<'a> Rows<'a> {
    /// Starts a system with the state `initial`; `text_len`, the length of
    /// the whole text, sizes the memo of state names.
    fn new(alphabet: Alphabet, initial: &'a str, text_len: usize) -> Rows<'a> {
        // A guess at the state count that is right for generated systems
        // (a line of about 20 bytes per transition, a few per state) and
        // costs little when wrong.
        let guess = (text_len / 64).min(1 << 16);
        let mut rows = Rows {
            actions: Memo::new(2 * alphabet.len(), Symbol::from_index(0)),
            states: Memo::new(text_len / 32, 0),
            alphabet,
            keys: RandomState::new(),
            index: HashMap::with_capacity_and_hasher(guess, BuildHasherDefault::default()),
            names: Vec::with_capacity(guess),
            rows: Vec::with_capacity(guess),
            last_src: ("", 0),
            unknown: None,
        };
        rows.state(initial);
        rows
    }

    /// The number of state `name`, numbering it if it is new.
    fn state(&mut self, name: &'a str) -> usize {
        let slot = self.states.slot(name);
        if let Some(q) = self.states.get(slot, name) {
            return q;
        }
        let key = HashedName {
            hash: self.keys.hash_one(name),
            name,
        };
        let next = self.names.len();
        let q = *self.index.entry(key).or_insert(next);
        if q == next {
            self.names.push(name);
            self.rows.push(Vec::new());
        }
        self.states.put(slot, name, q);
        q
    }

    fn add(&mut self, edge: Edge<'a>) {
        if self.unknown.is_some() {
            return;
        }
        let slot = self.actions.slot(edge.action);
        let sym = match self.actions.get(slot, edge.action) {
            Some(sym) => sym,
            None => {
                let Some(sym) = self.alphabet.symbol(edge.action) else {
                    self.unknown = Some(err(edge.n, format!("unknown action {:?}", edge.action)));
                    return;
                };
                self.actions.put(slot, edge.action, sym);
                sym
            }
        };
        let src = if edge.src == self.last_src.0 {
            self.last_src.1
        } else {
            let q = self.state(edge.src);
            self.last_src = (edge.src, q);
            q
        };
        let dst = self.state(edge.dst);
        self.rows[src].push((sym, dst));
    }

    fn finish(self) -> Result<TransitionSystem, FormatError> {
        if let Some(e) = self.unknown {
            return Err(e);
        }
        let labels = self.names.into_iter().map(Some);
        Ok(TransitionSystem::from_rows(
            self.alphabet,
            0,
            labels,
            self.rows,
        ))
    }
}

/// A direct-mapped memo of names already resolved, in front of a slower
/// lookup: each name has one slot, picked by a cheap unkeyed [`mix`], and
/// a name found there skips the lookup. Names made to share slots only
/// make it miss, and a miss costs no more than the lookup it would save.
struct Memo<'a, T> {
    /// `(name, value)`; the empty name, which no word is, marks a free slot.
    slots: Box<[(&'a str, T)]>,
    /// Shifts a [`mix`] down to a slot number.
    shift: u32,
}

impl<'a, T: Copy> Memo<'a, T> {
    /// A memo of at least `want` slots (at least 16, at most 4096).
    fn new(want: usize, fill: T) -> Memo<'a, T> {
        let len = want.clamp(16, 4096).next_power_of_two();
        Memo {
            slots: vec![("", fill); len].into_boxed_slice(),
            shift: 64 - len.trailing_zeros(),
        }
    }

    fn slot(&self, name: &str) -> usize {
        (mix(name) >> self.shift) as usize
    }

    fn get(&self, slot: usize, name: &str) -> Option<T> {
        let (held, value) = self.slots[slot];
        (held == name).then_some(value)
    }

    fn put(&mut self, slot: usize, name: &'a str, value: T) {
        self.slots[slot] = (name, value);
    }
}

/// A fast, unkeyed hash of a name's length and of its first and last
/// eight bytes (fewer when it is shorter); only the top bits are good.
fn mix(name: &str) -> u64 {
    let b = name.as_bytes();
    let n = b.len();
    let (head, tail) = if n >= 8 {
        let word = |i: usize| u64::from_le_bytes(b[i..i + 8].try_into().expect("eight bytes"));
        (word(0), word(n - 8))
    } else if n >= 4 {
        let word = |i: usize| u32::from_le_bytes(b[i..i + 4].try_into().expect("four bytes"));
        (u64::from(word(0)), u64::from(word(n - 4)))
    } else if n > 0 {
        let short = u64::from(b[0]) | u64::from(b[n / 2]) << 8 | u64::from(b[n - 1]) << 16;
        (short, 0)
    } else {
        (0, 0)
    };
    (head ^ tail.rotate_left(32) ^ n as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
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
    for (_, name) in ts.alphabet().iter() {
        out.push(' ');
        out.push_str(name);
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
