#![warn(missing_docs)]
//! Project-specific static analysis for the GPMA workspace.
//!
//! This is a *source-level* pass, not a compiler plugin: it tokenizes each
//! `.rs` file just enough (comments stripped, string/char literals blanked,
//! brace depth tracked) to enforce conventions the compiler and clippy
//! cannot express. Six rule classes, and a seventh on the allowlist itself:
//!
//! | rule id            | convention enforced                                   |
//! |--------------------|-------------------------------------------------------|
//! | `hot-path-alloc`   | no heap allocation in `// lint: hot-path` functions   |
//! | `worker-panic`     | no `unwrap`/`expect`/`panic!` reachable from spawned  |
//! |                    | thread bodies or `*Monitor` impls                     |
//! | `lock-order`       | `.lock()` acquisitions respect the declared hierarchy |
//! | `missing-docs`     | every `pub` item documented; crate roots carry        |
//! |                    | `#![warn(missing_docs)]` (rule id `missing-docs-attr`)|
//! | `thread-sleep`     | no `std::thread::sleep` and no timed `recv_timeout`   |
//! |                    | poll in library code                                  |
//! | `lane-inline`      | a non-generic `pub` or trait-impl `fn` taking         |
//! |                    | `&mut Lane`, and a non-generic trait-impl `fn` taking |
//! |                    | a `&mut dyn FnMut` visitor, carry `#[inline]`         |
//! | `unused-allow`     | every `lint.toml` allowlist entry silences a finding  |
//!
//! The pass is deliberately conservative and *approximate*: worker
//! reachability is a same-file call-graph walk by function name, so a
//! method call can resolve to an unrelated same-named function. False
//! positives are silenced per item through the `lint.toml` allowlist
//! (`<rule>:<file>:<item>`), which doubles as the triage record the issue
//! tracker asked for; an entry that silences nothing (its item was renamed
//! or deleted, or the finding went away) is itself a finding, so no stale
//! exemption outlives its item. `#[cfg(test)]` modules are skipped
//! entirely.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Lint configuration, parsed from `lint.toml` (see [`Config::parse`]).
#[derive(Debug, Clone)]
pub struct Config {
    /// Directories (relative to the lint root) to scan for `.rs` sources.
    pub roots: Vec<String>,
    /// Allowlisted findings, keyed `<rule>:<file>:<item>`.
    pub allow: BTreeSet<String>,
    /// The declared lock hierarchy, outermost first: a lock may only be
    /// acquired while holding locks that appear *earlier* in this list.
    /// Lock names not listed here are not order-checked.
    pub lock_order: Vec<String>,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            roots: vec!["crates".to_string()],
            allow: BTreeSet::new(),
            lock_order: Vec::new(),
        }
    }
}

impl Config {
    /// Parse the `lint.toml` dialect this tool understands: `[section]`
    /// headers, `key = [ "string", ... ]` arrays (single- or multi-line),
    /// `#` comments. Recognized keys: `[scan] roots`, `[allow] entries`,
    /// `[locks] order`. Unknown sections and keys are ignored so the file
    /// can grow without breaking old binaries.
    pub fn parse(text: &str) -> Config {
        let mut cfg = Config::default();
        let mut section = String::new();
        let mut pending_key: Option<String> = None;
        let mut pending_val = String::new();
        for raw in text.lines() {
            let line = strip_toml_comment(raw).trim().to_string();
            if line.is_empty() {
                continue;
            }
            if pending_key.is_none() && line.starts_with('[') && line.ends_with(']') {
                section = line[1..line.len() - 1].to_string();
                continue;
            }
            if pending_key.is_none() {
                if let Some((k, v)) = line.split_once('=') {
                    pending_key = Some(k.trim().to_string());
                    pending_val = v.trim().to_string();
                }
            } else {
                pending_val.push(' ');
                pending_val.push_str(&line);
            }
            // An array value is complete once its brackets balance.
            let open = pending_val.matches('[').count();
            let close = pending_val.matches(']').count();
            if pending_key.is_some() && open == close {
                let key = pending_key.take().unwrap_or_default();
                let vals = quoted_strings(&pending_val);
                match (section.as_str(), key.as_str()) {
                    ("scan", "roots") => cfg.roots = vals,
                    ("allow", "entries") => cfg.allow = vals.into_iter().collect(),
                    ("locks", "order") => cfg.lock_order = vals,
                    _ => {}
                }
                pending_val.clear();
            }
        }
        cfg
    }

    /// Load and parse `lint.toml`; a missing file yields the defaults.
    pub fn load(path: &Path) -> Config {
        match fs::read_to_string(path) {
            Ok(text) => Config::parse(&text),
            Err(_) => Config::default(),
        }
    }
}

/// Drop a `#`-to-end-of-line TOML comment (the dialect has no `#` inside
/// strings, so a plain scan suffices).
fn strip_toml_comment(line: &str) -> &str {
    match line.find('#') {
        Some(i) => &line[..i],
        None => line,
    }
}

/// Every `"..."` literal in `text`, in order.
fn quoted_strings(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut rest = text;
    while let Some(start) = rest.find('"') {
        let tail = &rest[start + 1..];
        match tail.find('"') {
            Some(end) => {
                out.push(tail[..end].to_string());
                rest = &tail[end + 1..];
            }
            None => break,
        }
    }
    out
}

/// One finding: which rule fired, where, and why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Rule id (`hot-path-alloc`, `worker-panic`, `lock-order`,
    /// `missing-docs`, `missing-docs-attr`, `thread-sleep`, `lane-inline`,
    /// `unused-allow`).
    pub rule: &'static str,
    /// File path relative to the lint root, unix separators.
    pub file: String,
    /// 1-based line of the offending token or item.
    pub line: usize,
    /// The item the finding anchors to — the allowlist key is
    /// `<rule>:<file>:<item>`.
    pub item: String,
    /// Human-readable explanation.
    pub message: String,
}

impl Violation {
    /// The allowlist key that silences this finding.
    pub fn allow_key(&self) -> String {
        format!("{}:{}:{}", self.rule, self.file, self.item)
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.file, self.line, self.rule, self.message)?;
        // A stale allowlist entry is mended by deleting it, not allowed.
        if self.rule != "unused-allow" {
            write!(f, " (allow with `{}`)", self.allow_key())?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Source model
// ---------------------------------------------------------------------------

/// A tokenizer-lite view of one source file: raw lines for reading
/// annotations and doc comments, sanitized lines (comments stripped,
/// string/char literal bodies blanked) for token matching, per-line brace
/// depth, and a mask of lines inside `#[cfg(test)]` items.
struct SourceFile {
    rel: String,
    raw: Vec<String>,
    code: Vec<String>,
    /// Brace depth at the *start* of each line.
    depth: Vec<usize>,
    in_test: Vec<bool>,
    fns: Vec<FnItem>,
}

/// One parsed `fn` item: its name and the line range of its body.
#[derive(Debug, Clone)]
struct FnItem {
    name: String,
    /// Line of the `fn` keyword (0-based).
    sig_line: usize,
    /// Body lines, inclusive (0-based), from the opening `{` line to the
    /// matching `}` line.
    body: (usize, usize),
}

/// Lexer state carried across lines while sanitizing.
enum LexState {
    Code,
    Block(u32),
    Str,
    RawStr(u8),
}

impl SourceFile {
    fn parse(rel: &str, text: &str) -> SourceFile {
        let raw: Vec<String> = text.lines().map(|l| l.to_string()).collect();
        let code = sanitize(&raw);
        let mut depth = Vec::with_capacity(code.len());
        let mut d: usize = 0;
        for line in &code {
            depth.push(d);
            for ch in line.chars() {
                match ch {
                    '{' => d += 1,
                    '}' => d = d.saturating_sub(1),
                    _ => {}
                }
            }
        }
        let in_test = test_mask(&code, &depth);
        let fns = parse_fns(&code);
        SourceFile {
            rel: rel.to_string(),
            raw,
            code,
            depth,
            in_test,
            fns,
        }
    }

    /// Is any part of the function body outside `#[cfg(test)]` code?
    fn fn_is_lib_code(&self, f: &FnItem) -> bool {
        !self.in_test.get(f.sig_line).copied().unwrap_or(false)
    }
}

/// Strip comments and blank string/char-literal bodies, preserving line
/// structure and column alignment does not matter — only tokens do.
fn sanitize(raw: &[String]) -> Vec<String> {
    let mut out = Vec::with_capacity(raw.len());
    let mut state = LexState::Code;
    for line in raw {
        let mut s = String::with_capacity(line.len());
        let mut i = 0;
        while i < line.len() {
            // Advance one whole char when no multi-byte token matched.
            let ch = match line[i..].chars().next() {
                Some(c) => c,
                None => break,
            };
            match state {
                LexState::Code => {
                    let rest = &line[i..];
                    if rest.starts_with("//") {
                        break; // line comment: drop the remainder
                    } else if rest.starts_with("/*") {
                        state = LexState::Block(1);
                        i += 2;
                    } else if rest.starts_with("r\"")
                        || rest.starts_with("r#\"")
                        || rest.starts_with("r##\"")
                    {
                        let hashes = rest[1..].bytes().take_while(|&b| b == b'#').count() as u8;
                        state = LexState::RawStr(hashes);
                        s.push('"');
                        i += 2 + hashes as usize;
                    } else if rest.starts_with('"') {
                        state = LexState::Str;
                        s.push('"');
                        i += 1;
                    } else if rest.starts_with('\'') {
                        // Char literal vs lifetime: a literal closes within
                        // a few bytes (`'a'`, `'\n'`, `'\u{1F600}'`).
                        if let Some(len) = char_literal_len(rest) {
                            s.push_str("' '");
                            i += len;
                        } else {
                            s.push('\'');
                            i += 1;
                        }
                    } else {
                        s.push(ch);
                        i += ch.len_utf8();
                    }
                }
                LexState::Block(n) => {
                    let rest = &line[i..];
                    if rest.starts_with("*/") {
                        state = if n == 1 {
                            LexState::Code
                        } else {
                            LexState::Block(n - 1)
                        };
                        i += 2;
                    } else if rest.starts_with("/*") {
                        state = LexState::Block(n + 1);
                        i += 2;
                    } else {
                        i += ch.len_utf8();
                    }
                }
                LexState::Str => {
                    let rest = &line[i..];
                    if rest.starts_with("\\\\") || rest.starts_with("\\\"") {
                        i += 2;
                    } else if rest.starts_with('"') {
                        state = LexState::Code;
                        s.push('"');
                        i += 1;
                    } else {
                        i += ch.len_utf8();
                    }
                }
                LexState::RawStr(hashes) => {
                    let close: String =
                        std::iter::once('"').chain((0..hashes).map(|_| '#')).collect();
                    if line[i..].starts_with(&close) {
                        state = LexState::Code;
                        s.push('"');
                        i += close.len();
                    } else {
                        i += ch.len_utf8();
                    }
                }
            }
        }
        // A string literal can span lines; the sanitized line just ends.
        out.push(s);
    }
    out
}

/// Byte length of a char literal starting at `'`, or `None` for a lifetime.
fn char_literal_len(rest: &str) -> Option<usize> {
    let b = rest.as_bytes();
    if b.len() >= 4 && b[1] == b'\\' {
        // Escapes: '\n', '\'', '\\', '\u{...}', '\x41'.
        let close = rest[2..].find('\'')?;
        return Some(close + 3);
    }
    if b.len() >= 3 && b[2] == b'\'' && b[1] != b'\'' {
        return Some(3);
    }
    None
}

/// Mark every line belonging to a `#[cfg(test)]` item (`mod` or `fn`),
/// body included, by brace matching from the attribute.
fn test_mask(code: &[String], depth: &[usize]) -> Vec<bool> {
    let mut mask = vec![false; code.len()];
    for i in 0..code.len() {
        if code[i].trim() != "#[cfg(test)]" {
            continue;
        }
        // The attribute's item starts on one of the next few lines (more
        // attributes may sit in between).
        let item_depth = depth[i];
        let mut j = i + 1;
        while j < code.len() && code[j].trim_start().starts_with("#[") {
            j += 1;
        }
        // Mark from the attribute to the line where depth returns to the
        // item's own depth after having gone deeper.
        let mut k = j;
        let mut entered = false;
        while k < code.len() {
            mask[k] = true;
            let next_depth = if k + 1 < code.len() {
                depth[k + 1]
            } else {
                0
            };
            if next_depth > item_depth {
                entered = true;
            }
            if entered && next_depth <= item_depth {
                break;
            }
            // A `mod name;` or item without a body ends on its own line.
            if !entered && code[k].trim_end().ends_with(';') {
                break;
            }
            k += 1;
        }
        for m in mask.iter_mut().take(k + 1).skip(i) {
            *m = true;
        }
    }
    mask
}

/// Parse every `fn` item (free functions and methods alike) with a body.
fn parse_fns(code: &[String]) -> Vec<FnItem> {
    let mut fns = Vec::new();
    for (i, line) in code.iter().enumerate() {
        let Some(name) = fn_name_on_line(line) else {
            continue;
        };
        // Find the body's opening `{`, skipping bodiless trait-method
        // declarations (a `;` at paren-depth 0 before any `{`).
        let mut open: Option<(usize, usize)> = None;
        'scan: for (j, l) in code.iter().enumerate().skip(i).take(12) {
            let start_col = if j == i {
                l.find("fn ").unwrap_or(0)
            } else {
                0
            };
            let mut paren = 0i32;
            for (c, ch) in l.char_indices().skip(start_col) {
                match ch {
                    '(' | '<' | '[' => paren += 1,
                    ')' | '>' | ']' => paren -= 1,
                    '{' => {
                        open = Some((j, c));
                        break 'scan;
                    }
                    ';' if paren <= 0 => break 'scan,
                    _ => {}
                }
            }
        }
        let Some((open_line, open_col)) = open else {
            continue;
        };
        if let Some(close_line) = match_brace(code, open_line, open_col) {
            fns.push(FnItem {
                name,
                sig_line: i,
                body: (open_line, close_line),
            });
        }
    }
    fns
}

/// The function name when `line` contains a `fn` item signature.
fn fn_name_on_line(line: &str) -> Option<String> {
    let idx = find_word(line, "fn")?;
    let after = line[idx + 2..].trim_start();
    let name: String = after
        .chars()
        .take_while(|c| c.is_alphanumeric() || *c == '_')
        .collect();
    if name.is_empty() {
        None
    } else {
        Some(name)
    }
}

/// Position of `word` in `line` with identifier boundaries on both sides.
fn find_word(line: &str, word: &str) -> Option<usize> {
    let bytes = line.as_bytes();
    let mut from = 0;
    while let Some(rel) = line[from..].find(word) {
        let i = from + rel;
        let before_ok = i == 0 || !is_ident_byte(bytes[i - 1]);
        let after = i + word.len();
        let after_ok = after >= bytes.len() || !is_ident_byte(bytes[after]);
        if before_ok && after_ok {
            return Some(i);
        }
        from = i + word.len();
    }
    None
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Line of the `}` matching the `{` at (`line`, `col`).
fn match_brace(code: &[String], line: usize, col: usize) -> Option<usize> {
    let mut depth = 0i64;
    for (j, l) in code.iter().enumerate().skip(line) {
        let start = if j == line { col } else { 0 };
        for ch in l[start.min(l.len())..].chars() {
            match ch {
                '{' => depth += 1,
                '}' => {
                    depth -= 1;
                    if depth == 0 {
                        return Some(j);
                    }
                }
                _ => {}
            }
        }
    }
    None
}

/// Identifiers that appear in call position (`name(` or `.name(`) within
/// the given body lines — the same-file call-graph edges.
fn called_names(code: &[String], body: (usize, usize)) -> BTreeSet<String> {
    const KEYWORDS: &[&str] = &[
        "if", "while", "for", "match", "fn", "return", "loop", "move", "in", "let", "else",
    ];
    let mut out = BTreeSet::new();
    for l in code.iter().take(body.1 + 1).skip(body.0) {
        let bytes = l.as_bytes();
        let mut i = 0;
        while i < bytes.len() {
            if is_ident_byte(bytes[i]) && (i == 0 || !is_ident_byte(bytes[i - 1])) {
                let start = i;
                while i < bytes.len() && is_ident_byte(bytes[i]) {
                    i += 1;
                }
                let mut j = i;
                while j < bytes.len() && bytes[j] == b' ' {
                    j += 1;
                }
                if j < bytes.len() && bytes[j] == b'(' {
                    let name = &l[start..i];
                    if !KEYWORDS.contains(&name) && !name.chars().next().is_some_and(|c| c.is_ascii_digit()) {
                        out.insert(name.to_string());
                    }
                }
            } else {
                i += 1;
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// The rules
// ---------------------------------------------------------------------------

/// Tokens rule `hot-path-alloc` forbids (each heap-allocates or may).
const ALLOC_TOKENS: &[&str] = &["Vec::new", "vec!", ".collect(", ".to_vec(", ".clone("];

/// Tokens rule `worker-panic` forbids in worker-reachable code.
const PANIC_TOKENS: &[&str] = &[
    ".unwrap()",
    ".expect(",
    "panic!",
    "unreachable!",
    "todo!",
    "unimplemented!",
];

/// Run every rule over one in-memory source file. `is_crate_root` enables
/// the `missing-docs-attr` check; `is_bin` exempts the file from the
/// `thread-sleep` rule (binaries may pace themselves).
pub fn lint_source(rel: &str, text: &str, cfg: &Config, is_crate_root: bool, is_bin: bool) -> Vec<Violation> {
    let mut out = findings(rel, text, cfg, is_crate_root, is_bin);
    out.retain(|v| !cfg.allow.contains(&v.allow_key()));
    out
}

/// Every rule's findings on one file, the allowlisted ones included.
fn findings(rel: &str, text: &str, cfg: &Config, is_crate_root: bool, is_bin: bool) -> Vec<Violation> {
    let src = SourceFile::parse(rel, text);
    let mut out = Vec::new();
    rule_hot_path_alloc(&src, &mut out);
    rule_worker_panic(&src, &mut out);
    rule_lock_order(&src, cfg, &mut out);
    rule_missing_docs(&src, is_crate_root, &mut out);
    if !is_bin {
        rule_thread_sleep(&src, &mut out);
    }
    rule_lane_inline(&src, &mut out);
    out
}

/// Rule `hot-path-alloc`: a function annotated `// lint: hot-path` (on a
/// comment line directly above its signature, attributes and doc comments
/// in between allowed) must not contain any [`ALLOC_TOKENS`].
fn rule_hot_path_alloc(src: &SourceFile, out: &mut Vec<Violation>) {
    for f in &src.fns {
        if !src.fn_is_lib_code(f) || !is_hot_path(src, f) {
            continue;
        }
        for (j, line) in src.code.iter().enumerate().take(f.body.1 + 1).skip(f.body.0) {
            for tok in ALLOC_TOKENS {
                if line.contains(tok) {
                    out.push(Violation {
                        rule: "hot-path-alloc",
                        file: src.rel.clone(),
                        line: j + 1,
                        item: f.name.clone(),
                        message: format!(
                            "`{}` in hot-path function `{}` — reuse a scratch buffer instead",
                            tok.trim_matches(|c| c == '.' || c == '('),
                            f.name
                        ),
                    });
                }
            }
        }
    }
}

/// Does a `// lint: hot-path` marker sit directly above the signature?
fn is_hot_path(src: &SourceFile, f: &FnItem) -> bool {
    let mut i = f.sig_line;
    while i > 0 {
        i -= 1;
        let t = src.raw[i].trim();
        // Only the marker comment itself counts — a doc comment *quoting*
        // the convention must not annotate its own function.
        if t.starts_with("// lint: hot-path") {
            return true;
        }
        // Attributes and doc comments may sit between marker and `fn`.
        if t.starts_with("#[") || t.starts_with("///") || t.starts_with("//") {
            continue;
        }
        return false;
    }
    false
}

/// Rule `worker-panic`: seed the walk at every spawned-closure body and
/// every `impl <...>Monitor for` block, follow same-file calls by name,
/// and flag any [`PANIC_TOKENS`] in the functions reached. A panic on one
/// of these threads kills a worker the rest of the system believes is
/// alive — exactly the failure the `worker_errors` counters exist to
/// replace.
fn rule_worker_panic(src: &SourceFile, out: &mut Vec<Violation>) {
    let mut by_name: BTreeMap<&str, Vec<&FnItem>> = BTreeMap::new();
    for f in &src.fns {
        by_name.entry(f.name.as_str()).or_default().push(f);
    }

    let mut queue: VecDeque<String> = VecDeque::new();
    let mut seen: BTreeSet<String> = BTreeSet::new();

    // Seed 1: spawned closures — scan the closure text directly (anchored
    // to the enclosing function for allowlisting) and queue what it calls.
    for (i, line) in src.code.iter().enumerate() {
        if src.in_test[i] {
            continue;
        }
        for pat in [".spawn(", "thread::spawn("] {
            let Some(pos) = line.find(pat) else { continue };
            let open_col = pos + pat.len() - 1;
            let Some((end, end_col)) = match_paren(&src.code, i, open_col) else {
                continue;
            };
            let _ = end_col;
            let arg_head = src.code[i][open_col + 1..].trim_start();
            let head = if arg_head.is_empty() && i < end {
                src.code[i + 1].trim_start()
            } else {
                arg_head
            };
            if !(head.starts_with("move ||") || head.starts_with("||")) {
                continue; // not a thread closure (e.g. `Service::spawn(cfg)`)
            }
            // Clip the span to the closure argument itself — text before
            // the `(` (including `spawn` in call position) and after the
            // `)` belongs to the caller thread.
            let clipped = clip_span(&src.code, (i, open_col + 1), end);
            let encl = enclosing_fn(src, i).map(|f| f.name.clone()).unwrap_or_default();
            scan_panic_tokens_in(src, &clipped, i, &format!("{encl}:closure"), "spawned closure", out);
            for name in called_names(&clipped, (0, clipped.len().saturating_sub(1))) {
                queue.push_back(name);
            }
        }
    }

    // Seed 2: monitor trait impls — their methods run on monitor threads.
    for (i, line) in src.code.iter().enumerate() {
        if src.in_test[i] {
            continue;
        }
        let t = line.trim_start();
        if !t.starts_with("impl") {
            continue;
        }
        let Some(for_pos) = find_word(t, "for") else {
            continue;
        };
        let trait_part = &t[4..for_pos];
        if !trait_part.trim().trim_end_matches('>').ends_with("Monitor") {
            continue;
        }
        let Some(open_col) = line.find('{') else { continue };
        let Some(end) = match_brace(&src.code, i, open_col) else {
            continue;
        };
        for f in &src.fns {
            if f.sig_line > i && f.body.1 <= end {
                queue.push_back(f.name.clone());
            }
        }
        let _ = (i, end);
    }

    // Walk the same-file call graph.
    while let Some(name) = queue.pop_front() {
        if !seen.insert(name.clone()) {
            continue;
        }
        let Some(fns) = by_name.get(name.as_str()) else {
            continue;
        };
        for f in fns {
            if !src.fn_is_lib_code(f) {
                continue;
            }
            scan_panic_tokens(src, f.body, &f.name, &format!("worker-reachable `{}`", f.name), out);
            for callee in called_names(&src.code, f.body) {
                if !seen.contains(&callee) {
                    queue.push_back(callee);
                }
            }
        }
    }
}

/// Flag every panic token in the given line range of the file itself.
fn scan_panic_tokens(
    src: &SourceFile,
    range: (usize, usize),
    item: &str,
    context: &str,
    out: &mut Vec<Violation>,
) {
    let lines: Vec<String> = src.code[range.0..=range.1].to_vec();
    scan_panic_tokens_in(src, &lines, range.0, item, context, out);
}

/// Flag every panic token in `lines`, reporting positions relative to
/// `first_line` of the source file (used for clipped closure spans whose
/// first/last lines exclude caller-side text).
fn scan_panic_tokens_in(
    src: &SourceFile,
    lines: &[String],
    first_line: usize,
    item: &str,
    context: &str,
    out: &mut Vec<Violation>,
) {
    for (off, line) in lines.iter().enumerate() {
        let j = first_line + off;
        if src.in_test.get(j).copied().unwrap_or(false) {
            continue;
        }
        for tok in PANIC_TOKENS {
            if line.contains(tok) {
                out.push(Violation {
                    rule: "worker-panic",
                    file: src.rel.clone(),
                    line: j + 1,
                    item: item.to_string(),
                    message: format!(
                        "`{}` in {context} — log and count (worker_errors) instead of panicking the thread",
                        tok.trim_matches(|c| c == '.' || c == '(')
                    ),
                });
            }
        }
    }
}

/// (line, col) of the `)` matching the `(` at (`line`, `col`).
fn match_paren(code: &[String], line: usize, col: usize) -> Option<(usize, usize)> {
    let mut depth = 0i64;
    for (j, l) in code.iter().enumerate().skip(line) {
        let start = if j == line { col } else { 0 };
        for (c, ch) in l.char_indices().skip_while(|(c, _)| *c < start) {
            match ch {
                '(' => depth += 1,
                ')' => {
                    depth -= 1;
                    if depth == 0 {
                        return Some((j, c));
                    }
                }
                _ => {}
            }
        }
    }
    None
}

/// Copy the lines of a span, clipping the first line to start at
/// (`start.0`, `start.1`) and dropping nothing at the end (token scans are
/// line-granular; the closing line rarely carries caller-side tokens).
fn clip_span(code: &[String], start: (usize, usize), end_line: usize) -> Vec<String> {
    let mut out = Vec::with_capacity(end_line + 1 - start.0);
    for (j, l) in code.iter().enumerate().take(end_line + 1).skip(start.0) {
        if j == start.0 {
            out.push(l.get(start.1.min(l.len())..).unwrap_or("").to_string());
        } else {
            out.push(l.clone());
        }
    }
    out
}

/// Rule `lock-order`: within each function, a guard bound with
/// `let g = <path>.lock();` is held until its block closes (or an explicit
/// `drop(g)`); acquiring a lock that precedes a held one in the declared
/// hierarchy — or re-acquiring a held lock — is flagged. Temporary
/// acquisitions (`<path>.lock().method()`) are checked at the point of
/// acquisition and released immediately.
fn rule_lock_order(src: &SourceFile, cfg: &Config, out: &mut Vec<Violation>) {
    if cfg.lock_order.is_empty() {
        return;
    }
    let rank = |name: &str| cfg.lock_order.iter().position(|n| n == name);
    for f in &src.fns {
        if !src.fn_is_lib_code(f) {
            continue;
        }
        // (lock name, guard variable, depth at binding)
        let mut held: Vec<(String, String, usize)> = Vec::new();
        for j in f.body.0..=f.body.1 {
            let line = &src.code[j];
            let d = src.depth[j];
            held.retain(|(_, _, hd)| *hd <= d);
            for var in dropped_vars(line) {
                held.retain(|(_, v, _)| *v != var);
            }
            let Some(lock_name) = lock_acquisition(line) else {
                continue;
            };
            if let Some(new_rank) = rank(&lock_name) {
                for (held_name, _, _) in &held {
                    if let Some(held_rank) = rank(held_name) {
                        if held_rank > new_rank {
                            out.push(Violation {
                                rule: "lock-order",
                                file: src.rel.clone(),
                                line: j + 1,
                                item: f.name.clone(),
                                message: format!(
                                    "`{lock_name}` acquired while holding `{held_name}` — declared hierarchy orders `{lock_name}` first"
                                ),
                            });
                        } else if held_rank == new_rank {
                            out.push(Violation {
                                rule: "lock-order",
                                file: src.rel.clone(),
                                line: j + 1,
                                item: f.name.clone(),
                                message: format!(
                                    "`{lock_name}` re-acquired while already held — parking_lot locks are not reentrant"
                                ),
                            });
                        }
                    }
                }
            }
            if let Some(var) = guard_binding(line) {
                held.push((lock_name, var, d));
            }
        }
    }
}

/// The lock field name when `line` contains a `.lock()` call: the last
/// path segment before `.lock()` (`self.shared.router.lock()` → `router`).
fn lock_acquisition(line: &str) -> Option<String> {
    let pos = line.find(".lock()")?;
    let head = &line[..pos];
    let name: String = head
        .chars()
        .rev()
        .take_while(|c| c.is_alphanumeric() || *c == '_')
        .collect::<String>()
        .chars()
        .rev()
        .collect();
    if name.is_empty() {
        None
    } else {
        Some(name)
    }
}

/// The bound variable when `line` is a guard binding — a `let` whose
/// expression *ends* at `.lock();` (anything after, like `.clone()`,
/// makes the guard a dropped-immediately temporary).
fn guard_binding(line: &str) -> Option<String> {
    let t = line.trim();
    if !t.trim_end().ends_with(".lock();") {
        return None;
    }
    let after_let = t.strip_prefix("let ")?;
    let after_mut = after_let.strip_prefix("mut ").unwrap_or(after_let);
    let var: String = after_mut
        .chars()
        .take_while(|c| c.is_alphanumeric() || *c == '_')
        .collect();
    if var.is_empty() {
        None
    } else {
        Some(var)
    }
}

/// Variables explicitly released on this line via `drop(name)`.
fn dropped_vars(line: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut rest = line;
    while let Some(i) = rest.find("drop(") {
        let arg = &rest[i + 5..];
        let var: String = arg
            .chars()
            .take_while(|c| c.is_alphanumeric() || *c == '_')
            .collect();
        if !var.is_empty() {
            out.push(var);
        }
        rest = arg;
    }
    out
}

/// Rule `missing-docs` / `missing-docs-attr`: every `pub` item outside
/// test code carries a doc comment, and crate roots (`src/lib.rs`) carry
/// `#![warn(missing_docs)]` so rustc covers what this textual pass cannot
/// (pub fields, re-exports, macro-generated items).
fn rule_missing_docs(src: &SourceFile, is_crate_root: bool, out: &mut Vec<Violation>) {
    if is_crate_root && !src.raw.iter().any(|l| l.contains("#![warn(missing_docs)]")) {
        out.push(Violation {
            rule: "missing-docs-attr",
            file: src.rel.clone(),
            line: 1,
            item: "crate".to_string(),
            message: "crate root lacks `#![warn(missing_docs)]`".to_string(),
        });
    }
    const KINDS: &[&str] = &["fn", "struct", "enum", "trait", "const", "static", "type", "mod"];
    for (i, line) in src.code.iter().enumerate() {
        if src.in_test[i] {
            continue;
        }
        let t = line.trim_start();
        let Some(rest) = t.strip_prefix("pub ") else {
            continue; // `pub(crate)` and friends are not public API
        };
        let rest = rest
            .strip_prefix("unsafe ")
            .unwrap_or(rest)
            .strip_prefix("async ")
            .unwrap_or(rest)
            .strip_prefix("const ")
            .filter(|r| r.starts_with("fn "))
            .unwrap_or(rest);
        let Some(kind) = KINDS.iter().find(|k| {
            rest.strip_prefix(**k)
                .is_some_and(|after| after.starts_with([' ', '<']))
        }) else {
            continue;
        };
        let name: String = rest[kind.len()..]
            .trim_start()
            .chars()
            .take_while(|c| c.is_alphanumeric() || *c == '_')
            .collect();
        if name.is_empty() {
            continue;
        }
        // An out-of-line `pub mod name;` is documented by its file's `//!`
        // header, which rustc's missing_docs accepts and this single-file
        // pass cannot see — leave those to the compiler.
        if *kind == "mod" && t.trim_end().ends_with(';') {
            continue;
        }
        // Walk up over attributes and plain comments (rustdoc attaches a
        // doc comment across interleaved `//` lines) to the nearest
        // substantive line.
        let mut k = i;
        let mut documented = false;
        while k > 0 {
            k -= 1;
            let prev = src.raw[k].trim();
            if prev.starts_with("#[") || prev.ends_with(")]") {
                continue;
            }
            if prev.starts_with("//") && !prev.starts_with("///") {
                continue;
            }
            documented = prev.starts_with("///") || prev.starts_with("#[doc");
            break;
        }
        if !documented {
            out.push(Violation {
                rule: "missing-docs",
                file: src.rel.clone(),
                line: i + 1,
                item: name.clone(),
                message: format!("public {kind} `{name}` has no doc comment"),
            });
        }
    }
}

/// Rule `thread-sleep`: wall-clock sleeps in library code hide
/// synchronization bugs and make the simulated clock lie; use channels,
/// condvars, or the sim clock instead. A `recv_timeout` loop is the same
/// sleep in disguise — a timed poll of something that could have sent an
/// event — so it is flagged too.
fn rule_thread_sleep(src: &SourceFile, out: &mut Vec<Violation>) {
    for (i, line) in src.code.iter().enumerate() {
        let call = if line.contains("thread::sleep") {
            "thread::sleep"
        } else if line.contains(".recv_timeout(") {
            "recv_timeout"
        } else {
            continue;
        };
        if src.in_test[i] {
            continue;
        }
        let item = enclosing_fn(src, i)
            .map(|f| f.name.clone())
            .unwrap_or_else(|| "crate".to_string());
        out.push(Violation {
            rule: "thread-sleep",
            file: src.rel.clone(),
            line: i + 1,
            item,
            message: format!("`{call}` in library code — synchronize on events, not wall-clock"),
        });
    }
}

/// Rule `lane-inline`: a function that takes `&mut Lane` runs once per
/// lane of a launch, called from a kernel closure that is compiled in
/// whichever crate launches it. A generic function is compiled there too;
/// a non-generic one stays in its own crate unless it says `#[inline]`, and
/// then every lane makes a real call with its counters spilled around it.
/// So a non-generic `fn` with a `&mut Lane` parameter that another crate
/// can reach — `pub`, or a method of a trait impl — must carry `#[inline]`.
/// `Lane<'_, M>` with any arguments counts: a `fn` generic over the lane
/// mode `M` is generic, one over a concrete kind (`Lane<'_, Untraced>`) is
/// not.
///
/// A trait-impl method that takes a `&mut dyn FnMut` visitor (the
/// `HostGraph` walks) is the host-side case of the same thing: the generic
/// algorithm calling it is compiled in another crate, and only an inlined
/// body lets the visitor closure be devirtualised there instead of being
/// called through its vtable once per neighbour. So a non-generic one must
/// carry `#[inline]` too.
fn rule_lane_inline(src: &SourceFile, out: &mut Vec<Violation>) {
    for f in &src.fns {
        if !src.fn_is_lib_code(f) {
            continue;
        }
        let sig = src.code[f.sig_line..=f.body.0].join(" ");
        let sig = &sig[sig.find("fn ").unwrap_or(0)..];
        let sig = &sig[..sig.find('{').unwrap_or(sig.len())];
        let header = enclosing_impl_header(src, f.sig_line);
        let is_pub = src.code[f.sig_line].trim_start().starts_with("pub ");
        let in_trait_impl = header.is_some_and(|h| find_word(h, "for").is_some());
        let takes = if takes_mut_lane(sig) {
            "`&mut Lane`"
        } else if in_trait_impl && sig.contains("&mut dyn FnMut") {
            "a `&mut dyn FnMut` visitor"
        } else {
            continue;
        };
        let generic = has_type_params(sig, "fn")
            || sig.contains("impl ")
            || header.is_some_and(|h| has_type_params(h, "impl"));
        if generic || !(is_pub || in_trait_impl) || has_inline_attr(src, f.sig_line) {
            continue;
        }
        out.push(Violation {
            rule: "lane-inline",
            file: src.rel.clone(),
            line: f.sig_line + 1,
            item: f.name.clone(),
            message: format!(
                "non-generic `{}` takes {takes} and is reachable from other crates — add `#[inline]` so the loops compiled there can inline it",
                f.name
            ),
        });
    }
}

/// Does the signature have a `&mut Lane` parameter (any path to `Lane`,
/// with or without its lifetime and mode arguments)?
fn takes_mut_lane(sig: &str) -> bool {
    let bytes = sig.as_bytes();
    let mut from = 0;
    while let Some(rel) = sig[from..].find("Lane") {
        let i = from + rel;
        from = i + 4;
        if bytes.get(i + 4).is_some_and(|&b| is_ident_byte(b)) {
            continue;
        }
        // Walk back over a `path::to::` prefix.
        let mut j = i;
        while j > 0 && (is_ident_byte(bytes[j - 1]) || bytes[j - 1] == b':') {
            j -= 1;
        }
        if sig[..j].ends_with("&mut ") {
            return true;
        }
    }
    false
}

/// Does the `<...>` list right after `keyword`'s name (for `fn`) or after
/// `keyword` itself (for `impl`) declare a type or const parameter?
/// Lifetimes alone leave one compiled copy, so they do not count.
fn has_type_params(text: &str, keyword: &str) -> bool {
    let Some(at) = find_word(text, keyword) else {
        return false;
    };
    let after = text[at + keyword.len()..].trim_start();
    let after = after.trim_start_matches(|c: char| c.is_alphanumeric() || c == '_');
    let Some(list) = after.strip_prefix('<') else {
        return false;
    };
    let mut depth = 0i32;
    let mut param_start = true;
    for ch in list.chars() {
        match ch {
            '<' | '(' | '[' => depth += 1,
            '>' if depth == 0 => return false,
            '>' | ')' | ']' => depth -= 1,
            ',' if depth == 0 => param_start = true,
            c if c.is_whitespace() => {}
            c => {
                if param_start && depth == 0 && c != '\'' {
                    return true;
                }
                param_start = false;
            }
        }
    }
    false
}

/// The header line of the `impl` block the function at `line` sits in.
fn enclosing_impl_header(src: &SourceFile, line: usize) -> Option<&str> {
    let depth = src.depth[line];
    if depth == 0 {
        return None;
    }
    (0..line)
        .rev()
        .find(|&i| src.depth[i] < depth)
        .map(|i| src.code[i].trim_start())
        .filter(|l| l.starts_with("impl") || l.starts_with("unsafe impl"))
}

/// Is there an `#[inline]` / `#[inline(always)]` among the attributes
/// directly above the signature?
fn has_inline_attr(src: &SourceFile, sig_line: usize) -> bool {
    let mut i = sig_line;
    while i > 0 {
        i -= 1;
        let t = src.raw[i].trim();
        if t.starts_with("#[inline") {
            return true;
        }
        if t.starts_with("#[") || t.starts_with("//") {
            continue;
        }
        break;
    }
    false
}

/// The innermost function whose body contains `line`.
fn enclosing_fn(src: &SourceFile, line: usize) -> Option<&FnItem> {
    src.fns
        .iter()
        .filter(|f| f.body.0 <= line && line <= f.body.1)
        .max_by_key(|f| f.body.0)
}

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

/// Lint every `.rs` file under the configured scan roots. Paths named
/// `tests`, `benches`, `examples`, or `target` are skipped — those are not
/// library code. Each allowlist entry that silenced no finding is itself
/// an `unused-allow` finding, anchored to `lint.toml`. Returns findings
/// sorted by file and line.
pub fn lint_root(root: &Path, cfg: &Config) -> io::Result<Vec<Violation>> {
    let mut files = Vec::new();
    for r in &cfg.roots {
        collect_rs(&root.join(r), &mut files)?;
    }
    files.sort();
    let mut out = Vec::new();
    let mut silenced = BTreeSet::new();
    for path in &files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        let is_crate_root = rel.ends_with("src/lib.rs");
        let is_bin = rel.contains("/bin/") || rel.ends_with("src/main.rs");
        let text = fs::read_to_string(path)?;
        for v in findings(&rel, &text, cfg, is_crate_root, is_bin) {
            let key = v.allow_key();
            if cfg.allow.contains(&key) {
                silenced.insert(key);
            } else {
                out.push(v);
            }
        }
    }
    let toml = fs::read_to_string(root.join("lint.toml")).unwrap_or_default();
    for key in cfg.allow.difference(&silenced) {
        let quoted = format!("\"{key}\"");
        out.push(Violation {
            rule: "unused-allow",
            file: "lint.toml".to_string(),
            line: toml.lines().position(|l| l.contains(&quoted)).map_or(0, |i| i + 1),
            item: key.clone(),
            message: "allowlist entry silences nothing (its item was renamed or deleted, \
                      or the finding is gone): remove it"
                .to_string(),
        });
    }
    out.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    Ok(out)
}

/// Recursively collect `.rs` files, skipping non-library directories.
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    const SKIP: &[&str] = &["tests", "benches", "examples", "target"];
    if !dir.is_dir() {
        return Ok(());
    }
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        let name = path
            .file_name()
            .map(|n| n.to_string_lossy().to_string())
            .unwrap_or_default();
        if path.is_dir() {
            if !SKIP.contains(&name.as_str()) {
                collect_rs(&path, out)?;
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(text: &str) -> Vec<Violation> {
        lint_source("x/src/a.rs", text, &Config::default(), false, false)
    }

    fn run_with(text: &str, cfg: &Config) -> Vec<Violation> {
        lint_source("x/src/a.rs", text, cfg, false, false)
    }

    #[test]
    fn config_parses_all_sections() {
        let cfg = Config::parse(
            r#"
# comment
[scan]
roots = ["crates"]

[allow]
entries = [
    "worker-panic:crates/a/src/lib.rs:f", # trailing comment
    "missing-docs:crates/b/src/lib.rs:g",
]

[locks]
order = ["router", "partition"]
"#,
        );
        assert_eq!(cfg.roots, vec!["crates"]);
        assert_eq!(cfg.allow.len(), 2);
        assert!(cfg.allow.contains("worker-panic:crates/a/src/lib.rs:f"));
        assert_eq!(cfg.lock_order, vec!["router", "partition"]);
    }

    #[test]
    fn hot_path_alloc_flags_annotated_fn_only() {
        let v = run(
            "// lint: hot-path\nfn hot(xs: &mut Vec<u32>) {\n    let ys = xs.to_vec();\n}\n\
             fn cold() {\n    let v = Vec::new();\n}\n",
        );
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "hot-path-alloc");
        assert_eq!(v[0].item, "hot");
        assert_eq!(v[0].line, 3);
    }

    #[test]
    fn hot_path_ignores_tokens_in_strings_and_comments() {
        let v = run(
            "// lint: hot-path\nfn hot() {\n    // calls .clone() nowhere\n    \
             let s = \"Vec::new\";\n}\n",
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn worker_panic_traces_spawned_closure_calls() {
        let v = run(
            "fn start() {\n    std::thread::spawn(move || run(1));\n}\n\
             fn run(x: u32) {\n    helper(x);\n}\n\
             fn helper(x: u32) {\n    let _ = Some(x).unwrap();\n}\n\
             fn unrelated() {\n    let _ = Some(1).unwrap();\n}\n",
        );
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "worker-panic");
        assert_eq!(v[0].item, "helper");
    }

    #[test]
    fn worker_panic_skips_spawn_site_expect_on_caller_thread() {
        // The `.expect` is applied to spawn's *result* on the caller
        // thread — outside the closure, so not a worker panic.
        let v = run(
            "fn start() {\n    std::thread::Builder::new()\n        .spawn(move || work())\n        .expect(\"spawn\");\n}\n\
             fn work() {}\n",
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn worker_panic_covers_monitor_impls() {
        let v = run(
            "trait DeltaMonitor { fn on_delta(&mut self); }\n\
             struct M;\n\
             impl DeltaMonitor for M {\n    fn on_delta(&mut self) {\n        panic!(\"boom\");\n    }\n}\n",
        );
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "worker-panic");
        assert_eq!(v[0].item, "on_delta");
    }

    #[test]
    fn lock_order_flags_inversion_and_reentry() {
        let cfg = Config {
            lock_order: vec!["alpha".into(), "beta".into()],
            ..Config::default()
        };
        let v = run_with(
            "fn bad(&self) {\n    let b = self.beta.lock();\n    let a = self.alpha.lock();\n}\n\
             fn reenter(&self) {\n    let a = self.alpha.lock();\n    self.alpha.lock().poke();\n}\n\
             fn fine(&self) {\n    let a = self.alpha.lock();\n    self.beta.lock().poke();\n}\n\
             fn scoped(&self) {\n    {\n        let b = self.beta.lock();\n    }\n    let a = self.alpha.lock();\n}\n",
            &cfg,
        );
        let rules: Vec<_> = v.iter().map(|x| (x.item.as_str(), x.line)).collect();
        assert_eq!(rules, vec![("bad", 3), ("reenter", 7)], "{v:?}");
    }

    #[test]
    fn lock_order_respects_explicit_drop() {
        let cfg = Config {
            lock_order: vec!["alpha".into(), "beta".into()],
            ..Config::default()
        };
        let v = run_with(
            "fn ok(&self) {\n    let b = self.beta.lock();\n    drop(b);\n    let a = self.alpha.lock();\n}\n",
            &cfg,
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn missing_docs_flags_undocumented_pub_items() {
        let v = run(
            "/// Documented.\npub fn good() {}\n\npub fn bad() {}\n\n#[derive(Debug)]\npub struct AlsoBad;\n",
        );
        let items: Vec<_> = v.iter().map(|x| x.item.as_str()).collect();
        assert_eq!(items, vec!["bad", "AlsoBad"], "{v:?}");
    }

    #[test]
    fn missing_docs_attr_required_on_crate_roots() {
        let v = lint_source("x/src/lib.rs", "//! Crate docs.\n", &Config::default(), true, false);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "missing-docs-attr");
        let ok = lint_source(
            "x/src/lib.rs",
            "#![warn(missing_docs)]\n//! Crate docs.\n",
            &Config::default(),
            true,
            false,
        );
        assert!(ok.is_empty(), "{ok:?}");
    }

    #[test]
    fn thread_sleep_flagged_in_lib_not_in_tests_or_bins() {
        let v = run("fn pace() {\n    std::thread::sleep(d);\n}\n");
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "thread-sleep");
        let poll = run("fn poll(rx: &Receiver<u8>) {\n    let _ = rx.recv_timeout(d);\n}\n");
        assert_eq!(poll.len(), 1, "{poll:?}");
        assert_eq!((poll[0].rule, poll[0].item.as_str()), ("thread-sleep", "poll"));
        assert!(poll[0].message.contains("recv_timeout"), "{poll:?}");
        let in_test = run(
            "#[cfg(test)]\nmod tests {\n    fn pace() {\n        std::thread::sleep(d);\n    }\n}\n",
        );
        assert!(in_test.is_empty(), "{in_test:?}");
        let in_bin = lint_source(
            "x/src/main.rs",
            "fn pace() {\n    std::thread::sleep(d);\n}\n",
            &Config::default(),
            false,
            true,
        );
        assert!(in_bin.is_empty(), "{in_bin:?}");
    }

    #[test]
    fn lane_inline_flags_exported_non_generic_lane_fns() {
        let v = run(
            "pub fn bare(lane: &mut Lane, i: usize) -> u64 {\n    0\n}\n\
             #[inline]\npub fn marked(lane: &mut Lane) {}\n\
             pub fn generic<T: Copy>(lane: &mut Lane, t: T) {}\n\
             pub(crate) fn private(lane: &mut Lane) {}\n\
             pub fn no_lane(x: &mut Vec<u32>) {}\n\
             impl<'a> View for Gpma<'a> {\n    fn slot(&self, lane: &mut gpma_sim::Lane<'_>) {}\n    \
             #[inline]\n    fn row(&self, lane: &mut Lane) {}\n}\n\
             impl<T: View> Erased for T {\n    fn slot(&self, lane: &mut Lane) {}\n}\n\
             impl Store {\n    fn helper(&self, lane: &mut Lane) {}\n    \
             pub fn find(\n        &self,\n        lane: &mut Lane,\n    ) -> usize {\n        0\n    }\n}\n\
             pub fn moded<M: LaneMode>(lane: &mut Lane<'_, M>, i: usize) {}\n\
             pub fn concrete(lane: &mut Lane<'_, Untraced>) {}\n\
             #[inline]\npub fn concrete_marked(lane: &mut gpma_sim::Lane<'_, gpma_sim::Traced>) {}\n\
             impl DeviceGraphView for DeviceView<'_> {\n    \
             fn slot_entry<M: LaneMode>(&self, lane: &mut Lane<'_, M>, slot: usize) -> u64 {\n        0\n    }\n    \
             fn row_range(&self, lane: &mut Lane<'_, Untraced>) {}\n}\n\
             impl HostGraph for Snap {\n    \
             fn for_each_neighbor(&self, v: u32, f: &mut dyn FnMut(u32, u64)) {}\n    \
             #[inline]\n    fn for_each_edge(&self, f: &mut dyn FnMut(u32, u32)) {}\n}\n\
             impl<G: HostGraph> HostGraph for Wrap<G> {\n    \
             fn for_each_edge(&self, f: &mut dyn FnMut(u32, u32)) {}\n}\n\
             impl Snap {\n    fn walk(&self, f: &mut dyn FnMut(u32)) {}\n}\n\
             pub fn visit(f: &mut dyn FnMut(u32)) {}\n",
        );
        let items: Vec<_> = v
            .iter()
            .filter(|x| x.rule == "lane-inline")
            .map(|x| (x.item.as_str(), x.line))
            .collect();
        assert_eq!(
            items,
            vec![
                ("bare", 1),
                ("slot", 10),
                ("find", 19),
                ("concrete", 27),
                ("row_range", 34),
                ("for_each_neighbor", 37),
            ],
            "{v:?}"
        );
    }

    #[test]
    fn allowlist_silences_by_exact_key() {
        let mut cfg = Config::default();
        cfg.allow.insert("missing-docs:x/src/a.rs:bad".to_string());
        let v = run_with("pub fn bad() {}\n", &cfg);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn cfg_test_modules_are_fully_masked() {
        let v = run(
            "#[cfg(test)]\nmod tests {\n    // lint: hot-path\n    fn hot() {\n        let v = Vec::new();\n    }\n    pub fn undocd() {}\n}\n",
        );
        assert!(v.is_empty(), "{v:?}");
    }
}
