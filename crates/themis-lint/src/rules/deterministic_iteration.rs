//! `deterministic-iteration`: `HashMap`/`HashSet` iteration order must never
//! reach an ordered result.
//!
//! This is the exact bug class PR 3 fixed: a result row order that depended
//! on hash iteration. The rule flags iteration over a receiver the file
//! declares as `HashMap`/`HashSet` (`.iter()`, `.keys()`, `.values()`,
//! `.into_iter()`, `.drain()`, or a `for ... in` loop) **when** the
//! surrounding statement window feeds an order-sensitive sink **and**
//! nothing in the window restores an order (`sort*` calls, or collecting
//! into a `BTreeMap`/`BTreeSet`/`BinaryHeap`). The sinks are:
//!
//! - `push`, `collect`, `extend`, for every tracked map;
//! - the method calls `.sum(`, `.fold(`, `.product(` and the operator `+=`,
//!   for a map whose *written* type arguments carry `f64`
//!   (`HashMap<K, f64>`): f64 addition is not associative, so a fold in
//!   hash order can differ between two maps with the same entries. That is
//!   how BIC family scores once broke near-ties differently from build to
//!   build. A map whose value type is inferred is invisible to this half of
//!   the rule, and a plain identifier named `sum` is not a fold.
//!
//! Map bindings are scoped ([`crate::rules::ScopedIdents`]): a parameter or
//! `let` is a map only inside the `fn` that declares it, so another `fn`'s
//! closure parameter of the same name is not one; struct fields are maps
//! everywhere in the file.
//!
//! The window is a fixed forward span of source lines — a deliberate
//! heuristic: a sort performed inside a callee (e.g. a constructor that
//! sorts its input) is invisible here and is answered with a reasoned
//! suppression at the site.

use crate::lexer::{Lexed, Tok};
use crate::rules::{ident_in_window, method_call_in_window, punct_at, Finding, ScopedIdents};
use crate::source::{FileClass, SourceFile};
use std::collections::BTreeSet;

pub const RULE: &str = "deterministic-iteration";

/// Forward window (in lines) scanned for sinks and order-restorers.
const WINDOW: u32 = 15;

const ITER_METHODS: [&str; 6] = ["iter", "keys", "values", "into_iter", "drain", "iter_mut"];
const SINKS: [&str; 3] = ["push", "collect", "extend"];
/// Folds whose result depends on order when the values are f64, matched
/// only as method calls (`.sum(`); `+=` is matched as a token pair.
const FLOAT_FOLDS: [&str; 3] = ["sum", "fold", "product"];
const ORDER_RESTORERS: [&str; 9] = [
    "sort",
    "sort_by",
    "sort_by_key",
    "sort_unstable",
    "sort_unstable_by",
    "sort_unstable_by_key",
    "BTreeMap",
    "BTreeSet",
    "BinaryHeap",
];

pub fn check(file: &SourceFile, lexed: &Lexed) -> Vec<Finding> {
    let FileClass::Lib { .. } = &file.class else {
        return Vec::new();
    };
    let toks = &lexed.tokens;
    let maps = ScopedIdents::new(toks, &["HashMap", "HashSet"], None);
    if maps.is_empty() {
        return Vec::new();
    }
    let float_maps = ScopedIdents::new(toks, &["HashMap", "HashSet"], Some("f64"));
    let mut out = Vec::new();
    let mut flagged_lines: BTreeSet<u32> = BTreeSet::new();
    for (i, t) in toks.iter().enumerate() {
        if lexed.in_test_code(t.line) || flagged_lines.contains(&t.line) {
            continue;
        }
        let Tok::Ident(name) = &t.tok else { continue };
        let site = if maps.contains(name, i)
            && punct_at(toks, i + 1, '.')
            && matches!(
                toks.get(i + 2).map(|t| &t.tok),
                Some(Tok::Ident(m)) if ITER_METHODS.contains(&m.as_str())
            ) {
            Some(("iteration", name.as_str()))
        } else if name == "for" {
            for_loop_over_map(toks, i, &maps).map(|map| ("`for` loop", map))
        } else {
            None
        };
        let Some((kind, map_name)) = site else { continue };
        if ident_in_window(toks, t.line, WINDOW, &ORDER_RESTORERS) {
            continue;
        }
        let message = if ident_in_window(toks, t.line, WINDOW, &SINKS) {
            format!(
                "{kind} over hash-ordered `{map_name}` feeds push/collect/extend with no \
                 adjacent sort or BTree collection; hash order must not reach results"
            )
        } else if float_maps.contains(map_name, i)
            && (method_call_in_window(toks, t.line, WINDOW, &FLOAT_FOLDS)
                || plus_eq_in_window(toks, t.line, WINDOW))
        {
            format!(
                "{kind} over hash-ordered `{map_name}` folds f64 values (sum/fold/product/+=) \
                 with no adjacent sort or BTree collection; f64 addition is not associative, \
                 so hash order changes the result"
            )
        } else {
            continue;
        };
        flagged_lines.insert(t.line);
        out.push(Finding::new(file, t, RULE, message));
    }
    out
}

/// Whether a `+=` starts within `lines` of `line` (forward window).
fn plus_eq_in_window(toks: &[crate::lexer::Token], line: u32, lines: u32) -> bool {
    toks.windows(2).any(|w| {
        w[0].line >= line
            && w[0].line <= line.saturating_add(lines)
            && w[0].tok == Tok::Punct('+')
            && w[1].tok == Tok::Punct('=')
            && w[1].line == w[0].line
            && w[1].col == w[0].col + 1
    })
}

/// If the `for` header starting at token `i` iterates (directly or by
/// reference) over one of the tracked map identifiers, returns that
/// identifier so the finding can name it.
fn for_loop_over_map<'a>(
    toks: &'a [crate::lexer::Token],
    i: usize,
    maps: &ScopedIdents,
) -> Option<&'a str> {
    // Scan the header tokens up to the loop body `{`, looking for `in` then
    // a tracked ident among the following tokens.
    let mut saw_in = false;
    for (j, t) in toks.iter().enumerate().skip(i + 1).take(40) {
        match &t.tok {
            Tok::Punct('{') => return None,
            Tok::Ident(s) if s == "in" => saw_in = true,
            Tok::Ident(s) if saw_in && maps.contains(s, j) => return Some(s),
            _ => {}
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn findings(src: &str) -> Vec<Finding> {
        let file = SourceFile::new("crates/themis-query/src/a.rs", src);
        let lexed = lex(&file.text);
        check(&file, &lexed)
    }

    #[test]
    fn flags_unsorted_collect_from_hashmap() {
        let src = "use std::collections::HashMap;\nfn f(acc: HashMap<u32, f64>) -> Vec<(u32, f64)> {\n    acc.into_iter().collect()\n}\n";
        let got = findings(src);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].line, 3);
    }

    #[test]
    fn adjacent_sort_absolves() {
        let src = "fn f(acc: std::collections::HashMap<u32, f64>) -> Vec<(u32, f64)> {\n    let mut rows: Vec<(u32, f64)> = acc.into_iter().collect();\n    rows.sort_by_key(|r| r.0);\n    rows\n}\n";
        assert!(findings(src).is_empty());
    }

    #[test]
    fn btree_collect_absolves() {
        let src = "fn f(acc: std::collections::HashMap<u32, f64>) -> Vec<(u32, f64)> {\n    let ordered: std::collections::BTreeMap<u32, f64> = acc.into_iter().collect();\n    ordered.into_iter().collect()\n}\n";
        assert!(findings(src).is_empty());
    }

    #[test]
    fn flags_for_loop_pushing_from_hashmap() {
        let src = "fn f(m: std::collections::HashMap<u32, f64>) -> Vec<u32> {\n    let mut out = Vec::new();\n    for (k, _) in &m {\n        out.push(*k);\n    }\n    out\n}\n";
        let got = findings(src);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].line, 3);
        assert!(got[0].message.contains("`m`"), "message names the map: {}", got[0].message);
    }

    #[test]
    fn f64_sums_in_hash_order_are_flagged() {
        let src = "fn f(m: std::collections::HashMap<u32, f64>) -> f64 {\n    m.values().sum()\n}\n";
        let got = findings(src);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].line, 2);
        assert!(got[0].message.contains("not associative"), "{}", got[0].message);
    }

    #[test]
    fn f64_accumulation_in_a_for_loop_is_flagged() {
        let src = "fn f(m: &HashMap<Vec<u32>, f64>) -> f64 {\n    let mut t = 0.0;\n    for (_, c) in m {\n        t += c;\n    }\n    t\n}\n";
        let got = findings(src);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].line, 3);
    }

    #[test]
    fn integer_and_sorted_folds_are_fine() {
        // Integer addition is associative.
        let src = "fn f(m: std::collections::HashMap<u32, u64>) -> u64 {\n    m.values().sum()\n}\n";
        assert!(findings(src).is_empty());
        // A sort in the window restores an order.
        let src = "fn f(m: HashMap<u32, f64>) -> f64 {\n    let mut v: Vec<(u32, f64)> = m.into_iter().collect();\n    v.sort_by_key(|e| e.0);\n    v.iter().map(|e| e.1).sum()\n}\n";
        assert!(findings(src).is_empty());
        // A value type left to inference is invisible.
        let src = "fn f() -> f64 {\n    let m = std::collections::HashMap::new();\n    m.values().sum()\n}\n";
        assert!(findings(src).is_empty());
    }

    #[test]
    fn order_insensitive_consumers_are_fine() {
        let src = "fn f(m: std::collections::HashMap<u32, f64>) -> usize {\n    m.values().filter(|v| **v > 0.0).count()\n}\n";
        assert!(findings(src).is_empty());
    }
}
