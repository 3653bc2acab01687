//! The rule catalog and shared token-stream helpers.
//!
//! Each rule is a function from a lexed file (or, for workspace rules, the
//! whole file set) to findings. Rules are deliberately heuristic: they work
//! on token streams, not types, and they trade a small false-positive rate
//! (answered by an explicit, reasoned suppression) for zero build-time
//! dependencies and sub-second whole-workspace runs.

pub mod deterministic_iteration;
pub mod no_deep_clone;
pub mod no_env_reads;
pub mod no_panic;
pub mod no_raw_threads;
pub mod shim_api_drift;

use crate::lexer::{Lexed, Tok, Token};
use crate::source::SourceFile;
use std::collections::BTreeSet;

/// Every rule name, including the meta-rule reported for malformed
/// suppression directives.
pub const RULE_NAMES: [&str; 7] = [
    "no-panic-in-libs",
    "no-env-reads",
    "deterministic-iteration",
    "no-deep-clone",
    "no-raw-threads",
    "shim-api-drift",
    "bad-suppression",
];

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// Workspace-relative path, first for derived ordering.
    pub path: String,
    pub line: u32,
    pub col: u32,
    /// One of [`RULE_NAMES`].
    pub rule: &'static str,
    pub message: String,
}

impl Finding {
    pub fn new(
        file: &SourceFile,
        at: &Token,
        rule: &'static str,
        message: impl Into<String>,
    ) -> Self {
        Finding {
            path: file.path.clone(),
            line: at.line,
            col: at.col,
            rule,
            message: message.into(),
        }
    }
}

/// Run every per-file rule over one lexed file.
pub fn run_file_rules(file: &SourceFile, lexed: &Lexed) -> Vec<Finding> {
    let mut out = Vec::new();
    out.extend(no_panic::check(file, lexed));
    out.extend(no_env_reads::check(file, lexed));
    out.extend(deterministic_iteration::check(file, lexed));
    out.extend(no_deep_clone::check(file, lexed));
    out.extend(no_raw_threads::check(file, lexed));
    out
}

/// Identifiers bound to one of `type_names` somewhere in the file.
///
/// Recognized binding shapes (a deliberate, documented subset):
///   - type ascription: `name: Type<...>`, `name: &Type`, `name: &mut Type`,
///     `name: &'a Type` — covers `let`s, parameters, and struct fields —
///     also when wrapped once in `Option<..>` (`agreed: Option<HashMap<..>>`);
///   - constructor inference: `let [mut] name = Type::...`;
///   - for `Vec` only, macro inference: `let [mut] name = vec![...]`.
///
/// Receivers whose type never appears in the file (trait objects, generics,
/// slices) escape the heuristic; rules built on it say so in their docs.
pub fn typed_idents(tokens: &[Token], type_names: &[&str]) -> BTreeSet<String> {
    bindings(tokens, type_names)
        .into_iter()
        .map(|b| b.name)
        .collect()
}

/// The subset of [`typed_idents`] whose written type arguments name `arg`
/// at any depth: `m: HashMap<K, f64>`, `m: &HashMap<K, Vec<f64>>`, or
/// `let m = HashMap::<K, f64>::new()`. A binding whose type arguments are
/// left to inference is not returned.
pub fn typed_idents_with_arg(tokens: &[Token], type_names: &[&str], arg: &str) -> BTreeSet<String> {
    bindings(tokens, type_names)
        .into_iter()
        .filter(|b| type_args_name(tokens, b.ty, arg))
        .map(|b| b.name)
        .collect()
}

/// Where a binding is visible.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Scope {
    /// Struct, enum and union fields, and bindings outside every `fn`.
    File,
    /// Parameters and `let`s: the `fn` (its token index) declaring them.
    Fn(usize),
}

/// The bindings [`typed_idents`] recognizes, each scoped: a `fn`
/// parameter or `let` is seen only inside the `fn` that declares it (the
/// [`preceding_fn_names`] stand-in, so a closure belongs to its `fn`), while
/// a field is seen everywhere in the file. A name bound to a tracked type
/// in one `fn` is then not mistaken for it in another.
pub struct ScopedIdents {
    bound: Vec<(String, Scope)>,
    fns: Vec<(usize, String)>,
}

impl ScopedIdents {
    /// Bindings to one of `type_names`; with `arg`, only those whose
    /// written type arguments name it (see [`typed_idents_with_arg`]).
    pub fn new(tokens: &[Token], type_names: &[&str], arg: Option<&str>) -> Self {
        let fns = preceding_fn_names(tokens);
        let fields = field_tokens(tokens);
        let bound = bindings(tokens, type_names)
            .into_iter()
            .filter(|b| arg.is_none_or(|arg| type_args_name(tokens, b.ty, arg)))
            .map(|b| {
                let scope = match enclosing_fn_at(&fns, b.at) {
                    Some(f) if !fields[b.at] => Scope::Fn(f),
                    _ => Scope::File,
                };
                (b.name, scope)
            })
            .collect();
        ScopedIdents { bound, fns }
    }

    /// Whether nothing is bound.
    pub fn is_empty(&self) -> bool {
        self.bound.is_empty()
    }

    /// Whether `name`, used at token index `at`, is one of the bindings.
    pub fn contains(&self, name: &str, at: usize) -> bool {
        let here = enclosing_fn_at(&self.fns, at);
        self.bound.iter().any(|(n, scope)| {
            n == name
                && match scope {
                    Scope::File => true,
                    Scope::Fn(f) => here == Some(*f),
                }
        })
    }
}

/// For each token, whether it sits in the body of a `struct`, `enum` or
/// `union` (at any depth), where `name: Type` declares a field.
fn field_tokens(tokens: &[Token]) -> Vec<bool> {
    let mut out = Vec::with_capacity(tokens.len());
    // One entry per open `{`: whether it opened (or sits in) a field body.
    let mut open: Vec<bool> = Vec::new();
    let mut item_pending = false;
    for (i, t) in tokens.iter().enumerate() {
        match &t.tok {
            Tok::Ident(s)
                if matches!(s.as_str(), "struct" | "enum" | "union")
                    && !(i > 0 && punct_at(tokens, i - 1, '.')) =>
            {
                item_pending = true;
            }
            // A unit or tuple struct ends without a body.
            Tok::Punct(';') => item_pending = false,
            Tok::Punct('{') => {
                let inside = open.last().copied().unwrap_or(false);
                open.push(item_pending || inside);
                item_pending = false;
            }
            Tok::Punct('}') => {
                open.pop();
            }
            _ => {}
        }
        out.push(open.last().copied().unwrap_or(false));
    }
    out
}

/// One recognized binding: the bound name, the index of its name token,
/// and the index of the type token that matched (the `vec` ident for
/// macro inference).
struct Binding {
    name: String,
    at: usize,
    ty: usize,
}

/// Every binding [`typed_idents`] recognizes.
fn bindings(tokens: &[Token], type_names: &[&str]) -> Vec<Binding> {
    let mut found = Vec::new();
    let is_type = |t: Option<&Token>| {
        matches!(t.map(|t| &t.tok), Some(Tok::Ident(s)) if type_names.contains(&s.as_str()))
    };
    for (i, t) in tokens.iter().enumerate() {
        let Tok::Ident(name) = &t.tok else { continue };
        // `name : [&..] [path::]* Type`, or the same inside one `Option<..>`
        if matches!(tokens.get(i + 1).map(|t| &t.tok), Some(Tok::Punct(':'))) {
            let mut j = skip_path_prefix(tokens, skip_refs(tokens, i + 2));
            if ident_at(tokens, j, "Option") && punct_at(tokens, j + 1, '<') {
                j = skip_path_prefix(tokens, skip_refs(tokens, j + 2));
            }
            if is_type(tokens.get(j)) {
                found.push(Binding {
                    name: name.clone(),
                    at: i,
                    ty: j,
                });
            }
        }
        // `let [mut] name = Type::...` / `let [mut] name = vec![...]`
        if name == "let" {
            let mut j = i + 1;
            if matches!(tokens.get(j).map(|t| &t.tok), Some(Tok::Ident(s)) if s == "mut") {
                j += 1;
            }
            let Some(Tok::Ident(bound)) = tokens.get(j).map(|t| &t.tok) else {
                continue;
            };
            if !matches!(tokens.get(j + 1).map(|t| &t.tok), Some(Tok::Punct('='))) {
                continue;
            }
            let rhs = tokens.get(j + 2).map(|t| &t.tok);
            // `= [path::]* Type :: ctor(...)`: any path segment followed by
            // `::` that names a tracked type marks a constructor call.
            let mut k = j + 2;
            while matches!(tokens.get(k).map(|t| &t.tok), Some(Tok::Ident(_)))
                && matches!(tokens.get(k + 1).map(|t| &t.tok), Some(Tok::PathSep))
            {
                if is_type(tokens.get(k)) {
                    found.push(Binding {
                        name: bound.clone(),
                        at: j,
                        ty: k,
                    });
                    break;
                }
                k += 2;
            }
            let rhs_is_vec_macro = type_names.contains(&"Vec")
                && matches!(rhs, Some(Tok::Ident(s)) if s == "vec")
                && matches!(tokens.get(j + 3).map(|t| &t.tok), Some(Tok::Punct('!')));
            if rhs_is_vec_macro {
                found.push(Binding {
                    name: bound.clone(),
                    at: j,
                    ty: j + 2,
                });
            }
        }
    }
    found
}

/// Whether the type named at `tokens[ty]` has written type arguments
/// (`Type<...>` or turbofish `Type::<...>`) naming `arg` at any depth.
fn type_args_name(tokens: &[Token], ty: usize, arg: &str) -> bool {
    let mut i = ty + 1;
    if pathsep_at(tokens, i) {
        i += 1;
    }
    if !punct_at(tokens, i, '<') {
        return false;
    }
    let mut depth = 0usize;
    for t in &tokens[i..] {
        match &t.tok {
            Tok::Punct('<') => depth += 1,
            Tok::Punct('>') => {
                depth -= 1;
                if depth == 0 {
                    return false;
                }
            }
            Tok::Ident(s) if s == arg => return true,
            // A type's arguments never hold these; stop at a malformed one.
            Tok::Punct(';') | Tok::Punct('{') => return false,
            _ => {}
        }
    }
    false
}

/// Skip the `&`, lifetime and `mut` tokens that may open a written type.
fn skip_refs(tokens: &[Token], mut j: usize) -> usize {
    while matches!(
        tokens.get(j).map(|t| &t.tok),
        Some(Tok::Punct('&')) | Some(Tok::Lifetime)
    ) || ident_at(tokens, j, "mut")
    {
        j += 1;
    }
    j
}

/// Skip `ident ::` pairs so `std::collections::HashMap` matches on its
/// final segment. The segment at the returned index is NOT consumed.
fn skip_path_prefix(tokens: &[Token], mut j: usize) -> usize {
    while matches!(tokens.get(j).map(|t| &t.tok), Some(Tok::Ident(_)))
        && matches!(tokens.get(j + 1).map(|t| &t.tok), Some(Tok::PathSep))
    {
        j += 2;
    }
    j
}

/// For each token index, the name of the innermost preceding `fn` — a cheap
/// stand-in for "which function am I in" that ignores closures.
pub fn preceding_fn_names(tokens: &[Token]) -> Vec<(usize, String)> {
    let mut fns = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        if matches!(&t.tok, Tok::Ident(s) if s == "fn") {
            if let Some(Tok::Ident(name)) = tokens.get(i + 1).map(|t| &t.tok) {
                fns.push((i, name.clone()));
            }
        }
    }
    fns
}

/// Name of the `fn` most recently opened before token index `i`.
pub fn enclosing_fn(fns: &[(usize, String)], i: usize) -> Option<&str> {
    fns.iter()
        .rev()
        .find(|(fi, _)| *fi < i)
        .map(|(_, name)| name.as_str())
}

/// Token index of the `fn` most recently opened before token index `i`
/// (what [`enclosing_fn`] names; indices tell same-named methods apart).
fn enclosing_fn_at(fns: &[(usize, String)], i: usize) -> Option<usize> {
    fns.iter().rev().find(|(fi, _)| *fi < i).map(|(fi, _)| *fi)
}

/// Whether a method call `.name(` (or `.name::<..>(`) to one of `names`
/// starts within `lines` of `line` (inclusive, forward window). A bare
/// identifier of that name (a binding called `sum`) is not a call.
pub fn method_call_in_window(tokens: &[Token], line: u32, lines: u32, names: &[&str]) -> bool {
    tokens.iter().enumerate().any(|(i, t)| {
        t.line >= line
            && t.line <= line.saturating_add(lines)
            && matches!(&t.tok, Tok::Ident(s) if names.contains(&s.as_str()))
            && i > 0
            && punct_at(tokens, i - 1, '.')
            && (punct_at(tokens, i + 1, '(') || pathsep_at(tokens, i + 1))
    })
}

/// Whether any token within `lines` of `line` (inclusive, forward window)
/// is an identifier from `names`.
pub fn ident_in_window(tokens: &[Token], line: u32, lines: u32, names: &[&str]) -> bool {
    tokens.iter().any(|t| {
        t.line >= line
            && t.line <= line.saturating_add(lines)
            && matches!(&t.tok, Tok::Ident(s) if names.contains(&s.as_str()))
    })
}

/// `tokens[i..]` starts with the given identifier.
pub fn ident_at(tokens: &[Token], i: usize, name: &str) -> bool {
    matches!(tokens.get(i).map(|t| &t.tok), Some(Tok::Ident(s)) if s == name)
}

/// `tokens[i]` is the given punctuation character.
pub fn punct_at(tokens: &[Token], i: usize, c: char) -> bool {
    matches!(tokens.get(i).map(|t| &t.tok), Some(Tok::Punct(p)) if *p == c)
}

/// `tokens[i]` is the fused `::` separator.
pub fn pathsep_at(tokens: &[Token], i: usize) -> bool {
    matches!(tokens.get(i).map(|t| &t.tok), Some(Tok::PathSep))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn typed_idents_sees_ascriptions_params_and_ctors() {
        let src = "struct S { rows: Vec<u32> }\nfn f(data: &mut Vec<f64>, r: &'a Relation) {\n    let mut acc = Vec::new();\n    let lits = vec![1, 2];\n    let other: HashMap<u32, f64> = HashMap::new();\n}\n";
        let lexed = lex(src);
        let vecs = typed_idents(&lexed.tokens, &["Vec"]);
        assert!(vecs.contains("rows"));
        assert!(vecs.contains("data"));
        assert!(vecs.contains("acc"));
        assert!(vecs.contains("lits"));
        assert!(!vecs.contains("other"));
        let rels = typed_idents(&lexed.tokens, &["Relation"]);
        assert!(rels.contains("r"));
        let maps = typed_idents(&lexed.tokens, &["HashMap", "HashSet"]);
        assert!(maps.contains("other"));
    }

    #[test]
    fn typed_idents_see_through_option() {
        let src = "fn f(acc: &mut Option<HashMap<K, V>>) {\n    let mut agreed: Option<std::collections::HashMap<u32, f64>> = None;\n    let plain: Option<u32> = None;\n}\n";
        let lexed = lex(src);
        let maps = typed_idents(&lexed.tokens, &["HashMap"]);
        assert!(maps.contains("acc"));
        assert!(maps.contains("agreed"));
        assert!(!maps.contains("plain"));
        let float_maps = typed_idents_with_arg(&lexed.tokens, &["HashMap"], "f64");
        assert!(float_maps.contains("agreed"));
        assert!(!float_maps.contains("acc"));
    }

    #[test]
    fn scoped_idents_stay_in_their_fn_and_fields_do_not() {
        let src = "struct S {\n    cache: HashMap<u32, f64>,\n}\nfn a(m: HashMap<u32, f64>) {\n    m.len();\n}\nfn b(m: Vec<f64>) {\n    let f = |m: &u32| m;\n    m.len();\n    cache.len();\n}\n";
        let lexed = lex(src);
        let maps = ScopedIdents::new(&lexed.tokens, &["HashMap"], None);
        let last = |line: u32, name: &str| {
            lexed
                .tokens
                .iter()
                .rposition(|t| t.line == line && matches!(&t.tok, Tok::Ident(s) if s == name))
                .expect(name)
        };
        assert!(
            maps.contains("m", last(5, "m")),
            "a's parameter is a map in a"
        );
        assert!(!maps.contains("m", last(8, "m")), "not in b's closure");
        assert!(
            !maps.contains("m", last(9, "m")),
            "not as b's own parameter"
        );
        assert!(
            maps.contains("cache", last(10, "cache")),
            "fields are file-wide"
        );
        let float_maps = ScopedIdents::new(&lexed.tokens, &["HashMap"], Some("f64"));
        assert!(float_maps.contains("m", last(5, "m")));
        assert!(!ScopedIdents::new(&lexed.tokens, &["HashMap"], Some("u64"))
            .contains("m", last(5, "m")));
    }

    #[test]
    fn folds_count_only_as_method_calls() {
        let lexed = lex("for (g, sum) in m {\n    x(sum);\n}\nlet t = v.iter().sum::<f64>();\n");
        assert!(!method_call_in_window(&lexed.tokens, 1, 2, &["sum"]));
        assert!(method_call_in_window(&lexed.tokens, 4, 0, &["sum"]));
    }

    #[test]
    fn enclosing_fn_tracks_most_recent() {
        let src = "fn alpha() { x(); }\nfn beta() { y(); }\n";
        let lexed = lex(src);
        let fns = preceding_fn_names(&lexed.tokens);
        let y_idx = lexed
            .tokens
            .iter()
            .position(|t| matches!(&t.tok, Tok::Ident(s) if s == "y"))
            .expect("y token");
        assert_eq!(enclosing_fn(&fns, y_idx), Some("beta"));
    }
}
