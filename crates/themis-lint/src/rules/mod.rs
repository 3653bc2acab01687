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
        .map(|(name, _)| name)
        .collect()
}

/// The subset of [`typed_idents`] whose written type arguments name `arg`
/// at any depth: `m: HashMap<K, f64>`, `m: &HashMap<K, Vec<f64>>`, or
/// `let m = HashMap::<K, f64>::new()`. A binding whose type arguments are
/// left to inference is not returned.
pub fn typed_idents_with_arg(tokens: &[Token], type_names: &[&str], arg: &str) -> BTreeSet<String> {
    bindings(tokens, type_names)
        .into_iter()
        .filter(|&(_, ty)| type_args_name(tokens, ty, arg))
        .map(|(name, _)| name)
        .collect()
}

/// Every binding [`typed_idents`] recognizes, with the index of the type
/// token that matched (the `vec` ident for macro inference).
fn bindings(tokens: &[Token], type_names: &[&str]) -> Vec<(String, usize)> {
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
                found.push((name.clone(), j));
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
                    found.push((bound.clone(), k));
                    break;
                }
                k += 2;
            }
            let rhs_is_vec_macro = type_names.contains(&"Vec")
                && matches!(rhs, Some(Tok::Ident(s)) if s == "vec")
                && matches!(tokens.get(j + 3).map(|t| &t.tok), Some(Tok::Punct('!')));
            if rhs_is_vec_macro {
                found.push((bound.clone(), j + 2));
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
