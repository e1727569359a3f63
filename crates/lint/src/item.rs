//! A lightweight item-level parser on top of the token scanner.
//!
//! Walks a file's token stream and records module-level and impl-level
//! items — functions, types, constants, modules, imports — with their
//! visibility, 1-based line, and (for functions) the token range of the
//! body block. It is deliberately not a full Rust parser: it only needs
//! to be accurate enough for the workspace rules (pub-surface needs
//! effective visibility of named items; hot-path-alloc needs function
//! body spans) without false positives, and it degrades by skipping a
//! token rather than failing on anything it does not understand.

use crate::scan::{matching_close, Kind, Token};

/// The syntactic class of an item.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ItemKind {
    /// `fn` (free function, method, or associated function).
    Fn,
    /// `struct`.
    Struct,
    /// `enum`.
    Enum,
    /// `union`.
    Union,
    /// `trait`.
    Trait,
    /// `mod` (inline or file declaration).
    Mod,
    /// `use` import (name is the last path segment, or empty for globs).
    Use,
    /// `const` item (not a `const fn`).
    Const,
    /// `static` item.
    Static,
    /// `type` alias.
    TypeAlias,
    /// `macro_rules!` definition.
    Macro,
}

/// Declared visibility of an item.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Vis {
    /// No modifier: private to the enclosing module.
    Private,
    /// `pub(crate)`.
    Crate,
    /// `pub(super)` / `pub(in path)`.
    Restricted,
    /// Bare `pub`.
    Pub,
}

/// One parsed item.
#[derive(Debug, Clone)]
pub(crate) struct Item {
    /// Syntactic class.
    pub kind: ItemKind,
    /// Item name (for `impl` blocks nothing is recorded; for `use` the
    /// final path segment).
    pub name: String,
    /// Declared visibility at the item itself. Rules consume the derived
    /// `effective_pub`; the raw form is asserted by the parser tests.
    #[allow(dead_code)]
    pub vis: Vis,
    /// `true` when the item is `pub` at this *and* every enclosing
    /// module, i.e. reachable from outside the crate by path.
    pub effective_pub: bool,
    /// 1-based line of the item keyword.
    pub line: u32,
    /// For functions with a body: `(open, close)` token indices of the
    /// outermost `{`/`}` of the body block.
    pub body: Option<(usize, usize)>,
    /// `true` when declared inside an `impl` block (methods and
    /// associated items — their reachability follows the self type, so
    /// the pub-surface rule skips them).
    pub in_impl: bool,
}

/// Parses every item in a file's token stream.
#[must_use]
pub(crate) fn parse_items(tokens: &[Token]) -> Vec<Item> {
    let mut out = Vec::new();
    walk(tokens, 0, tokens.len(), true, false, &mut out);
    out
}

fn ident_at(tokens: &[Token], i: usize) -> Option<&str> {
    match tokens.get(i) {
        Some(t) if t.kind == Kind::Ident => Some(t.text.as_str()),
        _ => None,
    }
}

fn punct_at(tokens: &[Token], i: usize, p: &str) -> bool {
    matches!(tokens.get(i), Some(t) if t.is_punct(p))
}

/// Scans forward from `i` for the first `{` (returning `Ok(idx)`) or
/// statement-ending `;` (returning `Err(idx)`) at zero paren/bracket
/// depth, bounded by `end`. Used to find item bodies past signatures
/// that may themselves contain `;` (array types) or parenthesised
/// groups.
fn body_or_semi(tokens: &[Token], mut i: usize, end: usize) -> Result<usize, usize> {
    let mut parens = 0usize;
    let mut brackets = 0usize;
    while i < end {
        let t = &tokens[i];
        if t.kind == Kind::Punct {
            match t.text.as_str() {
                "(" => parens += 1,
                ")" => parens = parens.saturating_sub(1),
                "[" => brackets += 1,
                "]" => brackets = brackets.saturating_sub(1),
                "{" if parens == 0 && brackets == 0 => return Ok(i),
                ";" if parens == 0 && brackets == 0 => return Err(i),
                _ => {}
            }
        }
        i += 1;
    }
    Err(end.saturating_sub(1))
}

/// As [`body_or_semi`] but for `const`/`static`/`use`/`type` items whose
/// initialiser may contain a block expression: also balances braces and
/// only ends on a `;` at zero depth.
fn semi_at_depth_zero(tokens: &[Token], mut i: usize, end: usize) -> usize {
    let mut parens = 0usize;
    let mut brackets = 0usize;
    let mut braces = 0usize;
    while i < end {
        let t = &tokens[i];
        if t.kind == Kind::Punct {
            match t.text.as_str() {
                "(" => parens += 1,
                ")" => parens = parens.saturating_sub(1),
                "[" => brackets += 1,
                "]" => brackets = brackets.saturating_sub(1),
                "{" => braces += 1,
                "}" => braces = braces.saturating_sub(1),
                ";" if parens == 0 && brackets == 0 && braces == 0 => return i,
                _ => {}
            }
        }
        i += 1;
    }
    end.saturating_sub(1)
}

#[allow(clippy::too_many_lines)]
fn walk(
    tokens: &[Token],
    mut i: usize,
    end: usize,
    parent_pub: bool,
    in_impl: bool,
    out: &mut Vec<Item>,
) {
    while i < end {
        // Attributes: `#[...]` and inner `#![...]`.
        if punct_at(tokens, i, "#") {
            let open = if punct_at(tokens, i + 1, "[") {
                i + 1
            } else if punct_at(tokens, i + 1, "!") && punct_at(tokens, i + 2, "[") {
                i + 2
            } else {
                i += 1;
                continue;
            };
            i = matching_close(tokens, open, "[", "]") + 1;
            continue;
        }

        let item_line = tokens[i].line;
        let mut vis = Vis::Private;
        if ident_at(tokens, i) == Some("pub") {
            vis = Vis::Pub;
            i += 1;
            if punct_at(tokens, i, "(") {
                let close = matching_close(tokens, i, "(", ")");
                vis = if ident_at(tokens, i + 1) == Some("crate") {
                    Vis::Crate
                } else {
                    Vis::Restricted
                };
                i = close + 1;
            }
        }

        // Qualifiers before the item keyword.
        loop {
            match ident_at(tokens, i) {
                Some("async" | "unsafe" | "default") => i += 1,
                Some("const") if ident_at(tokens, i + 1) == Some("fn") => i += 1,
                Some("extern") if !matches!(ident_at(tokens, i + 1), Some("crate")) => {
                    // `extern "C" fn` — the ABI string is stripped by the
                    // scanner, so `extern` directly precedes `fn`.
                    i += 1;
                }
                _ => break,
            }
        }

        let effective_pub = parent_pub && vis == Vis::Pub;
        let push = |kind, name: String, body, next: usize, out: &mut Vec<Item>| {
            out.push(Item {
                kind,
                name,
                vis,
                effective_pub,
                line: item_line,
                body,
                in_impl,
            });
            next
        };

        match ident_at(tokens, i) {
            Some("fn") => {
                let name = ident_at(tokens, i + 1).unwrap_or("").to_string();
                match body_or_semi(tokens, i + 2, end) {
                    Ok(open) => {
                        let close = matching_close(tokens, open, "{", "}");
                        i = push(ItemKind::Fn, name, Some((open, close)), close + 1, out);
                    }
                    Err(semi) => {
                        i = push(ItemKind::Fn, name, None, semi + 1, out);
                    }
                }
            }
            Some(kw @ ("struct" | "enum" | "union" | "trait")) => {
                let kind = match kw {
                    "struct" => ItemKind::Struct,
                    "enum" => ItemKind::Enum,
                    "union" => ItemKind::Union,
                    _ => ItemKind::Trait,
                };
                let name = ident_at(tokens, i + 1).unwrap_or("").to_string();
                match body_or_semi(tokens, i + 2, end) {
                    Ok(open) => {
                        let close = matching_close(tokens, open, "{", "}");
                        i = push(kind, name, None, close + 1, out);
                    }
                    Err(semi) => {
                        i = push(kind, name, None, semi + 1, out);
                    }
                }
            }
            Some("impl") => match body_or_semi(tokens, i + 1, end) {
                Ok(open) => {
                    let close = matching_close(tokens, open, "{", "}");
                    walk(tokens, open + 1, close, parent_pub, true, out);
                    i = close + 1;
                }
                Err(semi) => i = semi + 1,
            },
            Some("mod") => {
                let name = ident_at(tokens, i + 1).unwrap_or("").to_string();
                match body_or_semi(tokens, i + 2, end) {
                    Ok(open) => {
                        let close = matching_close(tokens, open, "{", "}");
                        push(ItemKind::Mod, name, None, 0, out);
                        walk(tokens, open + 1, close, effective_pub, false, out);
                        i = close + 1;
                    }
                    Err(semi) => {
                        i = push(ItemKind::Mod, name, None, semi + 1, out);
                    }
                }
            }
            Some("use") => {
                let semi = semi_at_depth_zero(tokens, i + 1, end);
                // Final path segment, when the import names one thing.
                let name = match tokens.get(semi.wrapping_sub(1)) {
                    Some(t) if t.kind == Kind::Ident => t.text.clone(),
                    _ => String::new(),
                };
                i = push(ItemKind::Use, name, None, semi + 1, out);
            }
            Some(kw @ ("const" | "static")) => {
                let kind = if kw == "const" {
                    ItemKind::Const
                } else {
                    ItemKind::Static
                };
                let mut j = i + 1;
                if ident_at(tokens, j) == Some("mut") {
                    j += 1;
                }
                let name = ident_at(tokens, j).unwrap_or("").to_string();
                let semi = semi_at_depth_zero(tokens, j, end);
                i = push(kind, name, None, semi + 1, out);
            }
            Some("type") => {
                let name = ident_at(tokens, i + 1).unwrap_or("").to_string();
                let semi = semi_at_depth_zero(tokens, i + 1, end);
                i = push(ItemKind::TypeAlias, name, None, semi + 1, out);
            }
            Some("macro_rules") => {
                // `macro_rules ! name { ... }`
                let name = ident_at(tokens, i + 2).unwrap_or("").to_string();
                match body_or_semi(tokens, i + 3, end) {
                    Ok(open) => {
                        let close = matching_close(tokens, open, "{", "}");
                        i = push(ItemKind::Macro, name, None, close + 1, out);
                    }
                    Err(semi) => {
                        i = push(ItemKind::Macro, name, None, semi + 1, out);
                    }
                }
            }
            Some("extern") => {
                // `extern crate name;` (the non-qualifier case).
                let semi = semi_at_depth_zero(tokens, i + 1, end);
                i = semi + 1;
            }
            _ => i += 1,
        }
    }
}

/// Token index ranges `(open, close)` of every loop body (`for`/`while`/
/// `loop` block) between `start` and `end`, including nested loops.
/// Used by the hot-path-alloc rule over a function's body span.
#[must_use]
pub(crate) fn loop_bodies(tokens: &[Token], start: usize, end: usize) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut i = start;
    while i < end {
        let is_loop_kw = matches!(ident_at(tokens, i), Some("for" | "while" | "loop"))
            // `for` in `impl Trait for Type` headers never appears inside a
            // fn body; `while let` and bare `loop` are covered the same way.
            && !punct_at(tokens, i.wrapping_sub(1), ".");
        if is_loop_kw {
            if let Ok(open) = body_or_semi(tokens, i + 1, end) {
                let close = matching_close(tokens, open, "{", "}");
                out.push((open, close));
                // Continue inside the body so nested loops are recorded
                // too (containment checks then work for any of them).
                i = open + 1;
                continue;
            }
        }
        i += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::scan;

    fn items(src: &str) -> Vec<Item> {
        parse_items(&scan(src).tokens)
    }

    #[test]
    fn parses_visibility_and_kinds() {
        let src = "pub struct A;\npub(crate) fn b() {}\nfn c() {}\npub const D: u8 = 1;\npub type E = u8;\npub static F: u8 = 2;\n";
        let found = items(src);
        let by_name = |n: &str| found.iter().find(|i| i.name == n).unwrap();
        assert_eq!(by_name("A").kind, ItemKind::Struct);
        assert!(by_name("A").effective_pub);
        assert_eq!(by_name("b").vis, Vis::Crate);
        assert!(!by_name("b").effective_pub);
        assert_eq!(by_name("c").vis, Vis::Private);
        assert_eq!(by_name("D").kind, ItemKind::Const);
        assert_eq!(by_name("E").kind, ItemKind::TypeAlias);
        assert_eq!(by_name("F").kind, ItemKind::Static);
    }

    #[test]
    fn effective_visibility_follows_the_module_chain() {
        let src = "mod inner {\n    pub fn hidden() {}\n}\npub mod open {\n    pub fn shown() {}\n    fn private() {}\n}\n";
        let found = items(src);
        let by_name = |n: &str| found.iter().find(|i| i.name == n).unwrap();
        assert!(!by_name("hidden").effective_pub);
        assert!(by_name("shown").effective_pub);
        assert!(!by_name("private").effective_pub);
    }

    #[test]
    fn impl_methods_are_marked_and_fn_bodies_spanned() {
        let src = "pub struct S;\nimpl S {\n    pub fn m(&self) -> u8 { 1 }\n}\npub fn free(x: [u8; 4]) -> u8 { x.len() as u8 }\n";
        let found = items(src);
        let m = found.iter().find(|i| i.name == "m").unwrap();
        assert!(m.in_impl);
        assert!(m.body.is_some());
        let free = found.iter().find(|i| i.name == "free").unwrap();
        assert!(!free.in_impl);
        // The `[u8; 4]` in the signature must not end the item early.
        assert!(free.body.is_some());
    }

    #[test]
    fn const_fn_is_a_function_not_a_const() {
        let found = items("pub const fn f() -> u8 { 1 }\npub const G: u8 = 2;\n");
        assert_eq!(
            found.iter().find(|i| i.name == "f").unwrap().kind,
            ItemKind::Fn
        );
        assert_eq!(
            found.iter().find(|i| i.name == "G").unwrap().kind,
            ItemKind::Const
        );
    }

    #[test]
    fn trait_bodies_are_not_descended() {
        let found = items("pub trait T {\n    fn required(&self);\n    fn provided(&self) {}\n}\n");
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].kind, ItemKind::Trait);
    }

    #[test]
    fn fn_bodies_are_not_descended() {
        let found = items("fn outer() {\n    struct Local;\n    fn inner() {}\n}\n");
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].name, "outer");
    }

    #[test]
    fn loop_bodies_cover_for_while_and_loop() {
        let s = scan("fn f(xs: &[u8]) {\n    for x in xs.iter() { use_it(x); }\n    while ready() { step(); }\n    loop { break; }\n}\n");
        let found = parse_items(&s.tokens);
        let (open, close) = found[0].body.unwrap();
        let loops = loop_bodies(&s.tokens, open + 1, close);
        assert_eq!(loops.len(), 3, "{loops:?}");
    }
}
