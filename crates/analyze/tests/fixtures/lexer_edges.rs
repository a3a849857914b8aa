//! Lexer edge-case fixture: every construct here once confused (or could
//! confuse) a token-level scanner. The whole file must produce zero
//! diagnostics — every `.lock()`/`.wait(` below is quoted, commented, or
//! inside cfg(test).

pub fn raw_strings() -> &'static str {
    // Raw strings with hashes: the quote before the final hash does not
    // end the literal.
    let a = r"plain raw with \ backslash and let g = m.lock(); cv.wait(g)";
    let b = r#"one hash: "inner quotes" and let h = n.lock(); m.lock().unwrap()"#;
    let c = r##"two hashes: r#"nested-looking"# and { let g = m.lock(); cv.wait(g) }"##;
    let d = br#"byte raw: let g = m.lock(); n.lock().expect("x")"#;
    concat_all(a, b, c, d)
}

pub fn lifetimes_vs_chars(x: &'static str) -> char {
    // 'static and 'a are lifetimes; 'a' and '\'' are chars.
    let quote: char = '\'';
    let newline = '\n';
    let letter = 'a';
    fold::<'_, char>(x, quote, newline, letter)
}

/* Nested /* block /* comments */ close */ properly: let g = m.lock();
   cv.wait(g) here is commented out. */
pub fn after_nested_comment() -> u32 {
    0
}

pub fn strings_with_escapes() -> String {
    let s = "escaped quote \" then let g = m.lock(); cv.wait(g) inside a string";
    let t = "trailing backslash is an escaped newline \
              continuing here with let h = n.lock(); m.lock().unwrap()";
    format!("{s}{t}")
}

#[cfg(test)]
mod tests {
    #[test]
    fn hazards_are_fine_here() {
        let g = M.lock();
        let g = CV.wait(g);
        N.lock().unwrap();
        drop(g);
    }
}
