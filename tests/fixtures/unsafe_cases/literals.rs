// literals that hold braces, quotes and the word unsafe
pub fn path() -> &'static [u8] {
    br"C:\"
}
pub fn pick<'a>(a: &'a str, _b: &'a str) -> char {
    let open = "{";
    let close = '}';
    let quote = '\'';
    let byte = b'{';
    let _ = (open, quote, byte, a);
    /* unsafe { */ close
}
pub fn note() -> &'static str {
    "unsafe { not a block"
}
pub fn read(p: *const u8) -> u8 {
    unsafe {
        // a brace in a comment: {
        *p
    }
}
