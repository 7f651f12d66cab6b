//! Comments mention Mutex and FaultRng::new(1), but comment text is not code.
/* outer /* nested Mutex block comment */ still commented t_ns as u32 */

pub fn demo() -> String {
    let plain = "// not a comment: Mutex<u32> and FaultRng::new(1)";
    let raw = r#"raw "string" with // t_ns as u32 and simlint::allow(raw-time-cast): spoofed"#;
    let hashy = r##"ends with one hash: "# and keeps going thread::spawn"##;
    let escaped = "quote \" then // FaultRng::new(1)";
    format!("{plain}{raw}{hashy}{escaped}")
}
