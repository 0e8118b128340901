//! The reference JSON renderer: a [`Content`] tree in, text out.
//!
//! This is how the shim rendered JSON before `to_string`/`to_string_pretty`
//! streamed (see `stream.rs`); it is kept, compiled only for tests, as the
//! byte-for-byte reference the streaming writer is checked against. It depends
//! on nothing but the `serde` shim's `Content`, so the workspace's own tests
//! can include it too and check real payload types against it.

use serde::content::Content;

/// Renders `content` compactly; errors carry the message `serde_json`
/// reports.
pub(crate) fn write_compact(content: &Content, out: &mut String) -> Result<(), String> {
    match content {
        Content::Null => out.push_str("null"),
        Content::Bool(true) => out.push_str("true"),
        Content::Bool(false) => out.push_str("false"),
        Content::I64(v) => out.push_str(&v.to_string()),
        Content::U64(v) => out.push_str(&v.to_string()),
        Content::I128(v) => out.push_str(&v.to_string()),
        Content::U128(v) => out.push_str(&v.to_string()),
        Content::F64(v) => {
            if !v.is_finite() {
                return Err("cannot serialize non-finite float as JSON".to_string());
            }
            let text = v.to_string();
            out.push_str(&text);
            // Keep floats recognisable as floats on re-parse.
            if !text.contains(['.', 'e', 'E']) {
                out.push_str(".0");
            }
        }
        Content::Str(s) => write_string(s, out),
        Content::Seq(items) => {
            out.push('[');
            for (index, item) in items.iter().enumerate() {
                if index > 0 {
                    out.push(',');
                }
                write_compact(item, out)?;
            }
            out.push(']');
        }
        Content::Map(entries) => {
            out.push('{');
            for (index, (key, value)) in entries.iter().enumerate() {
                if index > 0 {
                    out.push(',');
                }
                write_key(key, out)?;
                out.push(':');
                write_compact(value, out)?;
            }
            out.push('}');
        }
    }
    Ok(())
}

/// Renders `content` with two-space indentation, `indent` levels deep.
pub(crate) fn write_pretty(
    content: &Content,
    out: &mut String,
    indent: usize,
) -> Result<(), String> {
    match content {
        Content::Seq(items) if !items.is_empty() => {
            out.push_str("[\n");
            for (index, item) in items.iter().enumerate() {
                if index > 0 {
                    out.push_str(",\n");
                }
                push_indent(out, indent + 1);
                write_pretty(item, out, indent + 1)?;
            }
            out.push('\n');
            push_indent(out, indent);
            out.push(']');
            Ok(())
        }
        Content::Map(entries) if !entries.is_empty() => {
            out.push_str("{\n");
            for (index, (key, value)) in entries.iter().enumerate() {
                if index > 0 {
                    out.push_str(",\n");
                }
                push_indent(out, indent + 1);
                write_key(key, out)?;
                out.push_str(": ");
                write_pretty(value, out, indent + 1)?;
            }
            out.push('\n');
            push_indent(out, indent);
            out.push('}');
            Ok(())
        }
        other => write_compact(other, out),
    }
}

fn push_indent(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

/// JSON object keys must be strings; numeric keys are quoted (matching real
/// serde_json's integer-key behaviour).
fn write_key(key: &Content, out: &mut String) -> Result<(), String> {
    match key {
        Content::Str(s) => write_string(s, out),
        Content::I64(v) => write_string(&v.to_string(), out),
        Content::U64(v) => write_string(&v.to_string(), out),
        Content::I128(v) => write_string(&v.to_string(), out),
        Content::U128(v) => write_string(&v.to_string(), out),
        Content::Bool(v) => write_string(&v.to_string(), out),
        other => return Err(format!("JSON keys must be scalar, found {}", other.kind())),
    }
    Ok(())
}

fn write_string(text: &str, out: &mut String) {
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}
