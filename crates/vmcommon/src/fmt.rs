//! A `printf(3)` subset shared by the host interpreter and the device-side
//! `printf` intrinsic.
//!
//! Supported conversions: `%d %i %u %ld %lu %lld %llu %f %lf %e %g %c %s %p
//! %x %X %%` with optional `-`/`0` flags, width and precision. `%s` consumes
//! a pre-read guest string (the caller resolves guest pointers).

use crate::Value;

/// An argument to [`format()`]: either a scalar or an already-resolved string.
#[derive(Clone, Debug)]
pub enum FmtArg {
    Val(Value),
    Str(String),
}

/// Format `spec` with `args`. Unknown conversions are copied through
/// verbatim; missing arguments print as `<?>` (matching C's UB with
/// something diagnosable rather than trapping).
pub fn format(spec: &str, args: &[FmtArg]) -> String {
    let mut out = String::with_capacity(spec.len() + 16);
    let mut chars = spec.chars().peekable();
    let mut next_arg = 0usize;
    let take = |next_arg: &mut usize| -> Option<FmtArg> {
        let a = args.get(*next_arg).cloned();
        *next_arg += 1;
        a
    };

    while let Some(c) = chars.next() {
        if c != '%' {
            out.push(c);
            continue;
        }
        if chars.peek() == Some(&'%') {
            chars.next();
            out.push('%');
            continue;
        }
        // Flags.
        let mut left = false;
        let mut zero = false;
        loop {
            match chars.peek() {
                Some('-') => {
                    left = true;
                    chars.next();
                }
                Some('0') => {
                    zero = true;
                    chars.next();
                }
                Some('+') | Some(' ') => {
                    chars.next();
                }
                _ => break,
            }
        }
        // Width.
        let mut width = 0usize;
        while let Some(d) = chars.peek().and_then(|c| c.to_digit(10)) {
            width = width * 10 + d as usize;
            chars.next();
        }
        // Precision.
        let mut prec: Option<usize> = None;
        if chars.peek() == Some(&'.') {
            chars.next();
            let mut p = 0usize;
            while let Some(d) = chars.peek().and_then(|c| c.to_digit(10)) {
                p = p * 10 + d as usize;
                chars.next();
            }
            prec = Some(p);
        }
        // Length modifiers (l, ll, z) — parsed and ignored; Value carries width.
        while matches!(chars.peek(), Some('l') | Some('z') | Some('h')) {
            chars.next();
        }
        let conv = match chars.next() {
            Some(c) => c,
            None => {
                out.push('%');
                break;
            }
        };
        let body = match conv {
            'd' | 'i' => match take(&mut next_arg) {
                Some(FmtArg::Val(v)) => v.as_i64().to_string(),
                Some(FmtArg::Str(_)) | None => "<?>".into(),
            },
            'u' => match take(&mut next_arg) {
                Some(FmtArg::Val(v)) => (v.as_i64() as u64).to_string(),
                _ => "<?>".into(),
            },
            'x' => match take(&mut next_arg) {
                Some(FmtArg::Val(v)) => format!("{:x}", v.as_i64() as u64),
                _ => "<?>".into(),
            },
            'X' => match take(&mut next_arg) {
                Some(FmtArg::Val(v)) => format!("{:X}", v.as_i64() as u64),
                _ => "<?>".into(),
            },
            'f' | 'F' => match take(&mut next_arg) {
                Some(FmtArg::Val(v)) => format!("{:.*}", prec.unwrap_or(6), v.as_f64()),
                _ => "<?>".into(),
            },
            'e' | 'E' => match take(&mut next_arg) {
                Some(FmtArg::Val(v)) => {
                    let s = format!("{:.*e}", prec.unwrap_or(6), v.as_f64());
                    if conv == 'E' {
                        s.to_uppercase()
                    } else {
                        s
                    }
                }
                _ => "<?>".into(),
            },
            'g' | 'G' => match take(&mut next_arg) {
                Some(FmtArg::Val(v)) => {
                    // Shortest of %e/%f like C's %g, simplified.
                    let x = v.as_f64();
                    if x != 0.0 && (x.abs() < 1e-4 || x.abs() >= 1e6) {
                        format!("{:e}", x)
                    } else {
                        let s = format!("{}", x);
                        s
                    }
                }
                _ => "<?>".into(),
            },
            'c' => match take(&mut next_arg) {
                Some(FmtArg::Val(v)) => {
                    char::from_u32(v.as_i64() as u32).unwrap_or('\u{fffd}').to_string()
                }
                _ => "<?>".into(),
            },
            's' => match take(&mut next_arg) {
                Some(FmtArg::Str(s)) => match prec {
                    Some(p) => s.chars().take(p).collect(),
                    None => s,
                },
                Some(FmtArg::Val(_)) | None => "<?>".into(),
            },
            'p' => match take(&mut next_arg) {
                Some(FmtArg::Val(v)) => format!("{:#x}", v.as_ptr()),
                _ => "<?>".into(),
            },
            other => {
                out.push('%');
                out.push(other);
                continue;
            }
        };
        // Apply width padding.
        if body.len() >= width {
            out.push_str(&body);
        } else if left {
            out.push_str(&body);
            out.extend(std::iter::repeat_n(' ', width - body.len()));
        } else if zero && !matches!(conv, 's' | 'c') {
            // Keep the sign in front of zero padding.
            if let Some(rest) = body.strip_prefix('-') {
                out.push('-');
                out.extend(std::iter::repeat_n('0', width - body.len()));
                out.push_str(rest);
            } else {
                out.extend(std::iter::repeat_n('0', width - body.len()));
                out.push_str(&body);
            }
        } else {
            out.extend(std::iter::repeat_n(' ', width - body.len()));
            out.push_str(&body);
        }
    }
    out
}

/// Parse a human-readable byte size: a decimal count with an optional
/// `K`/`M`/`G` suffix (binary units, case-insensitive, optional trailing
/// `B`/`iB`). Used for `fig4 --mem 64M`-style size flags.
pub fn parse_size(s: &str) -> Result<u64, String> {
    let t = s.trim();
    if t.is_empty() {
        return Err("empty size".into());
    }
    let digits: String = t.chars().take_while(|c| c.is_ascii_digit()).collect();
    if digits.is_empty() {
        return Err(format!("size '{t}' must start with a number"));
    }
    let n: u64 = digits.parse().map_err(|_| format!("size '{t}' out of range"))?;
    let suffix = t[digits.len()..].trim().to_ascii_lowercase();
    let shift = match suffix.as_str() {
        "" | "b" => 0,
        "k" | "kb" | "kib" => 10,
        "m" | "mb" | "mib" => 20,
        "g" | "gb" | "gib" => 30,
        other => return Err(format!("unknown size suffix '{other}' in '{t}'")),
    };
    n.checked_shl(shift).filter(|v| v >> shift == n).ok_or(format!("size '{t}' overflows"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(x: impl Into<Value>) -> FmtArg {
        FmtArg::Val(x.into())
    }

    #[test]
    fn parse_size_accepts_binary_suffixes() {
        assert_eq!(parse_size("64M"), Ok(64 << 20));
        assert_eq!(parse_size("2g"), Ok(2 << 30));
        assert_eq!(parse_size("512KiB"), Ok(512 << 10));
        assert_eq!(parse_size("1024"), Ok(1024));
        assert_eq!(parse_size(" 16 MB "), Ok(16 << 20));
    }

    #[test]
    fn parse_size_rejects_garbage() {
        assert!(parse_size("").is_err());
        assert!(parse_size("M").is_err());
        assert!(parse_size("12X").is_err());
        assert!(parse_size("99999999999999999999").is_err());
    }

    #[test]
    fn basic_conversions() {
        assert_eq!(format("x=%d y=%f", &[v(42), v(1.5)]), "x=42 y=1.500000");
        assert_eq!(format("%s!", &[FmtArg::Str("hi".into())]), "hi!");
        assert_eq!(format("%c%c", &[v(104), v(105)]), "hi");
        assert_eq!(format("100%%", &[]), "100%");
    }

    #[test]
    fn width_and_precision() {
        assert_eq!(format("[%5d]", &[v(42)]), "[   42]");
        assert_eq!(format("[%-5d]", &[v(42)]), "[42   ]");
        assert_eq!(format("[%05d]", &[v(-42)]), "[-0042]");
        assert_eq!(format("[%.2f]", &[v(12.3456)]), "[12.35]");
    }

    #[test]
    fn length_modifiers_ignored() {
        assert_eq!(format("%ld %lu %lld", &[v(1i64), v(2i64), v(3i64)]), "1 2 3");
    }

    #[test]
    fn missing_args_diagnosable() {
        assert_eq!(format("%d %d", &[v(1)]), "1 <?>");
    }
}
