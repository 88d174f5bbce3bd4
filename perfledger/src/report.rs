//! What a child process reports back to the parent, as plain lines on
//! its standard output: `num NAME VALUE`, `hash OP HEX`, `op OP ok`,
//! `op OP fail MESSAGE`, `samples NAME V…`.

use std::collections::BTreeMap;

#[derive(Debug, Default)]
pub struct Report {
    pub nums: BTreeMap<String, f64>,
    pub hashes: BTreeMap<String, String>,
    /// Ops attempted, in order, with the failure message of each that
    /// failed.
    pub ops: Vec<(String, Option<String>)>,
    pub samples: BTreeMap<String, Vec<f64>>,
}

impl Report {
    pub fn to_text(&self) -> String {
        let mut s = String::new();
        for (k, v) in &self.nums {
            s.push_str(&format!("num {k} {v}\n"));
        }
        for (k, h) in &self.hashes {
            s.push_str(&format!("hash {k} {h}\n"));
        }
        for (op, err) in &self.ops {
            match err {
                None => s.push_str(&format!("op {op} ok\n")),
                Some(e) => s.push_str(&format!("op {op} fail {}\n", e.replace('\n', " "))),
            }
        }
        for (k, xs) in &self.samples {
            let vals: Vec<String> = xs.iter().map(f64::to_string).collect();
            s.push_str(&format!("samples {k} {}\n", vals.join(" ")));
        }
        s
    }

    pub fn parse(text: &str) -> Result<Report, String> {
        let mut r = Report::default();
        let num = |v: &str| {
            v.parse::<f64>()
                .map_err(|e| format!("bad number '{v}': {e}"))
        };
        for line in text.lines() {
            let mut f = line.splitn(3, ' ');
            let (kind, key, rest) = (f.next(), f.next(), f.next().unwrap_or(""));
            let Some(key) = key else { continue };
            match kind {
                Some("num") => {
                    r.nums.insert(key.to_owned(), num(rest)?);
                }
                Some("hash") => {
                    r.hashes.insert(key.to_owned(), rest.to_owned());
                }
                Some("op") => {
                    let err = rest.strip_prefix("fail").map(|m| m.trim().to_owned());
                    r.ops.push((key.to_owned(), err));
                }
                Some("samples") => {
                    let xs = rest.split_whitespace().map(num).collect::<Result<_, _>>()?;
                    r.samples.insert(key.to_owned(), xs);
                }
                _ => {}
            }
        }
        Ok(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips() {
        let mut r = Report::default();
        r.nums.insert("wall_s".into(), 0.125);
        r.hashes.insert("capture".into(), "00ff".into());
        r.ops.push(("capture".into(), None));
        r.ops.push(("fig5".into(), Some("no\nfleet".into())));
        r.samples.insert("setup_s".into(), vec![1.5, 2.0]);
        let back = Report::parse(&r.to_text()).expect("parses");
        assert_eq!(back.nums, r.nums);
        assert_eq!(back.hashes, r.hashes);
        assert_eq!(back.ops[1].1.as_deref(), Some("no fleet"));
        assert_eq!(back.samples, r.samples);
    }
}
