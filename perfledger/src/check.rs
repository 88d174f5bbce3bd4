//! Output fingerprints and the committed goldens they are checked against.
//!
//! A speed-only change must leave every simulated output byte-identical,
//! so each op's output is reduced to a 64-bit FNV-1a fingerprint: the
//! capture's `SimOutputs` JSON plus its per-role traces, the fleet's
//! tagged rows, every rendered report, and the checkpoint bytes at the
//! stop point.

use sonet_core::capture::MONITORED_ROLES;
use sonet_core::{FleetData, StandardCapture};
use sonet_telemetry::ScubaTable;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::io::{self, Read, Write};
use std::path::Path;

/// Streaming FNV-1a (64-bit).
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Hashes `value`'s JSON encoding.
    pub fn json<T: serde::Serialize + ?Sized>(&mut self, value: &T) {
        serde_json::to_writer(&mut *self, value).expect("report types serialize");
        self.update(b"\n");
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

impl Hasher for Fnv {
    fn write(&mut self, bytes: &[u8]) {
        self.update(bytes);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

impl Write for Fnv {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.update(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Fingerprint of a capture: engine outputs, mirror accounting, and every
/// monitored role's trace in both directions.
pub fn capture(cap: &StandardCapture) -> String {
    let mut h = Fnv::new();
    h.json(&cap.outputs);
    h.json(&[
        cap.issued_calls,
        cap.mirror_offered,
        cap.mirror_overflow,
        cap.mirror_fault_dropped,
        u64::from(cap.truncated),
    ]);
    for role in MONITORED_ROLES {
        h.update(role.label().as_bytes());
        if let Some(t) = cap.trace(role) {
            h.json(t.outbound());
            h.json(t.inbound());
        }
    }
    h.hex()
}

/// Fingerprint of a fleet day: every tagged row plus the generator's
/// relaxation and loss counters.
pub fn fleet(data: &FleetData) -> String {
    let mut h = Fnv::new();
    rows(&mut h, &data.table);
    h.json(&[data.relaxed_picks, data.agent_dropped]);
    h.hex()
}

/// Fingerprint of a tagged table's rows.
pub fn table(t: &ScubaTable) -> String {
    let mut h = Fnv::new();
    rows(&mut h, t);
    h.hex()
}

/// Feeds every field of every row to `h` through `Hash`: a million rows
/// hash in tens of milliseconds, where their JSON would take seconds.
fn rows(h: &mut Fnv, t: &ScubaTable) {
    for r in t.rows() {
        let f = &r.rec;
        (f.at, f.capture_host, f.src, f.dst, f.src_port, f.dst_port).hash(h);
        (
            f.bytes, f.packets, r.src_role, r.dst_role, r.src_rack, r.dst_rack,
        )
            .hash(h);
        (
            r.src_cluster,
            r.dst_cluster,
            r.src_cluster_type,
            r.dst_cluster_type,
        )
            .hash(h);
        (r.src_dc, r.dst_dc, r.locality).hash(h);
    }
}

/// Fingerprint of a rendered report.
pub fn text(s: &str) -> String {
    let mut h = Fnv::new();
    h.update(s.as_bytes());
    h.hex()
}

/// Fingerprint of a file's bytes, streamed.
pub fn file(path: &Path) -> io::Result<String> {
    let mut f = std::fs::File::open(path)?;
    let mut h = Fnv::new();
    let mut buf = vec![0u8; 1 << 16];
    loop {
        let n = f.read(&mut buf)?;
        if n == 0 {
            return Ok(h.hex());
        }
        h.update(&buf[..n]);
    }
}

/// Goldens keyed by `(seed, workload, op)`. The file holds one
/// whitespace-separated `seed workload op hash` entry per line; `#`
/// starts a comment.
pub struct Goldens(BTreeMap<(u64, String, String), String>);

impl Goldens {
    pub fn parse(text: &str) -> Result<Goldens, String> {
        let mut map = BTreeMap::new();
        for (i, line) in text.lines().enumerate() {
            let line = line.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let f: Vec<&str> = line.split_whitespace().collect();
            let [seed, workload, op, hash] = f[..] else {
                return Err(format!("golden line {}: expected 4 fields", i + 1));
            };
            let seed = seed
                .parse()
                .map_err(|e| format!("golden line {}: seed: {e}", i + 1))?;
            map.insert((seed, workload.to_owned(), op.to_owned()), hash.to_owned());
        }
        Ok(Goldens(map))
    }

    pub fn get(&self, seed: u64, workload: &str, op: &str) -> Option<&str> {
        self.0
            .get(&(seed, workload.to_owned(), op.to_owned()))
            .map(String::as_str)
    }

    /// Whether any golden exists for `seed`.
    pub fn covers(&self, seed: u64) -> bool {
        self.0.keys().any(|(s, _, _)| *s == seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_reference_vectors() {
        assert_eq!(Fnv::new().hex(), "cbf29ce484222325");
        assert_eq!(text("a"), "af63dc4c8601ec8c");
        assert_eq!(text("foobar"), "85944171f73967e8");
    }

    #[test]
    fn goldens_parse_and_reject_short_lines() {
        let g = Goldens::parse("# c\n42 paper_all capture 00ff  # x\n").expect("valid");
        assert_eq!(g.get(42, "paper_all", "capture"), Some("00ff"));
        assert!(g.covers(42) && !g.covers(7));
        assert!(Goldens::parse("42 paper_all capture").is_err());
    }
}
