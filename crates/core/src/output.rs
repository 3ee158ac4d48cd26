//! `pm2_printf`-style output capture.
//!
//! The paper's examples print through `pm2_printf`, which prefixes each line
//! with the node it executed on (`[node0] value = 1`).  The sink captures
//! lines, so tests can assert on execution traces exactly like the paper's
//! Fig. 8 and a program prints them when it wants to
//! ([`crate::Machine::output_lines`]).

use std::sync::{Arc, Mutex};

/// Shared line sink.
#[derive(Debug, Default)]
pub struct OutputSink {
    lines: Mutex<Vec<String>>,
}

impl OutputSink {
    /// Create an empty sink.
    pub fn new() -> Arc<Self> {
        Arc::new(OutputSink::default())
    }

    /// Record `text` as printed by `node`.
    pub fn printf(&self, node: usize, text: &str) {
        let line = format!("[node{node}] {text}");
        self.lines.lock().unwrap().push(line);
    }

    /// Snapshot of all captured lines.
    pub fn lines(&self) -> Vec<String> {
        self.lines.lock().unwrap().clone()
    }

    /// Number of captured lines.
    pub fn len(&self) -> usize {
        self.lines.lock().unwrap().len()
    }

    /// True when nothing was printed.
    pub fn is_empty(&self) -> bool {
        self.lines.lock().unwrap().is_empty()
    }

    /// Drop all captured lines.
    pub fn clear(&self) {
        self.lines.lock().unwrap().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn captures_in_order_with_node_prefix() {
        let sink = OutputSink::new();
        sink.printf(0, "value = 1");
        sink.printf(1, "value = 1");
        assert_eq!(sink.lines(), vec!["[node0] value = 1", "[node1] value = 1"]);
        assert_eq!(sink.len(), 2);
        sink.clear();
        assert!(sink.is_empty());
    }
}
