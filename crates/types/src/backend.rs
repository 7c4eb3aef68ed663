//! The unified engine-selection API (DESIGN.md §11).
//!
//! Every entry point that assembles a resolver/evaluator stack — the
//! `repro` CLI, the spoof matrix, the verdict service, the criterion
//! benches — selects it through one typed [`Backend`] value instead of
//! scattered `mode`/`wire_servers`/`use_compiled` knobs:
//!
//! * [`Transport`] — where DNS answers come from: the in-process zone
//!   store or the socket-pool wire client.
//! * [`Evaluator`] — how SPF verdicts are produced: bare tree-walks,
//!   memoized tree-walks, or compiled interval matchers.
//!
//! A backend round-trips through the CLI spelling
//! `transport[:servers][+evaluator]` (e.g. `wire:8+compiled`), parsed by
//! [`Backend::parse`] and rendered by its `Display`.

use std::fmt;

use serde::{Deserialize, Serialize};

/// Default authoritative server shards for wire transports.
pub const DEFAULT_WIRE_SERVERS: usize = 4;

/// Where DNS answers come from.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Transport {
    /// Resolve in-process against the zone store (no sockets) — the
    /// fastest path and the default.
    #[default]
    Memory,
    /// The blocking wire client: a per-worker socket pool over a
    /// hash-sharded UDP/TCP server fleet, one in-flight query per
    /// worker thread.
    WireBlocking,
}

impl Transport {
    /// Whether this transport runs over real sockets (and therefore
    /// needs a server fleet and honors [`Backend::servers`]).
    pub fn is_wire(self) -> bool {
        !matches!(self, Transport::Memory)
    }

    /// Parse a transport name. Accepts the canonical spellings
    /// (`memory`, `wire`) plus the aliases `in-memory`, `mem` and
    /// `wire-blocking`.
    pub fn parse(s: &str) -> Option<Transport> {
        match s {
            "memory" | "in-memory" | "mem" => Some(Transport::Memory),
            "wire" | "wire-blocking" => Some(Transport::WireBlocking),
            _ => None,
        }
    }
}

impl fmt::Display for Transport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Transport::Memory => "memory",
            Transport::WireBlocking => "wire",
        })
    }
}

/// How SPF verdicts are produced.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Evaluator {
    /// Bare `check_host` tree-walks, no verdict memo.
    Interpreted,
    /// Tree-walks through the subtree verdict cache — the default
    /// everywhere a cache exists today.
    #[default]
    Cached,
    /// Compiled interval matchers with residual-term fallback to the
    /// (cached) evaluator; verdict-identical to the other two.
    Compiled,
}

impl Evaluator {
    /// Parse an evaluator name.
    pub fn parse(s: &str) -> Option<Evaluator> {
        match s {
            "interpreted" | "bare" => Some(Evaluator::Interpreted),
            "cached" | "memo" => Some(Evaluator::Cached),
            "compiled" | "tables" => Some(Evaluator::Compiled),
            _ => None,
        }
    }
}

impl fmt::Display for Evaluator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Evaluator::Interpreted => "interpreted",
            Evaluator::Cached => "cached",
            Evaluator::Compiled => "compiled",
        })
    }
}

/// A complete engine selection: transport × shard count × evaluator.
///
/// `Copy` and serializable so it travels inside crawl configs the way
/// the old `mode`/`wire_servers` pair did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Backend {
    /// Where DNS answers come from.
    pub transport: Transport,
    /// Authoritative server shards for wire transports (clamped to ≥ 1
    /// by consumers; ignored by [`Transport::Memory`]).
    pub servers: usize,
    /// How SPF verdicts are produced.
    pub evaluator: Evaluator,
}

impl Default for Backend {
    fn default() -> Self {
        Backend {
            transport: Transport::Memory,
            servers: DEFAULT_WIRE_SERVERS,
            evaluator: Evaluator::Cached,
        }
    }
}

/// Why a backend spec failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BackendParseError {
    /// The transport segment names no known transport.
    UnknownTransport(String),
    /// The `+evaluator` suffix names no known evaluator.
    UnknownEvaluator(String),
    /// The `:servers` segment is not a positive integer.
    BadServers(String),
}

impl fmt::Display for BackendParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BackendParseError::UnknownTransport(s) => {
                write!(f, "unknown transport `{s}` (memory, wire)")
            }
            BackendParseError::UnknownEvaluator(s) => {
                write!(f, "unknown evaluator `{s}` (interpreted, cached, compiled)")
            }
            BackendParseError::BadServers(s) => {
                write!(f, "server count `{s}` must be a positive integer")
            }
        }
    }
}

impl std::error::Error for BackendParseError {}

impl Backend {
    /// The in-memory backend with the default (cached) evaluator.
    pub fn memory() -> Backend {
        Backend::default()
    }

    /// The wire backend over `servers` shards.
    pub fn wire(servers: usize) -> Backend {
        Backend {
            transport: Transport::WireBlocking,
            servers: servers.max(1),
            ..Backend::default()
        }
    }

    /// Builder-style override of [`Backend::transport`].
    pub fn transport(mut self, transport: Transport) -> Backend {
        self.transport = transport;
        self
    }

    /// Builder-style override of [`Backend::servers`] (clamped to ≥ 1).
    pub fn servers(mut self, servers: usize) -> Backend {
        self.servers = servers.max(1);
        self
    }

    /// Builder-style override of [`Backend::evaluator`].
    pub fn evaluator(mut self, evaluator: Evaluator) -> Backend {
        self.evaluator = evaluator;
        self
    }

    /// Whether the evaluator compiles SPF trees to interval matchers.
    pub fn is_compiled(&self) -> bool {
        self.evaluator == Evaluator::Compiled
    }

    /// Parse the CLI spelling `transport[:servers][+evaluator]`.
    ///
    /// ```
    /// use spf_types::{Backend, Evaluator, Transport};
    /// let b = Backend::parse("wire:8+compiled").unwrap();
    /// assert_eq!(b.transport, Transport::WireBlocking);
    /// assert_eq!(b.servers, 8);
    /// assert_eq!(b.evaluator, Evaluator::Compiled);
    /// ```
    pub fn parse(spec: &str) -> Result<Backend, BackendParseError> {
        let (head, evaluator) = match spec.split_once('+') {
            Some((head, ev)) => (
                head,
                Evaluator::parse(ev)
                    .ok_or_else(|| BackendParseError::UnknownEvaluator(ev.to_string()))?,
            ),
            None => (spec, Evaluator::default()),
        };
        let (name, servers) = match head.split_once(':') {
            Some((name, n)) => (
                name,
                n.parse::<usize>()
                    .ok()
                    .filter(|n| *n >= 1)
                    .ok_or_else(|| BackendParseError::BadServers(n.to_string()))?,
            ),
            None => (head, DEFAULT_WIRE_SERVERS),
        };
        let transport = Transport::parse(name)
            .ok_or_else(|| BackendParseError::UnknownTransport(name.to_string()))?;
        Ok(Backend {
            transport,
            servers,
            evaluator,
        })
    }
}

impl fmt::Display for Backend {
    /// The canonical spelling: `:servers` only for wire transports,
    /// `+evaluator` only off the default, so `Backend::default()`
    /// renders as plain `memory` and every rendering re-parses to an
    /// equal value.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.transport)?;
        if self.transport.is_wire() {
            write!(f, ":{}", self.servers)?;
        }
        if self.evaluator != Evaluator::default() {
            write!(f, "+{}", self.evaluator)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_memory_cached() {
        let b = Backend::default();
        assert_eq!(b.transport, Transport::Memory);
        assert_eq!(b.servers, DEFAULT_WIRE_SERVERS);
        assert_eq!(b.evaluator, Evaluator::Cached);
        assert!(!b.transport.is_wire());
        assert!(!b.is_compiled());
    }

    #[test]
    fn parse_accepts_every_shape() {
        assert_eq!(Backend::parse("memory").unwrap(), Backend::memory());
        assert_eq!(Backend::parse("wire").unwrap(), Backend::wire(4));
        assert_eq!(Backend::parse("wire:2").unwrap(), Backend::wire(2));
        assert_eq!(
            Backend::parse("wire:8+compiled").unwrap(),
            Backend::wire(8).evaluator(Evaluator::Compiled)
        );
        assert_eq!(
            Backend::parse("memory+interpreted").unwrap(),
            Backend::memory().evaluator(Evaluator::Interpreted)
        );
        // Historical aliases keep parsing.
        assert_eq!(
            Backend::parse("in-memory").unwrap().transport,
            Transport::Memory
        );
    }

    #[test]
    fn parse_rejects_bad_specs() {
        assert!(matches!(
            Backend::parse("tokio"),
            Err(BackendParseError::UnknownTransport(_))
        ));
        // The removed reactor engine's spelling names no transport, and
        // the message lists exactly the two that remain.
        let err = Backend::parse("wire-async:2").unwrap_err();
        assert_eq!(
            err,
            BackendParseError::UnknownTransport("wire-async".to_string())
        );
        assert!(err.to_string().ends_with("(memory, wire)"), "{err}");
        assert!(matches!(
            Backend::parse("wire+jit"),
            Err(BackendParseError::UnknownEvaluator(_))
        ));
        assert!(matches!(
            Backend::parse("wire:0"),
            Err(BackendParseError::BadServers(_))
        ));
        assert!(matches!(
            Backend::parse("wire:many"),
            Err(BackendParseError::BadServers(_))
        ));
    }

    #[test]
    fn display_round_trips() {
        let cases = [
            Backend::memory(),
            Backend::memory().evaluator(Evaluator::Compiled),
            Backend::wire(2),
            Backend::wire(8).evaluator(Evaluator::Interpreted),
        ];
        for b in cases {
            assert_eq!(Backend::parse(&b.to_string()).unwrap(), b, "{b}");
        }
        assert_eq!(Backend::memory().to_string(), "memory");
        assert_eq!(Backend::wire(4).to_string(), "wire:4");
        assert_eq!(
            Backend::wire(8).evaluator(Evaluator::Compiled).to_string(),
            "wire:8+compiled"
        );
    }

    #[test]
    fn serde_round_trips() {
        let b = Backend::wire(3).evaluator(Evaluator::Compiled);
        let json = serde_json::to_string(&b).unwrap();
        assert_eq!(serde_json::from_str::<Backend>(&json).unwrap(), b);
    }
}
