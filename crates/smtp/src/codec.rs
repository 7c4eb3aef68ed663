//! SMTP command/reply grammar (the RFC 5321 subset the case study needs),
//! plus the `XCLIENT` attribute extension the harness uses to carry the
//! simulated client address across a loopback TCP connection.

use std::fmt;
use std::net::IpAddr;

use serde::{Deserialize, Serialize};
use spf_types::DomainName;

/// A parsed SMTP command.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Command {
    /// `HELO <domain>`
    Helo {
        /// The client's claimed identity.
        domain: String,
    },
    /// `EHLO <domain>`
    Ehlo {
        /// The client's claimed identity.
        domain: String,
    },
    /// `MAIL FROM:<reverse-path>`
    MailFrom {
        /// The reverse path without angle brackets (may be empty).
        path: String,
    },
    /// `RCPT TO:<forward-path>`
    RcptTo {
        /// The forward path without angle brackets.
        path: String,
    },
    /// `DATA`
    Data,
    /// `RSET`
    Rset,
    /// `NOOP`
    Noop,
    /// `QUIT`
    Quit,
    /// `XCLIENT ADDR=<ip>` — postfix-style attribute command letting a
    /// trusted upstream declare the original client address. The spoofing
    /// harness uses it to carry the simulated source IP over loopback;
    /// the server honours it only when explicitly configured to.
    XClient {
        /// The declared source address.
        addr: IpAddr,
    },
    /// Anything unrecognized (server answers 500).
    Unknown {
        /// The raw line.
        line: String,
    },
}

impl Command {
    /// Parse one CRLF-stripped command line.
    pub fn parse(line: &str) -> Command {
        let trimmed = line.trim_end_matches(['\r', '\n']);
        let upper = trimmed.to_ascii_uppercase();
        if let Some(rest) = strip_verb(&upper, trimmed, "HELO") {
            return Command::Helo {
                domain: rest.trim().to_string(),
            };
        }
        if let Some(rest) = strip_verb(&upper, trimmed, "EHLO") {
            return Command::Ehlo {
                domain: rest.trim().to_string(),
            };
        }
        if upper.starts_with("MAIL FROM:") {
            let path = trimmed["MAIL FROM:".len()..].trim();
            return Command::MailFrom {
                path: strip_brackets(path),
            };
        }
        if upper.starts_with("RCPT TO:") {
            let path = trimmed["RCPT TO:".len()..].trim();
            return Command::RcptTo {
                path: strip_brackets(path),
            };
        }
        if upper.starts_with("XCLIENT") {
            for attr in trimmed["XCLIENT".len()..].split_whitespace() {
                if let Some(value) = attr
                    .to_ascii_uppercase()
                    .strip_prefix("ADDR=")
                    .map(|_| &attr["ADDR=".len()..])
                {
                    if let Ok(addr) = value.parse::<IpAddr>() {
                        return Command::XClient { addr };
                    }
                }
            }
            return Command::Unknown {
                line: trimmed.to_string(),
            };
        }
        match upper.as_str() {
            "DATA" => Command::Data,
            "RSET" => Command::Rset,
            "NOOP" => Command::Noop,
            "QUIT" => Command::Quit,
            _ => Command::Unknown {
                line: trimmed.to_string(),
            },
        }
    }

    /// The MAIL FROM domain part, when this is a MAIL command with a
    /// non-empty path.
    pub fn sender_parts(&self) -> Option<(String, DomainName)> {
        match self {
            Command::MailFrom { path } if !path.is_empty() => {
                let (local, domain) = path.rsplit_once('@')?;
                let domain = DomainName::parse(domain).ok()?;
                Some((local.to_string(), domain))
            }
            _ => None,
        }
    }
}

fn strip_verb<'a>(upper: &str, original: &'a str, verb: &str) -> Option<&'a str> {
    if upper.starts_with(verb)
        && (original.len() == verb.len() || original.as_bytes()[verb.len()] == b' ')
    {
        Some(&original[verb.len().min(original.len())..])
    } else {
        None
    }
}

fn strip_brackets(path: &str) -> String {
    path.trim()
        .strip_prefix('<')
        .and_then(|p| p.strip_suffix('>'))
        .unwrap_or(path)
        .to_string()
}

impl fmt::Display for Command {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Command::Helo { domain } => write!(f, "HELO {domain}"),
            Command::Ehlo { domain } => write!(f, "EHLO {domain}"),
            Command::MailFrom { path } => write!(f, "MAIL FROM:<{path}>"),
            Command::RcptTo { path } => write!(f, "RCPT TO:<{path}>"),
            Command::Data => write!(f, "DATA"),
            Command::Rset => write!(f, "RSET"),
            Command::Noop => write!(f, "NOOP"),
            Command::Quit => write!(f, "QUIT"),
            Command::XClient { addr } => write!(f, "XCLIENT ADDR={addr}"),
            Command::Unknown { line } => write!(f, "{line}"),
        }
    }
}

/// An SMTP reply: status code plus text.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Reply {
    /// Three-digit status code.
    pub code: u16,
    /// Reply text (single line).
    pub text: String,
}

impl Reply {
    /// Build a reply.
    pub fn new(code: u16, text: impl Into<String>) -> Self {
        Reply {
            code,
            text: text.into(),
        }
    }

    /// 2xx/3xx replies continue the transaction.
    pub fn is_positive(&self) -> bool {
        self.code < 400
    }

    /// Parse "250 OK" style lines.
    pub fn parse(line: &str) -> Option<Reply> {
        let trimmed = line.trim_end_matches(['\r', '\n']);
        // `get` declines a cut inside a multi-byte character.
        let code: u16 = trimmed.get(..3)?.parse().ok()?;
        let text = trimmed[3..].trim_start_matches([' ', '-']).to_string();
        Some(Reply { code, text })
    }
}

impl fmt::Display for Reply {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.code, self.text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_basic_commands() {
        assert_eq!(
            Command::parse("HELO mail.example.com\r\n"),
            Command::Helo {
                domain: "mail.example.com".into()
            }
        );
        assert_eq!(Command::parse("DATA"), Command::Data);
        assert_eq!(Command::parse("quit"), Command::Quit);
        assert_eq!(Command::parse("RSET"), Command::Rset);
    }

    #[test]
    fn mail_from_strips_brackets() {
        assert_eq!(
            Command::parse("MAIL FROM:<ceo@bank.example>"),
            Command::MailFrom {
                path: "ceo@bank.example".into()
            }
        );
        assert_eq!(
            Command::parse("mail from:<>"),
            Command::MailFrom { path: "".into() }
        );
    }

    #[test]
    fn sender_parts_extracts_local_and_domain() {
        let cmd = Command::parse("MAIL FROM:<ceo@bank.example>");
        let (local, domain) = cmd.sender_parts().unwrap();
        assert_eq!(local, "ceo");
        assert_eq!(domain.as_str(), "bank.example");
        assert_eq!(Command::parse("MAIL FROM:<>").sender_parts(), None);
    }

    #[test]
    fn xclient_parses_addr() {
        assert_eq!(
            Command::parse("XCLIENT ADDR=192.0.2.55"),
            Command::XClient {
                addr: "192.0.2.55".parse().unwrap()
            }
        );
        assert!(matches!(
            Command::parse("XCLIENT NAME=x"),
            Command::Unknown { .. }
        ));
    }

    #[test]
    fn unknown_commands() {
        assert!(matches!(
            Command::parse("BDAT 100"),
            Command::Unknown { .. }
        ));
        assert!(matches!(Command::parse(""), Command::Unknown { .. }));
    }

    #[test]
    fn command_display_round_trips() {
        for line in [
            "HELO h.example",
            "MAIL FROM:<a@b.c>",
            "RCPT TO:<x@y.z>",
            "DATA",
            "QUIT",
        ] {
            let cmd = Command::parse(line);
            assert_eq!(Command::parse(&cmd.to_string()), cmd);
        }
    }

    #[test]
    fn reply_parse_and_predicates() {
        let r = Reply::parse("250 OK\r\n").unwrap();
        assert_eq!(r.code, 250);
        assert!(r.is_positive());
        let r = Reply::parse("550 5.7.23 SPF fail").unwrap();
        assert_eq!(r.code, 550);
        assert!(!r.is_positive());
        assert!(Reply::parse("xx").is_none());
    }

    #[test]
    fn reply_with_a_multi_byte_character_in_its_code_is_rejected() {
        assert!(Reply::parse("ab\u{20ac} hi").is_none());
        assert!(Reply::parse("25\u{e9} OK").is_none());
        assert_eq!(
            Reply::parse("250 \u{e9}t\u{e9}").unwrap().text,
            "\u{e9}t\u{e9}"
        );
    }
}
