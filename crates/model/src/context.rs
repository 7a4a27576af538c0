//! Context construction (§4.1.3): how token sequences ("sentences") are cut
//! out of a packet trace before pre-training.
//!
//! The paper highlights that a capture point sees interleaved packets from
//! concurrent connections, that focusing on single connections can lose
//! cross-connection semantics, and that practical models cap context length
//! — suggesting "non-standard contexts over network protocols: e.g., use the
//! first M tokens from each of the N successive IP packets". All four
//! strategies are implemented and ablated in experiment E5.

use nfm_net::capture::{Trace, TracePacket};
use nfm_net::flow::FlowTable;

use crate::tokenize::Tokenizer;

/// A context-construction strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ContextStrategy {
    /// One context per packet (shortest).
    Packet,
    /// One context per flow/session: all its packets' tokens concatenated.
    Flow,
    /// Contexts cut from the raw interleaved capture order, `window`
    /// packets at a time — what a naive observer at the capture point sees.
    InterleavedWindow {
        /// Packets per context window.
        window: usize,
    },
    /// Per flow, the first `m` tokens of each of the first `n` packets —
    /// the paper's proposed budget-aware context.
    FirstMofN {
        /// Tokens kept per packet.
        m: usize,
        /// Packets considered per flow.
        n: usize,
    },
    /// All of one client endpoint's packets within a time window — the
    /// paper's "focusing on traffic from and to individual end points"
    /// option. This is the only strategy whose contexts span *related
    /// flows* (a DNS lookup and the connection it resolves), capturing the
    /// cross-connection semantics §4.1.3 warns are otherwise lost.
    ClientWindow {
        /// Window length in microseconds.
        window_us: u64,
    },
}

impl ContextStrategy {
    /// Short name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            ContextStrategy::Packet => "packet",
            ContextStrategy::Flow => "flow",
            ContextStrategy::InterleavedWindow { .. } => "interleaved",
            ContextStrategy::FirstMofN { .. } => "first-m-of-n",
            ContextStrategy::ClientWindow { .. } => "client-window",
        }
    }
}

/// Heuristic for "which endpoint is the monitored client": prefer the
/// RFC 1918 192.168/16 side (the LAN an enterprise capture point watches);
/// fall back to the source.
fn client_of(packet: &nfm_net::Packet) -> std::net::IpAddr {
    let is_lan = |ip: &std::net::IpAddr| match ip {
        std::net::IpAddr::V4(a) => a.octets()[0] == 192 && a.octets()[1] == 168,
        std::net::IpAddr::V6(_) => false,
    };
    let src = packet.ip.src();
    let dst = packet.ip.dst();
    if is_lan(&src) {
        src
    } else if is_lan(&dst) {
        dst
    } else {
        src
    }
}

/// Tokenize one packet if it parses.
fn packet_tokens(tok: &dyn Tokenizer, tp: &TracePacket) -> Option<Vec<String>> {
    tp.parse().ok().map(|p| tok.tokenize(&p))
}

/// Build a single flow-level context from a flow's packets, truncated to
/// `max_tokens`. This is also how downstream classification examples are
/// encoded.
pub fn flow_context(
    packets: &[TracePacket],
    tok: &dyn Tokenizer,
    max_tokens: usize,
) -> Vec<String> {
    let mut out = Vec::new();
    for tp in packets {
        if let Some(mut toks) = packet_tokens(tok, tp) {
            out.append(&mut toks);
            if out.len() >= max_tokens {
                out.truncate(max_tokens);
                break;
            }
        }
    }
    out
}

/// Build the first-M-of-N context for a flow.
pub fn first_m_of_n_context(
    packets: &[TracePacket],
    tok: &dyn Tokenizer,
    m: usize,
    n: usize,
    max_tokens: usize,
) -> Vec<String> {
    let mut out = Vec::new();
    for tp in packets.iter().take(n) {
        if let Some(toks) = packet_tokens(tok, tp) {
            out.extend(toks.into_iter().take(m));
            if out.len() >= max_tokens {
                out.truncate(max_tokens);
                break;
            }
        }
    }
    out
}

/// Build pre-training contexts from a whole trace under `strategy`, each
/// capped at `max_tokens`. Empty contexts are dropped.
pub fn contexts_from_trace(
    trace: &Trace,
    tok: &dyn Tokenizer,
    strategy: ContextStrategy,
    max_tokens: usize,
) -> Vec<Vec<String>> {
    let mut out = Vec::new();
    match strategy {
        ContextStrategy::Packet => {
            for tp in trace.packets() {
                if let Some(mut toks) = packet_tokens(tok, tp) {
                    toks.truncate(max_tokens);
                    if !toks.is_empty() {
                        out.push(toks);
                    }
                }
            }
        }
        ContextStrategy::Flow => {
            let table = FlowTable::from_trace(trace.packets().iter());
            for flow in table.flows() {
                let packets: Vec<TracePacket> =
                    flow.packets.iter().map(|fp| trace.packets()[fp.index].clone()).collect();
                let ctx = flow_context(&packets, tok, max_tokens);
                if !ctx.is_empty() {
                    out.push(ctx);
                }
            }
        }
        ContextStrategy::InterleavedWindow { window } => {
            let window = window.max(1);
            for chunk in trace.packets().chunks(window) {
                let mut ctx = Vec::new();
                for tp in chunk {
                    if let Some(mut toks) = packet_tokens(tok, tp) {
                        ctx.append(&mut toks);
                        if ctx.len() >= max_tokens {
                            ctx.truncate(max_tokens);
                            break;
                        }
                    }
                }
                if !ctx.is_empty() {
                    out.push(ctx);
                }
            }
        }
        ContextStrategy::FirstMofN { m, n } => {
            let table = FlowTable::from_trace(trace.packets().iter());
            for flow in table.flows() {
                let packets: Vec<TracePacket> =
                    flow.packets.iter().map(|fp| trace.packets()[fp.index].clone()).collect();
                let ctx = first_m_of_n_context(&packets, tok, m, n, max_tokens);
                if !ctx.is_empty() {
                    out.push(ctx);
                }
            }
        }
        ContextStrategy::ClientWindow { window_us } => {
            use std::collections::BTreeMap;
            let window_us = window_us.max(1);
            let mut groups: BTreeMap<(std::net::IpAddr, u64), Vec<String>> = BTreeMap::new();
            for tp in trace.packets() {
                if let Ok(p) = tp.parse() {
                    let key = (client_of(&p), tp.ts_us / window_us);
                    let ctx = groups.entry(key).or_default();
                    if ctx.len() < max_tokens {
                        let mut toks = tok.tokenize(&p);
                        toks.truncate(max_tokens - ctx.len());
                        ctx.extend(toks);
                    }
                }
            }
            out.extend(groups.into_values().filter(|c| !c.is_empty()));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tokenize::field::FieldTokenizer;
    use nfm_traffic::netsim::{simulate, SimConfig};

    fn small_trace() -> Trace {
        simulate(&SimConfig {
            n_sessions: 20,
            n_general_hosts: 3,
            n_iot_sets: 1,
            ..SimConfig::default()
        })
        .trace
    }

    #[test]
    fn packet_contexts_match_packet_count() {
        let trace = small_trace();
        let tok = FieldTokenizer::new();
        let ctxs = contexts_from_trace(&trace, &tok, ContextStrategy::Packet, 64);
        assert_eq!(ctxs.len(), trace.len());
        assert!(ctxs.iter().all(|c| !c.is_empty() && c.len() <= 64));
    }

    #[test]
    fn flow_contexts_fewer_but_longer() {
        let trace = small_trace();
        let tok = FieldTokenizer::new();
        let per_packet = contexts_from_trace(&trace, &tok, ContextStrategy::Packet, 256);
        let per_flow = contexts_from_trace(&trace, &tok, ContextStrategy::Flow, 256);
        assert!(per_flow.len() < per_packet.len());
        let mean_packet: f64 =
            per_packet.iter().map(|c| c.len()).sum::<usize>() as f64 / per_packet.len() as f64;
        let mean_flow: f64 =
            per_flow.iter().map(|c| c.len()).sum::<usize>() as f64 / per_flow.len() as f64;
        assert!(mean_flow > mean_packet);
    }

    #[test]
    fn window_contexts_cover_whole_trace() {
        let trace = small_trace();
        let tok = FieldTokenizer::new();
        let ctxs = contexts_from_trace(
            &trace,
            &tok,
            ContextStrategy::InterleavedWindow { window: 8 },
            512,
        );
        assert_eq!(ctxs.len(), trace.len().div_ceil(8));
    }

    #[test]
    fn first_m_of_n_respects_budgets() {
        let trace = small_trace();
        let tok = FieldTokenizer::new();
        let ctxs =
            contexts_from_trace(&trace, &tok, ContextStrategy::FirstMofN { m: 4, n: 3 }, 512);
        for c in &ctxs {
            assert!(c.len() <= 12, "context of {} tokens", c.len());
        }
    }

    #[test]
    fn max_tokens_enforced_everywhere() {
        let trace = small_trace();
        let tok = FieldTokenizer::new();
        for strategy in [
            ContextStrategy::Packet,
            ContextStrategy::Flow,
            ContextStrategy::InterleavedWindow { window: 32 },
            ContextStrategy::FirstMofN { m: 8, n: 8 },
            ContextStrategy::ClientWindow { window_us: 2_000_000 },
        ] {
            for c in contexts_from_trace(&trace, &tok, strategy, 16) {
                assert!(c.len() <= 16, "{strategy:?}");
            }
        }
    }

    #[test]
    fn client_window_spans_related_flows() {
        // A client's DNS lookup and its follow-on TCP connection land in
        // the same context — the cross-connection property.
        let trace = small_trace();
        let tok = FieldTokenizer::new();
        let ctxs = contexts_from_trace(
            &trace,
            &tok,
            ContextStrategy::ClientWindow { window_us: 10_000_000 },
            512,
        );
        assert!(!ctxs.is_empty());
        let spans_protocols = ctxs.iter().any(|c| {
            let has_dns = c.iter().any(|t| t.starts_with("DNS_"));
            let has_tcp = c.iter().any(|t| t == "PROTO_TCP");
            has_dns && has_tcp
        });
        assert!(spans_protocols, "some context must span DNS + TCP flows");
    }

    #[test]
    fn strategy_names() {
        assert_eq!(ContextStrategy::Packet.name(), "packet");
        assert_eq!(ContextStrategy::Flow.name(), "flow");
        assert_eq!(ContextStrategy::InterleavedWindow { window: 4 }.name(), "interleaved");
        assert_eq!(ContextStrategy::FirstMofN { m: 1, n: 1 }.name(), "first-m-of-n");
    }
}
