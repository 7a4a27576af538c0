//! Property-based invariants for the modeling layer: tokenizers never
//! panic and respect budgets, vocabularies round-trip, masking preserves
//! recoverability, encoders stay finite on arbitrary valid inputs, and a
//! `[CLS]` or any other row readout is bitwise the all-rows forward and
//! backward.

use nfm_model::context::{first_m_of_n_context, flow_context};
use nfm_model::nn::transformer::{Encoder, EncoderConfig, Readout, CLS_READOUT, FULL_READOUT};
use nfm_model::pretrain::{encode_context, mask_sequence};
use nfm_model::tokenize::bytes::ByteTokenizer;
use nfm_model::tokenize::field::FieldTokenizer;
use nfm_model::tokenize::{log2_bin, Tokenizer};
use nfm_model::vocab::Vocab;
use nfm_net::addr::MacAddr;
use nfm_net::capture::TracePacket;
use nfm_net::packet::Packet;
use nfm_tensor::init;
use nfm_tensor::layers::Module;
use nfm_tensor::loss::IGNORE_INDEX;
use nfm_tensor::matrix::Matrix;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::net::Ipv4Addr;

fn arb_udp_packet() -> impl Strategy<Value = Packet> {
    (
        any::<u32>(),
        any::<u32>(),
        1u16..,
        1u16..,
        1u8..,
        proptest::collection::vec(any::<u8>(), 0..200),
    )
        .prop_map(|(src, dst, sp, dp, ttl, payload)| {
            Packet::udp_v4(
                MacAddr::from_index(1),
                MacAddr::from_index(2),
                Ipv4Addr::from(src),
                Ipv4Addr::from(dst),
                sp,
                dp,
                ttl,
                payload,
            )
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn field_tokenizer_never_panics_and_is_deterministic(p in arb_udp_packet()) {
        let tok = FieldTokenizer::new();
        let a = tok.tokenize(&p);
        let b = tok.tokenize(&p);
        prop_assert_eq!(&a, &b);
        prop_assert!(!a.is_empty());
        // Tokens never contain whitespace (vocabulary hygiene).
        prop_assert!(a.iter().all(|t| !t.contains(' ')));
    }

    #[test]
    fn byte_tokenizer_budget(p in arb_udp_packet(), cap in 1usize..64) {
        let tok = ByteTokenizer { max_bytes: cap, skip_ethernet: true };
        let toks = tok.tokenize(&p);
        prop_assert!(toks.len() <= cap);
    }

    #[test]
    fn flow_context_budget_holds(
        packets in proptest::collection::vec(arb_udp_packet(), 1..10),
        cap in 4usize..64,
    ) {
        let tps: Vec<TracePacket> = packets
            .iter()
            .enumerate()
            .map(|(i, p)| TracePacket::from_packet(i as u64 * 100, p))
            .collect();
        let tok = FieldTokenizer::new();
        let ctx = flow_context(&tps, &tok, cap);
        prop_assert!(ctx.len() <= cap);
        let m_of_n = first_m_of_n_context(&tps, &tok, 3, 2, cap);
        prop_assert!(m_of_n.len() <= 6.min(cap));
    }

    #[test]
    fn vocab_encode_decode_identity_on_known_tokens(
        tokens in proptest::collection::vec("[a-z]{1,8}", 1..20),
    ) {
        let seqs = vec![tokens.clone()];
        let vocab = Vocab::from_sequences(&seqs, 1);
        let decoded = vocab.decode(&vocab.encode(&tokens));
        prop_assert_eq!(decoded, tokens);
    }

    #[test]
    fn masking_targets_always_recover_originals(
        tokens in proptest::collection::vec("[a-z]{1,6}", 2..30),
        mask_prob in 0.05f64..0.9,
        seed in 0u64..1000,
    ) {
        let seqs = vec![tokens.clone()];
        let vocab = Vocab::from_sequences(&seqs, 1);
        let ids = encode_context(&vocab, &tokens, 64);
        let mut rng = StdRng::seed_from_u64(seed);
        let (input, targets) = mask_sequence(&mut rng, &ids, &vocab, mask_prob, false);
        prop_assert_eq!(input.len(), ids.len());
        prop_assert_eq!(targets.len(), ids.len());
        let mut n_masked = 0;
        for i in 0..ids.len() {
            if targets[i] != IGNORE_INDEX {
                n_masked += 1;
                // Target restores the original token id.
                prop_assert_eq!(targets[i], ids[i]);
            } else {
                // Unmasked positions keep their input id.
                prop_assert_eq!(input[i], ids[i]);
            }
        }
        prop_assert!(n_masked >= 1);
        // Specials never masked.
        prop_assert_eq!(targets[0], IGNORE_INDEX);
        prop_assert_eq!(*targets.last().unwrap(), IGNORE_INDEX);
    }

    #[test]
    fn encoder_is_finite_on_arbitrary_valid_ids(
        ids in proptest::collection::vec(0usize..30, 1..20),
        seed in 0u64..100,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let cfg = EncoderConfig { vocab: 30, d_model: 8, n_heads: 2, n_layers: 1, d_ff: 16, max_len: 24 };
        let enc = Encoder::new(&mut rng, cfg);
        let h = enc.forward_inference(&ids, FULL_READOUT);
        prop_assert!(h.is_finite());
        prop_assert_eq!(h.rows(), ids.len().min(24));
    }

    #[test]
    fn cls_readout_is_bitwise_the_all_rows_forward_and_backward(
        n_layers in 1usize..=3,
        n_heads in 1usize..=3,
        d_head in 1usize..=9,
        d_ff in 1usize..=20,
        max_len in 1usize..=12,
        ids in proptest::collection::vec(0usize..20, 1..17),
        seed in 0u64..1000,
    ) {
        // Lengths 1..=max_len+4, so clamped sequences are covered too.
        let ids = &ids[..ids.len().min(max_len + 4)];
        let d_model = n_heads * d_head;
        let cfg = EncoderConfig { vocab: 20, d_model, n_heads, n_layers, d_ff, max_len };
        let mut rng = StdRng::seed_from_u64(seed);
        let mut full = Encoder::new(&mut rng, cfg);
        let mut cls = full.clone();
        let bits = |xs: &[f32]| xs.iter().map(|v| v.to_bits()).collect::<Vec<u32>>();

        let row0 = bits(full.forward_inference(ids, FULL_READOUT).row(0));
        prop_assert_eq!(bits(cls.forward_inference(ids, CLS_READOUT).data()), row0.clone());

        // Training: the [CLS] readout's backward of a random row-0 gradient
        // against the all-rows backward of that gradient padded with zeros.
        let h = full.forward(ids, FULL_READOUT);
        let h_cls = cls.forward(ids, CLS_READOUT);
        prop_assert_eq!(bits(h_cls.data()), bits(h.row(0)));
        prop_assert_eq!(bits(h.row(0)), row0);
        let g = init::normal(&mut rng, 1, d_model, 1.0);
        let mut g_full = Matrix::zeros(h.rows(), d_model);
        g_full.row_mut(0).copy_from_slice(g.row(0));
        full.backward(&g_full);
        cls.backward(&g);
        let (full_grads, cls_grads) = (full.export_grads(), cls.export_grads());
        prop_assert_eq!(full_grads.len(), cls_grads.len());
        for (slot, (a, b)) in full_grads.iter().zip(&cls_grads).enumerate() {
            prop_assert!(bits(a) == bits(b), "gradient slot {} differs", slot);
        }
    }

    #[test]
    fn row_readout_is_bitwise_the_all_rows_forward_and_backward(
        n_layers in 1usize..=3,
        n_heads in 1usize..=3,
        d_head in 1usize..=9,
        d_ff in 1usize..=20,
        max_len in 1usize..=12,
        ids in proptest::collection::vec(0usize..20, 1..17),
        subset in 0usize..4,
        keep in proptest::collection::vec(any::<bool>(), 12),
        seed in 0u64..1000,
    ) {
        let ids = &ids[..ids.len().min(max_len + 4)];
        let t = ids.len().min(max_len);
        // Empty, every row, or a random (mostly non-leading) subset.
        let rows: Vec<usize> = match subset {
            0 => Vec::new(),
            1 => (0..t).collect(),
            _ => (0..t).filter(|&p| keep[p]).collect(),
        };
        let readout = Readout::Rows(&rows);
        let d_model = n_heads * d_head;
        let cfg = EncoderConfig { vocab: 20, d_model, n_heads, n_layers, d_ff, max_len };
        let mut rng = StdRng::seed_from_u64(seed);
        let mut full = Encoder::new(&mut rng, cfg);
        let mut read = full.clone();
        let bits = |xs: &[f32]| xs.iter().map(|v| v.to_bits()).collect::<Vec<u32>>();
        let read_rows = |m: &Matrix| rows.iter().flat_map(|&p| bits(m.row(p))).collect::<Vec<u32>>();

        let all = full.forward_inference(ids, FULL_READOUT);
        prop_assert_eq!(bits(read.forward_inference(ids, readout).data()), read_rows(&all));

        // Training: the readout's backward of a random gradient for its
        // rows against the all-rows backward of that gradient scattered
        // into zero rows.
        let h = full.forward(ids, FULL_READOUT);
        let h_read = read.forward(ids, readout);
        prop_assert_eq!(bits(h_read.data()), read_rows(&h));
        prop_assert_eq!(bits(h.data()), bits(all.data()));
        let g = init::normal(&mut rng, rows.len(), d_model, 1.0);
        let mut g_full = Matrix::zeros(t, d_model);
        for (i, &p) in rows.iter().enumerate() {
            g_full.row_mut(p).copy_from_slice(g.row(i));
        }
        full.backward(&g_full);
        read.backward(&g);
        let (full_grads, read_grads) = (full.export_grads(), read.export_grads());
        prop_assert_eq!(full_grads.len(), read_grads.len());
        for (slot, (a, b)) in full_grads.iter().zip(&read_grads).enumerate() {
            prop_assert!(bits(a) == bits(b), "gradient slot {} differs for rows {:?}", slot, rows);
        }
    }

    #[test]
    fn log2_bin_monotone(a in 0usize..100_000, b in 0usize..100_000) {
        if a <= b {
            prop_assert!(log2_bin(a) <= log2_bin(b));
        }
    }

    #[test]
    fn encode_context_structure(
        tokens in proptest::collection::vec("[a-z]{1,5}", 0..40),
        max_len in 4usize..32,
    ) {
        let seqs = vec![tokens.clone()];
        let vocab = Vocab::from_sequences(&seqs, 1);
        let ids = encode_context(&vocab, &tokens, max_len);
        prop_assert!(ids.len() <= max_len);
        prop_assert_eq!(ids[0], vocab.cls_id());
        prop_assert_eq!(*ids.last().unwrap(), vocab.sep_id());
    }
}
