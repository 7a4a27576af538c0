//! Loss functions: fused softmax + cross-entropy with an ignore index
//! (needed for masked-language-model training where only masked positions
//! contribute), and mean-squared error for regression heads.

use crate::matrix::Matrix;

/// Sentinel target meaning "no loss at this position".
pub const IGNORE_INDEX: usize = usize::MAX;

/// Fused softmax cross-entropy.
///
/// `logits` is `n × classes`, `targets` has length `n` with entries in
/// `0..classes` or [`IGNORE_INDEX`]. Returns `(mean_loss, dlogits)` where the
/// gradient is already divided by the number of contributing positions.
pub fn softmax_cross_entropy(logits: &Matrix, targets: &[usize]) -> (f32, Matrix) {
    assert_eq!(logits.rows(), targets.len());
    let classes = logits.cols();
    // Each row's gradient is its probability row with one taken from the
    // target's entry, so the softmax is computed in place and an ignored
    // row is zeroed.
    let mut dlogits = logits.clone();
    dlogits.softmax_rows();
    let mut loss = 0.0f64;
    let mut n = 0usize;
    for (r, &t) in targets.iter().enumerate() {
        let row = dlogits.row_mut(r);
        if t == IGNORE_INDEX {
            row.fill(0.0);
            continue;
        }
        assert!(t < classes, "target {t} out of range {classes}");
        n += 1;
        loss += -(row[t].max(1e-12) as f64).ln();
        row[t] -= 1.0;
    }
    if n == 0 {
        return (0.0, dlogits);
    }
    let scale = 1.0 / n as f32;
    dlogits.scale(scale);
    ((loss / n as f64) as f32, dlogits)
}

/// Mean squared error over all elements. Returns `(loss, dpred)`.
pub fn mse(pred: &Matrix, target: &Matrix) -> (f32, Matrix) {
    assert_eq!((pred.rows(), pred.cols()), (target.rows(), target.cols()));
    let n = (pred.rows() * pred.cols()).max(1) as f32;
    let mut diff = pred.clone();
    diff.sub_assign(target);
    let loss = diff.data().iter().map(|v| v * v).sum::<f32>() / n;
    let grad = diff.map(|v| 2.0 * v / n);
    (loss, grad)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_prediction_low_loss() {
        let logits = Matrix::from_vec(2, 3, vec![10.0, 0.0, 0.0, 0.0, 0.0, 10.0]);
        let (loss, grad) = softmax_cross_entropy(&logits, &[0, 2]);
        assert!(loss < 1e-3, "loss {loss}");
        assert!(grad.norm() < 1e-3);
    }

    #[test]
    fn uniform_logits_loss_is_ln_classes() {
        let logits = Matrix::zeros(4, 5);
        let (loss, _) = softmax_cross_entropy(&logits, &[0, 1, 2, 3]);
        assert!((loss - (5.0f32).ln()).abs() < 1e-4);
    }

    #[test]
    fn ignore_index_positions_contribute_nothing() {
        let logits = Matrix::from_vec(3, 2, vec![5.0, 0.0, 0.0, 5.0, 3.0, 3.0]);
        let (loss_all, _) = softmax_cross_entropy(&logits, &[0, 1, 0]);
        let (loss_masked, grad) = softmax_cross_entropy(&logits, &[0, 1, IGNORE_INDEX]);
        assert!(loss_masked < loss_all);
        // Ignored row has zero gradient.
        assert_eq!(grad.row(2), &[0.0, 0.0]);
    }

    #[test]
    fn all_ignored_is_zero() {
        let logits = Matrix::zeros(2, 3);
        let (loss, grad) = softmax_cross_entropy(&logits, &[IGNORE_INDEX, IGNORE_INDEX]);
        assert_eq!(loss, 0.0);
        assert_eq!(grad.norm(), 0.0);
    }

    #[test]
    fn cross_entropy_gradient_matches_finite_difference() {
        let logits = Matrix::from_vec(2, 3, vec![0.3, -0.2, 0.9, 1.0, 0.1, -0.5]);
        let targets = [2usize, 0usize];
        let (_, grad) = softmax_cross_entropy(&logits, &targets);
        let eps = 1e-3;
        for (r, c) in [(0, 0), (0, 2), (1, 1)] {
            let mut lp = logits.clone();
            lp.set(r, c, logits.get(r, c) + eps);
            let mut lm = logits.clone();
            lm.set(r, c, logits.get(r, c) - eps);
            let (loss_p, _) = softmax_cross_entropy(&lp, &targets);
            let (loss_m, _) = softmax_cross_entropy(&lm, &targets);
            let numeric = (loss_p - loss_m) / (2.0 * eps);
            assert!(
                (numeric - grad.get(r, c)).abs() < 1e-3,
                "({r},{c}): numeric {numeric} analytic {}",
                grad.get(r, c)
            );
        }
    }

    #[test]
    fn gradient_matches_the_per_element_form_bitwise() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let logits = crate::init::normal(&mut rng, 6, 13, 3.0);
        let targets = [4, IGNORE_INDEX, 0, 12, IGNORE_INDEX, 7];
        // The gradient as `get`/`set` per element: probability minus the
        // one-hot target, ignored rows left at zero, then the mean scale.
        let mut probs = logits.clone();
        probs.softmax_rows();
        let mut want = Matrix::zeros(6, 13);
        for (r, &t) in targets.iter().enumerate() {
            if t == IGNORE_INDEX {
                continue;
            }
            for c in 0..13 {
                want.set(r, c, probs.get(r, c) - if c == t { 1.0 } else { 0.0 });
            }
        }
        want.scale(1.0 / 4.0);
        let (_, got) = softmax_cross_entropy(&logits, &targets);
        let bits = |m: &Matrix| m.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got), bits(&want));
        assert!(
            got.row(1).iter().chain(got.row(4)).all(|v| v.to_bits() == 0),
            "ignored rows are +0.0"
        );
    }

    #[test]
    fn mse_basics() {
        let pred = Matrix::from_vec(1, 2, vec![1.0, 2.0]);
        let target = Matrix::from_vec(1, 2, vec![0.0, 2.0]);
        let (loss, grad) = mse(&pred, &target);
        assert!((loss - 0.5).abs() < 1e-6);
        assert!((grad.get(0, 0) - 1.0).abs() < 1e-6);
        assert_eq!(grad.get(0, 1), 0.0);
    }
}
