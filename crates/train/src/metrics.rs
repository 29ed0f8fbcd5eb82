//! Evaluation metrics: AUC.

/// Area under the ROC curve via the rank statistic (Mann–Whitney U), with
/// proper tie handling. Returns 0.5 when either class is absent. Scores
/// are ranked by `f64::total_cmp`: `-0.0` and `0.0` sit next to each other
/// and tie, and a NaN ranks above every number and ties with nothing.
pub fn auc(scores: &[f64], labels: &[f32]) -> f64 {
    assert_eq!(scores.len(), labels.len());
    let mut order: Vec<usize> = (0..scores.len()).collect();
    order.sort_by(|&a, &b| scores[a].total_cmp(&scores[b]));

    // Average ranks for tied scores (1-based ranks).
    let mut ranks = vec![0.0f64; scores.len()];
    let mut i = 0;
    while i < order.len() {
        let mut j = i;
        while j + 1 < order.len() && scores[order[j + 1]] == scores[order[i]] {
            j += 1;
        }
        let avg = (i + j) as f64 / 2.0 + 1.0;
        for &idx in &order[i..=j] {
            ranks[idx] = avg;
        }
        i = j + 1;
    }

    let n_pos = labels.iter().filter(|&&l| l > 0.5).count() as f64;
    let n_neg = labels.len() as f64 - n_pos;
    if n_pos == 0.0 || n_neg == 0.0 {
        return 0.5;
    }
    let rank_sum: f64 = labels
        .iter()
        .zip(&ranks)
        .filter(|(&l, _)| l > 0.5)
        .map(|(_, &r)| r)
        .sum();
    (rank_sum - n_pos * (n_pos + 1.0) / 2.0) / (n_pos * n_neg)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_ranking_is_one() {
        let scores = [0.1, 0.2, 0.8, 0.9];
        let labels = [0.0, 0.0, 1.0, 1.0];
        assert_eq!(auc(&scores, &labels), 1.0);
    }

    #[test]
    fn inverted_ranking_is_zero() {
        let scores = [0.9, 0.8, 0.2, 0.1];
        let labels = [0.0, 0.0, 1.0, 1.0];
        assert_eq!(auc(&scores, &labels), 0.0);
    }

    #[test]
    fn random_like_is_half() {
        let scores = [0.5, 0.5, 0.5, 0.5];
        let labels = [1.0, 0.0, 1.0, 0.0];
        assert_eq!(auc(&scores, &labels), 0.5, "all ties average to 0.5");
    }

    #[test]
    fn signed_zeros_tie_and_nan_ranks_last_instead_of_panicking() {
        assert_eq!(auc(&[0.0, -0.0], &[1.0, 0.0]), 0.5);
        assert_eq!(auc(&[f64::NAN, 0.2], &[1.0, 0.0]), 1.0);
    }

    #[test]
    fn single_class_is_half() {
        assert_eq!(auc(&[0.1, 0.9], &[1.0, 1.0]), 0.5);
        assert_eq!(auc(&[0.1, 0.9], &[0.0, 0.0]), 0.5);
    }

    #[test]
    fn matches_pairwise_definition() {
        let scores = [0.3, 0.7, 0.6, 0.2, 0.9];
        let labels = [0.0, 1.0, 0.0, 0.0, 1.0];
        // Pairwise: P(score_pos > score_neg) + 0.5 P(tie).
        let mut wins = 0.0;
        let mut total = 0.0;
        for (i, &li) in labels.iter().enumerate() {
            if li < 0.5 {
                continue;
            }
            for (j, &lj) in labels.iter().enumerate() {
                if lj > 0.5 {
                    continue;
                }
                total += 1.0;
                if scores[i] > scores[j] {
                    wins += 1.0;
                } else if scores[i] == scores[j] {
                    wins += 0.5;
                }
            }
        }
        assert!((auc(&scores, &labels) - wins / total).abs() < 1e-12);
    }
}
