// PARC: Pairwise Annotation Representation Comparison (Bolya et al.,
// NeurIPS 2021). Compares the geometry of the model's feature space with the
// geometry of the label space: Spearman correlation between the off-diagonal
// entries of (1 - corr(features)) and (1 - corr(one-hot labels)), scaled by
// 100. Samples are subsampled for tractability on large datasets. Every
// label must lie in [0, num_classes), subsampled or not.
#ifndef TG_TRANSFERABILITY_PARC_H_
#define TG_TRANSFERABILITY_PARC_H_

#include <vector>

#include "numeric/matrix.h"
#include "util/status.h"

namespace tg {

struct ParcOptions {
  // Rows kept by the subsample; at least 3.
  size_t max_samples = 256;
  uint64_t seed = 31;
};

Result<double> ParcScore(const Matrix& features,
                         const std::vector<int>& labels, int num_classes,
                         const ParcOptions& options = {});

}  // namespace tg

#endif  // TG_TRANSFERABILITY_PARC_H_
