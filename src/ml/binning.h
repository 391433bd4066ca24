// Quantile feature binning for the histogram GBDT (gbdt.cc).
#ifndef TG_ML_BINNING_H_
#define TG_ML_BINNING_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace tg::ml {

// Per-feature quantile bin edges over `values[0..n)`; value v falls in the
// first bin b with v <= edges[b], or in the final overflow bin. Empty when
// the column is constant (nothing to split on). At most max_bins - 1 edges,
// so codes fit max_bins bins.
std::vector<double> ComputeBinEdges(const double* values, size_t n,
                                    int max_bins);

// First edge >= value; equality goes left, matching `x <= threshold`.
uint16_t BinOf(double value, const std::vector<double>& edges);

}  // namespace tg::ml

#endif  // TG_ML_BINNING_H_
