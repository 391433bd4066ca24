// Descriptive statistics and the correlation metrics used throughout the
// evaluation: Pearson's tau (the paper's Eq. 1), Spearman, min-max
// normalization (used for edge-weight thresholds in graph construction).
#ifndef TG_NUMERIC_STATS_H_
#define TG_NUMERIC_STATS_H_

#include <cstddef>
#include <vector>

namespace tg {

double Mean(const std::vector<double>& values);
// Population variance / standard deviation (divide by n).
double Variance(const std::vector<double>& values);
double StdDev(const std::vector<double>& values);
double Min(const std::vector<double>& values);
double Max(const std::vector<double>& values);
// Linear-interpolated quantile, q in [0, 1].
double Quantile(std::vector<double> values, double q);

// Pearson correlation coefficient (paper Eq. 1). Returns 0 when either
// series is constant (degenerate denominator).
double PearsonCorrelation(const std::vector<double>& a,
                          const std::vector<double>& b);

// Spearman rank correlation; ties receive average ranks.
double SpearmanCorrelation(const std::vector<double>& a,
                           const std::vector<double>& b);

// Average ranks with ties; rank 1 = smallest value. -0.0 and +0.0 tie.
// A NaN ranks past the infinity of its sign and ties only with NaNs of the
// same bits.
std::vector<double> AverageRanks(const std::vector<double>& values);

// Maps values affinely into [0, 1]; a constant vector maps to all 0.5.
std::vector<double> MinMaxNormalize(const std::vector<double>& values);

// 1 - Pearson(a, b): the "correlation distance" used for dataset similarity.
double CorrelationDistance(const std::vector<double>& a,
                           const std::vector<double>& b);

// Cosine similarity; 0 if either vector is all-zero.
double CosineSimilarity(const std::vector<double>& a,
                        const std::vector<double>& b);

double EuclideanDistance(const std::vector<double>& a,
                         const std::vector<double>& b);

}  // namespace tg

#endif  // TG_NUMERIC_STATS_H_
