#include "numeric/kernels.h"

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "embedding/skipgram.h"
#include "graph/alias_table.h"
#include "numeric/kernel_backend.h"
#include "obs/metrics.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace tg {
namespace {

// Adversarial lengths around every unroll boundary: empty, single element,
// exact multiples of the 4-wide unroll, one off either side, and large sizes
// with and without tails.
const size_t kLengths[] = {0,  1,  2,  3,  4,   5,   7,   8,    9,    15, 16,
                           17, 31, 63, 64, 65, 127, 128, 129, 1000, 1023};

// Mixed-magnitude values so reordering the summation would actually change
// the result (catches an accidental order change, not just a wrong formula).
std::vector<double> MixedMagnitude(size_t n, Rng* rng) {
  std::vector<double> v(n);
  for (size_t i = 0; i < n; ++i) {
    const double mag = std::pow(10.0, rng->NextUniform(-6.0, 6.0));
    v[i] = rng->NextUniform(-1.0, 1.0) * mag;
  }
  return v;
}

// Restores thread count and kernel backend even when an assertion fails.
// The bit-for-bit tests below assert kernel order, which only the scalar
// backend guarantees, so every test starts pinned to it; the backend-matrix
// tests re-force other backends themselves.
class KernelsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    saved_backend_ = kernels::ActiveBackendName();
    ASSERT_TRUE(kernels::SetActiveBackend("scalar"));
  }
  void TearDown() override {
    SetThreadCount(0);
    kernels::SetActiveBackend(saved_backend_);
  }
  std::string saved_backend_ = "scalar";
};

uint64_t BitsOf(double d) {
  uint64_t u;
  std::memcpy(&u, &d, sizeof(u));
  return u;
}

// FNV-1a over the bit patterns of every double added: equal hashes mean
// bit-equal results.
class BitHash {
 public:
  void Add(double d) {
    const uint64_t bits = BitsOf(d);
    for (int byte = 0; byte < 8; ++byte) {
      hash_ ^= (bits >> (8 * byte)) & 0xff;
      hash_ *= 1099511628211ULL;
    }
  }
  void Add(const std::vector<double>& values) {
    for (double v : values) Add(v);
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 1469598103934665603ULL;
};

// One call of a backend entry at length n on inputs offset by `off`
// elements from the vectors' natural alignment; hashes what it produced.
using EntryCase = void (*)(const kernels::KernelBackend& k, size_t n,
                           size_t off, Rng* rng, BitHash* hash);

// Runs `entry` at every kLengths value, aligned and offset by one, on fresh
// seeded inputs.
uint64_t HashOverLengths(const kernels::KernelBackend& k, EntryCase entry) {
  Rng rng(97);
  BitHash hash;
  for (size_t n : kLengths) {
    for (size_t off : {size_t{0}, size_t{1}}) entry(k, n, off, &rng, &hash);
  }
  return hash.value();
}

// y op= x on mixed-magnitude inputs (Add, Sub, Mul); hashes y.
void ElementwiseCase(void (*op)(double*, const double*, size_t), size_t n,
                     size_t off, Rng* rng, BitHash* hash) {
  const std::vector<double> x = MixedMagnitude(n + 1, rng);
  std::vector<double> y = MixedMagnitude(n + 1, rng);
  op(y.data() + off, x.data() + off, n);
  hash->Add(y);
}

// A pair's gradient scale g = (label - TabulatedSigmoid(w . c)) * lr, from
// backend k's dot; the fused context update applies exactly this g.
double PairGradient(const kernels::KernelBackend& k, const double* w,
                    const double* c, size_t n, double label, double lr) {
  return (label - kernels::TabulatedSigmoid(k.dot(w, c, n))) * lr;
}

// --- The loops the gemm, matmul_transposed, adam_step and
// scatter_scaled_add entries replaced: Matrix::MatMul,
// Matrix::TransposedMatMul, Matrix::MatMulTransposed, the Adam::Step update
// sequence and autograd's per-edge scatter, copied here over backend k's
// axpy, dot, scale, add and scale_add.

// out (m x n) += A * b for the row-major m x kd matrix A, as MatMul did it.
void MatMulRowLoop(const kernels::KernelBackend& k, size_t m, size_t n,
                   size_t kd, const double* a, const double* b, double* out) {
  for (size_t i = 0; i < m; ++i) {
    const double* a_row = a + i * kd;
    double* out_row = out + i * n;
    for (size_t p = 0; p < kd; ++p) {
      const double coefficient = a_row[p];
      if (coefficient == 0.0) continue;
      k.axpy(coefficient, b + p * n, out_row, n);
    }
  }
}

// out (m x n) += T^T * b for the row-major kd x m matrix T, as
// TransposedMatMul did it.
void TransposedMatMulRowLoop(const kernels::KernelBackend& k, size_t m,
                             size_t n, size_t kd, const double* t,
                             const double* b, double* out) {
  for (size_t p = 0; p < kd; ++p) {
    const double* t_row = t + p * m;
    const double* b_row = b + p * n;
    for (size_t i = 0; i < m; ++i) {
      const double coefficient = t_row[i];
      if (coefficient == 0.0) continue;
      k.axpy(coefficient, b_row, out + i * n, n);
    }
  }
}

void MatMulTransposedRowLoop(const kernels::KernelBackend& k, size_t m,
                             size_t p, size_t n, const double* a,
                             const double* b, double* out) {
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = 0; j < p; ++j) out[i * p + j] = k.dot(a + i * n, b + j * n, n);
  }
}

void AdamRowLoop(double* value, const double* md, double* vd,
                 const double* gd, size_t n,
                 const kernels::AdamCoefficients& c) {
  const double bc1 = c.bias_correction1;
  const double bc2 = c.bias_correction2;
  const double beta2 = c.beta2;
  const double one_minus_beta2 = c.one_minus_beta2;
  for (size_t j = 0; j < n; ++j) {
    vd[j] = beta2 * vd[j] + one_minus_beta2 * gd[j] * gd[j];
    const double m_hat = md[j] / bc1;
    const double v_hat = vd[j] / bc2;
    value[j] -= c.lr * m_hat / (std::sqrt(v_hat) + c.eps);
  }
}

// Adam::Step's sequence over a whole parameter before adam_step: the
// weight-decayed gradient (a copy of value, Scale, Add), the first moment by
// ScaleAdd, then AdamRowLoop (every backend's former adam_update, bit for
// bit on x86).
void AdamSequence(const kernels::KernelBackend& k, double* value,
                  const double* grad, double* m, double* v, size_t n,
                  const kernels::AdamCoefficients& c) {
  std::vector<double> decayed;
  const double* gd = grad;
  if (c.weight_decay > 0.0) {
    decayed.assign(value, value + n);
    k.scale(decayed.data(), c.weight_decay, n);
    k.add(decayed.data(), grad, n);
    gd = decayed.data();
  }
  k.scale_add(m, c.beta1, c.one_minus_beta1, gd, n);
  AdamRowLoop(value, m, v, gd, n, c);
}

// autograd's scatter before scatter_scaled_add: per edge, a copy of the
// source row, Scale by the edge's factor, Add into the destination row.
void ScatterSequence(const kernels::KernelBackend& k, const double* rows,
                     size_t d, const size_t* from, const size_t* to,
                     const double* scale, size_t e, double* out) {
  std::vector<double> term(d);
  for (size_t i = 0; i < e; ++i) {
    const double* src = rows + from[i] * d;
    std::copy(src, src + d, term.data());
    k.scale(term.data(), scale[i], d);
    k.add(out + to[i] * d, term.data(), d);
  }
}

// Row-major m x kd coefficients A(i, p). Rows cycle through dense
// mixed-magnitude values with about a quarter zeros, a GNN-style sparse
// feature row (a one-hot flag, a -0.0, a value every seventh column) and an
// all-zero row, so four-row blocks see every mix of live rows.
std::vector<double> GemmCoefficients(size_t m, size_t kd, Rng* rng) {
  std::vector<double> a(m * kd, 0.0);
  for (size_t i = 0; i < m; ++i) {
    double* row = a.data() + i * kd;
    if (i % 5 == 1) {
      for (size_t p = 2; p < kd; p += 7) row[p] = rng->NextUniform(-1.0, 1.0);
      if (kd > 1) row[1] = -0.0;
      if (kd > 0) row[i % kd] = 1.0;
    } else if (i % 5 != 3) {
      const std::vector<double> values = MixedMagnitude(kd, rng);
      for (size_t p = 0; p < kd; ++p) {
        row[p] = rng->NextBernoulli(0.25) ? 0.0 : values[p];
      }
    }
  }
  return a;
}

// The kd x m transpose of the row-major m x kd matrix a.
std::vector<double> Transposed(const std::vector<double>& a, size_t m,
                               size_t kd) {
  std::vector<double> t(a.size());
  for (size_t i = 0; i < m; ++i) {
    for (size_t p = 0; p < kd; ++p) t[p * m + i] = a[i * kd + p];
  }
  return t;
}

// Adam coefficients at step t with the GNN trainer's settings.
kernels::AdamCoefficients AdamAtStep(int t, double weight_decay) {
  return {0.9,
          1.0 - 0.9,
          0.999,
          1.0 - 0.999,
          1.0 - std::pow(0.9, t),
          1.0 - std::pow(0.999, t),
          1e-2,
          1e-8,
          weight_decay};
}

struct PinnedEntry {
  const char* name;
  uint64_t hash;
  EntryCase entry;
};

// Hashes of every scalar-backend entry, recorded while the straight-line
// reference implementations still existed and agreed with the table. The
// scalar backend is the determinism oracle (docs/performance.md), so these
// pin its kernel order at every unroll boundary and alignment.
const PinnedEntry kScalarPinnedEntries[] = {
    {"dot", 0x0ca1ea0732cfc8d7ULL,
     [](const kernels::KernelBackend& k, size_t n, size_t off, Rng* rng,
        BitHash* hash) {
       const std::vector<double> a = MixedMagnitude(n + 1, rng);
       const std::vector<double> b = MixedMagnitude(n + 1, rng);
       hash->Add(k.dot(a.data() + off, b.data() + off, n));
     }},
    {"sum", 0xc6675bf8a8f10cbdULL,
     [](const kernels::KernelBackend& k, size_t n, size_t off, Rng* rng,
        BitHash* hash) {
       const std::vector<double> a = MixedMagnitude(n + 1, rng);
       hash->Add(k.sum(a.data() + off, n));
     }},
    {"add", 0x1e7a6f29f66d9187ULL,
     [](const kernels::KernelBackend& k, size_t n, size_t off, Rng* rng,
        BitHash* hash) { ElementwiseCase(k.add, n, off, rng, hash); }},
    {"sub", 0x5dc23fffa4736accULL,
     [](const kernels::KernelBackend& k, size_t n, size_t off, Rng* rng,
        BitHash* hash) { ElementwiseCase(k.sub, n, off, rng, hash); }},
    {"mul", 0x2b74f97b1b6a587aULL,
     [](const kernels::KernelBackend& k, size_t n, size_t off, Rng* rng,
        BitHash* hash) { ElementwiseCase(k.mul, n, off, rng, hash); }},
    {"scale", 0x518ed34dcd4d38e5ULL,
     [](const kernels::KernelBackend& k, size_t n, size_t off, Rng* rng,
        BitHash* hash) {
       std::vector<double> y = MixedMagnitude(n + 1, rng);
       k.scale(y.data() + off, rng->NextUniform(-2.0, 2.0), n);
       hash->Add(y);
     }},
    {"axpy", 0x1507e6ee1926a963ULL,
     [](const kernels::KernelBackend& k, size_t n, size_t off, Rng* rng,
        BitHash* hash) {
       const std::vector<double> x = MixedMagnitude(n + 1, rng);
       std::vector<double> y = MixedMagnitude(n + 1, rng);
       k.axpy(rng->NextUniform(-2.0, 2.0), x.data() + off, y.data() + off, n);
       hash->Add(y);
     }},
    {"scale_add", 0x6889a2b73994a331ULL,
     [](const kernels::KernelBackend& k, size_t n, size_t off, Rng* rng,
        BitHash* hash) {
       const std::vector<double> x = MixedMagnitude(n + 1, rng);
       std::vector<double> y = MixedMagnitude(n + 1, rng);
       const double alpha = rng->NextUniform(-2.0, 2.0);
       const double beta = rng->NextUniform(-2.0, 2.0);
       k.scale_add(y.data() + off, alpha, beta, x.data() + off, n);
       hash->Add(y);
     }},
    {"mul_add", 0xab05c3a1744d68c7ULL,
     [](const kernels::KernelBackend& k, size_t n, size_t off, Rng* rng,
        BitHash* hash) {
       const std::vector<double> x = MixedMagnitude(n + 1, rng);
       const std::vector<double> y = MixedMagnitude(n + 1, rng);
       std::vector<double> z = MixedMagnitude(n + 1, rng);
       k.mul_add(z.data() + off, x.data() + off, y.data() + off, n);
       hash->Add(z);
     }},
    {"fused_context_update k=1", 0xb1c021367cbb9928ULL,
     [](const kernels::KernelBackend& k, size_t n, size_t off, Rng* rng,
        BitHash* hash) {
       std::vector<double> w(n + 1), c(n + 1), grad(n + 1);
       for (size_t i = 0; i <= n; ++i) {
         w[i] = rng->NextUniform(-1.0, 1.0);
         c[i] = rng->NextUniform(-1.0, 1.0);
         grad[i] = rng->NextUniform(-1.0, 1.0);
       }
       const double label = rng->NextBernoulli(0.5) ? 1.0 : 0.0;
       const double lr = rng->NextUniform(0.001, 0.05);
       double* rows[] = {c.data() + off};
       hash->Add(PairGradient(k, w.data() + off, rows[0], n, label, lr));
       k.fused_context_update(w.data() + off, rows, &label, 1,
                              grad.data() + off, n, lr);
       hash->Add(c);
       hash->Add(grad);
     }},
    // Recorded from six sequential one-pair calls of the former
    // fused_dot_sigmoid_update entry.
    {"fused_context_update k=6", 0xcb366e8b3f298bd0ULL,
     [](const kernels::KernelBackend& k, size_t n, size_t off, Rng* rng,
        BitHash* hash) {
       constexpr size_t kPairs = 6;
       std::vector<double> w(n + 1), grad(n + 1);
       std::vector<std::vector<double>> c(kPairs, std::vector<double>(n + 1));
       for (size_t i = 0; i <= n; ++i) {
         w[i] = rng->NextUniform(-1.0, 1.0);
         for (std::vector<double>& row : c) {
           row[i] = rng->NextUniform(-1.0, 1.0);
         }
         grad[i] = rng->NextUniform(-1.0, 1.0);
       }
       double labels[kPairs];
       double* rows[kPairs];
       for (size_t j = 0; j < kPairs; ++j) {
         labels[j] = rng->NextBernoulli(0.5) ? 1.0 : 0.0;
         rows[j] = c[j].data() + off;
       }
       const double lr = rng->NextUniform(0.001, 0.05);
       for (size_t j = 0; j < kPairs; ++j) {
         hash->Add(PairGradient(k, w.data() + off, rows[j], n, labels[j], lr));
       }
       k.fused_context_update(w.data() + off, rows, labels, kPairs,
                              grad.data() + off, n, lr);
       for (const std::vector<double>& row : c) hash->Add(row);
       hash->Add(grad);
     }},
    // Recorded from MatMulRowLoop and TransposedMatMulRowLoop (m = 6,
    // k = 5) over the parent's scalar axpy.
    {"gemm", 0x0cc2257ad76e75d3ULL,
     [](const kernels::KernelBackend& k, size_t n, size_t off, Rng* rng,
        BitHash* hash) {
       const size_t m = 6, kd = 5;
       const std::vector<double> a = GemmCoefficients(m, kd, rng);
       const std::vector<double> t = Transposed(a, m, kd);
       const std::vector<double> b = MixedMagnitude(kd * n + 1, rng);
       std::vector<double> out = MixedMagnitude(m * n + 1, rng);
       std::vector<double> out_t = out;
       k.gemm(m, n, kd, a.data(), kd, 1, b.data() + off, out.data() + off);
       k.gemm(m, n, kd, t.data(), 1, m, b.data() + off, out_t.data() + off);
       hash->Add(out);
       hash->Add(out_t);
     }},
    // Recorded from MatMulTransposedRowLoop (3 x 5 products) over the
    // parent's scalar dot.
    {"matmul_transposed", 0x66d73635da688774ULL,
     [](const kernels::KernelBackend& k, size_t n, size_t off, Rng* rng,
        BitHash* hash) {
       const size_t m = 3, p = 5;
       const std::vector<double> a = MixedMagnitude(m * n + 1, rng);
       const std::vector<double> b = MixedMagnitude(p * n + 1, rng);
       std::vector<double> out(m * p);
       k.matmul_transposed(m, p, n, a.data() + off, b.data() + off,
                           out.data());
       hash->Add(out);
     }},
    // Recorded on the parent from AdamSequence's calls over the whole
    // parameter, with its adam_update entry in place of AdamRowLoop;
    // lengths past 512 span chunks.
    {"adam_step", 0xe8485e272daa1886ULL,
     [](const kernels::KernelBackend& k, size_t n, size_t off, Rng* rng,
        BitHash* hash) {
       for (double weight_decay : {0.0, 1e-5}) {
         std::vector<double> value = MixedMagnitude(n + 1, rng);
         const std::vector<double> g = MixedMagnitude(n + 1, rng);
         std::vector<double> m = MixedMagnitude(n + 1, rng);
         std::vector<double> v = MixedMagnitude(n + 1, rng);
         for (double& x : v) x = std::abs(x);
         k.adam_step(value.data() + off, g.data() + off, m.data() + off,
                     v.data() + off, n,
                     AdamAtStep(1 + static_cast<int>(n % 5), weight_decay));
         hash->Add(value);
         hash->Add(m);
         hash->Add(v);
       }
     }},
    // Recorded from ScatterSequence on the parent: nine edges from five
    // source rows into three destination rows, with a 0.0 and a -0.0 scale.
    {"scatter_scaled_add", 0x5c3d96e08f7144b0ULL,
     [](const kernels::KernelBackend& k, size_t n, size_t off, Rng* rng,
        BitHash* hash) {
       constexpr size_t kSources = 5, kDests = 3, kEdges = 9;
       const std::vector<double> rows = MixedMagnitude(kSources * n + 1, rng);
       std::vector<double> out = MixedMagnitude(kDests * n + 1, rng);
       size_t from[kEdges], to[kEdges];
       double scale[kEdges];
       for (size_t e = 0; e < kEdges; ++e) {
         from[e] = rng->NextBelow(kSources);
         to[e] = rng->NextBelow(kDests);
         scale[e] = rng->NextUniform(-2.0, 2.0);
       }
       scale[3] = 0.0;
       scale[6] = -0.0;
       k.scatter_scaled_add(rows.data() + off, n, from, to, scale, kEdges,
                            out.data() + off);
       hash->Add(out);
     }},
    {"replicated_mean", 0x19958c649b2b7670ULL,
     [](const kernels::KernelBackend& k, size_t n, size_t off, Rng* rng,
        BitHash* hash) {
       for (size_t count : {1, 2, 3, 7, 8}) {
         std::vector<double> y = MixedMagnitude(n + 1, rng);
         k.replicated_mean(y.data() + off, count, 1.0 / count, n);
         hash->Add(y);
       }
     }},
};

TEST_F(KernelsTest, ReplicatedMeanMatchesExplicitShardOrderSum) {
  Rng rng(29);
  for (size_t count : {size_t{1}, size_t{2}, size_t{3}, size_t{7}, size_t{8}}) {
    const size_t n = 129;
    const std::vector<double> base = MixedMagnitude(n, &rng);
    std::vector<double> mean = base;
    kernels::ReplicatedMean(mean.data(), count, 1.0 / count, n);
    for (size_t i = 0; i < n; ++i) {
      // The merge accumulates the same replica value `count` times in shard
      // order, then scales; ReplicatedMean must reproduce that exactly.
      double acc = base[i];
      for (size_t s = 1; s < count; ++s) acc += base[i];
      EXPECT_EQ(mean[i], acc * (1.0 / count)) << "count=" << count << " i=" << i;
    }
  }
}

// --- Backend dispatch --------------------------------------------------------

TEST_F(KernelsTest, DispatchKnobsBehave) {
  const std::vector<std::string> names = kernels::AvailableBackendNames();
  ASSERT_FALSE(names.empty());
  EXPECT_EQ(names.front(), "scalar");

  // Forcing an unknown backend fails without changing the active table.
  ASSERT_TRUE(kernels::SetActiveBackend("scalar"));
  EXPECT_FALSE(kernels::SetActiveBackend("not-a-backend"));
  EXPECT_STREQ(kernels::ActiveBackendName(), "scalar");

  // Every advertised backend can be forced, reports itself, and "auto"
  // resolves to the widest one (the back of the list).
  for (const std::string& name : names) {
    ASSERT_TRUE(kernels::SetActiveBackend(name)) << name;
    EXPECT_EQ(kernels::ActiveBackendName(), name);
  }
  ASSERT_TRUE(kernels::SetActiveBackend("auto"));
  EXPECT_EQ(kernels::ActiveBackendName(), names.back());

  // Selecting a backend records it in the metrics registry.
  EXPECT_GE(obs::MetricsRegistry::Instance()
                .GetCounter("numeric.backend.scalar")
                .value(),
            1u);
}

// Bit-level anchors captured from the pre-dispatch (seed) kernel layer: the
// scalar backend compiles the same fixed-order bodies under the same base
// architecture flags, so TG_ISA=scalar must keep reproducing these exact
// doubles on every host. A failure here means the exact-mode contract broke.
TEST_F(KernelsTest, ScalarBackendMatchesSeedGoldenBits) {
  Rng rng(20240601);
  const size_t n = 129;
  const std::vector<double> a = MixedMagnitude(n, &rng);
  const std::vector<double> b = MixedMagnitude(n, &rng);
  EXPECT_EQ(BitsOf(kernels::Dot(a.data(), b.data(), n)), 0x41d10a3000996dbdULL);
  EXPECT_EQ(BitsOf(kernels::Sum(a.data(), n)), 0x41372f16629f7b9fULL);

  std::vector<double> y = b;
  kernels::Axpy(0.75, a.data(), y.data(), n);
  EXPECT_EQ(BitsOf(kernels::Sum(y.data(), n)), 0x413843130b2a8f9cULL);
  kernels::ScaleAdd(y.data(), 0.9, -0.1, a.data(), n);
  EXPECT_EQ(BitsOf(kernels::Sum(y.data(), n)), 0x413384754cfcc1afULL);

  Rng rng2(77);
  std::vector<double> w(n), c(n), grad(n, 0.0);
  for (size_t i = 0; i < n; ++i) {
    w[i] = rng2.NextUniform(-1.0, 1.0);
    c[i] = rng2.NextUniform(-1.0, 1.0);
  }
  const double g = PairGradient(kernels::ScalarBackend(), w.data(), c.data(),
                                n, 1.0, 0.025);
  EXPECT_EQ(BitsOf(g), 0x3f75d0f73511a4aaULL);
  double* rows[] = {c.data()};
  const double label = 1.0;
  kernels::FusedContextUpdate(w.data(), rows, &label, 1, grad.data(), n,
                              0.025);
  EXPECT_EQ(BitsOf(kernels::Sum(c.data(), n)), 0xc025737e517762c0ULL);
  EXPECT_EQ(BitsOf(kernels::Sum(grad.data(), n)), 0xbfad5b5d17021b38ULL);
}

TEST_F(KernelsTest, ScalarBackendMatchesPinnedHashes) {
  for (const PinnedEntry& pinned : kScalarPinnedEntries) {
    const uint64_t got =
        HashOverLengths(kernels::ScalarBackend(), pinned.entry);
    EXPECT_EQ(got, pinned.hash)
        << pinned.name << " hash 0x" << std::hex << got;
  }
}

constexpr double kEps = 2.220446049250313e-16;  // 2^-52

// The documented reduction envelope (docs/performance.md): a vector backend
// may reassociate a length-n reduction and contract to FMA, but must stay
// within 4 * (n + 16) * eps relative to the sum of absolute terms.
double ReductionTolerance(double abs_sum, size_t n) {
  return 4.0 * static_cast<double>(n + 16) * kEps * abs_sum;
}

TEST_F(KernelsTest, EveryBackendDotAndSumWithinEnvelopeOfScalarBackend) {
  const kernels::KernelBackend& scalar = kernels::ScalarBackend();
  for (const std::string& backend : kernels::AvailableBackendNames()) {
    ASSERT_TRUE(kernels::SetActiveBackend(backend));
    Rng rng(7);
    for (size_t n : kLengths) {
      // One extra leading element so data() + 1 exercises unaligned loads.
      const std::vector<double> a = MixedMagnitude(n + 1, &rng);
      const std::vector<double> b = MixedMagnitude(n + 1, &rng);
      for (size_t off : {size_t{0}, size_t{1}}) {
        double abs_dot = 0.0, abs_sum = 0.0;
        for (size_t i = 0; i < n; ++i) {
          abs_dot += std::abs(a[off + i] * b[off + i]);
          abs_sum += std::abs(a[off + i]);
        }
        EXPECT_NEAR(kernels::Dot(a.data() + off, b.data() + off, n),
                    scalar.dot(a.data() + off, b.data() + off, n),
                    ReductionTolerance(abs_dot, n))
            << backend << " n=" << n << " off=" << off;
        EXPECT_NEAR(kernels::Sum(a.data() + off, n),
                    scalar.sum(a.data() + off, n),
                    ReductionTolerance(abs_sum, n))
            << backend << " n=" << n << " off=" << off;
      }
    }
  }
}

TEST_F(KernelsTest, EveryBackendAxpyScaleAddWithinEnvelopeOfScalarBackend) {
  const kernels::KernelBackend& scalar = kernels::ScalarBackend();
  for (const std::string& backend : kernels::AvailableBackendNames()) {
    ASSERT_TRUE(kernels::SetActiveBackend(backend));
    Rng rng(17);
    for (size_t n : kLengths) {
      const std::vector<double> x = MixedMagnitude(n, &rng);
      const std::vector<double> base = MixedMagnitude(n, &rng);
      const double alpha = rng.NextUniform(-2.0, 2.0);
      const double beta = rng.NextUniform(-2.0, 2.0);

      std::vector<double> y1 = base, y2 = base;
      kernels::Axpy(alpha, x.data(), y1.data(), n);
      scalar.axpy(alpha, x.data(), y2.data(), n);
      for (size_t i = 0; i < n; ++i) {
        // FMA contraction changes each element by at most one rounding of
        // the product term.
        const double tol =
            4.0 * kEps * (std::abs(alpha * x[i]) + std::abs(base[i]));
        EXPECT_NEAR(y1[i], y2[i], tol) << backend << " n=" << n << " i=" << i;
      }

      y1 = base;
      y2 = base;
      kernels::ScaleAdd(y1.data(), alpha, beta, x.data(), n);
      scalar.scale_add(y2.data(), alpha, beta, x.data(), n);
      for (size_t i = 0; i < n; ++i) {
        const double tol = 4.0 * kEps * (std::abs(alpha * base[i]) +
                                         std::abs(beta * x[i]));
        EXPECT_NEAR(y1[i], y2[i], tol) << backend << " n=" << n << " i=" << i;
      }
    }
  }
}

TEST_F(KernelsTest, EveryBackendElementwiseBitIdentical) {
  // Add/Sub/Mul/Scale perform one IEEE operation per element in every
  // backend, so unlike the reductions they carry no envelope: exact equality
  // across the whole matrix of backends and lengths.
  for (const std::string& backend : kernels::AvailableBackendNames()) {
    ASSERT_TRUE(kernels::SetActiveBackend(backend));
    Rng rng(31);
    for (size_t n : kLengths) {
      const std::vector<double> x = MixedMagnitude(n + 1, &rng);
      const std::vector<double> base = MixedMagnitude(n + 1, &rng);
      const double s = rng.NextUniform(-2.0, 2.0);
      for (size_t off : {size_t{0}, size_t{1}}) {
        std::vector<double> got = base;
        std::vector<double> want = base;
        kernels::Add(got.data() + off, x.data() + off, n);
        for (size_t i = 0; i < n; ++i) want[off + i] += x[off + i];
        EXPECT_EQ(got, want) << backend << " Add n=" << n << " off=" << off;

        got = base;
        want = base;
        kernels::Sub(got.data() + off, x.data() + off, n);
        for (size_t i = 0; i < n; ++i) want[off + i] -= x[off + i];
        EXPECT_EQ(got, want) << backend << " Sub n=" << n << " off=" << off;

        got = base;
        want = base;
        kernels::Mul(got.data() + off, x.data() + off, n);
        for (size_t i = 0; i < n; ++i) want[off + i] *= x[off + i];
        EXPECT_EQ(got, want) << backend << " Mul n=" << n << " off=" << off;

        got = base;
        want = base;
        kernels::Scale(got.data() + off, s, n);
        for (size_t i = 0; i < n; ++i) want[off + i] *= s;
        EXPECT_EQ(got, want) << backend << " Scale n=" << n << " off=" << off;
      }
    }
  }
}

TEST_F(KernelsTest, EveryBackendReplicatedMeanBitIdentical) {
  // ReplicatedMean must preserve the per-element accumulate-count-times
  // sequence in every backend (the dirty-row merge equivalence depends on
  // it), which also makes it exactly equal across backends.
  for (const std::string& backend : kernels::AvailableBackendNames()) {
    ASSERT_TRUE(kernels::SetActiveBackend(backend));
    Rng rng(29);
    for (size_t count : {size_t{1}, size_t{3}, size_t{8}}) {
      for (size_t n : {size_t{5}, size_t{64}, size_t{129}}) {
        const std::vector<double> base = MixedMagnitude(n, &rng);
        std::vector<double> mean = base;
        kernels::ReplicatedMean(mean.data(), count, 1.0 / count, n);
        for (size_t i = 0; i < n; ++i) {
          double acc = base[i];
          for (size_t s = 1; s < count; ++s) acc += base[i];
          EXPECT_EQ(mean[i], acc * (1.0 / count))
              << backend << " count=" << count << " n=" << n << " i=" << i;
        }
      }
    }
  }
}

TEST_F(KernelsTest, MulAddScalarMatchesMulThenAddBitForBit) {
  // The scalar backend must perform the unfused two-rounding sequence
  // z[i] += x[i] * y[i]; autograd's TG_ISA=scalar bit-identity (the fused
  // AccumulateGradMulAdd vs a Hadamard temporary) rests on this.
  Rng rng(37);
  for (size_t n : kLengths) {
    const std::vector<double> x = MixedMagnitude(n, &rng);
    const std::vector<double> y = MixedMagnitude(n, &rng);
    const std::vector<double> base = MixedMagnitude(n, &rng);
    std::vector<double> z1 = base;
    kernels::ScalarBackend().mul_add(z1.data(), x.data(), y.data(), n);
    for (size_t i = 0; i < n; ++i) {
      const double want = base[i] + x[i] * y[i];
      EXPECT_EQ(z1[i], want) << "n=" << n << " i=" << i;
    }
  }
}

TEST_F(KernelsTest, EveryBackendMulAddWithinEnvelopeOfScalarBackend) {
  // Vector backends may contract x*y+z to a single FMA rounding.
  const kernels::KernelBackend& scalar = kernels::ScalarBackend();
  for (const std::string& backend : kernels::AvailableBackendNames()) {
    ASSERT_TRUE(kernels::SetActiveBackend(backend));
    Rng rng(37);
    for (size_t n : kLengths) {
      const std::vector<double> x = MixedMagnitude(n + 1, &rng);
      const std::vector<double> y = MixedMagnitude(n + 1, &rng);
      const std::vector<double> base = MixedMagnitude(n + 1, &rng);
      for (size_t off : {size_t{0}, size_t{1}}) {
        std::vector<double> z1 = base, z2 = base;
        kernels::MulAdd(z1.data() + off, x.data() + off, y.data() + off, n);
        scalar.mul_add(z2.data() + off, x.data() + off, y.data() + off, n);
        for (size_t i = 0; i < n; ++i) {
          const double tol = 4.0 * kEps * (std::abs(x[off + i] * y[off + i]) +
                                           std::abs(base[off + i]));
          EXPECT_NEAR(z1[off + i], z2[off + i], tol)
              << backend << " n=" << n << " off=" << off << " i=" << i;
        }
      }
    }
  }
}

TEST_F(KernelsTest, EveryBackendFusedUpdateWithinEnvelopeOfScalarBackend) {
  // Each fused kernel computes g from its own backend's dot, so g is exact
  // given that dot (no table-bucket flip can hide in an envelope); only the
  // two row updates may contract to FMA, within the Axpy envelope of the
  // scalar backend's mul-then-add applied with the same g.
  const kernels::KernelBackend& scalar = kernels::ScalarBackend();
  for (const std::string& backend : kernels::AvailableBackendNames()) {
    ASSERT_TRUE(kernels::SetActiveBackend(backend));
    const kernels::KernelBackend& k = kernels::ActiveBackend();
    Rng rng(23);
    for (size_t n : kLengths) {
      std::vector<double> w(n + 1), c_base(n + 1), grad_base(n + 1);
      for (size_t i = 0; i <= n; ++i) {
        w[i] = rng.NextUniform(-1.0, 1.0);
        c_base[i] = rng.NextUniform(-1.0, 1.0);
        grad_base[i] = rng.NextUniform(-1.0, 1.0);
      }
      const double label = rng.NextBernoulli(0.5) ? 1.0 : 0.0;
      const double lr = rng.NextUniform(0.001, 0.05);
      for (size_t off : {size_t{0}, size_t{1}}) {
        const double g =
            PairGradient(k, w.data() + off, c_base.data() + off, n, label, lr);
        // From a zero gradient, an FMA and a multiply both round g * c once,
        // so center_grad shows the kernel's g exactly.
        std::vector<double> c = c_base, grad(n + 1, 0.0);
        double* rows[] = {c.data() + off};
        kernels::FusedContextUpdate(w.data() + off, rows, &label, 1,
                                    grad.data() + off, n, lr);
        for (size_t i = off; i < off + n; ++i) {
          EXPECT_EQ(grad[i], g * c_base[i])
              << backend << " n=" << n << " off=" << off << " i=" << i;
        }

        c = c_base;
        grad = grad_base;
        kernels::FusedContextUpdate(w.data() + off, rows, &label, 1,
                                    grad.data() + off, n, lr);

        std::vector<double> want_c = c_base, want_grad = grad_base;
        scalar.axpy(g, c_base.data() + off, want_grad.data() + off, n);
        scalar.axpy(g, w.data() + off, want_c.data() + off, n);
        for (size_t i = off; i < off + n; ++i) {
          EXPECT_NEAR(grad[i], want_grad[i],
                      4.0 * kEps *
                          (std::abs(g * c_base[i]) + std::abs(grad_base[i])))
              << backend << " n=" << n << " off=" << off << " i=" << i;
          EXPECT_NEAR(c[i], want_c[i],
                      4.0 * kEps * (std::abs(g * w[i]) + std::abs(c_base[i])))
              << backend << " n=" << n << " off=" << off << " i=" << i;
        }
      }
    }
  }
}

// The pairs of one context have independent dots, so one k-row call must
// reproduce k one-row calls bit for bit on every backend, for k across the
// backends' pair blocks and dims with and without vector tails.
TEST_F(KernelsTest, EveryBackendContextCallMatchesSequentialPairCalls) {
  for (const std::string& backend : kernels::AvailableBackendNames()) {
    ASSERT_TRUE(kernels::SetActiveBackend(backend));
    Rng rng(31);
    for (size_t n : {size_t{7}, size_t{24}, size_t{128}, size_t{129}}) {
      for (size_t k = 1; k <= 9; ++k) {
        std::vector<double> w(n);
        std::vector<double> grad_base(n);
        std::vector<std::vector<double>> rows_base(k, std::vector<double>(n));
        for (size_t i = 0; i < n; ++i) {
          w[i] = rng.NextUniform(-0.5, 0.5);
          grad_base[i] = rng.NextUniform(-0.1, 0.1);
          for (std::vector<double>& row : rows_base) {
            row[i] = rng.NextUniform(-0.5, 0.5);
          }
        }
        std::vector<double> labels(k, 0.0);
        labels[0] = 1.0;
        const double lr = rng.NextUniform(0.001, 0.05);

        std::vector<std::vector<double>> fused = rows_base;
        std::vector<double> fused_grad = grad_base;
        std::vector<double*> fused_rows;
        for (std::vector<double>& row : fused) fused_rows.push_back(row.data());
        kernels::FusedContextUpdate(w.data(), fused_rows.data(), labels.data(),
                                    k, fused_grad.data(), n, lr);

        std::vector<std::vector<double>> seq = rows_base;
        std::vector<double> seq_grad = grad_base;
        for (size_t j = 0; j < k; ++j) {
          double* row = seq[j].data();
          kernels::FusedContextUpdate(w.data(), &row, &labels[j], 1,
                                      seq_grad.data(), n, lr);
        }

        for (size_t i = 0; i < n; ++i) {
          ASSERT_EQ(BitsOf(fused_grad[i]), BitsOf(seq_grad[i]))
              << backend << " n=" << n << " k=" << k << " i=" << i;
          for (size_t j = 0; j < k; ++j) {
            ASSERT_EQ(BitsOf(fused[j][i]), BitsOf(seq[j][i]))
                << backend << " n=" << n << " k=" << k << " row " << j
                << " i=" << i;
          }
        }
      }
    }
  }
}

// Gemm against the MatMul and TransposedMatMul row loops it replaced, bit
// for bit on every backend: m across the four-row blocks and their tails,
// n across every vector tail, empty dimensions, and out accumulated on top
// of non-zero values.
TEST_F(KernelsTest, EveryBackendGemmMatchRowLoops) {
  for (const std::string& backend : kernels::AvailableBackendNames()) {
    ASSERT_TRUE(kernels::SetActiveBackend(backend));
    const kernels::KernelBackend& k = kernels::ActiveBackend();
    Rng rng(41);
    for (size_t m : {0, 1, 3, 4, 5, 6, 7, 8, 9}) {
      for (size_t n : {0, 1, 3, 7, 8, 9, 15, 16, 17, 64, 270}) {
        for (size_t kd : {0, 1, 5, 13}) {
          const std::vector<double> a = GemmCoefficients(m, kd, &rng);
          const std::vector<double> t = Transposed(a, m, kd);
          const std::vector<double> b = MixedMagnitude(kd * n, &rng);
          const std::vector<double> base = MixedMagnitude(m * n, &rng);

          std::vector<double> got = base, want = base;
          kernels::Gemm(m, n, kd, a.data(), kd, 1, b.data(), got.data());
          MatMulRowLoop(k, m, n, kd, a.data(), b.data(), want.data());
          for (size_t e = 0; e < got.size(); ++e) {
            ASSERT_EQ(BitsOf(got[e]), BitsOf(want[e]))
                << backend << " MatMul m=" << m << " n=" << n << " k=" << kd
                << " e=" << e;
          }

          got = base;
          want = base;
          kernels::Gemm(m, n, kd, t.data(), 1, m, b.data(), got.data());
          TransposedMatMulRowLoop(k, m, n, kd, t.data(), b.data(),
                                  want.data());
          for (size_t e = 0; e < got.size(); ++e) {
            ASSERT_EQ(BitsOf(got[e]), BitsOf(want[e]))
                << backend << " TransposedMatMul m=" << m << " n=" << n
                << " k=" << kd << " e=" << e;
          }
        }
      }
    }
  }
}

// A zero coefficient skips its term, so an inf or NaN in that row of b never
// reaches the output, in either layout and on every backend.
TEST_F(KernelsTest, EveryBackendGemmSkipsNonFiniteRowsWithZeroCoefficient) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const std::string& backend : kernels::AvailableBackendNames()) {
    ASSERT_TRUE(kernels::SetActiveBackend(backend));
    const kernels::KernelBackend& k = kernels::ActiveBackend();
    Rng rng(43);
    const size_t m = 7, kd = 6, bad = 2;
    for (size_t n : {1, 5, 8, 12, 19}) {
      std::vector<double> a = GemmCoefficients(m, kd, &rng);
      for (size_t i = 0; i < m; ++i) a[i * kd + bad] = i % 2 == 0 ? 0.0 : -0.0;
      const std::vector<double> t = Transposed(a, m, kd);
      std::vector<double> b = MixedMagnitude(kd * n, &rng);
      for (size_t j = 0; j < n; ++j) b[bad * n + j] = j % 2 == 0 ? nan : inf;
      const std::vector<double> base = MixedMagnitude(m * n, &rng);

      std::vector<double> got = base, got_t = base, want = base;
      kernels::Gemm(m, n, kd, a.data(), kd, 1, b.data(), got.data());
      kernels::Gemm(m, n, kd, t.data(), 1, m, b.data(), got_t.data());
      MatMulRowLoop(k, m, n, kd, a.data(), b.data(), want.data());
      for (size_t e = 0; e < got.size(); ++e) {
        EXPECT_TRUE(std::isfinite(got[e])) << backend << " n=" << n;
        EXPECT_EQ(BitsOf(got[e]), BitsOf(want[e])) << backend << " n=" << n;
        EXPECT_EQ(BitsOf(got_t[e]), BitsOf(want[e])) << backend << " n=" << n;
      }
    }
  }
}

TEST_F(KernelsTest, EveryBackendMatMulTransposedMatchRowLoops) {
  for (const std::string& backend : kernels::AvailableBackendNames()) {
    ASSERT_TRUE(kernels::SetActiveBackend(backend));
    const kernels::KernelBackend& k = kernels::ActiveBackend();
    Rng rng(47);
    for (size_t m : {0, 1, 3, 5}) {
      for (size_t p : {0, 1, 4, 7}) {
        for (size_t n : {0, 1, 3, 4, 7, 8, 15, 16, 17, 64, 129}) {
          const std::vector<double> a = MixedMagnitude(m * n, &rng);
          const std::vector<double> b = MixedMagnitude(p * n, &rng);
          std::vector<double> got(m * p, -1.0), want(m * p, -2.0);
          kernels::MatMulTransposed(m, p, n, a.data(), b.data(), got.data());
          MatMulTransposedRowLoop(k, m, p, n, a.data(), b.data(),
                                  want.data());
          for (size_t e = 0; e < got.size(); ++e) {
            ASSERT_EQ(BitsOf(got[e]), BitsOf(want[e]))
                << backend << " m=" << m << " p=" << p << " n=" << n
                << " e=" << e;
          }
        }
      }
    }
  }
}

// adam_step walks a parameter in chunks, calling the backend's own Scale,
// Add, ScaleAdd and update on each, so it must equal those calls over the
// whole parameter bit for bit -- tails, chunk boundaries, zero, inf and NaN
// gradients, the first steps' large bias corrections and weight decay
// included.
TEST_F(KernelsTest, EveryBackendAdamStepMatchesSequentialCalls) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const std::string& backend : kernels::AvailableBackendNames()) {
    ASSERT_TRUE(kernels::SetActiveBackend(backend));
    const kernels::KernelBackend& k = kernels::ActiveBackend();
    Rng rng(53);
    for (size_t n : {1, 7, 8, 9, 77, 284, 512, 1029}) {
      for (double weight_decay : {0.0, 1e-5}) {
        for (int step : {1, 2, 10, 150}) {
          std::vector<double> value = MixedMagnitude(n + 1, &rng);
          std::vector<double> g = MixedMagnitude(n + 1, &rng);
          std::vector<double> m = MixedMagnitude(n + 1, &rng);
          std::vector<double> v = MixedMagnitude(n + 1, &rng);
          for (double& x : v) x = std::abs(x);
          if (n > 3) {
            g[1] = 0.0;
            g[2] = -inf;
            g[n] = nan;
            v[3] = 0.0;
          }
          const kernels::AdamCoefficients c = AdamAtStep(step, weight_decay);
          for (size_t off : {size_t{0}, size_t{1}}) {
            std::vector<double> got_value = value, got_m = m, got_v = v;
            std::vector<double> want_value = value, want_m = m, want_v = v;
            kernels::AdamStep(got_value.data() + off, g.data() + off,
                              got_m.data() + off, got_v.data() + off, n, c);
            AdamSequence(k, want_value.data() + off, g.data() + off,
                         want_m.data() + off, want_v.data() + off, n, c);
            for (size_t i = 0; i <= n; ++i) {
              ASSERT_EQ(BitsOf(got_value[i]), BitsOf(want_value[i]))
                  << backend << " n=" << n << " wd=" << weight_decay
                  << " step=" << step << " off=" << off << " i=" << i;
              ASSERT_EQ(BitsOf(got_m[i]), BitsOf(want_m[i]))
                  << backend << " n=" << n << " wd=" << weight_decay
                  << " step=" << step << " off=" << off << " i=" << i;
              ASSERT_EQ(BitsOf(got_v[i]), BitsOf(want_v[i]))
                  << backend << " n=" << n << " wd=" << weight_decay
                  << " step=" << step << " off=" << off << " i=" << i;
            }
          }
        }
      }
    }
  }
}

// scatter_scaled_add rounds each product before its add, so on every
// backend it equals the per-edge copy, Scale and Add it replaced: repeated
// destinations, a -0.0 destination, and inf and NaN source rows behind zero
// and non-zero scales (a zero scale must not skip them: inf * 0 is NaN). At
// most one NaN reaches each output element: which of two NaNs an add keeps
// follows the compiler's operand order, which no backend pins.
TEST_F(KernelsTest, EveryBackendScatterScaledAddMatchesCopyScaleAdd) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  constexpr size_t kSources = 6, kDests = 4;
  const size_t from[] = {0, 1, 2, 3, 4, 5, 1, 0, 2, 4, 3, 5, 0};
  const size_t to[] = {0, 0, 1, 0, 2, 3, 3, 1, 0, 3, 3, 2, 0};
  constexpr size_t kEdges = sizeof(from) / sizeof(from[0]);
  static_assert(sizeof(to) == sizeof(from));
  for (const std::string& backend : kernels::AvailableBackendNames()) {
    ASSERT_TRUE(kernels::SetActiveBackend(backend));
    const kernels::KernelBackend& k = kernels::ActiveBackend();
    Rng rng(59);
    for (size_t d : {1, 7, 64, 129, 278}) {
      std::vector<double> rows = MixedMagnitude(kSources * d, &rng);
      // Row 2 holds inf and NaN (edges with scales 0.0 and -1.5), row 4 a
      // NaN (scale -0.0 and 0.75).
      for (size_t j = 0; j < d; ++j) rows[2 * d + j] = j % 2 == 0 ? inf : nan;
      rows[4 * d + d / 2] = nan;
      std::vector<double> base = MixedMagnitude(kDests * d, &rng);
      base[3 * d] = -0.0;
      double scale[kEdges];
      for (size_t e = 0; e < kEdges; ++e) {
        scale[e] = rng.NextUniform(-2.0, 2.0);
      }
      scale[2] = 0.0;
      scale[8] = -1.5;
      scale[4] = -0.0;
      scale[9] = 0.75;

      std::vector<double> got = base, want = base;
      kernels::ScatterScaledAdd(rows.data(), d, from, to, scale, kEdges,
                                got.data());
      ScatterSequence(k, rows.data(), d, from, to, scale, kEdges,
                      want.data());
      for (size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(BitsOf(got[i]), BitsOf(want[i]))
            << backend << " d=" << d << " i=" << i;
      }
      EXPECT_TRUE(std::isnan(got[1 * d]));  // inf * 0.0 reached row 1
    }
  }
}

// --- Sigmoid -----------------------------------------------------------------

TEST_F(KernelsTest, TabulatedSigmoidWithinErrorBoundOfExact) {
  double max_err = 0.0;
  for (double x = -10.0; x <= 10.0; x += 1e-3) {
    max_err = std::max(
        max_err, std::abs(kernels::TabulatedSigmoid(x) -
                          kernels::ExactSigmoid(x)));
  }
  EXPECT_LT(max_err, 1e-3);
}

TEST_F(KernelsTest, TabulatedSigmoidClampsExactlyOutsideClipRange) {
  EXPECT_EQ(kernels::TabulatedSigmoid(kernels::kSigmoidClip + 1e-9), 1.0);
  EXPECT_EQ(kernels::TabulatedSigmoid(-kernels::kSigmoidClip - 1e-9), 0.0);
  EXPECT_EQ(kernels::TabulatedSigmoid(100.0), 1.0);
  EXPECT_EQ(kernels::TabulatedSigmoid(-100.0), 0.0);
  // Interior values stay strictly inside (0, 1).
  EXPECT_GT(kernels::TabulatedSigmoid(0.0), 0.4);
  EXPECT_LT(kernels::TabulatedSigmoid(0.0), 0.6);
}

TEST_F(KernelsTest, SigmoidsPropagateNaN) {
  // A NaN passes both clip tests, so the table index must not be computed
  // from it (a NaN-to-integer conversion is undefined behaviour).
  const double nan = std::nan("");
  EXPECT_TRUE(std::isnan(kernels::TabulatedSigmoid(nan)));
  EXPECT_TRUE(std::isnan(kernels::TabulatedSigmoid(-nan)));
  EXPECT_TRUE(std::isnan(kernels::ExactSigmoid(nan)));
}

TEST_F(KernelsTest, ExactSigmoidIsOverflowSafe) {
  EXPECT_EQ(kernels::ExactSigmoid(1000.0), 1.0);
  EXPECT_EQ(kernels::ExactSigmoid(-1000.0), 0.0);
  EXPECT_NEAR(kernels::ExactSigmoid(0.0), 0.5, 1e-15);
  EXPECT_NEAR(kernels::ExactSigmoid(2.0) + kernels::ExactSigmoid(-2.0), 1.0,
              1e-15);
}

// --- AliasTable --------------------------------------------------------------

// Chi-squared goodness of fit against the target distribution. With 3
// degrees of freedom the p = 0.001 critical value is 16.27; the generous
// threshold keeps the test deterministic-stable (fixed seed) while still
// failing loudly on any construction bug that skews the table.
TEST_F(KernelsTest, AliasTableSamplesMatchWeightsChiSquared) {
  const std::vector<double> weights = {1.0, 2.0, 3.0, 4.0};
  const double total = 10.0;
  AliasTable table(weights);
  Rng rng(12345);
  const size_t draws = 200000;
  std::vector<size_t> counts(weights.size(), 0);
  for (size_t i = 0; i < draws; ++i) ++counts[table.Sample(&rng)];

  double chi2 = 0.0;
  for (size_t i = 0; i < weights.size(); ++i) {
    const double expected = draws * weights[i] / total;
    const double diff = static_cast<double>(counts[i]) - expected;
    chi2 += diff * diff / expected;
  }
  EXPECT_LT(chi2, 16.27) << "counts: " << counts[0] << " " << counts[1] << " "
                         << counts[2] << " " << counts[3];
}

TEST_F(KernelsTest, AliasTableHandlesZeroWeightEntries) {
  const std::vector<double> weights = {0.0, 5.0, 0.0, 5.0};
  AliasTable table(weights);
  Rng rng(99);
  for (size_t i = 0; i < 10000; ++i) {
    const size_t s = table.Sample(&rng);
    EXPECT_TRUE(s == 1 || s == 3) << s;
  }
}

// --- Skip-gram integration ---------------------------------------------------

// FNV-1a of a matrix's bits in row-major order.
uint64_t MatrixHash(const Matrix& m) {
  BitHash hash;
  for (size_t r = 0; r < m.rows(); ++r) {
    for (size_t c = 0; c < m.cols(); ++c) hash.Add(m(r, c));
  }
  return hash.value();
}

std::vector<std::vector<uint32_t>> MakeCorpus(uint32_t used_vocab,
                                              size_t sentences, size_t length,
                                              uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<uint32_t>> corpus(sentences);
  for (auto& sentence : corpus) {
    sentence.resize(length);
    for (auto& tok : sentence) {
      tok = static_cast<uint32_t>(rng.NextBelow(used_vocab));
    }
  }
  return corpus;
}

TEST_F(KernelsTest, NegativeSamplerBuiltExactlyOncePerTrain) {
  obs::Counter& builds =
      obs::MetricsRegistry::Instance().GetCounter("skipgram.sampler_builds");
  SkipGramConfig config;
  config.dim = 8;
  config.epochs = 3;  // more epochs than one: the build must not repeat
  config.num_shards = 4;
  SkipGramTrainer trainer(16, config);
  const auto corpus = MakeCorpus(16, 6, 20, 5);
  const uint64_t before = builds.value();
  Rng rng(42);
  trainer.Train(corpus, &rng);
  EXPECT_EQ(builds.value() - before, 1u);
}

// The dirty-row merge's embeddings, pinned. With a vocab much larger than
// the tokens actually used, most rows stay clean and take the ReplicatedMean
// path, which is provably identical to averaging the untouched (hence equal)
// replica copies; the hashes were recorded while a full vocab x dim
// cross-replica merge still existed and gave the same bits. Three shards
// make ReplicatedMean round (x + x + x) / 3 away from x, so skipping the
// clean rows would show; with four it is exact.
TEST_F(KernelsTest, DirtyRowMergeMatchesPinnedEmbeddingHash) {
  const size_t vocab = 64;
  const uint32_t used = 12;  // rows [12, 64) stay clean in every epoch
  const auto corpus = MakeCorpus(used, 8, 25, 77);
  obs::Counter& clean = obs::MetricsRegistry::Instance().GetCounter(
      "skipgram.merge.clean_rows");
  const std::pair<size_t, uint64_t> pinned[] = {{3, 0xdaf593af61f7c8c7ULL},
                                                {4, 0xb169729f170d1834ULL}};
  for (const auto& [shards, want] : pinned) {
    SkipGramConfig config;
    config.dim = 16;
    config.epochs = 2;
    config.num_shards = shards;
    SkipGramTrainer trainer(vocab, config);
    const uint64_t clean_before = clean.value();
    Rng rng(7);
    trainer.Train(corpus, &rng);
    // The run must actually exercise the clean-row fast path.
    EXPECT_GT(clean.value(), clean_before) << shards << " shards";
    const uint64_t hash = MatrixHash(trainer.embeddings());
    EXPECT_EQ(hash, want) << shards << " shards, hash 0x" << std::hex << hash;
  }
}

TEST_F(KernelsTest, ShardedTrainingBitIdenticalAcrossThreadCounts) {
  const auto corpus = MakeCorpus(24, 10, 30, 123);
  auto train = [&] {
    SkipGramConfig config;
    config.dim = 16;
    config.epochs = 2;
    config.num_shards = 4;
    SkipGramTrainer trainer(24, config);
    Rng rng(9);
    trainer.Train(corpus, &rng);
    return trainer.embeddings();
  };

  SetThreadCount(1);
  const Matrix one = train();
  for (size_t threads : {size_t{2}, size_t{4}}) {
    SetThreadCount(threads);
    const Matrix many = train();
    ASSERT_EQ(one.rows(), many.rows());
    ASSERT_EQ(one.cols(), many.cols());
    for (size_t r = 0; r < one.rows(); ++r) {
      for (size_t c = 0; c < one.cols(); ++c) {
        EXPECT_EQ(one(r, c), many(r, c))
            << "threads=" << threads << " " << r << "," << c;
      }
    }
  }
}

// Any FIXED backend must give a pure-function pipeline: repeated runs and
// different thread counts produce bit-identical embeddings (the backends only
// differ from each other, never from themselves).
TEST_F(KernelsTest, ShardedTrainingDeterministicUnderEveryForcedBackend) {
  const auto corpus = MakeCorpus(24, 10, 30, 123);
  auto train = [&] {
    SkipGramConfig config;
    config.dim = 16;
    config.epochs = 2;
    config.num_shards = 4;
    SkipGramTrainer trainer(24, config);
    Rng rng(9);
    trainer.Train(corpus, &rng);
    return trainer.embeddings();
  };

  for (const std::string& backend : kernels::AvailableBackendNames()) {
    ASSERT_TRUE(kernels::SetActiveBackend(backend));
    SetThreadCount(1);
    const Matrix first = train();
    const Matrix repeat = train();
    SetThreadCount(4);
    const Matrix threaded = train();
    ASSERT_EQ(first.rows(), repeat.rows());
    ASSERT_EQ(first.rows(), threaded.rows());
    for (size_t r = 0; r < first.rows(); ++r) {
      for (size_t c = 0; c < first.cols(); ++c) {
        EXPECT_EQ(first(r, c), repeat(r, c))
            << backend << " rerun " << r << "," << c;
        EXPECT_EQ(first(r, c), threaded(r, c))
            << backend << " threads=4 " << r << "," << c;
      }
    }
    SetThreadCount(0);
  }
}

}  // namespace
}  // namespace tg
