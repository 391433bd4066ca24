#include "util/thread_pool.h"

#include <atomic>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/pipeline.h"
#include "ml/gbdt.h"
#include "obs/metrics.h"
#include "util/rng.h"

namespace tg {
namespace {

// Every test restores the default thread count, including on failure.
class ThreadPoolTest : public ::testing::Test {
 protected:
  void TearDown() override { SetThreadCount(0); }
};

TEST_F(ThreadPoolTest, ThreadCountIsAtLeastOne) {
  EXPECT_GE(ThreadCount(), 1u);
  SetThreadCount(3);
  EXPECT_EQ(ThreadCount(), 3u);
  SetThreadCount(0);
  EXPECT_GE(ThreadCount(), 1u);
}

TEST_F(ThreadPoolTest, EmptyRangeNeverInvokesFunction) {
  std::atomic<int> calls{0};
  ParallelFor(5, 5, 1, [&](size_t, size_t, size_t) { ++calls; });
  ParallelFor(7, 3, 1, [&](size_t, size_t, size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 0);
}

TEST_F(ThreadPoolTest, SingleItemRangeRunsOnce) {
  std::atomic<int> calls{0};
  ParallelFor(4, 5, 16, [&](size_t begin, size_t end, size_t chunk) {
    EXPECT_EQ(begin, 4u);
    EXPECT_EQ(end, 5u);
    EXPECT_EQ(chunk, 0u);
    ++calls;
  });
  EXPECT_EQ(calls.load(), 1);
}

TEST_F(ThreadPoolTest, CoversEveryItemExactlyOnce) {
  SetThreadCount(4);
  const size_t n = 1001;
  std::vector<std::atomic<int>> hits(n);
  ParallelFor(0, n, 17, [&](size_t begin, size_t end, size_t chunk) {
    for (size_t i = begin; i < end; ++i) {
      EXPECT_EQ(i / 17, chunk);
      ++hits[i];
    }
  });
  for (size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST_F(ThreadPoolTest, PropagatesExceptionFromWorkerChunk) {
  SetThreadCount(4);
  EXPECT_THROW(
      ParallelFor(0, 64, 1,
                  [&](size_t begin, size_t, size_t) {
                    if (begin == 13) throw std::runtime_error("chunk 13");
                  }),
      std::runtime_error);
  // The pool must stay usable after an exception drained.
  std::atomic<int> calls{0};
  ParallelFor(0, 8, 1, [&](size_t, size_t, size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 8);
}

TEST_F(ThreadPoolTest, NestedParallelForRunsInlineWithSameChunking) {
  SetThreadCount(4);
  const size_t outer = 8, inner = 100;
  std::vector<double> results(outer, 0.0);
  ParallelFor(0, outer, 1, [&](size_t b, size_t e, size_t) {
    for (size_t o = b; o < e; ++o) {
      std::vector<double> partial((inner + 9) / 10, 0.0);
      ParallelFor(0, inner, 10, [&](size_t ib, size_t ie, size_t chunk) {
        for (size_t i = ib; i < ie; ++i) {
          partial[chunk] += static_cast<double>(o * inner + i);
        }
      });
      results[o] = std::accumulate(partial.begin(), partial.end(), 0.0);
    }
  });
  for (size_t o = 0; o < outer; ++o) {
    double expect = 0.0;
    for (size_t i = 0; i < inner; ++i) {
      expect += static_cast<double>(o * inner + i);
    }
    EXPECT_DOUBLE_EQ(results[o], expect) << o;
  }
}

TEST_F(ThreadPoolTest, ExceptionInsideNestedParallelForPropagates) {
  SetThreadCount(4);
  EXPECT_THROW(
      ParallelFor(0, 4, 1,
                  [&](size_t, size_t, size_t) {
                    ParallelFor(0, 4, 1, [&](size_t, size_t, size_t) {
                      throw std::runtime_error("nested");
                    });
                  }),
      std::runtime_error);
}

// Per-chunk seeded work must not depend on the thread count (the contract
// every parallel component in the pipeline builds on).
TEST_F(ThreadPoolTest, ChunkSeededWorkIsThreadCountInvariant) {
  const Rng base(99);
  auto run = [&] {
    const size_t n = 512;
    std::vector<uint64_t> draws(n);
    ParallelFor(0, n, 8, [&](size_t begin, size_t end, size_t) {
      for (size_t i = begin; i < end; ++i) {
        Rng item_rng = base.Fork(i);
        draws[i] = item_rng.NextUint64();
      }
    });
    return draws;
  };
  SetThreadCount(1);
  const std::vector<uint64_t> serial = run();
  SetThreadCount(4);
  const std::vector<uint64_t> parallel = run();
  EXPECT_EQ(serial, parallel);
}

// Below the minimum-work threshold the heuristic must not touch the pool:
// every chunk runs inline on the calling thread with the same boundaries and
// chunk indices ParallelFor would have produced.
TEST_F(ThreadPoolTest, ParallelForIfWorthRunsSmallWorkInline) {
  SetThreadCount(4);
  obs::Counter& inline_runs = obs::MetricsRegistry::Instance().GetCounter(
      "thread_pool.parallel_for.inline_small_work");
  const uint64_t before = inline_runs.value();
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<size_t> chunk_of(100, size_t(-1));
  ParallelForIfWorth(
      0, 100, 7, kMinParallelWork - 1,
      [&](size_t begin, size_t end, size_t chunk) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        for (size_t i = begin; i < end; ++i) chunk_of[i] = chunk;
      });
  EXPECT_EQ(inline_runs.value() - before, 1u);
  for (size_t i = 0; i < 100; ++i) {
    EXPECT_EQ(chunk_of[i], i / 7) << i;  // ParallelFor's chunking exactly
  }
}

TEST_F(ThreadPoolTest, ParallelForIfWorthDispatchesLargeWork) {
  SetThreadCount(4);
  obs::Counter& inline_runs = obs::MetricsRegistry::Instance().GetCounter(
      "thread_pool.parallel_for.inline_small_work");
  obs::Counter& pf_calls = obs::MetricsRegistry::Instance().GetCounter(
      "thread_pool.parallel_for.calls");
  const uint64_t inline_before = inline_runs.value();
  const uint64_t calls_before = pf_calls.value();
  std::vector<std::atomic<int>> hits(256);
  ParallelForIfWorth(0, 256, 8, kMinParallelWork,
                     [&](size_t begin, size_t end, size_t) {
                       for (size_t i = begin; i < end; ++i) ++hits[i];
                     });
  EXPECT_EQ(inline_runs.value() - inline_before, 0u);
  EXPECT_EQ(pf_calls.value() - calls_before, 1u);  // delegated to ParallelFor
  for (size_t i = 0; i < 256; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

// Both sides of the threshold must compute the same thing: per-item results
// from chunk-seeded work are identical whether the heuristic inlines or
// dispatches (the determinism contract extends to ParallelForIfWorth).
TEST_F(ThreadPoolTest, ParallelForIfWorthResultIndependentOfThreshold) {
  SetThreadCount(4);
  const Rng base(1234);
  auto run = [&](size_t estimated_work) {
    const size_t n = 300;
    std::vector<uint64_t> draws(n);
    ParallelForIfWorth(0, n, 16, estimated_work,
                       [&](size_t begin, size_t end, size_t chunk) {
                         for (size_t i = begin; i < end; ++i) {
                           EXPECT_EQ(i / 16, chunk);
                           draws[i] = base.Fork(i).NextUint64();
                         }
                       });
    return draws;
  };
  EXPECT_EQ(run(0), run(kMinParallelWork * 2));
}

// The GBDT regression this heuristic fixes: tiny fits must not pay pool
// dispatch. A small dataset's binning/histogram/prediction loops all fall
// under kMinParallelWork, so Fit should add inline-run counter ticks.
TEST_F(ThreadPoolTest, SmallGbdtFitStaysInline) {
  SetThreadCount(4);
  ml::TabularDataset data;
  const size_t n = 40, d = 3;
  Rng rng(5);
  data.x = Matrix(n, d);
  data.y.resize(n);
  for (size_t r = 0; r < n; ++r) {
    for (size_t c = 0; c < d; ++c) data.x(r, c) = rng.NextGaussian();
    data.y[r] = data.x(r, 0) * 2.0 + rng.NextGaussian(0.0, 0.1);
  }
  obs::Counter& inline_runs = obs::MetricsRegistry::Instance().GetCounter(
      "thread_pool.parallel_for.inline_small_work");
  const uint64_t before = inline_runs.value();
  ml::GbdtConfig config;
  config.num_trees = 20;
  config.max_depth = 3;
  ml::Gbdt gbdt(config);
  ASSERT_TRUE(gbdt.Fit(data).ok());
  EXPECT_GT(inline_runs.value(), before);
}

// End-to-end determinism: the full leave-one-out evaluation (walks,
// skip-gram, forests, parallel targets, shared caches) must be bit-identical
// at 1 and 4 threads. Fresh zoo + pipeline per run so no cache carries over.
TEST_F(ThreadPoolTest, LeaveOneOutSweepBitIdenticalAcrossThreadCounts) {
  auto evaluate = [] {
    zoo::ModelZooConfig zc;
    zc.catalog.num_image_models = 32;
    zc.catalog.num_text_models = 12;
    zc.world.max_samples_per_dataset = 60;
    zoo::ModelZoo zoo(zc);
    core::Pipeline pipeline(&zoo, zoo::Modality::kImage);
    core::PipelineConfig config;
    config.strategy = {core::PredictorKind::kXgboost,
                       core::GraphLearner::kNode2Vec, core::FeatureSet::kAll};
    config.node2vec.walk.walks_per_node = 4;
    config.node2vec.walk.walk_length = 10;
    config.node2vec.skipgram.dim = 16;
    config.node2vec.skipgram.epochs = 1;
    config.predictor.gbdt.num_trees = 20;
    core::SweepResult result =
        pipeline.EvaluateAllTargetsResumable(config, core::SweepOptions{});
    EXPECT_TRUE(result.complete);
    return result.evaluations;
  };
  SetThreadCount(1);
  const std::vector<core::TargetEvaluation> serial = evaluate();
  SetThreadCount(4);
  const std::vector<core::TargetEvaluation> parallel = evaluate();

  ASSERT_EQ(serial.size(), parallel.size());
  ASSERT_FALSE(serial.empty());
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].target_dataset, parallel[i].target_dataset);
    EXPECT_EQ(serial[i].model_indices, parallel[i].model_indices);
    // Exact double comparison on purpose: the contract is bit-identity.
    EXPECT_EQ(serial[i].predicted, parallel[i].predicted) << i;
    EXPECT_EQ(serial[i].actual, parallel[i].actual) << i;
    EXPECT_EQ(serial[i].pearson, parallel[i].pearson) << i;
    EXPECT_EQ(serial[i].spearman, parallel[i].spearman) << i;
  }
}

}  // namespace
}  // namespace tg
