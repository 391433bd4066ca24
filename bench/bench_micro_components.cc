// Component micro-benchmarks (google-benchmark): the building blocks whose
// cost dominates the pipeline -- alias sampling, biased walks, skip-gram
// training, LogME scoring, GBDT fitting, one GNN training epoch, and graph
// construction. Before the google-benchmark suite runs, a parallel-speedup
// section times the ParallelFor-backed components at 1 thread vs the
// configured TG_THREADS count and writes bench_csv/bench_timings.json.
#include <benchmark/benchmark.h>

#include <cstdlib>
#include <functional>
#include <string_view>

#include "bench_common.h"
#include "core/graph_builder.h"
#include "embedding/node2vec.h"
#include "embedding/skipgram.h"
#include "gnn/link_prediction.h"
#include "gnn/sage.h"
#include "ml/gbdt.h"
#include "ml/random_forest.h"
#include "numeric/kernel_backend.h"
#include "numeric/kernels.h"
#include "numeric/stats.h"
#include "obs/trace.h"
#include "transferability/logme.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "zoo/model_zoo.h"

namespace tg {
namespace {

Graph MakeBenchmarkGraph(size_t num_nodes, size_t avg_degree) {
  Graph g;
  Rng rng(1);
  for (size_t i = 0; i < num_nodes; ++i) {
    g.AddNode(i % 4 == 0 ? NodeType::kDataset : NodeType::kModel,
              "n" + std::to_string(i));
  }
  const size_t num_edges = num_nodes * avg_degree / 2;
  for (size_t e = 0; e < num_edges; ++e) {
    NodeId a = static_cast<NodeId>(rng.NextBelow(num_nodes));
    NodeId b = static_cast<NodeId>(rng.NextBelow(num_nodes));
    if (a == b) continue;
    g.AddUndirectedEdge(a, b, EdgeType::kDatasetDataset,
                        0.1 + 0.9 * rng.NextDouble());
  }
  return g;
}

void BM_AliasTableSample(benchmark::State& state) {
  Rng rng(2);
  std::vector<double> weights(1000);
  for (double& w : weights) w = rng.NextDouble();
  AliasTable table(weights);
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.Sample(&rng));
  }
}
BENCHMARK(BM_AliasTableSample);

// --- skipgram_kernels: the dense inner loops behind the skip-gram trainer ---
// Args cover the embedding dim used by the pipeline (128) and an off-unroll
// length (129) so the tail path shows up in the numbers.

std::vector<double> BenchVector(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> v(n);
  for (double& x : v) x = rng.NextUniform(-1.0, 1.0);
  return v;
}

void BM_KernelDot(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const std::vector<double> a = BenchVector(n, 21);
  const std::vector<double> b = BenchVector(n, 22);
  for (auto _ : state) {
    benchmark::DoNotOptimize(kernels::Dot(a.data(), b.data(), n));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_KernelDot)->Arg(128)->Arg(129);

// The fixed-order scalar table's dot, whatever TG_ISA selected for
// BM_KernelDot.
void BM_KernelDotScalarBackend(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const std::vector<double> a = BenchVector(n, 21);
  const std::vector<double> b = BenchVector(n, 22);
  const kernels::KernelBackend& scalar = kernels::ScalarBackend();
  for (auto _ : state) {
    benchmark::DoNotOptimize(scalar.dot(a.data(), b.data(), n));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_KernelDotScalarBackend)->Arg(128)->Arg(129);

void BM_KernelAxpy(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const std::vector<double> x = BenchVector(n, 23);
  std::vector<double> y = BenchVector(n, 24);
  for (auto _ : state) {
    kernels::Axpy(0.01, x.data(), y.data(), n);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_KernelAxpy)->Arg(128)->Arg(129);

void BM_KernelFusedDotSigmoidUpdate(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const std::vector<double> w = BenchVector(n, 25);
  std::vector<double> c = BenchVector(n, 26);
  std::vector<double> grad(n, 0.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(kernels::FusedDotSigmoidUpdate(
        w.data(), c.data(), grad.data(), n, 1.0, 0.025));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_KernelFusedDotSigmoidUpdate)->Arg(128)->Arg(129);

void BM_SigmoidTabulated(benchmark::State& state) {
  const std::vector<double> xs = BenchVector(1024, 27);
  size_t i = 0;
  double acc = 0.0;
  for (auto _ : state) {
    acc += kernels::TabulatedSigmoid(10.0 * xs[i++ & 1023]);
  }
  benchmark::DoNotOptimize(acc);
}
BENCHMARK(BM_SigmoidTabulated);

void BM_SigmoidExact(benchmark::State& state) {
  const std::vector<double> xs = BenchVector(1024, 27);
  size_t i = 0;
  double acc = 0.0;
  for (auto _ : state) {
    acc += kernels::ExactSigmoid(10.0 * xs[i++ & 1023]);
  }
  benchmark::DoNotOptimize(acc);
}
BENCHMARK(BM_SigmoidExact);

void BM_BiasedRandomWalk(benchmark::State& state) {
  Graph g = MakeBenchmarkGraph(260, 20);
  WalkConfig config;
  config.walk_length = static_cast<int>(state.range(0));
  RandomWalkGenerator walker(g, config);
  Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(walker.Walk(0, &rng));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BiasedRandomWalk)->Arg(20)->Arg(40)->Arg(80);

void BM_Node2VecFull(benchmark::State& state) {
  Graph g = MakeBenchmarkGraph(260, 20);
  Node2VecConfig config;
  config.walk.walks_per_node = 4;
  config.walk.walk_length = 20;
  config.skipgram.dim = static_cast<size_t>(state.range(0));
  config.skipgram.epochs = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(Node2VecEmbed(g, config, 7));
  }
}
BENCHMARK(BM_Node2VecFull)->Arg(32)->Arg(128)->Unit(benchmark::kMillisecond);

void BM_LogMeScore(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(4);
  Matrix features = Matrix::Gaussian(n, 32, &rng);
  std::vector<int> labels(n);
  for (size_t i = 0; i < n; ++i) labels[i] = static_cast<int>(i % 10);
  for (auto _ : state) {
    benchmark::DoNotOptimize(LogMeScore(features, labels, 10));
  }
}
BENCHMARK(BM_LogMeScore)->Arg(200)->Arg(400)->Arg(800)
    ->Unit(benchmark::kMillisecond);

void BM_GbdtFit(benchmark::State& state) {
  Rng rng(5);
  const size_t n = 1000;
  const size_t d = static_cast<size_t>(state.range(0));
  ml::TabularDataset data;
  data.x = Matrix::Gaussian(n, d, &rng);
  data.y.resize(n);
  for (size_t i = 0; i < n; ++i) {
    data.y[i] = data.x(i, 0) + rng.NextGaussian(0.0, 0.1);
  }
  ml::GbdtConfig config;
  config.num_trees = 50;
  for (auto _ : state) {
    ml::Gbdt model(config);
    benchmark::DoNotOptimize(model.Fit(data));
  }
  state.SetItemsProcessed(state.iterations() * 50);
}
BENCHMARK(BM_GbdtFit)->Arg(32)->Arg(128)->Arg(256)
    ->Unit(benchmark::kMillisecond);

void BM_RandomForestFit(benchmark::State& state) {
  Rng rng(6);
  const size_t n = 1000;
  ml::TabularDataset data;
  data.x = Matrix::Gaussian(n, 64, &rng);
  data.y.resize(n);
  for (size_t i = 0; i < n; ++i) {
    data.y[i] = data.x(i, 3) + rng.NextGaussian(0.0, 0.1);
  }
  ml::RandomForestConfig config;
  config.num_trees = static_cast<int>(state.range(0));
  for (auto _ : state) {
    ml::RandomForest model(config);
    benchmark::DoNotOptimize(model.Fit(data));
  }
}
BENCHMARK(BM_RandomForestFit)->Arg(10)->Arg(50)
    ->Unit(benchmark::kMillisecond);

void BM_GraphSageEpoch(benchmark::State& state) {
  Graph g = MakeBenchmarkGraph(260, 20);
  gnn::EdgeIndex edges = gnn::BuildEdgeIndex(g, true);
  Rng rng(7);
  gnn::SageConfig config;
  config.hidden_dim = 64;
  config.output_dim = 128;
  gnn::GraphSage encoder(edges, 64, config, &rng);
  Matrix features = Matrix::Gaussian(g.num_nodes(), 64, &rng);
  gnn::LinkPredictionConfig lp;
  lp.epochs = 1;
  for (auto _ : state) {
    Rng epoch_rng(8);
    benchmark::DoNotOptimize(
        gnn::TrainLinkPrediction(g, &encoder, features, {}, lp, &epoch_rng));
  }
}
BENCHMARK(BM_GraphSageEpoch)->Unit(benchmark::kMillisecond);

void BM_PearsonCorrelation(benchmark::State& state) {
  Rng rng(9);
  const size_t n = static_cast<size_t>(state.range(0));
  std::vector<double> a(n), b(n);
  for (size_t i = 0; i < n; ++i) {
    a[i] = rng.NextGaussian();
    b[i] = rng.NextGaussian();
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(PearsonCorrelation(a, b));
  }
}
BENCHMARK(BM_PearsonCorrelation)->Arg(185)->Arg(1000);

void BM_GraphConstruction(benchmark::State& state) {
  zoo::ModelZooConfig config;
  config.catalog.num_image_models = 64;
  config.world.max_samples_per_dataset = 100;
  zoo::ModelZoo zoo(config);
  core::GraphBuildOptions options;
  // Warm the LogME cache so the benchmark isolates graph assembly.
  core::BuildModelZooGraph(&zoo, zoo::Modality::kImage, options);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::BuildModelZooGraph(&zoo, zoo::Modality::kImage, options));
  }
}
BENCHMARK(BM_GraphConstruction)->Unit(benchmark::kMillisecond);

// Times one component at 1 thread and at the configured thread count
// (TG_THREADS / hardware), prints the speedup, and records both timings for
// bench_csv/bench_timings.json. Each configuration gets one warmup run.
// Timings come from the span tracer rather than an external stopwatch: the
// measured interval is the component's own `span_name` root spans, so setup
// work inside the lambda (RNG seeding, corpus copies) is excluded.
void ReportOneSpeedup(const std::string& name, std::string_view span_name,
                      const std::function<void()>& run) {
  const size_t n_threads = ThreadCount();
  auto timed = [&](size_t threads) {
    SetThreadCount(threads);
    run();  // warmup
    obs::ResetSpans();
    run();
    double seconds = 0.0;
    for (const obs::SpanRecord& span : obs::SnapshotSpans()) {
      if (span.parent == 0 && span_name == span.name) {
        seconds +=
            static_cast<double>(span.end_ns - span.start_ns) * 1e-9;
      }
    }
    bench::RecordTiming(name, threads, seconds);
    return seconds;
  };
  const double t1 = timed(1);
  const double tn = timed(n_threads);
  SetThreadCount(0);
  std::printf("  %-24s %8.3fs (1 thread) %8.3fs (%zu threads)  %.2fx\n",
              name.c_str(), t1, tn, n_threads, tn > 0.0 ? t1 / tn : 0.0);
}

void ReportParallelSpeedups() {
  bench::PrintSectionHeader("parallel speedup: 1 thread vs TG_THREADS=" +
                            std::to_string(ThreadCount()));

  Graph g = MakeBenchmarkGraph(260, 20);
  WalkConfig walk_config;
  walk_config.walks_per_node = 8;
  walk_config.walk_length = 40;
  walk_config.q = 0.5;
  RandomWalkGenerator walker(g, walk_config);
  ReportOneSpeedup("random_walk_corpus", "walk_corpus", [&] {
    Rng rng(11);
    benchmark::DoNotOptimize(walker.GenerateAll(&rng));
  });

  std::vector<std::vector<uint32_t>> corpus;
  {
    Rng rng(11);
    for (const std::vector<NodeId>& walk : walker.GenerateAll(&rng)) {
      corpus.emplace_back(walk.begin(), walk.end());
    }
  }
  SkipGramConfig sg_config;
  sg_config.dim = 128;
  sg_config.epochs = 2;
  ReportOneSpeedup("skipgram_sharded", "skipgram_train", [&] {
    Rng rng(12);
    SkipGramTrainer trainer(g.num_nodes(), sg_config);
    trainer.Train(corpus, &rng);
    benchmark::DoNotOptimize(trainer.embeddings());
  });

  Rng data_rng(13);
  ml::TabularDataset data;
  data.x = Matrix::Gaussian(2000, 64, &data_rng);
  data.y.resize(2000);
  for (size_t i = 0; i < data.y.size(); ++i) {
    data.y[i] = data.x(i, 3) + data_rng.NextGaussian(0.0, 0.1);
  }
  ml::RandomForestConfig rf_config;
  rf_config.num_trees = 50;
  ReportOneSpeedup("random_forest_fit", "forest_fit", [&] {
    ml::RandomForest model(rf_config);
    benchmark::DoNotOptimize(model.Fit(data));
  });

  ml::GbdtConfig gbdt_config;
  gbdt_config.num_trees = 50;
  ReportOneSpeedup("gbdt_fit", "gbdt_fit", [&] {
    ml::Gbdt model(gbdt_config);
    benchmark::DoNotOptimize(model.Fit(data));
  });
}

}  // namespace
}  // namespace tg

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  // The speedup section reads its timings from span records; tracing goes
  // back off for the google-benchmark loops so their iterations don't
  // accumulate span buffers. Metrics stay on: stage histograms and pool
  // counters land next to the timings in bench_timings.json.
  // TG_BENCH_SPEEDUPS=0 skips the (slow) speedup section and the timings
  // JSON -- the mode tools/run_checks.sh uses for its kernels smoke run.
  const char* speedups_env = std::getenv("TG_BENCH_SPEEDUPS");
  const bool run_speedups =
      speedups_env == nullptr || std::string_view(speedups_env) != "0";
  tg::obs::SetMetricsEnabled(true);
  if (run_speedups) {
    tg::obs::SetTraceEnabled(true);
    tg::ReportParallelSpeedups();
    tg::obs::SetTraceEnabled(false);
    tg::obs::ResetSpans();
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (run_speedups) tg::bench::WriteTimingsJson();
  return 0;
}
