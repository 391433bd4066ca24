#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/evaluation.h"
#include "core/pipeline.h"
#include "core/recommender.h"
#include "core/sweep_checkpoint.h"
#include "ml/tree_engine.h"
#include "numeric/kernel_backend.h"
#include "util/check.h"
#include "util/fault.h"

namespace tg::core {
namespace {

// A deliberately small zoo + cheap learner settings so the end-to-end tests
// stay fast; statistical assertions are kept loose accordingly.
class PipelineTest : public ::testing::Test {
 protected:
  PipelineTest() {
    zoo::ModelZooConfig config;
    config.catalog.num_image_models = 48;
    config.catalog.num_text_models = 24;
    config.world.max_samples_per_dataset = 80;
    zoo_ = std::make_unique<zoo::ModelZoo>(config);
    pipeline_ = std::make_unique<Pipeline>(zoo_.get(),
                                           zoo::Modality::kImage);
    target_ = zoo_->EvaluationTargets(zoo::Modality::kImage)[2];
  }

  PipelineConfig FastConfig(Strategy strategy) {
    PipelineConfig config;
    config.strategy = strategy;
    config.node2vec.walk.walks_per_node = 6;
    config.node2vec.walk.walk_length = 15;
    config.node2vec.skipgram.dim = 24;
    config.node2vec.skipgram.epochs = 2;
    config.sage.hidden_dim = 16;
    config.sage.output_dim = 16;
    config.gat.hidden_dim = 8;
    config.gat.output_dim = 16;
    config.gat.num_heads = 1;
    config.link_prediction.epochs = 30;
    config.predictor.gbdt.num_trees = 60;
    config.predictor.random_forest.num_trees = 30;
    return config;
  }

  std::unique_ptr<zoo::ModelZoo> zoo_;
  std::unique_ptr<Pipeline> pipeline_;
  size_t target_ = 0;
};

TEST_F(PipelineTest, MetadataBaselineProducesFiniteCorrelation) {
  Strategy lr{PredictorKind::kLinearRegression, GraphLearner::kNone,
              FeatureSet::kMetadataOnly};
  TargetEvaluation eval = pipeline_->EvaluateTarget(FastConfig(lr), target_);
  EXPECT_EQ(eval.predicted.size(), 48u);
  EXPECT_EQ(eval.actual.size(), 48u);
  EXPECT_TRUE(std::isfinite(eval.pearson));
  EXPECT_GE(eval.pearson, -1.0);
  EXPECT_LE(eval.pearson, 1.0);
}

TEST_F(PipelineTest, GraphStrategyAchievesPositiveCorrelation) {
  Strategy tg{PredictorKind::kXgboost, GraphLearner::kNode2Vec,
              FeatureSet::kAll};
  TargetEvaluation eval = pipeline_->EvaluateTarget(FastConfig(tg), target_);
  EXPECT_GT(eval.pearson, 0.2);
}

TEST_F(PipelineTest, EmbeddingsCachedAcrossPredictors) {
  Strategy a{PredictorKind::kLinearRegression, GraphLearner::kNode2Vec,
             FeatureSet::kAll};
  Strategy b{PredictorKind::kXgboost, GraphLearner::kNode2Vec,
             FeatureSet::kAll};
  PipelineConfig config_a = FastConfig(a);
  PipelineConfig config_b = FastConfig(b);
  config_a.graph.exclude_target = target_;
  config_b.graph.exclude_target = target_;
  BuiltGraph built =
      BuildModelZooGraph(zoo_.get(), zoo::Modality::kImage, config_a.graph);
  const Matrix& emb_a = pipeline_->EmbeddingsFor(config_a, built);
  const Matrix& emb_b = pipeline_->EmbeddingsFor(config_b, built);
  EXPECT_EQ(&emb_a, &emb_b);  // same cache entry
}

TEST_F(PipelineTest, DifferentTargetsGetDifferentCacheEntries) {
  Strategy tg{PredictorKind::kLinearRegression, GraphLearner::kNode2Vec,
              FeatureSet::kAll};
  PipelineConfig c1 = FastConfig(tg);
  PipelineConfig c2 = FastConfig(tg);
  const auto targets = zoo_->EvaluationTargets(zoo::Modality::kImage);
  c1.graph.exclude_target = targets[0];
  c2.graph.exclude_target = targets[1];
  BuiltGraph b1 =
      BuildModelZooGraph(zoo_.get(), zoo::Modality::kImage, c1.graph);
  BuiltGraph b2 =
      BuildModelZooGraph(zoo_.get(), zoo::Modality::kImage, c2.graph);
  const Matrix& e1 = pipeline_->EmbeddingsFor(c1, b1);
  const Matrix& e2 = pipeline_->EmbeddingsFor(c2, b2);
  EXPECT_NE(&e1, &e2);
}

// A reused Pipeline must not serve embeddings trained under different GNN
// settings, and a checkpoint from such a sweep must not resume.
TEST_F(PipelineTest, LinkPredictionEpochsSeparateCacheEntriesAndFingerprints) {
  Strategy tg{PredictorKind::kLinearRegression, GraphLearner::kGraphSage,
              FeatureSet::kAll};
  PipelineConfig c1 = FastConfig(tg);
  c1.graph.exclude_target = target_;
  PipelineConfig c2 = c1;
  c2.link_prediction.epochs = c1.link_prediction.epochs + 1;
  BuiltGraph built =
      BuildModelZooGraph(zoo_.get(), zoo::Modality::kImage, c1.graph);
  const Matrix& e1 = pipeline_->EmbeddingsFor(c1, built);
  const Matrix& e2 = pipeline_->EmbeddingsFor(c2, built);
  EXPECT_NE(&e1, &e2);
  EXPECT_EQ(&pipeline_->EmbeddingsFor(c1, built), &e1);
  EXPECT_NE(SweepFingerprint(c1, zoo::Modality::kImage),
            SweepFingerprint(c2, zoo::Modality::kImage));
}

// Every embedding input changes the cache key, and every predictor setting
// changes the sweep fingerprint.
TEST(PipelineConfigKeyTest, EveryFieldChangesTheKeys) {
  using Mutation = void (*)(PipelineConfig*);
  const Mutation embedding_fields[] = {
      [](PipelineConfig* c) { c->strategy.learner = GraphLearner::kGat; },
      [](PipelineConfig* c) { c->graph.exclude_target = 3; },
      [](PipelineConfig* c) { c->graph.accuracy_threshold = 0.4; },
      [](PipelineConfig* c) { c->graph.transferability_threshold = 0.4; },
      [](PipelineConfig* c) { c->graph.negative_threshold = 0.4; },
      [](PipelineConfig* c) { c->graph.include_accuracy_edges = false; },
      [](PipelineConfig* c) { c->graph.include_transferability_edges = false; },
      [](PipelineConfig* c) { c->graph.history_ratio = 0.5; },
      [](PipelineConfig* c) {
        c->graph.history_method = zoo::FineTuneMethod::kLora;
      },
      [](PipelineConfig* c) {
        c->graph.representation = zoo::DatasetRepresentation::kTask2Vec;
      },
      [](PipelineConfig* c) { c->graph.seed = 6; },
      [](PipelineConfig* c) { c->seed = 1; },
      [](PipelineConfig* c) { c->node_feature_pca_dim = 8; },
      [](PipelineConfig* c) { c->node2vec.walk.walks_per_node = 3; },
      [](PipelineConfig* c) { c->node2vec.walk.walk_length = 3; },
      [](PipelineConfig* c) { c->node2vec.walk.p = 0.5; },
      [](PipelineConfig* c) { c->node2vec.walk.q = 2.0; },
      [](PipelineConfig* c) { c->node2vec.walk.extended = true; },
      [](PipelineConfig* c) { c->node2vec.skipgram.dim = 8; },
      [](PipelineConfig* c) { c->node2vec.skipgram.window = 2; },
      [](PipelineConfig* c) { c->node2vec.skipgram.negatives = 2; },
      [](PipelineConfig* c) { c->node2vec.skipgram.epochs = 2; },
      [](PipelineConfig* c) { c->node2vec.skipgram.initial_lr = 0.0250001; },
      [](PipelineConfig* c) { c->node2vec.skipgram.min_lr_fraction = 1e-4; },
      [](PipelineConfig* c) { c->node2vec.skipgram.sampling_power = 0.5; },
      [](PipelineConfig* c) { c->node2vec.skipgram.num_shards = 2; },
      [](PipelineConfig* c) { c->sage.hidden_dim = 8; },
      [](PipelineConfig* c) { c->sage.output_dim = 8; },
      [](PipelineConfig* c) { c->sage.num_layers = 1; },
      [](PipelineConfig* c) { c->sage.normalize_output = false; },
      [](PipelineConfig* c) { c->gat.hidden_dim = 8; },
      [](PipelineConfig* c) { c->gat.output_dim = 8; },
      [](PipelineConfig* c) { c->gat.num_layers = 1; },
      [](PipelineConfig* c) { c->gat.num_heads = 1; },
      [](PipelineConfig* c) { c->gat.leaky_relu_slope = 0.1; },
      [](PipelineConfig* c) { c->link_prediction.epochs = 7; },
      [](PipelineConfig* c) { c->link_prediction.learning_rate = 1e-3; },
      [](PipelineConfig* c) { c->link_prediction.weight_decay = 1e-7; },
      [](PipelineConfig* c) {
        c->link_prediction.sampled_negative_ratio = 2.0;
      },
  };
  const Mutation predictor_fields[] = {
      [](PipelineConfig* c) { c->predictor.ridge_lambda = 1e-2; },
      [](PipelineConfig* c) { c->predictor.random_forest.num_trees = 7; },
      [](PipelineConfig* c) { c->predictor.random_forest.tree.max_depth = 2; },
      [](PipelineConfig* c) {
        c->predictor.random_forest.tree.min_samples_leaf = 9;
      },
      [](PipelineConfig* c) {
        c->predictor.random_forest.tree.min_samples_split = 9;
      },
      [](PipelineConfig* c) {
        c->predictor.random_forest.tree.max_features = 3;
      },
      [](PipelineConfig* c) {
        // The engine the default (kAuto) does not resolve to.
        c->predictor.random_forest.tree.engine =
            ml::DefaultTreeEngine() == ml::TreeEngine::kExact
                ? ml::TreeEngineChoice::kHist
                : ml::TreeEngineChoice::kExact;
      },
      [](PipelineConfig* c) { c->predictor.random_forest.tree.max_bins = 9; },
      [](PipelineConfig* c) {
        c->predictor.random_forest.feature_fraction = 0.5;
      },
      [](PipelineConfig* c) { c->predictor.random_forest.seed = 1; },
      [](PipelineConfig* c) { c->predictor.gbdt.num_trees = 7; },
      [](PipelineConfig* c) { c->predictor.gbdt.max_depth = 2; },
      [](PipelineConfig* c) { c->predictor.gbdt.learning_rate = 0.2; },
      [](PipelineConfig* c) { c->predictor.gbdt.lambda = 2.0; },
      [](PipelineConfig* c) { c->predictor.gbdt.gamma = 0.1; },
      [](PipelineConfig* c) { c->predictor.gbdt.min_child_weight = 2.0; },
      [](PipelineConfig* c) { c->predictor.gbdt.subsample = 0.5; },
      [](PipelineConfig* c) { c->predictor.gbdt.max_bins = 9; },
      [](PipelineConfig* c) { c->predictor.gbdt.seed = 1; },
  };
  const PipelineConfig base;
  const std::string base_key = EmbeddingConfigKey(base);
  const std::string base_fp = SweepFingerprint(base, zoo::Modality::kImage);
  EXPECT_EQ(EmbeddingConfigKey(PipelineConfig()), base_key);
  int index = 0;
  for (Mutation mutate : embedding_fields) {
    PipelineConfig c;
    mutate(&c);
    EXPECT_NE(EmbeddingConfigKey(c), base_key) << "embedding field " << index;
    EXPECT_NE(SweepFingerprint(c, zoo::Modality::kImage), base_fp)
        << "embedding field " << index;
    ++index;
  }
  index = 0;
  for (Mutation mutate : predictor_fields) {
    PipelineConfig c;
    mutate(&c);
    EXPECT_EQ(EmbeddingConfigKey(c), base_key) << "predictor field " << index;
    EXPECT_NE(SweepFingerprint(c, zoo::Modality::kImage), base_fp)
        << "predictor field " << index;
    ++index;
  }
}

// A checkpoint, shard or manifest written under one numeric setting must not
// resume or merge under another, so the fingerprint records the tree engine
// TG_TREE resolves to and the active kernel backend -- not the unresolved
// kAuto choice, which reads the same under every setting.
TEST(SweepFingerprintTest, CoversResolvedTreeEngine) {
  const ml::TreeEngine saved = ml::DefaultTreeEngine();
  const PipelineConfig config;
  ml::SetDefaultTreeEngine(ml::TreeEngine::kExact);
  const std::string exact = SweepFingerprint(config, zoo::Modality::kImage);
  ml::SetDefaultTreeEngine(ml::TreeEngine::kHist);
  const std::string hist = SweepFingerprint(config, zoo::Modality::kImage);
  ml::SetDefaultTreeEngine(saved);
  EXPECT_NE(exact, hist);
}

TEST(SweepFingerprintTest, CoversKernelBackend) {
  const std::vector<std::string> names = kernels::AvailableBackendNames();
  if (names.size() < 2) GTEST_SKIP() << "only the scalar backend exists";
  const std::string saved = kernels::ActiveBackendName();
  const PipelineConfig config;
  EXPECT_TRUE(kernels::SetActiveBackend("scalar"));
  const std::string scalar = SweepFingerprint(config, zoo::Modality::kImage);
  EXPECT_TRUE(kernels::SetActiveBackend(names.back()));
  const std::string widest = SweepFingerprint(config, zoo::Modality::kImage);
  EXPECT_TRUE(kernels::SetActiveBackend(saved));
  EXPECT_NE(scalar, widest) << names.back();
}

TEST_F(PipelineTest, GraphSageLearnerRuns) {
  Strategy tg{PredictorKind::kLinearRegression, GraphLearner::kGraphSage,
              FeatureSet::kAll};
  TargetEvaluation eval = pipeline_->EvaluateTarget(FastConfig(tg), target_);
  EXPECT_TRUE(std::isfinite(eval.pearson));
}

TEST_F(PipelineTest, PcaReducedNodeFeaturesRun) {
  Strategy tg{PredictorKind::kLinearRegression, GraphLearner::kGraphSage,
              FeatureSet::kAll};
  PipelineConfig config = FastConfig(tg);
  config.node_feature_pca_dim = 16;
  TargetEvaluation eval = pipeline_->EvaluateTarget(config, target_);
  EXPECT_TRUE(std::isfinite(eval.pearson));
}

TEST_F(PipelineTest, GatLearnerRuns) {
  Strategy tg{PredictorKind::kLinearRegression, GraphLearner::kGat,
              FeatureSet::kAll};
  TargetEvaluation eval = pipeline_->EvaluateTarget(FastConfig(tg), target_);
  EXPECT_TRUE(std::isfinite(eval.pearson));
}

TEST_F(PipelineTest, TopKMeanAccuracy) {
  TargetEvaluation eval;
  eval.predicted = {0.9, 0.1, 0.5, 0.8};
  eval.actual = {0.7, 0.2, 0.4, 0.6};
  // Top-2 by prediction: indices 0 and 3 -> mean(0.7, 0.6).
  EXPECT_NEAR(eval.TopKMeanAccuracy(2), 0.65, 1e-12);
  // k larger than the pool falls back to all models.
  EXPECT_NEAR(eval.TopKMeanAccuracy(10), (0.7 + 0.2 + 0.4 + 0.6) / 4.0,
              1e-12);
}

TEST_F(PipelineTest, SweepCoversEvaluationSet) {
  Strategy lr{PredictorKind::kLinearRegression, GraphLearner::kNone,
              FeatureSet::kMetadataOnly};
  const SweepResult result =
      pipeline_->EvaluateAllTargetsResumable(FastConfig(lr), SweepOptions{});
  EXPECT_TRUE(result.complete);
  EXPECT_EQ(result.evaluations.size(), 8u);
  StrategySummary summary = Summarize("LR", result.evaluations);
  EXPECT_EQ(summary.per_target_pearson.size(), 8u);
  EXPECT_TRUE(std::isfinite(summary.mean_pearson));
}

// A paper figure never mixes in a degraded target: EvaluateStrategy aborts
// on the first failed one and names its error.
TEST_F(PipelineTest, EvaluateStrategyAbortsOnAFailedTarget) {
  // The sweep fans out over the thread pool, which a forked child lacks.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Strategy lr{PredictorKind::kLinearRegression, GraphLearner::kNone,
              FeatureSet::kMetadataOnly};
  const PipelineConfig config = FastConfig(lr);
  EXPECT_DEATH(
      {
        TG_CHECK(fault::InstallSpec("pipeline.target=hit:2").ok());
        EvaluateStrategy(pipeline_.get(), config);
      },
      "TG_CHECK failed.*injected fault at pipeline.target");
}

TEST_F(PipelineTest, LoraEvaluationMethodChangesActuals) {
  Strategy lr{PredictorKind::kLinearRegression, GraphLearner::kNone,
              FeatureSet::kMetadataOnly};
  PipelineConfig full = FastConfig(lr);
  PipelineConfig lora = FastConfig(lr);
  lora.evaluation_method = zoo::FineTuneMethod::kLora;
  TargetEvaluation e_full = pipeline_->EvaluateTarget(full, target_);
  TargetEvaluation e_lora = pipeline_->EvaluateTarget(lora, target_);
  bool any_different = false;
  for (size_t i = 0; i < e_full.actual.size(); ++i) {
    if (e_full.actual[i] != e_lora.actual[i]) any_different = true;
  }
  EXPECT_TRUE(any_different);
  // No leakage: the evaluation ground truth must not influence the
  // predictions themselves.
  for (size_t i = 0; i < e_full.predicted.size(); ++i) {
    EXPECT_DOUBLE_EQ(e_full.predicted[i], e_lora.predicted[i]);
  }
}

TEST_F(PipelineTest, FullyDeterministicAcrossPipelineInstances) {
  Strategy tg{PredictorKind::kXgboost, GraphLearner::kNode2Vec,
              FeatureSet::kAll};
  PipelineConfig config = FastConfig(tg);
  Pipeline second(zoo_.get(), zoo::Modality::kImage);
  TargetEvaluation a = pipeline_->EvaluateTarget(config, target_);
  TargetEvaluation b = second.EvaluateTarget(config, target_);
  ASSERT_EQ(a.predicted.size(), b.predicted.size());
  for (size_t i = 0; i < a.predicted.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.predicted[i], b.predicted[i]);
  }
  EXPECT_DOUBLE_EQ(a.pearson, b.pearson);
}

TEST_F(PipelineTest, GraphOnlyFeatureSetRuns) {
  Strategy tg{PredictorKind::kLinearRegression, GraphLearner::kNode2Vec,
              FeatureSet::kGraphOnly};
  TargetEvaluation eval = pipeline_->EvaluateTarget(FastConfig(tg), target_);
  EXPECT_TRUE(std::isfinite(eval.pearson));
}

TEST_F(PipelineTest, HistoryRatioSubsamplesTrainingTable) {
  // With a tiny ratio the predictions must change (different training set).
  Strategy lr{PredictorKind::kLinearRegression, GraphLearner::kNone,
              FeatureSet::kMetadataOnly};
  PipelineConfig full = FastConfig(lr);
  PipelineConfig third = FastConfig(lr);
  third.graph.history_ratio = 0.3;
  TargetEvaluation a = pipeline_->EvaluateTarget(full, target_);
  TargetEvaluation b = pipeline_->EvaluateTarget(third, target_);
  bool any_different = false;
  for (size_t i = 0; i < a.predicted.size(); ++i) {
    if (a.predicted[i] != b.predicted[i]) any_different = true;
  }
  EXPECT_TRUE(any_different);
}

TEST_F(PipelineTest, AutoPredictorResolvesAndRuns) {
  Strategy automatic{PredictorKind::kAuto, GraphLearner::kNone,
                     FeatureSet::kMetadataOnly};
  PipelineConfig config = FastConfig(automatic);
  config.predictor.gbdt.num_trees = 30;
  config.predictor.random_forest.num_trees = 15;
  TargetEvaluation eval = pipeline_->EvaluateTarget(config, target_);
  EXPECT_TRUE(std::isfinite(eval.pearson));
}

TEST_F(PipelineTest, NoHistoryColdStartRuns) {
  Strategy tg{PredictorKind::kLinearRegression, GraphLearner::kNode2Vec,
              FeatureSet::kAll};
  PipelineConfig config = FastConfig(tg);
  config.graph.include_accuracy_edges = false;
  config.use_transferability_labels = true;
  TargetEvaluation eval = pipeline_->EvaluateTarget(config, target_);
  EXPECT_TRUE(std::isfinite(eval.pearson));
}

// The repo's headline claim as a regression test: graph features improve
// over the metadata-only baseline on average (paper Fig. 7), even with the
// reduced test-size zoo and learner settings.
TEST_F(PipelineTest, GraphFeaturesBeatMetadataBaselineOnAverage) {
  Strategy lr{PredictorKind::kLinearRegression, GraphLearner::kNone,
              FeatureSet::kMetadataOnly};
  Strategy tg{PredictorKind::kLinearRegression, GraphLearner::kNode2Vec,
              FeatureSet::kAll};
  const auto targets = zoo_->EvaluationTargets(zoo::Modality::kImage);
  double lr_total = 0.0;
  double tg_total = 0.0;
  // Three targets keep the test fast; the margin holds on all of them in
  // the full benches.
  for (size_t i = 0; i < 3; ++i) {
    lr_total += pipeline_->EvaluateTarget(FastConfig(lr), targets[i]).pearson;
    tg_total += pipeline_->EvaluateTarget(FastConfig(tg), targets[i]).pearson;
  }
  EXPECT_GT(tg_total / 3.0, lr_total / 3.0);
}

TEST_F(PipelineTest, HistTreeEngineRankingQualityWithinToleranceOfExact) {
  // The TG_TREE=hist engine quantizes split thresholds; ranking quality on
  // the end-to-end pipeline must stay within a small tolerance of exact
  // mode, not just on synthetic tabular fixtures. Embeddings are cached per
  // (config, target), so both runs rank the same feature table and the diff
  // isolates the tree engine.
  Strategy rf{PredictorKind::kRandomForest, GraphLearner::kNode2Vec,
              FeatureSet::kAll};
  const PipelineConfig config = FastConfig(rf);
  ml::SetDefaultTreeEngine(ml::TreeEngine::kExact);
  TargetEvaluation exact = pipeline_->EvaluateTarget(config, target_);
  ml::SetDefaultTreeEngine(ml::TreeEngine::kHist);
  TargetEvaluation hist = pipeline_->EvaluateTarget(config, target_);
  ml::SetDefaultTreeEngine(ml::TreeEngine::kExact);

  EXPECT_TRUE(std::isfinite(hist.pearson));
  EXPECT_GT(hist.pearson, exact.pearson - 0.15);
  EXPECT_GT(hist.TopKMeanAccuracy(5), exact.TopKMeanAccuracy(5) - 0.1);
}

TEST_F(PipelineTest, RecommenderReturnsSortedTopModels) {
  Strategy tg{PredictorKind::kLinearRegression, GraphLearner::kNode2Vec,
              FeatureSet::kAll};
  std::vector<Recommendation> recs =
      RecommendModels(pipeline_.get(), FastConfig(tg), target_, 5);
  ASSERT_EQ(recs.size(), 5u);
  for (size_t i = 1; i < recs.size(); ++i) {
    EXPECT_GE(recs[i - 1].predicted_score, recs[i].predicted_score);
  }
  for (const Recommendation& rec : recs) {
    EXPECT_FALSE(rec.model_name.empty());
  }
}

}  // namespace
}  // namespace tg::core
