#include "embedding/skipgram.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <utility>

#include "graph/negative_sampler.h"
#include "numeric/kernels.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace tg {
namespace {

// Stream-id base for per-position Rng forks; far above the per-walk stream
// range used by RandomWalkGenerator::GenerateAll on the same seed.
constexpr uint64_t kPositionStreamBase = 0x5C1B6000000ULL;

// One epoch's token positions in shuffled-walk order: (walk index, offset).
std::vector<std::pair<uint32_t, uint32_t>> FlattenPositions(
    const std::vector<std::vector<uint32_t>>& corpus,
    const std::vector<size_t>& order) {
  std::vector<std::pair<uint32_t, uint32_t>> positions;
  size_t total = 0;
  for (const auto& walk : corpus) total += walk.size();
  positions.reserve(total);
  for (size_t wi : order) {
    for (size_t pos = 0; pos < corpus[wi].size(); ++pos) {
      positions.emplace_back(static_cast<uint32_t>(wi),
                             static_cast<uint32_t>(pos));
    }
  }
  return positions;
}

// Prefetches the head of an embedding row; the hardware streamer follows the
// rest of the (64B-aligned, contiguous) row once the first lines are inbound.
inline void PrefetchRow(const double* row, size_t dim) {
  __builtin_prefetch(row, /*rw=*/1, /*locality=*/2);
  if (dim > 8) __builtin_prefetch(row + 8, /*rw=*/1, /*locality=*/2);
}

// Per-shard buffers for UpdateOnePosition, reused across positions.
struct ContextScratch {
  ContextScratch(size_t dim, int negatives)
      : center_grad(dim),
        labels(1 + static_cast<size_t>(std::max(negatives, 0)), 0.0) {
    labels[0] = 1.0;
    ids.reserve(labels.size());
    rows.reserve(labels.size());
  }
  std::vector<double> center_grad;
  std::vector<uint32_t> ids;    // the context word, then its negatives
  std::vector<double*> rows;    // output rows of `ids`
  std::vector<double> labels;   // 1 for the context word, 0 for negatives
};

// Online SGD update for one token position against (input, output): sample a
// context radius, then for each context word train the positive pair plus
// `negatives` negative samples in word2vec order, applying the center
// gradient once the context's pairs are done. The pair math lives in
// kernels::FusedContextUpdate. All randomness comes from `prng`, which
// callers fork off the position's global index. `touched_in` / `touched_out`
// flag the input/output rows this position wrote, feeding the dirty-row
// merge.
void UpdateOnePosition(const std::vector<uint32_t>& walk, uint32_t pos,
                       double lr, int window, int negatives,
                       const UnigramNegativeSampler& sampler, Rng* prng,
                       size_t dim, Matrix* input, Matrix* output,
                       ContextScratch* scratch, uint8_t* touched_in,
                       uint8_t* touched_out) {
  const int radius =
      1 + static_cast<int>(prng->NextBelow(static_cast<uint64_t>(window)));
  const uint32_t center = walk[pos];
  const size_t lo_ctx = pos >= static_cast<uint32_t>(radius)
                            ? pos - static_cast<uint32_t>(radius)
                            : 0;
  const size_t hi_ctx =
      std::min(walk.size(),
               static_cast<size_t>(pos) + static_cast<size_t>(radius) + 1);
  double* w = input->RowPtr(center);
  double* center_grad = scratch->center_grad.data();
  std::vector<uint32_t>& ids = scratch->ids;
  std::vector<double*>& rows = scratch->rows;
  touched_in[center] = 1;
  for (size_t ctx_pos = lo_ctx; ctx_pos < hi_ctx; ++ctx_pos) {
    if (ctx_pos == pos) continue;
    std::fill(scratch->center_grad.begin(), scratch->center_grad.end(), 0.0);
    // Draw this context's negatives before any update. Training a pair
    // consumes no randomness, so the Rng stream -- and every result -- is
    // the same as drawing them pair by pair, while the output rows can be
    // prefetched ahead of the updates. PrefetchNext additionally hides the
    // alias-table entry miss of draw k+1 under draw k.
    ids.clear();
    ids.push_back(walk[ctx_pos]);
    sampler.PrefetchNext(*prng);
    for (int k = 0; k < negatives; ++k) {
      const uint32_t neg = static_cast<uint32_t>(sampler.Sample(prng));
      sampler.PrefetchNext(*prng);
      if (neg == walk[ctx_pos] || neg == center) continue;
      ids.push_back(neg);
    }
    rows.clear();
    for (uint32_t id : ids) {
      rows.push_back(output->RowPtr(id));
      touched_out[id] = 1;
    }
    for (size_t t = 1; t < rows.size(); ++t) PrefetchRow(rows[t], dim);
    // One kernel call per run of distinct rows: a negative drawn twice
    // starts a new run, so its second dot sees its first update.
    size_t run = 0;
    for (size_t t = 1; t < ids.size(); ++t) {
      if (std::find(ids.begin() + run, ids.begin() + t, ids[t]) !=
          ids.begin() + t) {
        kernels::FusedContextUpdate(w, rows.data() + run,
                                    scratch->labels.data() + run, t - run,
                                    center_grad, dim, lr);
        run = t;
      }
    }
    kernels::FusedContextUpdate(w, rows.data() + run,
                                scratch->labels.data() + run, ids.size() - run,
                                center_grad, dim, lr);
    kernels::Add(w, center_grad, dim);
  }
}

}  // namespace

// Shared sampling state for one Train call. Every position derives its
// learning rate from its global index and its randomness (window radius,
// negative draws) from an Rng forked off that index, so results do not
// depend on which thread processes which position.
struct SkipGramTrainer::PairStream {
  const UnigramNegativeSampler* sampler = nullptr;
  double lr0 = 0.0;
  double lr_min = 0.0;
  size_t total_work = 0;
  int window = 1;
  int negatives = 0;

  double LrAt(size_t global_position) const {
    const double progress = static_cast<double>(global_position) /
                            static_cast<double>(total_work);
    return std::max(lr_min, lr0 * (1.0 - progress));
  }
};

SkipGramTrainer::SkipGramTrainer(size_t vocab_size,
                                 const SkipGramConfig& config)
    : vocab_size_(vocab_size), config_(config) {
  TG_CHECK_GT(vocab_size, 0u);
  TG_CHECK_GT(config.dim, 0u);
  // word2vec-style init: inputs small uniform, outputs zero.
  Rng init_rng(0x5EEDF00DULL);
  const double bound = 0.5 / static_cast<double>(config.dim);
  input_ = Matrix::Uniform(vocab_size, config.dim, &init_rng, -bound, bound);
  output_ = Matrix(vocab_size, config.dim);
}

void SkipGramTrainer::Train(const std::vector<std::vector<uint32_t>>& corpus,
                            Rng* rng) {
  TG_TRACE_SPAN("skipgram_train");
  // Token frequencies drive the negative-sampling distribution.
  std::vector<double> freqs(vocab_size_, 1.0);  // +1 smoothing
  size_t total_tokens = 0;
  for (const auto& walk : corpus) {
    total_tokens += walk.size();
    for (uint32_t tok : walk) {
      TG_CHECK_LT(tok, vocab_size_);
      freqs[tok] += 1.0;
    }
  }
  if (total_tokens == 0) return;
  // The alias table is built exactly once per Train call and shared by every
  // epoch/shard (tests/kernels_test.cc pins this via the counter).
  static obs::Counter& sampler_builds =
      obs::MetricsRegistry::Instance().GetCounter("skipgram.sampler_builds");
  UnigramNegativeSampler sampler(freqs, config_.sampling_power);
  sampler_builds.Increment();

  PairStream stream;
  stream.sampler = &sampler;
  stream.lr0 = config_.initial_lr;
  stream.lr_min = config_.initial_lr * config_.min_lr_fraction;
  stream.total_work = total_tokens * static_cast<size_t>(config_.epochs);
  stream.window = config_.window;
  stream.negatives = config_.negatives;

  TrainSharded(corpus, stream, rng);
}

void SkipGramTrainer::TrainSharded(
    const std::vector<std::vector<uint32_t>>& corpus, const PairStream& stream,
    Rng* rng) {
  const size_t dim = config_.dim;
  std::vector<size_t> order(corpus.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;

  // Replica and dirty-flag storage persists across epochs (re-copied from
  // the shared parameters each epoch without reallocating).
  std::vector<Matrix> rep_in;
  std::vector<Matrix> rep_out;
  std::vector<std::vector<uint8_t>> touched_in;
  std::vector<std::vector<uint8_t>> touched_out;

  size_t epoch_base = 0;
  for (int epoch = 0; epoch < config_.epochs; ++epoch) {
    TG_TRACE_SPAN("skipgram_epoch");
    rng->Shuffle(&order);
    const auto positions = FlattenPositions(corpus, order);
    if (positions.empty()) continue;

    // Contiguous position blocks, one per shard; the count is clamped by
    // the data size but NEVER by the thread count (determinism contract).
    const size_t want = std::max<size_t>(1, config_.num_shards);
    const size_t block =
        (positions.size() + want - 1) / std::min(want, positions.size());
    const size_t shards = (positions.size() + block - 1) / block;

    // Each shard trains online on its own replica of the parameters.
    {
      TG_TRACE_SPAN("skipgram_replicate");
      rep_in.resize(shards);
      rep_out.resize(shards);
      touched_in.resize(shards);
      touched_out.resize(shards);
      for (size_t s = 0; s < shards; ++s) {
        rep_in[s] = input_;
        rep_out[s] = output_;
        touched_in[s].assign(vocab_size_, 0);
        touched_out[s].assign(vocab_size_, 0);
      }
    }
    ParallelFor(0, shards, 1, [&](size_t s0, size_t s1, size_t /*chunk*/) {
      TG_TRACE_SPAN("skipgram_shard_train");
      ContextScratch scratch(dim, stream.negatives);
      for (size_t s = s0; s < s1; ++s) {
        const size_t lo = s * block;
        const size_t hi = std::min(positions.size(), lo + block);
        for (size_t i = lo; i < hi; ++i) {
          const auto& [wi, pos] = positions[i];
          Rng prng = rng->Fork(kPositionStreamBase + epoch_base + i);
          UpdateOnePosition(corpus[wi], pos, stream.LrAt(epoch_base + i),
                            stream.window, stream.negatives, *stream.sampler,
                            &prng, dim, &rep_in[s], &rep_out[s], &scratch,
                            touched_in[s].data(), touched_out[s].data());
        }
      }
    });

    MergeShards(rep_in, rep_out, touched_in, touched_out);
    epoch_base += positions.size();
  }
}

// Parameter mixing at the epoch boundary: overwrite the shared parameters
// with the replica average, accumulating in shard order (fixed
// floating-point order). Rows no shard touched are exact copies of the base
// row in every replica, so their cross-replica average collapses to
// kernels::ReplicatedMean of the base value -- bit-identical to averaging
// all S replicas (tests/kernels_test.cc pins the result) without reading S
// replicas' worth of memory.
void SkipGramTrainer::MergeShards(
    const std::vector<Matrix>& rep_in, const std::vector<Matrix>& rep_out,
    const std::vector<std::vector<uint8_t>>& touched_in,
    const std::vector<std::vector<uint8_t>>& touched_out) {
  TG_TRACE_SPAN("skipgram_merge");
  const size_t dim = config_.dim;
  const size_t shards = rep_in.size();
  const double inv = 1.0 / static_cast<double>(shards);
  static obs::Counter& dirty_rows = obs::MetricsRegistry::Instance().GetCounter(
      "skipgram.merge.dirty_rows");
  static obs::Counter& clean_rows = obs::MetricsRegistry::Instance().GetCounter(
      "skipgram.merge.clean_rows");

  // Cache-blocked: rows are merged in blocks, and within a block each shard
  // replica is walked in one sequential pass rather than re-touched once per
  // row -- S short sequential streams the hardware prefetcher can follow
  // instead of S scattered reads per row. The per-row arithmetic sequence
  // (copy rep[0], add reps 1..S-1 in shard order, scale) is unchanged, so
  // the merge stays bit-identical to the unblocked form; rows merely
  // interleave, and no row reads another row's data.
  constexpr size_t kMergeRowBlock = 64;
  std::vector<uint8_t> row_dirty(kMergeRowBlock);
  const auto merge_matrix = [&](Matrix* base, const std::vector<Matrix>& rep,
                                const std::vector<std::vector<uint8_t>>&
                                    touched) {
    size_t dirty = 0;
    for (size_t r0 = 0; r0 < vocab_size_; r0 += kMergeRowBlock) {
      const size_t r1 = std::min(vocab_size_, r0 + kMergeRowBlock);
      for (size_t r = r0; r < r1; ++r) {
        bool is_dirty = false;
        for (size_t s = 0; s < shards && !is_dirty; ++s) {
          is_dirty = touched[s][r] != 0;
        }
        row_dirty[r - r0] = is_dirty ? 1 : 0;
        dirty += is_dirty ? 1 : 0;
      }
      for (size_t r = r0; r < r1; ++r) {
        if (row_dirty[r - r0]) {
          std::memcpy(base->RowPtr(r), rep[0].RowPtr(r),
                      dim * sizeof(double));
        } else {
          kernels::ReplicatedMean(base->RowPtr(r), shards, inv, dim);
        }
      }
      for (size_t s = 1; s < shards; ++s) {
        for (size_t r = r0; r < r1; ++r) {
          if (row_dirty[r - r0]) {
            kernels::Add(base->RowPtr(r), rep[s].RowPtr(r), dim);
          }
        }
      }
      for (size_t r = r0; r < r1; ++r) {
        if (row_dirty[r - r0]) kernels::Scale(base->RowPtr(r), inv, dim);
      }
    }
    dirty_rows.Increment(dirty);
    clean_rows.Increment(vocab_size_ - dirty);
  };
  merge_matrix(&input_, rep_in, touched_in);
  merge_matrix(&output_, rep_out, touched_out);
}

double SkipGramTrainer::PairProbability(uint32_t center,
                                        uint32_t context) const {
  TG_CHECK_LT(center, vocab_size_);
  TG_CHECK_LT(context, vocab_size_);
  // Inference-quality score: ExactSigmoid, where training uses the table.
  return kernels::ExactSigmoid(kernels::Dot(
      input_.RowPtr(center), output_.RowPtr(context), config_.dim));
}

}  // namespace tg
