// Skip-gram with negative sampling (Mikolov et al. 2013) over walk corpora.
// Random-walk node embedding methods treat walks as sentences and nodes as
// words; the trained input embeddings are the node representations.
//
// Training is deterministic parameter-mixing SGD (docs/threading.md). Each
// epoch splits the shuffled position stream into a fixed number of shards;
// every shard trains online on its own replica of the parameters (each
// position's randomness forked from its global index), and the replicas are
// averaged in shard order at the epoch boundary -- only over the rows some
// shard actually touched (dirty-row merge; untouched rows are provably equal
// across replicas, see docs/performance.md). The shard count never depends
// on the thread count, so results are bit-identical for any TG_THREADS
// value.
//
// Dense inner loops (dot, fused pair update, replica merge) run through the
// vectorized kernel layer in numeric/kernels.h, which also supplies the
// tabulated training sigmoid.
#ifndef TG_EMBEDDING_SKIPGRAM_H_
#define TG_EMBEDDING_SKIPGRAM_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "numeric/matrix.h"
#include "util/rng.h"

namespace tg {

struct SkipGramConfig {
  size_t dim = 128;
  int window = 5;        // maximum context radius; actual radius is sampled
  int negatives = 5;     // negative samples per positive pair
  int epochs = 4;
  double initial_lr = 0.025;
  double min_lr_fraction = 1e-3;  // lr decays linearly to initial*fraction
  double sampling_power = 0.75;   // unigram exponent for negatives
  // Parameter replicas trained per epoch (clamped to the number of token
  // positions). Part of the determinism contract -- never derived from the
  // thread count.
  size_t num_shards = 8;
};

class SkipGramTrainer {
 public:
  // vocab_size must exceed every token id in the corpus.
  SkipGramTrainer(size_t vocab_size, const SkipGramConfig& config);

  // Trains on the corpus (list of token sequences). The result is
  // deterministic for a fixed (corpus, seed) at any thread count.
  void Train(const std::vector<std::vector<uint32_t>>& corpus, Rng* rng);

  // Input ("center") embeddings: vocab_size x dim.
  const Matrix& embeddings() const { return input_; }

  // Model score for a (center, context) pair: sigmoid(dot).
  double PairProbability(uint32_t center, uint32_t context) const;

 private:
  struct PairStream;  // per-position sampling state (defined in the .cc)

  void TrainSharded(const std::vector<std::vector<uint32_t>>& corpus,
                    const PairStream& stream, Rng* rng);
  // Epoch-boundary parameter mixing over the rows some shard touched; the
  // rest take kernels::ReplicatedMean of the base value.
  void MergeShards(const std::vector<Matrix>& rep_in,
                   const std::vector<Matrix>& rep_out,
                   const std::vector<std::vector<uint8_t>>& touched_in,
                   const std::vector<std::vector<uint8_t>>& touched_out);

  size_t vocab_size_;
  SkipGramConfig config_;
  Matrix input_;
  Matrix output_;
};

}  // namespace tg

#endif  // TG_EMBEDDING_SKIPGRAM_H_
