// Sequence encoders: the abstract Encoder interface, the Transformer
// encoder (the paper's RoBERTa/DistilBERT stand-in), and a fast
// bag-of-embeddings encoder used where the paper trades model size for
// speed (e.g. the DistilBERT blocking configuration, §VI-B).

#ifndef SUDOWOODO_NN_ENCODER_H_
#define SUDOWOODO_NN_ENCODER_H_

#include <functional>
#include <memory>
#include <vector>

#include "augment/cutoff.h"
#include "nn/batch_pack.h"
#include "nn/layers.h"
#include "tensor/tensor.h"

namespace sudowoodo {
class ThreadPool;  // common/thread_pool.h
}

namespace sudowoodo::index {
class EmbeddingCache;  // index/embedding_cache.h
}

namespace sudowoodo::nn {

/// Encodes token-id sequences into fixed-size pooled vectors.
///
/// This is the M_emb of the paper (Definition 1 modulo the final L2
/// normalization, which callers apply). The optional cutoff plan is applied
/// to the token-embedding matrix before the encoder stack, implementing the
/// batch-wise cutoff DA of §IV-A.
class Encoder {
 public:
  virtual ~Encoder() = default;

  /// Returns a [batch.size(), dim()] tensor of pooled representations.
  /// Non-virtual front door: graph-free inference calls (no training, no
  /// cutoff, tape off) route through EncodeInference below - the
  /// workspace-backed, cache-aware serving path - while training/cutoff/
  /// graph calls dispatch to the subclass EncodeBatchImpl. With the tape
  /// on and training off, that graph route encodes row by row in eval
  /// mode: the oracle the batched route is tested against
  /// (tests/batch_encode_test.cc).
  Tensor EncodeBatch(const std::vector<std::vector<int>>& batch,
                     const augment::CutoffPlan* cutoff, bool training);

  /// Graph-free batched inference into caller-owned memory: writes the
  /// pooled vector of batch[i] to rows i of the [batch.size(), dim()]
  /// row-major `out`. Identical floats to EncodeBatch's inference route
  /// (it IS that route). Serves repeated sequences from the embedding
  /// cache when one is attached, and runs the encoder on the per-thread
  /// inference Workspace: with num_threads() <= 1, steady state (shapes
  /// seen before, all hits or cache off) performs zero heap allocations
  /// - see src/tensor/README.md "Workspace lifetime and aliasing rules".
  /// (A threaded fan-out allocates nothing either: at 4 threads, 1,500
  /// rows encode with 0 allocations per call after one warm-up call, for
  /// all three encoders. But any thread may claim any shard, so a
  /// worker's thread-local workspace and GEMM pack buffer still grow the
  /// first time that worker claims a larger shard than it has seen. The
  /// pinned zero-alloc contract is therefore the serial one, which the
  /// allocation-counter tests and the encode_steady_state bench check.)
  /// Not re-entrant: one serving call per encoder at a time (internal
  /// fan-out is fine).
  void EncodeInference(const std::vector<std::vector<int>>& batch,
                       float* out);

  /// All trainable parameters (for the optimizer / serialization).
  virtual std::vector<Tensor> Parameters() const = 0;

  /// Output representation width.
  virtual int dim() const = 0;

  /// Token ids this encoder accepts: [0, vocab_size()). Encoding an id
  /// outside that range is a programmer error (SUDO_CHECK), so untrusted
  /// input must be range-checked first (serving::Server::Validate does).
  virtual int vocab_size() const = 0;

  /// Serving front door used by the dynamic batcher (src/serving): the
  /// EncodeInference route plus per-row L2 normalization (Definition 1),
  /// written straight into the caller's [batch.size(), dim()] buffer.
  /// Normalization is row-local, so each row stays bit-identical to a
  /// single-request encode regardless of how requests were coalesced.
  /// Same re-entrancy rule as EncodeInference.
  void EncodeNormalizedInto(const std::vector<std::vector<int>>& batch,
                            float* out);

  /// Convenience: encode without cutoff in inference mode, L2-normalized
  /// per Definition 1, returning plain row vectors (no autograd graph).
  /// Same floats as EncodeNormalizedInto (it is a copying wrapper).
  std::vector<std::vector<float>> EmbedNormalized(
      const std::vector<std::vector<int>>& batch);

  /// Attaches a content-keyed embedding cache (caller-owned; may be
  /// shared) to the serving path. Staleness is handled here: any
  /// training-mode (or graph-recording) EncodeBatch marks the cache
  /// dirty, and the next serving call clears it before use - cached
  /// vectors therefore always come from the current weights, keeping
  /// cache hits bit-identical to fresh encodes. nullptr detaches.
  void set_embedding_cache(index::EmbeddingCache* cache) { cache_ = cache; }
  index::EmbeddingCache* embedding_cache() const { return cache_; }

  /// Degree of parallelism for *inference-mode* forward passes: the
  /// batched route row-shards its GEMMs and fans attention out per
  /// sequence. Results are bit-identical to serial.
  void set_num_threads(int n) { num_threads_ = n > 0 ? n : 1; }
  int num_threads() const { return num_threads_; }

  /// Degree of parallelism for *training-mode* forwards and backwards:
  /// the batched path row-shards its forward and backward GEMMs and fans
  /// the per-sequence attention subgraphs out across workers; the per-row
  /// path fans whole-row subgraph construction out. Counter-based dropout
  /// (CounterRng) keys masks by logical position rather than draw order,
  /// which is what makes any thread count - and batched vs per-row -
  /// produce bit-identical losses and gradients. 1 = the serial path.
  void set_train_num_threads(int n) { train_num_threads_ = n > 0 ? n : 1; }
  int train_num_threads() const { return train_num_threads_; }

  /// Toggles the padded-pack batched *training* path (on by default).
  /// Off = the per-row training oracle the loss-trajectory equivalence
  /// battery in tests/contrastive_test.cc compares against.
  void set_batched_training(bool on) { batched_training_ = on; }
  bool batched_training() const { return batched_training_; }

  /// Pins the (epoch, step) coordinates of the counter-based dropout
  /// streams for subsequent training-mode EncodeBatch calls, and resets
  /// the per-step view counter (each training call consumes one view: the
  /// pretrainer's original view is 0 and its augmented view is 1). Masks
  /// are then a pure function of (seed, epoch, step, view, row, site,
  /// element) - see src/tensor/README.md. Callers that never pin (the
  /// fine-tuning loops) get an auto-advancing stream: deterministic and
  /// never reused, just not meaningfully epoch-keyed.
  void BeginTrainStep(uint64_t epoch, uint64_t step) {
    stream_epoch_ = epoch;
    stream_step_ = step;
    stream_view_ = 0;
  }

  /// Worker pool for the inference paths. nullptr (the default) falls
  /// back to the process-global pool whenever num_threads > 1; pipelines
  /// plumb their options' pool through MakeEncoder into here, and from
  /// here into Linear::Forward's row-sharded GEMM overload.
  void set_thread_pool(ThreadPool* pool) { pool_ = pool; }
  ThreadPool* thread_pool() const { return pool_; }

 protected:
  /// Subclass hook for the graph-building routes (training, cutoff DA,
  /// tape on): everything EncodeBatch does not serve via EncodeInference.
  virtual Tensor EncodeBatchImpl(const std::vector<std::vector<int>>& batch,
                                 const augment::CutoffPlan* cutoff,
                                 bool training) = 0;

  /// Subclass hook for graph-free inference into `out` (batch order):
  /// the batched route on the per-thread Workspace.
  virtual void EncodeInferenceImpl(const std::vector<std::vector<int>>& batch,
                                   float* out) = 0;

  /// Stream coordinates for one training-mode EncodeBatch call.
  struct TrainStream {
    uint64_t epoch = 0;
    uint64_t step = 0;
    uint64_t view = 0;
  };

  /// Consumes one view of the pinned (epoch, step) stream; call exactly
  /// once per training-mode EncodeBatch.
  TrainStream NextTrainStream() {
    return {stream_epoch_, stream_step_, stream_view_++};
  }

  /// Counter-stream key for one (row, dropout-site) pair of the current
  /// training call. `row` is the row's index in the *original* batch
  /// order, so packed and per-row layouts derive identical keys.
  uint64_t TrainDropKey(const TrainStream& stream, uint64_t row,
                        uint64_t site) const {
    return CounterRng::Key(
        {drop_seed_, stream.epoch, stream.step, stream.view, row, site});
  }

  /// Shared fan-out for the per-row EncodeBatchImpl routes: evaluates
  /// encode_row(i) for i in [0, n). Training rows fan out under
  /// train_num_threads_ with the tape on - each worker builds a disjoint
  /// per-row subgraph whose dropout masks are counter-keyed, so the graph
  /// (and every loss derived from it) is identical for any thread count.
  /// Eval-mode rows run serially. Row i's tensor always lands in slot i.
  std::vector<Tensor> EncodeRows(
      size_t n, bool training,
      const std::function<Tensor(size_t)>& encode_row);

  /// Pool to hand to the row-sharded GEMMs / per-sequence fan-out:
  /// the configured pool, the global one when only num_threads is set,
  /// nullptr (serial) when num_threads <= 1.
  ThreadPool* InferencePool() const;

  /// Same for the training paths, gated on train_num_threads_.
  ThreadPool* TrainPool() const;

  /// Packing knobs shared by the batched encoder paths.
  PackOptions MakePackOptions(int max_len, int pad_id) const;

  /// Packing knobs for the batched *training* paths: original row order
  /// is preserved (buckets are contiguous row ranges - required by the
  /// ascending-row gradient accumulation contract, see
  /// src/tensor/README.md) and the padding-waste bound is looser since
  /// unsorted rows pad worse.
  PackOptions MakeTrainPackOptions(int max_len, int pad_id) const;

  int num_threads_ = 1;
  int train_num_threads_ = 1;
  ThreadPool* pool_ = nullptr;
  bool batched_training_ = true;
  /// Key material for the counter-based dropout streams; subclasses set
  /// this to their config seed so both their paths derive equal keys.
  uint64_t drop_seed_ = 0;

  /// Reusable packing buffers for the padded-pack inference routes of the
  /// Transformer and the GRU (vector capacity retained across calls - the
  /// allocation-free part of the serving contract).
  PackScratch pack_scratch_;

 private:
  index::EmbeddingCache* cache_ = nullptr;
  /// Set by training/graph encodes; the next serving call clears the
  /// cache (weights may have stepped since it was filled).
  bool cache_dirty_ = false;
  /// Cache-miss scratch (reused across calls; allocates only on misses).
  std::vector<int> miss_rows_;
  std::vector<int> miss_slot_;
  std::vector<std::vector<int>> miss_batch_;
  std::vector<float> miss_out_;
  static constexpr uint64_t kAutoEpoch = ~0ULL;
  uint64_t stream_epoch_ = kAutoEpoch;
  uint64_t stream_step_ = 0;
  uint64_t stream_view_ = 0;
};

/// Multi-head self-attention block. The per-sequence Forward needs no
/// padding mask (each sequence is encoded individually); ForwardPacked
/// handles padded [B, T] blocks with a key-padding mask.
class MultiHeadSelfAttention {
 public:
  MultiHeadSelfAttention() = default;
  MultiHeadSelfAttention(int dim, int n_heads, Rng* rng);

  /// x is [T, dim]; returns [T, dim].
  Tensor Forward(const Tensor& x) const;

  /// Batched inference forward over padded blocks, on raw workspace
  /// buffers: x is [b*t, dim] holding b length-t blocks, lengths[i] the
  /// valid prefix of block i. Only the first q_rows rows of each block
  /// (1 <= q_rows <= t) are computed as queries: the result lands in
  /// caller-owned `out`, [b*q_rows, dim] with block i's rows at
  /// i*q_rows (must not alias x). The encoder passes t for every layer
  /// but the last, and 1 for the last, whose [CLS] row is all that
  /// pooling reads. The K/V projections run as single [b*t, dim] GEMMs
  /// and the Q/output projections as [b*q_rows, dim] GEMMs (row-sharded
  /// over `pool` with `num_shards`); the per-sequence score matrices fan
  /// out across the pool, each worker on its own thread-local Workspace.
  /// Rows beyond a block's valid prefix never reach valid rows: their
  /// K/V projection rows are zeroed before any GEMM reads them, and the
  /// masked softmax gives the padded key columns exact-0 weight, so every
  /// valid query row is bit-identical to the same row of Forward on the
  /// unpadded sequence, whatever q_rows is. Inference only (tape must be
  /// off); allocation-free after workspace warmup.
  void ForwardPackedInto(const float* x, int b, int t,
                         const std::vector<int>& lengths, int q_rows,
                         ThreadPool* pool, int num_shards, float* out) const;

  /// Autograd-capable sibling of ForwardPacked for batched training: the
  /// Q/K/V/output projections are graph MatMuls over the whole [b*t, dim]
  /// block (forward and backward GEMMs row-sharded over `pool`), the
  /// per-sequence score subgraphs fan out across the pool (disjoint
  /// subgraphs over read-only parents; construction order never affects
  /// the backward sweep), and the merged heads pad-pack into an exact-zero
  /// padded block. Bit-identical - values and gradients - to Forward on
  /// each unpadded sequence; see src/tensor/README.md.
  Tensor ForwardPackedTrain(const Tensor& x, int t,
                            const std::vector<int>& lengths, ThreadPool* pool,
                            int num_shards) const;

  std::vector<Tensor> Parameters() const;

 private:
  int n_heads_ = 1;
  int head_dim_ = 0;
  Linear wq_, wk_, wv_, wo_;
};

/// Configuration for TransformerEncoder.
struct TransformerConfig {
  int vocab_size = 1000;
  int max_len = 64;    // sequences are truncated to this many tokens
  int dim = 64;        // model width
  int n_layers = 2;
  int n_heads = 4;
  int ffn_dim = 128;
  float dropout = 0.1f;
  /// Fill token for padded batch slots; also substituted for an empty
  /// input sequence (text::Vocab::kPad).
  int pad_id = 0;
  uint64_t seed = 17;
};

/// A pre-LayerNorm Transformer encoder with learned positional embeddings
/// and [CLS] pooling.
class TransformerEncoder : public Encoder {
 public:
  explicit TransformerEncoder(const TransformerConfig& config);

  std::vector<Tensor> Parameters() const override;
  int dim() const override { return config_.dim; }
  int vocab_size() const override { return config_.vocab_size; }
  const TransformerConfig& config() const { return config_; }

 protected:
  Tensor EncodeBatchImpl(const std::vector<std::vector<int>>& batch,
                         const augment::CutoffPlan* cutoff,
                         bool training) override;

  /// Batched inference: packs the batch into padded buckets (reusing the
  /// pack scratch) and runs each bucket's residual stream as [rows*t,
  /// dim] workspace buffers through the blocked (optionally row-sharded)
  /// GEMMs. Every layer but the last computes all rows; the last runs
  /// LayerNorm 1 and the K/V projections on all rows and everything else
  /// (query, attention, output projection, residuals, LayerNorm 2, FFN,
  /// final LayerNorm) on the [CLS] row of each sequence only, since
  /// pooling reads nothing else. Bit-identical to the per-row graph
  /// route - every reduction (LayerNorm, masked softmax, GEMM
  /// accumulation) is row-local, goes through the same kernels, and walks
  /// the same valid prefix in the same order, and a GEMM output element
  /// is one k-increasing chain whatever the number of rows. Zero heap
  /// allocations after warmup.
  void EncodeInferenceImpl(const std::vector<std::vector<int>>& batch,
                           float* out) override;

 private:
  struct Layer {
    LayerNorm ln1, ln2;
    MultiHeadSelfAttention attn;
    Mlp ffn;
  };

  /// Encodes one sequence to its pooled [1, dim] representation. `row` is
  /// the sequence's index in the original batch (keys its dropout
  /// streams); `stream` the current training call's coordinates.
  Tensor EncodeOne(const std::vector<int>& ids,
                   const augment::CutoffPlan* cutoff, bool training,
                   const TrainStream& stream, int row);

  /// Encodes one padded bucket on the workspace, scattering each pooled
  /// [CLS] row to `out` row bucket.row_index[i].
  void EncodeBucketInto(const PackedBucket& bucket, float* out);

  /// Batched training: order-preserving buckets, graph-building packed
  /// attention, position-keyed dropout masks, ascending-row backward join.
  /// Losses and gradients are bit-identical to the per-row training path
  /// (the equivalence battery in tests/contrastive_test.cc enforces it).
  Tensor EncodeBatchTraining(const std::vector<std::vector<int>>& batch,
                             const augment::CutoffPlan* cutoff,
                             const TrainStream& stream);

  /// One padded bucket of the training path to [bucket.rows(), dim].
  Tensor EncodeBucketTrain(const PackedBucket& bucket,
                           const augment::CutoffPlan* cutoff,
                           const TrainStream& stream);

  TransformerConfig config_;
  Rng rng_;  // weight-init stream (dropout is counter-based; see Encoder)
  Embedding token_emb_;
  Embedding pos_emb_;
  std::vector<Layer> layers_;
  LayerNorm final_ln_;
};

/// Configuration for FastBagEncoder.
struct FastBagConfig {
  int vocab_size = 1000;
  int max_len = 96;
  int dim = 64;
  int hidden_dim = 128;
  float dropout = 0.1f;
  /// Token id of the [SEP] separator (text::Vocab::kSep). Sequences
  /// containing it are treated as serialized pairs.
  int sep_token_id = 3;
  /// Fill token for padded batch slots; also substituted for an empty
  /// input sequence (text::Vocab::kPad).
  int pad_id = 0;
  uint64_t seed = 17;
};

/// Segment-aware bag-of-embeddings encoder - the cheap LM stand-in.
///
/// Single items are encoded as the mean of their token embeddings pushed
/// through an MLP. Serialized *pairs* ([CLS] x [SEP] y [SEP]) are pooled
/// per segment, and the MLP sees [m_x, m_y, |m_x - m_y|, m_x ⊙ m_y]: the
/// multiplicative cross-segment interaction that self-attention over the
/// concatenated pair computes inside a real Transformer LM, at bag cost
/// (~100x faster). Without such second-order features a pooled encoder
/// provably cannot represent token overlap, so concatenation-based
/// fine-tuning (the Ditto baseline, §III-B's "default option") would be
/// degenerate rather than merely weaker.
class FastBagEncoder : public Encoder {
 public:
  explicit FastBagEncoder(const FastBagConfig& config);

  std::vector<Tensor> Parameters() const override;
  int dim() const override { return config_.dim; }
  int vocab_size() const override { return config_.vocab_size; }

 protected:
  Tensor EncodeBatchImpl(const std::vector<std::vector<int>>& batch,
                         const augment::CutoffPlan* cutoff,
                         bool training) override;

  /// Batched inference on the workspace: the batch's ragged rows,
  /// flattened without padding, pool straight from the token table into
  /// a [B, 4*dim] feature block (kernels::BagPairFeatures, no packing
  /// and no gathered copy), then the raw MLP/LayerNorm tail writes
  /// `out`. Bit-identical to the per-row graph route; zero heap
  /// allocations after warmup.
  void EncodeInferenceImpl(const std::vector<std::vector<int>>& batch,
                           float* out) override;

 private:
  /// Pooled [1, 4*dim] segment features for one sequence.
  Tensor PoolOne(const std::vector<int>& ids,
                 const augment::CutoffPlan* cutoff);

  /// The segment split of one truncated row: the position of its first
  /// [SEP] when both segments around it are non-empty, else -1.
  int SegmentSplit(const int* ids, int len) const;

  /// Writes every row of `batch` under TruncateOrPad's rule back to back
  /// into `ids` (room for batch.size() * max_len), row i from offsets[i],
  /// and its SegmentSplit to splits[i]; returns the id count, which is
  /// also offsets[batch.size()]. SUDO_CHECKs every id against the
  /// vocabulary.
  int FlattenRows(const std::vector<std::vector<int>>& batch, int* ids,
                  int* offsets, int* splits) const;

  /// Batched training pooling: the flattened rows and, under a cutoff
  /// plan, a 0/1 mask over their tokens (CutoffPlan::ZeroCutEntries per
  /// row) go to one tensor::BagPairFeatures node for the whole batch.
  /// Values and gradients are bit-identical to per-row PoolOne.
  Tensor PoolBatchedTraining(const std::vector<std::vector<int>>& batch,
                             const augment::CutoffPlan* cutoff);

  FastBagConfig config_;
  Rng rng_;  // weight-init stream (dropout is counter-based; see Encoder)
  Embedding token_emb_;
  Mlp mlp_;  // 4*dim -> hidden -> dim
  LayerNorm ln_;
};

/// Applies a cutoff plan to a [T, dim] embedding matrix by elementwise
/// multiplication with a constant 0/1 mask (CutoffPlan::ZeroCutEntries;
/// exposed for testing).
Tensor ApplyCutoff(const Tensor& emb, const augment::CutoffPlan& plan);

/// Packed-bucket counterpart of ApplyCutoff's mask: a constant
/// [bucket.rows() * bucket.t, d] 0/1 tensor where block i's valid prefix
/// carries the plan evaluated at that row's own length (cutoff positions
/// are length-relative fractions) and padded rows stay 1. Multiplying the
/// packed embedding by this is bit-identical, row for row, to per-row
/// ApplyCutoff. The Transformer and GRU training routes use it.
Tensor PackedCutoffMask(const augment::CutoffPlan& plan,
                        const PackedBucket& bucket, int d);

}  // namespace sudowoodo::nn

#endif  // SUDOWOODO_NN_ENCODER_H_
