// The serving front door: a long-lived Server that coalesces concurrent
// encode / match / clean requests into the batched inference paths.
//
// Everything below PR 7 optimizes one in-process call; this layer gives
// the library the concurrent-request shape. Client threads Submit()
// individual requests and get a std::future<Response>; a bounded MPSC
// queue (request_queue.h) buffers them; worker threads pop *batches* and
// dispatch each through the existing [B,T]-pack entry points:
// Encoder::EncodeNormalizedInto for encode requests,
// matcher::PairMatcher::PredictProba for match and clean requests.
//
// The flush rule: a batch closes at `max_batch` requests, once the queue
// has stayed empty for a short linger (BoundedBatchQueue::kLinger) since
// the batch last took a request, or when its oldest request has waited
// `max_wait_us` since Submit - whichever comes first. So a lone request
// (a client that sends nothing more until it is answered) waits out the
// linger, not the window, and `max_wait_us` bounds the latency batching
// adds. A worker that comes back from a flush to a queued request skips
// the linger and batches up to `max_wait_us`: it is saturated, and bigger
// batches are its throughput. The linger is timed by spinning, not by a
// timer sleep, and an idle worker spins for up to kParkSpin before it
// parks, so a follow-up request that arrives within that time needs no
// wake-up. In a process that can run on one CPU only, nothing spins: the
// worker parks at once and lingers in a timed wait (request_queue.h).
//
// Batching is free of a correctness tax: every batched inference row is
// bit-identical to a single-request encode (tests/batch_encode_test.cc),
// so a response never depends on which requests happened to share its
// flush - the PR 3-7 determinism contract extended to batch composition
// under concurrency, asserted in tests/serving_test.cc (including under
// TSan in CI).
//
// Threading model: each worker owns one ModelReplica (the encoder's
// serving path is deliberately not re-entrant - it reuses per-encoder
// scratch and the per-thread inference Workspace, see nn/encoder.h), so
// worker parallelism is replica parallelism. Replicas must hold
// bit-identical weights (construct from one seed, or LoadWeights the same
// SaveWeights file - the warm-restart path); they may share one
// index::EmbeddingCache, which is internally sharded and lock-safe, so a
// sequence encoded for any request serves every later request that
// repeats it, on any worker.

#ifndef SUDOWOODO_SERVING_SERVER_H_
#define SUDOWOODO_SERVING_SERVER_H_

#include <atomic>
#include <cstdint>
#include <future>
#include <thread>
#include <vector>

#include "common/status.h"
#include "index/live_index.h"
#include "matcher/pair_matcher.h"
#include "nn/encoder.h"
#include "serving/request_queue.h"

namespace sudowoodo::serving {

/// What a request asks of the model (and, for the last three kinds, of
/// the live blocking corpus - see ServerOptions::live_index).
enum class RequestKind {
  kEncode,  // token ids -> L2-normalized embedding (blocking / indexing)
  kMatch,   // serialized pair -> P(match) through the fine-tuned matcher
  kClean,   // cell vs candidate corrections -> per-candidate P + argmax
  kQuery,   // token ids -> encode -> top-k neighbours in the live corpus
  kUpsert,  // token ids + item_id -> encode -> insert/replace in corpus
  kDelete,  // item_id -> remove from the live corpus
};

struct Request {
  RequestKind kind = RequestKind::kEncode;
  /// kEncode / kQuery / kUpsert: the token-id sequence to embed; every
  /// id must lie in [0, encoder vocab_size()), or Submit answers
  /// kInvalidArgument. For kUpsert it is also the item's cache key:
  /// replacing an item with different tokens invalidates the old
  /// serialization's cached embedding (index/live_index.h).
  std::vector<int> ids;
  /// kUpsert / kDelete: the caller's item id (non-negative).
  int item_id = -1;
  /// kQuery: neighbours requested.
  int k = 10;
  /// kMatch: the pair to score. When the matcher has side features
  /// (PairMatcher::side_dim() > 0), `pair.side` must be exactly that
  /// wide, or Submit answers kInvalidArgument; values are not checked.
  matcher::PairExample pair;
  /// kClean: the cell serialized against each candidate correction (the
  /// cleaning pipeline's per-cell contest); must be non-empty, and each
  /// candidate's `side` obeys the kMatch width rule.
  std::vector<matcher::PairExample> candidates;
  /// Per-request deadline, measured from Submit. A request still queued
  /// when it expires is answered with StatusCode::kDeadlineExceeded
  /// instead of being computed. 0 = no deadline, and so is any timeout
  /// too large for the clock to reach (INT64_MAX included).
  int64_t timeout_us = 0;
};

struct Response {
  Status status;
  /// kEncode: the [dim] normalized embedding.
  std::vector<float> embedding;
  /// kQuery: top-k live neighbours (external item ids), best first.
  std::vector<index::Neighbor> neighbors;
  /// kMatch: P(match).
  float prob = 0.0f;
  /// kClean: index of the highest-probability candidate (NaN ranks
  /// last, ties go to the lower index), plus all probs.
  int best_candidate = -1;
  std::vector<float> candidate_probs;
  /// Observability: how many requests shared this response's flush.
  int coalesced = 0;
};

/// One worker's model. The encoder is required; the matcher only for
/// match/clean traffic (a Server whose replicas have no matcher rejects
/// those kinds at Submit). Both are caller-owned and must outlive the
/// Server. All replicas of one Server must encode bit-identically (same
/// weights) - sharing an embedding cache across replicas relies on it.
struct ModelReplica {
  nn::Encoder* encoder = nullptr;
  matcher::PairMatcher* matcher = nullptr;
};

struct ServerOptions {
  /// Flush a forming batch at this many requests...
  int max_batch = 32;
  /// ...or when the oldest request in it has waited this long, whichever
  /// comes first - the bound on the latency batching adds. A batch also
  /// closes earlier, once the queue has stayed empty for the linger
  /// (BoundedBatchQueue::kLinger). 0 = never wait (each flush takes what
  /// is queued).
  int64_t max_wait_us = 1000;
  /// Bounded-queue depth; Submit blocks (backpressure) when full.
  size_t queue_capacity = 1024;
  /// The live blocking corpus served by kQuery/kUpsert/kDelete
  /// (caller-owned, must outlive the Server; its dim must equal the
  /// encoder dim). nullptr rejects those kinds at Submit. Upsert/query
  /// rows ride the flush's encode pack (per-row bit-identity makes the
  /// shared pack invisible in the results); index operations are applied
  /// in submission order within each flush. Across flushes there is no
  /// ordering promise: a multi-worker server's workers may take the live
  /// index's writer lock in either order, so a client sees its write
  /// once that write's future is ready.
  index::LiveBlockingIndex* live_index = nullptr;
};

/// Aggregate counters since construction (monotonic, thread-safe reads).
struct ServerStats {
  uint64_t submitted = 0;  // accepted into the queue
  uint64_t completed = 0;  // responses delivered, any status
  uint64_t expired = 0;    // answered kDeadlineExceeded
  uint64_t batches = 0;    // flushes dispatched to a worker
  uint64_t coalesced = 0;  // sum of flush sizes (mean = /batches)
};

class Server {
 public:
  /// Starts one worker thread per replica (at least one required).
  Server(std::vector<ModelReplica> replicas, const ServerOptions& options);

  /// Calls Shutdown().
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Enqueues `request` and returns the future of its response. Blocks
  /// while the queue is full (bounded backpressure). Invalid requests and
  /// submissions after Shutdown complete immediately with a non-OK
  /// status; the future never dangles.
  std::future<Response> Submit(Request request);

  /// Graceful shutdown: stops accepting, *drains* every request already
  /// accepted (each gets its computed response, or a timeout if its
  /// deadline passed while draining), then joins the workers. Idempotent.
  void Shutdown();

  ServerStats stats() const;
  int num_workers() const { return static_cast<int>(replicas_.size()); }

 private:
  using Clock = std::chrono::steady_clock;
  struct Pending {
    Request request;
    std::promise<Response> promise;
    Clock::time_point deadline;  // Clock::time_point::max() when none
  };

  Status Validate(const Request& request) const;
  /// InvalidArgument unless every id is in [0, encoder vocab_size()).
  Status ValidateTokenIds(const std::vector<int>& ids) const;
  /// InvalidArgument unless `pair.side` has the matcher's side_dim (any
  /// width passes when side_dim is 0).
  Status ValidateSide(const matcher::PairExample& pair) const;
  void WorkerLoop(ModelReplica replica);
  /// `encode_scratch` is the worker's reusable [rows, dim] encode buffer
  /// (per-worker, so flushes on different replicas never share it).
  void ServeBatch(const ModelReplica& replica, std::vector<Pending>* batch,
                  std::vector<float>* encode_scratch);

  const ServerOptions options_;
  std::vector<ModelReplica> replicas_;
  BoundedBatchQueue<Pending> queue_;
  std::vector<std::thread> workers_;
  std::mutex join_mu_;  // serializes concurrent Shutdown joins

  std::atomic<uint64_t> submitted_{0};
  std::atomic<uint64_t> completed_{0};
  std::atomic<uint64_t> expired_{0};
  std::atomic<uint64_t> batches_{0};
  std::atomic<uint64_t> coalesced_{0};
};

}  // namespace sudowoodo::serving

#endif  // SUDOWOODO_SERVING_SERVER_H_
