#include "serving/server.h"

#include <chrono>
#include <string>
#include <utility>

#include "index/top_k.h"

namespace sudowoodo::serving {

Server::Server(std::vector<ModelReplica> replicas,
               const ServerOptions& options)
    : options_(options),
      replicas_(std::move(replicas)),
      queue_(options.queue_capacity) {
  SUDO_CHECK(!replicas_.empty());
  SUDO_CHECK(options_.max_batch > 0);
  SUDO_CHECK(options_.queue_capacity > 0);
  for (const ModelReplica& r : replicas_) {
    SUDO_CHECK(r.encoder != nullptr);
    SUDO_CHECK(r.encoder->dim() == replicas_.front().encoder->dim());
    SUDO_CHECK(r.encoder->vocab_size() ==
               replicas_.front().encoder->vocab_size());
    SUDO_CHECK(options_.live_index == nullptr ||
               options_.live_index->dim() == r.encoder->dim());
    // All-or-nothing matchers of one side-feature width: Submit-time
    // validation checks one replica and must speak for every worker.
    SUDO_CHECK((r.matcher != nullptr) ==
               (replicas_.front().matcher != nullptr));
    SUDO_CHECK(r.matcher == nullptr ||
               r.matcher->side_dim() ==
                   replicas_.front().matcher->side_dim());
  }
  workers_.reserve(replicas_.size());
  for (const ModelReplica& r : replicas_) {
    workers_.emplace_back([this, r] { WorkerLoop(r); });
  }
}

Server::~Server() { Shutdown(); }

void Server::Shutdown() {
  queue_.Close();
  std::lock_guard<std::mutex> join_lock(join_mu_);
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
}

Status Server::ValidateTokenIds(const std::vector<int>& ids) const {
  // The encoders treat an out-of-range id as a programmer error and abort
  // (a SUDO_CHECK a worker's try/catch cannot intercept), so untrusted ids
  // stop here. All replicas share one vocabulary (checked at construction).
  const int vocab = replicas_.front().encoder->vocab_size();
  for (int id : ids) {
    if (id < 0 || id >= vocab) {
      return Status::InvalidArgument("token id " + std::to_string(id) +
                                     " outside the vocabulary [0, " +
                                     std::to_string(vocab) + ")");
    }
  }
  return Status::OK();
}

Status Server::ValidateSide(const matcher::PairExample& pair) const {
  // The matcher aborts on a side-feature width other than its own (a
  // SUDO_CHECK a worker's try/catch cannot intercept). With side_dim 0 it
  // ignores `side`, so any width passes. All replicas share one width
  // (checked at construction).
  const int side_dim = replicas_.front().matcher->side_dim();
  if (side_dim > 0 && static_cast<int>(pair.side.size()) != side_dim) {
    return Status::InvalidArgument(
        "side feature width " + std::to_string(pair.side.size()) +
        " != matcher side_dim " + std::to_string(side_dim));
  }
  return Status::OK();
}

Status Server::Validate(const Request& request) const {
  switch (request.kind) {
    case RequestKind::kEncode:
      return ValidateTokenIds(request.ids);
    case RequestKind::kMatch:
    case RequestKind::kClean:
      if (replicas_.front().matcher == nullptr) {
        return Status::FailedPrecondition(
            "server has no matcher; match/clean requests unsupported");
      }
      if (request.kind == RequestKind::kMatch) {
        return ValidateSide(request.pair);
      }
      if (request.candidates.empty()) {
        return Status::InvalidArgument("clean request has no candidates");
      }
      for (const matcher::PairExample& candidate : request.candidates) {
        SUDO_RETURN_IF_ERROR(ValidateSide(candidate));
      }
      return Status::OK();
    case RequestKind::kQuery:
    case RequestKind::kUpsert:
    case RequestKind::kDelete:
      if (options_.live_index == nullptr) {
        return Status::FailedPrecondition(
            "server has no live index; query/upsert/delete unsupported");
      }
      if (request.kind == RequestKind::kQuery && request.k < 0) {
        return Status::InvalidArgument("query k must be >= 0");
      }
      if (request.kind != RequestKind::kQuery && request.item_id < 0) {
        return Status::InvalidArgument("item id must be >= 0");
      }
      return request.kind == RequestKind::kDelete
                 ? Status::OK()
                 : ValidateTokenIds(request.ids);
  }
  return Status::Internal("unknown request kind");
}

std::future<Response> Server::Submit(Request request) {
  std::promise<Response> promise;
  std::future<Response> future = promise.get_future();
  const Status st = Validate(request);
  if (!st.ok()) {
    Response r;
    r.status = st;
    promise.set_value(std::move(r));
    return future;
  }
  Pending pending;
  pending.deadline = Clock::time_point::max();
  if (request.timeout_us > 0) {
    // A timeout past what the clock can still count to (INT64_MAX, the
    // usual "never", among them) saturates to no deadline: now + timeout
    // would overflow the clock's signed nanoseconds and wrap into the past.
    const Clock::time_point now = Clock::now();
    const int64_t headroom_us =
        std::chrono::duration_cast<std::chrono::microseconds>(
            Clock::time_point::max() - now)
            .count();
    if (request.timeout_us < headroom_us) {
      pending.deadline = now + std::chrono::microseconds(request.timeout_us);
    }
  }
  pending.request = std::move(request);
  pending.promise = std::move(promise);
  if (!queue_.Push(pending)) {
    // Closed: Push left `pending` intact, so the promise is still ours.
    Response r;
    r.status = Status::FailedPrecondition("server is shut down");
    pending.promise.set_value(std::move(r));
    return future;
  }
  submitted_.fetch_add(1, std::memory_order_relaxed);
  return future;
}

void Server::WorkerLoop(ModelReplica replica) {
  std::vector<Pending> batch;
  std::vector<float> encode_scratch;  // capacity retained across flushes
  while (queue_.PopBatch(options_.max_batch,
                         std::chrono::microseconds(options_.max_wait_us),
                         &batch)) {
    ServeBatch(replica, &batch, &encode_scratch);
  }
}

void Server::ServeBatch(const ModelReplica& replica,
                        std::vector<Pending>* batch,
                        std::vector<float>* encode_scratch) {
  batches_.fetch_add(1, std::memory_order_relaxed);
  coalesced_.fetch_add(batch->size(), std::memory_order_relaxed);
  const int flush_size = static_cast<int>(batch->size());
  const auto now = Clock::now();

  // Partition the flush: expired requests answer immediately; the rest
  // coalesce into one encoder pack and one matcher pack. Query/upsert
  // requests ride the encode pack too - their rows are encoded alongside
  // plain encode traffic (per-row bit-identity makes the shared pack
  // invisible in the results) and the index operations themselves are
  // applied afterwards in submission order, so a client that upserts
  // then queries through one server observes its own write.
  std::vector<std::vector<int>> encode_rows;
  struct EncodeSlot {
    size_t owner;
    size_t slot;  // row in the encode pack
  };
  std::vector<EncodeSlot> encode_owner;  // kEncode responses only
  constexpr size_t kNoSlot = static_cast<size_t>(-1);
  std::vector<EncodeSlot> index_ops;  // kQuery/kUpsert/kDelete, batch order
  std::vector<matcher::PairExample> pairs;
  struct PairSpan {
    size_t owner;
    size_t begin;
    size_t count;
  };
  std::vector<PairSpan> spans;
  for (size_t i = 0; i < batch->size(); ++i) {
    Pending& p = (*batch)[i];
    if (now > p.deadline) {
      Response r;
      r.status = Status::DeadlineExceeded("request expired in queue");
      r.coalesced = flush_size;
      // Counters before set_value: the client unblocks the instant the
      // promise is fulfilled, and may read stats() right away.
      expired_.fetch_add(1, std::memory_order_relaxed);
      completed_.fetch_add(1, std::memory_order_relaxed);
      p.promise.set_value(std::move(r));
      continue;
    }
    switch (p.request.kind) {
      case RequestKind::kEncode:
        encode_owner.push_back(EncodeSlot{i, encode_rows.size()});
        encode_rows.push_back(std::move(p.request.ids));
        break;
      case RequestKind::kQuery:
        index_ops.push_back(EncodeSlot{i, encode_rows.size()});
        encode_rows.push_back(std::move(p.request.ids));
        break;
      case RequestKind::kUpsert:
        index_ops.push_back(EncodeSlot{i, encode_rows.size()});
        // Copied, not moved: the ids stay behind as the upsert's cache
        // invalidation key.
        encode_rows.push_back(p.request.ids);
        break;
      case RequestKind::kDelete:
        index_ops.push_back(EncodeSlot{i, kNoSlot});
        break;
      case RequestKind::kMatch:
        spans.push_back(PairSpan{i, pairs.size(), 1});
        pairs.push_back(std::move(p.request.pair));
        break;
      case RequestKind::kClean:
        spans.push_back(
            PairSpan{i, pairs.size(), p.request.candidates.size()});
        for (auto& cand : p.request.candidates) {
          pairs.push_back(std::move(cand));
        }
        break;
    }
  }

  const auto answer_error = [&](size_t owner, const Status& st) {
    Response r;
    r.status = st;
    r.coalesced = flush_size;
    completed_.fetch_add(1, std::memory_order_relaxed);
    (*batch)[owner].promise.set_value(std::move(r));
  };

  bool encode_ok = true;
  if (!encode_rows.empty()) {
    const int d = replica.encoder->dim();
    encode_scratch->resize(encode_rows.size() * static_cast<size_t>(d));
    try {
      replica.encoder->EncodeNormalizedInto(encode_rows,
                                            encode_scratch->data());
      for (const EncodeSlot& slot : encode_owner) {
        Response r;
        r.status = Status::OK();
        const float* row =
            encode_scratch->data() + slot.slot * static_cast<size_t>(d);
        r.embedding.assign(row, row + d);
        r.coalesced = flush_size;
        completed_.fetch_add(1, std::memory_order_relaxed);
        (*batch)[slot.owner].promise.set_value(std::move(r));
      }
    } catch (const std::exception& e) {
      encode_ok = false;
      const Status st = Status::Internal(std::string("encode: ") + e.what());
      for (const EncodeSlot& slot : encode_owner) {
        answer_error(slot.owner, st);
      }
      // Index operations lose their rows with the pack; deletes are
      // answered errored too rather than mutating out of order.
      for (const EncodeSlot& op : index_ops) {
        answer_error(op.owner, st);
      }
    }
  }

  if (!index_ops.empty() && encode_ok) {
    index::LiveBlockingIndex* live = options_.live_index;
    const int d = replica.encoder->dim();
    for (const EncodeSlot& op : index_ops) {
      Pending& p = (*batch)[op.owner];
      const float* row = op.slot == kNoSlot
                             ? nullptr
                             : encode_scratch->data() +
                                   op.slot * static_cast<size_t>(d);
      Response r;
      r.coalesced = flush_size;
      switch (p.request.kind) {
        case RequestKind::kUpsert: {
          index::LiveItem item;
          item.item_id = p.request.item_id;
          item.token_key = std::move(p.request.ids);
          r.status = live->Upsert(&item, row, 1, d);
          break;
        }
        case RequestKind::kDelete:
          r.status = live->Remove(&p.request.item_id, 1);
          break;
        case RequestKind::kQuery:
          r.status = live->Query(row, d, p.request.k, &r.neighbors);
          break;
        default:
          r.status = Status::Internal("non-index op in index pack");
          break;
      }
      completed_.fetch_add(1, std::memory_order_relaxed);
      p.promise.set_value(std::move(r));
    }
  }

  if (!pairs.empty()) {
    try {
      const std::vector<float> probs = replica.matcher->PredictProba(pairs);
      for (const PairSpan& span : spans) {
        Response r;
        r.status = Status::OK();
        r.coalesced = flush_size;
        if ((*batch)[span.owner].request.kind == RequestKind::kMatch) {
          r.prob = probs[span.begin];
        } else {
          r.candidate_probs.assign(probs.begin() + span.begin,
                                   probs.begin() + span.begin + span.count);
          // Highest probability, NaN last, ties to the lower index.
          index::TopKSelector best;
          best.Reset(1);
          best.PushScores(r.candidate_probs.data(), nullptr,
                          static_cast<int>(span.count));
          r.best_candidate = best.entries()[0].id;
          r.prob = best.entries()[0].score;
        }
        completed_.fetch_add(1, std::memory_order_relaxed);
        (*batch)[span.owner].promise.set_value(std::move(r));
      }
    } catch (const std::exception& e) {
      for (const PairSpan& span : spans) {
        answer_error(span.owner, Status::Internal(std::string("match: ") +
                                                  e.what()));
      }
    }
  }
}

ServerStats Server::stats() const {
  ServerStats s;
  s.submitted = submitted_.load(std::memory_order_relaxed);
  s.completed = completed_.load(std::memory_order_relaxed);
  s.expired = expired_.load(std::memory_order_relaxed);
  s.batches = batches_.load(std::memory_order_relaxed);
  s.coalesced = coalesced_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace sudowoodo::serving
