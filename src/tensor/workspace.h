// Reusable inference workspace: a per-thread bump/arena allocator for the
// graph-free serving paths.
//
// The batched inference encoders (see nn/encoder.cc) run whole padded
// buckets through the raw kernels in tensor/kernels.h. Before this layer
// existed, every intermediate (residual stream, attention scores, softmax
// rows, pooling buffers) was a fresh
// heap-allocated Tensor or std::vector, so steady-state serving churned
// the allocator on every bucket. A Workspace instead hands out scratch
// spans carved from a small list of chunks that are *kept* across
// rewinds: the first few calls grow the chunk list (warmup), after which
// every bucket reuses the same memory and the encode loop performs zero
// heap allocations (asserted by tests/workspace_test.cc's operator-new
// counting hook).
//
// Usage discipline (see "Workspace lifetime and aliasing rules" in
// src/tensor/README.md):
//   * open a Frame, take buffers, compute, let the Frame rewind - buffers
//     are dead once their Frame closes;
//   * Frames nest (stack order), so a ParallelFor body may open its own
//     frame on its worker's thread-local workspace while the caller holds
//     one on its thread;
//   * buffers are uninitialized - callers that accumulate (GEMM) must
//     zero-fill first;
//   * never hand a workspace buffer to a Tensor or across threads, and
//     never use one on an autograd/training path: the graph would keep
//     pointers into memory the next Frame reuses.

#ifndef SUDOWOODO_TENSOR_WORKSPACE_H_
#define SUDOWOODO_TENSOR_WORKSPACE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace sudowoodo::tensor {

/// A chunked bump allocator. Chunks are allocated on demand, never freed
/// until destruction, and rewound wholesale by Frame close - so after the
/// first pass over a given shape ("warmup") no call here touches the heap.
class Workspace {
 public:
  Workspace() = default;
  Workspace(const Workspace&) = delete;
  Workspace& operator=(const Workspace&) = delete;

  /// Uninitialized scratch spans, 64-byte aligned, valid until the
  /// enclosing Frame closes.
  float* Floats(size_t n) {
    return static_cast<float*>(Raw(n * sizeof(float)));
  }
  int* Ints(size_t n) { return static_cast<int*>(Raw(n * sizeof(int))); }

  /// Total bytes reserved across all chunks (diagnostics / benches).
  size_t bytes_reserved() const { return bytes_reserved_; }

  /// The calling thread's workspace. Worker threads of a ThreadPool each
  /// get their own, which persists across tasks - so pool workers also
  /// reach an allocation-free steady state.
  static Workspace& ThreadLocal();

  /// RAII rewind scope. All buffers taken while a Frame is open are
  /// released (memory retained, pointers dead) when it closes. Frames
  /// must close in reverse open order (stack discipline).
  class Frame {
   public:
    explicit Frame(Workspace& ws)
        : ws_(ws), chunk_(ws.current_chunk_), used_(ws.current_used_) {}
    ~Frame() {
      ws_.current_chunk_ = chunk_;
      ws_.current_used_ = used_;
    }
    Frame(const Frame&) = delete;
    Frame& operator=(const Frame&) = delete;

   private:
    Workspace& ws_;
    size_t chunk_;
    size_t used_;
  };

 private:
  struct Chunk {
    std::unique_ptr<unsigned char[]> data;
    unsigned char* base = nullptr;  // data aligned up to the serving grain
    size_t capacity = 0;
  };

  void* Raw(size_t bytes);

  std::vector<Chunk> chunks_;
  size_t current_chunk_ = 0;  // index of the chunk being bumped
  size_t current_used_ = 0;   // bytes used in chunks_[current_chunk_]
  size_t bytes_reserved_ = 0;
};

}  // namespace sudowoodo::tensor

#endif  // SUDOWOODO_TENSOR_WORKSPACE_H_
