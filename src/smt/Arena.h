//===- smt/Arena.h - Bump allocation for formula storage --------*- C++ -*-===//
//
// Part of the rvpredict-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Chunked bump arena backing FormulaBuilder's node and child pools
/// (docs/ENCODER.md). Formula DAGs are append-only for the lifetime of a
/// window — nodes are hash-consed, never deleted — so per-node heap
/// traffic buys nothing: the arena hands out pointers by bumping a cursor
/// and frees every chunk at once when the builder dies at the window
/// barrier. Chunk bytes are charged to MemPool::FormulaDag, so the
/// `mem.formula_dag_*` gauges expose the arena's real footprint including
/// blocks abandoned by ArenaVector growth.
///
//===----------------------------------------------------------------------===//

#ifndef RVP_SMT_ARENA_H
#define RVP_SMT_ARENA_H

#include "support/MemStats.h"
#include "support/Telemetry.h"

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <type_traits>
#include <vector>

namespace rvp {

/// Chunked bump allocator: allocate() bumps a cursor inside the current
/// chunk and starts a new geometrically-grown chunk when it runs out.
/// Individual allocations are never freed; reset() (and the destructor)
/// releases every chunk at once.
class BumpArena {
public:
  explicit BumpArena(size_t FirstChunkBytes = 1u << 16)
      : NextChunkBytes(FirstChunkBytes ? FirstChunkBytes : 1u << 16) {}
  ~BumpArena() { reset(); }
  BumpArena(const BumpArena &) = delete;
  BumpArena &operator=(const BumpArena &) = delete;

  void *allocate(size_t Bytes, size_t Align) {
    uintptr_t P = (Cur + (Align - 1)) & ~static_cast<uintptr_t>(Align - 1);
    if (P + Bytes > End) {
      newChunk(Bytes + Align);
      P = (Cur + (Align - 1)) & ~static_cast<uintptr_t>(Align - 1);
    }
    Cur = P + Bytes;
    return reinterpret_cast<void *>(P);
  }

  /// Bulk free: returns every chunk to the system (the window barrier).
  void reset() {
    for (const Chunk &C : Chunks)
      ::operator delete(C.Mem);
    Chunks.clear();
    Cur = End = 0;
    Mem.release();
  }

private:
  struct Chunk {
    void *Mem;
    size_t Bytes;
  };

  void newChunk(size_t MinBytes) {
    size_t Bytes = NextChunkBytes;
    while (Bytes < MinBytes)
      Bytes *= 2;
    NextChunkBytes = Bytes * 2;
    void *M = ::operator new(Bytes);
    Chunks.push_back({M, Bytes});
    Cur = reinterpret_cast<uintptr_t>(M);
    End = Cur + Bytes;
    if (Telemetry::enabled())
      Mem.charge(Bytes);
  }

  std::vector<Chunk> Chunks;
  uintptr_t Cur = 0;
  uintptr_t End = 0;
  size_t NextChunkBytes;
  MemCharge Mem{MemPool::FormulaDag};
};

/// Growable array of trivially-copyable elements stored in a BumpArena.
/// Growth allocates a fresh block and memcpys; the old block stays in the
/// arena until the bulk free (bounded by the geometric growth factor).
template <typename T> class ArenaVector {
  static_assert(std::is_trivially_copyable_v<T>,
                "ArenaVector relocates elements with memcpy");

public:
  explicit ArenaVector(BumpArena &A) : A(A) {}

  size_t size() const { return Count; }
  bool empty() const { return Count == 0; }
  const T *data() const { return Data; }
  T *data() { return Data; }
  const T *begin() const { return Data; }
  const T *end() const { return Data + Count; }

  T &operator[](size_t I) { return Data[I]; }
  const T &operator[](size_t I) const { return Data[I]; }
  T &back() { return Data[Count - 1]; }

  void push_back(const T &Value) {
    if (Count == Capacity)
      grow(Capacity ? Capacity * 2 : 64);
    Data[Count++] = Value;
  }

  /// Appends [First, Last) at the end.
  void append(const T *First, const T *Last) {
    size_t N = static_cast<size_t>(Last - First);
    if (N == 0)
      return; // memcpy must not see the null Data of a fresh vector
    if (Count + N > Capacity) {
      size_t NewCap = Capacity ? Capacity * 2 : 64;
      while (NewCap < Count + N)
        NewCap *= 2;
      grow(NewCap);
    }
    std::memcpy(Data + Count, First, N * sizeof(T));
    Count += N;
  }

private:
  void grow(size_t NewCap) {
    T *NewData = static_cast<T *>(A.allocate(NewCap * sizeof(T), alignof(T)));
    if (Count)
      std::memcpy(NewData, Data, Count * sizeof(T));
    Data = NewData;
    Capacity = NewCap;
  }

  BumpArena &A;
  T *Data = nullptr;
  size_t Count = 0;
  size_t Capacity = 0;
};

} // namespace rvp

#endif // RVP_SMT_ARENA_H
