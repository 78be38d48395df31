// Per-host-thread free lists of small memory blocks, for what the simulator
// allocates and frees once per simulated operation (coroutine frames).
//
// Blocks come in classes of kGrain bytes; a request larger than kMaxBytes
// goes to the global allocator. Each host thread has its own lists, so
// there is no lock, and a block freed on another thread joins that thread's
// lists. A thread's blocks go back to the global allocator when it exits.
// Under AddressSanitizer a listed block is poisoned, so a use after free
// still reports.
#ifndef DIPC_BASE_BLOCK_POOL_H_
#define DIPC_BASE_BLOCK_POOL_H_

#include <sanitizer/asan_interface.h>  // poisoning when __SANITIZE_ADDRESS__, else no-ops

#include <array>
#include <cstddef>
#include <new>

namespace dipc::base {

class BlockPool {
 public:
  static constexpr size_t kGrain = 64;
  static constexpr size_t kMaxBytes = 2048;

  static void* Allocate(size_t bytes) {
    Lists& lists = lists_;
    Block* b = bytes <= kMaxBytes ? lists.head[bytes / kGrain] : nullptr;
    if (b == nullptr) {
      return ::operator new((bytes / kGrain + 1) * kGrain);
    }
    ASAN_UNPOISON_MEMORY_REGION(b, (bytes / kGrain + 1) * kGrain);
    lists.head[bytes / kGrain] = b->next;
    return b;
  }

  static void Deallocate(void* p, size_t bytes) {
    Lists& lists = lists_;
    if (bytes > kMaxBytes || lists.closed) {
      ::operator delete(p);
      return;
    }
    Block*& head = lists.head[bytes / kGrain];
    head = ::new (p) Block{head};
    ASAN_POISON_MEMORY_REGION(p, (bytes / kGrain + 1) * kGrain);
  }

 private:
  struct Block {
    Block* next;
  };
  struct Lists {
    std::array<Block*, kMaxBytes / kGrain + 1> head;  // blocks of (i + 1) * kGrain
    bool closed;  // the thread is exiting: frees bypass the lists
    ~Lists() {
      closed = true;
      for (size_t i = 0; i < head.size(); ++i) {
        while (Block* b = head[i]) {
          ASAN_UNPOISON_MEMORY_REGION(b, (i + 1) * kGrain);
          head[i] = b->next;
          ::operator delete(b);
        }
      }
    }
  };
  static thread_local Lists lists_;
};

inline thread_local BlockPool::Lists BlockPool::lists_{};

}  // namespace dipc::base

#endif  // DIPC_BASE_BLOCK_POOL_H_
