// Sparse physical memory backing store.
#ifndef DIPC_HW_PHYS_MEM_H_
#define DIPC_HW_PHYS_MEM_H_

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstring>
#include <memory>
#include <span>
#include <vector>

#include "base/check.h"
#include "hw/types.h"

namespace dipc::hw {

// Frame-granular sparse memory. Frames are allocated on demand and
// zero-filled; frame numbers are handed out by a bump allocator so tests are
// deterministic.
class PhysMem {
 public:
  PhysMem() = default;
  PhysMem(const PhysMem&) = delete;
  PhysMem& operator=(const PhysMem&) = delete;

  // Allocates a fresh zeroed frame and returns its frame number.
  uint64_t AllocFrame() { return next_frame_++; }

  void Read(PhysAddr pa, std::span<std::byte> out) const;
  void Write(PhysAddr pa, std::span<const std::byte> data);

  // Copies `size` bytes between physical ranges (may cross frames).
  void Copy(PhysAddr dst, PhysAddr src, uint64_t size);

 private:
  using Frame = std::array<std::byte, kPageSize>;

  Frame& FrameFor(PhysAddr pa) const {
    const uint64_t fn = pa >> kPageShift;
    frames_.resize(std::max<uint64_t>(frames_.size(), fn + 1));
    std::unique_ptr<Frame>& frame = frames_[fn];
    if (frame == nullptr) {
      frame = std::make_unique<Frame>();
      frame->fill(std::byte{0});
    }
    return *frame;
  }

  // Frames materialize lazily even on reads (zero-fill), hence mutable.
  // Frame numbers come from the bump allocator, so they index directly.
  mutable std::vector<std::unique_ptr<Frame>> frames_;
  uint64_t next_frame_ = 1;  // frame 0 reserved
};

inline void PhysMem::Read(PhysAddr pa, std::span<std::byte> out) const {
  size_t done = 0;
  while (done < out.size()) {
    const Frame& f = FrameFor(pa + done);
    uint64_t off = PageOffset(pa + done);
    size_t chunk = std::min<size_t>(out.size() - done, kPageSize - off);
    std::memcpy(out.data() + done, f.data() + off, chunk);
    done += chunk;
  }
}

inline void PhysMem::Write(PhysAddr pa, std::span<const std::byte> data) {
  size_t done = 0;
  while (done < data.size()) {
    Frame& f = FrameFor(pa + done);
    uint64_t off = PageOffset(pa + done);
    size_t chunk = std::min<size_t>(data.size() - done, kPageSize - off);
    std::memcpy(f.data() + off, data.data() + done, chunk);
    done += chunk;
  }
}

inline void PhysMem::Copy(PhysAddr dst, PhysAddr src, uint64_t size) {
  uint64_t done = 0;
  while (done < size) {
    const uint64_t src_off = PageOffset(src + done);
    const uint64_t dst_off = PageOffset(dst + done);
    const uint64_t chunk =
        std::min({size - done, kPageSize - src_off, kPageSize - dst_off});
    // Frames are separate heap objects, so the first reference survives the
    // second lookup growing the frame table.
    Frame& to = FrameFor(dst + done);
    std::memmove(to.data() + dst_off, FrameFor(src + done).data() + src_off, chunk);
    done += chunk;
  }
}

}  // namespace dipc::hw

#endif  // DIPC_HW_PHYS_MEM_H_
