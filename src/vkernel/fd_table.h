/// \file
/// Per-kernel virtual file-descriptor translation table, in the style of
/// libriscv's FileDescriptors: each Kernel owns its fd space and its
/// policy decides how virtual descriptor numbers are laid out. The
/// reference (strict) layout allocates files and sockets from one
/// monotonic counter starting at 3 — exactly the numbering the
/// pre-refactor flat table produced — so unified-layout lookups stay a
/// bounds check plus an index. Split layouts give files and sockets disjoint number
/// ranges with independent counters, which exercises descriptor
/// translation (lookups can no longer assume vfd == base + slot).

#ifndef KERNELGPT_VKERNEL_FD_TABLE_H_
#define KERNELGPT_VKERNEL_FD_TABLE_H_

#include <cstddef>
#include <memory>
#include <vector>

#include "vkernel/file.h"

namespace kernelgpt::vkernel {

/// Where a kernel's virtual descriptor numbers start. Equal bases select
/// the unified (reference) layout; distinct bases give each class its
/// own range and counter.
struct FdLayout {
  long file_base = 3;
  long socket_base = 3;

  bool unified() const { return file_base == socket_base; }
};

/// Observable shape of a kernel's fd table: how many descriptors of each
/// class are still open. The differential oracle compares shapes (not
/// raw descriptor values, which are layout-dependent by design).
struct FdShape {
  size_t files_open = 0;
  size_t sockets_open = 0;

  bool operator==(const FdShape& o) const {
    return files_open == o.files_open && sockets_open == o.sockets_open;
  }
  bool operator!=(const FdShape& o) const { return !(*this == o); }
};

/// One open-descriptor slot.
struct FdEntry {
  std::shared_ptr<FileHandler> handler;  ///< Null after close.
  bool is_socket = false;
};

/// Flat per-program descriptor table. Slots are allocated monotonically
/// within a program and never reused (matching the historical numbering),
/// so a closed descriptor keeps its slot with a null handler.
class FdTable {
 public:
  FdTable() = default;
  explicit FdTable(FdLayout layout) : layout_(layout) {}

  const FdLayout& layout() const { return layout_; }

  /// Installs a handler under a fresh virtual descriptor and returns it.
  long Install(std::shared_ptr<FileHandler> handler, bool is_socket) {
    long vfd;
    if (layout_.unified()) {
      vfd = layout_.file_base + static_cast<long>(entries_.size());
    } else if (is_socket) {
      vfd = layout_.socket_base + next_socket_++;
    } else {
      vfd = layout_.file_base + next_file_++;
    }
    entries_.push_back({std::move(handler), is_socket});
    vfds_.push_back(vfd);
    return vfd;
  }

  /// Slot index of a virtual descriptor; npos when it was never issued.
  static constexpr size_t kNoSlot = static_cast<size_t>(-1);
  size_t SlotOf(long vfd) const {
    if (layout_.unified()) {
      const size_t idx = static_cast<size_t>(vfd - layout_.file_base);
      if (vfd < layout_.file_base || idx >= entries_.size()) return kNoSlot;
      return idx;
    }
    // Split layouts translate by scan; tables hold a handful of entries
    // per program, and scan order is deterministic.
    for (size_t i = 0; i < vfds_.size(); ++i) {
      if (vfds_[i] == vfd) return i;
    }
    return kNoSlot;
  }

  FdEntry* Find(long vfd) {
    const size_t slot = SlotOf(vfd);
    return slot == kNoSlot ? nullptr : &entries_[slot];
  }
  const FdEntry* Find(long vfd) const {
    const size_t slot = SlotOf(vfd);
    return slot == kNoSlot ? nullptr : &entries_[slot];
  }

  std::vector<FdEntry>& entries() { return entries_; }
  const std::vector<FdEntry>& entries() const { return entries_; }

  bool empty() const { return entries_.empty(); }

  /// Drops all slots and restarts descriptor numbering (program reset).
  void Clear() {
    entries_.clear();
    vfds_.clear();
    next_file_ = 0;
    next_socket_ = 0;
  }

  FdShape Shape() const {
    FdShape shape;
    for (const FdEntry& entry : entries_) {
      if (!entry.handler) continue;
      if (entry.is_socket) {
        ++shape.sockets_open;
      } else {
        ++shape.files_open;
      }
    }
    return shape;
  }

 private:
  FdLayout layout_;
  std::vector<FdEntry> entries_;
  std::vector<long> vfds_;  ///< Parallel to entries_: slot -> vfd.
  long next_file_ = 0;
  long next_socket_ = 0;
};

}  // namespace kernelgpt::vkernel

#endif  // KERNELGPT_VKERNEL_FD_TABLE_H_
