/// \file
/// Runtime interpretation of driver/socket models: turns a DeviceSpec or
/// SocketSpec into live vkernel drivers. The interpreter enforces exactly
/// the validation logic the rendered source describes (same command
/// matching, same copy sizes, same checks, same bugs), so source analysis
/// and runtime behaviour cannot diverge.

#ifndef KERNELGPT_DRIVERS_MODEL_RUNTIME_H_
#define KERNELGPT_DRIVERS_MODEL_RUNTIME_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "drivers/driver_model.h"
#include "vkernel/kernel.h"

namespace kernelgpt::drivers {

/// Dense per-module block-id layout (PR 9). Walks a spec in the
/// canonical runtime-build order, assigning each (role, detail, index)
/// tuple a sequential local index, so a module's blocks pack into
/// contiguous `MakeBlockId` coverage pages — the layout the two-level
/// bitmap was designed for. The runtime and the experiment harness both
/// resolve ids through the same layout, so they cannot diverge; the walk
/// is pure spec order, so ids are stable across runs and processes and
/// the determinism suites keep byte-identical reports.
class BlockLayout {
 public:
  BlockLayout() = default;

  /// Layout of a device spec: open block, then each handler's commands
  /// (dispatch, checks, deep path) in declaration order.
  static BlockLayout ForDevice(const DeviceSpec& dev);

  /// Layout of a socket spec: create block, ioctls, sockopt
  /// pseudo-commands (set then get), then the socket-level ops.
  static BlockLayout ForSocket(const SocketSpec& sock);

  /// Dense id of a (role, detail, index) tuple. A tuple the spec walk
  /// (or Extend) never assigned is a registration error: throws
  /// std::logic_error naming the module and the tuple.
  uint64_t IdOf(const std::string& role, const std::string& detail,
                uint32_t index) const;

  /// Appends one tuple after the canonical walk, for runtimes with
  /// behaviour beyond the declarative spec (the vnet stack claims its
  /// TCP state transitions this way). Call order defines the local
  /// index, so extenders must claim tuples in one fixed order.
  void Extend(const std::string& role, const std::string& detail,
              uint32_t index) {
    Assign(role, detail, index);
  }

  /// Number of distinct blocks the module can produce.
  size_t BlockCount() const { return next_; }

 private:
  explicit BlockLayout(const std::string& module);

  /// Records the next walk tuple (first assignment wins: identical
  /// tuples share one id).
  void Assign(const std::string& role, const std::string& detail,
              uint32_t index);

  std::string module_;
  uint64_t base_ = 0;  ///< StableHash(module): the MakeBlockId namespace.
  std::unordered_map<std::string, uint32_t> slots_;
  uint32_t next_ = 0;
};

/// Total number of distinct coverage blocks a device can produce — used
/// by tests to bound observed coverage.
size_t MaxBlocksOf(const DeviceSpec& dev);

/// The immutable half of a device runtime: the BlockLayout ids and the
/// per-handler command tables (resolved arg structs and layouts, match
/// values, block ids, macro indices). Nothing in it changes after it is
/// built, so one copy is shared read-only by every kernel — and every
/// worker thread — that registers the device. The spec must outlive it.
struct DeviceTables;

/// The immutable half of a declarative socket family runtime: ioctl and
/// sockopt pseudo-command tables, op blocks and the addr-struct layout.
struct SocketTables;

std::shared_ptr<const DeviceTables> BuildDeviceTables(const DeviceSpec& dev);
std::shared_ptr<const SocketTables> BuildSocketTables(const SocketSpec& sock);

/// Creates the per-kernel half of a driver over shared tables: the only
/// module-level state it owns is its handler pool, so registering one
/// allocates a single small object (see Corpus::RegisterAll).
std::unique_ptr<vkernel::DeviceDriver> MakeModelDevice(
    std::shared_ptr<const DeviceTables> tables);
std::unique_ptr<vkernel::SocketFamily> MakeModelSocketFamily(
    std::shared_ptr<const SocketTables> tables);

/// Standalone-spec constructors: build private tables for `dev`/`sock`,
/// then the per-kernel driver over them. The spec must outlive the
/// kernel (corpus specs are stored in a registry).
std::unique_ptr<vkernel::DeviceDriver> MakeModelDevice(const DeviceSpec* dev);
std::unique_ptr<vkernel::SocketFamily> MakeModelSocketFamily(
    const SocketSpec* sock);

}  // namespace kernelgpt::drivers

#endif  // KERNELGPT_DRIVERS_MODEL_RUNTIME_H_
