/// \file
/// The synthetic kernel corpus: every device-driver and socket-family
/// model in the reproduction. This is the stand-in for the Linux 6.7
/// source tree the paper analyzes.
///
/// Hand-written models cover the drivers the paper discusses specifically
/// (device mapper, CEC, KVM, btrfs-control, UBI, DVB, UVC, the USB gadget
/// endpoint, posix-clock) including every Table 4 bug; a deterministic
/// generic builder produces the remaining Table 5 drivers with varied
/// registration/dispatch idioms.

#ifndef KERNELGPT_DRIVERS_CORPUS_H_
#define KERNELGPT_DRIVERS_CORPUS_H_

#include <memory>
#include <string>
#include <vector>

#include "drivers/driver_model.h"
#include "ksrc/definition_index.h"
#include "vkernel/kernel.h"

namespace kernelgpt::drivers {

/// Immutable registry of all models. Obtain via Corpus::Instance().
class Corpus {
 public:
  /// The singleton corpus (built once, deterministic).
  static const Corpus& Instance();

  const std::vector<DeviceSpec>& devices() const { return devices_; }
  const std::vector<SocketSpec>& sockets() const { return sockets_; }

  const DeviceSpec* FindDevice(const std::string& id) const;
  const SocketSpec* FindSocket(const std::string& id) const;

  /// Devices/sockets that are loaded under the syzbot config and not
  /// excluded — the generation targets of §5.1.
  std::vector<const DeviceSpec*> LoadedDevices() const;
  std::vector<const SocketSpec*> LoadedSockets() const;

  /// Parses every rendered source file into one definition index (the
  /// "kernel codebase" input of Figure 4).
  ksrc::DefinitionIndex BuildIndex() const;

  /// Registers runtime drivers for all loaded modules into a kernel. The
  /// first call builds every module's immutable tables once per process;
  /// each call then only allocates thin per-kernel drivers over them, so
  /// it is cheap and safe to call from concurrent worker threads.
  void RegisterAll(vkernel::KernelModel* kernel) const;

 private:
  Corpus();
  std::vector<DeviceSpec> devices_;
  std::vector<SocketSpec> sockets_;
};

/// Builds a filler driver with deterministic structs/commands derived from
/// `seed`. Used for Table 5 rows without paper-specific behaviour.
DeviceSpec MakeGenericDriver(const std::string& id,
                             const std::string& display_name,
                             const std::string& dev_node, uint64_t magic,
                             RegistrationStyle reg, DispatchStyle dispatch,
                             int delegation_depth, int num_cmds,
                             double existing_fraction, uint64_t seed);

// Hand-written models (one function per paper-relevant module).
DeviceSpec MakeDeviceMapper();
DeviceSpec MakeCec();
DeviceSpec MakeKvm();
DeviceSpec MakeBtrfsControl();
DeviceSpec MakeUbi();
DeviceSpec MakeDvb();
DeviceSpec MakeUvc();
DeviceSpec MakeVep();
DeviceSpec MakePtp();
DeviceSpec MakeLoopControl();
DeviceSpec MakeLoop0();
DeviceSpec MakeVhostNet();
DeviceSpec MakeVhostVsock();
DeviceSpec MakeSnapshot();

// Socket families (Table 6).
SocketSpec MakeRdsSocket();
SocketSpec MakeL2tpIp6Socket();
SocketSpec MakeLlcSocket();
SocketSpec MakeMptcpSocket();
SocketSpec MakePacketSocket();
SocketSpec MakePhonetSocket();
SocketSpec MakePppol2tpSocket();
SocketSpec MakeRfcommSocket();
SocketSpec MakeScoSocket();
SocketSpec MakeCaifSocket();

// Stateful vnet families (src/vnet/): declarative specs whose runtime is
// the in-process TCP/UDP stack rather than ModelSocketFamily.
SocketSpec MakeTcpSocket();
SocketSpec MakeUdpSocket();

}  // namespace kernelgpt::drivers

#endif  // KERNELGPT_DRIVERS_CORPUS_H_
