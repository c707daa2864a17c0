#include "drivers/corpus.h"

#include <functional>

#include "drivers/model_render.h"
#include "drivers/model_runtime.h"
#include "vnet/inet.h"

namespace kernelgpt::drivers {

namespace {

using R = RegistrationStyle;
using D = DispatchStyle;

/// Attaches a Table 4 bug to the last command of a generic driver.
void
AttachBug(DeviceSpec* dev, BugSpec bug)
{
  if (dev->primary.ioctls.empty()) return;
  // Attach to the last command so partial "existing" specs miss it.
  dev->primary.ioctls.back().bug = std::move(bug);
}

/// Attaches a long-known ("legacy") bug to the first command of a driver
/// whose existing Syzkaller spec covers it — these are the crashes the
/// Table 3 baselines keep rediscovering.
void
AttachLegacyBug(DeviceSpec* dev, std::string title,
                BugSpec::Trigger trigger = BugSpec::Trigger::kAlways)
{
  if (dev->primary.ioctls.empty()) return;
  BugSpec bug;
  bug.title = std::move(title);
  bug.confirmed = true;
  bug.fixed = false;
  bug.legacy = true;
  bug.trigger = trigger;
  IoctlSpec& first = dev->primary.ioctls.front();
  if (trigger == BugSpec::Trigger::kFieldZero ||
      trigger == BugSpec::Trigger::kFieldAtLeast) {
    // Pick the first plain scalar field of the arg struct as the trigger.
    for (const StructSpec& st : dev->structs) {
      if (st.name != first.arg_struct) continue;
      for (const FieldSpec& f : st.fields) {
        if (f.kind == FieldSpec::Kind::kScalar) {
          bug.field = f.name;
          break;
        }
      }
    }
    if (bug.field.empty()) bug.trigger = BugSpec::Trigger::kAlways;
    bug.value = 0x100000;
  }
  if (trigger == BugSpec::Trigger::kSequence) {
    bug.prior_cmd = dev->primary.ioctls.front().macro;
    // Fire on the second command instead, still within existing specs.
    if (dev->primary.ioctls.size() > 1) {
      dev->primary.ioctls[1].bug = std::move(bug);
      return;
    }
    bug.trigger = BugSpec::Trigger::kAlways;
  }
  first.bug = std::move(bug);
}

}  // namespace

Corpus::Corpus()
{
  // -- Hand-written paper modules -----------------------------------------
  devices_.push_back(MakeDeviceMapper());
  devices_.push_back(MakeCec());
  devices_.push_back(MakeKvm());
  devices_.push_back(MakeBtrfsControl());
  devices_.push_back(MakeUbi());
  devices_.push_back(MakeDvb());
  devices_.push_back(MakeUvc());
  devices_.push_back(MakeVep());
  devices_.push_back(MakePtp());
  devices_.push_back(MakeLoopControl());
  devices_.push_back(MakeLoop0());
  devices_.push_back(MakeVhostNet());
  devices_.push_back(MakeVhostVsock());
  devices_.push_back(MakeSnapshot());

  // -- Generic Table 5 drivers ---------------------------------------------
  devices_.push_back(MakeGenericDriver("capi20", "capi20", "/dev/capi20",
                                       0x43, R::kMiscName, D::kDirectSwitch,
                                       1, 13, 0.9, 1));
  devices_.push_back(MakeGenericDriver("controlc0", "controlC#",
                                       "/dev/controlC0", 0x55,
                                       R::kMiscNodename, D::kDirectSwitch, 2,
                                       14, 1.0, 2));
  devices_.push_back(MakeGenericDriver("fuse", "fuse", "/dev/fuse", 0xe5,
                                       R::kMiscName, D::kDirectSwitch, 1, 1,
                                       1.0, 3));
  devices_.push_back(MakeGenericDriver("hpet", "hpet", "/dev/hpet", 0x68,
                                       R::kMiscName, D::kDirectSwitch, 1, 6,
                                       0.15, 4));
  devices_.push_back(MakeGenericDriver("i2c0", "i2c-#", "/dev/i2c-0", 0x07,
                                       R::kDeviceCreate, D::kIocNrSwitch, 2,
                                       9, 1.0, 5));
  devices_.push_back(MakeGenericDriver("misdntimer", "mISDNtimer",
                                       "/dev/mISDNtimer", 0x49, R::kMiscName,
                                       D::kDirectSwitch, 1, 2, 1.0, 6));
  devices_.push_back(MakeGenericDriver("nbd0", "nbd#", "/dev/nbd0", 0xab,
                                       R::kDeviceCreate, D::kDirectSwitch, 2,
                                       11, 0.85, 7));
  devices_.push_back(MakeGenericDriver("nvram", "nvram", "/dev/nvram", 0x70,
                                       R::kMiscName, D::kDirectSwitch, 1, 5,
                                       0.2, 8));
  devices_.push_back(MakeGenericDriver("ppp", "ppp", "/dev/ppp", 0x74,
                                       R::kMiscName, D::kDirectSwitch, 2, 30,
                                       0.7, 9));
  devices_.push_back(MakeGenericDriver("ptmx", "ptmx", "/dev/ptmx", 0x54,
                                       R::kMiscName, D::kDirectSwitch, 1, 28,
                                       1.0, 10));
  devices_.push_back(MakeGenericDriver("qat_adf_ctl", "qat_adf_ctl",
                                       "/dev/qat_adf_ctl", 0xca,
                                       R::kMiscName, D::kTableLookup, 1, 5,
                                       1.0, 11));
  devices_.push_back(MakeGenericDriver("rfkill", "rfkill", "/dev/rfkill",
                                       0x52, R::kMiscName, D::kDirectSwitch,
                                       1, 3, 1.0, 12));
  devices_.push_back(MakeGenericDriver("rtc0", "rtc#", "/dev/rtc0", 0x70,
                                       R::kDeviceCreate, D::kDirectSwitch, 1,
                                       16, 0.8, 13));
  devices_.push_back(MakeGenericDriver("sg0", "sg#", "/dev/sg0", 0x22,
                                       R::kDeviceCreate, D::kDirectSwitch, 2,
                                       40, 0.95, 14));
  {
    DeviceSpec sr = MakeGenericDriver("sr0", "sr#", "/dev/sr0", 0x53,
                                      R::kDeviceCreate, D::kIocNrSwitch, 2,
                                      55, 0.02, 15);
    // Block-layer throttling hang, reachable only through the commands
    // Syzkaller's near-empty sr spec lacks (Table 4).
    BugSpec bug;
    bug.title = "INFO: task hung in __rq_qos_throttle";
    bug.confirmed = false;
    bug.fixed = false;
    bug.trigger = BugSpec::Trigger::kSequence;
    bug.prior_cmd = sr.primary.ioctls[1].macro;
    AttachBug(&sr, std::move(bug));
    devices_.push_back(std::move(sr));
  }
  devices_.push_back(MakeGenericDriver("timer", "timer", "/dev/snd/timer",
                                       0x54, R::kMiscNodename,
                                       D::kDirectSwitch, 2, 16, 1.0, 16));
  devices_.push_back(MakeGenericDriver("udmabuf", "udmabuf", "/dev/udmabuf",
                                       0x75, R::kMiscName, D::kDirectSwitch,
                                       1, 3, 1.0, 17));
  devices_.push_back(MakeGenericDriver("uinput", "uinput", "/dev/uinput",
                                       0x55, R::kMiscName, D::kDirectSwitch,
                                       1, 20, 1.0, 18));
  devices_.push_back(MakeGenericDriver("usbmon0", "usbmon#", "/dev/usbmon0",
                                       0x92, R::kDeviceCreate,
                                       D::kDirectSwitch, 2, 8, 1.0, 19));
  devices_.push_back(MakeGenericDriver("vmci", "vmci", "/dev/vmci", 0x07,
                                       R::kMiscName, D::kDirectSwitch, 1, 17,
                                       1.0, 20));
  devices_.push_back(MakeGenericDriver("vsock", "vsock", "/dev/vsock", 0x07,
                                       R::kMiscName, D::kDirectSwitch, 1, 2,
                                       0.5, 21));

  // -- Legacy bugs the existing Syzkaller specs already reach --------------
  struct LegacyPlan {
    const char* id;
    const char* title;
    BugSpec::Trigger trigger;
  };
  const LegacyPlan legacy_plan[] = {
      {"ptmx", "WARNING in ptmx_set_termios", BugSpec::Trigger::kFieldZero},
      {"uinput", "KASAN: slab-out-of-bounds in uinput_events",
       BugSpec::Trigger::kFieldAtLeast},
      {"ppp", "memory leak in ppp_register_channel",
       BugSpec::Trigger::kSequence},
      {"vmci", "WARNING in vmci_qp_broker_alloc",
       BugSpec::Trigger::kFieldZero},
      {"sg0", "KASAN: use-after-free in sg_remove_sfp",
       BugSpec::Trigger::kSequence},
      {"rtc0", "WARNING in rtc_set_alarm", BugSpec::Trigger::kFieldZero},
      {"capi20", "general protection fault in capi_unregister",
       BugSpec::Trigger::kSequence},
      {"usbmon0", "INFO: task hung in mon_bin_vma_close",
       BugSpec::Trigger::kFieldAtLeast},
      {"loop0", "WARNING in loop_set_status", BugSpec::Trigger::kFieldZero},
      {"timer", "KASAN: use-after-free in snd_timer_close",
       BugSpec::Trigger::kSequence},
      {"udmabuf", "BUG: corrupted list in udmabuf_release",
       BugSpec::Trigger::kAlways},
      {"controlc0", "WARNING in snd_ctl_elem_add",
       BugSpec::Trigger::kFieldAtLeast},
      {"rfkill", "memory leak in rfkill_register",
       BugSpec::Trigger::kAlways},
      {"i2c0", "WARNING in i2c_transfer_buffer",
       BugSpec::Trigger::kFieldZero},
      {"hpet", "divide error in hpet_interval", BugSpec::Trigger::kFieldZero},
      {"nbd0", "INFO: task hung in nbd_start_device",
       BugSpec::Trigger::kSequence},
  };
  for (const LegacyPlan& plan : legacy_plan) {
    for (auto& d : devices_) {
      if (d.id == plan.id) AttachLegacyBug(&d, plan.title, plan.trigger);
    }
  }

  // -- Fillers for the Table 1 landscape ------------------------------------
  {
    DeviceSpec d = MakeGenericDriver("gup_test", "gup_test", "/dev/gup_test",
                                     0x67, R::kMiscName, D::kDirectSwitch, 1,
                                     4, 0.0, 22);
    d.excluded = true;  // Debug driver (the paper's _test filter).
    devices_.push_back(std::move(d));
  }
  {
    DeviceSpec d = MakeGenericDriver("fpga_dbg", "fpga_dbg", "/dev/fpga_dbg",
                                     0xb8, R::kMiscName, D::kDirectSwitch, 1,
                                     6, 0.0, 23);
    d.excluded = true;  // Requires specific hardware.
    devices_.push_back(std::move(d));
  }
  {
    DeviceSpec d = MakeGenericDriver("mei0", "mei#", "/dev/mei0", 0x48,
                                     R::kDeviceCreate, D::kDirectSwitch, 2, 7,
                                     0.0, 24);
    d.loaded_in_syzbot = false;
    devices_.push_back(std::move(d));
  }
  {
    DeviceSpec d = MakeGenericDriver("tape0", "tape#", "/dev/tape0", 0x6d,
                                     R::kDeviceCreate, D::kTableLookup, 1, 9,
                                     0.0, 25);
    d.loaded_in_syzbot = false;
    devices_.push_back(std::move(d));
  }
  {
    DeviceSpec d = MakeGenericDriver("xdma0", "xdma#", "/dev/xdma0", 0xba,
                                     R::kDeviceCreate, D::kDirectSwitch, 3, 8,
                                     0.0, 26);
    d.loaded_in_syzbot = false;
    devices_.push_back(std::move(d));
  }
  {
    DeviceSpec d = MakeGenericDriver("watchdog0", "watchdog#",
                                     "/dev/watchdog0", 0x57, R::kDeviceCreate,
                                     D::kDirectSwitch, 1, 7, 0.6, 27);
    devices_.push_back(std::move(d));
  }
  {
    DeviceSpec d = MakeGenericDriver("mbox0", "mbox#", "/dev/mbox0", 0x6d,
                                     R::kDeviceCreate, D::kIocNrSwitch, 2, 6,
                                     0.0, 28);
    devices_.push_back(std::move(d));
  }
  {
    DeviceSpec d = MakeGenericDriver("fsverity", "fsverity", "/dev/fsverity",
                                     0x76, R::kMiscName, D::kDirectSwitch, 1,
                                     5, 0.3, 29);
    devices_.push_back(std::move(d));
  }

  // -- Undescribed drivers with idioms outside SyzDescribe's rule set ------
  struct HardFiller {
    const char* id;
    const char* display;
    const char* node;
    uint64_t magic;
    R reg;
    D dispatch;
    int depth;
    int cmds;
    uint64_t seed;
  };
  const HardFiller hard_fillers[] = {
      {"adi0", "adi#", "/dev/adi0", 0xa1, R::kDeviceCreate, D::kTableLookup, 1, 7, 30},
      {"bfin", "bfin", "/dev/bfin/ctl", 0xa2, R::kMiscNodename, D::kDirectSwitch, 1, 5, 31},
      {"cxl_mem0", "cxl_mem#", "/dev/cxl_mem0", 0xa3, R::kDeviceCreate, D::kDirectSwitch, 4, 8, 32},
      {"dax0", "dax#", "/dev/dax0", 0xa4, R::kDeviceCreate, D::kIocNrSwitch, 2, 6, 33},
      {"edac", "edac", "/dev/edac", 0xa5, R::kMiscName, D::kTableLookup, 1, 9, 34},
      {"fsl_mc", "fsl-mc", "/dev/fsl/mc", 0xa6, R::kMiscNodename, D::kIocNrSwitch, 2, 7, 35},
      {"gnss0", "gnss#", "/dev/gnss0", 0xa7, R::kDeviceCreate, D::kIocNrSwitch, 3, 5, 36},
      {"hsi0", "hsi#", "/dev/hsi0", 0xa8, R::kDeviceCreate, D::kTableLookup, 1, 8, 37},
      {"ipmi0", "ipmi#", "/dev/ipmi/0", 0xa9, R::kMiscNodename, D::kDirectSwitch, 1, 10, 38},
      {"jsm0", "jsm#", "/dev/jsm0", 0xaa, R::kDeviceCreate, D::kIocNrSwitch, 2, 6, 39},
      {"kfd", "kfd", "/dev/kfd", 0xb1, R::kMiscName, D::kTableLookup, 2, 12, 40},
      {"lirc0", "lirc#", "/dev/lirc/0", 0xb2, R::kMiscNodename, D::kIocNrSwitch, 2, 7, 41},
      {"mtdchar0", "mtd#", "/dev/mtd0", 0xb3, R::kDeviceCreate, D::kTableLookup, 1, 11, 42},
      {"nilfs", "nilfs-ctl", "/dev/nilfs/ctl", 0xb4, R::kMiscNodename, D::kTableLookup, 1, 6, 43},
  };
  for (const HardFiller& f : hard_fillers) {
    devices_.push_back(MakeGenericDriver(f.id, f.display, f.node, f.magic,
                                         f.reg, f.dispatch, f.depth, f.cmds,
                                         0.0, f.seed));
  }

  // -- Socket families -------------------------------------------------------
  sockets_.push_back(MakeCaifSocket());
  sockets_.push_back(MakeL2tpIp6Socket());
  sockets_.push_back(MakeLlcSocket());
  sockets_.push_back(MakeMptcpSocket());
  sockets_.push_back(MakePacketSocket());
  sockets_.push_back(MakePhonetSocket());
  sockets_.push_back(MakePppol2tpSocket());
  sockets_.push_back(MakeRdsSocket());
  sockets_.push_back(MakeRfcommSocket());
  sockets_.push_back(MakeScoSocket());
  sockets_.push_back(MakeTcpSocket());
  sockets_.push_back(MakeUdpSocket());
}

const Corpus&
Corpus::Instance()
{
  static const Corpus corpus;
  return corpus;
}

const DeviceSpec*
Corpus::FindDevice(const std::string& id) const
{
  for (const auto& d : devices_) {
    if (d.id == id) return &d;
  }
  return nullptr;
}

const SocketSpec*
Corpus::FindSocket(const std::string& id) const
{
  for (const auto& s : sockets_) {
    if (s.id == id) return &s;
  }
  return nullptr;
}

std::vector<const DeviceSpec*>
Corpus::LoadedDevices() const
{
  std::vector<const DeviceSpec*> out;
  for (const auto& d : devices_) {
    if (d.loaded_in_syzbot && !d.excluded) out.push_back(&d);
  }
  return out;
}

std::vector<const SocketSpec*>
Corpus::LoadedSockets() const
{
  std::vector<const SocketSpec*> out;
  for (const auto& s : sockets_) {
    if (s.loaded_in_syzbot && !s.excluded) out.push_back(&s);
  }
  return out;
}

ksrc::DefinitionIndex
Corpus::BuildIndex() const
{
  ksrc::DefinitionIndex index;
  for (const auto& d : devices_) {
    index.AddSource(RenderDeviceSource(d), "drivers/" + d.id + ".c");
  }
  for (const auto& s : sockets_) {
    index.AddSource(RenderSocketSource(s), "net/" + s.id + ".c");
  }
  index.ResolveMacros();
  return index;
}

namespace {

/// One boot step: registers a thin per-kernel module over the immutable
/// tables the step holds.
using BootStep = std::function<void(vkernel::KernelModel*)>;

/// The corpus boot image, one step per loaded module in registration
/// order (devices, then socket families, each in corpus order). This is
/// the klee-mc SysModel split: the tables are built here once per
/// process, and each boot only runs the steps, allocating the per-kernel
/// handler pools and vnet port spaces.
std::vector<BootStep>
BuildBootImage(const Corpus& corpus)
{
  std::vector<BootStep> steps;
  for (const DeviceSpec& d : corpus.devices()) {
    if (!d.loaded_in_syzbot || d.excluded) continue;
    steps.push_back([tables = BuildDeviceTables(d)](vkernel::KernelModel* k) {
      k->RegisterDevice(MakeModelDevice(tables));
    });
  }
  for (const SocketSpec& s : corpus.sockets()) {
    if (!s.loaded_in_syzbot || s.excluded) continue;
    if (!s.vnet) {
      steps.push_back(
          [tables = BuildSocketTables(s)](vkernel::KernelModel* k) {
            k->RegisterSocketFamily(MakeModelSocketFamily(tables));
          });
    } else if (s.id == "tcp") {
      // Stateful vnet families; semantics follow each kernel's policy.
      steps.push_back(
          [tables = vnet::BuildTcpTables(s)](vkernel::KernelModel* k) {
            k->RegisterSocketFamily(vnet::MakeTcpFamily(tables));
          });
    } else {
      steps.push_back(
          [tables = vnet::BuildUdpTables(s)](vkernel::KernelModel* k) {
            k->RegisterSocketFamily(vnet::MakeUdpFamily(tables));
          });
    }
  }
  return steps;
}

}  // namespace

void
Corpus::RegisterAll(vkernel::KernelModel* kernel) const
{
  // Built by the first boot; a function-local static is initialized
  // exactly once even when workers boot concurrently, and the image is
  // read-only from then on, so every thread shares it without locking.
  static const std::vector<BootStep> image = BuildBootImage(*this);
  for (const BootStep& step : image) step(kernel);
}

}  // namespace kernelgpt::drivers
