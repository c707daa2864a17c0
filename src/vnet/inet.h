/// \file
/// The vnet stack: a deterministic, in-process stateful TCP/UDP network
/// stack registered as first-class socket families of the virtual
/// kernel. Unlike the declarative ModelSocketFamily runtimes — which
/// validate arguments but carry no protocol state — vnet sockets run a
/// real per-socket TCP state machine (LISTEN/accept backlogs, loopback
/// peer pairing, half-close, TIME_WAIT port residue) and bounded UDP
/// datagram queues, so the fuzzer's coverage signal extends into state
/// transitions and its crash signal gains a new class: state-machine
/// violations, raised when a program drives an endpoint through an
/// illegal transition (listen on an established socket, connect on a
/// listener...).
///
/// The families still interpret the declarative tcp/udp SocketSpecs for
/// everything the specs describe — argument structs, validation checks,
/// sockopt numbers, dense coverage blocks — so spec generation,
/// rendered source, and runtime behaviour stay mutually consistent;
/// vnet extends the spec's BlockLayout with transition and edge tuples
/// for the behaviour only a stateful runtime has.

#ifndef KERNELGPT_VNET_INET_H_
#define KERNELGPT_VNET_INET_H_

#include <memory>

#include "drivers/driver_model.h"
#include "drivers/model_runtime.h"
#include "vkernel/file.h"

namespace kernelgpt::vnet {

/// Dense block layout of a vnet family: the spec's canonical ForSocket
/// walk extended with the stack's transition ("trans", "FROM->TO") and
/// edge ("edge", name) tuples, claimed in one fixed order. Tests and
/// the experiment harness resolve ids through the same function as the
/// runtime, so they cannot diverge.
drivers::BlockLayout TcpBlockLayout(const drivers::SocketSpec& spec);
drivers::BlockLayout UdpBlockLayout(const drivers::SocketSpec& spec);

/// The immutable half of a vnet family: the spec's addr layout, op,
/// sockopt and edge blocks (plus the transition blocks for TCP). Built
/// once per spec and shared read-only by every kernel and worker thread;
/// the per-kernel family holds only the port namespace and the
/// bound/half-closed endpoint maps. The spec must outlive it.
struct TcpTables;
struct UdpTables;

/// Builds the tables of the stateful TCP family for `spec` (must be the
/// corpus "tcp" spec shape: AF_INET, SOCK_STREAM, addr struct with
/// family/port fields).
std::shared_ptr<const TcpTables> BuildTcpTables(
    const drivers::SocketSpec& spec);

/// Builds the tables of the stateful UDP family for `spec`.
std::shared_ptr<const UdpTables> BuildUdpTables(
    const drivers::SocketSpec& spec);

/// Creates a per-kernel TCP/UDP family over shared tables. The family
/// reads the net_* knobs of whichever kernel calls it (kernel.policy()).
std::unique_ptr<vkernel::SocketFamily> MakeTcpFamily(
    std::shared_ptr<const TcpTables> tables);
std::unique_ptr<vkernel::SocketFamily> MakeUdpFamily(
    std::shared_ptr<const UdpTables> tables);

/// Standalone-spec constructors: build private tables for `spec`, then
/// the per-kernel family over them. The spec must outlive the family.
std::unique_ptr<vkernel::SocketFamily> MakeTcpFamily(
    const drivers::SocketSpec* spec);
std::unique_ptr<vkernel::SocketFamily> MakeUdpFamily(
    const drivers::SocketSpec* spec);

/// Prefix of every state-machine-violation crash title; the suffix
/// names the operation and the state it was illegal in, so distinct
/// illegal transitions dedupe into distinct crash classes.
inline constexpr char kViolationPrefix[] = "vnet: state-machine violation: ";

}  // namespace kernelgpt::vnet

#endif  // KERNELGPT_VNET_INET_H_
