// Unit tests for the Host (port demux, CPU model, writability) and the
// UDP endpoint over a two-host network.
#include <gtest/gtest.h>

#include <any>
#include <cstddef>
#include <cstdint>

#include "host/host.h"
#include "net/udp.h"
#include "sim/node.h"
#include "sim/simulation.h"

namespace fobs {
namespace {

using host::CpuModel;
using host::Host;
using host::HostConfig;
using net::UdpEndpoint;
using sim::LinkConfig;
using sim::Network;
using sim::Simulation;
using util::DataRate;
using util::DataSize;
using util::Duration;

HostConfig named_host(const char* name) {
  HostConfig config;
  config.name = name;
  return config;
}

/// Two hosts joined by a pair of direct links (no routers).
struct TwoHosts {
  Simulation sim;
  Network net{sim};
  Host* a;
  Host* b;
  sim::Link* ab;
  sim::Link* ba;

  explicit TwoHosts(DataRate rate = DataRate::megabits_per_second(100),
                    std::int64_t queue = 64 * 1024) {
    a = &Host::create(net, named_host("a"));
    b = &Host::create(net, named_host("b"));
    LinkConfig cfg;
    cfg.rate = rate;
    cfg.queue_capacity_bytes = queue;
    cfg.propagation_delay = Duration::microseconds(100);
    ab = &net.add_link(cfg);
    ba = &net.add_link(cfg);
    ab->set_sink(b);
    ba->set_sink(a);
    a->set_egress(ab);
    b->set_egress(ba);
  }
};

TEST(CpuModel, CostsScaleWithPayload) {
  CpuModel cpu;
  cpu.per_packet_send = Duration::microseconds(5);
  cpu.per_kb_send = Duration::microseconds(2);
  EXPECT_EQ(cpu.send_cost(DataSize::bytes(1024)).us(), 7);
  EXPECT_EQ(cpu.send_cost(DataSize::bytes(0)).us(), 5);
  EXPECT_EQ(cpu.send_cost(DataSize::bytes(2048)).us(), 9);
  cpu.per_packet_recv = Duration::microseconds(10);
  cpu.per_kb_recv = Duration::microseconds(4);
  EXPECT_EQ(cpu.recv_cost(DataSize::bytes(512)).us(), 12);
}

TEST(Host, EphemeralPortsAreUnique) {
  TwoHosts world;
  UdpEndpoint e1(*world.a);
  UdpEndpoint e2(*world.a);
  UdpEndpoint e3(*world.a);
  EXPECT_NE(e1.port(), e2.port());
  EXPECT_NE(e2.port(), e3.port());
}

TEST(Host, UnboundPortCountsDrops) {
  TwoHosts world;
  UdpEndpoint sender(*world.a);
  sender.send_to(world.b->id(), 4242, 100, std::any{});
  world.sim.run();
  EXPECT_EQ(world.b->no_port_drops(), 1u);
}

TEST(Host, SendStampsSourceAndUid) {
  TwoHosts world;
  UdpEndpoint sender(*world.a);
  UdpEndpoint receiver(*world.b, 5000);
  sender.send_to(world.b->id(), 5000, 64, std::any{1});
  sender.send_to(world.b->id(), 5000, 64, std::any{2});
  world.sim.run();
  EXPECT_EQ(receiver.buffered_datagrams(), 2u);
  auto p1 = receiver.try_recv();
  auto p2 = receiver.try_recv();
  ASSERT_TRUE(p1 && p2);
  EXPECT_EQ(p1->src, world.a->id());
  EXPECT_EQ(p1->src_port, sender.port());
  EXPECT_NE(p1->uid, p2->uid);
  // Oldest first, and the buffer is empty once both are taken.
  EXPECT_EQ(std::any_cast<int>(p1->payload), 1);
  EXPECT_EQ(std::any_cast<int>(p2->payload), 2);
  EXPECT_FALSE(receiver.try_recv().has_value());
  EXPECT_EQ(receiver.buffered_bytes(), 0);
}

TEST(Udp, DeliversPayloadAndCountsBytes) {
  TwoHosts world;
  UdpEndpoint sender(*world.a);
  UdpEndpoint receiver(*world.b, 5000);
  EXPECT_TRUE(sender.send_to(world.b->id(), 5000, 1000, std::string("hello")));
  world.sim.run();
  ASSERT_TRUE(receiver.has_data());
  auto pkt = receiver.try_recv();
  ASSERT_TRUE(pkt.has_value());
  EXPECT_EQ(std::any_cast<std::string>(pkt->payload), "hello");
  EXPECT_EQ(pkt->size_bytes, 1000 + sim::kUdpIpOverheadBytes);
  EXPECT_EQ(receiver.stats().datagrams_received, 1u);
  EXPECT_EQ(receiver.stats().bytes_received, 1000);
  EXPECT_EQ(sender.stats().datagrams_sent, 1u);
}

TEST(Udp, SendWouldBlockWhenNicFull) {
  TwoHosts world(DataRate::megabits_per_second(1), /*queue=*/4096);
  UdpEndpoint sender(*world.a);
  UdpEndpoint receiver(*world.b, 5000);
  int accepted = 0;
  while (sender.send_to(world.b->id(), 5000, 1400, std::any{})) ++accepted;
  EXPECT_GT(accepted, 0);
  EXPECT_EQ(sender.stats().datagrams_sent, static_cast<std::uint64_t>(accepted));
  EXPECT_EQ(sender.stats().send_would_block, 1u);  // one per refused datagram
  EXPECT_FALSE(sender.writable(1400));
  // Once the queue drains, writability returns.
  world.sim.run();
  EXPECT_TRUE(sender.writable(1400));
}

TEST(Udp, RefusedDatagramIsAcceptedOnceTheQueueDrains) {
  TwoHosts world(DataRate::megabits_per_second(1), /*queue=*/4096);
  UdpEndpoint sender(*world.a);
  UdpEndpoint receiver(*world.b, 5000, 1024 * 1024);
  int next = 0;
  while (sender.send_to(world.b->id(), 5000, 1400, std::any{next})) ++next;
  ASSERT_GT(next, 0);
  world.sim.run();
  // The refused datagram goes out as it is once the queue drains.
  EXPECT_TRUE(sender.send_to(world.b->id(), 5000, 1400, std::any{next}));
  world.sim.run();
  EXPECT_EQ(sender.stats().send_would_block, 1u);
  EXPECT_EQ(sender.stats().datagrams_sent, static_cast<std::uint64_t>(next + 1));
  // Every accepted datagram arrives once, oldest first.
  ASSERT_EQ(receiver.buffered_datagrams(), static_cast<std::size_t>(next + 1));
  for (int i = 0; i <= next; ++i) {
    const auto pkt = receiver.try_recv();
    ASSERT_TRUE(pkt.has_value());
    EXPECT_EQ(std::any_cast<int>(pkt->payload), i);
  }
  EXPECT_FALSE(receiver.has_data());
  EXPECT_EQ(receiver.stats().bytes_received, (next + 1) * 1400);
}

TEST(Udp, WritabilityNotificationFires) {
  TwoHosts world(DataRate::megabits_per_second(1), /*queue=*/4096);
  UdpEndpoint sender(*world.a);
  UdpEndpoint receiver(*world.b, 5000);
  while (sender.send_to(world.b->id(), 5000, 1400, std::any{})) {
  }
  bool notified = false;
  world.a->notify_writable([&] { notified = true; });
  world.sim.run();
  EXPECT_TRUE(notified);
}

TEST(Udp, RxBufferOverflowDropsWhenAppNotDraining) {
  TwoHosts world(DataRate::megabits_per_second(100), /*queue=*/1024 * 1024);
  UdpEndpoint sender(*world.a);
  // Tiny 4 KB socket buffer at the receiver.
  UdpEndpoint receiver(*world.b, 5000, 4096);
  for (int i = 0; i < 20; ++i) sender.send_to(world.b->id(), 5000, 1000, std::any{});
  world.sim.run();  // app never drains
  EXPECT_GT(receiver.stats().rx_overflow_drops, 0u);
  EXPECT_LE(receiver.buffered_bytes(), 4096);
  // Draining frees space for new arrivals.
  const auto drops_before = receiver.stats().rx_overflow_drops;
  while (receiver.try_recv()) {
  }
  sender.send_to(world.b->id(), 5000, 1000, std::any{});
  world.sim.run();
  EXPECT_EQ(receiver.stats().rx_overflow_drops, drops_before);
  EXPECT_TRUE(receiver.has_data());
}

TEST(Udp, RxNotifyFiresOnceOnEmptyToNonEmpty) {
  TwoHosts world;
  UdpEndpoint sender(*world.a);
  UdpEndpoint receiver(*world.b, 5000);
  int notifications = 0;
  receiver.set_rx_notify([&] { ++notifications; });
  sender.send_to(world.b->id(), 5000, 100, std::any{});
  sender.send_to(world.b->id(), 5000, 100, std::any{});
  world.sim.run();
  EXPECT_EQ(notifications, 1);  // one-shot, armed once
  EXPECT_EQ(receiver.buffered_datagrams(), 2u);
}

TEST(Host, BindUnbindLifecycle) {
  TwoHosts world;
  {
    UdpEndpoint temp(*world.b, 6000);
    UdpEndpoint sender(*world.a);
    sender.send_to(world.b->id(), 6000, 10, std::any{});
    world.sim.run();
    EXPECT_TRUE(temp.has_data());
  }
  // Port 6000 is free again; traffic to it is dropped, not crashed.
  UdpEndpoint sender(*world.a);
  sender.send_to(world.b->id(), 6000, 10, std::any{});
  world.sim.run();
  EXPECT_EQ(world.b->no_port_drops(), 1u);
}

}  // namespace
}  // namespace fobs
