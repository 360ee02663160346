// Cheetah stateless load balancer service (Appendix B.2): SYN packets run
// the server-selection program (round-robin over the VIP pool, cookie =
// hash(5-tuple) ^ server); data packets run the stateless routing program
// (server = hash(5-tuple) ^ cookie). The pool itself is configured over
// the data plane with memory-sync writes, retransmitted per capsule via
// client::ReliabilityTracker until acknowledged.
#pragma once

#include <functional>
#include <map>
#include <vector>

#include "apps/kv.hpp"
#include "client/memsync.hpp"
#include "client/service.hpp"

namespace artmt::apps {

class CheetahLbService : public client::Service {
 public:
  explicit CheetahLbService(std::string name, u32 pool_blocks = 2);

  // Installs the VIP pool (power-of-two sized list of switch egress
  // ports); `done` fires once all writes are acknowledged.
  void configure(std::vector<u32> server_ports,
                 std::function<void()> done = nullptr);

  // Opens a flow: a SYN capsule picks the next server and stamps the
  // cookie, which the server echoes back (wire handle_cookie_reply to the
  // client's passive path).
  void open_flow(u32 flow_id);
  // Sends a data packet for an opened flow using its cookie.
  void send_data(u32 flow_id);
  void handle_cookie_reply(const KvMessage& reply);

  std::function<void()> on_ready;
  std::function<void(u32 flow_id, u32 cookie)> on_flow_opened;

  [[nodiscard]] const std::map<u32, u32>& cookies() const { return cookies_; }
  [[nodiscard]] bool configured() const {
    return configured_ && outstanding_writes_.empty();
  }

  // The pool-write retransmit loop (stats, schedule tuning).
  [[nodiscard]] client::ReliabilityTracker& configure_reliability() {
    return write_retry_;
  }

 protected:
  void on_operational() override {
    if (on_ready) on_ready();
  }
  void on_returned(const packet::ArgumentHeader& args,
                   std::span<const u8> payload) override;

 private:
  // Access indices within the select program's access list.
  static constexpr u32 kAccessPoolSize = 0;
  static constexpr u32 kAccessCounter = 1;
  static constexpr u32 kAccessPool = 2;

  void send_write(u32 request_id);
  void write_resolved(u32 request_id);
  [[nodiscard]] client::MemRef ref_for_access(u32 access, u32 index) const;

  u32 next_request_ = 1;
  bool configured_ = false;
  std::function<void()> configure_done_;
  std::map<u32, std::pair<client::MemRef, Word>> outstanding_writes_;
  client::ReliabilityTracker write_retry_;
  std::map<u32, u32> cookies_;  // flow id -> cookie
};

}  // namespace artmt::apps
