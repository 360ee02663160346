#include "apps/programs.hpp"

#include "active/assembler.hpp"

namespace artmt::apps {

using client::ServiceSpec;

active::Program cache_query_program() {
  // Listing 1: bucket walk via the per-entry MAR advance; a mismatching
  // key half is a miss (forward to the server), a full match RTSes the
  // value back to the client in args[0].
  static const active::Program program = active::assemble(R"(
      MAR_LOAD $0          // locate bucket
      MEM_READ             // first 4 key bytes
      MBR_EQUALS_DATA $1   // compare
      CRET                 // partial match?
      MEM_READ             // next 4 key bytes
      MBR_EQUALS_DATA $2   // compare
      CRET                 // full match?
      RTS                  // create reply
      MEM_READ             // read the value
      MBR_STORE $0         // write to packet
      RETURN               // fin.
  )");
  return program;
}

active::Program cache_populate_program() {
  // Writes (key0, key1, value) into the bucket at args[0]. Preloading
  // (Appendix C) aligns its accesses with the query program's stages.
  static const active::Program program = [] {
    active::Program p = active::assemble(R"(
      MAR_LOAD $0    // bucket address
      MBR_LOAD $1    // key half 0
      MEM_WRITE
      MBR_LOAD $2    // key half 1
      MEM_WRITE
      MBR_LOAD $3    // value
      MEM_WRITE
      RTS            // ack to the client
      RETURN
  )");
    client::apply_preload(p);
    return p;
  }();
  return program;
}

ServiceSpec cache_service_spec() {
  ServiceSpec spec;
  spec.program = cache_query_program();
  spec.demands = {1, 1, 1};  // minimum share; elastic growth fills stages
  spec.elastic = true;
  return spec;
}

active::Program hh_monitor_program() {
  // Listing 2: two CMS rows sketch the key's count; if the sketch exceeds
  // the bucket's running threshold, store the key and raise the threshold
  // (the same-stage update rides the second pass).
  static const active::Program program = active::assemble(R"(
      MBR_LOAD $0            // key half 0
      MBR2_LOAD $1           // key half 1
      COPY_HASHDATA_MBR $0
      COPY_HASHDATA_MBR2 $1
      HASH $0                // CMS row 1 index
      ADDR_MASK
      ADDR_OFFSET
      MEM_MINREADINC         // count 1 -> MBR
      COPY_MBR2_MBR          // MBR2 = count 1
      HASH $1                // CMS row 2 index
      ADDR_MASK
      ADDR_OFFSET
      MEM_MINREADINC         // MBR2 = min(count1, count2) = sketch
      HASH $2                // table index
      ADDR_MASK
      ADDR_OFFSET
      MEM_READ               // threshold
      MIN                    // MBR = min(threshold, sketch)
      MBR_EQUALS_MBR2        // zero iff sketch <= threshold
      CRETI                  // not a heavy hitter
      HASH $2                // pass 2: store the key
      ADDR_MASK
      ADDR_OFFSET
      MBR_LOAD $0
      MEM_WRITE              // key half 0
      HASH $2
      ADDR_MASK
      ADDR_OFFSET
      MBR_LOAD $1
      MEM_WRITE              // key half 1
      HASH $2
      ADDR_MASK
      ADDR_OFFSET
      COPY_MBR_MBR2          // MBR = sketch (the new threshold)
      NOP
      NOP
      MEM_WRITE              // threshold update (same stage as the read)
      NOP                    // pad: pins the threshold stage so the
      NOP                    // program has exactly one compact placement
      RETURN
  )");
  return program;
}

ServiceSpec hh_service_spec(u32 cms_blocks, u32 table_blocks) {
  ServiceSpec spec;
  spec.program = hh_monitor_program();
  // CMS rows, threshold read, key halves, threshold write (aliased).
  spec.demands = {cms_blocks, cms_blocks, table_blocks,
                  table_blocks, table_blocks, table_blocks};
  spec.aliases = {-1, -1, -1, -1, -1, 2};
  spec.elastic = false;
  return spec;
}

active::Program lb_select_program() {
  // Listing 3 (adapted): round-robin pick from the VIP pool, route the
  // SYN there, and stamp hash(5-tuple) ^ server into the cookie field.
  // The pool size is stored as a power-of-two mask (size - 1).
  static const active::Program program = active::assemble(R"(
      COPY_HASHDATA_5TUPLE
      MAR_LOAD $0          // pool-size address
      MEM_READ             // MBR = pool mask
      COPY_MBR2_MBR        // MBR2 = mask
      MAR_LOAD $1          // counter address
      MEM_INCREMENT        // MBR = round-robin counter
      COPY_MAR_MBR         // MAR = counter
      COPY_MBR_MBR2        // MBR = mask
      BIT_AND_MAR_MBR      // MAR = counter & mask = offset
      COPY_MBR_MAR         // MBR = offset
      MBR2_LOAD $2         // MBR2 = pool base address
      MAR_MBR_ADD_MBR2     // MAR = base + offset
      MEM_READ             // MBR = server (egress port)
      SET_DST              // route to the selected server
      HASH $3              // MAR = salted hash of the 5-tuple
      COPY_MBR2_MBR        // MBR2 = server
      COPY_MBR_MAR         // MBR = hash
      MBR_EQUALS_MBR2      // MBR = hash ^ server = cookie
      MBR_STORE $3         // cookie into the packet
      RETURN
  )");
  return program;
}

active::Program lb_route_program() {
  // Listing 4: stateless routing; server = hash(5-tuple) ^ cookie.
  static const active::Program program = active::assemble(R"(
      COPY_HASHDATA_5TUPLE
      HASH $3
      MBR2_LOAD $0         // cookie
      COPY_MBR_MAR         // MBR = hash
      MBR_EQUALS_MBR2      // MBR = server
      SET_DST
      RETURN
  )");
  return program;
}

ServiceSpec lb_service_spec(u32 pool_blocks) {
  ServiceSpec spec;
  spec.program = lb_select_program();
  spec.demands = {1, 1, pool_blocks};
  spec.elastic = false;
  return spec;
}

alloc::AllocationRequest cache_request() {
  return client::build_request(cache_service_spec());
}

alloc::AllocationRequest hh_request() {
  return client::build_request(hh_service_spec());
}

alloc::AllocationRequest lb_request() {
  return client::build_request(lb_service_spec());
}

}  // namespace artmt::apps
