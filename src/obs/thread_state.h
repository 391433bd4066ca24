// Internal to src/obs: the one per-thread state shared by the span tracer
// (obs/trace.cc) and the structured event log (obs/event_log.cc). One
// registry, in trace.cc, numbers threads densely on first use, so a tid means
// the same thread in the Chrome trace and in event-log lines.
//
// Two per-thread structures stay outside on purpose: the SIGPROF sample ring
// (obs/profiler.cc), whose writer is a signal handler and may not allocate a
// block, and the allocation counters (obs/memory.cc), whose writer is
// operator new and may not run a thread_local dynamic initializer.
#ifndef TG_OBS_THREAD_STATE_H_
#define TG_OBS_THREAD_STATE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/trace.h"
#include "util/logging.h"

namespace tg::obs::internal_thread_state {

// One writer, one consumer, over a chain of fixed-size blocks. The owner
// thread appends without a lock and release-publishes the record count; the
// consumer acquire-loads the count, so it only ever reads fully-written
// records. Slots are never reused: the writer never revisits a block it has
// moved past, so the consumer may free such a block. Calls to Peek and
// Consume on one log must be serialized by the caller.
template <typename Record, size_t kBlockSize>
class RecordLog {
 public:
  RecordLog() = default;
  RecordLog(const RecordLog&) = delete;
  RecordLog& operator=(const RecordLog&) = delete;

  ~RecordLog() {
    Block* block = read_block_;
    while (block != nullptr) {
      Block* next = block->next.load(std::memory_order_acquire);
      if (block != &head_) delete block;
      block = next;
    }
  }

  // Owner thread only.
  void Append(Record&& record) {
    const size_t slot = write_count_ % kBlockSize;
    if (slot == 0 && write_count_ != 0) {
      Block* fresh = new Block;
      write_block_->next.store(fresh, std::memory_order_release);
      write_block_ = fresh;
    }
    write_block_->slots[slot] = std::move(record);
    ++write_count_;
    published_.store(write_count_, std::memory_order_release);
  }

  // Consumer: fn(const Record&) for every published, unconsumed record in
  // append order. Consumes nothing.
  template <typename Fn>
  void Peek(Fn&& fn) const {
    const uint64_t published = published_.load(std::memory_order_acquire);
    const Block* block = read_block_;
    for (uint64_t i = consumed_; i < published; ++i) {
      const size_t slot = i % kBlockSize;
      if (slot == 0 && i != 0) {
        block = block->next.load(std::memory_order_acquire);
      }
      fn(block->slots[slot]);
    }
  }

  // Consumer: fn(Record&) for every published, unconsumed record in append
  // order, then releases the record's storage and frees every block moved
  // past (never the inline head).
  template <typename Fn>
  void Consume(Fn&& fn) {
    const uint64_t published = published_.load(std::memory_order_acquire);
    for (; consumed_ < published; ++consumed_) {
      const size_t slot = consumed_ % kBlockSize;
      // A full block is left only once a record lives in the next one: at
      // the boundary the writer may not have linked the next block yet.
      if (slot == 0 && consumed_ != 0) {
        Block* next = read_block_->next.load(std::memory_order_acquire);
        if (read_block_ != &head_) delete read_block_;
        read_block_ = next;
      }
      Record& record = read_block_->slots[slot];
      fn(record);
      record = Record();
    }
  }

 private:
  struct Block {
    Record slots[kBlockSize];
    std::atomic<Block*> next{nullptr};
  };

  Block head_;
  Block* write_block_ = &head_;  // owner thread only
  uint64_t write_count_ = 0;     // owner thread only
  std::atomic<uint64_t> published_{0};
  // Consumer only. read_block_ holds record consumed_ - 1 (the head when
  // nothing is consumed yet), so it is never a block the writer still needs.
  Block* read_block_ = &head_;
  uint64_t consumed_ = 0;
};

// One structured event-log record (obs/event_log.h), formatted by the
// drainer thread.
struct EventRecord {
  uint64_t ts_ns = 0;
  const char* kind = "";   // static storage ("log", "span", event literals)
  LogLevel level = LogLevel::kInfo;  // kind "log"
  const char* file = "";             // kind "log"
  int line = 0;                      // kind "log"
  const char* span_name = "";        // kind "span"
  uint64_t start_ns = 0;             // kind "span"
  uint64_t end_ns = 0;               // kind "span"
  std::string message;
  std::string detail;
  std::vector<std::string> span_chain;
};

struct ThreadState {
  uint32_t tid = 0;
  std::string name;  // guarded by the registry mutex in trace.cc
  // Consumed by SnapshotSpans/ResetSpans under the registry mutex.
  RecordLog<SpanRecord, 256> spans;
  // Consumed by the event log's single drainer.
  RecordLog<EventRecord, 64> events;
};

// This thread's state, registered on first use. Never freed: records from
// threads that have exited stay readable until consumed.
ThreadState& LocalThreadState();

// Every registered state, copied under the registry mutex, for consumers
// that must not hold it (the event drainer writes a file).
std::vector<ThreadState*> RegisteredThreadStates();

}  // namespace tg::obs::internal_thread_state

#endif  // TG_OBS_THREAD_STATE_H_
