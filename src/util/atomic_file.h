// Crash-safe file writes: stream into `path + ".tmp"`, then
// flush + fsync + rename onto the final path, so a reader either sees the
// complete previous file or the complete new file -- never a torn or
// truncated artifact. Every on-disk producer in the repo (graph TSV,
// CsvWriter, Chrome traces, bench_timings.json, BENCH_history.json,
// evaluation checkpoints) goes through this writer.
//
// Error model: the first failed write is latched and every later Append is
// a no-op; Commit() reports the latched Status and removes the temp file,
// so a failed write never leaves debris or a partial final file. An
// AtomicFileWriter destroyed without Commit() discards the temp file.
//
// Fault sites (see docs/robustness.md): "atomic_file.open",
// "atomic_file.write", "atomic_file.fsync", "atomic_file.rename", and
// "atomic_file.crash_before_rename" (simulates process death after the data
// is durable in the temp file but before the rename publishes it -- the
// temp file is deliberately left behind, exactly as a real crash would).
//
// Concurrency: with the default shared temp name (`path + ".tmp"`), two
// writers racing on the SAME final path clobber each other's temp file and
// can briefly expose a partially-written inode through the final name.
// Producers that may be raced by another process (sweep checkpoints: two
// sweeps given one --checkpoint path) pass unique_temp=true:
// each writer streams into `path + ".<pid>-<seq>.tmp"`, so the rename is a
// true whole-file replace and racing writers degrade to last-writer-wins
// with no torn-read window.
#ifndef TG_UTIL_ATOMIC_FILE_H_
#define TG_UTIL_ATOMIC_FILE_H_

#include <cstdio>
#include <string>

#include "util/status.h"

namespace tg {

class AtomicFileWriter {
 public:
  // Opens the temp file for writing. Check ok() (or just Commit(), which
  // reports the open error) before relying on the writes. unique_temp
  // selects a per-writer temp name (see file comment) for paths that
  // concurrent processes may publish simultaneously.
  explicit AtomicFileWriter(const std::string& path, bool unique_temp = false);
  ~AtomicFileWriter();

  AtomicFileWriter(const AtomicFileWriter&) = delete;
  AtomicFileWriter& operator=(const AtomicFileWriter&) = delete;

  // True while the temp file is open and no write has failed.
  bool ok() const { return file_ != nullptr && error_.ok(); }

  // Appends bytes to the temp file. Short writes latch an error; after the
  // first failure every Append is a no-op.
  void Append(const std::string& data);

  // Flushes, fsyncs and closes the temp file, then renames it onto the
  // final path (and best-effort fsyncs the directory). On any failure the
  // temp file is removed and the final path is untouched.
  Status Commit();

  // Closes and removes the temp file without publishing. Idempotent.
  void Discard();

  const std::string& path() const { return path_; }
  const std::string& temp_path() const { return temp_path_; }

 private:
  std::string path_;
  std::string temp_path_;
  std::FILE* file_ = nullptr;
  Status error_;  // first latched failure
  bool finished_ = false;
};

// One-shot convenience: atomically replaces `path` with `contents`.
Status WriteFileAtomic(const std::string& path, const std::string& contents,
                       bool unique_temp = false);

// Whole-file read with explicit error propagation (fault site "file.read").
Result<std::string> ReadFileToString(const std::string& path);

}  // namespace tg

#endif  // TG_UTIL_ATOMIC_FILE_H_
