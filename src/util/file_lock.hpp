// Cross-process file locking built on the util::fs crash-consistent layer.
//
// The multi-process sweep driver (core/sharded_sweep.hpp) and the streaming
// sweep's checkpoint manifest coordinate through the filesystem, because
// worker processes share nothing else. Two POSIX guarantees carry all of
// it:
//
//   * open(O_CREAT | O_EXCL) is atomic — exactly one of N racing processes
//     creates the file. That arbitration is the claim primitive
//     (fs::create_exclusive_file).
//   * rename(2) within a directory is atomic — a reader sees either the old
//     file or the complete new file, never a partial write. fs::commit_file
//     adds the fsyncs that also make it durable, and renaming a fresh
//     record onto an existing one is the compare-and-swap primitive (the
//     caller re-reads after the rename to learn whether it won).
//
// PidLockFile builds a process-exclusive advisory lock from these. The lock
// record carries the owner's pid *and hostname*, because the kill(pid, 0)
// liveness probe is only meaningful between processes on one host: on a
// shared filesystem (NFS ledger directories are the ROADMAP's multi-host
// target) a remote holder's pid number says nothing about the remote
// process. The staleness rule is therefore host-portable:
//
//   * record from this host (or a legacy pid-only record): stale iff the
//     pid is dead — the fast path, no waiting;
//   * record from another host: stale iff the lock file's age exceeds the
//     lease — the only cross-host liveness signal is time. Long-running
//     holders keep their lock fresh by calling refresh() at progress
//     points (StreamingSweep touches it per committed shard).
//
// Legacy pid-only records (no hostname) are read as local, so locks written
// by older builds keep working across an upgrade.
#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>

#include <sys/types.h>

namespace vmcons::util {

/// True iff a process with this pid exists right now (kill(pid, 0)).
/// EPERM counts as alive: the process exists, we just may not signal it.
bool pid_alive(::pid_t pid) noexcept;

/// True iff `c` is in the filename-safe charset [A-Za-z0-9._-] that worker
/// ids and hostnames in claim and lock records are held to.
bool filename_safe_char(char c) noexcept;

/// This host's name (gethostname, cached; "localhost" if the call fails),
/// every character outside the filename-safe charset replaced by '_'.
const std::string& local_hostname();

/// Age of a file in milliseconds (wall clock minus stat mtime); nullopt
/// when the file does not exist.
std::optional<std::int64_t> file_age_ms(const std::string& path);

/// Whole file as a string; nullopt when the file does not exist. Throws
/// IoError for any other read failure. Delegates to util::fs::read_file at
/// the generic fs.read fault site.
std::optional<std::string> read_file(const std::string& path);

/// Advisory exclusive lock: a file holding "<pid> <hostname>".
///
/// Acquisition order: O_EXCL create; on EEXIST read the holder's record —
/// a live holder fails the acquisition loudly (IoError naming path, pid,
/// and host), a stale holder (dead local pid, lease-expired remote, or
/// unreadable record) is broken by atomically committing a fresh lock over
/// it, then re-reading to confirm we won the takeover race. The destructor
/// releases by unlinking, but only while the file still names our pid, so
/// releasing never destroys a lock someone else legitimately took over.
class PidLockFile {
 public:
  /// Acquires or throws IoError. `what` names the protected resource in
  /// error messages ("checkpoint manifest", "claim ledger"). `lease` is the
  /// cross-host staleness horizon: a remote holder that has not refreshed
  /// the lock within it is treated as dead.
  PidLockFile(std::string path, std::string what,
              std::chrono::milliseconds lease = std::chrono::minutes(2));
  ~PidLockFile();

  PidLockFile(const PidLockFile&) = delete;
  PidLockFile& operator=(const PidLockFile&) = delete;

  const std::string& path() const noexcept { return path_; }

  /// Bumps the lock file's mtime so remote hosts see a live holder. Call at
  /// natural progress points; failures are swallowed (a missed touch only
  /// narrows the remote staleness margin, it cannot corrupt the lock).
  void refresh() const noexcept;

 private:
  std::string path_;
};

}  // namespace vmcons::util
