#include "util/file_lock.hpp"

#include <cerrno>
#include <cstdlib>
#include <cstring>

#include <signal.h>
#include <sys/stat.h>
#include <unistd.h>

#include "util/error.hpp"
#include "util/fs.hpp"

namespace vmcons::util {
namespace {

[[noreturn]] void lock_fail(const std::string& path, const std::string& what) {
  throw IoError("lock file '" + path + "': " + what);
}

std::string pid_record(::pid_t pid) {
  return std::to_string(static_cast<long long>(pid)) + " " +
         local_hostname() + "\n";
}

struct LockRecord {
  ::pid_t pid = 0;
  std::string hostname;  ///< empty for legacy pid-only records (= local)
};

/// Record in a lock file; nullopt for a missing, empty, or garbled record
/// (a holder that crashed between create and write looks garbled — and the
/// write follows the create immediately, so a garbled record is a crash
/// footprint, not an in-progress writer).
std::optional<LockRecord> read_lock_record(const std::string& path) {
  const auto contents = read_file(path);
  if (!contents.has_value()) {
    return std::nullopt;
  }
  char* end = nullptr;
  const long long pid = std::strtoll(contents->c_str(), &end, 10);
  if (end == contents->c_str() || pid <= 0) {
    return std::nullopt;
  }
  LockRecord record;
  record.pid = static_cast<::pid_t>(pid);
  // Optional hostname after the pid; trailing newline stripped.
  const char* p = end;
  while (*p == ' ') {
    ++p;
  }
  while (*p != '\0' && *p != '\n' && *p != ' ') {
    record.hostname.push_back(*p++);
  }
  return record;
}

}  // namespace

bool pid_alive(::pid_t pid) noexcept {
  if (pid <= 0) {
    return false;
  }
  if (::kill(pid, 0) == 0) {
    return true;
  }
  // EPERM: the process exists but belongs to someone we cannot signal.
  return errno == EPERM;
}

bool filename_safe_char(char c) noexcept {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '.' || c == '_' || c == '-';
}

const std::string& local_hostname() {
  static const std::string hostname = [] {
    char buffer[256] = {};
    if (::gethostname(buffer, sizeof buffer - 1) != 0 || buffer[0] == '\0') {
      return std::string("localhost");
    }
    std::string name(buffer);
    for (char& c : name) {
      if (!filename_safe_char(c)) {
        c = '_';
      }
    }
    return name;
  }();
  return hostname;
}

std::optional<std::int64_t> file_age_ms(const std::string& path) {
  struct ::stat st {};
  if (::stat(path.c_str(), &st) != 0) {
    return std::nullopt;
  }
  const auto now = std::chrono::duration_cast<std::chrono::milliseconds>(
                       std::chrono::system_clock::now().time_since_epoch())
                       .count();
  return now - static_cast<std::int64_t>(st.st_mtime) * 1000;
}

std::optional<std::string> read_file(const std::string& path) {
  std::string contents;
  const fs::Status status = fs::read_file(path, contents, fs::sites::kRead);
  if (status.err == ENOENT) {
    return std::nullopt;
  }
  if (!status.ok()) {
    throw IoError("file '" + path + "': read failed after " +
                  std::to_string(status.bytes) + " bytes: " +
                  status.message());
  }
  return contents;
}

PidLockFile::PidLockFile(std::string path, std::string what,
                         std::chrono::milliseconds lease)
    : path_(std::move(path)) {
  const ::pid_t self = ::getpid();
  const std::string record = pid_record(self);
  for (int attempt = 0; attempt < 4; ++attempt) {
    const fs::Status created =
        fs::create_exclusive_file(path_, record, fs::sites::kLock);
    if (created.ok()) {
      return;  // clean acquisition
    }
    if (created.err != EEXIST) {
      lock_fail(path_, "exclusive create failed: " + created.message());
    }
    const std::optional<LockRecord> holder = read_lock_record(path_);
    bool stale = true;
    if (holder.has_value()) {
      const bool is_local =
          holder->hostname.empty() || holder->hostname == local_hostname();
      if (is_local) {
        // Same host: the pid probe is authoritative, no lease wait.
        if (pid_alive(holder->pid)) {
          throw IoError(what + " is locked by live pid " +
                        std::to_string(static_cast<long long>(holder->pid)) +
                        " ('" + path_ +
                        "'); refusing to run two sweeps against it");
        }
      } else {
        // Another host: its pid numbers mean nothing here. The only
        // liveness signal is the lock's age against the lease (holders
        // refresh() at progress points).
        const auto age = file_age_ms(path_);
        if (age.has_value() && *age <= lease.count()) {
          throw IoError(
              what + " is locked by pid " +
              std::to_string(static_cast<long long>(holder->pid)) +
              " on host '" + holder->hostname + "' ('" + path_ +
              "') and the lease has not expired; refusing to run two "
              "sweeps against it");
        }
        stale = age.has_value();  // vanished mid-check: loop and re-create
      }
    }
    if (!stale) {
      continue;
    }
    // Stale: take over by committing a fresh lock on top, then confirm by
    // read-back that our rename won. A loser of the takeover race loops
    // and now sees a live holder.
    const fs::Status committed = fs::commit_file(
        path_, record, std::to_string(static_cast<long long>(self)),
        fs::sites::kLock);
    if (!committed.ok()) {
      lock_fail(path_, "stale-lock takeover failed: " + committed.message());
    }
    const std::optional<LockRecord> now = read_lock_record(path_);
    if (now.has_value() && now->pid == self &&
        (now->hostname.empty() || now->hostname == local_hostname())) {
      return;
    }
  }
  lock_fail(path_, "could not acquire after repeated stale-lock takeovers");
}

PidLockFile::~PidLockFile() {
  // Only release a lock that is still ours: if a peer broke the lock as
  // stale (it cannot have, while we live and refresh, but belt-and-braces)
  // we must not unlink their lock.
  try {
    const std::optional<LockRecord> holder = read_lock_record(path_);
    if (holder.has_value() && holder->pid == ::getpid() &&
        (holder->hostname.empty() ||
         holder->hostname == local_hostname())) {
      fs::unlink_file(path_, fs::sites::kLock);
    }
  } catch (...) {
    // Destructor: an unreadable lock file stays behind and ages out via
    // the lease rule; throwing here would terminate the process.
  }
}

void PidLockFile::refresh() const noexcept {
  fs::touch_file(path_, fs::sites::kLock);
}

}  // namespace vmcons::util
