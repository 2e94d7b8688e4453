#include "util/fs.hpp"

#include <array>
#include <cstring>
#include <thread>
#include <unordered_map>
#include <utility>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "util/backoff.hpp"
#include "util/digest.hpp"
#include "util/metrics.hpp"

namespace vmcons::util::fs {
namespace {

constexpr std::array<std::string_view, kSiteCount> kKnownSites = {
    sites::kStoreOpen,      sites::kStoreShard,  sites::kStoreFinish,
    sites::kStoreRead,      sites::kManifestOpen, sites::kManifestAppend,
    sites::kLock,           sites::kClaim,       sites::kResultCommit,
    sites::kMetricsCommit,  sites::kRead,
};

std::size_t site_index(std::string_view site) noexcept {
  for (std::size_t i = 0; i < kKnownSites.size(); ++i) {
    if (kKnownSites[i] == site) {
      return i;
    }
  }
  return kKnownSites.size();
}

/// Uniform [0, 1) draw, pure in (seed, site, op): fs fault runs replay
/// bit-identically as long as the op sequence is serial per site.
double draw(std::uint64_t seed, std::uint64_t site,
            std::uint64_t op) noexcept {
  const std::uint64_t h = mix64(seed ^ mix64(site ^ mix64(op ^ 0xF5)));
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

/// Transient-EIO retry budget for data reads/writes. Three attempts with
/// millisecond backoff ride out the spurious EIO a loaded NFS server
/// returns, without stalling long on a genuinely failing disk.
constexpr int kEioRetries = 3;

Backoff eio_backoff(std::string_view site) {
  Backoff::Options options;
  options.initial = std::chrono::microseconds(1000);
  options.max = std::chrono::microseconds(8000);
  return Backoff(options, FsFaultInjector::global().seed() ^
                              fnv1a64(site.data(), site.size()));
}

void count_eio_retry() {
  metrics::registry().counter(metrics::names::kFsEioRetries).add();
}

FsFaultInjector::FaultPlan plan_op(std::string_view site) {
  if (!FsFaultInjector::enabled()) {
    return {};
  }
  return FsFaultInjector::global().on_op(site);
}

void maybe_crash_after(const FsFaultInjector::FaultPlan& plan,
                       std::string_view site) {
  if (plan.crash_after) {
    FsFaultInjector::global().throw_crash(site, plan.op);
  }
}

}  // namespace

std::string Status::message() const {
  return err == 0 ? std::string("ok") : std::string(std::strerror(err));
}

// --- File -----------------------------------------------------------------

File::File(File&& other) noexcept
    : fd_(other.fd_), path_(std::move(other.path_)) {
  other.fd_ = -1;
}

File& File::operator=(File&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    path_ = std::move(other.path_);
    other.fd_ = -1;
  }
  return *this;
}

File::~File() { close(); }

Status File::close() noexcept {
  if (fd_ < 0) {
    return {};
  }
  const int fd = fd_;
  fd_ = -1;
  if (::close(fd) != 0 && errno != EINTR) {
    // POSIX leaves the fd state after EINTR unspecified; retrying risks
    // closing a recycled descriptor, so EINTR counts as closed.
    return {errno, 0};
  }
  return {};
}

void File::adopt(int fd, std::string path) noexcept {
  close();
  fd_ = fd;
  path_ = std::move(path);
}

// --- open/create wrappers -------------------------------------------------

namespace {

Status open_with_flags(const std::string& path, int flags,
                       std::string_view site, File& out) {
  const FsFaultInjector::FaultPlan plan = plan_op(site);
  if (plan.fail) {
    return {plan.err, 0};
  }
  int fd = -1;
  do {
    fd = ::open(path.c_str(), flags, 0644);
  } while (fd < 0 && errno == EINTR);
  if (fd < 0) {
    return {errno, 0};
  }
  out.adopt(fd, path);
  maybe_crash_after(plan, site);
  return {};
}

}  // namespace

Status create_truncate(const std::string& path, std::string_view site,
                       File& out) {
  return open_with_flags(path, O_WRONLY | O_CREAT | O_TRUNC, site, out);
}

Status open_append(const std::string& path, std::string_view site,
                   File& out) {
  return open_with_flags(path, O_WRONLY | O_APPEND, site, out);
}

Status open_read(const std::string& path, std::string_view site, File& out) {
  return open_with_flags(path, O_RDONLY, site, out);
}

Status create_exclusive_file(const std::string& path,
                             std::string_view contents,
                             std::string_view site) {
  const FsFaultInjector::FaultPlan plan = plan_op(site);
  if (plan.fail) {
    return {plan.err, 0};
  }
  int fd = -1;
  do {
    fd = ::open(path.c_str(), O_CREAT | O_EXCL | O_WRONLY, 0644);
  } while (fd < 0 && errno == EINTR);
  if (fd < 0) {
    return {errno, 0};  // EEXIST: lost the race, caller decides
  }
  File file;
  file.adopt(fd, path);
  maybe_crash_after(plan, site);
  const Status written = write_all(file, contents.data(), contents.size(),
                                   site);
  if (!written.ok()) {
    file.close();
    ::unlink(path.c_str());
    return written;
  }
  return file.close();
}

// --- data wrappers --------------------------------------------------------

Status write_all(File& file, const void* data, std::size_t n,
                 std::string_view site) {
  const char* p = static_cast<const char*>(data);
  std::size_t done = 0;
  int eio_left = kEioRetries;
  Backoff backoff = eio_backoff(site);
  while (done < n) {
    const FsFaultInjector::FaultPlan plan = plan_op(site);
    if (plan.fail) {
      if (plan.short_write && n - done > 1) {
        // Torn write: land a real partial prefix before failing, so the
        // file holds exactly the bytes a power cut mid-write would leave.
        const std::size_t partial = (n - done) / 2;
        std::size_t landed = 0;
        while (landed < partial) {
          const ::ssize_t w = ::write(file.fd(), p + done + landed,
                                      partial - landed);
          if (w <= 0) {
            break;  // the injected error below already covers this op
          }
          landed += static_cast<std::size_t>(w);
        }
        done += landed;
      }
      if (plan.err == EIO && eio_left-- > 0) {
        count_eio_retry();
        std::this_thread::sleep_for(backoff.next());
        continue;
      }
      return {plan.err, done};
    }
    const ::ssize_t w = ::write(file.fd(), p + done, n - done);
    if (w < 0) {
      if (errno == EINTR) {
        continue;
      }
      if (errno == EIO && eio_left-- > 0) {
        count_eio_retry();
        std::this_thread::sleep_for(backoff.next());
        continue;
      }
      return {errno, done};
    }
    done += static_cast<std::size_t>(w);
    maybe_crash_after(plan, site);
  }
  metrics::registry().counter(metrics::names::kFsBytesWritten).add(n);
  return {0, done};
}

Status pread_all(const File& file, void* data, std::size_t n,
                 std::uint64_t offset, std::string_view site) {
  char* p = static_cast<char*>(data);
  std::size_t done = 0;
  int eio_left = kEioRetries;
  Backoff backoff = eio_backoff(site);
  while (done < n) {
    const FsFaultInjector::FaultPlan plan = plan_op(site);
    if (plan.fail) {
      if (plan.err == EIO && eio_left-- > 0) {
        count_eio_retry();
        std::this_thread::sleep_for(backoff.next());
        continue;
      }
      return {plan.err, done};
    }
    const ::ssize_t r = ::pread(file.fd(), p + done, n - done,
                                static_cast<::off_t>(offset + done));
    if (r < 0) {
      if (errno == EINTR) {
        continue;
      }
      if (errno == EIO && eio_left-- > 0) {
        count_eio_retry();
        std::this_thread::sleep_for(backoff.next());
        continue;
      }
      return {errno, done};
    }
    if (r == 0) {
      return {ENODATA, done};  // EOF before the requested range ended
    }
    done += static_cast<std::size_t>(r);
    maybe_crash_after(plan, site);
  }
  return {0, done};
}

Status fsync_file(const File& file, std::string_view site) {
  const FsFaultInjector::FaultPlan plan = plan_op(site);
  if (plan.fail) {
    return {plan.err, 0};
  }
  int rc = 0;
  do {
    rc = ::fsync(file.fd());
  } while (rc != 0 && errno == EINTR);
  if (rc != 0) {
    return {errno, 0};
  }
  metrics::registry().counter(metrics::names::kFsFsyncs).add();
  maybe_crash_after(plan, site);
  return {};
}

Status fsync_parent_dir(const std::string& path, std::string_view site) {
  const std::size_t slash = path.find_last_of('/');
  const std::string dir =
      slash == std::string::npos ? std::string(".") : path.substr(0, slash);
  const FsFaultInjector::FaultPlan plan = plan_op(site);
  if (plan.fail) {
    return {plan.err, 0};
  }
  int fd = -1;
  do {
    fd = ::open(dir.empty() ? "/" : dir.c_str(), O_RDONLY | O_DIRECTORY);
  } while (fd < 0 && errno == EINTR);
  if (fd < 0) {
    return {errno, 0};
  }
  int rc = 0;
  do {
    rc = ::fsync(fd);
  } while (rc != 0 && errno == EINTR);
  const int fsync_errno = rc != 0 ? errno : 0;
  ::close(fd);
  if (fsync_errno != 0) {
    return {fsync_errno, 0};
  }
  metrics::registry().counter(metrics::names::kFsFsyncs).add();
  maybe_crash_after(plan, site);
  return {};
}

Status rename_file(const std::string& from, const std::string& to,
                   std::string_view site) {
  const FsFaultInjector::FaultPlan plan = plan_op(site);
  if (plan.fail) {
    return {plan.err, 0};
  }
  if (::rename(from.c_str(), to.c_str()) != 0) {
    return {errno, 0};
  }
  maybe_crash_after(plan, site);
  return {};
}

Status unlink_file(const std::string& path, std::string_view site) {
  const FsFaultInjector::FaultPlan plan = plan_op(site);
  if (plan.fail) {
    return {plan.err, 0};
  }
  if (::unlink(path.c_str()) != 0) {
    return {errno, 0};
  }
  maybe_crash_after(plan, site);
  return {};
}

Status truncate_file(const std::string& path, std::uint64_t bytes,
                     std::string_view site) {
  const FsFaultInjector::FaultPlan plan = plan_op(site);
  if (plan.fail) {
    return {plan.err, 0};
  }
  int rc = 0;
  do {
    rc = ::truncate(path.c_str(), static_cast<::off_t>(bytes));
  } while (rc != 0 && errno == EINTR);
  if (rc != 0) {
    return {errno, 0};
  }
  maybe_crash_after(plan, site);
  return {};
}

Status touch_file(const std::string& path, std::string_view site) {
  const FsFaultInjector::FaultPlan plan = plan_op(site);
  if (plan.fail) {
    return {plan.err, 0};
  }
  if (::utimensat(AT_FDCWD, path.c_str(), nullptr, 0) != 0) {
    return {errno, 0};
  }
  maybe_crash_after(plan, site);
  return {};
}

Status read_file(const std::string& path, std::string& out,
                 std::string_view site) {
  out.clear();
  File file;
  const Status opened = open_read(path, site, file);
  if (!opened.ok()) {
    return opened;  // ENOENT: caller decides whether missing is an error
  }
  char buffer[1 << 16];
  std::size_t total = 0;
  int eio_left = kEioRetries;
  Backoff backoff = eio_backoff(site);
  for (;;) {
    const FsFaultInjector::FaultPlan plan = plan_op(site);
    if (plan.fail) {
      if (plan.err == EIO && eio_left-- > 0) {
        count_eio_retry();
        std::this_thread::sleep_for(backoff.next());
        continue;
      }
      return {plan.err, total};
    }
    const ::ssize_t r = ::read(file.fd(), buffer, sizeof buffer);
    if (r < 0) {
      if (errno == EINTR) {
        continue;
      }
      if (errno == EIO && eio_left-- > 0) {
        count_eio_retry();
        std::this_thread::sleep_for(backoff.next());
        continue;
      }
      return {errno, total};
    }
    if (r == 0) {
      maybe_crash_after(plan, site);
      return {0, total};
    }
    out.append(buffer, static_cast<std::size_t>(r));
    total += static_cast<std::size_t>(r);
    maybe_crash_after(plan, site);
  }
}

Status commit_file(const std::string& path, std::string_view contents,
                   const std::string& tag, std::string_view site) {
  const std::string tmp = path + ".tmp." + tag;
  File file;
  Status status = create_truncate(tmp, site, file);
  if (!status.ok()) {
    return status;
  }
  status = write_all(file, contents.data(), contents.size(), site);
  if (status.ok()) {
    status = fsync_file(file, site);
  }
  if (status.ok()) {
    status = file.close();
  }
  if (!status.ok()) {
    file.close();
    ::unlink(tmp.c_str());
    return status;
  }
  status = rename_file(tmp, path, site);
  if (!status.ok()) {
    ::unlink(tmp.c_str());
    return status;
  }
  // The rename made the commit *visible*; this fsync makes it *durable*
  // (without it, a power cut can resurrect the old directory entry).
  status = fsync_parent_dir(path, site);
  if (!status.ok()) {
    return status;
  }
  metrics::registry().counter(metrics::names::kFsCommits).add();
  return {};
}

// --- FsFaultInjector ------------------------------------------------------

/// Immutable arming snapshot, swapped atomically so on_op never locks.
struct FsFaultInjector::Config {
  std::uint64_t seed = 2009;
  /// Keyed by fnv1a64 of the site name.
  std::unordered_map<std::uint64_t, SiteConfig> sites;
};

std::atomic<bool> FsFaultInjector::g_enabled{false};

FsFaultInjector::FsFaultInjector() {
  config_.store(std::make_shared<const Config>());
}

FsFaultInjector::~FsFaultInjector() = default;

std::shared_ptr<const FsFaultInjector::Config> FsFaultInjector::load() const {
  return config_.load(std::memory_order_acquire);
}

void FsFaultInjector::publish_enabled() const {
  if (this == &global()) {
    g_enabled.store(!load()->sites.empty(), std::memory_order_relaxed);
  }
}

void FsFaultInjector::arm(std::string_view site, SiteConfig config) {
  VMCONS_REQUIRE(site_index(site) < kKnownSites.size(),
                 "unknown fs fault site '" + std::string(site) +
                     "' (see FsFaultInjector::known_sites())");
  VMCONS_REQUIRE(config.error_rate >= 0.0 && config.error_rate <= 1.0,
                 "fs fault error_rate must be in [0, 1]");
  VMCONS_REQUIRE(config.error_errno > 0,
                 "fs fault error_errno must be a positive errno");
  auto next = std::make_shared<Config>(*load());
  next->sites[fnv1a64(site.data(), site.size())] = config;
  config_.store(std::shared_ptr<const Config>(std::move(next)),
                std::memory_order_release);
  publish_enabled();
}

void FsFaultInjector::disarm_all() {
  auto next = std::make_shared<Config>();
  next->seed = load()->seed;
  config_.store(std::shared_ptr<const Config>(std::move(next)),
                std::memory_order_release);
  publish_enabled();
}

void FsFaultInjector::set_seed(std::uint64_t seed) {
  auto next = std::make_shared<Config>(*load());
  next->seed = seed;
  config_.store(std::shared_ptr<const Config>(std::move(next)),
                std::memory_order_release);
}

std::uint64_t FsFaultInjector::seed() const { return load()->seed; }

FsFaultInjector::FaultPlan FsFaultInjector::on_op(std::string_view site) {
  const auto config = load();
  if (config->sites.empty()) {
    return {};
  }
  const std::uint64_t hash = fnv1a64(site.data(), site.size());
  const auto it = config->sites.find(hash);
  if (it == config->sites.end()) {
    return {};
  }
  const std::size_t index = site_index(site);
  VMCONS_ASSERT(index < kKnownSites.size());
  const std::uint64_t op =
      ops_[index].fetch_add(1, std::memory_order_relaxed) + 1;
  const SiteConfig& armed = it->second;

  FaultPlan plan;
  plan.op = op;
  if (armed.crash_at_op != 0 && op == armed.crash_at_op) {
    if (armed.crash_after) {
      plan.crash_after = true;
    } else {
      throw_crash(site, op);
    }
  }
  const bool error_hit =
      (armed.error_at_op != 0 && op == armed.error_at_op) ||
      (armed.error_rate > 0.0 &&
       draw(config->seed, hash, op) < armed.error_rate);
  if (error_hit) {
    plan.fail = true;
    plan.err = armed.error_errno;
    plan.short_write = armed.short_write;
  }
  return plan;
}

void FsFaultInjector::throw_crash(std::string_view site,
                                  std::uint64_t op) const {
  throw CrashInjectedError("injected crash at fs site '" + std::string(site) +
                           "', op " + std::to_string(op) + " (seed " +
                           std::to_string(seed()) + ")");
}

std::uint64_t FsFaultInjector::ops_at(std::string_view site) const {
  const std::size_t index = site_index(site);
  VMCONS_REQUIRE(index < kKnownSites.size(),
                 "unknown fs fault site '" + std::string(site) + "'");
  return ops_[index].load(std::memory_order_relaxed);
}

void FsFaultInjector::reset_ops() {
  for (auto& counter : ops_) {
    counter.store(0, std::memory_order_relaxed);
  }
}

std::span<const std::string_view> FsFaultInjector::known_sites() noexcept {
  return kKnownSites;
}

FsFaultInjector& FsFaultInjector::global() {
  static FsFaultInjector injector;
  return injector;
}

ScopedFsFaults::ScopedFsFaults()
    : saved_seed_(FsFaultInjector::global().seed()) {}

ScopedFsFaults::~ScopedFsFaults() {
  FsFaultInjector& injector = FsFaultInjector::global();
  injector.disarm_all();
  injector.set_seed(saved_seed_);
  injector.reset_ops();
}

}  // namespace vmcons::util::fs
