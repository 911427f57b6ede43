// daf_server: a line-protocol front-end over service::MatchService — load a
// data graph once, then submit/poll/cancel subgraph-match jobs against it.
//
//   $ ./examples/daf_server                       # serve stdin/stdout
//   $ ./examples/daf_server --port 7878           # serve one TCP client
//   $ ./examples/daf_server --data g.txt --workers 8
//   $ ./examples/daf_server --data g.dafs --data-dir /var/lib/daf
//
// --data accepts either supported graph format (text or a DAFS snapshot —
// see graph_convert). With --data-dir the service is
// durable (docs/PERSISTENCE.md): every update batch is WAL-appended before
// it applies, the log rolls into a binary snapshot once the tail a restart
// would replay outgrows a quarter of the snapshot (64 KiB at least), and a
// restart recovers the newest snapshot plus the WAL tail — the preloaded
// graph only seeds the very first run. --fsync picks the durability/
// latency trade-off (every|interval|off). SIGTERM/SIGINT trigger a
// graceful shutdown: admission stops, in-flight jobs get --grace ms to
// drain, subscribers receive a final resync marker, and the WAL is
// fsynced before exit.
//
// Protocol (one command per line; every response is one or more lines, the
// last always starting with "ok" or "err"):
//
//   load <path>                         load the data graph from a t/v/e file
//   dataset <name> [scale] [seed]       synthesize a paper dataset stand-in
//                                       (yeast|human|hprd|email|dblp|yago)
//   start [workers] [queue_capacity]    start the service on the loaded graph
//   submit <query-path> [interactive|normal|batch] [deadline_ms] [limit]
//                                       -> "ok job <id> queued"
//   poll <id>                           -> "ok job <id> <status>"
//   wait <id>                           block until terminal; reports result
//   cancel <id>                         request cooperative cancellation
//   update <op>...                      apply one atomic update batch; ops:
//                                       +v <label> | -v <vertex> |
//                                       +e <u> <v> [edge-label] | -e <u> <v>
//                                       (new vertices get the next dense
//                                       ids, usable by later ops in the
//                                       same batch)
//   subscribe <query-path> [hom]        register a standing query
//                                       -> "ok sub <id> version=<v>"
//   deltas <id>                         drain the subscription's pending
//                                       embedding deltas, one per line:
//                                       "delta <version> +|- <v0> <v1> ..."
//                                       ("resync <version>" = deltas lost,
//                                       re-run the query at that version)
//   unsubscribe <id>                    deregister the standing query
//   stats                               service metrics as one JSON document
//   quit                                drain and exit
//
// Subscriptions are per connection: a session only ever sees deltas for
// standing queries it registered itself, and they are unsubscribed when
// the connection closes (each session owns its service instance, so a
// fresh connection starts from the loaded graph at version 0).
//
// The server is intentionally transport-thin: all scheduling, queueing,
// deadline, and cancellation behavior lives in MatchService (see
// docs/SERVICE.md).
#include <cctype>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#ifdef __unix__
#include <cerrno>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <ext/stdio_filebuf.h>  // libstdc++: iostream over an accepted fd
#endif

#include "dyn/update_batch.h"
#include "graph/io.h"
#include "obs/service_metrics.h"
#include "persist/snapshot.h"
#include "persist/store.h"
#include "service/match_service.h"
#include "util/fault_inject.h"
#include "util/flags.h"
#include "workload/datasets.h"

namespace {

using daf::Graph;
using daf::service::JobHandle;
using daf::service::JobStatus;
using daf::service::MatchService;
using daf::service::ParsePriority;
using daf::service::Priority;
using daf::service::QueryJob;
using daf::service::ServiceOptions;

// Set by the SIGTERM/SIGINT handler (installed without SA_RESTART, so a
// blocking accept/read returns EINTR and the loops notice the flag).
volatile std::sig_atomic_t g_stop = 0;

// Server-level settings that are not per-service knobs.
struct ServerConfig {
  std::string data_dir;  // empty = memory-only
  daf::persist::FsyncPolicy fsync_policy =
      daf::persist::FsyncPolicy::kEveryBatch;
  uint64_t grace_ms = 2000;  // graceful-shutdown drain bound
};

std::optional<daf::workload::DatasetId> DatasetByName(const std::string& s) {
  auto lower = [](std::string t) {
    for (char& c : t) c = static_cast<char>(std::tolower(c));
    return t;
  };
  const std::string wanted = lower(s);
  for (const auto& spec : daf::workload::Table2Specs()) {
    if (wanted == lower(spec.name)) return spec.id;
  }
  return std::nullopt;
}

// One protocol session: reads commands from `in`, answers on `out`.
class Session {
 public:
  Session(std::istream& in, std::ostream& out, ServiceOptions defaults,
          ServerConfig config)
      : in_(in), out_(out), defaults_(defaults), config_(std::move(config)) {}

  void SetData(Graph data) { data_ = std::move(data); has_data_ = true; }
  void StartService() {
    if (!config_.data_dir.empty()) {
      // Durable mode: recover (or seed) the data dir. The store is opened
      // per session — the control channel serves one client at a time, so
      // each service instance picks up exactly where the last left off.
      daf::persist::DurableStore::Options po;
      po.fsync_policy = config_.fsync_policy;
      std::string error;
      std::unique_ptr<daf::persist::DurableStore> store =
          daf::persist::DurableStore::Open(config_.data_dir, po, &error);
      if (store == nullptr) {
        Err(error);
        return;
      }
      if (!has_data_ && !store->has_state()) {
        Err("data dir " + config_.data_dir +
            " holds no recoverable state and no data graph was loaded "
            "(use load/dataset first)");
        return;
      }
      defaults_.data_store = std::move(store);
    }
    service_ = std::make_unique<MatchService>(data_, defaults_);
    out_ << "ok service started workers=" << defaults_.num_workers
         << " queue=" << defaults_.queue_capacity;
    if (defaults_.data_store != nullptr) {
      const daf::persist::RecoveryInfo& rec = defaults_.data_store->recovery();
      out_ << " data_dir=" << config_.data_dir
           << " recovered=" << (rec.recovered ? 1 : 0)
           << " version=" << service_->GraphVersion();
    }
    out_ << "\n";
  }

  void Run() {
    std::string line;
    while (g_stop == 0 && std::getline(in_, line)) {
      if (!Dispatch(line)) break;
      out_.flush();
    }
    for (auto& [id, sub] : subs_) sub.Unsubscribe();
    // Graceful even on an ordinary disconnect: drains in-flight jobs
    // (bounded) and fsyncs whatever the WAL policy deferred.
    if (service_ != nullptr) service_->GracefulShutdown(config_.grace_ms);
  }

 private:
  bool Dispatch(const std::string& line) {
    std::istringstream ss(line);
    std::string cmd;
    if (!(ss >> cmd) || cmd[0] == '#') return true;  // blank / comment
    if (cmd == "quit" || cmd == "exit") {
      out_ << "ok bye\n";
      return false;
    }
    if (cmd == "load") return CmdLoad(ss);
    if (cmd == "dataset") return CmdDataset(ss);
    if (cmd == "start") return CmdStart(ss);
    if (cmd == "submit") return CmdSubmit(ss);
    if (cmd == "poll") return CmdPoll(ss);
    if (cmd == "wait") return CmdWait(ss);
    if (cmd == "cancel") return CmdCancel(ss);
    if (cmd == "update") return CmdUpdate(ss);
    if (cmd == "subscribe") return CmdSubscribe(ss);
    if (cmd == "deltas") return CmdDeltas(ss);
    if (cmd == "unsubscribe") return CmdUnsubscribe(ss);
    if (cmd == "stats") return CmdStats();
    out_ << "err unknown command '" << cmd << "'\n";
    return true;
  }

  bool CmdLoad(std::istringstream& ss) {
    std::string path;
    if (!(ss >> path)) return Err("load needs a path");
    std::string error;
    std::optional<Graph> g = daf::persist::LoadGraphAnyFormat(path, &error);
    if (!g.has_value()) return Err(error);
    out_ << "ok graph vertices=" << g->NumVertices()
         << " edges=" << g->NumEdges() << "\n";
    SetData(std::move(*g));
    return true;
  }

  bool CmdDataset(std::istringstream& ss) {
    std::string name;
    double scale = 0.1;
    uint64_t seed = 1;
    if (!(ss >> name)) return Err("dataset needs a name");
    ss >> scale >> seed;
    std::optional<daf::workload::DatasetId> id = DatasetByName(name);
    if (!id.has_value()) return Err("unknown dataset '" + name + "'");
    Graph g = daf::workload::MakeDataset(*id, scale, seed);
    out_ << "ok graph vertices=" << g.NumVertices()
         << " edges=" << g.NumEdges() << "\n";
    SetData(std::move(g));
    return true;
  }

  bool CmdStart(std::istringstream& ss) {
    // In durable mode the data dir can supply the graph (recovery); a seed
    // graph is only mandatory memory-only or on the very first run.
    if (!has_data_ && config_.data_dir.empty()) {
      return Err("no data graph (use load/dataset first)");
    }
    if (service_ != nullptr) return Err("service already started");
    int64_t workers = 0, queue = 0;
    if (ss >> workers) defaults_.num_workers = static_cast<uint32_t>(workers);
    if (ss >> queue) defaults_.queue_capacity = static_cast<size_t>(queue);
    StartService();
    return true;
  }

  bool CmdSubmit(std::istringstream& ss) {
    if (service_ == nullptr) return Err("service not started");
    std::string path, priority_text;
    if (!(ss >> path)) return Err("submit needs a query path");
    QueryJob job;
    if (ss >> priority_text &&
        !ParsePriority(priority_text.c_str(), &job.priority)) {
      return Err("unknown priority '" + priority_text + "'");
    }
    ss >> job.deadline_ms >> job.limit;
    std::string error;
    std::optional<Graph> q = daf::LoadGraph(path, &error);
    if (!q.has_value()) return Err(error);
    job.query = std::move(*q);
    JobHandle handle = service_->Submit(std::move(job));
    jobs_.emplace(handle.id(), handle);
    out_ << "ok job " << handle.id() << " " << ToString(handle.Status())
         << "\n";
    return true;
  }

  JobHandle* FindJob(std::istringstream& ss) {
    uint64_t id = 0;
    if (!(ss >> id)) {
      Err("expected a job id");
      return nullptr;
    }
    auto it = jobs_.find(id);
    if (it == jobs_.end()) {
      Err("no such job");
      return nullptr;
    }
    return &it->second;
  }

  bool CmdPoll(std::istringstream& ss) {
    if (JobHandle* job = FindJob(ss)) {
      out_ << "ok job " << job->id() << " " << ToString(job->Status())
           << "\n";
    }
    return true;
  }

  bool CmdWait(std::istringstream& ss) {
    JobHandle* job = FindJob(ss);
    if (job == nullptr) return true;
    JobStatus status = job->Wait();
    const daf::MatchResult& r = job->Result();
    out_ << "ok job " << job->id() << " " << ToString(status)
         << " embeddings=" << r.embeddings << " calls=" << r.recursive_calls
         << " wait_ms=" << job->wait_ms() << " run_ms=" << job->run_ms();
    if (!r.ok) out_ << " error=\"" << r.error << "\"";
    out_ << "\n";
    return true;
  }

  bool CmdCancel(std::istringstream& ss) {
    if (JobHandle* job = FindJob(ss)) {
      job->Cancel();
      out_ << "ok job " << job->id() << " cancel requested\n";
    }
    return true;
  }

  // update +v 3 +e 0 5 -e 1 2 -v 7   (one atomic batch per line)
  bool CmdUpdate(std::istringstream& ss) {
    if (service_ == nullptr) return Err("service not started");
    daf::dyn::UpdateBatch batch;
    std::string op;
    while (ss >> op) {
      if (op == "+v") {
        int64_t label = 0;
        if (!(ss >> label)) return Err("+v needs a label");
        batch.AddVertex(static_cast<daf::Label>(label));
      } else if (op == "-v") {
        uint32_t v = 0;
        if (!(ss >> v)) return Err("-v needs a vertex id");
        batch.RemoveVertex(v);
      } else if (op == "+e") {
        uint32_t u = 0, v = 0;
        if (!(ss >> u >> v)) return Err("+e needs two vertex ids");
        int64_t elabel = 0;
        ss >> elabel;  // optional; leaves 0 (unlabeled) when absent
        batch.InsertEdge(u, v, static_cast<daf::Label>(elabel));
      } else if (op == "-e") {
        uint32_t u = 0, v = 0;
        if (!(ss >> u >> v)) return Err("-e needs two vertex ids");
        batch.RemoveEdge(u, v);
      } else {
        return Err("unknown update op '" + op + "' (+v/-v/+e/-e)");
      }
    }
    daf::service::UpdateOutcome out = service_->ApplyUpdates(batch);
    if (!out.ok) return Err(out.error);
    out_ << "ok update version=" << out.version << " +e="
         << out.inserted_edges << " -e=" << out.removed_edges
         << " +v=" << out.added_vertices << " -v=" << out.removed_vertices
         << " ignored=" << out.ignored_ops
         << " created=" << out.embeddings_created
         << " destroyed=" << out.embeddings_destroyed
         << " notified=" << out.subscriptions_notified
         << " resyncs=" << out.resyncs << "\n";
    return true;
  }

  bool CmdSubscribe(std::istringstream& ss) {
    if (service_ == nullptr) return Err("service not started");
    std::string path, mode;
    if (!(ss >> path)) return Err("subscribe needs a query path");
    QueryJob job;
    if (ss >> mode) {
      if (mode != "hom") return Err("unknown subscribe mode '" + mode + "'");
      job.options.injective = false;
    }
    std::string error;
    std::optional<Graph> q = daf::LoadGraph(path, &error);
    if (!q.has_value()) return Err(error);
    job.query = std::move(*q);
    daf::service::SubscriptionHandle sub =
        service_->Subscribe(std::move(job));
    if (!sub.ok()) return Err(sub.error());
    subs_.emplace(sub.id(), sub);
    out_ << "ok sub " << sub.id() << " version=" << sub.subscribed_version()
         << "\n";
    return true;
  }

  daf::service::SubscriptionHandle* FindSub(std::istringstream& ss) {
    uint64_t id = 0;
    if (!(ss >> id)) {
      Err("expected a subscription id");
      return nullptr;
    }
    auto it = subs_.find(id);
    if (it == subs_.end()) {
      Err("no such subscription");  // per-connection: others' ids don't
      return nullptr;               // resolve here
    }
    return &it->second;
  }

  bool CmdDeltas(std::istringstream& ss) {
    daf::service::SubscriptionHandle* sub = FindSub(ss);
    if (sub == nullptr) return true;
    size_t batches = 0, deltas = 0;
    for (daf::service::DeltaBatch& batch : sub->Drain()) {
      ++batches;
      if (batch.resync) {
        out_ << "resync " << batch.version << "\n";
        continue;
      }
      for (const daf::service::EmbeddingDelta& d : batch.deltas) {
        ++deltas;
        out_ << "delta " << batch.version << (d.created ? " +" : " -");
        for (daf::VertexId v : d.embedding) out_ << " " << v;
        out_ << "\n";
      }
    }
    out_ << "ok sub " << sub->id() << " batches=" << batches
         << " deltas=" << deltas << "\n";
    return true;
  }

  bool CmdUnsubscribe(std::istringstream& ss) {
    daf::service::SubscriptionHandle* sub = FindSub(ss);
    if (sub == nullptr) return true;
    sub->Unsubscribe();
    out_ << "ok sub " << sub->id() << " unsubscribed\n";
    subs_.erase(sub->id());
    return true;
  }

  bool CmdStats() {
    if (service_ == nullptr) return Err("service not started");
    out_ << daf::obs::ServiceMetricsToJson(service_->Metrics()) << "\n"
         << "ok\n";
    return true;
  }

  bool Err(const std::string& message) {
    out_ << "err " << message << "\n";
    return true;
  }

  std::istream& in_;
  std::ostream& out_;
  ServiceOptions defaults_;
  ServerConfig config_;
  Graph data_;
  bool has_data_ = false;
  std::unique_ptr<MatchService> service_;
  std::map<uint64_t, JobHandle> jobs_;
  std::map<uint64_t, daf::service::SubscriptionHandle> subs_;
};

#ifdef __unix__
// An ostream sink over a raw fd that loops partial writes and retries
// EINTR, so a slow or half-closed client can't truncate a response or kill
// the process mid-write. A real write error (the client vanished — EPIPE,
// ECONNRESET, or an injected server_write fault) marks the buffer bad; the
// session's next getline/flush fails and only that connection ends.
class FdOutBuf : public std::streambuf {
 public:
  explicit FdOutBuf(int fd) : fd_(fd) {
    setp(buffer_, buffer_ + sizeof(buffer_));
  }
  ~FdOutBuf() override {
    sync();
    ::close(fd_);  // owns its (dup'ed) fd
  }

 protected:
  int overflow(int ch) override {
    if (!FlushBuffer()) return traits_type::eof();
    if (ch != traits_type::eof()) {
      *pptr() = static_cast<char>(ch);
      pbump(1);
    }
    return ch == traits_type::eof() ? 0 : ch;
  }
  int sync() override { return FlushBuffer() ? 0 : -1; }

 private:
  bool FlushBuffer() {
    const char* p = pbase();
    const char* end = pptr();
    while (p < end) {
      if (FAULT_POINT(server_write)) {
        errno = EPIPE;  // simulated peer disappearance
        return false;
      }
      ssize_t n = ::write(fd_, p, static_cast<size_t>(end - p));
      if (n < 0) {
        if (errno == EINTR) continue;  // interrupted: retry the same slice
        return false;                  // real error: poison this stream only
      }
      p += n;
    }
    setp(buffer_, buffer_ + sizeof(buffer_));
    return true;
  }

  int fd_;
  char buffer_[4096];
};

// Serves protocol sessions to TCP clients on 127.0.0.1:`port`, one client
// at a time (the service itself is concurrent; the control channel is not).
// Per-connection failures (protocol errors, write failures, exceptions) are
// contained: the session ends, the listener keeps accepting.
int ServeTcp(uint16_t port, const ServiceOptions& defaults,
             const ServerConfig& config,
             const std::optional<Graph>& preloaded) {
  // A client closing mid-response must surface as a write error on that
  // connection, not a process-killing signal.
  std::signal(SIGPIPE, SIG_IGN);
  int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listener < 0) {
    std::perror("socket");
    return 1;
  }
  int one = 1;
  ::setsockopt(listener, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
          0 ||
      ::listen(listener, 8) < 0) {
    std::perror("bind/listen");
    ::close(listener);
    return 1;
  }
  std::fprintf(stderr, "daf_server listening on 127.0.0.1:%u\n", port);
  while (g_stop == 0) {
    int client = ::accept(listener, nullptr, nullptr);
    if (client < 0) {
      if (errno == EINTR) {
        // SIGTERM/SIGINT land here (no SA_RESTART): stop accepting and
        // exit; any in-session service already shut down gracefully when
        // its Run() loop saw the flag.
        if (g_stop != 0) break;
        continue;  // other signal during accept: keep serving
      }
      std::perror("accept");
      break;
    }
    try {
      __gnu_cxx::stdio_filebuf<char> inbuf(client, std::ios::in);
      FdOutBuf outbuf(::dup(client));
      std::istream in(&inbuf);
      std::ostream out(&outbuf);
      Session session(in, out, defaults, config);
      if (preloaded.has_value()) session.SetData(*preloaded);
      session.Run();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "session error: %s\n", e.what());
    }
    ::close(client);
  }
  if (g_stop != 0) std::fprintf(stderr, "daf_server: shutting down\n");
  ::close(listener);
  return 0;
}

// Installs the stop flag on SIGTERM/SIGINT without SA_RESTART, so blocking
// reads and accepts return EINTR and the serving loops wind down.
void InstallStopHandlers() {
  struct sigaction sa{};
  sa.sa_handler = [](int) { g_stop = 1; };
  ::sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGINT, &sa, nullptr);
}
#endif

}  // namespace

int main(int argc, char** argv) {
  daf::FlagSet flags;
  std::string& data_path =
      flags.String("data", "", "data graph to preload (t/v/e format)");
  std::string& dataset =
      flags.String("dataset", "", "paper dataset stand-in to preload");
  double& scale = flags.Double("scale", 0.1, "dataset synthesis scale");
  int64_t& workers = flags.Int64("workers", 4, "worker threads");
  int64_t& queue = flags.Int64("queue", 256, "admission queue capacity");
  int64_t& port =
      flags.Int64("port", 0, "serve TCP on 127.0.0.1:PORT (0 = stdin)");
  std::string& data_dir = flags.String(
      "data-dir", "", "durable-state directory (WAL + snapshots; empty = "
                      "memory-only)");
  std::string& fsync =
      flags.String("fsync", "every", "WAL fsync policy: every|interval|off");
  int64_t& grace =
      flags.Int64("grace", 2000, "graceful-shutdown drain bound (ms)");
  if (!flags.Parse(argc, argv)) {
    std::fprintf(stderr, "%s\n", flags.error().c_str());
    flags.PrintUsage(argv[0]);
    return 1;
  }

  ServiceOptions defaults;
  defaults.num_workers = static_cast<uint32_t>(workers);
  defaults.queue_capacity = static_cast<size_t>(queue);

  ServerConfig config;
  config.data_dir = data_dir;
  config.grace_ms = grace < 0 ? 0 : static_cast<uint64_t>(grace);
  if (!daf::persist::ParseFsyncPolicy(fsync, &config.fsync_policy)) {
    std::fprintf(stderr, "unknown --fsync policy %s (every|interval|off)\n",
                 fsync.c_str());
    return 1;
  }

  std::optional<Graph> preloaded;
  if (!data_path.empty()) {
    std::string error;
    preloaded = daf::persist::LoadGraphAnyFormat(data_path, &error);
    if (!preloaded.has_value()) {
      std::fprintf(stderr, "cannot load %s: %s\n", data_path.c_str(),
                   error.c_str());
      return 1;
    }
  } else if (!dataset.empty()) {
    std::optional<daf::workload::DatasetId> id = DatasetByName(dataset);
    if (!id.has_value()) {
      std::fprintf(stderr, "unknown dataset %s\n", dataset.c_str());
      return 1;
    }
    preloaded = daf::workload::MakeDataset(*id, scale, 1);
  }

#ifdef __unix__
  InstallStopHandlers();
#endif

  if (port != 0) {
#ifdef __unix__
    return ServeTcp(static_cast<uint16_t>(port), defaults, config, preloaded);
#else
    std::fprintf(stderr, "--port requires a unix platform\n");
    return 1;
#endif
  }

  Session session(std::cin, std::cout, defaults, config);
  if (preloaded.has_value()) session.SetData(std::move(*preloaded));
  session.Run();
  return 0;
}
