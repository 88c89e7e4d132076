// The ClientApi contract, run twice: over the in-process ServiceClient and over a
// RemoteServiceClient talking to a loopback TcpServer (epoll reactor). The
// assertions are transport-blind — the point of the parameterization is that
// nothing here may depend on which side of a socket the service lives.
#include <algorithm>
#include <chrono>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/server/client.h"
#include "src/server/tcp_client.h"
#include "src/server/tcp_server.h"
#include "src/support/json.h"

namespace hac {
namespace {

enum class Transport { kInProcess, kEpollTcp };

const char* TransportName(Transport t) {
  return t == Transport::kInProcess ? "InProcess" : "LoopbackEpollTcp";
}

// TCP-side effects of a disconnect (session close, descriptor release) land when
// the server's reactor observes EOF, not when the client object dies — poll
// instead of asserting immediately.
bool WaitFor(const std::function<bool()>& pred,
             std::chrono::milliseconds limit = std::chrono::milliseconds(2000)) {
  const auto deadline = std::chrono::steady_clock::now() + limit;
  while (!pred()) {
    if (std::chrono::steady_clock::now() >= deadline) {
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return true;
}

class ClientContractTest : public ::testing::TestWithParam<Transport> {
 protected:
  void SetUp() override {
    service_.emplace(fs_);
    if (GetParam() != Transport::kInProcess) {
      server_.emplace(*service_);
      ASSERT_TRUE(server_->Start().ok());
      ASSERT_NE(server_->port(), 0);
    }
  }

  void TearDown() override {
    // Transport first (its reactors hold Sessions), then the service.
    if (server_.has_value()) {
      server_->Stop();
    }
    if (service_.has_value()) {
      service_->Stop();
    }
  }

  std::unique_ptr<ClientApi> NewClient() {
    if (GetParam() == Transport::kInProcess) {
      return std::make_unique<ServiceClient>(*service_);
    }
    auto remote = std::make_unique<RemoteServiceClient>();
    auto connected = remote->Connect("127.0.0.1", server_->port());
    EXPECT_TRUE(connected.ok()) << connected.error().ToString();
    return remote;
  }

  HacFileSystem fs_;
  std::optional<HacService> service_;
  std::optional<TcpServer> server_;
};

TEST_P(ClientContractTest, OrdinaryOpsMatchDirectFacade) {
  auto client = NewClient();

  ASSERT_TRUE(client->Mkdir("/docs").ok());
  ASSERT_TRUE(client->WriteFile("/docs/fp.txt", "fingerprint minutiae analysis").ok());
  ASSERT_TRUE(client->WriteFile("/docs/cook.txt", "butter flour oven").ok());
  ASSERT_TRUE(client->Reindex().ok());
  ASSERT_TRUE(client->SMkdir("/fp", "fingerprint").ok());

  // The client-visible state is the facade's state, whatever the transport.
  auto via_client = client->ReadDir("/fp");
  auto direct = fs_.ReadDir("/fp");
  ASSERT_TRUE(via_client.ok());
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(via_client.value(), direct.value());
  ASSERT_EQ(via_client.value().size(), 1u);
  EXPECT_EQ(via_client.value()[0].name, "fp.txt");

  auto found = client->Search("fingerprint");
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(found.value(), fs_.Search("fingerprint").value());

  auto q = client->GetQuery("/fp");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q.value(), fs_.GetQuery("/fp").value());

  auto st = client->StatPath("/docs/fp.txt");
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st.value().size, fs_.StatPath("/docs/fp.txt").value().size);
  EXPECT_EQ(st.value().inode, fs_.StatPath("/docs/fp.txt").value().inode);

  auto links = client->GetLinkClasses("/fp");
  ASSERT_TRUE(links.ok());
  ASSERT_EQ(links.value().transient.size(), 1u);
  EXPECT_EQ(links.value().transient[0].first, "fp.txt");

  ASSERT_TRUE(client->PromoteLink("/fp/fp.txt").ok());
  EXPECT_EQ(client->GetLinkClasses("/fp").value().permanent.size(), 1u);

  auto missing = client->StatPath("/nope");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.error().code, ErrorCode::kNotFound);
}

TEST_P(ClientContractTest, DescriptorsAndRelativePathsArePerSession) {
  auto a = NewClient();
  auto b = NewClient();

  ASSERT_TRUE(a->Mkdir("/shared").ok());
  ASSERT_TRUE(a->WriteFile("/shared/f.txt", "abcdefgh").ok());

  auto fd_a = a->Open("/shared/f.txt", kOpenRead);
  auto fd_b = b->Open("/shared/f.txt", kOpenRead);
  ASSERT_TRUE(fd_a.ok());
  ASSERT_TRUE(fd_b.ok());
  // Lowest-free allocation per session: both clients get descriptor 0, isolated.
  EXPECT_EQ(fd_a.value(), 0);
  EXPECT_EQ(fd_b.value(), 0);

  // Offsets are independent.
  EXPECT_EQ(a->Read(fd_a.value(), 4).value(), "abcd");
  EXPECT_EQ(b->Read(fd_b.value(), 2).value(), "ab");
  EXPECT_EQ(a->Read(fd_a.value(), 4).value(), "efgh");
  EXPECT_EQ(b->Read(fd_b.value(), 2).value(), "cd");

  // One session's Close cannot touch the other's descriptor.
  ASSERT_TRUE(a->Close(fd_a.value()).ok());
  EXPECT_FALSE(a->Read(fd_a.value(), 1).ok());
  EXPECT_EQ(b->Read(fd_b.value(), 2).value(), "ef");

  // Relative paths resolve against each session's own cwd.
  ASSERT_TRUE(a->Mkdir("/dir_a").ok());
  ASSERT_TRUE(b->Mkdir("/dir_b").ok());
  EXPECT_EQ(a->Chdir("/dir_a").value(), "/dir_a");
  EXPECT_EQ(b->Chdir("/dir_b").value(), "/dir_b");
  ASSERT_TRUE(a->WriteFile("mine.txt", "from a").ok());
  ASSERT_TRUE(b->WriteFile("mine.txt", "from b").ok());
  EXPECT_TRUE(fs_.StatPath("/dir_a/mine.txt").ok());
  EXPECT_TRUE(fs_.StatPath("/dir_b/mine.txt").ok());
  EXPECT_EQ(a->StatPath("mine.txt").value().inode,
            fs_.StatPath("/dir_a/mine.txt").value().inode);
}

TEST_P(ClientContractTest, ClientTeardownReleasesItsDescriptors) {
  ASSERT_TRUE(fs_.WriteFile("/f.txt", "data").ok());
  {
    auto client = NewClient();
    ASSERT_TRUE(client->Open("/f.txt", kOpenRead).ok());
    ASSERT_TRUE(client->Open("/f.txt", kOpenRead).ok());
    EXPECT_EQ(fs_.vfs().OpenFdCount(), 2u);
  }
  // In-process: ~ServiceClient closed the session synchronously. TCP: the server
  // closes the session when the connection drops — poll for it.
  EXPECT_TRUE(WaitFor([this] { return fs_.vfs().OpenFdCount() == 0; }));
  EXPECT_TRUE(WaitFor([this] {
    auto stats = service_->Stats();
    return stats.sessions_opened == 1u && stats.sessions_closed == 1u;
  }));
}

TEST_P(ClientContractTest, SemanticWritesThroughServiceKeepScopeConsistency) {
  auto client = NewClient();
  ASSERT_TRUE(client->Mkdir("/docs").ok());
  ASSERT_TRUE(client->WriteFile("/docs/a.txt", "fingerprint ridge").ok());
  ASSERT_TRUE(client->WriteFile("/docs/b.txt", "sailing regatta").ok());
  ASSERT_TRUE(client->Reindex().ok());
  ASSERT_TRUE(client->SMkdir("/fp", "fingerprint").ok());
  ASSERT_EQ(client->ReadDir("/fp").value().size(), 1u);

  // Retargeting the query through the service re-evaluates the directory.
  ASSERT_TRUE(client->SetQuery("/fp", "sailing").ok());
  auto entries = client->ReadDir("/fp");
  ASSERT_TRUE(entries.ok());
  ASSERT_EQ(entries.value().size(), 1u);
  EXPECT_EQ(entries.value()[0].name, "b.txt");

  // Unlink of a transient link prohibits re-adding it (section 2.3 semantics).
  ASSERT_TRUE(client->Unlink("/fp/b.txt").ok());
  ASSERT_TRUE(client->SSync("/fp").ok());
  EXPECT_TRUE(client->ReadDir("/fp").value().empty());
  EXPECT_EQ(client->GetLinkClasses("/fp").value().prohibited.size(), 1u);
}

TEST_P(ClientContractTest, ErrorCodesAndMessagesCrossTheTransportIntact) {
  auto client = NewClient();
  struct Case {
    ErrorCode want;
    std::function<Error()> run;
  };
  const Case cases[] = {
      {ErrorCode::kNotFound, [&] { return client->ReadDir("/missing").error(); }},
      {ErrorCode::kNotFound, [&] { return client->Unlink("/missing").error(); }},
      {ErrorCode::kAlreadyExists,
       [&] {
         EXPECT_TRUE(client->Mkdir("/dup").ok());
         return client->Mkdir("/dup").error();
       }},
      {ErrorCode::kBadDescriptor, [&] { return client->Close(1234).error(); }},
      {ErrorCode::kNotADirectory,
       [&] {
         EXPECT_TRUE(client->WriteFile("/plain.txt", "x").ok());
         return client->ReadDir("/plain.txt").error();
       }},
  };
  for (const auto& c : cases) {
    Error err = c.run();
    EXPECT_EQ(err.code, c.want) << ErrorCodeName(err.code);
    // Context survives the transport too, not just the code.
    EXPECT_FALSE(err.message.empty()) << ErrorCodeName(c.want);
  }
}

TEST_P(ClientContractTest, StatsAndIntrospectionTravel) {
  auto client = NewClient();
  ASSERT_TRUE(client->Mkdir("/docs").ok());
  ASSERT_TRUE(client->WriteFile("/docs/a.txt", "alpha beta").ok());
  ASSERT_TRUE(client->Reindex().ok());
  ASSERT_TRUE(client->SMkdir("/q", "alpha").ok());

  StatsSnapshot stats = client->Stats();
  EXPECT_GE(stats.docs_indexed, 1u);
  EXPECT_GE(stats.index.documents, 1u);
  EXPECT_GE(stats.vfs.mkdirs, 1u);
  EXPECT_EQ(stats.docs_indexed, fs_.Stats().docs_indexed);

  auto intro = client->Introspect("stats");
  ASSERT_TRUE(intro.ok());
  EXPECT_TRUE(JsonValidate(intro.value()));
  EXPECT_NE(intro.value().find("hac.introspect.v1"), std::string::npos);

  auto trace = client->Introspect("trace");
  ASSERT_TRUE(trace.ok());
  EXPECT_TRUE(JsonValidate(trace.value()));
}

TEST_P(ClientContractTest, CursorOpsStreamDirectoriesAndSearches) {
  auto client = NewClient();
  ASSERT_TRUE(client->Mkdir("/docs").ok());
  for (int i = 0; i < 9; ++i) {
    ASSERT_TRUE(client
                    ->WriteFile("/docs/f" + std::to_string(i) + ".txt",
                                i % 2 ? "alpha topic" : "bravo topic")
                    .ok());
  }
  ASSERT_TRUE(client->Reindex().ok());

  // Paged enumeration equals the monolithic ReadDir, across every transport.
  auto cursor = client->OpenCursor("/docs");
  ASSERT_TRUE(cursor.ok()) << cursor.error().ToString();
  std::vector<DirEntry> paged;
  size_t pages = 0;
  for (;;) {
    auto page = client->FetchPage(cursor.value(), 4);
    ASSERT_TRUE(page.ok()) << page.error().ToString();
    ++pages;
    for (auto& e : page.value().entries) {
      paged.push_back(std::move(e));
    }
    if (!page.value().has_more) {
      break;
    }
  }
  ASSERT_TRUE(client->CloseCursor(cursor.value()).ok());
  EXPECT_GE(pages, 3u);  // 9 entries in pages of <= 4
  EXPECT_EQ(paged, client->ReadDir("/docs").value());

  // Paged search equals the monolithic Search (order may differ: DocId vs path).
  auto sc = client->OpenCursor("/docs", "alpha");
  ASSERT_TRUE(sc.ok());
  std::vector<std::string> found;
  for (;;) {
    auto page = client->FetchPage(sc.value(), 2);
    ASSERT_TRUE(page.ok()) << page.error().ToString();
    for (auto& p : page.value().paths) {
      found.push_back(std::move(p));
    }
    if (!page.value().has_more) {
      break;
    }
  }
  ASSERT_TRUE(client->CloseCursor(sc.value()).ok());
  auto mono = client->Search("alpha", "/docs");
  ASSERT_TRUE(mono.ok());
  std::sort(found.begin(), found.end());
  std::vector<std::string> expected = mono.value();
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(found, expected);
}

TEST_P(ClientContractTest, CursorErrorTaxonomyIsTransportBlind) {
  auto client = NewClient();
  ASSERT_TRUE(client->Mkdir("/docs").ok());
  ASSERT_TRUE(client->WriteFile("/docs/a.txt", "x").ok());

  // Unknown cursor ids and misuse map to the same codes everywhere.
  EXPECT_EQ(client->FetchPage(777).error().code, ErrorCode::kBadDescriptor);
  EXPECT_EQ(client->CloseCursor(777).error().code, ErrorCode::kBadDescriptor);
  EXPECT_EQ(client->OpenCursor("/missing").error().code, ErrorCode::kNotFound);
  EXPECT_EQ(client->OpenCursor("/docs/a.txt").error().code,
            ErrorCode::kNotADirectory);
  // Malformed queries fail at open with the same code monolithic Search uses.
  EXPECT_EQ(client->OpenCursor("/docs", "AND AND").error().code,
            client->Search("AND AND", "/docs").error().code);

  // A fetch that fails auto-closes the cursor server-side: here the scope
  // directory is removed between fetches.
  ASSERT_TRUE(client->Mkdir("/docs/sub").ok());
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(
        client->WriteFile("/docs/sub/s" + std::to_string(i) + ".txt", "y").ok());
  }
  auto cursor = client->OpenCursor("/docs/sub");
  ASSERT_TRUE(cursor.ok());
  auto first = client->FetchPage(cursor.value(), 2);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(first.value().has_more);
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(client->Unlink("/docs/sub/s" + std::to_string(i) + ".txt").ok());
  }
  ASSERT_TRUE(client->Rmdir("/docs/sub").ok());
  auto gone = client->FetchPage(cursor.value(), 2);
  ASSERT_FALSE(gone.ok());
  EXPECT_EQ(gone.error().code, ErrorCode::kNotFound);
  EXPECT_EQ(client->CloseCursor(cursor.value()).error().code,
            ErrorCode::kBadDescriptor);

  // Writes between fetches never fail a cursor: it resumes after the last entry
  // it delivered.
  auto fresh = client->OpenCursor("/docs");
  ASSERT_TRUE(fresh.ok());
  ASSERT_TRUE(client->WriteFile("/docs/later.txt", "w").ok());
  auto page = client->FetchPage(fresh.value(), 1);
  ASSERT_TRUE(page.ok()) << page.error().ToString();
  ASSERT_EQ(page.value().entries.size(), 1u);
  EXPECT_EQ(page.value().entries[0].name, "a.txt");
  ASSERT_TRUE(client->WriteFile("/docs/zz.txt", "w").ok());
  auto rest = client->FetchPage(fresh.value());
  ASSERT_TRUE(rest.ok()) << rest.error().ToString();
  ASSERT_EQ(rest.value().entries.size(), 2u);
  EXPECT_EQ(rest.value().entries[0].name, "later.txt");
  EXPECT_EQ(rest.value().entries[1].name, "zz.txt");
  ASSERT_TRUE(client->CloseCursor(fresh.value()).ok());
}

TEST_P(ClientContractTest, PagedConvenienceHelpersMatchMonolithicResults) {
  auto client = NewClient();
  ASSERT_TRUE(client->Mkdir("/docs").ok());
  for (int i = 0; i < 7; ++i) {
    ASSERT_TRUE(
        client->WriteFile("/docs/h" + std::to_string(i) + ".txt", "alpha").ok());
  }
  ASSERT_TRUE(client->Reindex().ok());

  auto paged_dir = client->ReadDirPaged("/docs", 3);
  ASSERT_TRUE(paged_dir.ok()) << paged_dir.error().ToString();
  EXPECT_EQ(paged_dir.value(), client->ReadDir("/docs").value());

  auto paged_search = client->SearchPaged("alpha", "/docs", 3);
  ASSERT_TRUE(paged_search.ok()) << paged_search.error().ToString();
  std::vector<std::string> got = paged_search.value();
  std::sort(got.begin(), got.end());
  std::vector<std::string> expected = client->Search("alpha", "/docs").value();
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(got, expected);
}

TEST_P(ClientContractTest, CursorTableCapRejectsWithOverloaded) {
  auto client = NewClient();
  ASSERT_TRUE(client->Mkdir("/docs").ok());
  const size_t cap = service_->options().max_cursors_per_session;
  std::vector<Fd> open;
  for (size_t i = 0; i < cap; ++i) {
    auto c = client->OpenCursor("/docs");
    ASSERT_TRUE(c.ok()) << "cursor " << i << ": " << c.error().ToString();
    open.push_back(c.value());
  }
  auto over = client->OpenCursor("/docs");
  ASSERT_FALSE(over.ok());
  EXPECT_EQ(over.error().code, ErrorCode::kOverloaded);
  // Closing one frees a slot.
  ASSERT_TRUE(client->CloseCursor(open.back()).ok());
  auto again = client->OpenCursor("/docs");
  EXPECT_TRUE(again.ok()) << again.error().ToString();
}

std::string TransportParamName(const ::testing::TestParamInfo<Transport>& param) {
  return TransportName(param.param);
}

INSTANTIATE_TEST_SUITE_P(Transports, ClientContractTest,
                         ::testing::Values(Transport::kInProcess, Transport::kEpollTcp),
                         TransportParamName);

}  // namespace
}  // namespace hac
