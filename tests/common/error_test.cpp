// DKFAC_CHECK locations are repo-relative: the library builds with the repo
// root mapped out of __FILE__, so a user sees "src/…:line", never the build
// machine's absolute path.
#include <gtest/gtest.h>

#include <string>

#include "common/error.hpp"
#include "core/assignment.hpp"
#include "core/options.hpp"

namespace dkfac {
namespace {

template <typename Fn>
std::string error_of(Fn&& fn) {
  try {
    fn();
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

TEST(DkfacCheck, LocationIsRepoRelative) {
  const std::string from_header =
      error_of([] { kfac::KfacOptions{}.with_update_freq(0); });
  const std::string from_source =
      error_of([] { kfac::assign_round_robin({8, 8}, /*workers=*/0); });
  EXPECT_TRUE(from_header.starts_with("src/core/options.hpp:")) << from_header;
  EXPECT_TRUE(from_source.starts_with("src/core/assignment.cpp:")) << from_source;
  for (const std::string& what : {from_header, from_source}) {
    EXPECT_EQ(what.find(DKFAC_SOURCE_DIR), std::string::npos) << what;
  }
}

}  // namespace
}  // namespace dkfac
