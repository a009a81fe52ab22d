// harmony-lint exit-code contract (satellite b): 0 clean, 1 warnings
// only, 2 errors — over the merged lint + --check-exec counts — plus
// the --json output path.  Drives the real binary (HARMONY_LINT_BIN,
// injected by tests/CMakeLists.txt as $<TARGET_FILE:harmony_lint>).
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdio>
#include <string>

namespace {

struct CliResult {
  int exit_code = -1;
  std::string out;
};

CliResult run_lint(const std::string& args) {
  const std::string cmd =
      std::string(HARMONY_LINT_BIN) + " " + args + " 2>&1";
  CliResult r;
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return r;
  char buf[4096];
  std::size_t n = 0;
  while ((n = fread(buf, 1, sizeof(buf), pipe)) > 0) {
    r.out.append(buf, n);
  }
  const int rc = pclose(pipe);
  r.exit_code = WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
  return r;
}

TEST(HarmonyLintCli, CleanMappingExitsZero) {
  const CliResult r =
      run_lint("--spec=editdist:16x16 --machine=4x1 --map=wavefront");
  EXPECT_EQ(r.exit_code, 0) << r.out;
  EXPECT_NE(r.out.find("legal"), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("0 error(s), 0 warning(s)"), std::string::npos)
      << r.out;
}

TEST(HarmonyLintCli, WarningOnlyMappingExitsOne) {
  // The wavefront uses one mesh row; on 4x4 the idle PEs draw an
  // underutilization warning (FM101) but the mapping stays legal.
  const CliResult r =
      run_lint("--spec=editdist:16x16 --machine=4x4 --map=wavefront");
  EXPECT_EQ(r.exit_code, 1) << r.out;
  EXPECT_NE(r.out.find("legal"), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("FM101"), std::string::npos) << r.out;
}

TEST(HarmonyLintCli, IllegalMappingExitsTwo) {
  const CliResult r = run_lint(
      "--spec=editdist:8x8 --machine=2x1 --map=affine:0,0,0,0,0,0");
  EXPECT_EQ(r.exit_code, 2) << r.out;
  EXPECT_NE(r.out.find("ILLEGAL"), std::string::npos) << r.out;
}

TEST(HarmonyLintCli, JsonOutputCarriesTheDiagnosticsAndSameExit) {
  const CliResult r = run_lint(
      "--spec=editdist:16x16 --machine=4x4 --map=wavefront --json");
  EXPECT_EQ(r.exit_code, 1) << r.out;
  EXPECT_EQ(r.out.front(), '[') << r.out;
  EXPECT_NE(r.out.find("\"rule\": \"FM101\""), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("\"severity\": \"warning\""), std::string::npos)
      << r.out;
}

TEST(HarmonyLintCli, CheckExecCleanAffineFixtureExitsZero) {
  const CliResult r = run_lint(
      "--spec=editdist:16x16 --machine=4x1 --map=wavefront --check-exec");
  EXPECT_EQ(r.exit_code, 0) << r.out;
  EXPECT_NE(r.out.find("[exec checked]"), std::string::npos) << r.out;
}

TEST(HarmonyLintCli, CheckExecCleanTableFixtureExitsZero) {
  const CliResult r = run_lint(
      "--spec=stencil:64,8 --machine=4x1 --map=table --check-exec");
  EXPECT_EQ(r.exit_code, 0) << r.out;
  EXPECT_NE(r.out.find("[exec checked]"), std::string::npos) << r.out;
}

TEST(HarmonyLintCli, CheckExecMergesIntoTheExitCode) {
  const CliResult r =
      run_lint("--spec=editdist:8x8 --machine=2x1 "
               "--map=affine:0,0,0,0,0,0 --check-exec");
  EXPECT_EQ(r.exit_code, 2) << r.out;
  EXPECT_NE(r.out.find("[exec checked]"), std::string::npos) << r.out;
}

TEST(HarmonyLintCli, BadArgumentsExitTwo) {
  EXPECT_EQ(run_lint("--map=nonsense").exit_code, 2);
  EXPECT_EQ(run_lint("--no-such-flag").exit_code, 2);
  // Malformed or out-of-range numbers are usage errors, and sizes a
  // builder rejects are errors, not aborts.
  for (const char* arg : {"--spec=editdist:axb",
                          "--spec=editdist:99999999999999999999x2",
                          "--machine=axb", "--pe-capacity=abc",
                          "--map=affine:1,1,x,0,1,0", "--pipeline=fft:q",
                          "--machine=3000000000x1", "--pipeline=fft:0"}) {
    const CliResult r = run_lint(arg);
    EXPECT_EQ(r.exit_code, 2) << arg << "\n" << r.out;
  }
}

}  // namespace
