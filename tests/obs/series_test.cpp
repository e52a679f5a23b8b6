// The time-series contract: the JSONL writer round-trips through the
// strict reader byte-for-byte on re-render, the registry sampler keys
// samples by ordinal (never the wall clock) and records counter deltas,
// the worker-tagged merge is associative, and every malformed input —
// missing header, truncated line, garbage, mistyped member — is a NAMED
// error carrying the origin and line number, never a crash or a silent
// partial parse.
#include "obs/series.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/json.h"
#include "obs/metrics.h"

namespace {

using namespace rlbf;

std::string render(const std::vector<obs::Series>& series,
                   std::int64_t anchor) {
  std::ostringstream os;
  obs::write_series_jsonl(os, series, anchor);
  return os.str();
}

/// EXPECT that `fn` throws `E` and that the message contains `needle`.
template <typename E, typename Fn>
void expect_throw_containing(Fn fn, const std::string& needle) {
  try {
    fn();
    FAIL() << "expected an exception mentioning: " << needle;
  } catch (const E& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "actual message: " << e.what();
  }
}

// ---- recorder + round trip ----------------------------------------------

TEST(SeriesTest, RecorderRoundTripsThroughWriterAndReader) {
  obs::SeriesRecorder recorder;
  recorder.record("train.policy_loss", 1, 0.25);
  recorder.record("train.policy_loss", 2, 0.125);
  recorder.record("train.eval_bsld", 2, 3.5);
  recorder.record("dist.job_seconds", 0, 1.5);
  EXPECT_FALSE(recorder.empty());

  const std::string text =
      render(recorder.snapshot(), recorder.epoch_anchor_us());
  const obs::SeriesDoc doc = obs::parse_series_jsonl(text, "roundtrip");
  EXPECT_EQ(doc.epoch_anchor_us, recorder.epoch_anchor_us());
  ASSERT_EQ(doc.series.size(), 3u);
  // Reader output is sorted by (name, source).
  EXPECT_EQ(doc.series[0].name, "dist.job_seconds");
  EXPECT_EQ(doc.series[1].name, "train.eval_bsld");
  EXPECT_EQ(doc.series[2].name, "train.policy_loss");
  ASSERT_EQ(doc.series[2].points.size(), 2u);
  EXPECT_EQ(doc.series[2].points[0].step, 1);
  EXPECT_DOUBLE_EQ(doc.series[2].points[0].value, 0.25);
  EXPECT_EQ(doc.series[2].points[1].step, 2);
  EXPECT_DOUBLE_EQ(doc.series[2].points[1].value, 0.125);

  // Re-rendering the parsed document reproduces the file byte-for-byte
  // (the recorder snapshot is already name-sorted, like the reader).
  EXPECT_EQ(render(doc.series, doc.epoch_anchor_us), text);
}

TEST(SeriesTest, EmptyDocumentStillCarriesTheMetaHeader) {
  // Every dump has at least the header line, so a worker sidecar that
  // recorded nothing still loads cleanly instead of tripping the
  // empty-file check.
  const std::string text = render({}, 42);
  EXPECT_EQ(text.substr(0, 1), "{");
  const obs::SeriesDoc doc = obs::parse_series_jsonl(text, "empty");
  EXPECT_EQ(doc.epoch_anchor_us, 42);
  EXPECT_TRUE(doc.series.empty());
}

TEST(SeriesTest, SourceTagSurvivesTheRoundTrip) {
  obs::Series s;
  s.name = "train.entropy";
  s.source = "worker0";
  s.points = {{1, 0.5, 123}, {2, 0.25, 456}};
  const std::string text = render({s}, 7);
  const obs::SeriesDoc doc = obs::parse_series_jsonl(text, "tagged");
  ASSERT_EQ(doc.series.size(), 1u);
  EXPECT_EQ(doc.series[0].source, "worker0");
  ASSERT_EQ(doc.series[0].points.size(), 2u);
  EXPECT_EQ(doc.series[0].points[1].wall_us, 456);
  EXPECT_EQ(render(doc.series, doc.epoch_anchor_us), text);
}

// ---- reader errors ------------------------------------------------------

TEST(SeriesTest, ReaderRequiresTheMetaHeader) {
  expect_throw_containing<std::runtime_error>(
      [] {
        obs::parse_series_jsonl(
            R"({"series": "a", "step": 1, "value": 2, "wall_us": 3})",
            "headless.jsonl");
      },
      "series meta header");
  expect_throw_containing<std::runtime_error>(
      [] { obs::parse_series_jsonl("", "blank.jsonl"); },
      "no series meta header found");
}

TEST(SeriesTest, ReaderRejectsUnsupportedVersions) {
  expect_throw_containing<std::runtime_error>(
      [] {
        obs::parse_series_jsonl(
            R"({"meta": "series", "version": 2, "epoch_anchor_us": 0})",
            "v2.jsonl");
      },
      "unsupported series version");
}

TEST(SeriesTest, ReaderNamesTheTruncatedLine) {
  const std::string text =
      "{\"meta\": \"series\", \"version\": 1, \"epoch_anchor_us\": 0}\n"
      "{\"series\": \"a\", \"step\": 1, \"va";
  expect_throw_containing<std::runtime_error>(
      [&] { obs::parse_series_jsonl(text, "cut.jsonl"); }, "cut.jsonl:2");
}

TEST(SeriesTest, ReaderNamesTheGarbageLine) {
  const std::string text =
      "{\"meta\": \"series\", \"version\": 1, \"epoch_anchor_us\": 0}\n"
      "{\"series\": \"a\", \"step\": 1, \"value\": 2, \"wall_us\": 3}\n"
      "not json at all\n";
  expect_throw_containing<std::runtime_error>(
      [&] { obs::parse_series_jsonl(text, "garbage.jsonl"); },
      "garbage.jsonl:3");
}

TEST(SeriesTest, ReaderRejectsMistypedMembers) {
  const std::string header =
      "{\"meta\": \"series\", \"version\": 1, \"epoch_anchor_us\": 0}\n";
  expect_throw_containing<std::runtime_error>(
      [&] {
        obs::parse_series_jsonl(
            header + R"({"series": 5, "step": 1, "value": 2})", "t.jsonl");
      },
      "expected string member \"series\"");
  expect_throw_containing<std::runtime_error>(
      [&] {
        obs::parse_series_jsonl(
            header + R"({"series": "a", "value": 2})", "t.jsonl");
      },
      "expected number member \"step\"");
  expect_throw_containing<std::runtime_error>(
      [&] {
        obs::parse_series_jsonl(
            header + R"({"series": "a", "step": 1, "value": "x"})", "t.jsonl");
      },
      "expected number member \"value\"");
}

TEST(SeriesTest, LoadNamesMissingAndEmptyFiles) {
  const std::string dir = ::testing::TempDir();
  expect_throw_containing<std::runtime_error>(
      [&] { obs::load_series_file(dir + "/does_not_exist.jsonl"); },
      "cannot open series file");
  const std::string empty_path = dir + "/empty_series.jsonl";
  std::ofstream(empty_path, std::ios::binary | std::ios::trunc).flush();
  expect_throw_containing<std::runtime_error>(
      [&] { obs::load_series_file(empty_path); }, "series file is empty");
  std::filesystem::remove(empty_path);
}

// ---- merge --------------------------------------------------------------

obs::SeriesDoc doc_with(const std::string& name,
                        const std::vector<obs::SeriesPoint>& points,
                        std::int64_t anchor) {
  obs::SeriesDoc doc;
  obs::Series s;
  s.name = name;
  s.points = points;
  doc.series.push_back(std::move(s));
  doc.epoch_anchor_us = anchor;
  return doc;
}

TEST(SeriesMergeTest, TagsUntaggedSeriesWithTheDocumentLabel) {
  const obs::SeriesDoc a = doc_with("train.loss", {{1, 0.5, 10}}, 100);
  const obs::SeriesDoc b = doc_with("train.loss", {{1, 0.25, 20}}, 50);
  const obs::SeriesDoc merged =
      obs::merge_series({{"worker0", a}, {"worker1", b}});
  ASSERT_EQ(merged.series.size(), 2u);
  EXPECT_EQ(merged.series[0].source, "worker0");
  EXPECT_EQ(merged.series[1].source, "worker1");
  // Earliest nonzero anchor wins.
  EXPECT_EQ(merged.epoch_anchor_us, 50);
}

TEST(SeriesMergeTest, MergeIsAssociativeBecauseTagsStick) {
  const obs::SeriesDoc a = doc_with("s", {{1, 1.0, 0}}, 30);
  const obs::SeriesDoc b = doc_with("s", {{1, 2.0, 0}}, 20);
  const obs::SeriesDoc c = doc_with("s", {{1, 3.0, 0}}, 10);
  const obs::SeriesDoc flat =
      obs::merge_series({{"x", a}, {"y", b}, {"z", c}});
  // merge(merge(A, B), C): the inner result's series are already
  // tagged x/y, so the outer label "inner" never applies to them.
  const obs::SeriesDoc nested = obs::merge_series(
      {{"inner", obs::merge_series({{"x", a}, {"y", b}})}, {"z", c}});
  EXPECT_EQ(render(flat.series, flat.epoch_anchor_us),
            render(nested.series, nested.epoch_anchor_us));
}

TEST(SeriesMergeTest, SameNameAndSourceConcatenatesInInputOrder) {
  obs::SeriesDoc tagged;
  obs::Series s;
  s.name = "s";
  s.source = "w";
  s.points = {{1, 1.0, 0}};
  tagged.series.push_back(s);
  obs::SeriesDoc tagged2 = tagged;
  tagged2.series[0].points = {{2, 2.0, 0}};
  const obs::SeriesDoc merged =
      obs::merge_series({{"a", tagged}, {"b", tagged2}});
  ASSERT_EQ(merged.series.size(), 1u);
  ASSERT_EQ(merged.series[0].points.size(), 2u);
  EXPECT_EQ(merged.series[0].points[0].step, 1);
  EXPECT_EQ(merged.series[0].points[1].step, 2);
}

TEST(SeriesMergeTest, EmptyInputAndDuplicateLabelsAreNamedErrors) {
  expect_throw_containing<std::invalid_argument>(
      [] { obs::merge_series({}); }, "no documents");
  const obs::SeriesDoc a = doc_with("s", {{1, 1.0, 0}}, 0);
  expect_throw_containing<std::invalid_argument>(
      [&] { obs::merge_series({{"w", a}, {"w", a}}); }, "duplicate label");
}

// ---- curves renderings ---------------------------------------------------

/// A series name holding every character that needs quoting in JSON or
/// CSV; a loaded or merged series file can carry any of them.
const char* const kHostileName = "odd\"name\\with,comma";

obs::SeriesDoc hostile_doc() {
  obs::SeriesDoc doc;
  obs::Series plain;
  plain.name = "train.loss";
  plain.points = {{1, 0.5, 11}, {2, 0.25, 12}};
  obs::Series odd;
  odd.name = kHostileName;
  odd.source = "worker\"0\\";
  odd.points = {{2, 1.0, 13}, {2, 3.0, 14}};
  doc.series = {plain, odd};
  return doc;
}

/// Split one CSV record into its fields (RFC 4180 quoting).
std::vector<std::string> csv_fields(const std::string& line) {
  std::vector<std::string> fields(1);
  bool quoted = false;
  for (std::size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (quoted && c == '"' && i + 1 < line.size() && line[i + 1] == '"') {
      fields.back() += '"';
      ++i;
    } else if (c == '"') {
      quoted = !quoted;
    } else if (c == ',' && !quoted) {
      fields.emplace_back();
    } else {
      fields.back() += c;
    }
  }
  return fields;
}

TEST(CurvesRenderTest, JsonWithHostileNamesParsesBack) {
  const obs::SeriesDoc doc = hostile_doc();
  std::ostringstream os;
  obs::render_curves_json(os, doc);
  const obs::json::Value v = obs::json::parse(os.str(), "curves");
  const obs::json::Value& series = v.at("series");
  ASSERT_EQ(series.items.size(), 2u);
  EXPECT_EQ(series.items[0].string_at("name"), "train.loss");
  EXPECT_EQ(series.items[0].find("source"), nullptr);
  EXPECT_EQ(series.items[1].string_at("name"), kHostileName);
  EXPECT_EQ(series.items[1].string_at("source"), "worker\"0\\");
  // Both points at step 2 survive; the wall clock does not appear.
  ASSERT_EQ(series.items[1].at("points").items.size(), 2u);
  EXPECT_EQ(os.str().find("wall"), std::string::npos);
}

TEST(CurvesRenderTest, CsvHeaderQuotesHostileLabels) {
  const obs::SeriesDoc doc = hostile_doc();
  std::ostringstream os;
  obs::render_curves_aligned(os, doc.series, /*csv=*/true);
  std::istringstream lines(os.str());
  std::string header, row1, row2;
  std::getline(lines, header);
  std::getline(lines, row1);
  std::getline(lines, row2);
  EXPECT_EQ(csv_fields(header),
            (std::vector<std::string>{"step", "train.loss",
                                      obs::series_label(doc.series[1])}));
  EXPECT_EQ(obs::series_label(doc.series[1]),
            std::string("worker\"0\\/") + kHostileName);
  // One row per step; the last point recorded at a step wins.
  EXPECT_EQ(row1, "1,0.5,");
  EXPECT_EQ(row2, "2,0.25,3");
}

TEST(CurvesRenderTest, TableAlignsStepsAcrossSeries) {
  const obs::SeriesDoc doc = hostile_doc();
  std::ostringstream os;
  obs::render_curves_aligned(os, doc.series, /*csv=*/false);
  std::istringstream lines(os.str());
  std::string header, row1;
  std::getline(lines, header);
  std::getline(lines, row1);
  EXPECT_EQ(header.rfind("step", 0), 0u);
  EXPECT_NE(header.find(obs::series_label(doc.series[1])), std::string::npos);
  EXPECT_EQ(row1.rfind("1 ", 0), 0u);
  EXPECT_NE(row1.find("0.5"), std::string::npos);
}

// ---- registry sampler ---------------------------------------------------

/// Each sampler test starts from a metric-free registry so ordinals and
/// series sets are exact; clear_for_testing invalidates references other
/// tests held, which none of this binary's tests keep across TESTs.
class SamplerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::set_enabled(true);
    obs::Registry::instance().clear_for_testing();
  }
  void TearDown() override {
    obs::Registry::instance().clear_for_testing();
    obs::set_enabled(false);
  }
};

TEST_F(SamplerTest, StepsAreSampleOrdinalsAndCountersAreDeltas) {
  obs::SeriesRecorder recorder;
  obs::RegistrySampler sampler(recorder);
  obs::counter("t.work").add(5);
  obs::gauge("t.level").set(2.5);
  sampler.sample_once();
  obs::counter("t.work").add(3);
  obs::gauge("t.level").set(1.5);
  sampler.sample_once();
  sampler.sample_once();  // no change: delta 0, gauge repeated

  const std::vector<obs::Series> series = recorder.snapshot();
  ASSERT_EQ(series.size(), 2u);
  EXPECT_EQ(series[0].name, "registry.t.level");
  EXPECT_EQ(series[1].name, "registry.t.work");
  ASSERT_EQ(series[1].points.size(), 3u);
  // Step keys are the sample ordinals — 0, 1, 2 — regardless of when
  // the samples were taken; the wall clock is display data only.
  EXPECT_EQ(series[1].points[0].step, 0);
  EXPECT_EQ(series[1].points[1].step, 1);
  EXPECT_EQ(series[1].points[2].step, 2);
  EXPECT_DOUBLE_EQ(series[1].points[0].value, 5.0);  // first = absolute
  EXPECT_DOUBLE_EQ(series[1].points[1].value, 3.0);  // then deltas
  EXPECT_DOUBLE_EQ(series[1].points[2].value, 0.0);
  EXPECT_DOUBLE_EQ(series[0].points[1].value, 1.5);  // gauges: instantaneous
}

TEST_F(SamplerTest, EmptyRegistryRecordsNothingAndConsumesNoStep) {
  obs::SeriesRecorder recorder;
  obs::RegistrySampler sampler(recorder);
  sampler.sample_once();
  sampler.sample_once();
  EXPECT_TRUE(recorder.empty());
  // The first real sample still lands on step 0: empty samples did not
  // consume ordinals, so late-enabled metrics stay aligned from zero.
  obs::counter("t.late").add(1);
  sampler.sample_once();
  const std::vector<obs::Series> series = recorder.snapshot();
  ASSERT_EQ(series.size(), 1u);
  ASSERT_EQ(series[0].points.size(), 1u);
  EXPECT_EQ(series[0].points[0].step, 0);
}

TEST_F(SamplerTest, CounterResetRestartsTheDelta) {
  obs::SeriesRecorder recorder;
  obs::RegistrySampler sampler(recorder);
  obs::counter("t.c").add(10);
  sampler.sample_once();
  obs::Registry::instance().reset();  // bench-style mid-run reset
  obs::counter("t.c").add(4);
  sampler.sample_once();
  const std::vector<obs::Series> series = recorder.snapshot();
  ASSERT_EQ(series.size(), 1u);
  ASSERT_EQ(series[0].points.size(), 2u);
  EXPECT_DOUBLE_EQ(series[0].points[0].value, 10.0);
  // 4 < 10: treated as a restart, recorded as the new absolute value.
  EXPECT_DOUBLE_EQ(series[0].points[1].value, 4.0);
}

}  // namespace
