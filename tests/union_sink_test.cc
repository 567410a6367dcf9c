#include <gtest/gtest.h>

#include "operators/sink.h"

namespace dcape {
namespace {

JoinResult MakeResult(PartitionId p, int64_t seq) {
  JoinResult r;
  r.partition = p;
  r.join_key = p * 10;
  r.member_seqs = {seq, seq + 1};
  return r;
}

TEST(ResultSinkTest, CountsWithoutCollecting) {
  ResultSink sink(/*collect=*/false);
  sink.Consume(100, {MakeResult(0, 1), MakeResult(0, 2)});
  sink.Consume(200, {MakeResult(1, 3)});
  EXPECT_EQ(sink.total(), 3);
  EXPECT_EQ(sink.last_arrival(), 200);
  EXPECT_TRUE(sink.collected().empty());
}

TEST(ResultSinkTest, CollectsWhenAsked) {
  ResultSink sink(/*collect=*/true);
  sink.Consume(10, {MakeResult(2, 7)});
  ASSERT_EQ(sink.collected().size(), 1u);
  EXPECT_EQ(sink.collected()[0].partition, 2);
}

}  // namespace
}  // namespace dcape
