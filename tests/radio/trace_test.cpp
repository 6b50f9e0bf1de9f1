#include "radio/trace.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace radiocast::radio {
namespace {

TEST(Trace, KindNamesMatchVariantTags) {
  // message_kind_name(index) must agree with message_kind(body) for every
  // alternative — TraceCounters' per-kind totals depend on this: they are
  // counted from message bodies and reported by index.
  const std::vector<MessageBody> bodies = {
      BfsConstructMsg{}, AlarmMsg{}, DataMsg{}, AckMsg{}, PlainPacketMsg{},
      CodedMsg{}};
  ASSERT_EQ(bodies.size(), kNumMessageKinds);
  for (const MessageBody& body : bodies) {
    EXPECT_EQ(message_kind(body), message_kind_name(message_kind_index(body)));
  }
}

}  // namespace
}  // namespace radiocast::radio
