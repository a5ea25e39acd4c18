// Tests for the MAC frame layer: hints carried on control, data and hint
// frames (§2.3).
#include <gtest/gtest.h>

#include <vector>

#include "mac/frame.h"

namespace sh::mac {
namespace {

TEST(FrameTest, ControlFrameCarriesMovementBit) {
  const Frame ack = make_control_frame(FrameType::kAck, 3, 7, true);
  EXPECT_EQ(ack.type, FrameType::kAck);
  EXPECT_TRUE(core::movement_bit(ack.flags));
  EXPECT_EQ(ack.body_bytes(), 0U);  // zero-byte overhead, as §2.3 promises

  const auto hints = extract_hints(ack, 123);
  ASSERT_EQ(hints.size(), 1U);
  EXPECT_EQ(hints[0].type, core::HintType::kMovement);
  EXPECT_TRUE(hints[0].as_bool());
  EXPECT_EQ(hints[0].timestamp, 123);
  EXPECT_EQ(hints[0].source, 3U);
}

TEST(FrameTest, ClearBitYieldsNoHint) {
  // A clear bit on a legacy frame is indistinguishable from "no hint
  // protocol" — it must not be read as movement=false.
  const Frame ack = make_control_frame(FrameType::kAck, 3, 7, false);
  EXPECT_TRUE(extract_hints(ack, 1).empty());
}

TEST(FrameTest, DataFramePiggybacksHints) {
  const std::vector<core::Hint> hints{
      core::Hint::movement(false, 0, 0),
      core::Hint::heading(200.0, 0, 0),
  };
  const Frame frame = make_data_frame(9, 2, {1, 2, 3}, hints);
  EXPECT_EQ(frame.payload.size(), 3U);
  EXPECT_EQ(frame.hint_block.size(), core::hint_block_size(2));

  const auto extracted = extract_hints(frame, 55);
  ASSERT_EQ(extracted.size(), 2U);
  EXPECT_EQ(extracted[0].type, core::HintType::kMovement);
  EXPECT_FALSE(extracted[0].as_bool());
  EXPECT_NEAR(extracted[1].value, 200.0, 1.0);
  EXPECT_EQ(extracted[1].source, 9U);
}

TEST(FrameTest, MovementBlockOverridesFlagBit) {
  // The data-frame builder mirrors movement into the flag; extraction must
  // not produce a duplicate (block is authoritative).
  const std::vector<core::Hint> hints{core::Hint::movement(true, 0, 0)};
  const Frame frame = make_data_frame(9, 2, {}, hints);
  EXPECT_TRUE(core::movement_bit(frame.flags));
  const auto extracted = extract_hints(frame, 1);
  ASSERT_EQ(extracted.size(), 1U);
  EXPECT_TRUE(extracted[0].as_bool());
}

TEST(FrameTest, LegacyDataFrameYieldsNothing) {
  const Frame frame = make_data_frame(9, 2, {1, 2, 3}, {});
  EXPECT_TRUE(frame.hint_block.empty());
  EXPECT_TRUE(extract_hints(frame, 1).empty());
}

TEST(FrameTest, CorruptBlockFailsClosed) {
  std::vector<core::Hint> hints{core::Hint::heading(10.0, 0, 0)};
  Frame frame = make_data_frame(9, 2, {}, hints);
  frame.hint_block[0] ^= 0xFF;  // destroy the magic
  EXPECT_TRUE(extract_hints(frame, 1).empty());
}

TEST(FrameTest, StandaloneHintFrame) {
  const std::vector<core::Hint> hints{core::Hint::speed(7.0, 0, 0)};
  const Frame frame = make_hint_frame(4, hints);
  EXPECT_EQ(frame.type, FrameType::kHint);
  const auto extracted = extract_hints(frame, 9);
  ASSERT_EQ(extracted.size(), 1U);
  EXPECT_NEAR(extracted[0].value, 7.0, 0.25);
}

TEST(FrameTest, EnvironmentActivityRoundTripsThroughFrames) {
  const std::vector<core::Hint> hints{
      core::Hint::environment_activity(true, 0, 0)};
  const Frame frame = make_hint_frame(4, hints);
  const auto extracted = extract_hints(frame, 9);
  ASSERT_EQ(extracted.size(), 1U);
  EXPECT_EQ(extracted[0].type, core::HintType::kEnvironmentActivity);
  EXPECT_TRUE(extracted[0].as_bool());
}

}  // namespace
}  // namespace sh::mac
