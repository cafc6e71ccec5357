//===- RangeTest.cpp - Unit tests for interval analysis ------------------===//
//
// Part of the liftcpp project.
//
//===----------------------------------------------------------------------===//

#include "arith/ArithExpr.h"

#include <gtest/gtest.h>

#include <limits>

using namespace lift;

namespace {

TEST(Range, ConstantIsPoint) {
  Range R = cst(5)->getRange();
  ASSERT_TRUE(R.isBounded());
  EXPECT_EQ(*R.Min, 5);
  EXPECT_EQ(*R.Max, 5);
}

TEST(Range, VarCarriesDeclaredRange) {
  AExpr I = var("i", Range(0, 9));
  Range R = I->getRange();
  EXPECT_EQ(*R.Min, 0);
  EXPECT_EQ(*R.Max, 9);
}

TEST(Range, SumOfRanges) {
  AExpr I = var("i", Range(0, 9));
  AExpr J = var("j", Range(-2, 2));
  Range R = add(I, J)->getRange();
  EXPECT_EQ(*R.Min, -2);
  EXPECT_EQ(*R.Max, 11);
}

TEST(Range, ProductOfSignedRanges) {
  AExpr I = var("i", Range(-3, 2));
  AExpr J = var("j", Range(-1, 4));
  Range R = mul(I, J)->getRange();
  EXPECT_EQ(*R.Min, -12);
  EXPECT_EQ(*R.Max, 8);
}

TEST(Range, UnboundedVar) {
  AExpr N = var("n"); // fully unknown
  Range R = add(N, cst(1))->getRange();
  EXPECT_FALSE(R.Min.has_value());
  EXPECT_FALSE(R.Max.has_value());
}

TEST(Range, NonNegativeProductLowerBound) {
  AExpr N = var("n", Range(1, 1 << 30));
  AExpr M = var("m", Range(2, 1 << 30));
  Range R = mul(N, M)->getRange();
  ASSERT_TRUE(R.Min.has_value());
  EXPECT_EQ(*R.Min, 2);
}

TEST(Range, DivisionByPositive) {
  AExpr I = var("i", Range(0, 100));
  Range R = floorDiv(I, cst(8))->getRange();
  EXPECT_EQ(*R.Min, 0);
  EXPECT_EQ(*R.Max, 12);
}

TEST(Range, ModuloByPositiveIsBounded) {
  AExpr I = var("i", Range(-50, 100));
  Range R = floorMod(I, cst(8))->getRange();
  EXPECT_EQ(*R.Min, 0);
  EXPECT_EQ(*R.Max, 7);
}

TEST(Range, MinMaxCombination) {
  AExpr I = var("i", Range(0, 9));
  AExpr J = var("j", Range(5, 20));
  // These fold because ranges do not decide them only when overlapping;
  // here they overlap, so nodes survive and ranges combine.
  Range RMin = amin(I, J)->getRange();
  EXPECT_EQ(*RMin.Min, 0);
  EXPECT_EQ(*RMin.Max, 9);
  Range RMax = amax(I, J)->getRange();
  EXPECT_EQ(*RMax.Min, 5);
  EXPECT_EQ(*RMax.Max, 20);
}

TEST(Range, ClampIndexRange) {
  AExpr N = var("n", Range(1, 1 << 20));
  AExpr I = var("i", Range(-5, 1 << 20));
  Range R = clampIndex(I, N)->getRange();
  ASSERT_TRUE(R.Min.has_value());
  EXPECT_EQ(*R.Min, 0);
}

TEST(Range, OverflowingProductLeavesThatSideUnbounded) {
  // 2^30 * 2^60 does not fit in int64: the interval loses its upper
  // bound instead of wrapping, and keeps the exact lower one.
  AExpr N = var("n", Range(1, 1 << 30));
  Range Pos = mul(cst(std::int64_t(1) << 60), N)->getRange();
  ASSERT_TRUE(Pos.Min.has_value());
  EXPECT_EQ(*Pos.Min, std::int64_t(1) << 60);
  EXPECT_FALSE(Pos.Max.has_value());
  // A negative factor overflows toward the minimum instead.
  Range Neg = mul(cst(-(std::int64_t(1) << 60)), N)->getRange();
  EXPECT_FALSE(Neg.Min.has_value());
  ASSERT_TRUE(Neg.Max.has_value());
  EXPECT_EQ(*Neg.Max, -(std::int64_t(1) << 60));
}

TEST(Range, OverflowingOneSidedProductIsUnbounded) {
  Range Big;
  Big.Min = std::int64_t(1) << 40;
  AExpr A = var("a", Big), B = var("b", Big);
  Range R = mul(A, B)->getRange();
  EXPECT_FALSE(R.Min.has_value());
  EXPECT_FALSE(R.Max.has_value());
}

TEST(Range, OverflowingSumLeavesThatSideUnbounded) {
  AExpr A = var("a", Range(1, std::numeric_limits<std::int64_t>::max()));
  AExpr B = var("b", Range(1, 2));
  Range R = add(A, B)->getRange();
  ASSERT_TRUE(R.Min.has_value());
  EXPECT_EQ(*R.Min, 2);
  EXPECT_FALSE(R.Max.has_value());
}

} // namespace
