//===- UserFun.cpp - Scalar user functions ---------------------------------===//
//
// Part of the liftcpp project.
//
//===----------------------------------------------------------------------===//

#include "ir/UserFun.h"

#include "support/Support.h"

#include <cassert>
#include <cmath>

using namespace lift;
using namespace lift::ir;

UserFun::UserFun(std::string Name, std::vector<std::string> ParamNames,
                 std::vector<ScalarKind> ParamKinds, ScalarKind RetKind,
                 std::string OpenCLBody, EvalFn Eval, int FlopCost)
    : Name(std::move(Name)), ParamNames(std::move(ParamNames)),
      ParamKinds(std::move(ParamKinds)), RetKind(RetKind),
      OpenCLBody(std::move(OpenCLBody)), Eval(std::move(Eval)),
      FlopCost(FlopCost) {
  assert(this->ParamNames.size() == this->ParamKinds.size() &&
         "param name/kind count mismatch");
  assert(this->Eval && "user function requires an evaluation callback");
}

Scalar UserFun::evaluate(const std::vector<Scalar> &Args) const {
  assert(Args.size() == ParamKinds.size() && "user function arity mismatch");
#ifndef NDEBUG
  for (std::size_t I = 0, E = Args.size(); I != E; ++I)
    assert(Args[I].K == ParamKinds[I] && "user function argument kind");
#endif
  Scalar Result = Eval(Args);
  assert(Result.K == RetKind && "user function result kind");
  return Result;
}

UserFunPtr lift::ir::makeUserFun(std::string Name,
                                 std::vector<std::string> ParamNames,
                                 std::vector<ScalarKind> ParamKinds,
                                 ScalarKind RetKind, std::string OpenCLBody,
                                 UserFun::EvalFn Eval, int FlopCost) {
  return std::make_shared<UserFun>(std::move(Name), std::move(ParamNames),
                                   std::move(ParamKinds), RetKind,
                                   std::move(OpenCLBody), std::move(Eval),
                                   FlopCost);
}

/// Builds a binary float userfun with the given C expression over a, b.
static UserFunPtr binaryFloat(const char *Name, const char *CExpr,
                              float (*Fn)(float, float)) {
  return makeUserFun(
      Name, {"a", "b"}, {ScalarKind::Float, ScalarKind::Float},
      ScalarKind::Float, std::string("return ") + CExpr + ";",
      [Fn](const std::vector<Scalar> &Args) {
        return Scalar(Fn(Args[0].F, Args[1].F));
      });
}

UserFunPtr lift::ir::ufIdFloat() {
  static UserFunPtr UF = makeUserFun(
      "idF", {"x"}, {ScalarKind::Float}, ScalarKind::Float, "return x;",
      [](const std::vector<Scalar> &Args) { return Args[0]; });
  return UF;
}

UserFunPtr lift::ir::ufIdInt() {
  static UserFunPtr UF = makeUserFun(
      "idI", {"x"}, {ScalarKind::Int}, ScalarKind::Int, "return x;",
      [](const std::vector<Scalar> &Args) { return Args[0]; });
  return UF;
}

UserFunPtr lift::ir::ufAddFloat() {
  static UserFunPtr UF = binaryFloat(
      "addF", "a + b", [](float A, float B) { return A + B; });
  return UF;
}

UserFunPtr lift::ir::ufSubFloat() {
  static UserFunPtr UF = binaryFloat(
      "subF", "a - b", [](float A, float B) { return A - B; });
  return UF;
}

UserFunPtr lift::ir::ufMultFloat() {
  static UserFunPtr UF = binaryFloat(
      "multF", "a * b", [](float A, float B) { return A * B; });
  return UF;
}

UserFunPtr lift::ir::ufDivFloat() {
  static UserFunPtr UF = binaryFloat(
      "divF", "a / b", [](float A, float B) { return A / B; });
  return UF;
}

UserFunPtr lift::ir::ufMaxFloat() {
  static UserFunPtr UF = binaryFloat(
      "maxF", "fmax(a, b)", [](float A, float B) { return std::fmax(A, B); });
  return UF;
}

UserFunPtr lift::ir::ufMinFloat() {
  static UserFunPtr UF = binaryFloat(
      "minF", "fmin(a, b)", [](float A, float B) { return std::fmin(A, B); });
  return UF;
}
