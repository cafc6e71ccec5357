// Jacobi2D5pt: generated by the liftcpp native backend.
// Semantics contract: bit-identical to the NDRange simulator
// (all loops run 0..count-1; floor division; exact float
// literals; float-precision math builtins).

#include <math.h>
#include <stdint.h>

#define sqrt(x) sqrtf(x)
#define fmax(a, b) fmaxf((a), (b))
#define fmin(a, b) fminf((a), (b))

static inline long long lift_fdiv(long long a, long long b) {
  long long q = a / b;
  if ((a % b != 0) && ((a < 0) != (b < 0)))
    --q;
  return q;
}
static inline long long lift_fmod(long long a, long long b) {
  return a - lift_fdiv(a, b) * b;
}
static inline long long lift_min(long long a, long long b) {
  return a < b ? a : b;
}
static inline long long lift_max(long long a, long long b) {
  return a > b ? a : b;
}

static inline float Jacobi2D5pt_f(float a0, float a1, float a2, float a3, float a4) { return 0.200000003f * a0 + 0.200000003f * a1 + 0.200000003f * a2 + 0.200000003f * a3 + 0.200000003f * a4; }

void Jacobi2D5pt(void **lift_bufs, const long long *lift_sizes, int lift_threads, double *lift_prof) {
  float *restrict in0 = (float *)lift_bufs[0];
  float *restrict out = (float *)lift_bufs[1];
  const long long d0 = lift_sizes[0];
  const long long d1 = lift_sizes[1];
  (void)lift_threads;
  (void)lift_prof;
  #pragma omp parallel for schedule(static) num_threads(lift_threads)
  for (long long i0 = 0; i0 < 1; ++i0) {
    #pragma omp simd
    for (long long i1 = 0; i1 < d1; ++i1) {
      out[(i1 + (d1 * i0))] = Jacobi2D5pt_f(in0[(lift_min(i1, (-1 + d1)) + (d1 * lift_max(0, lift_min((-1 + d0), (-1 + i0)))))], in0[(lift_max(0, lift_min((-1 + d1), (-1 + i1))) + (d1 * lift_min(i0, (-1 + d0))))], in0[(lift_min(i1, (-1 + d1)) + (d1 * lift_min(i0, (-1 + d0))))], in0[(lift_min((-1 + d1), (1 + i1)) + (d1 * lift_min(i0, (-1 + d0))))], in0[(lift_min(i1, (-1 + d1)) + (d1 * lift_min((-1 + d0), (1 + i0))))]);
    }
  }
  #pragma omp parallel for schedule(static) num_threads(lift_threads)
  for (long long i0_i = 0; i0_i < lift_max(0, (-2 + d0)); ++i0_i) {
    #pragma omp simd
    for (long long i1 = 0; i1 < 1; ++i1) {
      out[(d1 + i1 + (d1 * i0_i))] = Jacobi2D5pt_f(in0[(i1 + (d1 * i0_i))], in0[(d1 + lift_max(0, (-1 + i1)) + (d1 * i0_i))], in0[(d1 + i1 + (d1 * i0_i))], in0[(d1 + lift_min((-1 + d1), (1 + i1)) + (d1 * i0_i))], in0[((2 * d1) + i1 + (d1 * i0_i))]);
    }
    #pragma omp simd
    for (long long i1_i = 0; i1_i < lift_max(0, (-2 + d1)); ++i1_i) {
      out[(1 + d1 + i1_i + (d1 * i0_i))] = Jacobi2D5pt_f(in0[(1 + i1_i + (d1 * i0_i))], in0[(d1 + i1_i + (d1 * i0_i))], in0[(1 + d1 + i1_i + (d1 * i0_i))], in0[(2 + d1 + i1_i + (d1 * i0_i))], in0[(1 + (2 * d1) + i1_i + (d1 * i0_i))]);
    }
    #pragma omp simd
    for (long long i1_r = 0; i1_r < lift_max(0, (d1 + (-1 * lift_max(1, (-1 + d1))))); ++i1_r) {
      out[(d1 + i1_r + lift_max(1, (-1 + d1)) + (d1 * i0_i))] = Jacobi2D5pt_f(in0[(i1_r + lift_max(1, (-1 + d1)) + (d1 * i0_i))], in0[(-1 + d1 + i1_r + lift_max(1, (-1 + d1)) + (d1 * i0_i))], in0[(d1 + i1_r + lift_max(1, (-1 + d1)) + (d1 * i0_i))], in0[(d1 + lift_min((-1 + d1), (1 + i1_r + lift_max(1, (-1 + d1)))) + (d1 * i0_i))], in0[((2 * d1) + i1_r + lift_max(1, (-1 + d1)) + (d1 * i0_i))]);
    }
  }
  #pragma omp parallel for schedule(static) num_threads(lift_threads)
  for (long long i0_r = 0; i0_r < lift_max(0, (d0 + (-1 * lift_max(1, (-1 + d0))))); ++i0_r) {
    #pragma omp simd
    for (long long i1 = 0; i1 < d1; ++i1) {
      out[(i1 + (d1 * i0_r) + (d1 * lift_max(1, (-1 + d0))))] = Jacobi2D5pt_f(in0[(lift_min(i1, (-1 + d1)) + (d1 * lift_min((-1 + d0), (-1 + i0_r + lift_max(1, (-1 + d0))))))], in0[(lift_max(0, lift_min((-1 + d1), (-1 + i1))) + (d1 * lift_min((-1 + d0), (i0_r + lift_max(1, (-1 + d0))))))], in0[(lift_min(i1, (-1 + d1)) + (d1 * lift_min((-1 + d0), (i0_r + lift_max(1, (-1 + d0))))))], in0[(lift_min((-1 + d1), (1 + i1)) + (d1 * lift_min((-1 + d0), (i0_r + lift_max(1, (-1 + d0))))))], in0[(lift_min(i1, (-1 + d1)) + (d1 * lift_min((-1 + d0), (1 + i0_r + lift_max(1, (-1 + d0))))))]);
    }
  }
}
