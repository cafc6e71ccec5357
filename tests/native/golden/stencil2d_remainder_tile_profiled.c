// Stencil2D: generated by the liftcpp native backend.
// Semantics contract: bit-identical to the NDRange simulator
// (all loops run 0..count-1; floor division; exact float
// literals; float-precision math builtins).

#include <math.h>
#include <stdint.h>
#include <time.h>

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
static inline double lift_prof_now(void) {
  struct timespec lift_ts;
  clock_gettime(CLOCK_MONOTONIC, &lift_ts);
  return (double)lift_ts.tv_sec + 1e-9 * (double)lift_ts.tv_nsec;
}

static inline float idF(float x) { return x; }
static inline float Stencil2D_f(float a0, float a1, float a2, float a3, float a4, float a5, float a6, float a7, float a8) { return 0.0199999996f * a0 + 0.0799999982f * a1 + 0.0199999996f * a2 + 0.0799999982f * a3 + 0.600000024f * a4 + 0.0799999982f * a5 + 0.0199999996f * a6 + 0.0799999982f * a7 + 0.0199999996f * a8; }

void Stencil2D(void **lift_bufs, const long long *lift_sizes, int lift_threads, double *lift_prof) {
  float *restrict in0 = (float *)lift_bufs[0];
  float *restrict out = (float *)lift_bufs[1];
  const long long d0 = 53;
  const long long d1 = 47;
  (void)lift_threads;
  float lcl0[324] = {0};
  for (long long i0 = 0; i0 < (1 + lift_fdiv((-1 + d0), 16)); ++i0) {
    for (long long i1 = 0; i1 < (1 + lift_fdiv((-1 + d1), 16)); ++i1) {
      { /* region 0: lcl.i2 */
        const double lift_t0 = lift_prof_now();
        for (long long i2 = 0; i2 < 18; ++i2) {
          #pragma omp simd
          for (long long i3 = 0; i3 < 18; ++i3) {
            lcl0[((18 * i2) + i3)] = idF(in0[(lift_max(0, lift_min((-1 + d1), (-1 + i3 + lift_min((-16 + d1), (16 * i1))))) + (d1 * lift_max(0, lift_min((-1 + d0), (-1 + i2 + lift_min((-16 + d0), (16 * i0)))))))]);
          }
        }
        lift_prof[0] += lift_prof_now() - lift_t0;
      }
      /* work-group barrier: implicit (loop completed) */
      { /* region 1: lcl.i4 */
        const double lift_t0 = lift_prof_now();
        for (long long i4 = 0; i4 < 16; ++i4) {
          #pragma omp simd
          for (long long i5 = 0; i5 < 16; ++i5) {
            out[((47 * i4) + i5 + lift_min(31, (16 * i1)) + (47 * lift_min(37, (16 * i0))))] = Stencil2D_f(lcl0[((18 * i4) + i5)], lcl0[(1 + (18 * i4) + i5)], lcl0[(2 + (18 * i4) + i5)], lcl0[(18 + (18 * i4) + i5)], lcl0[(19 + (18 * i4) + i5)], lcl0[(20 + (18 * i4) + i5)], lcl0[(36 + (18 * i4) + i5)], lcl0[(37 + (18 * i4) + i5)], lcl0[(38 + (18 * i4) + i5)]);
          }
        }
        lift_prof[1] += lift_prof_now() - lift_t0;
      }
    }
  }
}
