// 'simd' and 'taskloop' over any loop transformation crashed CodeGen
// with -fopenmp-enable-irbuilder ("cannot emit expression NoneType"):
// the serial logical loop only looked for the consumer's own canonical
// loops, so a consumer of an inner transformation's generated loop fell
// through to the shadow-AST helpers, which the IRBuilder representation
// never builds.  Every consumer now asks for its generated loops the
// same way.
// RUN: miniclang --run -fopenmp-enable-irbuilder %s | FileCheck %s
// RUN: miniclang --run -O1 -fopenmp-enable-irbuilder %s | FileCheck %s
// RUN: miniclang --run %s | FileCheck %s
// RUN: miniclang --run -O1 %s | FileCheck %s
int printf(const char *fmt, ...);
int main() {
  int sum = 0;
  #pragma omp simd
  #pragma omp tile sizes(4)
  for (int i = 0; i < 10; i++)
    sum += i;
  printf("simd-over-tile %d\n", sum);

  int order = 0;
  #pragma omp taskloop
  #pragma omp reverse
  for (int i = 0; i < 5; i++)
    order = order * 10 + i;
  printf("taskloop-over-reverse %d\n", order);
  return 0;
}
// CHECK: simd-over-tile 45
// CHECK-NEXT: taskloop-over-reverse 43210
