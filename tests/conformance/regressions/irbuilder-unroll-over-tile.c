// Fuzzer-found: composing 'unroll partial' over 'tile' in IRBuilder
// mode continued emission with set_insert_point on the inner after
// block, which already carried a branch terminator — later statements
// landed after the terminator and the real continuation stayed empty
// ("block omp_loop.0.after is empty").  Emission must follow the
// pass-through branch chain to the final unterminated block.
// At -O, LoopUnroll cloned the tiled nest in one pass, so the cloned
// inner header phi kept its backedge value from the original loop
// ("after 90"); clone_blocks now remaps cloned phis afterwards.
// RUN: miniclang --run -fopenmp-enable-irbuilder %s | FileCheck %s
// RUN: miniclang --run -O -fopenmp-enable-irbuilder %s | FileCheck %s
// RUN: miniclang --run %s | FileCheck %s
int printf(const char *fmt, ...);
int main() {
  int sum = 0;
  #pragma omp unroll partial(2)
  #pragma omp tile sizes(3)
  for (int i = 0; i < 17; i += 1)
    sum += i;
  printf("after %d\n", sum);
  return 0;
}
// CHECK: after 136
