// A tile inside a fuse region: neither representation fuses a generated
// loop, and each names its own limit instead of blaming full unrolling.
// RUN: not miniclang -fsyntax-only %s 2>&1 \
// RUN:   | FileCheck --check-prefix=SHADOW %s
// RUN: not miniclang -fsyntax-only -fopenmp-enable-irbuilder %s 2>&1 \
// RUN:   | FileCheck --check-prefix=IRBUILDER %s
int main() {
  int a[8];
  int b[8];
  #pragma omp fuse
  {
    #pragma omp tile sizes(2)
    for (int i = 0; i < 8; i += 1)
      a[i] = i;
    for (int j = 0; j < 8; j += 1)
      b[j] = j;
  }
  return a[3] + b[4];
}
// SHADOW: error: '#pragma omp fuse' over transformed loops with pre-initialization is not supported
// SHADOW-NOT: fully unrolled
// IRBUILDER: error: '#pragma omp fuse' over transformed loops is not supported in the OpenMPIRBuilder representation
// IRBUILDER-NOT: fully unrolled
